"""Checks of basketsim's outputs against computations made apart from it.

The replicate banks come from ``basketsim.engine.generate_responses`` (and
the generator is checked on its own, by a property).  Everything else is
recomputed here from the published formulas with scipy:

* tails ``Pr(p > p0)`` by ``scipy.special.betaincc``;
* CPP/LCPP/APP weights from their closed forms, Fujikawa's JSD by
  ``scipy.integrate.quad`` memoized per shape pair, BMA by enumerating
  every set partition;
* the threshold lambda by scanning the whole 0.001 grid;
* BHM and EXNEX by deterministic integration over (mu, sigma) with a 1-D
  theta integral per basket, compared with the sampler on a sample of the
  workload's data sets.

Each check function returns a list of failure messages keyed by the cell
they concern; an empty list means the cell passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from collections import defaultdict

import numpy as np
from scipy import integrate, special, stats

P0 = 0.15
ALPHA = 0.05
LAMBDA_STEPS = np.arange(1, 1000) / 1000.0
PATTERNS = ("Null", "Alternative", "Ascending", "Descending", "BGN", "SGN")
FAMILIES = ("Linear", "Grouped", "HighVariance")
PATTERN_RATES = {
    "Null": (0.15, 0.15, 0.15, 0.15, 0.15),
    "Alternative": (0.35, 0.35, 0.35, 0.35, 0.35),
    "Ascending": (0.15, 0.15, 0.25, 0.35, 0.35),
    "Descending": (0.35, 0.35, 0.25, 0.15, 0.15),
    "BGN": (0.15, 0.15, 0.15, 0.15, 0.40),
    "SGN": (0.40, 0.15, 0.15, 0.15, 0.15),
}
FAMILY_SIZES = {
    "Linear": (10, 15, 20, 25, 30),
    "Grouped": (10, 10, 25, 25, 30),
    "HighVariance": (10, 10, 10, 20, 50),
}
STRICT = {"BMA", "BHM", "EXNEX"}
NOT_PRODUCED = "command failed"  # the only problem of a cell whose command failed
# fixed hyperparameters of the hierarchical designs (the tunable ones,
# phi and q, are read from each output row)
BHM_TARGET = 0.35
BHM_MU_MEAN = -1.1156
EXNEX_MU_MEAN = -1.7346
EXNEX_NEX_MEAN = -1.7346
MU_SD = 100.0
NEX_SD = 100.0


class Scenario:
    """One catalog scenario, numbered as the program numbers its builtin catalog."""

    def __init__(self, pattern: str, family: str):
        self.id = 1 + 3 * PATTERNS.index(pattern) + FAMILIES.index(family)
        self.pattern = pattern
        self.size_family = family
        self.sample_sizes = FAMILY_SIZES[family]
        self.true_rates = PATTERN_RATES[pattern]
        self.fixed_responses = None
        self.k = len(self.sample_sizes)

    @property
    def active(self) -> np.ndarray:
        return np.asarray(self.true_rates) > P0


def scenarios(family: str | None = None) -> list[Scenario]:
    fams = FAMILIES if family is None else (family,)
    return sorted(
        (Scenario(p, f) for p in PATTERNS for f in fams), key=lambda s: s.id
    )


# ---------------------------------------------------------------------------
# Reading the program's output files
# ---------------------------------------------------------------------------


def read_csv(path) -> tuple[str, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    header = "".join(line for line in text.splitlines(True) if line.startswith("#"))
    body = "".join(line for line in text.splitlines(True) if not line.startswith("#"))
    return header, list(csv.DictReader(io.StringIO(body)))


def on_lambda_grid(text: str) -> bool:
    try:
        value = float(text)
    except ValueError:
        return False
    step = round(value * 1000)
    return 1 <= step <= 999 and abs(value - step / 1000) < 1e-12 and text == f"{value:.3f}"


# ---------------------------------------------------------------------------
# Replicate banks and the generator property
# ---------------------------------------------------------------------------


class Banks:
    """Replicate banks drawn through the program's generator, cached per scenario."""

    def __init__(self, generate_responses, n_reps: int, seed: int):
        self._generate = generate_responses
        self.n_reps = n_reps
        self.seed = seed
        self._cache: dict[int, np.ndarray] = {}

    def __call__(self, scenario: Scenario) -> np.ndarray:
        if scenario.id not in self._cache:
            self._cache[scenario.id] = np.asarray(
                self._generate(scenario, self.n_reps, self.seed), dtype=np.int64
            )
        return self._cache[scenario.id]


# Each basket's mean count must lie within this many standard errors of n*p.
# With up to 90 baskets per run, 6 keeps the chance of a false alarm on a
# correct generator below 1e-6 per run (4 would raise one in ~0.6% of runs).
GENERATOR_Z = 6.0


def check_generator(scenario: Scenario, bank: np.ndarray) -> list[str]:
    n = np.asarray(scenario.sample_sizes, dtype=float)
    p = np.asarray(scenario.true_rates)
    problems = []
    if bank.shape != (bank.shape[0], scenario.k):
        problems.append(f"bank shape {bank.shape}")
    if (bank < 0).any() or (bank > n[None, :]).any():
        problems.append("responses outside [0, n]")
    se = np.sqrt(n * p * (1 - p) / bank.shape[0])
    z = np.abs(bank.mean(axis=0) - n * p) / se
    if (z > GENERATOR_Z).any():
        problems.append(f"basket mean counts {z.round(2).tolist()} SE from n*p")
    return problems


# ---------------------------------------------------------------------------
# Closed-form designs
# ---------------------------------------------------------------------------


def beta_tail(a, b):
    """Pr(p > P0) under Beta(a, b)."""
    return special.betaincc(a, b, P0)


def _with_unit_diagonal(w: np.ndarray) -> np.ndarray:
    k = w.shape[-1]
    w[:, np.arange(k), np.arange(k)] = 1.0
    return w


def cpp_weights(r: np.ndarray, n: np.ndarray, a: float, b: float) -> np.ndarray:
    """1 / (1 + exp(a + b ln s)), s = max(n_k, n_i)^(1/4) |r_k/n_k - r_i/n_i|."""
    rate = r / n
    s = np.maximum.outer(n, n)[None] ** 0.25 * np.abs(rate[:, :, None] - rate[:, None, :])
    w = np.ones_like(s)
    pos = s > 0
    with np.errstate(over="ignore"):
        w[pos] = 1.0 / (1.0 + np.exp(a) * s[pos] ** b)
    return w


def size_cap(n: np.ndarray) -> np.ndarray:
    """alpha0[k, i] = min(1, n_k / n_i)."""
    return np.minimum(1.0, n[:, None] / n[None, :])


def app_weights(r: np.ndarray, n: np.ndarray) -> np.ndarray:
    """alpha0 times one minus the Hellinger distance of size-downgraded likelihoods."""
    nk, ni = n[:, None], n[None, :]
    wk = np.minimum(1.0, ni / nk)  # power on basket k's likelihood in pair (k, i)
    rk, ri = r[:, :, None], r[:, None, :]
    fa, fb = wk * rk + 1.0, wk * (nk - rk) + 1.0
    ga, gb = wk.T * ri + 1.0, wk.T * (ni - ri) + 1.0
    bc = np.exp(
        special.betaln((fa + ga) / 2, (fb + gb) / 2)
        - special.betaln(fa, fb) / 2 - special.betaln(ga, gb) / 2
    )
    hellinger = np.sqrt(np.clip(1.0 - bc, 0.0, 1.0))
    return size_cap(n)[None] * (1.0 - hellinger)


class JsdMemo:
    """Base-2 Jensen-Shannon divergence of two beta densities, one quad per pair."""

    def __init__(self):
        self.values: dict[tuple, float] = {}

    def __call__(self, f: tuple, g: tuple) -> float:
        if f == g:
            return 0.0
        key = (f, g) if f <= g else (g, f)
        if key not in self.values:
            self.values[key] = self._quad(*key)
        return self.values[key]

    @staticmethod
    def _quad(f, g) -> float:
        (a1, b1), (a2, b2) = f, g
        c1 = math.lgamma(a1 + b1) - math.lgamma(a1) - math.lgamma(b1)
        c2 = math.lgamma(a2 + b2) - math.lgamma(a2) - math.lgamma(b2)

        def integrand(x):
            lx, l1x = math.log(x), math.log1p(-x)
            lw = c1 + (a1 - 1) * lx + (b1 - 1) * l1x
            lq = c2 + (a2 - 1) * lx + (b2 - 1) * l1x
            top = max(lw, lq)
            lm = top + math.log(0.5 * (math.exp(lw - top) + math.exp(lq - top)))
            return 0.5 * (math.exp(lw) * (lw - lm) + math.exp(lq) * (lq - lm))

        value, _ = integrate.quad(integrand, 0.0, 1.0, epsabs=1e-12, epsrel=1e-10,
                                  limit=200)
        return min(1.0, max(0.0, value / math.log(2.0)))

    def matrix(self, alphas: np.ndarray, betas: np.ndarray) -> np.ndarray:
        n_reps, k = alphas.shape
        out = np.zeros((n_reps, k, k))
        for i in range(n_reps):
            shapes = list(zip(alphas[i].tolist(), betas[i].tolist()))
            for a in range(k):
                for b in range(a + 1, k):
                    out[i, a, b] = out[i, b, a] = self(shapes[a], shapes[b])
        return out


def set_partitions(items: list) -> list[list[list]]:
    if not items:
        return [[]]
    first, rest = items[0], items[1:]
    out = []
    for part in set_partitions(rest):
        out.append([[first]] + part)
        for j in range(len(part)):
            out.append(part[:j] + [[first] + part[j]] + part[j + 1:])
    return out


def bma_tails_means(r: np.ndarray, n: np.ndarray, psi: float):
    """Average over all equal-rate partitions, prior exp(psi * blocks), Beta(1,1)."""
    n_reps, k = r.shape
    models = set_partitions(list(range(k)))
    log_w = np.empty((len(models), n_reps))
    tails = np.empty((len(models), n_reps, k))
    means = np.empty((len(models), n_reps, k))
    for j, blocks in enumerate(models):
        log_w[j] = psi * len(blocks)
        for block in blocks:
            rb = r[:, block].sum(axis=1)
            nb = n[block].sum()
            a, b = 1.0 + rb, 1.0 + nb - rb
            log_w[j] += special.betaln(a, b)
            for basket in block:
                tails[j, :, basket] = beta_tail(a, b)
                means[j, :, basket] = a / (a + b)
    probs = np.exp(log_w - log_w.max(axis=0))
    probs /= probs.sum(axis=0)
    return np.einsum("jr,jrk->rk", probs, tails), np.einsum("jr,jrk->rk", probs, means)


def closed_form_tails_means(design: str, params: dict, r: np.ndarray, sizes, jsd: JsdMemo):
    n = np.asarray(sizes, dtype=float)
    r = r.astype(float)
    if design == "BMA":
        return bma_tails_means(r, n, params["psi"])
    if design == "Fujikawa":
        own_a, own_b = 1.0 + r, 1.0 + n - r
        w = (1.0 - jsd.matrix(own_a, own_b)) ** params["epsilon"]
        w[w <= params["tau"]] = 0.0
        w = _with_unit_diagonal(w)
        alphas = np.einsum("rki,ri->rk", w, own_a)
        betas = np.einsum("rki,ri->rk", w, own_b)
    else:
        if design == "CPP":
            w = cpp_weights(r, n, params["a"], params["b"])
        elif design == "LCPP":
            w = size_cap(n)[None] * cpp_weights(r, n, params["a"], params["b"])
        elif design == "APP":
            w = app_weights(r, n)
        else:
            raise ValueError(f"no closed form for {design}")
        w = _with_unit_diagonal(w)
        alphas = 1.0 + np.einsum("rki,ri->rk", w, r)
        betas = 1.0 + np.einsum("rki,ri->rk", w, n[None, :] - r)
    return beta_tail(alphas, betas), alphas / (alphas + betas)


def calibrate(max_tails: np.ndarray, strict: bool) -> float | None:
    """Smallest grid lambda with at most ALPHA * R family-wise errors, by full scan."""
    hits = max_tails[None, :] > LAMBDA_STEPS[:, None] if strict \
        else max_tails[None, :] >= LAMBDA_STEPS[:, None]
    ok = hits.sum(axis=1) <= ALPHA * max_tails.size + 1e-9
    return float(LAMBDA_STEPS[np.argmax(ok)]) if ok.any() else None


def decide(tails: np.ndarray, lam: float, strict: bool) -> np.ndarray:
    return tails > lam if strict else tails >= lam


def cell_values(scenario: Scenario, decisions: np.ndarray, means: np.ndarray) -> dict:
    active = scenario.active
    inactive = ~active
    fwer = decisions[:, inactive].any(axis=1).mean() if inactive.any() else 0.0
    return {
        "rejection_rate": decisions.mean(axis=0),
        "bias": means.mean(axis=0) - np.asarray(scenario.true_rates),
        "ecd_mean": (decisions == active[None, :]).sum(axis=1).mean(),
        "fwer": fwer,
    }


# ---------------------------------------------------------------------------
# Properties every oc.csv cell must have
# ---------------------------------------------------------------------------

CSV_EPS = 3e-6  # several values rounded to 6 decimals


def cell_properties(scenario: Scenario, rows: list[dict]) -> list[str]:
    """The checks that hold for any design, given one (scenario, design) cell."""
    problems = []
    if [int(r["basket_index"]) for r in rows] != list(range(1, scenario.k + 1)):
        return [f"basket rows {[r['basket_index'] for r in rows]}"]
    for r, n, p in zip(rows, scenario.sample_sizes, scenario.true_rates):
        if int(r["n"]) != n or abs(float(r["true_p"]) - p) > 1e-9:
            problems.append(f"basket {r['basket_index']} has n={r['n']} p={r['true_p']}")
        if r["pattern"] != scenario.pattern or r["size_family"] != scenario.size_family:
            problems.append("pattern or family mismatch")
    shared = {(r["ecd_mean"], r["fwer"], r["lambda"], r["param_json"]) for r in rows}
    if len(shared) != 1:
        problems.append("cell-level columns differ between basket rows")
    rates = np.array([float(r["rejection_rate"]) for r in rows])
    ecd, fwer = float(rows[0]["ecd_mean"]), float(rows[0]["fwer"])
    if ((rates < 0) | (rates > 1)).any():
        problems.append("rejection rate outside [0, 1]")
    active = scenario.active
    identity = np.where(active, rates, 1.0 - rates).sum()
    if abs(identity - ecd) > CSV_EPS:
        problems.append(f"ECD {ecd} != sum of correct-decision rates {identity:.6f}")
    toer = rates[~active]
    if toer.size:
        if not toer.max() - CSV_EPS <= fwer <= toer.sum() + CSV_EPS:
            problems.append(f"FWER {fwer} outside [max TOER, sum TOER]")
    elif fwer != 0.0:
        problems.append(f"FWER {fwer} with no inactive basket")
    if scenario.pattern == "Null" and fwer > ALPHA + 1e-12:
        problems.append(f"null FWER {fwer} above alpha")
    if not on_lambda_grid(rows[0]["lambda"]):
        problems.append(f"lambda {rows[0]['lambda']} not on the 0.001 grid")
    return problems


def group_cells(rows: list[dict]) -> dict:
    cells = defaultdict(list)
    for row in rows:
        cells[(int(row["scenario_id"]), row["design"])].append(row)
    return cells


def check_header(header: str, seed: int, reps: int) -> list[str]:
    if f" seed={seed} " not in header or f" reps={reps} " not in header:
        return [f"header {header.strip()!r} does not carry seed={seed} reps={reps}"]
    return []


def compare_cell(rows: list[dict], lam: float, values: dict, n_reps: int) -> list[str]:
    """Program cell against the oracle: at most two replicates apart per value."""
    problems = []
    if abs(float(rows[0]["lambda"]) - lam) > 0.001 + 1e-9:
        problems.append(f"lambda {rows[0]['lambda']} vs oracle {lam:.3f}")
    tol = 2.0 / n_reps + 1e-6
    for k, row in enumerate(rows):
        if abs(float(row["rejection_rate"]) - values["rejection_rate"][k]) > tol:
            problems.append(
                f"basket {k + 1} rejection {row['rejection_rate']} vs "
                f"{values['rejection_rate'][k]:.6f}"
            )
        if abs(float(row["bias"]) - values["bias"][k]) > 1e-6:
            problems.append(f"basket {k + 1} bias {row['bias']} vs {values['bias'][k]:.6f}")
    for name in ("ecd_mean", "fwer"):
        if abs(float(rows[0][name]) - values[name]) > tol:
            problems.append(f"{name} {rows[0][name]} vs {values[name]:.6f}")
    return problems


def check_closed_study(oc_by_design: dict, banks: Banks, seed: int, reps: int,
                       designs, jsd: JsdMemo) -> dict:
    """Recompute every cell of a closed-form ``simulate`` and check its properties.

    ``oc_by_design`` maps a design to its oc.csv path (None when the command
    failed).  Returns {(scenario id, design): [problems]} for every cell.
    """
    results = {}
    catalog = scenarios()
    generator = {s.id: check_generator(s, banks(s)) for s in catalog}
    for design in designs:
        path = oc_by_design.get(design)
        if path is None:
            for s in catalog:
                results[(s.id, design)] = [NOT_PRODUCED]
            continue
        header, rows = read_csv(path)
        header_problems = check_header(header, seed, reps)
        cells = group_cells(rows)
        if set(cells) != {(s.id, design) for s in catalog}:
            header_problems.append("cells missing or extra")
        for family in FAMILIES:
            fam = [s for s in catalog if s.size_family == family]
            produced = [cells[(s.id, design)] for s in fam if (s.id, design) in cells]
            if not produced:
                for s in fam:
                    results[(s.id, design)] = header_problems + ["cell missing"]
                continue
            params = json.loads(produced[0][0]["param_json"])
            computed = {s.id: closed_form_tails_means(design, params, banks(s), s.sample_sizes, jsd)
                        for s in fam}
            null = next(s for s in fam if s.pattern == "Null")
            lam = calibrate(computed[null.id][0].max(axis=1), design in STRICT)
            for s in fam:
                key = (s.id, design)
                problems = list(header_problems) + generator[s.id]
                rows_s = cells.get(key)
                if not rows_s:
                    results[key] = problems + ["cell missing"]
                    continue
                problems += cell_properties(s, rows_s)
                if lam is None:
                    problems.append("oracle finds no feasible lambda")
                else:
                    tails, means = computed[s.id]
                    values = cell_values(s, decide(tails, lam, design in STRICT), means)
                    problems += compare_cell(rows_s, lam, values, reps)
                results[key] = problems
    return results


# ---------------------------------------------------------------------------
# Tuning grid
# ---------------------------------------------------------------------------


def check_tuning(path, banks: Banks, seed: int, reps: int, family: str, design: str,
                 grid_size: int, jsd: JsdMemo) -> list[list[str]]:
    """Problems per tuning.csv row of one (family, design); [] rows pass."""
    header, rows = read_csv(path)
    common = check_header(header, seed, reps)
    rows = [r for r in rows if r["size_family"] == family and r["design"] == design]
    if len(rows) != grid_size:
        common.append(f"{len(rows)} grid rows, expected {grid_size}")
    fam = scenarios(family)
    common += [m for s in fam for m in check_generator(s, banks(s))]
    problems = [list(common) for _ in rows]
    feasible = [i for i, r in enumerate(rows) if r["lambda"] != ""]
    mean_ecd = {i: float(rows[i]["mean_ecd"]) for i in feasible}
    selected = [i for i, r in enumerate(rows) if r["selected"] == "1"]
    top = max(mean_ecd.values(), default=None)
    # Mean ECDs are multiples of 1/(6R), so rows equal in the CSV are exact
    # ties.  The program should pick the earliest of them, but its float
    # means can differ in the last bit, so any of the tied rows is accepted.
    if len(selected) != 1 or mean_ecd.get(selected[0]) != top:
        for i in selected or range(len(rows)):
            problems[i].append(f"selected rows {selected}, highest mean ECD is {top}")
    best = selected[0] if len(selected) == 1 else None
    for i in feasible:
        row = rows[i]
        if not on_lambda_grid(row["lambda"]):
            problems[i].append(f"lambda {row['lambda']} off the 0.001 grid")
        ecds = [float(row[f"ecd_{p.lower()}"]) for p in PATTERNS]
        if any(not 0 <= e <= 5 for e in ecds):
            problems[i].append("pattern ECD outside [0, K]")
        if abs(sum(ecds) / len(ecds) - mean_ecd[i]) > CSV_EPS:
            problems[i].append("mean ECD is not the mean over patterns")
    others = [i for i in range(len(rows)) if i != best]
    for i in ([best] if best is not None else []) + others[len(others) // 2:][:1]:
        problems[i] += _recompute_point(rows[i], fam, banks, design, reps, jsd)
    missing = [common + ["row missing"]] * (grid_size - len(rows))
    return (problems + missing)[:grid_size]


def _recompute_point(row: dict, fam: list[Scenario], banks: Banks, design: str,
                     reps: int, jsd: JsdMemo) -> list[str]:
    params = json.loads(row["param_json"])
    computed = {s.pattern: closed_form_tails_means(design, params, banks(s), s.sample_sizes, jsd)
                for s in fam}
    strict = design in STRICT
    lam = calibrate(computed["Null"][0].max(axis=1), strict)
    if lam is None:
        return [] if row["lambda"] == "" else ["oracle finds no feasible lambda"]
    problems = []
    if row["lambda"] == "" or abs(float(row["lambda"]) - lam) > 0.001 + 1e-9:
        problems.append(f"lambda {row['lambda']!r} vs oracle {lam:.3f}")
        return problems
    tol = 2.0 / reps + 1e-6
    ecds = []
    for s in fam:
        tails, means = computed[s.pattern]
        ecd = cell_values(s, decide(tails, lam, strict), means)["ecd_mean"]
        ecds.append(ecd)
        if abs(float(row[f"ecd_{s.pattern.lower()}"]) - ecd) > tol:
            problems.append(f"{s.pattern} ECD {row[f'ecd_{s.pattern.lower()}']} vs {ecd:.6f}")
    if abs(float(row["mean_ecd"]) - sum(ecds) / len(ecds)) > tol:
        problems.append(f"mean ECD {row['mean_ecd']} vs {sum(ecds) / len(ecds):.6f}")
    return problems


# ---------------------------------------------------------------------------
# BHM and EXNEX by deterministic integration
# ---------------------------------------------------------------------------

_C = math.log(P0 / (1 - P0))  # the decision cut on the log-odds of p
_H_ETA = 0.02
_ETA = _C + _H_ETA * np.arange(round((-30 - _C) / _H_ETA), round((30 - _C) / _H_ETA) + 1)
_NU = np.unique(np.concatenate([
    _C + 0.05 * np.arange(-110, 121),  # dense where posteriors live, cut on a node
    np.arange(-60.0, -7.0, 2.0), np.arange(6.0, 61.0, 2.0),
]))
_SIGMA = np.concatenate([[1e-9], np.arange(0.05, 4.0001, 0.05)])
_SMALL_SIGMA = 0.1  # below this the theta integral runs in z = (eta - nu) / sigma
_GL_X, _GL_W = np.polynomial.legendre.leggauss(16)


def _trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    d = np.diff(x)
    w[:-1] += d / 2
    w[1:] += d / 2
    return w


def _scaled_loglik(eta, r, n):
    """log of the binomial likelihood over its maximum, as a function of log-odds."""
    peak = 0.0
    if 0 < r < n:
        peak = r * math.log(r / n) + (n - r) * math.log1p(-r / n)
    return r * eta - n * np.logaddexp(0.0, eta) - peak


def _gl_nodes(lo, hi, panels=8):
    """Composite Gauss-Legendre nodes and weights on [lo, hi] (arrays of bounds)."""
    lo, hi = np.broadcast_arrays(np.asarray(lo, float), np.asarray(hi, float))
    edges = lo[..., None] + (hi - lo)[..., None] * np.linspace(0, 1, panels + 1)
    a, b = edges[..., :-1, None], edges[..., 1:, None]
    x = (a + b) / 2 + (b - a) / 2 * _GL_X
    w = (b - a) / 2 * _GL_W
    shape = x.shape[:-2] + (-1,)
    return x.reshape(shape), w.reshape(shape)


class HierarchicalGrid:
    """Per-basket integrals of the likelihood against N(nu, sigma) on a (nu, sigma) grid.

    ``E[pair][i, j]`` is the integral over the basket's log-odds of its
    likelihood (scaled to peak 1) times the N(nu_i, sigma_j) density, and
    ``T`` the same restricted to log-odds above the cut.  The likelihood is
    flat beyond |eta| = 30 only for r = 0 or r = n; that mass is added in
    closed form, so the NEX prior with sd 100 is covered in full.
    """

    def __init__(self, pairs):
        self.pairs = sorted(set(pairs))
        lik = np.stack([np.exp(_scaled_loglik(_ETA, r, n)) for r, n in self.pairs], axis=1)
        w_eta = _trapezoid_weights(_ETA)
        above = np.where(_ETA > _C, 1.0, np.where(_ETA == _C, 0.5, 0.0))
        full_w = lik * w_eta[:, None]
        tail_w = full_w * above[:, None]
        n_pairs = len(self.pairs)
        self.E = np.empty((n_pairs, _NU.size, _SIGMA.size))
        self.T = np.empty_like(self.E)
        for j, sigma in enumerate(_SIGMA):
            if sigma < _SMALL_SIGMA:
                self.E[:, :, j], self.T[:, :, j] = self._small_sigma(sigma)
                continue
            kernel = np.exp(-0.5 * ((_ETA[None, :] - _NU[:, None]) / sigma) ** 2)
            kernel /= sigma * math.sqrt(2 * math.pi)
            self.E[:, :, j] = (kernel @ full_w).T
            self.T[:, :, j] = (kernel @ tail_w).T
        self._add_flat_mass(self.E, self.T, _NU[:, None], _SIGMA[None, :])
        self.X, self.XT = self._nex_marginals()

    def _small_sigma(self, sigma):
        z, wz = _gl_nodes(-8.0, 8.0)
        full = np.stack([
            (np.exp(_scaled_loglik(_NU[:, None] + sigma * z, r, n)) * stats.norm.pdf(z)) @ wz
            for r, n in self.pairs
        ])
        lo = np.clip((_C - _NU) / sigma, -8.0, 8.0)
        zt, wt = _gl_nodes(lo, 8.0)
        tail = np.stack([
            (np.exp(_scaled_loglik(_NU[:, None] + sigma * zt, r, n)) * stats.norm.pdf(zt) * wt)
            .sum(axis=1)
            for r, n in self.pairs
        ])
        return full, tail

    def _add_flat_mass(self, full, tail, nu, sigma):
        lo_mass = stats.norm.cdf((_ETA[0] - nu) / sigma)
        hi_mass = stats.norm.sf((_ETA[-1] - nu) / sigma)
        for p, (r, n) in enumerate(self.pairs):
            if r == 0:
                full[p] += lo_mass
            if r == n:
                full[p] += hi_mass
                tail[p] += hi_mass

    def _nex_marginals(self):
        x = np.empty((len(self.pairs), 1, 1))
        xt = np.empty_like(x)
        kernel = stats.norm.pdf(_ETA, EXNEX_NEX_MEAN, NEX_SD) * _trapezoid_weights(_ETA)
        for p, (r, n) in enumerate(self.pairs):
            lik = np.exp(_scaled_loglik(_ETA, r, n))
            x[p] = (lik * kernel).sum()
            xt[p] = (lik * kernel)[_ETA > _C].sum() + 0.5 * (lik * kernel)[_ETA == _C].sum()
        self._add_flat_mass(x, xt, EXNEX_NEX_MEAN, NEX_SD)
        return x[:, 0, 0], xt[:, 0, 0]

    def tails(self, design: str, responses, sizes, phi: float, q: float = 1.0) -> np.ndarray:
        idx = [self.pairs.index((int(r), int(n))) for r, n in zip(responses, sizes)]
        if design == "BHM":
            nu_mean = BHM_MU_MEAN + math.log(BHM_TARGET / (1 - BHM_TARGET))
        else:
            nu_mean = EXNEX_MU_MEAN
        log_post = (
            stats.norm.logpdf(_NU, nu_mean, MU_SD)[:, None]
            - _SIGMA[None, :] ** 2 / (2 * phi ** 2)
            + np.log(_trapezoid_weights(_NU))[:, None]
            + np.log(_trapezoid_weights(_SIGMA))[None, :]
        )
        with np.errstate(divide="ignore"):
            marg, num = [], []
            for p in idx:
                if design == "BHM":
                    m, t = self.E[p], self.T[p]
                else:
                    m = q * self.E[p] + (1 - q) * self.X[p]
                    t = q * self.T[p] + (1 - q) * self.XT[p]
                marg.append(m)
                num.append(t)
                log_post = log_post + np.log(m)
        w = np.exp(log_post - log_post.max())
        w /= w.sum()
        return np.array([
            (w * np.divide(t, m, out=np.zeros_like(t), where=m > 0)).sum()
            for m, t in zip(marg, num)
        ])


def sampler_difference(design: str, phi: float, q: float, data, sampler_tails,
                       grid) -> tuple[float, float]:
    """Mean sampler-minus-oracle tail difference and its standard error.

    ``data`` is a list of (responses, sizes).  The unit is one data set (the
    mean difference over its baskets), since a chain's baskets share errors.
    """
    diffs = np.array([
        np.mean(sampler - grid.tails(design, r, n, phi, q))
        for (r, n), sampler in zip(data, sampler_tails)
    ])
    return float(diffs.mean()), float(diffs.std(ddof=1) / math.sqrt(diffs.size))


# Grid-integration error allowance added to the 4-SE bound.
SAMPLER_FLOOR = 0.002


def check_sampler(design: str, mean: float, se: float) -> list[str]:
    if abs(mean) > 4 * se + SAMPLER_FLOOR:
        return [f"{design} mean tail difference {mean:.4f} exceeds 4 SE ({se:.4f})"]
    return []


def check_mcmc_study(oc_by_design: dict, banks: Banks, seed: int, reps: int,
                     sampler_check: dict, family: str) -> dict:
    """Property checks on every MCMC cell, plus the sampler-vs-grid result per design."""
    results = {}
    fam = scenarios(family)
    generator = {s.id: check_generator(s, banks(s)) for s in fam}
    for design, path in oc_by_design.items():
        if path is None:
            for s in fam:
                results[(s.id, design)] = [NOT_PRODUCED]
            continue
        header, rows = read_csv(path)
        common = check_header(header, seed, reps) + sampler_check.get(design, [])
        cells = group_cells(rows)
        if set(cells) != {(s.id, design) for s in fam}:
            common.append("cells missing or extra")
        for s in fam:
            rows_s = cells.get((s.id, design))
            results[(s.id, design)] = (
                common + generator[s.id]
                + (cell_properties(s, rows_s) if rows_s else ["cell missing"])
            )
    return results
