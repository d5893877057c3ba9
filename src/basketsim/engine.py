"""Replicate loop: data generation, design dispatch, decisions, aggregation.

Every replicate's data stream is keyed by (master seed, scenario id,
replicate index) alone, so all designs see identical data sets and any
replicate can be regenerated independently of evaluation order or worker
count.  Every design is evaluated deterministically from the data, once
per distinct outcome row, so no other randomness is involved.
"""

from __future__ import annotations

import itertools
import math
import operator
import os
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

from . import bma, fujikawa, hierarchical, powerprior
from .core import BasketData, BetaShape, ConfigurationError, Scenario, unique_rows


class _Registry(dict):
    """Each design as its module declares it; an unknown name raises ConfigurationError."""

    def __missing__(self, design: str):
        raise ConfigurationError(f"unknown design {design!r}")


REGISTRY = _Registry((d.name, d) for m in (powerprior, fujikawa, bma, hierarchical)
                     for d in m.DECLARED)
DESIGNS = tuple(REGISTRY)  # the paper's order

_STREAM_DATA = 0
_STREAM_MCMC = 1

LAMBDA_GRID = np.arange(1, 1000) / 1000.0  # 0.001 .. 0.999, three-decimal resolution


@dataclass(frozen=True)
class DesignConfig:
    """One fully specified analysis: design, parameters, prior, threshold.

    The design's declaration gives its parameter type, whether it takes a prior
    and its decision rule: non-strict (tail >= lambda) or strict (tail > lambda).
    """

    design: str
    params: object = None
    prior: BetaShape | None = None  # shared by every basket; None is Beta(1, 1)
    lambda_: float | None = None

    def __post_init__(self):
        spec = REGISTRY[self.design]
        if not isinstance(self.params, spec.params):
            raise ConfigurationError(
                f"design {self.design} needs params of type {spec.params.__name__}, "
                f"got {type(self.params).__name__}"
            )
        if self.lambda_ is not None and not 0.0 < self.lambda_ <= 1.0:
            raise ConfigurationError(f"lambda: {self.lambda_} outside (0, 1]")
        # a prior the design would ignore: its parameters set its priors
        if self.prior is not None and not spec.takes_prior:
            raise ConfigurationError(f"design {self.design} takes no prior")

    @property
    def strict(self) -> bool:
        return REGISTRY[self.design].strict

    def with_lambda(self, lambda_: float) -> "DesignConfig":
        return replace(self, lambda_=lambda_)


@dataclass(frozen=True)
class ReplicateResult:
    tail_probs: np.ndarray
    posterior_means: np.ndarray
    decisions: np.ndarray


@dataclass(frozen=True)
class OperatingCharacteristics:
    """Aggregated metrics for one (scenario, design) cell."""

    ecd_mean: float
    rejection_rate: tuple[float, ...]
    fwer: float
    bias: tuple[float, ...]
    n_reps: int


# ---------------------------------------------------------------------------
# Reproducible data generation
# ---------------------------------------------------------------------------


def mcmc_seed_sequence(
    master_seed: int, scenario_id: int, design: str, replicate: int
) -> np.random.SeedSequence:
    """A per-replicate sampler seed, kept for the benchmark's sampler check; the
    quadrature that replaced the sampler ignores it."""
    return np.random.SeedSequence(
        entropy=master_seed,
        spawn_key=(_STREAM_MCMC, scenario_id, DESIGNS.index(design), replicate),
    )


_MASK32 = 0xFFFFFFFF
_DRAW_ROWS = 8192  # rows per generation pass: bounds its [bound + 1, rows] chains


def _hashmix(init: int, mult: int):
    """numpy's ``hashmix`` with its running constant, for Python ints or uint32 arrays."""
    const = init

    def hashmix(value):
        nonlocal const
        const, value = const * mult & _MASK32, value ^ const
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    result = ((0xCA01F9DD * x & _MASK32) - (0x4973F715 * y & _MASK32)) & _MASK32
    return result ^ result >> 16


def _words(value: int) -> list[int]:
    """The 32-bit words of a nonnegative integer, least significant first."""
    value = operator.index(value)
    if value < 0:
        raise ConfigurationError(f"seeds and scenario ids must be nonnegative, got {value}")
    return [value >> shift & _MASK32 for shift in range(0, max(value.bit_length(), 1), 32)]


def _philox_keys(master_seed: int, scenario_id: int, replicates: np.ndarray) -> np.ndarray:
    """Philox keys [R, 2] of ``SeedSequence(master_seed, spawn_key=(0, scenario_id, rep))``.

    This is numpy's ``mix_entropy`` into a pool of four words followed by
    ``generate_state(2, uint64)`` (numpy/random/bit_generator.pyx).  Every
    entropy word but the last, the replicate, is the same for the whole bank,
    so the hash runs on Python ints until that word enters and on uint32
    arrays after it.
    """
    seed = _words(master_seed)
    entropy = seed + [0] * (4 - len(seed)) + [_STREAM_DATA] + _words(scenario_id)
    entropy.append(replicates.astype(np.uint32))
    hashmix = _hashmix(0x43B0D7E5, 0x931E8875)
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = _mix(pool[dst], hashmix(word))
    final = _hashmix(0x8B51F9DD, 0x58F38DED)
    lo0, hi0, lo1, hi1 = (final(word).astype(np.uint64) for word in pool)
    return np.stack([lo0 | hi0 << 32, lo1 | hi1 << 32], axis=1)


def _mulhilo(m: int, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low words of the 128-bit products m · x, from 32-bit halves."""
    m_lo, m_hi, x_lo, x_hi = np.uint64(m & _MASK32), np.uint64(m >> 32), x & _MASK32, x >> 32
    lo_hi, hi_lo = m_lo * x_hi, m_hi * x_lo
    mid = (m_lo * x_lo >> 32) + (lo_hi & _MASK32) + (hi_lo & _MASK32)
    return m_hi * x_hi + (lo_hi >> 32) + (hi_lo >> 32) + (mid >> 32), x * np.uint64(m)


def _philox_uniforms(keys: np.ndarray, counter: int) -> np.ndarray:
    """numpy's ``next_double`` [R, 4] of Philox4x64-10 block (counter, 0, 0, 0), keys [R, 2]."""
    k0, k1 = keys.T
    c0, c1, c2, c3 = np.full_like(k0, counter), *np.zeros((3, len(keys)), np.uint64)
    for _ in range(10):
        (hi0, lo0), (hi1, lo1) = _mulhilo(0xD2E7470EE14C6C93, c0), _mulhilo(0xCA5A826395121157, c2)
        c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        k0, k1 = k0 + 0x9E3779B97F4A7C15, k1 + 0xBB67AE8584CAA73B
    return (np.stack([c0, c1, c2, c3], axis=1) >> 11) * 2.0**-53


def _draw(keys: np.ndarray, sizes, rates: np.ndarray) -> np.ndarray:
    """Counts [R, K] of numpy's binomial inversion under Philox keys [R, 2] at rates [R, K],
    basket by basket: X is the first j at which U - px_0 - ... - px_{j-1}, subtracted in the
    C loop's order, is at most px_j; a chain that runs past the bound starts on a new U."""
    out, used = np.zeros(rates.shape, np.int64), np.zeros(len(keys), np.intp)
    stream = np.empty((len(keys), 0))  # each row's uniforms, four per Philox block
    for k, (n, col) in enumerate(zip(sizes, np.sort(rates, axis=0).T)):
        for rate in col[np.diff(col, prepend=0) > 0].tolist():  # p > 0; np.unique loads numpy.ma
            rows, p = np.flatnonzero(rates[:, k] == rate), min(rate, 1.0 - rate)
            q, mean, px = 1.0 - p, n * p, [math.exp(n * math.log(1.0 - p))]
            for j in range(1, int(min(n, mean + 10.0 * math.sqrt(mean * q + 1))) + 1):
                px.append((n - j + 1) * p * px[-1] / (j * q))
            px, x = np.array(px), np.full(len(rows), -1)
            while (short := rows[x < 0]).size:
                while used[short].max() >= stream.shape[1]:
                    stream = np.hstack([stream, _philox_uniforms(keys, stream.shape[1] // 4 + 1)])
                chain = np.empty((len(px), len(short)))
                chain[0], chain[1:] = stream[short, used[short]], -px[:-1, None]
                hit = np.add.accumulate(chain, axis=0, out=chain) <= px[:, None]
                x[x < 0] = np.where(hit.any(axis=0), hit.argmax(axis=0), -1)
                used[short] += 1
            out[rows, k] = n - x if rate > 0.5 else x
    return out


def _generate_banks(scenarios: list[Scenario], n_reps: int, master_seed: int, start: int = 0):
    """Each scenario's counts [n_reps, K] of replicates [start, start + n_reps), stacked: row i
    is ``Generator(Philox(SeedSequence(master_seed, spawn_key=(0, id, i)))).binomial(n, p)``."""
    if start < 0 or start + n_reps > _MASK32 + 1:
        raise ConfigurationError(f"replicates [{start}, {start + n_reps}) outside [0, 2**32)")
    out = np.empty((len(scenarios), n_reps, scenarios[0].k), np.int64)
    inverted = [s.fixed_responses is None and all(n * min(p, 1.0 - p) <= 30.0 for n, p in zip(
        s.sample_sizes, s.true_rates)) for s in scenarios]
    for bank, s, inverts in zip(out, scenarios, inverted):
        if s.fixed_responses is not None:
            bank[:] = s.fixed_responses
        elif not inverts:  # a BTPE basket: one Philox, reset to each key as a fresh one starts
            bitgen = np.random.Philox(0)
            binomial, state = np.random.Generator(bitgen).binomial, bitgen.state
            keys = _philox_keys(master_seed, s.id, start + np.arange(n_reps))
            for row, key in zip(bank, keys.tolist()):
                state["state"]["key"] = key
                bitgen.state = state
                row[:] = [binomial(n, p) for n, p in zip(s.sample_sizes, s.true_rates)]
    index, rates = np.flatnonzero(inverted), np.array([s.true_rates for s in scenarios])
    for a in range(0, len(index) * n_reps, _DRAW_ROWS):
        which, rep = np.divmod(np.arange(a, min(a + _DRAW_ROWS, len(index) * n_reps)), n_reps)
        keys = np.concatenate([
            _philox_keys(master_seed, scenarios[index[i]].id, start + rep[which == i])
            for i in range(which[0], which[-1] + 1)])
        out[index[which], rep] = _draw(keys, scenarios[0].sample_sizes, rates[index[which]])
    return out.reshape(-1, out.shape[2])


def generate_responses(scenario: Scenario, n_reps: int, master_seed: int, start: int = 0):
    """Response counts [n_reps, K] for replicates [start, start + n_reps)."""
    return _generate_banks([scenario], n_reps, master_seed, start)


# ---------------------------------------------------------------------------
# Design dispatch
# ---------------------------------------------------------------------------


def design_bank(design: str, responses, sample_sizes, prior: BetaShape | None, p0: float):
    """One design's statistics over a bank of integer count vectors [R, K] under one prior
    for every basket, Beta(1, 1) if None: the bank its declaration builds, which computes
    what does not depend on the parameters once.  Its ``tails_means`` gives the tails and
    posterior means of the whole bank at one parameter set; every row is computed on its
    own, so a bank of one gives the same bits as that replicate inside any larger bank."""
    build = REGISTRY[design].bank
    r = np.asarray(responses, dtype=float)
    n = np.asarray(sample_sizes, dtype=float)
    # BMA tabulates by count and BHM/EXNEX index by it: every design reads whole counts
    if not (np.all(r % 1 == 0) and np.all(n % 1 == 0) and np.all((0 <= r) & (r <= n))):
        raise ConfigurationError(f"design {design} needs integer counts 0 <= r <= n")
    return build(r, n, prior or BetaShape(1.0, 1.0), p0)


_BLOCK_ROWS = 4096  # rows per bank: bounds the statistics and temporaries of one bank


@dataclass(frozen=True)
class OutcomeTable:
    """The distinct outcome rows [U, K] of some scenarios' replicate banks, all of one
    size vector, and each scenario's bank as its replicate count on each row [U]."""

    rows: np.ndarray
    sizes: tuple[int, ...]
    counts: dict

    def blocks(self, jobs: int = 1, rows: int | None = None) -> list[np.ndarray]:
        """Contiguous row blocks of at most ``_BLOCK_ROWS`` rows, and at most ``rows`` if
        given; ``jobs`` or more of them when the table has that many rows."""
        rows = min(_BLOCK_ROWS, rows or _BLOCK_ROWS)
        n_rows = len(self.rows)
        count = min(n_rows, max(jobs, -(-n_rows // rows))) or 1
        bounds = np.linspace(0, n_rows, count + 1, dtype=int).tolist()
        return [self.rows[a:b] for a, b in zip(bounds, bounds[1:])]


def outcome_table(scenarios: list[Scenario], n_reps: int, master_seed: int) -> OutcomeTable:
    """The table of each scenario's bank of ``n_reps`` replicates."""
    if n_reps < 1:
        raise ConfigurationError("n_reps must be at least 1")
    scenarios = list(dict.fromkeys(scenarios))
    sizes = {s.sample_sizes for s in scenarios}
    if len(sizes) != 1:
        raise ConfigurationError(f"the banks do not share one size vector: {sorted(sizes)}")
    rows, inverse = unique_rows(_generate_banks(scenarios, n_reps, master_seed))
    counts = {s: np.bincount(bank, minlength=len(rows))
              for s, bank in zip(scenarios, inverse.reshape(len(scenarios), n_reps))}
    return OutcomeTable(rows, sizes.pop(), counts)


def crossing_counts(tails: np.ndarray, weights: np.ndarray, truth: np.ndarray,
                    thresholds: np.ndarray, strict: bool, per_basket: bool = True) -> np.ndarray:
    """Each scenario's replicates by how many thresholds they cross, [S, 2 (+ K), T + 1].

    ``weights`` [S, R] are each scenario's replicate counts on the rows of ``tails`` [R, K]
    and ``truth`` [S, K] its active baskets.  A tail that clears (``>``, or ``>=`` unless
    strict) thresholds[:i] and no more lands in bin i, so the count at thresholds[j] is the
    sum of bins j + 1 .. T.  Row 0 counts family-wise errors (the largest inactive tail),
    row 1 correct decisions (an inactive basket starts in the last bin and leaves when its
    tail crosses), and with ``per_basket`` row 2 + k basket k's rejections.  The sums are
    exact, so the counts of row blocks add up to the whole table's.
    """
    crossed = np.searchsorted(thresholds, tails, side="left" if strict else "right")
    bins = len(thresholds) + 1
    out = np.zeros((len(weights), 2 + per_basket * tails.shape[1], bins))
    for s, (w, active) in enumerate(zip(weights, truth)):
        out[s, 0] = np.bincount(np.where(active, 0, crossed).max(axis=1), w, bins)
        signed = np.outer(w, np.where(active, 1.0, -1.0))
        out[s, 1] = np.bincount(crossed.ravel(), signed.ravel(), bins)
        out[s, 1, -1] += w.sum() * np.count_nonzero(~active)
        for k in range(len(out[s]) - 2):
            out[s, 2 + k] = np.bincount(crossed[:, k], w, bins)
    return out.astype(np.int64)


def _evaluate_block(args) -> tuple[np.ndarray, list]:
    """The crossing counts [configs, S, rows, T + 1] of one block's rows at every config,
    from one bank, and per config the rows' posterior means if per basket, else None."""
    configs, rows, sizes, p0, reps, truth, per_basket, dtype = args
    weights = np.array(reps, dtype=float)  # [S, R]
    first = configs[0]
    bank = design_bank(first.design, rows, sizes, first.prior, p0)
    thresholds = LAMBDA_GRID if first.lambda_ is None else np.array([first.lambda_])
    counts = np.empty((len(configs), len(weights), 2 + per_basket * len(sizes),
                       len(thresholds) + 1), dtype)
    means = []
    for i, config in enumerate(configs):
        tails, config_means = bank.tails_means(config.params)
        counts[i] = crossing_counts(tails, weights, truth, thresholds, config.strict, per_basket)
        means.append(config_means if per_basket else None)
    return counts, means


def evaluate_table(configs, table: OutcomeTable, p0: float, jobs: int = 1,
                   per_basket: bool = False) -> list:
    """Per config, all of one design and one lambda (or none), the crossing counts
    [S, rows, T + 1] of the scenarios of ``table.counts`` (in its order) at lambda, or at
    every grid step if it is calibrated, summed over the blocks as they arrive; with
    ``per_basket``, each basket's rejections and the rows' posterior means [U, K], else None.

    Each block builds its bank once and walks the configs, here or on min(``jobs``, CPUs,
    rows) workers forked for each run of configs that share one declared ``tables_key``,
    whose tables the parent builds first.  No bit depends on the blocks or the workers.
    """
    spec = REGISTRY[configs[0].design]
    jobs = max(1, min(jobs, os.cpu_count() or 1, len(table.rows)))  # each worker gets a block
    blocks = table.blocks(jobs, spec.block_rows(len(table.sizes)))
    if jobs > 1:  # the pool's modules load only when one is forked
        from concurrent.futures import ProcessPoolExecutor
        from multiprocessing import get_context
    reps = list(table.counts.values())
    truth = np.array([s.active_truth(p0) for s in table.counts])
    # no count or sum of counts exceeds 2 K n in magnitude: hand back int32 when that fits
    dtype = np.int32 if 2 * truth.shape[1] * max(r.sum() for r in reps) < 2**31 else np.int64
    ends = np.cumsum([len(rows) for rows in blocks]).tolist()
    results = []
    for key, run in itertools.groupby(
            configs, lambda c: spec.tables_key(table.sizes, p0, c.params)):
        run = tuple(run)
        if key is not None:
            spec.tables(spec.name, table.sizes, p0, run[0].params)
        tasks = [(run, rows, table.sizes, p0, [r[end - len(rows):end] for r in reps], truth,
                  per_basket, dtype) for rows, end in zip(blocks, ends)]
        with (ProcessPoolExecutor(max_workers=jobs, mp_context=get_context("fork"))
              if jobs > 1 else nullcontext()) as pool:
            total, means = None, []
            for counts, block_means in (pool.map if pool else map)(_evaluate_block, tasks):
                total = counts if total is None else np.add(total, counts, out=total)
                means.append(block_means)
                del counts  # free it before the next block's counts arrive
        results += [(c, np.concatenate(m) if per_basket else None)
                    for c, m in zip(total, zip(*means))]
    return results


# ---------------------------------------------------------------------------
# Decisions and metrics
# ---------------------------------------------------------------------------


def decisions_from_tails(tails: np.ndarray, lambda_: float, strict: bool) -> np.ndarray:
    return tails > lambda_ if strict else tails >= lambda_


def run_design(config: DesignConfig, data: BasketData, p0: float = 0.15) -> ReplicateResult:
    """Analyze one observed data set with one design: a bank of one."""
    if config.lambda_ is None:
        raise ConfigurationError("run_design needs lambda on the config")
    bank = design_bank(config.design, [data.responses], data.sample_sizes, config.prior, p0)
    tails, means = (stat[0] for stat in bank.tails_means(config.params))
    return ReplicateResult(
        tail_probs=tails,
        posterior_means=means,
        decisions=decisions_from_tails(tails, config.lambda_, config.strict),
    )


def aggregate(scenario: Scenario, crossed, posterior_means: np.ndarray,
              counts: np.ndarray) -> OperatingCharacteristics:
    """One scenario's OC record from its crossing counts at lambda [2 + K] (rows of
    ``crossing_counts``) and the posterior means [U, K] of the table rows, weighted by the
    bank's replicate count on each row [U].

    Each rate is the correctly rounded count / n_reps; each basket's bias is one fsum over
    its posterior means, each repeated by its row's count, so the result does not depend on
    row or replicate order.
    """
    n_reps = int(counts.sum())
    family_errors, correct, *rejections = np.asarray(crossed).tolist()
    replicate_means = np.repeat(posterior_means, counts, axis=0).T.tolist()
    return OperatingCharacteristics(
        ecd_mean=correct / n_reps,
        rejection_rate=tuple(count / n_reps for count in rejections),
        fwer=family_errors / n_reps,
        bias=tuple(math.fsum(m) / n_reps - p
                   for m, p in zip(replicate_means, scenario.true_rates)),
        n_reps=n_reps,
    )
