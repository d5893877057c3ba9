"""Two-stage tuning: threshold calibration, then ECD-maximizing grid search.

Stage one picks the smallest grid threshold holding the family-wise error
rate at alpha under the global null; stage two scores every parameter
combination by mean ECD over the six response patterns, reusing one
generated replicate bank per scenario so all combinations see the same
data.  Similarity statistics that do not depend on the tuning parameters
(scaled rate differences, JSD matrices, pooled block marginals) are
computed once per bank and shared across the grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bma import BmaParams
from .core import (
    BetaShape,
    CalibrationError,
    ConfigurationError,
    NullRate,
    NumericError,
    Scenario,
)
from .engine import (
    MCMC_DESIGNS,
    ClosedFormBank,
    DesignConfig,
    decisions_from_tails,
    generate_responses,
    mcmc_seed_sequence,
    scenario_tails_means,
)
from .fujikawa import FujikawaParams
from .hierarchical import (
    BhmParams,
    ExnexParams,
    McmcConfig,
    bhm_posterior_batch,
    exnex_posterior_batch,
)
from .powerprior import CppParams

LAMBDA_STEPS = 999  # grid 0.001 .. 0.999, three-decimal resolution


def _lambda_value(step: int) -> float:
    return step / 1000.0


def smallest_lambda(max_tails: np.ndarray, alpha: float, strict: bool) -> float:
    """Smallest grid threshold whose empirical FWER is at most alpha.

    On a global-null bank a replicate is a family-wise error iff its
    maximal tail statistic clears the threshold, so the search is a
    bisection over the sorted maxima (rejection is monotone in lambda).
    """
    max_tails = np.sort(np.asarray(max_tails))
    n = max_tails.size
    if n == 0:
        raise ValueError("calibration needs at least one replicate")
    allowed = alpha * n + 1e-9

    def errors(step: int) -> int:
        side = "right" if strict else "left"
        return n - int(np.searchsorted(max_tails, _lambda_value(step), side=side))

    if errors(LAMBDA_STEPS) > allowed:
        raise CalibrationError(
            "no grid threshold attains the requested error rate",
            min_fwer=errors(LAMBDA_STEPS) / n,
        )
    lo, hi = 1, LAMBDA_STEPS  # invariant: errors(hi) <= allowed
    if errors(lo) <= allowed:
        return _lambda_value(lo)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if errors(mid) <= allowed:
            hi = mid
        else:
            lo = mid
    if not errors(hi) <= allowed < errors(hi - 1):
        raise NumericError(f"threshold {_lambda_value(hi)} is not minimal on this bank")
    return _lambda_value(hi)


def calibrate_lambda(
    config: DesignConfig,
    null_scenario: Scenario,
    n_reps: int,
    alpha: float = 0.05,
    seed: int = 0,
    p0: NullRate | float = NullRate(),
    jobs: int = 1,
    tails: np.ndarray | None = None,
) -> float:
    """Calibrate the decision threshold on a global-null replicate bank.

    ``tails`` may carry precomputed tail statistics for the same bank, so
    callers holding evaluated banks skip the re-evaluation.
    """
    threshold = p0.p0 if isinstance(p0, NullRate) else float(p0)
    if any(p > threshold for p in null_scenario.true_rates):
        raise ValueError("calibration scenario must have all true rates at or below p0")
    if tails is None:
        tails, _ = scenario_tails_means(
            config, null_scenario, n_reps, seed, threshold, jobs=jobs
        )
    return smallest_lambda(tails.max(axis=1), alpha, config.strict)


# ---------------------------------------------------------------------------
# Parameter grids
# ---------------------------------------------------------------------------

PHI_GRID = tuple(0.125 + j * (1.875 / 7.0) for j in range(8))


def default_grid(design: str) -> list:
    """The tuning grid of each design, in lexicographic order."""
    if design in ("CPP", "LCPP"):
        values = [i / 2.0 for i in range(1, 11)]  # 0.5 .. 5
        return [CppParams(a, b) for a in values for b in values]
    if design == "Fujikawa":
        eps = [i / 2.0 for i in range(1, 7)]  # 0.5 .. 3
        taus = [i / 10.0 for i in range(6)]  # 0 .. 0.5
        return [FujikawaParams(e, t) for e in eps for t in taus]
    if design == "BMA":
        return [BmaParams(i / 2.0) for i in range(-8, 9)]  # -4 .. 4
    if design == "BHM":
        return [BhmParams(phi=phi) for phi in PHI_GRID]
    if design == "EXNEX":
        qs = [i / 10.0 for i in range(1, 10)]  # 0.1 .. 0.9
        return [ExnexParams(phi=phi, q=q) for phi in PHI_GRID for q in qs]
    if design == "APP":
        return [None]
    raise ConfigurationError(f"unknown design {design!r}")


# ---------------------------------------------------------------------------
# Bank evaluators: parameter-independent statistics computed once per bank
# ---------------------------------------------------------------------------


class BankEvaluator:
    """Tail statistics for one (design, scenario bank) across a parameter grid.

    Closed-form designs compute their parameter-independent statistics once
    per bank (``engine.ClosedFormBank``).  MCMC designs have none, so their
    ``tails_means`` reruns the sampler per combination on per-replicate
    streams keyed exactly like the engine's.
    """

    def __init__(
        self,
        design: str,
        scenario: Scenario,
        n_reps: int,
        master_seed: int,
        p0: NullRate | float = NullRate(),
        priors: list[BetaShape] | None = None,
        mcmc: McmcConfig | None = None,
    ):
        self.design = design
        self.scenario = scenario
        self.n_reps = n_reps
        self.master_seed = master_seed
        self.p0 = p0.p0 if isinstance(p0, NullRate) else float(p0)
        self.priors = priors or [BetaShape(1.0, 1.0)] * scenario.k
        self.mcmc = mcmc or McmcConfig()
        self.responses = generate_responses(scenario, n_reps, master_seed)
        self._bank = None
        if design not in MCMC_DESIGNS:
            self._bank = ClosedFormBank(
                design, self.responses, scenario.sample_sizes, self.priors, self.p0
            )

    def tails_means(self, params) -> tuple[np.ndarray, np.ndarray]:
        """Per-replicate tails and posterior means at one grid point."""
        if self._bank is not None:
            return self._bank.tails_means(params)
        # MCMC designs: a fresh run per grid point, streams keyed per replicate
        seeds = [
            mcmc_seed_sequence(self.master_seed, self.scenario.id, self.design, i)
            for i in range(self.n_reps)
        ]
        config = DesignConfig(self.design, params, mcmc=self.mcmc)
        runner = bhm_posterior_batch if self.design == "BHM" else exnex_posterior_batch
        tails, means, _ = runner(
            self.responses, self.scenario.sample_sizes, config.params,
            self.mcmc, seeds, self.p0,
        )
        return tails, means


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TuningRecord:
    """One grid point: parameters, calibrated threshold, per-pattern ECD."""

    params: object
    lambda_: float
    pattern_ecd: dict
    mean_ecd: float
    feasible: bool = True


@dataclass(frozen=True)
class TuningResult:
    design: str
    records: tuple[TuningRecord, ...]
    selected_index: int

    @property
    def selected(self) -> TuningRecord:
        return self.records[self.selected_index]


def grid_search(
    design: str,
    scenarios: list[Scenario],
    n_reps: int,
    alpha: float = 0.05,
    seed: int = 0,
    grid: list | None = None,
    priors: list[BetaShape] | None = None,
    mcmc: McmcConfig | None = None,
    p0: NullRate | float = NullRate(),
) -> TuningResult:
    """Score every parameter combination on one size family.

    For each grid point the threshold is calibrated on the family's
    global-null pattern, ECD is evaluated on every pattern with that
    threshold, and the combination maximizing the mean ECD wins (ties
    break toward the earliest grid point).
    """
    threshold = p0.p0 if isinstance(p0, NullRate) else float(p0)
    null_scenarios = [
        s for s in scenarios if all(p <= threshold for p in s.true_rates)
    ]
    if not null_scenarios:
        raise ConfigurationError("grid_search needs the family's global-null scenario")
    grid = default_grid(design) if grid is None else list(grid)
    if not grid:
        raise ConfigurationError("grid_search needs a nonempty parameter grid")
    strict = DesignConfig(design, grid[0], mcmc=mcmc or McmcConfig()).strict
    evaluators = [
        BankEvaluator(
            design, scenario, n_reps, seed,
            p0=threshold, priors=priors, mcmc=mcmc,
        )
        for scenario in scenarios
    ]
    records = []
    totals = []  # correct decisions summed over patterns, exact in integers
    for params in grid:
        per_scenario = [ev.tails_means(params)[0] for ev in evaluators]
        null_tails = per_scenario[scenarios.index(null_scenarios[0])]
        try:
            lam = smallest_lambda(null_tails.max(axis=1), alpha, strict)
        except CalibrationError:
            records.append(TuningRecord(params, math.nan, {}, -math.inf, feasible=False))
            totals.append(None)
            continue
        correct = {}
        for scenario, tails in zip(scenarios, per_scenario):
            decisions = decisions_from_tails(tails, lam, strict)
            truth = np.asarray(scenario.true_rates, dtype=float) > threshold
            correct[scenario.pattern] = int((decisions == truth).sum())
        pattern_ecd = {pattern: c / n_reps for pattern, c in correct.items()}
        mean_ecd = math.fsum(pattern_ecd.values()) / len(pattern_ecd)
        records.append(TuningRecord(params, lam, pattern_ecd, mean_ecd))
        totals.append(sum(correct.values()))
    feasible = [i for i, rec in enumerate(records) if rec.feasible]
    if not feasible:
        raise CalibrationError("no grid combination could be calibrated", min_fwer=math.nan)
    # every pattern has n_reps replicates, so the integer total orders the
    # mean ECDs exactly; max() keeps the earliest index on ties
    best = max(feasible, key=totals.__getitem__)
    return TuningResult(design=design, records=tuple(records), selected_index=best)
