"""The study protocol and two-stage tuning.

``study`` runs the protocol for one design: it calibrates the smallest
grid threshold holding the family-wise error rate at alpha under the
global null, then scores every scenario at that threshold.
``grid_search`` calibrates each point of a parameter grid the same way
and scores it by mean ECD over the six response patterns, reusing one
generated replicate bank per scenario so all combinations see the same
data.  Statistics that do not depend on the tuning parameters (scaled
rate differences, JSD matrices, pooled block marginals) are computed once
per bank (``engine.DesignBank``) and shared across the grid; BHM and EXNEX
quadrature tables depend on phi alone, so each phi builds them once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bma import BmaParams
from .core import (
    CalibrationError,
    ConfigurationError,
    NumericError,
    Scenario,
)
from .engine import (
    DesignBank,
    DesignConfig,
    OperatingCharacteristics,
    aggregate,
    decisions_from_tails,
    generate_responses,
    scenario_tails_means,
)
from .fujikawa import FujikawaParams
from .hierarchical import BhmParams, ExnexParams
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


def null_scenario(scenarios: list[Scenario], p0: float) -> Scenario:
    """The first global-null scenario (every true rate at or below p0): the calibration bank."""
    for scenario in scenarios:
        if not any(scenario.active_truth(p0)):
            return scenario
    raise ConfigurationError(f"no global-null scenario (every true rate at or below {p0}) "
                             f"among scenario ids {[s.id for s in scenarios]}")


def study(
    config: DesignConfig,
    scenarios: list[Scenario],
    null: Scenario,
    n_reps: int,
    seed: int,
    p0: float = 0.15,
    alpha: float = 0.05,
    jobs: int = 1,
) -> tuple[float, list[OperatingCharacteristics]]:
    """The study protocol for one design: calibrate lambda on the global-null bank,
    then the operating characteristics of every scenario at that lambda.

    A lambda fixed on ``config`` skips the calibration.  The null bank is
    evaluated once and reused when ``null`` is among ``scenarios``.
    """
    if n_reps < 1:
        raise ConfigurationError("n_reps must be at least 1")
    null_scenario([null], p0)  # raises unless every true rate of null is at or below p0
    banks = {}  # the null bank, once evaluated for the calibration
    lam = config.lambda_
    if lam is None:
        banks[null.id] = scenario_tails_means(config, null, n_reps, seed, p0, jobs=jobs)
        lam = smallest_lambda(banks[null.id][0].max(axis=1), alpha, config.strict)
    ocs = []
    for scenario in scenarios:
        tails, means = banks.get(scenario.id) or scenario_tails_means(
            config, scenario, n_reps, seed, p0, jobs=jobs)
        ocs.append(aggregate(scenario, decisions_from_tails(tails, lam, config.strict), means, p0))
    return lam, ocs


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
    p0: float = 0.15,
) -> TuningResult:
    """Score every parameter combination on one size family.

    For each grid point the threshold is calibrated on the family's
    global-null pattern, ECD is evaluated on every pattern with that
    threshold, and the combination maximizing the mean ECD wins (ties
    break toward the earliest grid point).
    """
    null_index = scenarios.index(null_scenario(scenarios, p0))
    grid = default_grid(design) if grid is None else list(grid)
    if not grid:
        raise ConfigurationError("grid_search needs a nonempty parameter grid")
    config = DesignConfig(design, grid[0])  # the priors and decision rule of every point
    banks = [
        DesignBank(
            design, generate_responses(scenario, n_reps, seed), scenario.sample_sizes,
            config.prior_list(scenario.k), p0,
        )
        for scenario in scenarios
    ]
    records = []
    totals = []  # correct decisions summed over patterns, exact in integers
    for params in grid:
        per_scenario = [bank.tails_means(params)[0] for bank in banks]
        try:
            lam = smallest_lambda(per_scenario[null_index].max(axis=1), alpha, config.strict)
        except CalibrationError:
            records.append(TuningRecord(params, math.nan, {}, -math.inf, feasible=False))
            totals.append(None)
            continue
        correct = {}
        for scenario, tails in zip(scenarios, per_scenario):
            decisions = decisions_from_tails(tails, lam, config.strict)
            truth = np.asarray(scenario.true_rates, dtype=float) > p0
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
