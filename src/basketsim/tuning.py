"""The study protocol and two-stage tuning.

``study`` runs the protocol for one design: it calibrates the smallest
grid threshold holding the family-wise error rate at alpha under the
global null, then scores every scenario at that threshold.
``grid_search`` runs the same protocol at each point of a parameter grid
and scores it by mean ECD over the family's scenarios, on one outcome
table so all combinations see the same data.  Statistics that do not
depend on the tuning parameters (scaled rate differences, JSD matrices,
pooled block marginals) are computed once per block of the table
(``engine.DesignBank``) and shared across the grid; BHM and EXNEX
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
    Scenario,
)
from .engine import (
    DesignBank,
    DesignConfig,
    OperatingCharacteristics,
    OutcomeTable,
    aggregate,
    decisions_from_tails,
    evaluate_table,
    outcome_table,
)
from .fujikawa import FujikawaParams
from .hierarchical import BhmParams, ExnexParams
from .powerprior import CppParams

LAMBDA_GRID = np.arange(1, 1000) / 1000.0  # 0.001 .. 0.999, three-decimal resolution


def smallest_lambda(max_tails: np.ndarray, counts: np.ndarray, alpha: float,
                    strict: bool) -> float:
    """Smallest grid threshold whose FWER over a bank is at most alpha.

    On a global-null bank a replicate is a family-wise error iff its maximal
    tail statistic clears the threshold; ``counts`` holds the bank's replicate
    count on each maximal tail.  One search of the whole grid in the sorted
    maxima gives the integer error count at every step, and the first step
    within alpha wins (rejection is monotone in lambda).
    """
    max_tails = np.asarray(max_tails)
    order = np.argsort(max_tails)
    cumulative = np.concatenate(([0], np.cumsum(np.asarray(counts)[order])))
    n = int(cumulative[-1])
    if n == 0:
        raise ValueError("calibration needs at least one replicate")
    # the number of sorted maxima that each grid step spares
    spared = np.searchsorted(max_tails[order], LAMBDA_GRID, side="right" if strict else "left")
    errors = n - cumulative[spared]
    within = np.flatnonzero(errors <= alpha * n + 1e-9)
    if not within.size:
        raise CalibrationError("no grid threshold attains the requested error rate",
                               min_fwer=int(errors[-1]) / n)
    return float(LAMBDA_GRID[within[0]])


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

    A lambda fixed on ``config`` skips the calibration and the null bank.
    Each distinct outcome row of the banks is evaluated once.
    """
    if n_reps < 1:
        raise ConfigurationError("n_reps must be at least 1")
    null_scenario([null], p0)  # raises unless every true rate of null is at or below p0
    table = outcome_table([null, *scenarios] if config.lambda_ is None else scenarios,
                          n_reps, seed)
    return _protocol(config, scenarios, null, table,
                     *evaluate_table(config, table, p0, jobs), p0, alpha)


def _protocol(config: DesignConfig, scenarios: list[Scenario], null: Scenario,
              table: OutcomeTable, tails: np.ndarray, means: np.ndarray,
              p0: float, alpha: float) -> tuple[float, list[OperatingCharacteristics]]:
    """``study`` on the tails and posterior means [U, K] of every row of ``table`` at the
    parameters of ``config``: each scenario's bank weights the rows by its
    ``table.counts[scenario]``."""
    lam = config.lambda_
    if lam is None:
        lam = smallest_lambda(tails.max(axis=1), table.counts[null], alpha, config.strict)
    decisions = decisions_from_tails(tails, lam, config.strict)
    return lam, [aggregate(s, table.counts[s], decisions, means, p0) for s in scenarios]


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
    """Run the study protocol at every parameter combination of one size family.

    Each grid point is calibrated on the family's global null and scored by
    ECD on every scenario, from one outcome table shared by all points.  A
    pattern's ECD is the mean over its scenarios, and the combination
    maximizing the mean ECD over all scenarios wins (ties break toward the
    earliest grid point).
    """
    null = null_scenario(scenarios, p0)
    grid = default_grid(design) if grid is None else list(grid)
    if not grid:
        raise ConfigurationError("grid_search needs a nonempty parameter grid")
    configs = [DesignConfig(design, params) for params in grid]  # a mistyped point raises here
    table = outcome_table(scenarios, n_reps, seed)
    priors = configs[0].prior_list(len(table.sizes))  # those of every point
    banks = [DesignBank(design, rows, table.sizes, priors, p0) for rows in table.blocks()]
    records = []
    totals = []  # correct decisions summed over scenarios, exact in integers
    for config in configs:
        tails, means = (np.concatenate(part) for part in
                        zip(*(bank.tails_means(config.params) for bank in banks)))
        try:
            lam, ocs = _protocol(config, scenarios, null, table, tails, means, p0, alpha)
        except CalibrationError:
            records.append(TuningRecord(config.params, math.nan, {}, -math.inf, feasible=False))
            totals.append(None)
            continue
        by_pattern = {}
        for scenario, oc in zip(scenarios, ocs):
            by_pattern.setdefault(scenario.pattern, []).append(oc.ecd_mean)
        pattern_ecd = {pattern: math.fsum(v) / len(v) for pattern, v in by_pattern.items()}
        mean_ecd = math.fsum(oc.ecd_mean for oc in ocs) / len(ocs)
        records.append(TuningRecord(config.params, lam, pattern_ecd, mean_ecd))
        totals.append(sum(round(oc.ecd_mean * oc.n_reps) for oc in ocs))
    feasible = [i for i, rec in enumerate(records) if rec.feasible]
    if not feasible:
        raise CalibrationError("no grid combination could be calibrated", min_fwer=math.nan)
    # ecd_mean * n_reps rounds back to a scenario's integer count of correct
    # decisions; every scenario has n_reps replicates, so the integer total
    # orders the mean ECDs exactly, and max() keeps the earliest index on ties
    best = max(feasible, key=totals.__getitem__)
    return TuningResult(design=design, records=tuple(records), selected_index=best)
