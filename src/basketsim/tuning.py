"""The study protocol and two-stage tuning, on an outcome table built by the caller.

``study`` runs the protocol for one design: it calibrates the smallest
grid threshold holding the family-wise error rate at alpha on the table's
global null, then scores every scenario of the table at that threshold.
``grid_search`` runs the same protocol at each point of a parameter grid
and scores it by mean ECD over patterns (``ecd_summary``), so all
combinations see the same data.  The table (``engine.outcome_table``) is
built once per size family and handed to every design.  Both take every
number from one reduction, ``engine.evaluate_table`` over a list of configs:
each block of the table builds its bank once, walks the configs and returns
integer counts of each scenario's crossings of the lambda grid, which add up
exactly over the blocks, here or on forked workers.  Points that share BHM/EXNEX
quadrature tables share a pool and one build of them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .core import (
    CalibrationError,
    ConfigurationError,
    Scenario,
)
from .engine import (
    LAMBDA_GRID,
    REGISTRY,
    DesignConfig,
    OperatingCharacteristics,
    OutcomeTable,
    aggregate,
    evaluate_table,
)


def _smallest_step(errors: np.ndarray, alpha: float) -> int:
    """The first grid step whose family-wise errors are at most alpha, from the errors'
    histogram over the grid (row 0 of ``crossing_counts``); rejection is monotone in lambda."""
    spared = np.cumsum(errors)  # the replicates that each step spares, and then all of them
    n = int(spared[-1])
    if n == 0:
        raise ValueError("calibration needs at least one replicate")
    errors = n - spared[:-1]
    within = np.flatnonzero(errors <= alpha * n + 1e-9)
    if not within.size:
        raise CalibrationError("no grid threshold attains the requested error rate",
                               min_fwer=int(errors[-1]) / n)
    return int(within[0])


def null_scenario(scenarios: list[Scenario], p0: float) -> Scenario:
    """The first global-null scenario (every true rate at or below p0): the calibration bank."""
    for scenario in scenarios:
        if not any(scenario.active_truth(p0)):
            return scenario
    raise ConfigurationError(f"no global-null scenario (every true rate at or below {p0}) "
                             f"among scenario ids {[s.id for s in scenarios]}")


def study(
    config: DesignConfig,
    table: OutcomeTable,
    p0: float = 0.15,
    alpha: float = 0.05,
    jobs: int = 1,
) -> tuple[float, list[OperatingCharacteristics]]:
    """The study protocol for one design: calibrate lambda on the table's first global-null
    scenario, then the operating characteristics of each of the table's scenarios, in its
    order, at that lambda.

    A lambda fixed on ``config`` skips the calibration and reads no null counts; every row's
    tails, means and crossings are its own, so the rows of banks it ignores change nothing.
    """
    null = None if config.lambda_ is not None else _null_index(table, p0)
    [(counts, means)] = evaluate_table([config], table, p0, jobs, per_basket=True)
    lam, crossed = _protocol(config, counts, null, alpha)
    return lam, [aggregate(s, oc, means, c)
                 for (s, c), oc in zip(table.counts.items(), crossed)]


def _null_index(table: OutcomeTable, p0: float) -> int:
    """The position of the table's first global-null scenario: the calibration bank."""
    scenarios = list(table.counts)
    return scenarios.index(null_scenario(scenarios, p0))


def _protocol(config: DesignConfig, counts: np.ndarray, null: int | None,
              alpha: float) -> tuple[float, np.ndarray]:
    """``study`` on the crossing counts [S, rows, T + 1] of a table's scenarios at the
    parameters of ``config``: lambda, calibrated on the family-wise errors of scenario
    ``null`` unless fixed on the config, and each scenario's counts [S, rows] at lambda."""
    if config.lambda_ is not None:
        return config.lambda_, counts[:, :, 1:].sum(axis=2)
    step = _smallest_step(counts[null, 0], alpha)
    return float(LAMBDA_GRID[step]), counts[:, :, step + 1:].sum(axis=2)


# ---------------------------------------------------------------------------
# Grid search
# ---------------------------------------------------------------------------


def ecd_summary(pairs) -> tuple[dict, object]:
    """Each pattern's ECD, the mean over its scenarios, and the mean ECD, the mean over the
    patterns present, from (pattern, ECD) pairs; no pairs give a mean of nan.  Float ECDs
    are summed by ``math.fsum``, Fractions exactly, so their mean orders grid points."""
    by_pattern = {}
    for pattern, ecd in pairs:
        by_pattern.setdefault(pattern, []).append(ecd)

    def mean(values):
        exact = isinstance(values[0], Fraction)
        return (sum(values) if exact else math.fsum(values)) / len(values)

    pattern_ecd = {pattern: mean(values) for pattern, values in by_pattern.items()}
    return pattern_ecd, mean(list(pattern_ecd.values())) if pattern_ecd else math.nan


@dataclass(frozen=True)
class TuningRecord:
    """One grid point: parameters, calibrated threshold and ECDs (``ecd_summary``); where
    no grid threshold holds the FWER, the threshold and mean are None, pattern_ecd empty."""

    params: object
    lambda_: float | None
    pattern_ecd: dict
    mean_ecd: float | None


@dataclass(frozen=True)
class TuningResult:
    records: tuple[TuningRecord, ...]
    selected_index: int


def grid_search(
    design: str,
    table: OutcomeTable,
    alpha: float = 0.05,
    grid: list | None = None,
    p0: float = 0.15,
    jobs: int = 1,
) -> TuningResult:
    """Run the study protocol at every parameter combination on one size family's table.

    Each grid point is calibrated on the table's global null and scored by ECD on every
    scenario of the table, from that one table shared by all points, in blocks here or on
    ``jobs`` workers.  The combination with the highest mean ECD (``ecd_summary``, in exact
    arithmetic) wins; ties break toward the earliest grid point.
    """
    null = _null_index(table, p0)
    grid = list(REGISTRY[design].grid if grid is None else grid)
    if not grid:
        raise ConfigurationError("grid_search needs a nonempty parameter grid")
    configs = tuple(DesignConfig(design, params) for params in grid)  # a mistyped point raises
    n_reps = [int(c.sum()) for c in table.counts.values()]
    records = []
    exact = {}  # each calibrated point's index -> its mean ECD as a Fraction
    for config, (counts, _) in zip(configs, evaluate_table(configs, table, p0, jobs)):
        try:
            lam, crossed = _protocol(config, counts, null, alpha)
        except CalibrationError:
            records.append(TuningRecord(config.params, None, {}, None))
            continue
        ecds = [(scenario.pattern, Fraction(correct, n)) for scenario, correct, n
                in zip(table.counts, crossed[:, 1].tolist(), n_reps)]
        exact[len(records)] = ecd_summary(ecds)[1]
        records.append(TuningRecord(config.params, lam,
                                    *ecd_summary((pattern, float(ecd)) for pattern, ecd in ecds)))
    if not exact:
        raise CalibrationError("no grid combination could be calibrated", min_fwer=math.nan)
    # max() keeps the earliest index on ties
    return TuningResult(records=tuple(records), selected_index=max(exact, key=exact.get))
