"""Replicate loop: data generation, design dispatch, decisions, aggregation.

Every replicate's data stream is keyed by (master seed, scenario id,
replicate index) alone, so all designs see identical data sets and any
replicate can be regenerated independently of evaluation order or worker
count.  MCMC streams carry the design in the key as well, keeping the
samplers' randomness disjoint from the data's.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .bma import BmaBank, BmaParams
from .core import (
    BasketData,
    BetaShape,
    ConfigurationError,
    NullRate,
    Scenario,
    beta_tails,
    weighted_sums,
)
from .fujikawa import FujikawaParams, jsd_matrices, weights_from_jsd
from .hierarchical import (
    BhmParams,
    ExnexParams,
    McmcConfig,
    bhm_posterior,
    bhm_posterior_batch,
    exnex_posterior,
    exnex_posterior_batch,
)
from .powerprior import POWER_PRIOR_VARIANTS, CppParams, PowerPriorBank

DESIGNS = ("CPP", "APP", "LCPP", "Fujikawa", "BMA", "BHM", "EXNEX")
STRICT_DESIGNS = frozenset({"BMA", "BHM", "EXNEX"})
MCMC_DESIGNS = frozenset({"BHM", "EXNEX"})

_PARAM_TYPES = {
    "CPP": CppParams,
    "LCPP": CppParams,
    "APP": type(None),
    "Fujikawa": FujikawaParams,
    "BMA": BmaParams,
    "BHM": BhmParams,
    "EXNEX": ExnexParams,
}

_STREAM_DATA = 0
_STREAM_MCMC = 1


@dataclass(frozen=True)
class DesignConfig:
    """One fully specified analysis: design, parameters, priors, threshold.

    The decision rule is non-strict (tail >= lambda) for the beta-posterior
    designs and strict (tail > lambda) for BMA/BHM/EXNEX unless overridden.
    """

    design: str
    params: object = None
    priors: tuple[BetaShape, ...] | None = None
    lambda_: float | None = None
    strict_inequality: bool | None = None
    mcmc: McmcConfig = field(default_factory=McmcConfig)

    def __post_init__(self):
        if self.design not in DESIGNS:
            raise ConfigurationError(f"unknown design {self.design!r}")
        expected = _PARAM_TYPES[self.design]
        if not isinstance(self.params, expected):
            raise ConfigurationError(
                f"design {self.design} needs params of type {expected.__name__}, "
                f"got {type(self.params).__name__}"
            )
        if self.lambda_ is not None and not 0.0 < self.lambda_ <= 1.0:
            raise ConfigurationError(f"lambda {self.lambda_} outside (0, 1]")

    @property
    def strict(self) -> bool:
        if self.strict_inequality is not None:
            return self.strict_inequality
        return self.design in STRICT_DESIGNS

    def prior_list(self, k: int) -> list[BetaShape]:
        if self.priors is None:
            return [BetaShape(1.0, 1.0)] * k
        if len(self.priors) != k:
            raise ConfigurationError(f"expected {k} priors, got {len(self.priors)}")
        return list(self.priors)

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


def _data_stream(master_seed: int, scenario_id: int, replicate: int) -> np.random.Generator:
    key = np.random.SeedSequence(
        entropy=master_seed, spawn_key=(_STREAM_DATA, scenario_id, replicate)
    )
    return np.random.Generator(np.random.Philox(key))


def mcmc_seed_sequence(
    master_seed: int, scenario_id: int, design: str, replicate: int
) -> np.random.SeedSequence:
    return np.random.SeedSequence(
        entropy=master_seed,
        spawn_key=(_STREAM_MCMC, scenario_id, DESIGNS.index(design), replicate),
    )


def generate_trial(scenario: Scenario, master_seed: int, replicate: int) -> BasketData:
    """Binomial responses for one replicate from its own counter-based stream."""
    if scenario.fixed_responses is not None:
        return BasketData(scenario.fixed_responses, scenario.sample_sizes)
    gen = _data_stream(master_seed, scenario.id, replicate)
    r = gen.binomial(scenario.sample_sizes, scenario.true_rates)
    return BasketData(tuple(int(v) for v in r), scenario.sample_sizes)


def generate_responses(scenario: Scenario, n_reps: int, master_seed: int,
                       start: int = 0) -> np.ndarray:
    """Response counts for replicates [start, start + n_reps)."""
    out = np.empty((n_reps, scenario.k), dtype=np.int64)
    if scenario.fixed_responses is not None:
        out[:] = scenario.fixed_responses
        return out
    sizes = np.asarray(scenario.sample_sizes)
    rates = np.asarray(scenario.true_rates)
    for i in range(n_reps):
        gen = _data_stream(master_seed, scenario.id, start + i)
        out[i] = gen.binomial(sizes, rates)
    return out


# ---------------------------------------------------------------------------
# Design dispatch
# ---------------------------------------------------------------------------


class ClosedFormBank:
    """One closed-form design's statistics over a bank of replicates [R, K].

    The constructor computes what does not depend on the design parameters
    (scaled rate differences, Hellinger commensurability, JSD matrices, BMA
    subset marginals and tails); ``tails_means`` finishes the weights,
    posterior shapes, tails and means of the whole bank for one parameter
    set.  Every row is computed on its own, so a bank of one gives the same
    bits as that replicate inside any larger bank.
    """

    def __init__(self, design: str, responses, sample_sizes,
                 priors: list[BetaShape], p0: float):
        r = np.asarray(responses, dtype=float)
        n = np.asarray(sample_sizes, dtype=float)
        self.design = design
        self.p0 = p0
        prior_alpha = np.array([p.alpha for p in priors])
        prior_beta = np.array([p.beta for p in priors])
        if design in POWER_PRIOR_VARIANTS:
            self._power = PowerPriorBank(design, r, n)
            self._prior = (prior_alpha, prior_beta)
            self._counts = (r, n - r)
        elif design == "Fujikawa":
            # the weighted sum runs over basket-wise posteriors, priors included
            self._counts = (prior_alpha + r, prior_beta + (n - r))
            self._jsd = jsd_matrices(*self._counts)
        elif design == "BMA":
            self._bma = BmaBank(r, n, priors[0], p0)
        else:
            raise ConfigurationError(f"{design} has no closed-form posterior")

    def tails_means(self, params) -> tuple[np.ndarray, np.ndarray]:
        """Tails Pr(p > p0) and posterior means, both [R, K], at one parameter set."""
        if self.design == "BMA":
            return self._bma.tails_means(params)
        if self.design == "Fujikawa":
            weights = weights_from_jsd(self._jsd, params)
            alphas = weighted_sums(weights, self._counts[0])
            betas = weighted_sums(weights, self._counts[1])
        else:
            weights = self._power.weights(params)
            alphas = self._prior[0] + weighted_sums(weights, self._counts[0])
            betas = self._prior[1] + weighted_sums(weights, self._counts[1])
        return beta_tails(alphas, betas, self.p0), alphas / (alphas + betas)


def evaluate_bank(
    config: DesignConfig,
    scenario: Scenario,
    n_reps: int,
    master_seed: int,
    p0: float,
    start: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """Tail probabilities and posterior means for a block of replicates."""
    responses = generate_responses(scenario, n_reps, master_seed, start=start)
    if config.design in MCMC_DESIGNS:
        seeds = [
            mcmc_seed_sequence(master_seed, scenario.id, config.design, start + i)
            for i in range(n_reps)
        ]
        runner = bhm_posterior_batch if config.design == "BHM" else exnex_posterior_batch
        tails, means, _ = runner(
            responses, scenario.sample_sizes, config.params, config.mcmc, seeds, p0
        )
        return tails, means
    bank = ClosedFormBank(
        config.design, responses, scenario.sample_sizes,
        config.prior_list(scenario.k), p0,
    )
    return bank.tails_means(config.params)


def _evaluate_chunk(args):
    config, scenario, start, stop, master_seed, p0 = args
    return evaluate_bank(config, scenario, stop - start, master_seed, p0, start=start)


def scenario_tails_means(
    config: DesignConfig,
    scenario: Scenario,
    n_reps: int,
    master_seed: int,
    p0: float,
    jobs: int = 1,
) -> tuple[np.ndarray, np.ndarray]:
    """Evaluate all replicates, optionally fanned out over worker processes.

    Replicate streams are self-contained, so the result is bit-identical
    for every chunking and worker count.
    """
    if jobs <= 1 or n_reps < 2 * jobs:
        return evaluate_bank(config, scenario, n_reps, master_seed, p0)
    bounds = np.linspace(0, n_reps, jobs + 1, dtype=int)
    tasks = [
        (config, scenario, int(a), int(b), master_seed, p0)
        for a, b in zip(bounds[:-1], bounds[1:])
        if b > a
    ]
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        parts = list(pool.map(_evaluate_chunk, tasks))
    tails = np.concatenate([p[0] for p in parts])
    means = np.concatenate([p[1] for p in parts])
    return tails, means


# ---------------------------------------------------------------------------
# Decisions and metrics
# ---------------------------------------------------------------------------


def decisions_from_tails(tails: np.ndarray, lambda_: float, strict: bool) -> np.ndarray:
    return tails > lambda_ if strict else tails >= lambda_


def run_design(config: DesignConfig, data: BasketData, p0: NullRate | float = NullRate()) -> ReplicateResult:
    """Analyze one observed data set with one design."""
    if config.lambda_ is None:
        raise ConfigurationError("run_design needs lambda on the config")
    threshold = p0.p0 if isinstance(p0, NullRate) else float(p0)
    if config.design in MCMC_DESIGNS:
        runner = bhm_posterior if config.design == "BHM" else exnex_posterior
        summary = runner(data, config.params, config.mcmc, threshold)
        tails, means = summary.tail_probs, summary.posterior_means
    else:
        bank = ClosedFormBank(
            config.design, [data.responses], data.sample_sizes,
            config.prior_list(data.k), threshold,
        )
        tails, means = (stat[0] for stat in bank.tails_means(config.params))
    return ReplicateResult(
        tail_probs=tails,
        posterior_means=means,
        decisions=decisions_from_tails(tails, config.lambda_, config.strict),
    )


def correct_decisions(decisions, true_rates, p0: NullRate | float = NullRate()) -> int:
    """How many baskets were classified in line with their true activity."""
    threshold = p0.p0 if isinstance(p0, NullRate) else float(p0)
    decisions = np.asarray(decisions, dtype=bool)
    truth = np.asarray(true_rates, dtype=float) > threshold
    if decisions.shape != truth.shape:
        raise ConfigurationError("decisions and true_rates must have equal length")
    return int((decisions == truth).sum())


def _column_means(matrix: np.ndarray) -> list[float]:
    return [math.fsum(matrix[:, k].tolist()) / matrix.shape[0] for k in range(matrix.shape[1])]


def aggregate(
    scenario: Scenario,
    decisions: np.ndarray,
    posterior_means: np.ndarray,
    p0: float,
) -> OperatingCharacteristics:
    """Fold per-replicate decisions and estimates into one OC record."""
    n_reps, k = decisions.shape
    truth = np.asarray(scenario.true_rates) > p0
    rejection = _column_means(decisions.astype(float))
    inactive = ~truth
    if inactive.any():
        family_error = decisions[:, inactive].any(axis=1)
        fwer = math.fsum(family_error.astype(float).tolist()) / n_reps
    else:
        fwer = 0.0
    correct = (decisions == truth[None, :]).sum(axis=1)
    ecd_mean = math.fsum(correct.astype(float).tolist()) / n_reps
    mean_of_means = _column_means(posterior_means)
    bias = [m - p for m, p in zip(mean_of_means, scenario.true_rates)]
    return OperatingCharacteristics(
        ecd_mean=ecd_mean,
        rejection_rate=tuple(rejection),
        fwer=fwer,
        bias=tuple(bias),
        n_reps=n_reps,
    )


def simulate(
    scenario: Scenario,
    config: DesignConfig,
    n_reps: int,
    master_seed: int,
    p0: NullRate | float = NullRate(),
    jobs: int = 1,
) -> OperatingCharacteristics:
    """Monte Carlo operating characteristics of one design on one scenario."""
    if n_reps < 1:
        raise ConfigurationError("n_reps must be at least 1")
    if config.lambda_ is None:
        raise ConfigurationError("simulate needs a calibrated lambda on the config")
    threshold = p0.p0 if isinstance(p0, NullRate) else float(p0)
    tails, means = scenario_tails_means(
        config, scenario, n_reps, master_seed, threshold, jobs=jobs
    )
    decisions = decisions_from_tails(tails, config.lambda_, config.strict)
    return aggregate(scenario, decisions, means, threshold)
