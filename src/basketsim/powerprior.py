"""Power-prior borrowing: CPP, APP and LCPP weights plus the weighted posterior.

A basket datum throughout this module is the pair ``(responses, sample_size)``
of a single basket.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BasketData,
    BetaShape,
    ConfigurationError,
    log_beta,
    log_beta_function,
    set_unit_diagonal,
    validate_weight_matrix,
    weighted_sums,
)

POWER_PRIOR_VARIANTS = ("CPP", "APP", "LCPP")


@dataclass(frozen=True)
class CppParams:
    """Tuning parameters of the calibrated power-prior weight curve."""

    a: float
    b: float

    def __post_init__(self):
        if not self.b > 0:
            raise ValueError(f"CPP slope b must be positive, got {self.b}")


@dataclass(frozen=True)
class PowerPriorWeights:
    """Borrowing weights of one variant, with intermediates kept for inspection."""

    matrix: np.ndarray
    variant: str
    alpha0: np.ndarray | None = None
    gamma: np.ndarray | None = None

    def __post_init__(self):
        validate_weight_matrix(self.matrix)
        if self.variant not in POWER_PRIOR_VARIANTS:
            raise ValueError(f"unknown power-prior variant {self.variant!r}")


def ks_statistic(d_k: tuple[int, int], d_i: tuple[int, int]) -> float:
    """Absolute response-rate difference (two-sample KS statistic for binary data)."""
    r_k, n_k = d_k
    r_i, n_i = d_i
    if n_k == 0 or n_i == 0:
        raise ValueError("ks_statistic needs at least one observation per basket")
    return abs(r_k / n_k - r_i / n_i)


def cpp_weight(d_k: tuple[int, int], d_i: tuple[int, int], params: CppParams) -> float:
    """Logistic weight on the size-scaled rate difference, symmetric in (k, i).

    The scaled statistic is max(n_k, n_i)^(1/4) times the rate difference;
    a zero statistic gets weight exactly 1 (the b > 0 limit), avoiding ln(0).
    """
    s = max(d_k[1], d_i[1]) ** 0.25 * ks_statistic(d_k, d_i)
    return _cpp_from_scaled(s, params)


def _cpp_from_scaled(s: float, params: CppParams) -> float:
    if s == 0.0:
        return 1.0
    z = params.a + params.b * math.log(s)
    if z > 700.0:  # exp would overflow; weight underflows to 0
        return 0.0
    return 1.0 / (1.0 + math.exp(z))


def alpha0(n_k: int, n_i: int) -> float:
    """Cap on information borrowed from basket i into basket k."""
    if n_k >= n_i:
        return 1.0
    return n_k / n_i


def _powered_likelihood_shape(r: int, n: int, w: float) -> BetaShape:
    # L(p | r, n)^w normalized against a uniform initial prior
    return BetaShape(w * r + 1.0, w * (n - r) + 1.0)


def hellinger_gamma(d_k: tuple[int, int], d_i: tuple[int, int]) -> float:
    """Commensurability of two baskets: the Hellinger distance between their
    size-downgraded likelihoods.

    Each likelihood is raised to min(1, n_other/n_self), so the larger basket
    is downgraded to the precision of the smaller one; normalizing the powered
    binomial likelihood yields a beta density, giving the closed form below.
    The result is clamped to [0, 1] against floating-point wobble.
    """
    r_k, n_k = d_k
    r_i, n_i = d_i
    w_k = min(1.0, n_i / n_k) if n_k else 1.0
    w_i = min(1.0, n_k / n_i) if n_i else 1.0
    f = _powered_likelihood_shape(r_k, n_k, w_k)
    g = _powered_likelihood_shape(r_i, n_i, w_i)
    bc = math.exp(
        log_beta_function(0.5 * (f.alpha + g.alpha), 0.5 * (f.beta + g.beta))
        - 0.5 * log_beta_function(f.alpha, f.beta)
        - 0.5 * log_beta_function(g.alpha, g.beta)
    )
    d_sq = min(1.0, max(0.0, 1.0 - bc))
    return math.sqrt(d_sq)


def scaled_ks_matrix(responses, sample_sizes) -> np.ndarray:
    """Size-scaled rate differences [..., K, K] (zero diagonal) of counts [..., K]."""
    n = np.asarray(sample_sizes, dtype=float)
    rates = np.asarray(responses, dtype=float) / n
    scale = np.maximum.outer(n, n) ** 0.25
    return scale * np.abs(rates[..., :, None] - rates[..., None, :])


def cpp_weights_from_scaled(s: np.ndarray, params: CppParams) -> np.ndarray:
    """Elementwise CPP weights for a matrix of scaled statistics."""
    out = np.ones_like(s)
    pos = s > 0.0
    z = params.a + params.b * np.log(s, where=pos, out=np.zeros_like(s))
    with np.errstate(over="ignore"):
        out[pos] = 1.0 / (1.0 + np.exp(z[pos]))
    return out


def alpha0_matrix(sample_sizes) -> np.ndarray:
    n = np.asarray(sample_sizes, dtype=float)
    return np.minimum(1.0, n[:, None] / n[None, :])


def gamma_matrix(responses, sample_sizes) -> np.ndarray:
    """``hellinger_gamma`` of every basket pair, [..., K, K] from counts [..., K].

    Entry (k, i) above the diagonal takes basket k as the first argument;
    the lower triangle mirrors it and the diagonal is zero.
    """
    n = np.asarray(sample_sizes, dtype=float)
    r = np.asarray(responses, dtype=float)
    # power[k, i]: exponent on basket k's likelihood when compared with basket i
    with np.errstate(divide="ignore", invalid="ignore"):
        power = np.where(n[:, None] > 0, np.minimum(1.0, n[None, :] / n[:, None]), 1.0)
    fa = power * r[..., :, None] + 1.0
    fb = power * (n - r)[..., :, None] + 1.0
    ga, gb = np.swapaxes(fa, -1, -2), np.swapaxes(fb, -1, -2)
    lb_f = log_beta(fa, fb)
    bc = np.exp(
        log_beta(0.5 * (fa + ga), 0.5 * (fb + gb))
        - 0.5 * lb_f
        - 0.5 * np.swapaxes(lb_f, -1, -2)
    )
    gam = np.triu(np.sqrt(np.clip(1.0 - bc, 0.0, 1.0)), 1)
    return gam + np.swapaxes(gam, -1, -2)


class PowerPriorBank:
    """Borrowing weights of one variant over a bank of count vectors [R, K].

    The parameter-free statistics (scaled rate differences, the size cap,
    the Hellinger commensurability) are computed once at construction;
    ``weights`` assembles the [R, K, K] matrices for one parameter set.
    """

    def __init__(self, variant: str, responses, sample_sizes):
        if variant not in POWER_PRIOR_VARIANTS:
            raise ConfigurationError(f"unknown power-prior variant {variant!r}")
        self.variant = variant
        self.alpha0 = None if variant == "CPP" else alpha0_matrix(sample_sizes)
        self.gamma = gamma_matrix(responses, sample_sizes) if variant == "APP" else None
        self._scaled = (
            None if variant == "APP" else scaled_ks_matrix(responses, sample_sizes)
        )

    def weights(self, cpp_params: CppParams | None) -> np.ndarray:
        needs_params = self.variant != "APP"
        if needs_params and cpp_params is None:
            raise ConfigurationError(f"{self.variant} weights require CppParams")
        if not needs_params and cpp_params is not None:
            raise ConfigurationError("APP weights take no tuning parameters")
        if self.variant == "APP":
            matrix = self.alpha0 * (1.0 - self.gamma)
        else:
            matrix = cpp_weights_from_scaled(self._scaled, cpp_params)
            if self.variant == "LCPP":
                matrix = self.alpha0 * matrix
        return set_unit_diagonal(matrix)


def build_weights(
    data: BasketData,
    variant: str,
    cpp_params: CppParams | None = None,
) -> PowerPriorWeights:
    """Assemble the full K x K weight matrix for one variant (unit diagonal)."""
    bank = PowerPriorBank(variant, [data.responses], data.sample_sizes)
    return PowerPriorWeights(
        matrix=bank.weights(cpp_params)[0],
        variant=variant,
        alpha0=bank.alpha0,
        gamma=None if bank.gamma is None else bank.gamma[0],
    )


def power_prior_posterior(
    data: BasketData,
    weights: PowerPriorWeights | np.ndarray,
    priors: list[BetaShape],
) -> list[BetaShape]:
    """Per-basket posterior from the weighted pooled counts.

    Each basket keeps its own prior; only the observed counts of the other
    baskets enter, scaled by the borrowing weights.
    """
    matrix = weights.matrix if isinstance(weights, PowerPriorWeights) else np.asarray(weights)
    if matrix.shape != (data.k, data.k):
        raise ConfigurationError(
            f"weight matrix shape {matrix.shape} does not match K={data.k}"
        )
    if len(priors) != data.k:
        raise ConfigurationError(f"expected {data.k} priors, got {len(priors)}")
    r = np.asarray(data.responses, dtype=float)
    misses = np.asarray(data.sample_sizes, dtype=float) - r
    alphas = weighted_sums(matrix, r)
    betas = weighted_sums(matrix, misses)
    return [
        BetaShape(prior.alpha + alphas[k], prior.beta + betas[k])
        for k, prior in enumerate(priors)
    ]
