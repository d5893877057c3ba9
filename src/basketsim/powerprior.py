"""Power-prior borrowing: the CPP, APP and LCPP designs.

Each bank assembles its weights from these statistics and adds the prior
to the weighted sums of the observed counts under these weights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SIZE_FAMILIES, BorrowingBank, Design, log_beta, set_unit_diagonal


@dataclass(frozen=True)
class CppParams:
    """Tuning parameters of the calibrated power-prior weight curve."""

    a: float
    b: float

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ValueError(f"a (the CPP intercept) must be finite, got {self.a}")
        if not 0 < self.b < math.inf:
            raise ValueError(f"b (the CPP slope) must be positive and finite, got {self.b}")


def scaled_ks_matrix(responses, sample_sizes) -> np.ndarray:
    """Size-scaled rate differences [..., K, K] (zero diagonal) of counts [..., K].

    A pair with an empty basket is infinitely far apart, so an empty basket borrows nothing.
    """
    n = np.asarray(sample_sizes, dtype=float)
    rates = np.asarray(responses, dtype=float) / np.maximum(n, 1.0)
    scale = np.maximum.outer(n, n) ** 0.25
    s = scale * np.abs(rates[..., :, None] - rates[..., None, :])
    s[..., n == 0, :] = s[..., :, n == 0] = np.inf
    return s


def cpp_weights_from_scaled(s: np.ndarray, params: CppParams) -> np.ndarray:
    """Elementwise CPP weights 1 / (1 + exp(a + b ln s)) of scaled statistics s.

    A zero statistic gets weight exactly 1 (the b > 0 limit), avoiding ln(0).
    """
    out = np.ones_like(s)
    pos = s > 0.0
    # extreme a and b overflow b ln s, or exp(z), to inf: a is finite, so z is never nan, and
    # z = +-inf, like any |z| > 745, gives a weight of exactly 0 or 1
    with np.errstate(over="ignore"):
        z = params.a + params.b * np.log(s, where=pos, out=np.zeros_like(s))
        out[pos] = 1.0 / (1.0 + np.exp(z[pos]))
    return out


def alpha0_matrix(sample_sizes) -> np.ndarray:
    """Cap min(1, n_k / n_i) on the information borrowed from basket i into basket k."""
    n = np.asarray(sample_sizes, dtype=float)
    return np.minimum(1.0, n[:, None] / np.maximum(n, 1.0)[None, :])


def gamma_matrix(responses, sample_sizes) -> np.ndarray:
    """Commensurability of every basket pair, [..., K, K] from counts [..., K]: the
    Hellinger distance between the two size-downgraded likelihoods.

    Each likelihood is raised to min(1, n_other / n_self), so the larger basket
    is downgraded to the precision of the smaller one; normalized against a
    uniform prior, a powered binomial likelihood is a beta density, which gives
    the closed form below, clamped to [0, 1].  Entry (k, i) above the diagonal
    takes basket k as the first argument; the lower triangle mirrors it and the
    diagonal is zero.
    """
    n = np.asarray(sample_sizes, dtype=float)
    r = np.asarray(responses, dtype=float)
    # basket k's counts scaled to min(n_k, n_i) / n_k when compared with basket i
    m, size = np.minimum.outer(n, n), np.maximum(n, 1.0)[:, None]
    fa = r[..., :, None] * m / size + 1.0
    fb = (n - r)[..., :, None] * m / size + 1.0
    ga, gb = np.swapaxes(fa, -1, -2), np.swapaxes(fb, -1, -2)
    lb_f = log_beta(fa, fb)
    bc = np.exp(
        log_beta(0.5 * (fa + ga), 0.5 * (fb + gb))
        - 0.5 * lb_f
        - 0.5 * np.swapaxes(lb_f, -1, -2)
    )
    gam = np.triu(np.sqrt(np.clip(1.0 - bc, 0.0, 1.0)), 1)
    return gam + np.swapaxes(gam, -1, -2)


def cpp_bank(responses, sizes, prior, p0, capped: bool = False) -> BorrowingBank:
    """CPP weights of a bank, each capped by ``alpha0_matrix`` for LCPP."""
    scaled, cap = scaled_ks_matrix(responses, sizes), alpha0_matrix(sizes) if capped else 1.0
    return BorrowingBank(prior, (responses, sizes - responses), p0, lambda params:
                         set_unit_diagonal(cap * cpp_weights_from_scaled(scaled, params)))


def app_bank(responses, sizes, prior, p0) -> BorrowingBank:
    """APP weights of a bank, built whole: they take no parameters."""
    app = set_unit_diagonal(alpha0_matrix(sizes) * (1.0 - gamma_matrix(responses, sizes)))
    return BorrowingBank(prior, (responses, sizes - responses), p0, lambda params: app)


_GRID = tuple(CppParams(a / 2.0, b / 2.0) for a in range(1, 11) for b in range(1, 11))  # 0.5 .. 5
DECLARED = (
    Design("CPP", CppParams, _GRID, dict(Linear=CppParams(4.0, 4.5), Grouped=CppParams(4.0, 4.5),
                                         HighVariance=CppParams(4.0, 4.0)),
           strict=False, bank=cpp_bank),
    Design("APP", type(None), (None,), dict.fromkeys(SIZE_FAMILIES),
           strict=False, bank=app_bank),
    Design("LCPP", CppParams, _GRID, dict(Linear=CppParams(3.0, 4.0), Grouped=CppParams(3.0, 4.5),
                                          HighVariance=CppParams(2.5, 5.0)),
           strict=False, bank=lambda *bank: cpp_bank(*bank, capped=True)),
)
