"""Fujikawa-style borrowing: JSD similarity weights over basket-wise posteriors.

Unlike the power-prior posterior, ``engine.DesignBank`` sums the basket-wise
posterior parameters under these weights, priors included, so prior
information is shared alongside the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BetaShape,
    EDGE_EPS,
    beta_log_pdf,
    integrate,
    set_unit_diagonal,
)

_LN2 = math.log(2.0)


@dataclass(frozen=True)
class FujikawaParams:
    """Sharpness (epsilon) and similarity threshold (tau) of the JSD weights."""

    epsilon: float
    tau: float

    def __post_init__(self):
        if not self.epsilon > 0:
            raise ValueError(f"epsilon must be positive, got {self.epsilon}")
        if not 0.0 <= self.tau <= 1.0:
            raise ValueError(f"tau must lie in [0, 1], got {self.tau}")


def _jsd_integrand(f: BetaShape, g: BetaShape):
    """Integrand of jsd(f, g); bitwise symmetric in (f, g) at every abscissa."""

    def integrand(x: np.ndarray) -> np.ndarray:
        lw = beta_log_pdf(f, x)
        lq = beta_log_pdf(g, x)
        lm = np.logaddexp(lw, lq) - _LN2
        # exp underflow makes the 0 * log 0 convention automatic here
        return (np.exp(lw) * (lw - lm) + np.exp(lq) * (lq - lm)) / (2.0 * _LN2)

    return integrand


def jsd(f: BetaShape, g: BetaShape) -> float:
    """Jensen-Shannon divergence between two beta densities, base-2 logs.

    The equal mixture M = (W + Q)/2 is evaluated pointwise inside the
    integrand (it is a genuine two-component mixture, not a beta), and the
    two divergence halves are integrated jointly in one adaptive pass over
    the edge-truncated unit interval.  Base-2 logs bound the result by 1.
    """
    if f == g:
        return 0.0
    value = integrate(_jsd_integrand(f, g), EDGE_EPS, 1.0 - EDGE_EPS)
    return min(1.0, max(0.0, value))


@lru_cache(maxsize=1 << 16)
def _memo_jsd(f_alpha: float, f_beta: float, g_alpha: float, g_beta: float) -> float:
    return jsd(BetaShape(f_alpha, f_beta), BetaShape(g_alpha, g_beta))


def jsd_matrices(alphas, betas) -> np.ndarray:
    """Pairwise JSD [..., K, K] between the beta shapes given as [..., K] arrays.

    Values are memoized per shape pair for the life of the process: a
    study meets only a few thousand distinct pairs.  ``jsd`` is bitwise
    symmetric, so each pair is keyed in sorted order.
    """
    alphas = np.asarray(alphas, dtype=float)
    k = alphas.shape[-1]
    shapes = np.stack([alphas, np.asarray(betas, dtype=float)], axis=-1)
    rows = shapes.reshape(-1, k, 2).tolist()
    out = np.zeros((len(rows), k, k))
    for row, matrix in zip(rows, out):
        for a in range(k):
            for b in range(a + 1, k):
                f, g = sorted((row[a], row[b]))
                matrix[a, b] = matrix[b, a] = _memo_jsd(*f, *g)
    return out.reshape(alphas.shape + (k,))


def weights_from_jsd(jsd_mat: np.ndarray, params: FujikawaParams) -> np.ndarray:
    """Threshold the similarity (1 - JSD)^epsilon at tau (strictly above).

    Works on one K x K matrix or a stack [..., K, K].
    """
    w = (1.0 - np.asarray(jsd_mat)) ** params.epsilon
    w[w <= params.tau] = 0.0
    return set_unit_diagonal(w)
