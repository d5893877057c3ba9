"""Fujikawa-style borrowing: JSD similarity weights over basket-wise posteriors.

The JSD of every distinct pair of posterior shapes in a bank is integrated in
one batched adaptive quadrature, each pair on its own intervals.

Unlike the power-prior posterior, ``engine.DesignBank`` sums the basket-wise
posterior parameters under these weights, priors included, so prior
information is shared alongside the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BetaShape,
    EDGE_EPS,
    integrate,
    log_beta,
    set_unit_diagonal,
    unique_rows,
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


def _jsd_integrand(pairs: np.ndarray):
    """Integrand of the JSD of each pair (f_alpha, f_beta, g_alpha, g_beta) of ``pairs``
    [P, 4], at abscissae [M, 15] of pairs ``which`` [M]; bitwise symmetric in (f, g)."""
    am1, bm1 = pairs[:, 0::2] - 1.0, pairs[:, 1::2] - 1.0
    norms = log_beta(pairs[:, 0::2], pairs[:, 1::2])  # [P, 2]: ln B of f and of g, once

    def integrand(x: np.ndarray, which: np.ndarray) -> np.ndarray:
        log_x, log_1mx = np.log(x), np.log1p(-x)
        lw, lq = ((am1[which, j, None] * log_x + bm1[which, j, None] * log_1mx
                   - norms[which, j, None]) for j in (0, 1))
        lm = np.logaddexp(lw, lq) - _LN2
        # exp underflow makes the 0 * log 0 convention automatic here
        return (np.exp(lw) * (lw - lm) + np.exp(lq) * (lq - lm)) / (2.0 * _LN2)

    return integrand


def _pair_jsds(pairs: np.ndarray) -> np.ndarray:
    """JSD of every pair row of ``pairs`` [P, 4], all in one adaptive pass over the
    edge-truncated unit interval.  The equal mixture M = (W + Q)/2 is evaluated pointwise
    (it is a genuine two-component mixture, not a beta), and the two divergence halves
    are integrated jointly.  Base-2 logs bound the result by 1; equal shapes give 0."""
    out = np.zeros(len(pairs))
    live = np.flatnonzero((pairs[:, :2] != pairs[:, 2:]).any(axis=1))
    lo, hi = np.full((2, live.size), [[EDGE_EPS], [1.0 - EDGE_EPS]])
    out[live] = np.clip(integrate(_jsd_integrand(pairs[live]), lo, hi), 0.0, 1.0)
    return out


def jsd(f: BetaShape, g: BetaShape) -> float:
    """Jensen-Shannon divergence between two beta densities, base-2 logs: a batch of one."""
    return float(_pair_jsds(np.array([[f.alpha, f.beta, g.alpha, g.beta]]))[0])


def jsd_matrices(alphas, betas) -> np.ndarray:
    """Pairwise JSD [..., K, K] between the beta shapes given as [..., K] arrays: the
    bank's distinct shape pairs, smaller shape first, are integrated in one batch, and
    each pair's bits depend on that pair alone."""
    alphas = np.asarray(alphas, dtype=float)
    k, upper = alphas.shape[-1], np.triu_indices(alphas.shape[-1], 1)
    stacked = np.stack([alphas, np.asarray(betas, dtype=float)], axis=-1)
    shapes, ids = unique_rows(stacked.reshape(-1, 2))  # ids follow the shapes' order
    pair_ids = np.sort(ids.reshape(-1, k)[:, np.stack(upper, axis=-1)], axis=-1)  # [R, P, 2]
    keys, inverse = unique_rows(pair_ids.reshape(-1, 2))
    values = _pair_jsds(shapes[keys].reshape(-1, 4))[inverse].reshape(pair_ids.shape[:2])
    out = np.zeros((len(pair_ids), k, k))
    out[:, upper[0], upper[1]] = out[:, upper[1], upper[0]] = values
    return out.reshape(alphas.shape + (k,))


def weights_from_jsd(jsd_mat: np.ndarray, params: FujikawaParams) -> np.ndarray:
    """Threshold the similarity (1 - JSD)^epsilon at tau (strictly above).

    Works on one K x K matrix or a stack [..., K, K].
    """
    w = (1.0 - np.asarray(jsd_mat)) ** params.epsilon
    w[w <= params.tau] = 0.0
    return set_unit_diagonal(w)
