"""Fujikawa-style borrowing: JSD similarity weights over basket-wise posteriors.

The JSD of every distinct pair of posterior shapes in a bank is summed on a fixed
tanh-sinh rule (Takahasi and Mori 1974) whose step and reach follow from the pair's
own shapes, so each pair's bits depend on that pair alone.

Unlike the power-prior posterior, the bank sums the basket-wise posterior
parameters under these weights, priors included, so prior information is
shared alongside the data.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    BorrowingBank,
    Design,
    NumericError,
    guarded_exp,
    log_beta,
    row_sums,
    set_unit_diagonal,
    unique_rows,
)

_LN2 = math.log(2.0)
_STEP_SQ_SIZE = 0.0225  # step h = 2^(-level / 2), h^2 (a + b) <= 0.0225 and h <= 1/4
_REACH = 3.0  # |t| <= 3 + ln(reach) reaches x = expit(-pi sinh t) below e^(-31.5 reach)
_CHUNK = 1 << 16  # pair-node products per pass, which bounds the temporaries
MAX_RULE_NODES = 1 << 16  # at reach 1: h = 2^-13, so a + b up to about 1.5e6
_MIN_SHAPE = 1e-280  # the edge weights stay below e^650, so the exp floor's e^-700 is negligible


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


@functools.lru_cache(maxsize=16)  # a rule holds at most 3 x 65,536 floats
def _rule(level: float, reach: float) -> np.ndarray:
    """Rows ln x, ln(1 - x) and weights h pi cosh(t) / (2 ln 2), read-only, of the tanh-sinh
    nodes x = expit(pi sinh t), t = k h for |k| <= ceil((3 + ln reach) / h), h = 2^(-level / 2).
    The double-exponential map flattens the edge singularities of shapes below 1, and
    ln x and ln(1 - x) come from softplus, so no node rounds to 0 or 1."""
    scale = 2.0 ** (level / 2)
    half = math.ceil((_REACH + math.log(reach)) * scale)
    t = np.arange(-half, half + 1) / scale
    u = math.pi * np.sinh(t)
    rule = np.stack([-np.logaddexp(0.0, -u), -np.logaddexp(0.0, u),
                     math.pi * np.cosh(t) / (scale * 2.0 * _LN2)])
    rule.flags.writeable = False
    return rule


def _rule_keys(pairs: np.ndarray) -> np.ndarray:
    """Level and reach [P, 2] of each pair row's rule: the step falls with the root of the
    larger a + b, the reach 1 / (smallest shape) rounded up from 1 keeps x^a below about
    e^-31.5 at the edge; a rule of more than MAX_RULE_NODES or a shape below _MIN_SHAPE
    raises NumericError."""
    size = np.maximum(pairs[:, 0] + pairs[:, 1], pairs[:, 2] + pairs[:, 3])
    level = np.maximum(np.ceil(np.log2(size / _STEP_SQ_SIZE)), 4.0)
    smallest = pairs.min(axis=1)
    reach = np.ceil(1.0 / np.clip(smallest, _MIN_SHAPE, 1.0))
    nodes = 2.0 * np.ceil((_REACH + np.log(reach)) * 2.0 ** (level / 2)) + 1.0
    ok = (nodes <= MAX_RULE_NODES) & (smallest >= _MIN_SHAPE)
    if not ok.all():
        fa, fb, ga, gb = pairs[int(np.argmin(ok))].tolist()
        raise NumericError(f"JSD of Beta({fa}, {fb}) and Beta({ga}, {gb}): the rule needs more "
                           f"than {MAX_RULE_NODES} nodes or a shape is below {_MIN_SHAPE}")
    return np.stack([level, reach], axis=1)


def _jsd_integrand(pairs: np.ndarray, log_x: np.ndarray, log_1mx: np.ndarray) -> np.ndarray:
    """JSD integrand [N, P] over u = logit x, times 2 ln 2, of each pair (f_alpha, f_beta,
    g_alpha, g_beta) of ``pairs`` [P, 4] at nodes ln x, ln(1 - x) [N], bitwise symmetric in
    (f, g); the equal mixture M = (W + Q)/2 is a genuine two-component mixture, not a beta."""
    norms = log_beta(pairs[:, 0::2], pairs[:, 1::2])  # [P, 2]: ln B of f and of g, once
    # ln of x (1 - x) times each density, dx = x (1 - x) du
    lw, lq = (log_x[:, None] * pairs[:, j] + log_1mx[:, None] * pairs[:, j + 1] - norms[:, j // 2]
              for j in (0, 2))
    lm = np.logaddexp(lw, lq) - _LN2
    # each log ratio is taken before guarded_exp overwrites its log; a density taken as 0
    # makes the 0 * log 0 convention automatic
    return (lw - lm) * guarded_exp(lw) + (lq - lm) * guarded_exp(lq)


def _pair_jsds(pairs: np.ndarray) -> np.ndarray:
    """JSD of every pair row of ``pairs`` [P, 4], base-2 logs, bounded by 1; equal shapes
    give 0.  Pairs are grouped by rule, and each pair's terms are summed in node order."""
    out = np.zeros(len(pairs))
    live = np.flatnonzero((pairs[:, :2] != pairs[:, 2:]).any(axis=1))
    rules, which = unique_rows(_rule_keys(pairs[live]))
    for i, (level, reach) in enumerate(rules.tolist()):
        log_x, log_1mx, weights = _rule(level, reach)
        group = live[which == i]
        step = max(1, _CHUNK // len(weights))
        for chunk in (group[j:j + step] for j in range(0, len(group), step)):
            terms = _jsd_integrand(pairs[chunk], log_x, log_1mx)
            terms *= weights[:, None]
            out[chunk] = row_sums(terms.T)
    return np.clip(out, 0.0, 1.0)


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


def fujikawa_bank(responses, sizes, prior, p0) -> BorrowingBank:
    """Fujikawa's weights of a bank, summing the basket-wise posteriors, priors included."""
    counts = (prior.alpha + responses, prior.beta + (sizes - responses))
    jsd = jsd_matrices(*counts)
    return BorrowingBank(None, counts, p0, lambda params: weights_from_jsd(jsd, params))


DECLARED = (Design("Fujikawa", FujikawaParams, tuple(FujikawaParams(i / 2.0, j / 10.0)
                   for i in range(1, 7) for j in range(6)),  # epsilon 0.5 .. 3, tau 0 .. 0.5
                   dict(Linear=FujikawaParams(1.5, 0.2), Grouped=FujikawaParams(1.5, 0.0),
                        HighVariance=FujikawaParams(2.5, 0.2)),
                   strict=False, bank=fujikawa_bank),)
