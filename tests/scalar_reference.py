"""Scalar formulas of the published designs, one basket pair or one partition at a
time, kept as independent references for the bank kernels in ``basketsim``.

Nothing in ``basketsim`` calls these; the tests compare the kernels against them.
"""

import math

import numpy as np

from basketsim.core import BetaShape, log_beta
from basketsim.powerprior import CppParams


def cpp_weight(d_k: tuple[int, int], d_i: tuple[int, int], params: CppParams) -> float:
    """Logistic weight 1 / (1 + exp(a + b ln s)) on s = max(n_k, n_i)^(1/4) times the
    rate difference of two (responses, size) pairs; a zero s gets weight exactly 1."""
    (r_k, n_k), (r_i, n_i) = d_k, d_i
    s = max(n_k, n_i) ** 0.25 * abs(r_k / n_k - r_i / n_i)
    if s == 0.0:
        return 1.0
    z = params.a + params.b * math.log(s)
    if z > 700.0:  # exp would overflow; the weight underflows to 0
        return 0.0
    return 1.0 / (1.0 + math.exp(z))


def alpha0(n_k: int, n_i: int) -> float:
    """Cap on the information borrowed from basket i into basket k."""
    return 1.0 if n_k >= n_i else n_k / n_i


def _powered_likelihood_shape(r: int, n: int, n_other: int) -> BetaShape:
    # L(p | r, n)^w with w = min(1, n_other / n), normalized against a uniform prior;
    # a count c becomes (c * min(n, n_other)) / n, exact when the sizes match
    m, size = min(n, n_other), max(n, 1)
    return BetaShape(r * m / size + 1.0, (n - r) * m / size + 1.0)


def hellinger_gamma(d_k: tuple[int, int], d_i: tuple[int, int]) -> float:
    """Hellinger distance between the two size-downgraded likelihoods, clamped to [0, 1]."""
    f = _powered_likelihood_shape(*d_k, d_i[1])
    g = _powered_likelihood_shape(*d_i, d_k[1])
    bc = math.exp(
        log_beta(0.5 * (f.alpha + g.alpha), 0.5 * (f.beta + g.beta))
        - 0.5 * log_beta(f.alpha, f.beta)
        - 0.5 * log_beta(g.alpha, g.beta)
    )
    return math.sqrt(min(1.0, max(0.0, 1.0 - bc)))


def log_marginal_likelihood(partition, data, prior: BetaShape) -> float:
    """Sum over the partition's blocks of the pooled beta-binomial log marginal,
    binomial coefficients omitted (they cancel across models)."""
    total, base = 0.0, log_beta(prior.alpha, prior.beta)
    for block in partition.blocks():
        r = sum(data.responses[i] for i in block)
        n = sum(data.sample_sizes[i] for i in block)
        total += log_beta(prior.alpha + r, prior.beta + (n - r)) - base
    return total


def hierarchical_posterior(rows, tables, nex, q, log_w):
    """BHM or EXNEX tails and means [C, K] of data rows [C, K] from a model's
    ``hierarchical.design_tables``: every row's mixture q * table + (1 - q) * nex gathered
    and its log taken over the whole grid, and each basket's grid weights divided by its
    mixture only where the weight is positive."""
    log_post = np.tile(log_w, (len(rows), 1))
    mixed = []
    with np.errstate(divide="ignore"):
        for k, table in enumerate(tables):
            r = rows[:, k]
            m = q * table[0, r] + (1.0 - q) * nex[k][0, r, None]
            log_post += np.log(m)
            mixed.append(m)
    w = np.exp(log_post - log_post.max(axis=1, keepdims=True))
    total = w.sum(axis=1)
    tails, means = np.empty((2, *rows.shape))
    positive, v = w > 0, np.zeros_like(w)
    for k, table in enumerate(tables):
        r = rows[:, k]
        np.divide(w, mixed[k], out=v, where=positive)
        v_total = v.sum(axis=1)
        for out, part in ((tails, 1), (means, 2)):
            out[:, k] = (q * (v * table[part, r]).sum(axis=1)
                         + (1.0 - q) * nex[k][part, r] * v_total) / total
    return np.minimum(tails, 1.0), means
