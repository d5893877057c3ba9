"""Scalar formulas of the published designs, one basket pair or one partition at a
time, and earlier formulations of the bank kernels, kept as independent references
for the bank kernels in ``basketsim``.

Nothing in ``basketsim`` calls these; the tests compare the kernels against them.
"""

import math

import numpy as np

from basketsim import bma
from basketsim.core import BetaShape, beta_tails, log_beta, row_sums, set_unit_diagonal
from basketsim.powerprior import (
    CppParams,
    alpha0_matrix,
    cpp_weights_from_scaled,
    gamma_matrix,
    scaled_ks_matrix,
)


def beta_log_pdf(shape: BetaShape, x: np.ndarray) -> np.ndarray:
    """Log density of Beta(alpha, beta) at points strictly inside (0, 1)."""
    a, b = shape.alpha, shape.beta
    x = np.asarray(x, dtype=float)
    return (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - float(log_beta(a, b))


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


def beta_tails_by_distinct_shapes(alphas, betas, x: float) -> np.ndarray:
    """``core.beta_tails`` evaluated once per distinct (a, b) shape and gathered back."""
    a, b = np.broadcast_arrays(np.asarray(alphas, dtype=float), np.asarray(betas, dtype=float))
    shapes, inverse = np.unique((a + 1j * b).ravel(), return_inverse=True)  # exact (a, b) keys
    return beta_tails(shapes.real, shapes.imag, x)[inverse.reshape(a.shape)]


def power_prior_weights(variant: str, responses, sample_sizes, params) -> np.ndarray:
    """CPP, APP or LCPP weights [R, K, K] of a bank, built variant by variant from the
    statistics of ``basketsim.powerprior`` with no statistic kept between calls."""
    if variant == "APP":
        matrix = alpha0_matrix(sample_sizes) * (1.0 - gamma_matrix(responses, sample_sizes))
    else:
        matrix = cpp_weights_from_scaled(scaled_ks_matrix(responses, sample_sizes), params)
        if variant == "LCPP":
            matrix = alpha0_matrix(sample_sizes) * matrix
    return set_unit_diagonal(matrix)


class BmaBankByShapes:
    """BMA tails and means of a bank [R, K] from every row's pooled subset shapes [R, S]:
    float pooling by a 0/1 membership matrix, log marginals and tails taken per shape
    (the tails once per distinct shape), no table by count."""

    def __init__(self, responses, sample_sizes, prior: BetaShape, p0: float):
        responses = np.asarray(responses, dtype=float)
        self.space = bma._model_space(responses.shape[-1])
        member = np.zeros((len(self.space.subsets), responses.shape[-1]))
        for idx, block in enumerate(self.space.subsets):
            member[idx, list(block)] = 1.0
        r = responses @ member.T
        n = np.asarray(sample_sizes, dtype=float) @ member.T
        alphas, betas = prior.alpha + r, prior.beta + (n - r)
        subset_lm = log_beta(alphas, betas) - log_beta(prior.alpha, prior.beta)
        padded = np.concatenate([subset_lm, np.zeros(subset_lm.shape[:-1] + (1,))], axis=-1)
        self.log_marginals = row_sums(padded[..., self.space.partition_index])
        gather = self.space.basket_subset.T
        self.tails = beta_tails_by_distinct_shapes(alphas, betas, p0)[:, gather]
        self.means = (alphas / (alphas + betas))[:, gather]

    def tails_means(self, psi: float) -> tuple[np.ndarray, np.ndarray]:
        probs = self.space.model_probs(self.log_marginals, psi)[:, None, :]
        return np.minimum(row_sums(probs * self.tails), 1.0), row_sums(probs * self.means)


def edge_case_banks(k: int, seed: int = 0) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Two test banks (rows [R, K], sizes [K]) of k baskets, one with every size positive
    and one whose first basket is empty: random rows, then a row at r = 0, duplicates of
    a random row and of the last row, and a row at r = n last."""
    rng = np.random.default_rng(seed + k)
    banks = []
    for sizes in ((10, 25, 3, 17, 8, 30)[:k], (0, 25, 3, 17, 8, 30)[:k]):
        n = np.array(sizes)
        rows = rng.integers(0, n + 1, size=(12, k))
        banks.append((np.vstack([rows, np.zeros(k, dtype=int), rows[3], n, n]), sizes))
    return banks
