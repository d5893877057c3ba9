"""Model averaging over all partitions of baskets into equal-rate blocks.

Partitions are enumerated as canonical restricted-growth strings, so the
model list is deterministic and duplicate-free; model weights are combined
in log space because 52 models over 100 patients reach extreme likelihood
ratios.  Blocks recurring across partitions (31 distinct subsets for K=5)
are evaluated once per data set.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (
    BasketData,
    BetaShape,
    ConfigurationError,
    NullRate,
    beta_tails,
    log_beta,
    log_beta_function,
    row_sums,
)

MAX_BASKETS = 12  # Bell(12) is ~4.2M models; beyond this enumeration is hopeless


@dataclass(frozen=True)
class Partition:
    """One classification of baskets into blocks sharing a response rate.

    ``assignment`` is a restricted-growth string: block labels appear in
    first-occurrence order, so e.g. (0, 1, 0) is canonical and (1, 0, 1)
    is not.
    """

    assignment: tuple[int, ...]

    def __post_init__(self):
        seen = -1
        for label in self.assignment:
            if label > seen + 1:
                raise ValueError(
                    f"assignment {self.assignment} is not a restricted-growth string"
                )
            seen = max(seen, label)

    @property
    def block_count(self) -> int:
        return max(self.assignment) + 1

    def blocks(self) -> list[tuple[int, ...]]:
        """Basket indices of each block, in label order."""
        out = [[] for _ in range(self.block_count)]
        for basket, label in enumerate(self.assignment):
            out[label].append(basket)
        return [tuple(b) for b in out]


@dataclass(frozen=True)
class BmaParams:
    """Model-space prior weight: pi(M_j) proportional to exp(C_j * psi)."""

    psi: float


@lru_cache(maxsize=None)
def _partition_assignments(k: int) -> tuple[tuple[int, ...], ...]:
    out: list[tuple[int, ...]] = []

    def grow(prefix: tuple[int, ...], top: int):
        if len(prefix) == k:
            out.append(prefix)
            return
        for label in range(top + 2):
            grow(prefix + (label,), max(top, label))

    grow((0,), 0)
    return tuple(out)


def enumerate_partitions(k: int) -> list[Partition]:
    """All set partitions of k baskets in deterministic canonical order."""
    if not 2 <= k <= MAX_BASKETS:
        raise ConfigurationError(
            f"partition enumeration supports 2..{MAX_BASKETS} baskets, got {k}"
        )
    return [Partition(a) for a in _partition_assignments(k)]


class _ModelSpace:
    """Partition bookkeeping reused across data sets of the same K.

    ``subsets`` lists every distinct block appearing in any partition;
    ``member_matrix`` pools per-basket counts into per-subset counts;
    ``partition_index[j]`` lists the subsets of partition j, padded with
    the index one past the last subset; ``basket_subset[j, k]`` names the
    subset containing basket k in model j.
    """

    def __init__(self, k: int):
        assignments = _partition_assignments(k)
        subset_index: dict[tuple[int, ...], int] = {}
        partition_subsets: list[list[int]] = []
        basket_subset = np.empty((len(assignments), k), dtype=np.intp)
        for j, assignment in enumerate(assignments):
            indices = []
            for block in Partition(assignment).blocks():
                idx = subset_index.setdefault(block, len(subset_index))
                indices.append(idx)
                for basket in block:
                    basket_subset[j, basket] = idx
            partition_subsets.append(indices)
        self.k = k
        self.block_counts = np.array([max(a) + 1 for a in assignments], dtype=float)
        self.subsets = list(subset_index)
        self.member_matrix = np.zeros((len(self.subsets), k))
        for idx, block in enumerate(self.subsets):
            self.member_matrix[idx, list(block)] = 1.0
        self.partition_index = np.full((len(assignments), k), len(self.subsets))
        for j, indices in enumerate(partition_subsets):
            self.partition_index[j, :len(indices)] = indices
        self.basket_subset = basket_subset

    def subset_shapes(self, responses, sample_sizes, prior: BetaShape):
        """Posterior beta shapes [..., S] of every pooled subset."""
        r = np.asarray(responses, dtype=float) @ self.member_matrix.T
        n = np.asarray(sample_sizes, dtype=float) @ self.member_matrix.T
        return prior.alpha + r, prior.beta + (n - r)

    def log_marginals(self, alphas: np.ndarray, betas: np.ndarray,
                      prior: BetaShape) -> np.ndarray:
        """Per-partition log marginal likelihood [..., M] from subset shapes [..., S]."""
        subset_lm = log_beta(alphas, betas) - log_beta_function(prior.alpha, prior.beta)
        padded = np.concatenate([subset_lm, np.zeros(subset_lm.shape[:-1] + (1,))], axis=-1)
        return row_sums(padded[..., self.partition_index])

    def model_probs(self, log_marginals: np.ndarray, psi: float) -> np.ndarray:
        """Posterior model probabilities [..., M], each row normalized to sum 1."""
        log_w = self.block_counts * psi + log_marginals
        log_w -= log_w.max(axis=-1, keepdims=True)
        probs = np.exp(log_w)
        return probs / row_sums(probs)[..., None]


class BmaBank:
    """Parameter-free BMA statistics of a bank of count vectors [R, K].

    Subset marginals, tails and means are computed once at construction;
    ``tails_means`` averages them over the models for one psi.
    """

    def __init__(self, responses, sample_sizes, prior: BetaShape, p0: float):
        responses = np.asarray(responses, dtype=float)
        self._space = _model_space(responses.shape[-1])
        alphas, betas = self._space.subset_shapes(responses, sample_sizes, prior)
        self._log_marginals = self._space.log_marginals(alphas, betas, prior)
        # [R, K, M]: the subset holding basket k in model j, models innermost
        gather = self._space.basket_subset.T
        self._tails = beta_tails(alphas, betas, p0)[:, gather]
        self._means = (alphas / (alphas + betas))[:, gather]

    def tails_means(self, params: BmaParams) -> tuple[np.ndarray, np.ndarray]:
        probs = self._space.model_probs(self._log_marginals, params.psi)[:, None, :]
        # rounding in the average can lift a sure tail an ulp above 1
        tails = np.minimum(row_sums(probs * self._tails), 1.0)
        return tails, row_sums(probs * self._means)


@lru_cache(maxsize=None)
def _model_space(k: int) -> _ModelSpace:
    return _ModelSpace(k)


def _block_log_marginal(r_pooled: float, n_pooled: float, prior: BetaShape) -> float:
    return log_beta_function(
        prior.alpha + r_pooled, prior.beta + (n_pooled - r_pooled)
    ) - log_beta_function(prior.alpha, prior.beta)


def log_marginal_likelihood(partition: Partition, data: BasketData, prior: BetaShape) -> float:
    """Sum of pooled beta-binomial block marginals.

    Binomial coefficients are identical across models for fixed data and
    cancel in normalization, so they are omitted.
    """
    if len(partition.assignment) != data.k:
        raise ConfigurationError(
            f"partition over {len(partition.assignment)} baskets does not match K={data.k}"
        )
    total = 0.0
    for block in partition.blocks():
        r_pooled = sum(data.responses[i] for i in block)
        n_pooled = sum(data.sample_sizes[i] for i in block)
        total += _block_log_marginal(r_pooled, n_pooled, prior)
    return total


def posterior_model_probs(data: BasketData, params: BmaParams, prior: BetaShape) -> np.ndarray:
    """Posterior probability of every partition model, normalized to sum 1."""
    space = _model_space(data.k)
    alphas, betas = space.subset_shapes(data.responses, data.sample_sizes, prior)
    return space.model_probs(space.log_marginals(alphas, betas, prior), params.psi)


def decision_stats(
    data: BasketData,
    params: BmaParams,
    prior: BetaShape,
    p0: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Model-averaged (tail probability, posterior mean) per basket."""
    tails, means = BmaBank([data.responses], data.sample_sizes, prior, p0).tails_means(params)
    return tails[0], means[0]


def bma_tail_probs(
    data: BasketData,
    params: BmaParams,
    prior: BetaShape,
    p0: NullRate | float = NullRate(),
) -> np.ndarray:
    """Pr(p_k > p0) per basket, averaged over models by posterior weight."""
    threshold = p0.p0 if isinstance(p0, NullRate) else float(p0)
    return decision_stats(data, params, prior, threshold)[0]


def bma_posterior_means(data: BasketData, params: BmaParams, prior: BetaShape) -> np.ndarray:
    """Model-averaged posterior mean response rate per basket."""
    return decision_stats(data, params, prior, 0.5)[1]
