"""Model averaging over all partitions of baskets into equal-rate blocks.

Partitions are enumerated as canonical restricted-growth strings, so the
model list is deterministic and duplicate-free; model weights are combined
in log space because 52 models over 100 patients reach extreme likelihood
ratios.  Blocks recurring across partitions (31 distinct subsets for K=5)
are tabulated once per pooled response count.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import (MAX_TABLE_BYTES, SIZE_FAMILIES, BetaShape, ConfigurationError, Design,
                   beta_tails, guarded_exp, log_beta, row_sums)

MAX_BASKETS = 12  # Bell(12) is ~4.2M models; beyond this enumeration is hopeless
# Bell(k), the number of partitions of k baskets, for k = 0 .. MAX_BASKETS
BELL = (1, 1, 2, 5, 15, 52, 203, 877, 4140, 21147, 115975, 678570, 4213597)
# a model has at most MAX_BASKETS blocks, so C * psi stays within half the float range
MAX_PSI = sys.float_info.max / (2 * MAX_BASKETS)
_ENTRY_BYTES = 216  # peak bytes per pooled-count table entry, mostly beta tail temporaries


@dataclass(frozen=True)
class BmaParams:
    """Model-space prior weight: pi(M_j) proportional to exp(C_j * psi)."""

    psi: float

    def __post_init__(self):
        if not abs(self.psi) <= MAX_PSI:
            raise ValueError(f"psi must lie in [-{MAX_PSI:.4g}, {MAX_PSI:.4g}], got {self.psi}")


@lru_cache(maxsize=None)
def _labels(k: int) -> np.ndarray:
    """[Bell(k), k]: every partition of k baskets as a restricted-growth string (a basket
    takes one of the labels before it or the next new one), in lexicographic order."""
    labels = np.zeros((1, 1), dtype=np.int64)
    for _ in range(k - 1):
        choices = labels.max(axis=1) + 2  # labels 0 .. max + 1 for the next basket
        first = np.repeat(np.cumsum(choices) - choices, choices)
        labels = np.column_stack([np.repeat(labels, choices, axis=0),
                                  np.arange(len(first)) - first])
    labels.flags.writeable = False  # shared by every caller through the cache
    return labels


def _row_bytes(k: int) -> int:
    """Bytes a bank row of k baskets takes: its [k, Bell(k)] tails and means, and the product
    of one with the model probabilities."""
    return 24 * k * BELL[k]


def block_rows(k: int) -> int:
    """The most rows a bank of k baskets holds within ``MAX_TABLE_BYTES``; raises
    ConfigurationError if not even one row fits."""
    if not 2 <= k <= MAX_BASKETS:
        raise ConfigurationError(f"partition enumeration supports 2..{MAX_BASKETS} baskets, "
                                 f"got {k}")
    if _row_bytes(k) > MAX_TABLE_BYTES:
        raise ConfigurationError(f"BMA over {k} baskets needs {_row_bytes(k)} bytes for one "
                                 f"row > {MAX_TABLE_BYTES}")
    return MAX_TABLE_BYTES // _row_bytes(k)


class _ModelSpace:
    """Partition bookkeeping reused across data sets of the same K.

    Subsets are the distinct blocks of all partitions, numbered in order of first
    appearance; ``member[s]`` is subset s's 0/1 basket row, which pools per-basket counts
    into per-subset counts; ``partition_index[j]`` lists the subsets of partition j in
    label order, padded with the index one past the last subset; ``basket_subset[j, k]``
    names the subset containing basket k in model j.
    """

    def __init__(self, k: int):
        labels = _labels(k)
        rows = np.arange(len(labels))
        masks = np.zeros(labels.shape, dtype=np.int64)  # [j, l]: the baskets of block l
        for basket in range(k):
            masks[rows, labels[:, basket]] |= 1 << basket
        used = masks != 0  # blocks 0 .. max label of each row
        distinct, first, inverse = np.unique(masks[used], return_index=True,
                                             return_inverse=True)
        order = np.argsort(first)  # the subsets in order of first appearance
        self.block_counts = (labels.max(axis=1) + 1).astype(float)
        self.member = (distinct[order, None] >> np.arange(k)) & 1
        self.partition_index = np.full(labels.shape, len(distinct), dtype=np.int64)
        self.partition_index[used] = np.argsort(order)[inverse]
        self.basket_subset = np.take_along_axis(self.partition_index, labels, axis=1)

    def model_probs(self, log_marginals: np.ndarray, psi: float) -> np.ndarray:
        """Posterior model probabilities [..., M], each row normalized to sum 1."""
        log_w = self.block_counts * psi + log_marginals
        log_w -= log_w.max(axis=-1, keepdims=True)
        probs = guarded_exp(log_w)
        return probs / row_sums(probs)[..., None]


class BmaBank:
    """Parameter-free BMA statistics of a bank of integer count vectors [R, K].

    Subset S pools n_S patients, so its posterior is Beta(alpha + r_S, beta + n_S - r_S)
    for an integer r_S in 0..n_S: every subset's log marginal, tail and mean are
    tabulated once per r_S, and each row reads them at the table's offset plus its r_S.
    ``tails_means`` averages them over the models for one psi.  A bank whose [R, K, M]
    arrays or tables would pass ``MAX_TABLE_BYTES`` raises ConfigurationError first.
    """

    def __init__(self, responses, sample_sizes, prior: BetaShape, p0: float):
        responses = np.asarray(responses, dtype=np.int64)
        k, sizes = responses.shape[-1], np.asarray(sample_sizes, dtype=np.int64)
        if len(responses) > block_rows(k):
            raise ConfigurationError(f"BMA over {k} baskets needs {_row_bytes(k) * len(responses)}"
                                     f" bytes for a block of {len(responses)} rows > "
                                     f"{MAX_TABLE_BYTES}")
        entries = 2 ** (k - 1) * int(sizes.sum()) + 2 ** k - 1  # n_S + 1 over every subset S
        if _ENTRY_BYTES * entries > MAX_TABLE_BYTES:
            raise ConfigurationError(f"BMA pooled-count tables of sample sizes {sizes.tolist()} "
                                     f"need {_ENTRY_BYTES * entries} bytes > {MAX_TABLE_BYTES}")
        self._space = space = _model_space(k)
        pooled = space.member @ sizes
        r = np.concatenate([np.arange(n + 1, dtype=float) for n in pooled.tolist()])
        alphas, betas = prior.alpha + r, prior.beta + (np.repeat(pooled, pooled + 1) - r)
        # [R, S]: each row's entry in the table of every subset
        index = np.cumsum(pooled + 1) - (pooled + 1) + responses @ space.member.T
        subset_lm = (log_beta(alphas, betas) - log_beta(prior.alpha, prior.beta))[index]
        padded = np.concatenate([subset_lm, np.zeros((len(index), 1))], axis=-1)
        self._log_marginals = row_sums(padded[:, space.partition_index])
        # [R, K, M]: the subset holding basket k in model j, models innermost
        self._tails = beta_tails(alphas, betas, p0)[index][:, space.basket_subset.T]
        self._means = (alphas / (alphas + betas))[index][:, space.basket_subset.T]

    def tails_means(self, params: BmaParams) -> tuple[np.ndarray, np.ndarray]:
        probs = self._space.model_probs(self._log_marginals, params.psi)[:, None, :]
        # rounding in the average can lift a sure tail an ulp above 1
        tails = np.minimum(row_sums(probs * self._tails), 1.0)
        return tails, row_sums(probs * self._means)


@lru_cache(maxsize=None)
def _model_space(k: int) -> _ModelSpace:
    return _ModelSpace(k)


DECLARED = (Design("BMA", BmaParams, tuple(BmaParams(i / 2.0) for i in range(-8, 9)),  # -4 .. 4
                   dict.fromkeys(SIZE_FAMILIES, BmaParams(-2.0)),
                   strict=True, bank=BmaBank, block_rows=block_rows),)
