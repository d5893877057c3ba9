"""Shared numerical primitives and domain types.

Everything in here is a pure function of its inputs, so the whole module is
safe to call concurrently from any number of workers.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

PATTERNS = ("Null", "Alternative", "Ascending", "Descending", "BGN", "SGN")
SIZE_FAMILIES = ("Linear", "Grouped", "HighVariance")
MAX_TABLE_BYTES = 1 << 30  # the largest table a bank or its shared tables may allocate


class BasketSimError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(BasketSimError, ValueError):
    """A design/parameter combination or input shape violates its contract."""


class NumericError(BasketSimError, ArithmeticError):
    """A numerical routine failed to converge or would exceed its size bound."""


class CalibrationError(BasketSimError):
    """No decision threshold on the grid satisfies the error constraint.

    ``min_fwer`` reports the smallest family-wise error rate achievable.
    """

    def __init__(self, message: str, min_fwer: float):
        super().__init__(message)
        self.min_fwer = min_fwer


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BasketData:
    """Observed responses and sample sizes for the K baskets of one trial.

    Baskets with zero observations are allowed; responses can never exceed
    the basket's sample size.
    """

    responses: tuple[int, ...]
    sample_sizes: tuple[int, ...]

    def __post_init__(self):
        if len(self.responses) != len(self.sample_sizes):
            raise ValueError("responses and sample_sizes must have equal length")
        if len(self.responses) < 2:
            raise ValueError("a basket trial needs at least 2 baskets")
        for r, n in zip(self.responses, self.sample_sizes):
            if n < 0:
                raise ValueError(f"sample size {n} is negative")
            if not 0 <= r <= n:
                raise ValueError(f"responses {r} outside [0, {n}]")

    @property
    def k(self) -> int:
        return len(self.responses)


@dataclass(frozen=True)
class BetaShape:
    """Parameters of a beta distribution used for priors and posteriors."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError(f"beta shape ({self.alpha}, {self.beta}) must be positive")


@dataclass(frozen=True)
class Scenario:
    """Sample sizes and true response rates for one simulation scenario.

    ``fixed_responses``, when set, replaces binomial sampling with the given
    deterministic response counts (useful for worked examples and tests).
    """

    id: int
    sample_sizes: tuple[int, ...]
    true_rates: tuple[float, ...]
    pattern: str
    size_family: str
    fixed_responses: tuple[int, ...] | None = None

    def __post_init__(self):
        if len(self.sample_sizes) != len(self.true_rates):
            raise ValueError("sample_sizes and true_rates must have equal length")
        if len(self.sample_sizes) < 2:
            raise ValueError("a scenario needs at least 2 baskets")
        if any(n <= 0 for n in self.sample_sizes):
            raise ValueError("sample sizes must be positive")
        if any(not 0.0 <= p <= 1.0 for p in self.true_rates):
            raise ValueError("true rates must lie in [0, 1]")
        if self.pattern not in PATTERNS:
            raise ValueError(f"unknown pattern {self.pattern!r}")
        if self.size_family not in SIZE_FAMILIES:
            raise ValueError(f"unknown size family {self.size_family!r}")
        if self.fixed_responses is not None:
            if len(self.fixed_responses) != len(self.sample_sizes):
                raise ValueError("fixed_responses must have one entry per basket")
            for r, n in zip(self.fixed_responses, self.sample_sizes):
                if not 0 <= r <= n:
                    raise ValueError(f"fixed response {r} outside [0, {n}]")

    @property
    def k(self) -> int:
        return len(self.sample_sizes)

    def active_truth(self, p0: float) -> tuple[bool, ...]:
        """Which baskets are truly active (true rate above the null rate)."""
        return tuple(p > p0 for p in self.true_rates)


def set_unit_diagonal(weights: np.ndarray) -> np.ndarray:
    """Set the diagonal of every K x K matrix in ``weights`` [..., K, K] to 1, in place."""
    idx = np.arange(weights.shape[-1])
    weights[..., idx, idx] = 1.0
    return weights


# ---------------------------------------------------------------------------
# Beta-distribution math
# ---------------------------------------------------------------------------


_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_CF_EPS, _CF_TERMS = 3.0 * np.finfo(float).eps, 2000  # shapes of 1e6 need 530 terms


def _lgamma(z) -> np.ndarray:
    """math.lgamma elementwise, evaluated once per distinct value."""
    values, inverse = np.unique(z, return_inverse=True)
    return np.array([math.lgamma(v) for v in values.tolist()])[inverse.reshape(np.shape(z))]


def log_beta(a, b) -> np.ndarray:
    """ln B(a, b) elementwise over arrays of positive arguments."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    lg = _lgamma(np.stack(np.broadcast_arrays(a, b, a + b)))
    return lg[0] + lg[1] - lg[2]


def _stirling_error(z: np.ndarray) -> np.ndarray:
    """lgamma(z) - ((z - 1/2) ln z - z + ln(2 pi) / 2), by its asymptotic series from z = 10."""
    y, w = np.minimum(z, 10.0), 1.0 / (z * z)
    return np.where(z < 10.0, _lgamma(y) - ((y - 0.5) * np.log(y) - y + _HALF_LOG_2PI),
                    (1 / 12 - w * (1 / 360 - w * (1 / 1260 - w * (1 / 1680 - w / 1188)))) / z)


def _beta_fraction(a: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Numerical Recipes' continued fraction of I_x(a, b) by modified Lentz.  Each element
    stops at its own convergence, so its bits depend on its (a, b, x) alone."""
    d = 1.0 / (1.0 - (a + b) * x / (a + 1.0))
    out, live, c, h = np.empty_like(a), np.arange(a.size), np.ones_like(a), d.copy()
    for m in range(1, _CF_TERMS + 1):
        for num in (m * (b - m) * x / ((a + (2 * m - 1)) * (a + 2 * m)),
                    -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + (2 * m + 1)))):
            d, c = 1.0 / (1.0 + num * d), 1.0 + num / c
            h *= c * d
        done = np.abs(c * d - 1.0) < _CF_EPS
        if done.any():
            out[live[done]] = h[done]
            live, a, b, x, c, d, h = (v[~done] for v in (live, a, b, x, c, d, h))
        if not live.size:
            return out
    raise NumericError(f"beta tail: continued fraction did not converge in {_CF_TERMS} terms")


def beta_tails(alphas, betas, x: float) -> np.ndarray:
    """Pr(p > x) elementwise over arrays of beta shapes: 1 - I_x(a, b) below
    x = (a + 1) / (a + b + 2), I_(1-x)(b, a) above.  The log of x^a (1 - x)^b / B(a, b)
    is built from Stirling errors and y - 1 - ln y terms, which cancel no large log-gammas.
    Each element's bits depend on its (a, b, x) alone."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"beta tail threshold {x} outside [0, 1]")
    a, b = np.broadcast_arrays(np.asarray(alphas, dtype=float), np.asarray(betas, dtype=float))
    if x in (0.0, 1.0):
        return np.full(a.shape, float(x == 0.0))
    pa, pb = a.ravel(), b.ravel()
    s, flip = pa + pb, x >= (pa + 1.0) / (pa + pb + 2.0)
    ya, yb = x * s / pa, (1.0 - x) * s / pb
    log_front = (0.5 * np.log(pa * pb / s) - _HALF_LOG_2PI - _stirling_error(pa)
                 - _stirling_error(pb) + _stirling_error(s)
                 - pa * (ya - 1.0 - np.log(ya)) - pb * (yb - 1.0 - np.log(yb)))
    head = np.where(flip, pb, pa)
    part = np.exp(log_front) / head * _beta_fraction(
        head, np.where(flip, pa, pb), np.where(flip, 1.0 - x, x))
    return np.where(flip, part, 1.0 - part).reshape(a.shape)


EXP_FLOOR = -700.0  # exp results below e^-700, all negligible here, are taken as 0


def guarded_exp(x: np.ndarray) -> np.ndarray:
    """exp(x) in place, 0 where x < EXP_FLOOR: numpy's exp is never handed an argument
    whose result is subnormal or 0, which costs it 15 to 150 times a normal result."""
    keep = x >= EXP_FLOOR
    if keep.all():
        return np.exp(x, out=x)
    np.exp(np.maximum(x, EXP_FLOOR, out=x), out=x)
    x *= keep
    return x


def row_sums(terms: np.ndarray) -> np.ndarray:
    """Sum over the last axis, adding the terms in index order.

    numpy's reductions choose their summation order from the array's shape,
    so one replicate could sum differently alone and inside a bank; the
    fixed order keeps every row's bits independent of the bank around it.
    """
    total = terms[..., 0].copy()
    for j in range(1, terms.shape[-1]):
        total += terms[..., j]
    return total


def unique_rows(table: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct rows of ``table`` [N, C] in lexicographic order, and each row's index
    into them: ``np.unique(table, axis=0, return_inverse=True)`` by one lexsort, where
    numpy sorts a structured view of the rows many times slower."""
    table = np.asarray(table)
    order = np.lexsort(table.T[::-1])
    ordered = table[order]
    first = np.ones(len(table), dtype=bool)
    first[1:] = (ordered[1:] != ordered[:-1]).any(axis=1)
    inverse = np.empty(len(table), dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


@dataclass(frozen=True)
class Design:
    """One design, declared once in the module that implements it."""

    name: str
    params: type  # its parameter type; type(None) if it takes none
    grid: tuple  # its tuning grid, in lexicographic order
    presets: dict  # size family -> the parameters the CLI runs it at, as tuning chose them
    strict: bool  # rejects on tail > lambda, else on tail >= lambda
    bank: Callable  # (responses, sizes, prior, p0) -> statistics with tails_means(params)
    takes_prior: bool = True  # takes one Beta prior, shared by every basket
    block_rows: Callable = lambda k: None  # -> the most rows one bank may hold, if bounded
    tables_key: Callable = lambda sizes, p0, params: None  # -> the key of shared tables, if any
    tables: Callable | None = None  # (design, sizes, p0, params) builds and caches them


class BorrowingBank:
    """Beta posteriors of a bank: the prior, if any, plus ``counts`` summed under ``weights``."""

    def __init__(self, prior: BetaShape | None, counts, p0: float, weights: Callable):
        self._prior = (prior.alpha, prior.beta) if prior is not None else (0.0, 0.0)
        self._counts, self.p0, self.weights = counts, p0, weights

    def tails_means(self, params) -> tuple[np.ndarray, np.ndarray]:
        """Tails Pr(p > p0) and posterior means, both [R, K], at one parameter set."""
        alphas, betas = self.posterior_shapes(self.weights(params))
        return beta_tails(alphas, betas, self.p0), alphas / (alphas + betas)

    def posterior_shapes(self, weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Beta shapes [R, K] of the posterior under borrowing weights [R, K, K]: the
        prior plus sum_i weights[..., k, i] * counts[..., i] for every k."""
        return (self._prior[0] + row_sums(weights * self._counts[0][..., None, :]),
                self._prior[1] + row_sums(weights * self._counts[1][..., None, :]))
