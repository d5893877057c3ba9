"""Shared numerical primitives and domain types.

Everything in here is a pure function of its inputs, so the whole module is
safe to call concurrently from any number of workers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import betaincc, gammaln

PATTERNS = ("Null", "Alternative", "Ascending", "Descending", "BGN", "SGN")
SIZE_FAMILIES = ("Linear", "Grouped", "HighVariance")

_LN2 = math.log(2.0)

# Quadrature defaults: beta-type integrands are smooth away from the
# endpoints, so densities unbounded at 0 or 1 are integrated on a domain
# truncated by EDGE_EPS on each side.
EDGE_EPS = 1e-12
DEFAULT_QUAD_TOL = 1e-8
MAX_SUBINTERVALS = 2 ** 14


class BasketSimError(Exception):
    """Base class for errors raised by this package."""


class ConfigurationError(BasketSimError, ValueError):
    """A design/parameter combination or input shape violates its contract."""


class NumericError(BasketSimError, ArithmeticError):
    """A numerical routine failed to converge."""


class QuadratureError(NumericError):
    """Adaptive quadrature ran out of subdivision budget.

    The best available estimate is attached as ``partial``.
    """

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


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

    Baskets with zero observations are allowed (rate-based statistics raise
    on them); responses can never exceed the basket's sample size.
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

    def basket(self, index: int) -> tuple[int, int]:
        """(responses, sample_size) pair of one basket."""
        return self.responses[index], self.sample_sizes[index]


@dataclass(frozen=True)
class BetaShape:
    """Parameters of a beta distribution used for priors and posteriors."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0 and self.beta > 0):
            raise ValueError(f"beta shape ({self.alpha}, {self.beta}) must be positive")


@dataclass(frozen=True)
class NullRate:
    """The response rate below which a basket counts as inactive."""

    p0: float = 0.15

    def __post_init__(self):
        if not 0.0 < self.p0 < 1.0:
            raise ValueError(f"null rate {self.p0} outside (0, 1)")


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


def validate_weight_matrix(matrix: np.ndarray) -> np.ndarray:
    """Check a K x K borrowing-weight matrix: entries in [0,1], unit diagonal."""
    m = np.asarray(matrix, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"weight matrix must be square, got shape {m.shape}")
    if np.any(m < 0.0) or np.any(m > 1.0):
        raise ValueError("weight matrix entries must lie in [0, 1]")
    if np.any(np.diag(m) != 1.0):
        raise ValueError("weight matrix diagonal must be exactly 1")
    return m


# ---------------------------------------------------------------------------
# Beta-distribution math
# ---------------------------------------------------------------------------


def log_beta(a, b) -> np.ndarray:
    """ln B(a, b) elementwise over arrays of positive arguments."""
    return gammaln(a) + gammaln(b) - gammaln(a + b)


def log_beta_function(a: float, b: float) -> float:
    """ln B(a, b) via log-gamma; finite for all positive arguments."""
    if not (a > 0 and b > 0):
        raise ValueError(f"log_beta_function needs positive arguments, got ({a}, {b})")
    return float(log_beta(a, b))


def beta_mean(shape: BetaShape) -> float:
    return shape.alpha / (shape.alpha + shape.beta)


def beta_log_pdf(shape: BetaShape, x: np.ndarray) -> np.ndarray:
    """Log density of Beta(alpha, beta) at points strictly inside (0, 1)."""
    a, b = shape.alpha, shape.beta
    x = np.asarray(x, dtype=float)
    return (a - 1.0) * np.log(x) + (b - 1.0) * np.log1p(-x) - log_beta_function(a, b)


def beta_tails(alphas, betas, x: float) -> np.ndarray:
    """Pr(p > x) elementwise over arrays of beta shapes, in one ufunc call."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"beta_tail threshold {x} outside [0, 1]")
    return betaincc(alphas, betas, x)


def beta_tail(shape: BetaShape, x: float) -> float:
    """Pr(p > x) under Beta(alpha, beta), the design decision statistic."""
    return float(beta_tails(shape.alpha, shape.beta, x))


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


def weighted_sums(weights: np.ndarray, values: np.ndarray) -> np.ndarray:
    """sum_i weights[..., k, i] * values[..., i] for every k."""
    return row_sums(weights * values[..., None, :])


# ---------------------------------------------------------------------------
# Adaptive quadrature (Gauss-Kronrod 7/15 with bisection refinement)
# ---------------------------------------------------------------------------

# Nodes/weights of the 15-point Kronrod extension of 7-point Gauss-Legendre.
_XGK = np.array([
    0.991455371120813, 0.949107912342759, 0.864864423359769,
    0.741531185599394, 0.586087235467691, 0.405845151377397,
    0.207784955007898, 0.0,
])
_WGK = np.array([
    0.022935322010529, 0.063092092629979, 0.104790010322250,
    0.140653259715525, 0.169004726639267, 0.190350578064785,
    0.204432940075298, 0.209482141084728,
])
_WG = np.array([
    0.129484966168870, 0.279705391489277, 0.381830050505119,
    0.417959183673469,
])

# Full 15-point layout: -x7..-x1, 0, x1..x7 (node 7 is the centre).
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])  # embedded 7-point subset
_GAUSS_W = np.concatenate([_WG[:-1], _WG[::-1]])


def _gauss_kronrod(f, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Batched 7/15 Gauss-Kronrod estimates and error gauges per interval."""
    half = 0.5 * (b - a)
    centre = 0.5 * (a + b)
    xs = centre[:, None] + half[:, None] * _NODES[None, :]
    fv = np.asarray(f(xs.ravel()), dtype=float).reshape(xs.shape)
    k15 = half * (fv @ _KRONROD_W)
    g7 = half * (fv[:, _GAUSS_IDX] @ _GAUSS_W)
    return k15, np.abs(k15 - g7)


def integrate(
    f: Callable[[np.ndarray], np.ndarray],
    lo: float,
    hi: float,
    tol: float = DEFAULT_QUAD_TOL,
    max_subintervals: int = MAX_SUBINTERVALS,
) -> float:
    """Globally adaptive quadrature of a vectorized integrand over [lo, hi].

    ``f`` must accept an ndarray of abscissae and return the values; all
    nodes are strictly interior, so integrable endpoint singularities are
    tolerated.  Each round bisects every interval holding more than its
    share of the error budget until the summed error estimate falls below
    ``tol``.  Exceeding ``max_subintervals`` raises
    :class:`QuadratureError` carrying the partial estimate.
    """
    if not lo < hi:
        raise ValueError(f"integration bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    a = np.array([lo], dtype=float)
    b = np.array([hi], dtype=float)
    k15, err = _gauss_kronrod(f, a, b)
    n_intervals = 1
    while True:
        global_err = math.fsum(err.tolist())
        if global_err <= tol:
            return math.fsum(k15.tolist())
        split = err > tol / (2.0 * err.size)
        if not split.any():  # sum over tol yet no single offender: split the worst
            split = err == err.max()
        n_intervals += int(split.sum())
        if n_intervals > max_subintervals or not np.isfinite(global_err):
            raise QuadratureError(
                f"quadrature did not converge within {max_subintervals} subintervals",
                math.fsum(k15.tolist()),
            )
        sa, sb = a[split], b[split]
        mid = 0.5 * (sa + sb)
        ca = np.concatenate([sa, mid])
        cb = np.concatenate([mid, sb])
        ck15, cerr = _gauss_kronrod(f, ca, cb)
        a = np.concatenate([a[~split], ca])
        b = np.concatenate([b[~split], cb])
        k15 = np.concatenate([k15[~split], ck15])
        err = np.concatenate([err[~split], cerr])
        order = np.argsort(a, kind="stable")
        a, b, k15, err = a[order], b[order], k15[order], err[order]
