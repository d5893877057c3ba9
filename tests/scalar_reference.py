"""Scalar formulas of the published designs, one basket pair or one partition at a
time, earlier formulations of the bank kernels, and a batched adaptive Gauss-Kronrod
integrator, kept as independent references for the bank kernels in ``basketsim``.

Nothing in ``basketsim`` calls these; the tests compare the kernels against them.
"""

import math

import numpy as np

from basketsim import bma
from basketsim.core import (
    BetaShape,
    NumericError,
    beta_tails,
    log_beta,
    row_sums,
    set_unit_diagonal,
)
from basketsim.powerprior import (
    CppParams,
    alpha0_matrix,
    cpp_weights_from_scaled,
    gamma_matrix,
    scaled_ks_matrix,
)


# Quadrature defaults: beta-type integrands are smooth away from the
# endpoints, so densities unbounded at 0 or 1 are integrated on a domain
# truncated by EDGE_EPS on each side.
EDGE_EPS = 1e-12
DEFAULT_QUAD_TOL = 1e-8
MAX_SUBINTERVALS = 2 ** 14


class QuadratureError(NumericError):
    """Adaptive quadrature ran out of subdivision budget.

    The best available estimate is attached as ``partial``.
    """

    def __init__(self, message: str, partial: float):
        super().__init__(message)
        self.partial = partial


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


def blocks(assignment) -> list[tuple[int, ...]]:
    """Basket indices of each block of a restricted-growth string, in label order."""
    return [tuple(k for k, label in enumerate(assignment) if label == b)
            for b in range(max(assignment) + 1)]


def log_marginal_likelihood(partition, data, prior: BetaShape) -> float:
    """Sum over the partition's blocks of the pooled beta-binomial log marginal,
    binomial coefficients omitted (they cancel across models)."""
    total, base = 0.0, log_beta(prior.alpha, prior.beta)
    for block in blocks(partition):
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
        member = self.space.member.astype(float)
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


# ---------------------------------------------------------------------------
# Adaptive quadrature (Gauss-Kronrod 7/15 with bisection refinement)
# ---------------------------------------------------------------------------

# Nodes/weights of the 15-point Kronrod extension of 7-point Gauss-Legendre.
_XGK = np.array([0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
                 0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0])
_WGK = np.array([0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
                 0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728])
_WG = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469])

# Full 15-point layout: -x7..-x1, 0, x1..x7 (node 7 is the centre).
_NODES = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_KRONROD_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
_GAUSS_IDX = np.array([1, 3, 5, 7, 9, 11, 13])  # embedded 7-point subset
_GAUSS_W = np.concatenate([_WG[:-1], _WG[::-1]])


def _gauss_kronrod(f, a, b, which) -> tuple[np.ndarray, np.ndarray]:
    """7/15 Gauss-Kronrod estimates and error gauges per interval, each summed in
    node order so that its bits depend on that interval alone."""
    half = 0.5 * (b - a)
    xs = (0.5 * (a + b))[:, None] + half[:, None] * _NODES[None, :]
    fv = np.asarray(f(xs, which), dtype=float)
    k15 = half * row_sums(fv * _KRONROD_W)
    g7 = half * row_sums(fv[:, _GAUSS_IDX] * _GAUSS_W)
    return k15, np.abs(k15 - g7)


def integrate(f, lo, hi, tol: float = DEFAULT_QUAD_TOL,
              max_subintervals: int = MAX_SUBINTERVALS):
    """Globally adaptive quadrature of one integral over [lo, hi], or in one pass of a
    batch of N integrals whose bounds ``lo`` and ``hi`` are arrays [N].

    ``f(x)`` returns the integrand at abscissae [M, 15], one row per interval; a
    batch's ``f(x, which)`` also receives each row's integral [M].  All nodes are
    strictly interior, so integrable endpoint singularities are tolerated.  Each
    integral keeps its own intervals, so its bits ignore the batch: each round
    bisects every interval holding more than its share of the error budget until
    the summed error estimate falls below ``tol``.  Exceeding ``max_subintervals``
    raises :class:`QuadratureError` carrying that integral's partial estimate.
    """
    single = np.ndim(lo) == 0
    lo, hi = (np.array(v, dtype=float, ndmin=1) for v in (lo, hi))
    if not np.all(lo < hi):
        raise ValueError(f"integration bounds must satisfy lo < hi, got [{lo}, {hi}]")
    if tol <= 0:
        raise ValueError("tol must be positive")
    kernel = (lambda x, which: f(x)) if single else f
    a, b, which = lo, hi, np.arange(lo.size)  # intervals, grouped by integral
    k15, err = _gauss_kronrod(kernel, a, b, which)
    out = np.empty(lo.size)
    while which.size:
        starts = np.flatnonzero(np.r_[True, which[1:] != which[:-1]])
        bounds = starts.tolist() + [which.size]
        sizes, errs, ests = np.diff(bounds), err.tolist(), k15.tolist()
        global_err = np.array([math.fsum(errs[i:j]) for i, j in zip(bounds, bounds[1:])])
        done = global_err <= tol
        for i in np.flatnonzero(done).tolist():
            out[which[starts[i]]] = math.fsum(ests[bounds[i]:bounds[i + 1]])
        split = err > tol / (2.0 * np.repeat(sizes, sizes))
        # sum over tol yet no single offender: split the worst
        worst = err == np.repeat(np.maximum.reduceat(err, starts), sizes)
        split |= worst & np.repeat(~np.logical_or.reduceat(split, starts), sizes)
        split &= np.repeat(~done, sizes)
        failed = ~done & ((sizes + np.add.reduceat(split, starts) > max_subintervals)
                          | ~np.isfinite(global_err))
        if failed.any():
            i = int(np.argmax(failed))
            raise QuadratureError(f"quadrature did not converge within {max_subintervals} "
                                  "subintervals", math.fsum(ests[bounds[i]:bounds[i + 1]]))
        keep, mid = np.repeat(~done, sizes) & ~split, 0.5 * (a[split] + b[split])
        ca, cb, cw = np.r_[a[split], mid], np.r_[mid, b[split]], np.tile(which[split], 2)
        ck15, cerr = _gauss_kronrod(kernel, ca, cb, cw)
        order = np.argsort(np.r_[which[keep], cw], kind="stable")  # regroup by integral
        a, b, which, k15, err = (np.r_[v[keep], c][order] for v, c in (
            (a, ca), (b, cb), (which, cw), (k15, ck15), (err, cerr)))
    return float(out[0]) if single else out
