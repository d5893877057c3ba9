"""BHM and EXNEX designs by deterministic nested quadrature.

Given (mu, sigma) the baskets are independent, so the posterior is a 2-D
integral over (mu, sigma) of products of 1-D integrals over each basket's
log-odds eta (the low-dimensional integration idea of INLA).  The 1-D
integrals -- the likelihood's mass, its mass above the cut logit(p0) and
its mean of expit(eta) under N(mu + offset, sigma) -- are tabulated for
r = 0..n on a fixed tensor grid of Gauss-Legendre panels: mu panels halve
toward the cut, sigma = phi * s on fixed s nodes.  Narrow kernels are
integrated in z = (eta - nu) / sigma, wide ones on eta panels with the cut
on a panel boundary plus the likelihood's flat mass beyond them (r = 0 or
r = n) in closed form.  The whole-line z rule factors into one matrix
product per sigma; the mass above the cut takes its own z nodes only where
the cut is within the rule's reach.  Exponentials below e^-700 are taken as
0 by ``core.guarded_exp``.  One pass per phi serves every basket
size: with M = max(n) + 1, every likelihood row p^r (1 - p)^(n - r), and p
times it for the mean, is a nonnegative combination of the Bernstein basis
B_j(p) = C(M, j) p^j (1 - p)^(M - j), so only the basis's mass and its mass
above the cut are integrated, and each size's rows are lifted from them by
one matrix product per part.  The cache is keyed by size set.  A posterior
tail or mean is the grid-weighted average of the one given each grid node.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .core import (EXP_FLOOR, MAX_TABLE_BYTES, SIZE_FAMILIES, ConfigurationError, Design,
                   NumericError, guarded_exp)

_CUT_LEVELS = 7  # mu panels halve this many times toward a cut
_MU_HALF = 8  # unit-width mu panels on either side of a cut
_S_EDGES = (0.0, 0.125, 0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.5, 8.5)  # s ~ half-normal(1)
_S_ORDER = 5
_ETA_LIMIT = 30.0  # beyond |eta| = 30 the likelihood is flat or negligible
_ETA_PANEL = 0.5
_ETA_ORDER = 8
_Z_SIGMA = 0.25  # kernels up to this sigma are integrated in z
_Z_LIMIT = 9.0
_Z_ORDER = 48
_Z_SPAN = 300.0  # a block of the factored z rule spans at most e^300 in e^(j sigma z)
_NDTR_FLAT = 38.6  # beyond |x| = 38.6 the normal CDF rounds to exactly 0 or 1
_CHUNK_BYTES = 1 << 19  # one [rows, grid] temporary of the posterior sums
MAX_PHI = math.sqrt(np.finfo(float).max) / _S_EDGES[-1]  # (phi * s)**2 stays finite, s < 8.5
# at the fixed priors (mu's mean within 2 of 0, sd 100) and any p0 in (0, 1), |cut| < 745
# and the mu panels reach at most 2,054 past the cut, so |cut - nu| < 2^12; from MIN_PHI up
# (cut - nu) / (phi * s) stays finite on the smallest s node, and so do the z rule's nodes
MIN_PHI = 2.0 ** 12 / np.finfo(float).max / (
    0.5 * _S_EDGES[1] * (1.0 + np.polynomial.legendre.leggauss(_S_ORDER)[0][0]))

_TABLES: dict = {}
table_builds = 0  # quadrature table builds in this process; a forked child starts at 0
os.register_at_fork(after_in_child=lambda: globals().update(table_builds=0))


def logit(p: float) -> float:
    return math.log(p / (1.0 - p))


@dataclass(frozen=True)
class BhmParams:
    """Hierarchical log-odds model with a target-rate offset.  Only phi is set: the
    priors are fixed fields, and mu's prior mean is logit(0.15) - logit(0.35), the null
    response rate expressed relative to the 0.35 target every basket shares.
    """

    q = 1.0  # BHM is EXNEX at q = 1 with a target offset; a class attribute, not a field
    phi: float
    target_rates: float = field(default=0.35, init=False)
    mu_mean: float = field(default=-1.1156, init=False)
    mu_sd: float = field(default=100.0, init=False)

    def __post_init__(self):
        if not MIN_PHI <= self.phi <= MAX_PHI:
            raise ValueError(f"phi must lie in [{MIN_PHI:.4g}, {MAX_PHI:.4g}], got {self.phi}")

    @property
    def offset(self) -> float:
        return logit(self.target_rates)


@dataclass(frozen=True)
class ExnexParams:
    """Mixture of an exchangeable component (weight q) and one nonexchangeable prior,
    the same for every basket, on plain log-odds (no target offset).  Only phi and q are
    set; the priors are fixed fields, both means at logit(0.15)."""

    offset = 0.0  # a class attribute, not a field
    phi: float
    q: float
    mu_mean: float = field(default=-1.7346, init=False)
    mu_sd: float = field(default=100.0, init=False)
    nex_means: float = field(default=-1.7346, init=False)
    nex_sds: float = field(default=100.0, init=False)

    def __post_init__(self):
        if not MIN_PHI <= self.phi <= MAX_PHI:
            raise ValueError(f"phi must lie in [{MIN_PHI:.4g}, {MAX_PHI:.4g}], got {self.phi}")
        if not 0.0 < self.q <= 1.0:
            raise ValueError(f"q (the exchangeability weight) must lie in (0, 1], got {self.q}")


@dataclass(frozen=True)
class McmcConfig:
    """Sampler length, kept for the benchmark's sampler check; the quadrature ignores it."""

    total_samples: int = 10_000


_leggauss = functools.lru_cache(maxsize=None)(np.polynomial.legendre.leggauss)


def _gauss_panels(edges, orders) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Legendre nodes and weights over consecutive panels."""
    nodes, weights = [], []
    for a, b, m in zip(edges[:-1], edges[1:], orders):
        x, w = _leggauss(int(m))
        nodes.append(0.5 * (a + b) + 0.5 * (b - a) * x)
        weights.append(0.5 * (b - a) * w)
    return np.concatenate(nodes), np.concatenate(weights)


def _mu_panels(cut: float, lo: float, hi: float) -> tuple[np.ndarray, np.ndarray]:
    """Panel edges covering [lo, hi]: halving toward the cut, unit width
    near it, doubling beyond; and a Gauss-Legendre order per panel."""
    reach = [2.0 ** -j for j in range(_CUT_LEVELS, 0, -1)] + list(range(1, _MU_HALF + 1))
    while cut - reach[-1] > lo or cut + reach[-1] < hi:
        reach.append(reach[-1] + 2 * (reach[-1] - reach[-2]))
    edges = np.array(sorted({cut + sign * d for d in [0.0] + reach for sign in (-1.0, 1.0)}))
    widths = np.diff(edges)
    return edges, np.where(widths < 0.4, 4, np.where(widths < 1.5, 8, 6))


@functools.lru_cache(maxsize=8)
def _grid(cut: float, mu_mean: float, mu_sd: float):
    """mu nodes, s nodes and the log prior-times-quadrature weights [s, mu]."""
    mu, w_mu = _gauss_panels(*_mu_panels(cut, mu_mean - 10 * mu_sd, mu_mean + 10 * mu_sd))
    s, w_s = _gauss_panels(_S_EDGES, [_S_ORDER] * (len(_S_EDGES) - 1))
    log_w = (np.log(w_s) - 0.5 * s * s)[:, None] + (
        np.log(w_mu) - 0.5 * ((mu - mu_mean) / mu_sd) ** 2)[None, :]
    return mu, s, log_w.ravel()


def _ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF, elementwise; beyond |x| = _NDTR_FLAT it rounds to exactly 0 or 1."""
    out = (x > 0.0).astype(float)
    near = np.abs(x) < _NDTR_FLAT
    out[near] = 0.5 * np.array([math.erfc(v) for v in (x[near] * -math.sqrt(0.5)).tolist()])
    return out


def _log_comb(m: int, k: int) -> float:
    return math.log(math.comb(m, k))


def _bernstein_lift(sizes: tuple, degree: int) -> np.ndarray:
    """Weights [2, rows, degree + 1] writing L = p^r (1 - p)^(n - r) / max_p L, and p L, for
    r = 0..n of every n < degree in sizes, in the Bernstein basis B_j(p) = C(degree, j) p^j
    (1 - p)^(degree - j).  The degree-elevation weights, C(degree - n, j - r) / C(degree, j)
    / max_p L for L, are all nonnegative; formed in logs, they overflow for no size."""
    lift = np.zeros((2, sum(n + 1 for n in sizes), degree + 1))
    for row, (r, n) in enumerate((r, n) for n in sizes for r in range(n + 1)):
        peak = sum(c * math.log(c / n) for c in (r, n - r) if c)  # ln max_p L
        for part, (a, b) in enumerate(((r, n), (r + 1, n + 1))):
            for j in range(a, a + degree - b + 1):
                lift[part, row, j] = math.exp(
                    _log_comb(degree - b, j - a) - _log_comb(degree, j) - peak)
    return lift


@functools.lru_cache(maxsize=8)
def _bernstein_terms(degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """j, degree - j and ln C(degree, j) for j = 0..degree, read-only."""
    j = np.arange(degree + 1.0)
    terms = (j, degree - j, np.array([_log_comb(degree, i) for i in range(degree + 1)]))
    for t in terms:
        t.flags.writeable = False
    return terms


def _log_bernstein(degree: int, eta: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """ln B_j(expit(eta)) [degree + 1, *eta.shape], from ln p and ln(1 - p): both are
    negative, so no large terms cancel.  ``out`` and ``scratch``, of that shape, are
    reused if given; the result is ``out``."""
    j, rest, log_comb = (t.reshape(-1, *(1,) * eta.ndim) for t in _bernstein_terms(degree))
    out = np.multiply(j, -np.logaddexp(0.0, -eta), out=out)
    out += log_comb
    out += np.multiply(rest, -np.logaddexp(0.0, eta), out=scratch)
    return out


def _bernstein(degree: int, eta: np.ndarray, out=None, scratch=None) -> np.ndarray:
    """B_j(expit(eta)) [degree + 1, *eta.shape], 0 below e^EXP_FLOOR; the buffers are
    those of ``_log_bernstein``."""
    return guarded_exp(_log_bernstein(degree, eta, out, scratch))


def _softplus_change(nu: np.ndarray, t: np.ndarray) -> np.ndarray:
    """softplus(nu + t) - softplus(nu) [t, nu], with softplus(x) = max(x, 0) + ln(1 + e^-|x|)
    and the change of max(x, 0) taken from t, so a large |nu| rounds nothing in."""
    eta = nu + t[:, None]
    ramp = np.where(nu >= 0.0, np.maximum(t[:, None], -nu), np.maximum(eta, 0.0))
    return ramp + np.log1p(guarded_exp(-np.abs(eta))) - np.log1p(guarded_exp(-np.abs(nu)))


def _z_rule_mass(log_basis: np.ndarray, nu: np.ndarray, sigma: float, z, w_z) -> np.ndarray:
    """The basis's mass under N(nu, sigma) [degree + 1, nu] by the fixed z rule (z, w_z),
    factored: B_j(expit(nu + sigma z)) = B_j(expit(nu)) e^(j sigma z) e^(-degree (softplus(nu
    + sigma z) - softplus(nu))), so each block of z nodes takes one [degree + 1, z] @ [z, nu]
    product.  Each factor is shifted by its row or column maximum and the shifts and ln
    B_j(expit(nu)) (``log_basis``) are applied in logs; a block spans at most e^_Z_SPAN in
    e^(j sigma z), so no entry that counts underflows."""
    degree = log_basis.shape[0] - 1
    j, t = np.arange(degree + 1.0)[:, None], sigma * z
    log_g = np.log(w_z)[:, None] - degree * _softplus_change(nu, t)  # [z, nu]
    mass, a = 0.0, 0
    while a < t.size:
        b = max(a + 1, int(np.searchsorted(t, t[a] + _Z_SPAN / degree, side="right")))
        top = log_g[a:b].max(axis=0)
        sums = np.exp(j * (t[a:b] - t[b - 1])) @ guarded_exp(log_g[a:b] - top)
        mass = mass + guarded_exp(log_basis + top + j * t[b - 1]) * sums
        a = b
    return mass


def _basis_mass(degree: int, nu: np.ndarray, sigmas, cut: float) -> np.ndarray:
    """[2, degree + 1, len(sigmas), len(nu)]: the Bernstein basis's mass under N(nu, sigma),
    and its mass above the cut.  Where the cut lies beyond the z rule's reach the mass above
    it is the whole mass, or 0."""
    edges = cut + _ETA_PANEL * np.arange(math.floor((-_ETA_LIMIT - cut) / _ETA_PANEL),
                                         math.ceil((_ETA_LIMIT - cut) / _ETA_PANEL) + 1)
    eta, w_eta = _gauss_panels(edges, [_ETA_ORDER] * (edges.size - 1))
    above = np.searchsorted(eta, cut)  # the cut is a panel edge, never a node
    basis = _bernstein(degree, eta) * w_eta
    half_sq, kernel = -0.5 * np.square(np.subtract.outer(eta, nu)), np.empty(eta.size * nu.size)
    reach = half_sq.max(axis=0)  # sigma^2 times each kernel's largest exponent
    x, w = _leggauss(_Z_ORDER)
    z = -_Z_LIMIT + _Z_LIMIT * (x + 1.0)  # the z rule over the whole line
    w_z = _Z_LIMIT * w * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
    log_basis = _log_bernstein(degree, nu)
    step = max(1, _CHUNK_BYTES // (8 * (degree + 1) * _Z_ORDER))
    buffers = np.empty((2, degree + 1, min(step, nu.size), _Z_ORDER))  # the near-cut basis
    mass = np.zeros((2, degree + 1, len(sigmas), nu.size))  # the basis's mass, and above the cut
    for i, sigma in enumerate(sigmas):
        if sigma > _Z_SIGMA:
            # only kernels with an entry above e^EXP_FLOOR; reach peaks within the eta
            # panels and falls off on either side, so they are one run of nu
            live = np.flatnonzero(reach / (sigma * sigma) >= EXP_FLOOR)
            if live.size:
                a, b = live[0], live[-1] + 1
                k = kernel[:eta.size * (b - a)].reshape(eta.size, b - a)
                guarded_exp(np.divide(half_sq[:, a:b], sigma * sigma, out=k))
                mass[1, :, i, a:b] = basis[:, above:] @ k[above:]
                mass[0, :, i, a:b] = basis[:, :above] @ k[:above] + mass[1, :, i, a:b]
                mass[:, :, i, a:b] /= sigma * math.sqrt(2 * math.pi)
            # beyond the eta panels B_0 is flat at 1 on the left and B_degree on the right
            mass[0, 0, i] += _ndtr((edges[0] - nu) / sigma)
            mass[:, -1, i] += _ndtr((nu - edges[-1]) / sigma)
            continue
        mass[0, :, i] = _z_rule_mass(log_basis, nu, sigma, z, w_z)
        # above the cut: the whole line where the cut is Z_LIMIT sigma or more below nu, and
        # nothing where it is that far above; in between, z nodes from the cut up, in nu
        # slices that keep both buffers within budget
        lower = (cut - nu) / sigma
        mass[1, :, i] = np.where(lower <= -_Z_LIMIT, mass[0, :, i], 0.0)
        near = np.flatnonzero(np.abs(lower) < _Z_LIMIT)  # one run: lower falls with nu
        for a in near[::step]:
            b = min(a + step, near[-1] + 1)
            half = 0.5 * (_Z_LIMIT - lower[a:b])[:, None]
            z_near = lower[a:b, None] + half * (x + 1.0)
            w_near = half * w * np.exp(-0.5 * z_near * z_near) / math.sqrt(2 * math.pi)
            v = _bernstein(degree, nu[a:b, None] + sigma * z_near,
                           buffers[0][:, :b - a], buffers[1][:, :b - a])
            mass[1, :, i, a:b] = np.multiply(v, w_near, out=v).sum(axis=2)
    return mass


def _integrals(sizes: tuple, nu: np.ndarray, sigmas, cut: float) -> dict:
    """{n: [3, n + 1, len(sigmas) * len(nu)]} for every n in sizes: the likelihood's mass,
    its mass above the cut and its mean of expit(eta) under N(nu, sigma), for r = 0..n (the
    likelihood scaled to peak 1), sigma-major, lifted from the Bernstein basis's integrals
    after the temporaries of their build are freed."""
    degree = max(sizes) + 1
    mass = _basis_mass(degree, nu, sigmas, cut)
    lift = _bernstein_lift(sizes, degree)
    out = np.empty((3, lift.shape[1], len(sigmas) * nu.size))
    for part, (row, basis_part) in enumerate(((0, 0), (0, 1), (1, 0))):  # mass, tail, mean
        np.matmul(lift[row], mass[basis_part].reshape(degree + 1, -1), out=out[part])
    first = np.cumsum([0] + [n + 1 for n in sizes])  # each size's first row
    return {n: out[:, a:b] for n, a, b in zip(sizes, first, first[1:])}


@functools.lru_cache(maxsize=256)
def _nex(cut: float, n: int, mean: float, sd: float) -> np.ndarray:
    """[3, n + 1] integrals under one basket's nonexchangeable prior."""
    return _integrals((n,), np.array([mean]), [sd], cut)[n][:, :, 0]


def tables_key(sizes: tuple, p0: float, params) -> tuple:
    """The key that a BHM or EXNEX model's quadrature tables are cached and shared under:
    the cut, the mu grid's key (its cut, prior mean and sd), phi, the offset and the sizes."""
    cut = logit(p0)
    return (cut, (cut - params.offset, params.mu_mean, params.mu_sd), params.phi,
            params.offset, tuple(sorted(set(sizes))))


def design_tables(design: str, sizes: tuple, p0: float, params):
    """(exchangeable tables per basket, NEX integrals per basket, q, log grid weights)
    of a BHM or EXNEX model.  The cache holds the tables of the last ``tables_key``, whole
    size set included, so no table depends on which tables were built before it.  Tables
    above ``MAX_TABLE_BYTES`` raise ConfigurationError before any is allocated."""
    global table_builds
    key = cut, grid_key, phi, offset, distinct = tables_key(sizes, p0, params)
    mu, s, log_w = _grid(*grid_key)
    if key not in _TABLES:
        need = 8 * log_w.size * (3 * sum(n + 1 for n in distinct) + 2 * (max(sizes) + 2))
        if need > MAX_TABLE_BYTES:
            raise ConfigurationError(f"{design} quadrature tables of sample sizes {list(sizes)} "
                                     f"need {need} bytes ({log_w.size} nodes) > {MAX_TABLE_BYTES}")
        _TABLES.clear()
        _TABLES[key] = _integrals(distinct, mu + offset, phi * s, cut)
        table_builds += 1
    nex = {n: np.zeros((3, n + 1)) if params.q == 1.0  # the nonexchangeable part has no weight
           else _nex(cut, n, params.nex_means, params.nex_sds) for n in distinct}
    return [_TABLES[key][n] for n in sizes], [nex[n] for n in sizes], params.q, log_w


def posterior_tails_means(design: str, responses, sample_sizes, params,
                          p0: float) -> tuple[np.ndarray, np.ndarray]:
    """BHM or EXNEX tails Pr(p > p0) and posterior means [R, K] of a bank [R, K]; a data
    set whose likelihood mass underflows at every grid node raises NumericError."""
    rows = np.asarray(responses, dtype=np.int64)
    sizes = tuple(int(v) for v in np.broadcast_to(sample_sizes, rows.shape[1:]))
    tables, nex, q, log_w = design_tables(design, sizes, p0, params)
    codes, mixtures = np.empty(rows.shape, dtype=np.intp), []
    for k, table in enumerate(tables):  # each basket's mixture once per response count seen
        seen, codes[:, k] = np.unique(rows[:, k], return_inverse=True)
        m = table[:, seen]  # a copy, so q * table + (1 - q) * nex takes no second one
        m *= q
        m += (1.0 - q) * nex[k][:, seen, None]
        # m becomes [log mass, tail, mean] given each node; where the mass is 0, so is w
        np.divide(m[1:], m[0], out=m[1:], where=m[0] > 0.0)
        with np.errstate(divide="ignore"):
            np.log(m[0], out=m[0])
        mixtures.append(m)
    tails, means = np.empty((2, *rows.shape))
    step = max(1, _CHUNK_BYTES // (8 * log_w.size))
    for a in range(0, len(rows), step):
        chunk = slice(a, a + step)
        log_post = np.tile(log_w, (len(rows[chunk]), 1))
        for k, m in enumerate(mixtures):
            log_post += m[0, codes[chunk, k]]
        top = log_post.max(axis=1, keepdims=True)
        if not np.isfinite(top).all():  # at every grid node some basket's mass underflows
            bad = rows[chunk][~np.isfinite(top[:, 0])][0].tolist()
            raise NumericError(f"{design} posterior of responses {bad} with sizes "
                               f"{list(sizes)} underflows to 0 at every grid node")
        # a weight below e^EXP_FLOOR set to 0 moves a tail or mean by at most ~1e-304 per
        # node, as the total is at least 1: over ~13k nodes only results below ~1e-284 move
        w = guarded_exp(np.subtract(log_post, top, out=log_post))
        total = w.sum(axis=1)
        for k, m in enumerate(mixtures):
            given = m[1:, codes[chunk, k]]
            given *= w  # in place: a second [2, rows, grid] array nearly doubles this loop's time
            tails[chunk, k], means[chunk, k] = given.sum(axis=2) / total
    return np.minimum(tails, 1.0), means


def bhm_posterior_batch(responses, sample_sizes, params: BhmParams, mcmc=None, seeds=None,
                        p0: float = 0.15):
    """(tails, means, ()) of a bank, kept for the benchmark; ``mcmc`` and ``seeds`` are ignored."""
    return (*posterior_tails_means("BHM", responses, sample_sizes, params, p0), ())


def exnex_posterior_batch(responses, sample_sizes, params: ExnexParams, mcmc=None, seeds=None,
                          p0: float = 0.15):
    """(tails, means, ()) of a bank, kept for the benchmark; ``mcmc`` and ``seeds`` are ignored."""
    return (*posterior_tails_means("EXNEX", responses, sample_sizes, params, p0), ())


class HierarchicalBank:
    """BHM or EXNEX tails and means of a bank, from the quadrature tables of its model."""

    def __init__(self, design: str, rows, sizes, prior, p0: float):
        self.tails_means = lambda params: posterior_tails_means(design, rows, sizes, params, p0)


PHI_GRID = tuple(0.125 + j * (1.875 / 7.0) for j in range(8))
_SHARED = dict(strict=True, takes_prior=False, tables_key=tables_key, tables=design_tables)
DECLARED = (
    Design("BHM", BhmParams, tuple(BhmParams(phi=phi) for phi in PHI_GRID),
           dict.fromkeys(SIZE_FAMILIES, BhmParams(phi=0.661)),
           bank=functools.partial(HierarchicalBank, "BHM"), **_SHARED),
    Design("EXNEX", ExnexParams, tuple(ExnexParams(phi=phi, q=i / 10.0)  # q 0.1 .. 0.9
                                       for phi in PHI_GRID for i in range(1, 10)),
           dict(Linear=ExnexParams(phi=0.661, q=0.9), Grouped=ExnexParams(phi=0.661, q=0.9),
                HighVariance=ExnexParams(phi=0.661, q=0.8)),
           bank=functools.partial(HierarchicalBank, "EXNEX"), **_SHARED),
)
