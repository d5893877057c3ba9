import math
import warnings

import numpy as np
import pytest
from scipy import integrate, special, stats

from basketsim import core, hierarchical
from basketsim.engine import design_bank
from basketsim.hierarchical import (
    MAX_PHI,
    MAX_PRIOR,
    MIN_PHI,
    BhmParams,
    ExnexParams,
    bhm_posterior_batch,
    design_tables,
    exnex_posterior_batch,
    logit,
    posterior_tails_means,
)
from scalar_reference import hierarchical_posterior, leave_one_out_posterior

SIZES = (10, 10, 25, 25, 30)
DATA = (2, 5, 1, 4, 9)
NO_DATA = ((0,) * 5, (0,) * 5)
C = logit(0.15)
HIGH_VARIANCE = (10, 10, 10, 20, 50)
PAPER_SIZES = {"Grouped": (10, 10, 25, 25, 30), "Linear": (10, 15, 20, 25, 30),
               "HighVariance": HIGH_VARIANCE, "small": (0, 3, 7)}


def tails_means(design, responses, sizes, params):
    tails, means = posterior_tails_means(design, [responses], sizes, params, 0.15)
    return tails[0], means[0]


def half_normal_average(f, phi):
    """E[f(sigma)] for sigma ~ half-normal(phi)."""
    value, _ = integrate.quad(lambda s: f(s) * 2 * stats.norm.pdf(s, 0, phi), 0, 12 * phi)
    return value


def normal_expit_mean(mean, sd):
    value, _ = integrate.quad(lambda x: stats.norm.pdf(x, mean, sd) * special.expit(x),
                              mean - 12 * sd, mean + 12 * sd, limit=400)
    return value


def brute_force(design, responses, sizes, params):
    """Tails and means for two baskets on a dense (sigma, eta1, eta2) grid.

    mu is integrated out in closed form: given sigma, exchangeable log-odds
    are jointly normal with covariance sigma^2 I + mu_sd^2 11'.  The cut
    sits on an eta node, which gets half weight in the tail.
    """
    h = 0.05
    eta = C + h * np.arange(round((-25 - C) / h), round((25 - C) / h) + 1)
    w_eta = np.full(eta.size, h)
    w_eta[[0, -1]] = h / 2
    above = np.where(eta > C, 1.0, np.where(np.isclose(eta, C), 0.5, 0.0))
    lik = [np.exp(r * eta - n * np.logaddexp(0.0, eta)) * w_eta
           for r, n in zip(responses, sizes)]
    if design == "BHM":
        centres, q = params.mu_mean + params.offsets(2), 1.0
        nex = [np.zeros_like(eta)] * 2
    else:
        centres, q = (params.mu_mean,) * 2, params.q
        nex = [stats.norm.pdf(eta, params.nex_means, params.nex_sds)] * 2
    x, y = eta[:, None] - centres[0], eta[None, :] - centres[1]
    tau2 = params.mu_sd ** 2
    weights = np.zeros((eta.size, eta.size))
    n_sigma = 120
    for sigma in (np.arange(n_sigma) + 0.5) * (6 * params.phi / n_sigma):
        var, det = sigma ** 2 + tau2, sigma ** 2 * (sigma ** 2 + 2 * tau2)
        joint = np.exp(-(var * (x * x + y * y) - 2 * tau2 * x * y) / (2 * det)) / (
            2 * math.pi * math.sqrt(det))
        single = [stats.norm.pdf(eta, m, math.sqrt(var)) for m in centres]
        prior = (q * q * joint + q * (1 - q) * single[0][:, None] * nex[1][None, :]
                 + (1 - q) * q * nex[0][:, None] * single[1][None, :]
                 + (1 - q) ** 2 * nex[0][:, None] * nex[1][None, :])
        weights += stats.halfnorm.pdf(sigma, scale=params.phi) * prior
    weights *= lik[0][:, None] * lik[1][None, :]
    total = weights.sum()
    marginals = (weights.sum(axis=1), weights.sum(axis=0))
    tails = [(m * above).sum() / total for m in marginals]
    means = [(m / (1 + np.exp(-eta))).sum() / total for m in marginals]
    return np.array(tails), np.array(means)


def per_row_integrals(sizes, nu, sigmas, cut):
    """The tables of hierarchical._integrals built from one likelihood row per (r, n):
    each row's mass, mass above the cut and mean of expit(eta) integrated on its own."""
    h = hierarchical
    n = np.repeat(sizes, [m + 1 for m in sizes])[:, None]
    r = np.concatenate([np.arange(m + 1) for m in sizes])[:, None]
    first = np.cumsum([0] + [m + 1 for m in sizes])  # each size's first row
    p_hat = r / np.maximum(n, 1)
    peak = special.xlogy(r, p_hat) + special.xlogy(n - r, 1.0 - p_hat)
    edges = cut + h._ETA_PANEL * np.arange(math.floor((-h._ETA_LIMIT - cut) / h._ETA_PANEL),
                                           math.ceil((h._ETA_LIMIT - cut) / h._ETA_PANEL) + 1)
    eta, w_eta = h._gauss_panels(edges, [h._ETA_ORDER] * (edges.size - 1))
    lik = w_eta * np.exp(r * eta - n * np.logaddexp(0.0, eta) - peak)
    basis = np.concatenate([lik, lik * (eta > cut), lik * special.expit(eta)]).T
    half_sq = -0.5 * np.square(np.subtract.outer(nu, eta))
    x, w = h._leggauss(h._Z_ORDER)
    out = np.empty((3, len(r), len(sigmas), nu.size))
    for i, sigma in enumerate(sigmas):
        if sigma > h._Z_SIGMA:
            kernel = np.exp(half_sq / (sigma * sigma))
            out[:, :, i] = (kernel @ basis).T.reshape(3, len(r), nu.size) / (
                sigma * math.sqrt(2 * math.pi))
            # beyond the eta panels the likelihood is flat at r = 0 (left) and r = n (right)
            out[0, first[:-1], i] += special.ndtr((edges[0] - nu) / sigma)
            out[:, first[1:] - 1, i] += special.ndtr((nu - edges[-1]) / sigma)
            continue
        for part, lower in ((0, np.full(nu.size, -h._Z_LIMIT)),
                            (1, np.clip((cut - nu) / sigma, -h._Z_LIMIT, h._Z_LIMIT))):
            half = 0.5 * (h._Z_LIMIT - lower)[:, None]
            z = lower[:, None] + half * (x + 1.0)
            w_z = half * w * np.exp(-0.5 * z * z) / math.sqrt(2 * math.pi)
            eta_z = nu[:, None] + sigma * z
            soft, mean = np.logaddexp(0.0, eta_z), special.expit(eta_z)
            for m, rows in zip(sizes, map(slice, first[:-1], first[1:])):
                v = np.exp(r[rows, :, None] * eta_z - m * soft - peak[rows, :, None]) * w_z
                out[part, rows, i] = v.sum(axis=2)
                if part == 0:
                    out[2, rows, i] = (v * mean).sum(axis=2)
    return {m: out[:, a:b].reshape(3, m + 1, -1) for m, a, b in zip(sizes, first, first[1:])}


def assert_rows_close(got, want, rtol=1e-12):
    """Every entry within rtol of the largest entry of its row."""
    scale = np.abs(want).max(axis=-1, keepdims=True)
    assert np.all(np.abs(got - want) <= rtol * scale)


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                          np.ascontiguousarray(want).view(np.int64))


def bernstein(degree, p, q):
    """B_j(p) = C(degree, j) p^j q^(degree - j) with q = 1 - p, [degree + 1, len(p)]."""
    j = np.arange(degree + 1)[:, None]
    comb = np.array([math.comb(degree, i) for i in range(degree + 1)], dtype=float)[:, None]
    return comb * p ** j * q ** (degree - j)


class TestBernsteinBuild:
    @pytest.mark.parametrize("degree", [2, 8, 31, 51])
    def test_lift_reproduces_every_likelihood_row(self, degree):
        # n = 0, n = 1 and n = degree - 1, the largest size a basis of this degree lifts
        sizes = tuple(sorted({0, 1, degree - 1}))
        p = np.linspace(0.0, 1.0, 201)[1:-1]
        lift = hierarchical._bernstein_lift(sizes, degree)
        rows = [(r, n) for n in sizes for r in range(n + 1)]
        assert lift.shape == (2, len(rows), degree + 1)
        assert np.all(lift >= 0.0)
        values = lift @ bernstein(degree, p, 1.0 - p)
        for row, (r, n) in enumerate(rows):
            p_hat = r / max(n, 1)  # each row is scaled to peak 1
            likelihood = p ** r * (1.0 - p) ** (n - r) / (p_hat ** r * (1.0 - p_hat) ** (n - r))
            np.testing.assert_allclose(values[0, row], likelihood, rtol=1e-13, atol=0)
            np.testing.assert_allclose(values[1, row], p * likelihood, rtol=1e-13, atol=0)

    def test_basis_matches_its_definition(self):
        eta = np.linspace(-30.0, 30.0, 121)
        got = hierarchical._bernstein(40, eta)
        want = bernstein(40, special.expit(eta), special.expit(-eta))
        normal = want > 1e-280  # the oracle's powers lose bits in subnormal range
        np.testing.assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0)
        assert np.all(got[~normal] <= 1e-279)

    @pytest.mark.parametrize("sizes", [
        (10, 25, 30), (10, 15, 20, 25, 30), (10, 20, 50), (0, 1, 7),
    ], ids=["Grouped", "Linear", "HighVariance", "small"])
    @pytest.mark.parametrize("phi", [0.001, 0.661, 1000.0])
    def test_tables_match_per_row_build(self, sizes, phi):
        # every third mu node: the columns of a table are independent of each other
        mu, s, _ = hierarchical._grid((C,), -1.7346, 100.0)
        nu = mu[::3]
        got = hierarchical._integrals(sizes, nu, phi * s, C)
        want = per_row_integrals(sizes, nu, phi * s, C)
        for n in sizes:
            assert got[n].shape == want[n].shape == (3, n + 1, s.size * nu.size)
            assert_rows_close(got[n], want[n])

    def test_basis_does_not_depend_on_buffers(self):
        eta = np.random.default_rng(4).uniform(-30.0, 30.0, size=(7, 48))
        out, scratch = np.full((2, 41, 7, 48), np.nan)
        got = hierarchical._bernstein(40, eta, out, scratch)
        assert got is out
        assert_same_bits(got, hierarchical._bernstein(40, eta))

    def test_tables_do_not_depend_on_the_slice_budget(self, monkeypatch):
        # at phi 0.661, 13 sigma nodes take the z rule; by default its 59 nu nodes
        # span two slices, the second one partial
        mu, s, _ = hierarchical._grid((C,), -1.7346, 100.0)
        sizes, nu, sigmas = (10, 25, 30), mu[::5], 0.661 * s
        default = hierarchical._integrals(sizes, nu, sigmas, C)
        monkeypatch.setattr(hierarchical, "_CHUNK_BYTES", 1)  # one nu node per slice
        single = hierarchical._integrals(sizes, nu, sigmas, C)
        for n in sizes:
            assert_same_bits(single[n], default[n])

    @pytest.mark.parametrize("n", [0, 1, 10, 30, 50])
    @pytest.mark.parametrize("mean,sd", [(-1.7346, 100.0), (0.4, 2.0), (-2.5, 0.1)])
    def test_nex_integrals_match_per_row_build(self, n, mean, sd):
        want = per_row_integrals((n,), np.array([mean]), [sd], C)[n][:, :, 0]
        assert_rows_close(hierarchical._nex(C, n, mean, sd), want)

    def test_normal_cdf_matches_scipy(self):
        x = np.concatenate([np.linspace(-40.0, 40.0, 80_001),
                            np.random.default_rng(3).uniform(-40.0, 40.0, 20_000)])
        got, want = hierarchical._ndtr(x), special.ndtr(x)
        upper = x >= -0.5
        np.testing.assert_array_max_ulp(got[upper], want[upper], maxulp=2)
        # below, scipy rounds -x^2 / 2 before its exp and loses up to ~x^2 ulp
        # relative to math.erfc; both stay within 2 ulp of the half mass
        assert np.all(np.abs(got - want) <= 2 * np.spacing(0.5))
        normal = (x < -0.5) & (want > np.finfo(float).tiny)
        np.testing.assert_allclose(got[normal], want[normal], rtol=1e-12, atol=0)

    def test_normal_cdf_is_exact_where_it_skips_erfc(self):
        # beyond |x| = _NDTR_FLAT the erfc form already rounds to exactly 0 and 1
        flat = hierarchical._NDTR_FLAT
        x = np.concatenate([np.linspace(-flat - 5.0, flat + 5.0, 100_001), [-1e300, 1e300]])
        want = np.array([0.5 * math.erfc(v * -math.sqrt(0.5)) for v in x.tolist()])
        assert_same_bits(hierarchical._ndtr(x), want)
        assert np.all(want[np.abs(x) >= flat] == (x[np.abs(x) >= flat] > 0))

    def test_exp_never_underflows(self):
        x = np.concatenate([np.linspace(-800.0, 5.0, 10_001), [-np.inf]])
        with np.errstate(under="raise"):
            got = core.guarded_exp(x.copy())
        kept = x >= core.EXP_FLOOR
        assert_same_bits(got[kept], np.exp(x[kept]))
        assert np.all(got[~kept] == 0.0)

    @pytest.mark.parametrize("phi", [0.001, 0.661])
    def test_factored_z_rule_over_several_blocks(self, phi):
        # degree 401: at phi 0.661 the widest z sigma splits the z nodes into 6 blocks.
        # Tolerance 2e-12: the reference's own r eta - n softplus(eta) rounds by about
        # n * 2.4e-15 of its row's largest entry, 9.5e-13 at n = 400
        mu, s, _ = hierarchical._grid((C,), -1.7346, 100.0)
        sizes, nu, sigmas = (100, 200, 400), mu[::5], phi * s[phi * s <= hierarchical._Z_SIGMA]
        if phi > 0.5:
            assert 401 * sigmas.max() * 2 * hierarchical._Z_LIMIT > 5 * hierarchical._Z_SPAN
        got = hierarchical._integrals(sizes, nu, sigmas, C)
        want = per_row_integrals(sizes, nu, sigmas, C)
        for n in sizes:
            assert_rows_close(got[n], want[n], rtol=2e-12)

    def test_tail_is_the_mass_or_zero_beyond_the_z_rule_reach(self):
        mu, s, _ = hierarchical._grid((C,), -1.7346, 100.0)
        sigmas = 0.661 * s[0.661 * s <= hierarchical._Z_SIGMA]
        tables = hierarchical._integrals((10, 25, 30), mu, sigmas, C)
        reach = hierarchical._Z_LIMIT * (1 + 1e-9) * np.repeat(sigmas, mu.size)
        nu = np.tile(mu, sigmas.size)
        high, low = nu - C >= reach, C - nu >= reach
        assert high.any() and low.any() and not (high | low).all()
        for table in tables.values():
            assert_same_bits(table[1][:, high], table[0][:, high])
            assert np.all(table[1][:, low] == 0.0)
            # within reach the tail has z nodes of its own
            near = table[:, :, ~(high | low)]
            assert np.any((near[1] > 0.0) & (near[1] < 0.99 * near[0]))


class TestDeterminismAndInvariants:
    def test_tails_and_means_in_unit_interval(self):
        tails, means = tails_means("EXNEX", DATA, SIZES, ExnexParams(phi=0.661, q=0.5))
        assert np.all((tails >= 0) & (tails <= 1))
        assert np.all((means > 0) & (means < 1))

    def test_batch_equals_single_runs(self):
        # every data set is summed over the grid on its own row
        r = np.array([[2, 5, 1, 4, 9], [0, 1, 3, 3, 6], [4, 4, 8, 2, 5], [0, 1, 3, 3, 6]])
        params = BhmParams(phi=0.661)
        tails, means, warnings = bhm_posterior_batch(r, SIZES, params, None, None)
        assert warnings == ()
        for i, row in enumerate(r):
            single = tails_means("BHM", tuple(row), SIZES, params)
            assert np.array_equal(single[0], tails[i])
            assert np.array_equal(single[1], means[i])

    def test_exnex_batch_equals_single_runs(self):
        r = np.array([[2, 5, 1, 4, 9], [0, 1, 3, 3, 6]])
        params = ExnexParams(phi=0.661, q=0.9)
        tails, means, _ = exnex_posterior_batch(r, SIZES, params, None, None)
        for i, row in enumerate(r):
            single = tails_means("EXNEX", tuple(row), SIZES, params)
            assert np.array_equal(single[0], tails[i])
            assert np.array_equal(single[1], means[i])


class TestPosteriorReference:
    """The bank posterior, which forms each basket's mixture once per response count,
    against the reference that forms it for every data row, bit for bit; and against the
    leave-one-out form, which divides each basket's mixture mass out of the grid weights,
    within LEAVE_ONE_OUT_ATOL."""

    LEAVE_ONE_OUT_ATOL = 2e-15  # the two orders of operations round apart

    @staticmethod
    def bank(sizes):
        """Random rows, r = 0 and r = n in every basket, duplicate rows, and a shuffle."""
        rng = np.random.default_rng(17)
        bank = rng.binomial(sizes, rng.uniform(0.05, 0.7, size=(12, len(sizes))))
        bank = np.concatenate([np.zeros((1, len(sizes)), int), [sizes], bank, bank[2:6]])
        return bank, rng.permutation(len(bank))

    @pytest.mark.parametrize("sizes", PAPER_SIZES.values(), ids=PAPER_SIZES)
    @pytest.mark.parametrize("phi", [0.125, 0.661, 2.0])
    @pytest.mark.parametrize("design", ["BHM", "EXNEX"])
    def test_matches_per_row_reference(self, design, phi, sizes):
        bank, order = self.bank(sizes)
        for q in [1.0] if design == "BHM" else [0.2, 0.9, 1.0]:
            params = BhmParams(phi=phi) if design == "BHM" else ExnexParams(phi=phi, q=q)
            tables, nex, _, log_w = hierarchical.design_tables(design, sizes, 0.15, params)
            if design == "BHM" and sizes == HIGH_VARIANCE:  # the m = 0 path runs
                assert all(np.any(t[0, bank[:, k]] == 0.0) for k, t in enumerate(tables))
            want = hierarchical_posterior(bank, tables, nex, q, log_w)
            old = leave_one_out_posterior(bank, tables, nex, q, log_w)
            got = posterior_tails_means(design, bank, sizes, params, 0.15)
            shuffled = posterior_tails_means(design, bank[order], sizes, params, 0.15)
            single = posterior_tails_means(design, bank[7:8], sizes, params, 0.15)
            for part in range(2):
                assert_same_bits(got[part], want[part])
                assert_same_bits(shuffled[part], want[part][order])
                assert_same_bits(single[part], want[part][7:8])
                np.testing.assert_allclose(got[part], old[part], rtol=0.0,
                                           atol=self.LEAVE_ONE_OUT_ATOL)

    @pytest.mark.parametrize("sizes", PAPER_SIZES.values(), ids=PAPER_SIZES)
    @pytest.mark.parametrize("phi", [0.125, 0.661, 2.0])
    def test_reference_banks_reach_the_weight_cut(self, phi, sizes):
        # at q = 1 the banks above have finite grid weights below e^EXP_FLOOR, which the
        # bank posterior sets to 0 and the reference keeps, so their bitwise match covers
        # the cut
        bank, _ = self.bank(sizes)
        tables, _, _, log_w = hierarchical.design_tables("BHM", sizes, 0.15, BhmParams(phi))
        log_post = np.tile(log_w, (len(bank), 1))
        with np.errstate(divide="ignore"):
            for k, table in enumerate(tables):
                log_post += np.log(table[0, bank[:, k]])
        gap = log_post - log_post.max(axis=1, keepdims=True)
        assert np.any((gap < core.EXP_FLOOR) & (np.exp(gap) > 0.0))


class TestTableCache:
    def test_repeated_banks_of_a_large_family_build_once(self):
        # 205 (r, n) rows: a cache bounded by rows, not keyed by the size set,
        # would evict these tables and rebuild them on every call
        sizes = (20, 30, 40, 50, 60)
        rng = np.random.default_rng(5)
        params = ExnexParams(phi=0.57, q=0.6)
        before = hierarchical.table_builds
        for _ in range(3):
            bank = rng.binomial(sizes, 0.3, size=(20, 5))
            posterior_tails_means("EXNEX", bank, sizes, params, 0.15)
        assert hierarchical.table_builds - before == 1

    def test_tables_do_not_depend_on_what_was_built_before(self):
        grouped, linear = (10, 10, 25, 25, 30), (10, 15, 20, 25, 30)
        rng = np.random.default_rng(9)
        bank = rng.binomial(grouped, 0.25, size=(30, 5))
        params = BhmParams(phi=0.53)  # a phi no other test builds: these tables are fresh
        fresh = posterior_tails_means("BHM", bank, grouped, params, 0.15)
        posterior_tails_means("BHM", rng.binomial(linear, 0.25, size=(5, 5)), linear, params, 0.15)
        after = posterior_tails_means("BHM", bank, grouped, params, 0.15)
        for want, got in zip(fresh, after):
            assert np.array_equal(want, got)


class TestPriorRecovery:
    """Without data the posterior is the prior, whose tail and mean are 1-D integrals."""

    def test_bhm_mu_recovers_prior_mean(self):
        params = BhmParams(phi=0.661)
        centre = params.mu_mean + logit(0.35)
        tail = half_normal_average(
            lambda s: stats.norm.sf(C, centre, math.hypot(params.mu_sd, s)), params.phi)
        mean = half_normal_average(
            lambda s: normal_expit_mean(centre, math.hypot(params.mu_sd, s)), params.phi)
        tails, means = tails_means("BHM", *NO_DATA, params)
        np.testing.assert_allclose(tails, tail, atol=1e-7)
        np.testing.assert_allclose(means, mean, atol=1e-7)

    def test_exnex_mu_recovers_prior_mean(self):
        params = ExnexParams(phi=0.661, q=0.5)
        ex_tail = half_normal_average(
            lambda s: stats.norm.sf(C, params.mu_mean, math.hypot(params.mu_sd, s)), params.phi)
        nex_tail = stats.norm.sf(C, params.nex_means, params.nex_sds)
        ex_mean = half_normal_average(
            lambda s: normal_expit_mean(params.mu_mean, math.hypot(params.mu_sd, s)), params.phi)
        nex_mean = normal_expit_mean(params.nex_means, params.nex_sds)
        tails, means = tails_means("EXNEX", *NO_DATA, params)
        np.testing.assert_allclose(tails, 0.5 * ex_tail + 0.5 * nex_tail, atol=1e-7)
        np.testing.assert_allclose(means, 0.5 * ex_mean + 0.5 * nex_mean, atol=1e-7)


class TestShrinkageAndDegenerateChecks:
    def test_tiny_phi_pulls_log_odds_together(self):
        # phi = 0.001 is complete pooling: both baskets share one log-odds
        params = BhmParams(phi=0.001)
        _, means = tails_means("BHM", (1, 8), (10, 10), params)
        nu = np.linspace(-40, 40, 400_001)
        log_post = (9 * nu - 20 * np.logaddexp(0.0, nu)
                    - 0.5 * ((nu - logit(0.35) - params.mu_mean) / params.mu_sd) ** 2)
        w = np.exp(log_post - log_post.max())
        pooled = float((w / w.sum()) @ (1.0 / (1.0 + np.exp(-nu))))
        np.testing.assert_allclose(means, pooled, atol=1e-3)

    def test_symmetric_data_huge_phi_centres_at_half(self):
        _, means = tails_means("BHM", (25, 25), (50, 50), BhmParams(phi=1000.0))
        # independent single-basket oracle: grid posterior over the log-odds
        # with the wide hyperprior as an effectively flat prior
        ts = np.linspace(-40, 40, 400_001)
        offset = logit(0.35)
        log_post = (
            25 * (ts + offset) - 50 * np.logaddexp(0.0, ts + offset)
            - 0.5 * ((ts - (-1.1156)) / 100.0) ** 2
        )
        w = np.exp(log_post - log_post.max())
        oracle = float((w / w.sum()) @ (1.0 / (1.0 + np.exp(-(ts + offset)))))
        for k in range(2):
            assert means[k] == pytest.approx(oracle, abs=0.01)
            assert abs(means[k] - 0.5) < 0.01

    @pytest.mark.parametrize("design", ["BHM", "EXNEX"])
    def test_largest_phi_stays_finite(self, design):
        # sigma = phi * s squared stays finite on every s node: no overflow warning
        params = BhmParams(MAX_PHI) if design == "BHM" else ExnexParams(MAX_PHI, q=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tails, means = posterior_tails_means(design, [DATA, (0,) * 5, SIZES], SIZES,
                                                 params, 0.15)
        assert np.isfinite(tails).all() and np.isfinite(means).all()
        # no borrowing is left: a basket that saw every patient respond is a sure success
        np.testing.assert_allclose(tails[2], 1.0)

    @pytest.mark.parametrize("design", ["BHM", "EXNEX"])
    @pytest.mark.parametrize("mu_mean", [-MAX_PRIOR, MAX_PRIOR])
    def test_smallest_phi_stays_finite(self, design, mu_mean):
        # (cut - nu) / sigma stays finite on every s node with the prior mean at its bounds
        mu_mean = math.nextafter(mu_mean, 0.0)
        params = (BhmParams(MIN_PHI, mu_mean=mu_mean) if design == "BHM"
                  else ExnexParams(MIN_PHI, q=0.5, mu_mean=mu_mean))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tails, means = posterior_tails_means(design, [DATA, (0,) * 5, SIZES], SIZES,
                                                 params, 0.15)
        assert np.isfinite(tails).all() and np.isfinite(means).all()

    @pytest.mark.parametrize("design", ["BHM", "EXNEX"])
    @pytest.mark.parametrize("phi", [math.nextafter(MAX_PHI, math.inf), 1e308, math.inf,
                                     math.nan, 0.0, 5e-324, 1e-300,
                                     math.nextafter(MIN_PHI, 0.0)])
    def test_phi_out_of_range_rejected(self, design, phi):
        # below MIN_PHI, sigma = phi * s rounded to 0 or, with the mean 1e10 from the cut,
        # (cut - nu) / sigma overflowed
        with pytest.raises(ValueError, match="^phi "):
            BhmParams(phi, mu_mean=1e10) if design == "BHM" else ExnexParams(
                phi, q=0.5, mu_mean=1e10)

    @pytest.mark.parametrize("field, value", [
        ("target_rates", 1.0), ("target_rates", 0.0), ("target_rates", (0.35, math.nan)),
        ("mu_mean", math.inf), ("mu_mean", math.nan), ("mu_sd", 0.0), ("mu_sd", -1.0),
        ("mu_sd", math.inf), ("mu_sd", 1e-300), ("mu_sd", 1e300), ("mu_sd", 1e308),
        ("mu_mean", 1e300)])
    def test_bhm_prior_out_of_range_rejected(self, field, value):
        # a zero sd or a target rate of 1 divided by zero in the quadrature, and an sd or
        # mean past MAX_PRIOR overflowed the grid's squared distances or its panel edges
        with pytest.raises(ValueError, match=f"^{field} "):
            BhmParams(phi=0.661, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("mu_mean", -math.inf), ("nex_means", (0.0, math.nan)), ("mu_sd", 0.0),
        ("nex_sds", 0.0), ("nex_sds", (1.0, -1.0)), ("nex_sds", math.inf), ("mu_sd", 1e-300),
        ("nex_means", 1e300)])
    def test_exnex_prior_out_of_range_rejected(self, field, value):
        # a zero nonexchangeable sd divided by zero in the quadrature, and a mean past
        # MAX_PRIOR overflowed its squared distance from the eta nodes
        with pytest.raises(ValueError, match=f"^{field} "):
            ExnexParams(phi=0.661, q=0.5, **{field: value})

    @pytest.mark.parametrize("design", ["BHM", "EXNEX"])
    @pytest.mark.parametrize("mean", [-1.0, 1.0])
    @pytest.mark.parametrize("sd", [math.nextafter(MAX_PRIOR, 0.0),
                                    math.nextafter(1.0 / MAX_PRIOR, 1.0)])
    def test_prior_bounds_keep_the_tables_finite(self, design, mean, sd):
        # means and sds just inside their bounds; BHM's cut as far from 0 as a p0 and a
        # target rate can put it
        mean *= math.nextafter(MAX_PRIOR, 0.0)
        if design == "BHM":
            params = BhmParams(0.661, math.nextafter(1.0, 0.0), mean, sd)
            p0 = math.ulp(0.0)
        else:
            params, p0 = ExnexParams(0.661, 0.5, mean, sd, mean, sd), 0.15
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tables, nex, _, log_w = design_tables(design, (3, 10), p0, params)
        assert all(np.isfinite(t).all() for t in tables + nex) and np.isfinite(log_w).all()

    @pytest.mark.parametrize("mu_mean", [1e6, -1e40, math.nextafter(-MAX_PRIOR, 0.0)])
    def test_subnormal_mixture_mass_stays_finite(self, mu_mean):
        # the grid weight peaks where a basket's mixture mass is subnormal; dividing the
        # weight by that mass overflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tails, means = posterior_tails_means("BHM", [(2, 3)], (10, 10),
                                                 BhmParams(phi=0.661, mu_mean=mu_mean), 0.15)
        assert ((0.0 <= tails) & (tails <= 1.0) & (0.0 <= means) & (means <= 1.0)).all()


class TestExnexLimits:
    def test_q_one_matches_bhm_with_zero_offset(self):
        # forced exchangeability plus a 0.5 target (zero offset) is the same model
        bhm = tails_means("BHM", DATA, SIZES,
                          BhmParams(phi=0.661, target_rates=0.5, mu_mean=-1.7346))
        exnex = tails_means("EXNEX", DATA, SIZES, ExnexParams(phi=0.661, q=1.0))
        np.testing.assert_array_equal(exnex[0], bhm[0])
        np.testing.assert_array_equal(exnex[1], bhm[1])


class TestBruteForceOracle:
    @pytest.mark.parametrize("responses,sizes", [
        ((0, 10), (10, 10)),  # r = 0 and r = n
        ((0, 3), (0, 25)),  # an empty basket
        ((2, 7), (10, 25)),
    ])
    @pytest.mark.parametrize("params", [
        BhmParams(phi=0.661, mu_sd=2.0),
        ExnexParams(phi=0.661, q=0.7, mu_sd=2.0, nex_sds=2.0),
    ], ids=["BHM", "EXNEX"])
    def test_two_baskets_match_dense_grid(self, responses, sizes, params):
        design = "BHM" if isinstance(params, BhmParams) else "EXNEX"
        tails, means = tails_means(design, responses, sizes, params)
        want_tails, want_means = brute_force(design, responses, sizes, params)
        np.testing.assert_allclose(tails, want_tails, atol=2e-3)
        np.testing.assert_allclose(means, want_means, atol=2e-3)

    def test_varying_targets_match_dense_grid(self):
        # per-basket offsets put two cuts on the mu grid
        params = BhmParams(phi=0.661, target_rates=(0.3, 0.45), mu_sd=2.0)
        tails, means = design_bank("BHM", [(2, 7)], (10, 25), [], 0.15).tails_means(params)
        want_tails, want_means = brute_force("BHM", (2, 7), (10, 25), params)
        np.testing.assert_allclose(tails[0], want_tails, atol=2e-3)
        np.testing.assert_allclose(means[0], want_means, atol=2e-3)
