import math
import warnings
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketsim.core import (
    BasketData,
    BetaShape,
    ConfigurationError,
)
from basketsim.engine import REGISTRY, DesignConfig, design_bank
from basketsim.fujikawa import jsd_matrices, weights_from_jsd
from basketsim.powerprior import (
    CppParams,
    alpha0_matrix,
    cpp_weights_from_scaled,
    gamma_matrix,
    scaled_ks_matrix,
)
from scalar_reference import (
    EDGE_EPS,
    beta_log_pdf,
    cpp_weight,
    edge_case_banks,
    integrate,
    power_prior_weights,
)


def hellinger_gamma_by_quadrature(d_k, d_i, tol=1e-10):
    """Independent oracle: integrate the squared-Hellinger integrand directly."""
    def powered_shape(r, n, w):
        return BetaShape(w * r + 1.0, w * (n - r) + 1.0)

    r_k, n_k = d_k
    r_i, n_i = d_i
    f = powered_shape(r_k, n_k, min(1.0, n_i / n_k))
    g = powered_shape(r_i, n_i, min(1.0, n_k / n_i))

    def integrand(x):
        sf = np.exp(0.5 * beta_log_pdf(f, x))
        sg = np.exp(0.5 * beta_log_pdf(g, x))
        return 0.5 * (sf - sg) ** 2

    d_sq = integrate(integrand, EDGE_EPS, 1.0 - EDGE_EPS, tol=tol)
    return math.sqrt(min(1.0, max(0.0, d_sq)))


def cpp_pair(d_k, d_i, params):
    """The CPP kernel's weight of basket i in basket k, for one pair of baskets."""
    scaled = scaled_ks_matrix([[d_k[0], d_i[0]]], (d_k[1], d_i[1]))
    return cpp_weights_from_scaled(scaled, params)[0, 0, 1]


def gamma_pair(d_k, d_i):
    """The APP kernel's commensurability of one pair of baskets."""
    return gamma_matrix([[d_k[0], d_i[0]]], (d_k[1], d_i[1]))[0, 0, 1]


def bank_weights(design, responses, sizes, params):
    """The borrowing weights [R, K, K] of a bank kernel under uniform priors."""
    bank = design_bank(design, responses, sizes, BetaShape(1, 1), 0.15)
    return bank.weights(params)


def power_prior_shapes(data, prior, weights):
    """The power-prior posterior step of the bank kernel under a given weight matrix."""
    bank = design_bank("CPP", [data.responses], data.sample_sizes, prior, 0.15)
    alphas, betas = bank.posterior_shapes(np.asarray(weights, dtype=float)[None])
    return [BetaShape(a, b) for a, b in zip(alphas[0].tolist(), betas[0].tolist())]


class TestKsStatistic:
    def test_identical(self):
        assert np.all(scaled_ks_matrix([[3, 3]], (10, 10)) == 0.0)

    def test_rate_difference(self):
        s = scaled_ks_matrix([[6, 2]], (20, 20))[0]
        assert s[0, 1] == s[1, 0] == pytest.approx(20 ** 0.25 * 0.2, abs=1e-15)

    def test_equal_rates_different_sizes(self):
        assert np.all(scaled_ks_matrix([[1, 5]], (10, 50)) == 0.0)


class TestCppWeight:
    def test_identical_data_gives_one(self):
        for params in [CppParams(4, 4.5), CppParams(-3, 0.5), CppParams(0.5, 5)]:
            assert cpp_pair((3, 10), (3, 10), params) == 1.0

    def test_paper_optimal_linear_values(self):
        # high-precision recomputation of 1/(1 + exp(a + b ln S)) as oracle
        getcontext().prec = 50
        s = Decimal(20) ** (Decimal(1) / Decimal(4)) * Decimal("0.2")
        z = Decimal(4) + Decimal("4.5") * s.ln()
        expected = Decimal(1) / (Decimal(1) + z.exp())
        got = cpp_pair((6, 20), (2, 20), CppParams(4, 4.5))
        assert got == pytest.approx(float(expected), abs=1e-12)
        assert round(got, 3) == 0.468

    def test_vanishes_for_huge_statistic(self):
        w = cpp_pair((0, 10 ** 6), (10 ** 6, 10 ** 6), CppParams(4, 4.5))
        assert w < 1e-6
        # b ln s overflows for extreme a and b; it used to warn, and fail under -W error.
        # a is finite, so no weight is nan: each is exactly 0 or 1
        scaled = scaled_ks_matrix([[0, 10 ** 6], [0, 1], [0, 0]], (10 ** 6, 10 ** 6))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            weights = cpp_weights_from_scaled(scaled, CppParams(-1e308, 1e308))
        assert weights[:, 0, 1].tolist() == [0.0, 1.0, 1.0]

    def test_symmetric(self):
        params = CppParams(2.5, 3)
        w = cpp_weights_from_scaled(scaled_ks_matrix([[2, 9]], (10, 20)), params)[0]
        assert w[0, 1] == w[1, 0]

    def test_nonincreasing_in_rate_difference(self):
        params = CppParams(1, 2)
        bank = [[r, 10] for r in range(10, 21)]
        weights = cpp_weights_from_scaled(scaled_ks_matrix(bank, (20, 20)), params)[:, 0, 1]
        assert np.all(np.diff(weights) <= 0.0)

    def test_b_must_be_positive(self):
        with pytest.raises(ValueError):
            CppParams(1.0, 0.0)

    @pytest.mark.parametrize("a, b, field", [(-math.inf, 1.0, "a"), (math.inf, 1.0, "a"),
                                             (math.nan, 1.0, "a"), (1.0, math.inf, "b"),
                                             (1.0, math.nan, "b")])
    def test_non_finite_params_rejected(self, a, b, field):
        # a = -inf gave nan weights (a RuntimeWarning under -W error) and a = nan a beta
        # tail that did not converge: each is refused by name before any weight is formed
        with pytest.raises(ValueError, match=f"^{field} "):
            CppParams(a, b)

    @pytest.mark.parametrize("params", [CppParams(4, 4.5), CppParams(-3, 0.5),
                                        CppParams(0.5, 5), CppParams(800, 0.5)])
    def test_kernel_matches_scalar_reference(self, params):
        sizes = (10, 13, 25, 50)
        for n_k in sizes:
            for n_i in sizes:
                bank = [[r_k, r_i] for r_k in range(n_k + 1) for r_i in range(n_i + 1)]
                weights = cpp_weights_from_scaled(scaled_ks_matrix(bank, (n_k, n_i)), params)
                expected = [cpp_weight((r_k, n_k), (r_i, n_i), params) for r_k, r_i in bank]
                np.testing.assert_allclose(weights[:, 0, 1], expected, rtol=1e-13, atol=0)


class TestAlpha0:
    @pytest.mark.parametrize("n_k,n_i,expected", [(30, 10, 1.0), (10, 50, 0.2), (25, 25, 1.0)])
    def test_cases(self, n_k, n_i, expected):
        assert alpha0_matrix([n_k, n_i])[0, 1] == expected


class TestHellingerGamma:
    def test_identical_data_gives_zero(self):
        assert gamma_pair((4, 12), (4, 12)) == 0.0

    def test_opposite_extremes_near_one(self):
        g = gamma_pair((0, 10), (10, 10))
        assert g > 0.99
        assert g == pytest.approx(hellinger_gamma_by_quadrature((0, 10), (10, 10)), abs=1e-8)

    def test_downgrade_exponent_hits_larger_basket(self):
        # w = 10/20 on the n=20 basket makes both induced shapes Beta(3, 9),
        # so equal observed rates at different sizes are fully commensurate
        g = gamma_pair((4, 20), (2, 10))
        assert g == pytest.approx(0.0, abs=1e-7)
        assert g == pytest.approx(hellinger_gamma_by_quadrature((4, 20), (2, 10)), abs=1e-8)

    def test_equal_downgraded_shapes_give_exactly_zero(self):
        # 5/77 * 77 is not 5 in floating point; (77 * 5) / 77 is
        assert np.all(gamma_matrix([[0, 0]], [5, 77]) == 0.0)
        assert np.all(gamma_matrix([[0, 0]], [77, 5]) == 0.0)

    def test_symmetric(self):
        assert gamma_pair((3, 15), (9, 30)) == pytest.approx(
            gamma_pair((9, 30), (3, 15)), abs=1e-15
        )

    @settings(max_examples=80, deadline=None)
    @given(
        n_k=st.integers(5, 100),
        n_i=st.integers(5, 100),
        r_frac_k=st.floats(0, 1),
        r_frac_i=st.floats(0, 1),
    )
    def test_closed_form_matches_quadrature(self, n_k, n_i, r_frac_k, r_frac_i):
        d_k = (round(r_frac_k * n_k), n_k)
        d_i = (round(r_frac_i * n_i), n_i)
        assert gamma_pair(d_k, d_i) == pytest.approx(
            hellinger_gamma_by_quadrature(d_k, d_i), abs=1e-8
        )


class TestBuildWeights:
    def test_app_identical_baskets_all_ones(self):
        w = bank_weights("APP", [[3, 3, 3]], (12, 12, 12), None)
        assert np.all(w == 1.0)

    def test_lcpp_quantity_limit(self):
        # equal observed rates
        w = bank_weights("LCPP", [[2, 10]], (10, 50), CppParams(3, 4))[0]
        assert w[0, 1] == pytest.approx(0.2, abs=1e-12)
        assert w[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_cpp_symmetric_app_lcpp_asymmetric(self):
        params = CppParams(2, 3)
        bank = [[r1, r2] for r1 in range(11) for r2 in range(21)]
        cpp = bank_weights("CPP", bank, (10, 20), params)
        app = bank_weights("APP", bank, (10, 20), None)
        lcpp = bank_weights("LCPP", bank, (10, 20), params)
        assert np.array_equal(cpp[:, 0, 1], cpp[:, 1, 0])
        assert np.any(app[:, 0, 1] != app[:, 1, 0])
        assert np.any(lcpp[:, 0, 1] != lcpp[:, 1, 0])
        for m in (cpp, app, lcpp):
            assert np.all(m[:, [0, 1], [0, 1]] == 1.0)
            assert np.all((m >= 0.0) & (m <= 1.0))
        for m in (app, lcpp):
            assert np.all(m[:, 0, 1] <= min(1.0, 10 / 20) + 1e-15)

    def test_missing_params_rejected(self):
        for variant, params in (("CPP", None), ("LCPP", None), ("APP", CppParams(1, 1))):
            with pytest.raises(ConfigurationError):
                DesignConfig(variant, params)

    @pytest.mark.parametrize("prior", [BetaShape(1, 1), BetaShape(0.5, 2.5), BetaShape(2, 3)])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_bank_weights_match_reference(self, k, prior):
        # each variant rebuilt from its statistics, and Fujikawa's from the JSD of the
        # basket-wise posteriors, for every bank, every row alone and the bank shuffled
        for rows, sizes in edge_case_banks(k):
            shuffle = np.random.default_rng(k).permutation(len(rows))
            n = np.array(sizes)
            jsd = jsd_matrices(prior.alpha + rows, prior.beta + (n - rows))
            for design in ("APP", "CPP", "LCPP", "Fujikawa"):
                banks = [design_bank(design, bank_rows, sizes, prior, 0.15)
                         for bank_rows in [rows, rows[shuffle]] + [[row] for row in rows]]
                for params in REGISTRY[design].grid:
                    expected = (weights_from_jsd(jsd, params) if design == "Fujikawa" else
                                power_prior_weights(design, rows, n, params)).view(np.int64)
                    got = [bank.weights(params).view(np.int64) for bank in banks]
                    np.testing.assert_array_equal(got[0], expected)
                    np.testing.assert_array_equal(got[1], expected[shuffle])
                    np.testing.assert_array_equal(np.concatenate(got[2:]), expected)


class TestPowerPriorPosterior:
    """The weighted-sum step of a bank's ``posterior_shapes`` for CPP, APP and LCPP."""

    def test_identity_weights_give_stratified_analysis(self):
        data = BasketData((3, 7, 0), (10, 20, 5))
        for prior in [BetaShape(1, 1), BetaShape(2, 3), BetaShape(0.5, 0.5)]:
            post = power_prior_shapes(data, prior, np.eye(3))
            for k, shape in enumerate(post):
                r, n = data.responses[k], data.sample_sizes[k]
                assert shape.alpha == prior.alpha + r  # bit-identical
                assert shape.beta == prior.beta + (n - r)

    def test_all_ones_weights_pool(self):
        data = BasketData((3, 7, 2), (10, 20, 5))
        post = power_prior_shapes(data, BetaShape(1, 1), np.ones((3, 3)))
        total_r = sum(data.responses)
        total_miss = sum(n - r for r, n in zip(data.responses, data.sample_sizes))
        for shape in post:
            assert shape.alpha == pytest.approx(1 + total_r, abs=1e-12)
            assert shape.beta == pytest.approx(1 + total_miss, abs=1e-12)

    def test_hand_worked_example(self):
        data = BasketData((3, 4), (10, 10))
        w = np.array([[1.0, 0.5], [0.5, 1.0]])
        post = power_prior_shapes(data, BetaShape(1, 1), w)
        assert post[0].alpha == pytest.approx(6.0, abs=1e-12)
        assert post[0].beta == pytest.approx(11.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        data = BasketData((3, 4), (10, 10))
        with pytest.raises(ValueError):
            power_prior_shapes(data, BetaShape(1, 1), np.eye(3))

    @settings(max_examples=60, deadline=None)
    @given(
        r1=st.integers(0, 10), r2=st.integers(0, 20), r3=st.integers(0, 15),
        w=st.floats(0, 1),
    )
    def test_total_shape_mass(self, r1, r2, r3, w):
        data = BasketData((r1, r2, r3), (10, 20, 15))
        matrix = np.full((3, 3), w)
        np.fill_diagonal(matrix, 1.0)
        post = power_prior_shapes(data, BetaShape(1, 1), matrix)
        n = np.asarray(data.sample_sizes, dtype=float)
        for k, shape in enumerate(post):
            expected = 2.0 + float(matrix[k] @ n)
            assert shape.alpha + shape.beta == pytest.approx(expected, rel=1e-12)
