import math
from decimal import Decimal, getcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketsim.core import (
    BasketData,
    BetaShape,
    ConfigurationError,
    EDGE_EPS,
    beta_log_pdf,
    integrate,
)
from basketsim.powerprior import (
    CppParams,
    alpha0,
    build_weights,
    cpp_weight,
    gamma_matrix,
    hellinger_gamma,
    ks_statistic,
    power_prior_posterior,
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


class TestKsStatistic:
    def test_identical(self):
        assert ks_statistic((3, 10), (3, 10)) == 0.0

    def test_rate_difference(self):
        assert ks_statistic((6, 20), (2, 20)) == pytest.approx(0.2, abs=1e-15)

    def test_equal_rates_different_sizes(self):
        assert ks_statistic((1, 10), (5, 50)) == 0.0

    def test_empty_basket_rejected(self):
        with pytest.raises(ValueError):
            ks_statistic((0, 0), (3, 10))


class TestCppWeight:
    def test_identical_data_gives_one(self):
        for params in [CppParams(4, 4.5), CppParams(-3, 0.5), CppParams(0.5, 5)]:
            assert cpp_weight((3, 10), (3, 10), params) == 1.0

    def test_paper_optimal_linear_values(self):
        # high-precision recomputation of 1/(1 + exp(a + b ln S)) as oracle
        getcontext().prec = 50
        s = Decimal(20) ** (Decimal(1) / Decimal(4)) * Decimal("0.2")
        z = Decimal(4) + Decimal("4.5") * s.ln()
        expected = Decimal(1) / (Decimal(1) + z.exp())
        got = cpp_weight((6, 20), (2, 20), CppParams(4, 4.5))
        assert got == pytest.approx(float(expected), abs=1e-12)
        assert round(got, 3) == 0.468

    def test_vanishes_for_huge_statistic(self):
        w = cpp_weight((0, 10 ** 6), (10 ** 6, 10 ** 6), CppParams(4, 4.5))
        assert w < 1e-6

    def test_symmetric(self):
        params = CppParams(2.5, 3)
        assert cpp_weight((2, 10), (9, 20), params) == cpp_weight((9, 20), (2, 10), params)

    def test_nonincreasing_in_rate_difference(self):
        params = CppParams(1, 2)
        weights = [cpp_weight((r, 20), (10, 20), params) for r in range(10, 21)]
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_b_must_be_positive(self):
        with pytest.raises(ValueError):
            CppParams(1.0, 0.0)


class TestAlpha0:
    @pytest.mark.parametrize("n_k,n_i,expected", [(30, 10, 1.0), (10, 50, 0.2), (25, 25, 1.0)])
    def test_cases(self, n_k, n_i, expected):
        assert alpha0(n_k, n_i) == expected


class TestHellingerGamma:
    def test_identical_data_gives_zero(self):
        assert hellinger_gamma((4, 12), (4, 12)) == 0.0

    def test_opposite_extremes_near_one(self):
        g = hellinger_gamma((0, 10), (10, 10))
        assert g > 0.99
        assert g == pytest.approx(hellinger_gamma_by_quadrature((0, 10), (10, 10)), abs=1e-8)

    def test_downgrade_exponent_hits_larger_basket(self):
        # w = 10/20 on the n=20 basket makes both induced shapes Beta(3, 9),
        # so equal observed rates at different sizes are fully commensurate
        g = hellinger_gamma((4, 20), (2, 10))
        assert g == pytest.approx(0.0, abs=1e-7)
        assert g == pytest.approx(hellinger_gamma_by_quadrature((4, 20), (2, 10)), abs=1e-8)

    def test_equal_downgraded_shapes_give_exactly_zero(self):
        # 5/77 * 77 is not 5 in floating point; (77 * 5) / 77 is
        assert hellinger_gamma((0, 5), (0, 77)) == 0.0
        assert hellinger_gamma((0, 77), (0, 5)) == 0.0
        assert np.all(gamma_matrix([[0, 0]], [5, 77]) == 0.0)

    def test_symmetric(self):
        assert hellinger_gamma((3, 15), (9, 30)) == pytest.approx(
            hellinger_gamma((9, 30), (3, 15)), abs=1e-15
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
        assert hellinger_gamma(d_k, d_i) == pytest.approx(
            hellinger_gamma_by_quadrature(d_k, d_i), abs=1e-8
        )


class TestBuildWeights:
    def test_app_identical_baskets_all_ones(self):
        data = BasketData((3, 3, 3), (12, 12, 12))
        w = build_weights(data, "APP")
        assert np.all(w.matrix == 1.0)

    def test_lcpp_quantity_limit(self):
        data = BasketData((2, 10), (10, 50))  # equal observed rates
        w = build_weights(data, "LCPP", CppParams(3, 4))
        assert w.matrix[0, 1] == pytest.approx(0.2, abs=1e-12)
        assert w.matrix[1, 0] == pytest.approx(1.0, abs=1e-12)

    def test_cpp_symmetric_app_lcpp_asymmetric(self):
        params = CppParams(2, 3)
        asym_app = asym_lcpp = False
        for r1 in range(11):
            for r2 in range(21):
                data = BasketData((r1, r2), (10, 20))
                cpp = build_weights(data, "CPP", params).matrix
                assert cpp[0, 1] == cpp[1, 0]
                app = build_weights(data, "APP").matrix
                lcpp = build_weights(data, "LCPP", params).matrix
                asym_app |= app[0, 1] != app[1, 0]
                asym_lcpp |= lcpp[0, 1] != lcpp[1, 0]
                for m in (cpp, app, lcpp):
                    assert np.all(np.diag(m) == 1.0)
                    assert np.all((m >= 0.0) & (m <= 1.0))
                for m in (app, lcpp):
                    assert m[0, 1] <= min(1.0, 10 / 20) + 1e-15
        assert asym_app and asym_lcpp

    def test_missing_params_rejected(self):
        data = BasketData((1, 2), (10, 10))
        with pytest.raises(ConfigurationError):
            build_weights(data, "CPP")
        with pytest.raises(ConfigurationError):
            build_weights(data, "LCPP")
        with pytest.raises(ConfigurationError):
            build_weights(data, "APP", CppParams(1, 1))

    def test_unknown_variant_rejected(self):
        with pytest.raises(ConfigurationError):
            build_weights(BasketData((1, 2), (10, 10)), "XPP")


class TestPowerPriorPosterior:
    def test_identity_weights_give_stratified_analysis(self):
        data = BasketData((3, 7, 0), (10, 20, 5))
        priors = [BetaShape(1, 1), BetaShape(2, 3), BetaShape(0.5, 0.5)]
        post = power_prior_posterior(data, np.eye(3), priors)
        for k, (shape, prior) in enumerate(zip(post, priors)):
            r, n = data.basket(k)
            assert shape.alpha == prior.alpha + r  # bit-identical
            assert shape.beta == prior.beta + (n - r)

    def test_all_ones_weights_pool(self):
        data = BasketData((3, 7, 2), (10, 20, 5))
        post = power_prior_posterior(data, np.ones((3, 3)), [BetaShape(1, 1)] * 3)
        total_r = sum(data.responses)
        total_miss = sum(n - r for r, n in zip(data.responses, data.sample_sizes))
        for shape in post:
            assert shape.alpha == pytest.approx(1 + total_r, abs=1e-12)
            assert shape.beta == pytest.approx(1 + total_miss, abs=1e-12)

    def test_hand_worked_example(self):
        data = BasketData((3, 4), (10, 10))
        w = np.array([[1.0, 0.5], [0.5, 1.0]])
        post = power_prior_posterior(data, w, [BetaShape(1, 1)] * 2)
        assert post[0].alpha == pytest.approx(6.0, abs=1e-12)
        assert post[0].beta == pytest.approx(11.0, abs=1e-12)

    def test_dimension_mismatch_rejected(self):
        data = BasketData((3, 4), (10, 10))
        with pytest.raises(ConfigurationError):
            power_prior_posterior(data, np.eye(3), [BetaShape(1, 1)] * 2)
        with pytest.raises(ConfigurationError):
            power_prior_posterior(data, np.eye(2), [BetaShape(1, 1)] * 3)

    @settings(max_examples=60, deadline=None)
    @given(
        r1=st.integers(0, 10), r2=st.integers(0, 20), r3=st.integers(0, 15),
        w=st.floats(0, 1),
    )
    def test_total_shape_mass(self, r1, r2, r3, w):
        data = BasketData((r1, r2, r3), (10, 20, 15))
        matrix = np.full((3, 3), w)
        np.fill_diagonal(matrix, 1.0)
        priors = [BetaShape(1, 1)] * 3
        post = power_prior_posterior(data, matrix, priors)
        n = np.asarray(data.sample_sizes, dtype=float)
        for k, shape in enumerate(post):
            expected = 2.0 + float(matrix[k] @ n)
            assert shape.alpha + shape.beta == pytest.approx(expected, rel=1e-12)
