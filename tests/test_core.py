import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from basketsim.core import (
    BasketData,
    BetaShape,
    NumericError,
    Scenario,
    beta_tails,
    log_beta,
    unique_rows,
)
from basketsim.engine import DesignConfig, run_design
from basketsim.fujikawa import FujikawaParams
from scalar_reference import QuadratureError, beta_log_pdf, integrate

def integrate_beta_density(shape, lo=0.0, hi=1.0, tol=1e-8):
    """Quadrature oracle: the integral of a beta density over [lo, hi].

    Nodes are strictly interior, so a density unbounded at 0 is handled by
    refinement alone.  A density unbounded at 1 is integrated in reflected
    coordinates (where floats resolve the endpoint), using the mirror
    identity between Beta(a, b) at 1-y and Beta(b, a) at y.
    """
    def density(x):
        return np.exp(beta_log_pdf(shape, x))

    if shape.beta >= 1.0 or hi <= 0.5:
        return integrate(density, lo, hi, tol=tol)
    mirrored = BetaShape(shape.beta, shape.alpha)

    def mirrored_density(y):
        return np.exp(beta_log_pdf(mirrored, y))

    cut = max(lo, 0.5)
    upper = integrate(mirrored_density, 1.0 - hi, 1.0 - cut, tol=0.5 * tol)
    if lo >= 0.5:
        return upper
    return integrate(density, lo, cut, tol=0.5 * tol) + upper


shapes = st.builds(
    BetaShape,
    alpha=st.floats(0.5, 200.0),
    beta=st.floats(0.5, 200.0),
)


class TestDomainTypes:
    def test_basket_data_valid(self):
        d = BasketData((3, 0), (10, 5))
        assert len(d.responses) == 2
        assert (d.responses[0], d.sample_sizes[0]) == (3, 10)

    def test_basket_data_rejects_single_basket(self):
        with pytest.raises(ValueError):
            BasketData((3,), (10,))

    def test_basket_data_rejects_excess_responses(self):
        with pytest.raises(ValueError):
            BasketData((11, 0), (10, 5))

    def test_basket_data_allows_empty_basket(self):
        assert BasketData((0, 2), (0, 5)).sample_sizes[0] == 0

    def test_beta_shape_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            BetaShape(0.0, 1.0)
        with pytest.raises(ValueError):
            BetaShape(1.0, -2.0)

    def test_scenario_validation(self):
        s = Scenario(1, (10, 15), (0.15, 0.35), "Null", "Linear")
        assert s.k == 2
        assert s.active_truth(0.15) == (False, True)
        with pytest.raises(ValueError):
            Scenario(1, (10, 15), (0.15, 1.2), "Null", "Linear")
        with pytest.raises(ValueError):
            Scenario(1, (10, 15), (0.15, 0.35), "Weird", "Linear")

    def test_scenario_fixed_responses_checked(self):
        with pytest.raises(ValueError):
            Scenario(1, (10, 15), (0.15, 0.35), "Null", "Linear",
                     fixed_responses=(11, 0))


class TestLogBeta:
    def test_b11_is_one(self):
        assert log_beta(1, 1) == 0.0

    def test_b23_exact_rational(self):
        # B(2,3) = 1!2!/4! = 1/12 by the factorial identity
        assert log_beta(2, 3) == pytest.approx(math.log(1 / 12), abs=1e-12)

    def test_half_half_is_pi(self):
        assert log_beta(0.5, 0.5) == pytest.approx(math.log(math.pi), abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_beta(0.0, 1.0)

    @given(a=st.floats(0.01, 500.0), b=st.floats(0.01, 500.0))
    def test_symmetry(self, a, b):
        assert log_beta(a, b) == log_beta(b, a)

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(1e-3, 500.0), b=st.floats(1e-3, 500.0))
    def test_scalar_and_array_paths_agree_bitwise(self, a, b):
        def scalar(u, v):
            return math.lgamma(u) + math.lgamma(v) - math.lgamma(u + v)

        grid = np.array([a, b, 1.0, 7.5])
        assert log_beta(a, b) == scalar(a, b)
        assert log_beta(grid, grid[::-1]).tolist() == [
            scalar(u, v) for u, v in zip(grid.tolist(), grid[::-1].tolist())]


class TestBetaMean:
    @pytest.mark.parametrize(
        "shape,expected",
        [(BetaShape(1, 1), 0.5), (BetaShape(6, 6), 0.5), (BetaShape(7, 5), 7 / 12)],
    )
    def test_closed_form(self, shape, expected):
        # the posterior mean a design reports, here without borrowing (tau = 1) from a
        # Beta(1, 1) prior, so that the shape is Beta(1 + r, 1 + n - r)
        r, n = shape.alpha - 1, shape.alpha + shape.beta - 2
        config = DesignConfig("Fujikawa", FujikawaParams(1.0, 1.0), lambda_=0.9)
        res = run_design(config, BasketData((int(r), 0), (int(n), 0)))
        assert res.posterior_means[0] == pytest.approx(expected, abs=1e-15)


class TestBetaTail:
    def test_uniform(self):
        assert beta_tails(1.0, 1.0, 0.15) == pytest.approx(0.85, abs=1e-12)

    def test_endpoints(self):
        for a, b in [(1.0, 1.0), (3.7, 0.6), (40.0, 2.0)]:
            assert beta_tails(a, b, 0.0) == 1.0
            assert beta_tails(a, b, 1.0) == 0.0
        a, b = np.geomspace(1e-3, 5000.0, 40), np.geomspace(5000.0, 1e-3, 40)
        assert (beta_tails(a, b, 0.0) == 1.0).all() and (beta_tails(a, b, 1.0) == 0.0).all()

    def test_beta75_frozen_oracle_value(self):
        # frozen from adaptive quadrature of the Beta(7,5) density on (0.15, 1]
        assert beta_tails(7.0, 5.0, 0.15) == pytest.approx(
            0.9996781217609864, abs=1e-9
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            beta_tails(2.0, 2.0, -0.1)
        with pytest.raises(ValueError):
            beta_tails(2.0, 2.0, 1.1)

    def test_monotone_nonincreasing(self):
        xs = np.linspace(0, 1, 101)
        tails = [float(beta_tails(4.2, 17.0, x)) for x in xs]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    @settings(max_examples=60, deadline=None)
    @given(shape=shapes, x=st.floats(0.01, 0.99))
    def test_agrees_with_quadrature(self, shape, x):
        assert beta_tails(shape.alpha, shape.beta, x) == pytest.approx(
            integrate_beta_density(shape, x, 1.0), abs=1e-8
        )

    @pytest.mark.parametrize("hi,tol", [(500.0, 1e-12), (5000.0, 5e-11)])
    @pytest.mark.parametrize("x", [0.15, 0.5, 0.9])
    def test_agrees_with_scipy_on_a_grid(self, x, hi, tol):
        values = np.geomspace(1e-3, hi, 121)
        a, b = np.meshgrid(values, values)
        assert np.abs(beta_tails(a, b, x) - special.betaincc(a, b, x)).max() <= tol

    @settings(max_examples=200, deadline=None)
    @given(a=st.floats(1e-3, 500.0), b=st.floats(1e-3, 500.0),
           x=st.sampled_from([0.15, 0.5, 0.9]))
    def test_agrees_with_scipy(self, a, b, x):
        assert abs(beta_tails(a, b, x) - special.betaincc(a, b, x)) <= 1e-12

    @pytest.mark.parametrize("a,b", [(1e9, 1e9), (np.nan, 2.0), (2.0, np.inf)])
    def test_unconverged_fraction_is_a_numeric_error(self, a, b):
        with np.errstate(invalid="ignore"), pytest.raises(NumericError):
            beta_tails(np.array([2.0, a]), np.array([3.0, b]), 0.5)

    def test_bank_of_one_equals_its_bank_row(self):
        # each shape converges on its own, so neighbours and duplicates change no bit
        rng = np.random.default_rng(7)
        a = np.round(rng.uniform(1.0, 80.0, (300, 5)), 1)
        b = np.round(rng.uniform(1.0, 80.0, (300, 5)), 1)
        for x in (0.15, 0.5, 0.9):
            bank = beta_tails(a, b, x)
            assert bank.shape == a.shape
            assert all(beta_tails(u, v, x) == t
                       for u, v, t in zip(a.ravel(), b.ravel(), bank.ravel()))

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes)
    def test_range(self, shape):
        t = beta_tails(shape.alpha, shape.beta, 0.37)
        assert 0.0 <= t <= 1.0


class TestIntegrate:
    def test_constant(self):
        assert integrate(lambda x: np.ones_like(x), 0, 1) == pytest.approx(1.0, abs=1e-10)

    def test_identity(self):
        assert integrate(lambda x: x, 0, 1) == pytest.approx(0.5, abs=1e-10)

    def test_beta_density_normalizes(self):
        assert integrate_beta_density(BetaShape(2, 5)) == pytest.approx(1.0, abs=1e-8)

    @settings(max_examples=25, deadline=None)
    @given(shape=shapes)
    def test_any_beta_density_normalizes(self, shape):
        assert integrate_beta_density(shape) == pytest.approx(1.0, abs=1e-8)

    def test_bad_bounds(self):
        with pytest.raises(ValueError):
            integrate(lambda x: x, 1.0, 0.0)

    def test_budget_exhaustion_carries_partial(self):
        # an integrand rough far beyond any 8-interval refinement
        def nasty(x):
            return np.sin(1.0 / (x + 1e-9))

        with pytest.raises(QuadratureError) as exc:
            integrate(nasty, 0.0, 1.0, tol=1e-12, max_subintervals=8)
        assert math.isfinite(exc.value.partial)

    def test_batch_bits_match_each_integral_alone(self):
        # each integral keeps its own intervals, so its bits ignore the batch around it
        scales = np.array([0.5, 3.0, 40.0, 7.0, 0.5])
        lo, hi = np.array([0.0, 0.2, 0.0, 1.0, 0.0]), np.array([1.0, 0.9, 1.0, 4.0, 1.0])

        def batch(x, which):
            return np.sin(scales[which, None] * x) / (1.0 + x)

        values = integrate(batch, lo, hi, tol=1e-10)
        assert values.shape == (5,) and values[0] == values[4]
        for i in range(5):
            def one(x):
                return np.sin(scales[i] * x) / (1.0 + x)

            assert values[i] == integrate(one, lo[i], hi[i], tol=1e-10)

    def test_starved_batch_carries_the_failing_partial(self):
        def nasty(x):
            return np.sin(1.0 / (x + 1e-9))

        with pytest.raises(QuadratureError) as alone:
            integrate(nasty, 0.0, 1.0, tol=1e-12, max_subintervals=8)

        def batch(x, which):
            return np.where(which[:, None] == 1, nasty(x), 2.0)

        with pytest.raises(QuadratureError) as exc:
            integrate(batch, np.zeros(3), np.ones(3), tol=1e-12, max_subintervals=8)
        assert exc.value.partial == alone.value.partial


class TestUniqueRows:
    @pytest.mark.parametrize("k", [2, 5])
    @pytest.mark.parametrize("size", [1, 2, 7, 60])
    def test_matches_numpy_unique(self, k, size):
        rng = np.random.default_rng(100 * k + size)
        bank = rng.integers(0, 4, (size, k))
        bank = np.concatenate([bank, bank[rng.integers(0, size, size)]])  # duplicates
        rows, inverse = unique_rows(bank)
        expected, expected_inverse = np.unique(bank, axis=0, return_inverse=True)
        np.testing.assert_array_equal(rows, expected)
        np.testing.assert_array_equal(inverse, expected_inverse.ravel())
        np.testing.assert_array_equal(rows[inverse], bank)

    def test_float_rows(self):
        pairs = np.array([[2.0, 9.0, 5.0, 7.0], [1.0, 1.0, 3.0, 3.0], [2.0, 9.0, 5.0, 7.0]])
        rows, inverse = unique_rows(pairs)
        np.testing.assert_array_equal(rows, pairs[1::-1])
        assert inverse.tolist() == [1, 0, 1]
