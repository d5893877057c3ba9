import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketsim.core import (
    BasketData,
    BetaShape,
    NullRate,
    QuadratureError,
    Scenario,
    beta_log_pdf,
    beta_mean,
    beta_tail,
    integrate,
    log_beta_function,
    validate_weight_matrix,
)

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
        assert d.k == 2
        assert d.basket(0) == (3, 10)

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

    def test_null_rate_default_and_bounds(self):
        assert NullRate().p0 == 0.15
        with pytest.raises(ValueError):
            NullRate(0.0)

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

    def test_weight_matrix_validation(self):
        validate_weight_matrix(np.eye(3))
        with pytest.raises(ValueError):
            validate_weight_matrix(np.full((2, 2), 0.5))  # diagonal not 1
        bad = np.eye(2)
        bad[0, 1] = 1.5
        with pytest.raises(ValueError):
            validate_weight_matrix(bad)


class TestLogBeta:
    def test_b11_is_one(self):
        assert log_beta_function(1, 1) == 0.0

    def test_b23_exact_rational(self):
        # B(2,3) = 1!2!/4! = 1/12 by the factorial identity
        assert log_beta_function(2, 3) == pytest.approx(math.log(1 / 12), abs=1e-12)

    def test_half_half_is_pi(self):
        assert log_beta_function(0.5, 0.5) == pytest.approx(math.log(math.pi), abs=1e-12)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_beta_function(0.0, 1.0)

    @given(a=st.floats(0.01, 500.0), b=st.floats(0.01, 500.0))
    def test_symmetry(self, a, b):
        assert log_beta_function(a, b) == log_beta_function(b, a)


class TestBetaMean:
    @pytest.mark.parametrize(
        "shape,expected",
        [(BetaShape(1, 1), 0.5), (BetaShape(6, 6), 0.5), (BetaShape(7, 5), 7 / 12)],
    )
    def test_closed_form(self, shape, expected):
        assert beta_mean(shape) == pytest.approx(expected, abs=1e-15)


class TestBetaTail:
    def test_uniform(self):
        assert beta_tail(BetaShape(1, 1), 0.15) == pytest.approx(0.85, abs=1e-12)

    def test_endpoints(self):
        for shape in [BetaShape(1, 1), BetaShape(3.7, 0.6), BetaShape(40, 2)]:
            assert beta_tail(shape, 0.0) == 1.0
            assert beta_tail(shape, 1.0) == 0.0

    def test_beta75_frozen_oracle_value(self):
        # frozen from adaptive quadrature of the Beta(7,5) density on (0.15, 1]
        assert beta_tail(BetaShape(7, 5), 0.15) == pytest.approx(
            0.9996781217609864, abs=1e-9
        )

    def test_domain_error(self):
        with pytest.raises(ValueError):
            beta_tail(BetaShape(2, 2), -0.1)
        with pytest.raises(ValueError):
            beta_tail(BetaShape(2, 2), 1.1)

    def test_monotone_nonincreasing(self):
        shape = BetaShape(4.2, 17.0)
        xs = np.linspace(0, 1, 101)
        tails = [beta_tail(shape, x) for x in xs]
        assert all(a >= b for a, b in zip(tails, tails[1:]))

    @settings(max_examples=60, deadline=None)
    @given(shape=shapes, x=st.floats(0.01, 0.99))
    def test_agrees_with_quadrature(self, shape, x):
        assert beta_tail(shape, x) == pytest.approx(
            integrate_beta_density(shape, x, 1.0), abs=1e-8
        )

    @settings(max_examples=40, deadline=None)
    @given(shape=shapes)
    def test_range(self, shape):
        t = beta_tail(shape, 0.37)
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
