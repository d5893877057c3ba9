import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketsim.core import EDGE_EPS, BasketData, BetaShape, beta_log_pdf
from basketsim.fujikawa import (
    FujikawaParams,
    _jsd_integrand,
    fujikawa_posterior,
    fujikawa_weights,
    individual_posteriors,
    jsd,
    jsd_matrices,
    jsd_matrix,
    weights_from_jsd,
)
from basketsim.powerprior import power_prior_posterior

shapes = st.builds(
    BetaShape,
    alpha=st.floats(0.5, 200.0),
    beta=st.floats(0.5, 200.0),
)


def jsd_riemann(f, g, points=10 ** 6):
    """Fine-grid midpoint-rule oracle for the base-2 JSD."""
    xs = (np.arange(points) + 0.5) / points
    w = np.exp(beta_log_pdf(f, xs))
    q = np.exp(beta_log_pdf(g, xs))
    m = 0.5 * (w + q)

    def half(density):
        # ratios that underflow contribute at most ~1e-297 and are dropped
        ratio = np.divide(density, m, out=np.ones_like(m), where=m > 0)
        ratio[ratio <= 0.0] = 1.0
        return density * np.log2(ratio)

    return 0.5 * (half(w).sum() + half(q).sum()) / points


class TestIndividualPosteriors:
    def test_no_data_returns_prior(self):
        data = BasketData((0, 0), (0, 0))
        post = individual_posteriors(data, [BetaShape(1, 1)] * 2)
        assert post == [BetaShape(1, 1), BetaShape(1, 1)]

    def test_conjugate_update(self):
        data = BasketData((5, 2), (10, 30))
        post = individual_posteriors(data, [BetaShape(1, 1), BetaShape(2, 3)])
        assert post[0] == BetaShape(6, 6)
        assert post[1] == BetaShape(4, 31)


class TestJsd:
    def test_identical_is_zero(self):
        assert jsd(BetaShape(6, 6), BetaShape(6, 6)) == 0.0

    @settings(max_examples=40, deadline=None)
    @given(f=shapes, g=shapes)
    def test_symmetry_and_range(self, f, g):
        v = jsd(f, g)
        assert v == jsd(g, f)
        assert 0.0 <= v <= 1.0

    def test_disjoint_mass_near_one(self):
        f, g = BetaShape(1, 100), BetaShape(100, 1)
        v = jsd(f, g)
        assert v > 0.999
        assert v == pytest.approx(jsd_riemann(f, g), abs=1e-5)

    def test_agrees_with_riemann_oracle(self):
        f, g = BetaShape(4, 8), BetaShape(9, 3)
        assert jsd(f, g) == pytest.approx(jsd_riemann(f, g), abs=1e-6)

    def test_zero_iff_equal(self):
        assert jsd(BetaShape(3, 5), BetaShape(3.2, 5)) > 1e-6

    @settings(max_examples=200, deadline=None)
    @given(f=shapes, g=shapes)
    def test_integrand_bitwise_symmetric(self, f, g):
        # integrate() sees the same values in either order, so jsd(f, g) and
        # jsd(g, f) share bits and the memo may key pairs in sorted order
        xs = np.linspace(EDGE_EPS, 1.0 - EDGE_EPS, 4001)
        np.testing.assert_array_equal(_jsd_integrand(f, g)(xs), _jsd_integrand(g, f)(xs))


class TestJsdMatrices:
    def test_memo_returns_the_bits_of_a_fresh_quadrature(self):
        rng = np.random.default_rng(4)
        sizes = np.array([10, 10, 25, 25, 30])
        responses = rng.binomial(sizes, 0.3, size=(30, 5))
        alphas, betas = 1.0 + responses, 1.0 + sizes - responses
        memo = jsd_matrices(alphas, betas)
        again = jsd_matrices(alphas, betas)
        np.testing.assert_array_equal(memo, again)
        for row in range(30):
            for a in range(5):
                for b in range(5):
                    if a == b:
                        continue
                    fresh = jsd(BetaShape(alphas[row, a], betas[row, a]),
                                BetaShape(alphas[row, b], betas[row, b]))
                    assert memo[row, a, b] == fresh

    def test_bank_rows_match_single_matrices(self):
        post = [[BetaShape(2, 9), BetaShape(5, 7), BetaShape(1, 1)],
                [BetaShape(5, 7), BetaShape(2, 9), BetaShape(3, 3)]]
        alphas = [[p.alpha for p in row] for row in post]
        betas = [[p.beta for p in row] for row in post]
        bank = jsd_matrices(alphas, betas)
        for row, matrix in zip(post, bank):
            np.testing.assert_array_equal(jsd_matrix(row), matrix)

    def test_tolerance_is_part_of_the_key(self):
        f, g = BetaShape(4, 8), BetaShape(9, 3)
        loose = jsd_matrices([[4, 9]], [[8, 3]], tol=1e-3)[0, 0, 1]
        assert loose == jsd(f, g, tol=1e-3)
        assert jsd_matrices([[4, 9]], [[8, 3]])[0, 0, 1] == jsd(f, g)


class TestFujikawaWeights:
    def test_identical_posteriors_weight_one(self):
        post = [BetaShape(4, 8)] * 3
        w = fujikawa_weights(post, FujikawaParams(epsilon=2, tau=0.5))
        assert np.all(w == 1.0)

    def test_exact_tau_boundary_drops_to_zero(self):
        post = [BetaShape(4, 8), BetaShape(6, 6)]
        params = FujikawaParams(epsilon=1.5, tau=0.0)
        base = fujikawa_weights(post, params)[0, 1]
        assert base > 0.0
        clipped = fujikawa_weights(post, FujikawaParams(epsilon=1.5, tau=base))
        assert clipped[0, 1] == 0.0

    def test_weight_monotone_in_jsd(self):
        params = FujikawaParams(epsilon=2.5, tau=0.2)
        jsds = np.linspace(0, 1, 21)
        mats = [np.array([[0.0, j], [j, 0.0]]) for j in jsds]
        weights = [weights_from_jsd(m, params)[0, 1] for m in mats]
        assert all(a >= b for a, b in zip(weights, weights[1:]))
        assert all(0.0 <= w <= 1.0 for w in weights)

    def test_jsd_matrix_symmetric_unit_free_diagonal(self):
        post = [BetaShape(2, 9), BetaShape(5, 7), BetaShape(1, 1)]
        m = jsd_matrix(post)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)


class TestFujikawaPosterior:
    def test_identity_weights_match_individual_bitwise(self):
        data = BasketData((3, 7, 0), (10, 20, 5))
        priors = [BetaShape(1, 1), BetaShape(2, 3), BetaShape(0.5, 0.5)]
        post = fujikawa_posterior(data, priors, np.eye(3))
        assert post == individual_posteriors(data, priors)

    def test_all_ones_weights_pool_including_priors(self):
        data = BasketData((2, 3, 1, 0, 4), (10, 15, 20, 25, 30))
        post = fujikawa_posterior(data, [BetaShape(1, 1)] * 5, np.ones((5, 5)))
        total_r = sum(data.responses)
        total_miss = sum(n - r for r, n in zip(data.responses, data.sample_sizes))
        for shape in post:
            assert shape.alpha == pytest.approx(5 + total_r, abs=1e-12)
            assert shape.beta == pytest.approx(5 + total_miss, abs=1e-12)

    def test_hand_worked_example(self):
        data = BasketData((3, 4), (10, 10))
        w = np.array([[1.0, 0.5], [0.5, 1.0]])
        post = fujikawa_posterior(data, [BetaShape(1, 1)] * 2, w)
        assert post[0].alpha == pytest.approx(6.5, abs=1e-12)
        assert post[0].beta == pytest.approx(11.5, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        r1=st.integers(0, 10), r2=st.integers(0, 20), r3=st.integers(0, 15),
        w=st.floats(0.0, 1.0),
    )
    def test_prior_sharing_excess_over_power_prior(self, r1, r2, r3, w):
        # with Beta(1,1) priors and equal weights the shapes exceed the
        # power-prior ones by exactly the borrowed prior mass
        data = BasketData((r1, r2, r3), (10, 20, 15))
        matrix = np.full((3, 3), w)
        np.fill_diagonal(matrix, 1.0)
        priors = [BetaShape(1, 1)] * 3
        fuji = fujikawa_posterior(data, priors, matrix)
        power = power_prior_posterior(data, matrix, priors)
        for f, p in zip(fuji, power):
            assert f.alpha - p.alpha == pytest.approx(2 * w, abs=1e-9)
            assert f.beta - p.beta == pytest.approx(2 * w, abs=1e-9)
