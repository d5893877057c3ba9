import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special

from basketsim.core import BasketData, BetaShape, NumericError, beta_tails, unique_rows
from basketsim.engine import DesignConfig, design_bank, run_design
from basketsim.fujikawa import (
    FujikawaParams,
    _jsd_integrand,
    _pair_jsds,
    _rule_keys,
    jsd_matrices,
    weights_from_jsd,
)
from scalar_reference import beta_log_pdf

shapes = st.builds(
    BetaShape,
    alpha=st.floats(0.5, 200.0),
    beta=st.floats(0.5, 200.0),
)
small_shapes = st.builds(BetaShape, alpha=st.floats(0.001, 1.5), beta=st.floats(0.001, 1.5))


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


def jsd_quad(f, g):
    """scipy.integrate.quad oracle for the base-2 JSD over (0, 1), for shapes of at
    least 0.5: a density unbounded at an edge is integrable there, and quad's nodes
    are interior."""
    cf, cg = special.betaln(f.alpha, f.beta), special.betaln(g.alpha, g.beta)

    def integrand(lx, l1x):
        lw = (f.alpha - 1) * lx + (f.beta - 1) * l1x - cf
        lq = (g.alpha - 1) * lx + (g.beta - 1) * l1x - cg
        lm = np.logaddexp(lw, lq) - math.log(2.0)
        return 0.5 * (math.exp(lw) * (lw - lm) + math.exp(lq) * (lq - lm))

    # pieces shrink geometrically towards each edge, and the upper half runs in
    # t = 1 - x, where floats resolve the edge, so quad meets no rough stretch
    cuts = [0.0, 1e-12, 1e-9, 1e-6, 1e-3, 0.5]
    halves = [lambda t: integrand(math.log(t), math.log1p(-t)),
              lambda t: integrand(math.log1p(-t), math.log(t))]
    return math.fsum(integrate.quad(h, lo, hi, epsabs=1e-14, epsrel=1e-12, limit=400)[0]
                     for h in halves for lo, hi in zip(cuts, cuts[1:])) / math.log(2.0)


def jsd_quad_logit(f, g):
    """scipy.integrate.quad oracle for the base-2 JSD in u = logit x, for shapes up to
    1.5 however small: in u each density, x^a (1 - x)^b / B(a, b), is bounded and its
    tails fall like e^(a u) and e^(-b u), so pieces doubling in length from u = 0 out
    to 60 over the smallest shape on each side reach the slowest tail's e^-60 (and,
    for such shapes, every peak)."""
    cf, cg = special.betaln(f.alpha, f.beta), special.betaln(g.alpha, g.beta)

    def integrand(u):
        lx, l1x = -np.logaddexp(0.0, -u), -np.logaddexp(0.0, u)
        lw = f.alpha * lx + f.beta * l1x - cf
        lq = g.alpha * lx + g.beta * l1x - cg
        lm = np.logaddexp(lw, lq) - math.log(2.0)
        return 0.5 * (math.exp(lw) * (lw - lm) + math.exp(lq) * (lq - lm))

    total = []
    for sign, shape in ((-1.0, min(f.alpha, g.alpha)), (1.0, min(f.beta, g.beta))):
        cuts = [0.0, 1.0]
        while cuts[-1] < 60.0 / shape:
            cuts.append(2.0 * cuts[-1])
        total += [integrate.quad(integrand, sign * lo, sign * hi, epsabs=1e-14, epsrel=1e-12,
                                 limit=400)[0] * sign for lo, hi in zip(cuts, cuts[1:])]
    return math.fsum(total) / math.log(2.0)


def study_shape_pairs(count, seed):
    """``count`` pairs of the basket-wise Beta(1 + r, 1 + n - r) posteriors of the
    shipped size families, drawn with a fixed seed, as rows (fa, fb, ga, gb)."""
    shapes = np.array([(1.0 + r, 1.0 + n - r) for n in (10, 15, 20, 25, 30, 50)
                       for r in range(n + 1)])
    picks = np.random.default_rng(seed).integers(0, len(shapes), (count, 2))
    return np.concatenate([shapes[picks[:, 0]], shapes[picks[:, 1]]], axis=1)


def jsd_of(posteriors):
    """The pairwise JSD matrix of one list of beta shapes: a bank of one."""
    return jsd_matrices([[p.alpha for p in posteriors]], [[p.beta for p in posteriors]])[0]


def bank_shapes(design, data, prior, weights):
    """The posterior step of one design's bank kernel under a given weight matrix."""
    bank = design_bank(design, [data.responses], data.sample_sizes, prior, 0.15)
    alphas, betas = bank.posterior_shapes(np.asarray(weights, dtype=float)[None])
    return [BetaShape(a, b) for a, b in zip(alphas[0].tolist(), betas[0].tolist())]


class TestIndividualPosteriors:
    """tau = 1 drops every borrowing weight, leaving the basket-wise conjugate updates."""

    NO_BORROWING = DesignConfig("Fujikawa", FujikawaParams(1.0, 1.0), lambda_=0.9)

    def test_no_data_returns_prior(self):
        res = run_design(self.NO_BORROWING, BasketData((0, 0), (0, 0)), 0.15)
        assert res.posterior_means.tolist() == [0.5, 0.5]
        assert res.tail_probs.tolist() == [pytest.approx(0.85, abs=1e-12)] * 2

    def test_conjugate_update(self):
        config = DesignConfig("Fujikawa", FujikawaParams(1.0, 1.0), prior=BetaShape(2, 3),
                              lambda_=0.9)
        res = run_design(config, BasketData((5, 2), (10, 30)), 0.15)
        # Beta(7, 8) and Beta(4, 31)
        assert res.posterior_means.tolist() == [7 / 15, 4 / 35]
        assert res.tail_probs.tolist() == beta_tails([7.0, 4.0], [8.0, 31.0], 0.15).tolist()


class TestJsd:
    def test_identical_is_zero(self):
        assert jsd_of([BetaShape(6, 6), BetaShape(6, 6)])[0, 1] == 0.0

    @settings(max_examples=40, deadline=None)
    @given(f=shapes, g=shapes)
    def test_symmetry_and_range(self, f, g):
        v, w = _pair_jsds(np.array([[f.alpha, f.beta, g.alpha, g.beta],
                                    [g.alpha, g.beta, f.alpha, f.beta]]))
        assert v == w
        assert 0.0 <= v <= 1.0

    def test_disjoint_mass_near_one(self):
        f, g = BetaShape(1, 100), BetaShape(100, 1)
        v = jsd_of([f, g])[0, 1]
        assert v > 0.999
        assert v == pytest.approx(jsd_riemann(f, g), abs=1e-5)

    def test_agrees_with_riemann_oracle(self):
        f, g = BetaShape(4, 8), BetaShape(9, 3)
        assert jsd_of([f, g])[0, 1] == pytest.approx(jsd_riemann(f, g), abs=1e-6)

    def test_zero_iff_equal(self):
        assert jsd_of([BetaShape(3, 5), BetaShape(3.2, 5)])[0, 1] > 1e-6

    @settings(max_examples=200, deadline=None)
    @given(f=shapes, g=shapes)
    def test_integrand_bitwise_symmetric(self, f, g):
        # the rule sees the same values in either order, so a pair's JSD has the
        # same bits in either order and a bank may order each pair as it likes
        u = np.linspace(-80.0, 80.0, 4005)
        terms = _jsd_integrand(np.array([[f.alpha, f.beta, g.alpha, g.beta],
                                         [g.alpha, g.beta, f.alpha, f.beta]]),
                               -np.logaddexp(0.0, -u), -np.logaddexp(0.0, u))
        np.testing.assert_array_equal(terms[:, 0], terms[:, 1])

    @pytest.mark.parametrize("f, g", [
        (BetaShape(1, 61), BetaShape(61, 1)),
        (BetaShape(1, 11), BetaShape(11, 1)),
        (BetaShape(1, 1), BetaShape(51, 1)),
        (BetaShape(16, 16), BetaShape(16, 16)),
        (BetaShape(0.5, 0.5), BetaShape(200, 200)),
        (BetaShape(0.5, 200), BetaShape(200, 0.5)),
    ])
    def test_extreme_shapes_agree_with_quad(self, f, g):
        assert jsd_of([f, g])[0, 1] == pytest.approx(jsd_quad(f, g), abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(f=shapes, g=shapes)
    def test_agrees_with_quad(self, f, g):
        assert jsd_of([f, g])[0, 1] == pytest.approx(jsd_quad(f, g), abs=1e-8)

    @settings(max_examples=40, deadline=None)
    @given(f=small_shapes, g=small_shapes)
    @example(f=BetaShape(0.0953, 1.0891), g=BetaShape(0.1326, 0.5932))
    def test_small_shapes_agree_with_quad_in_logit(self, f, g):
        # the oracle in x, jsd_quad, does not hold 1e-8 for shapes well below 0.5: on the
        # example pair it reads 0.0463625130, 2.8e-7 above this oracle and the program
        want = jsd_quad_logit(f, g)
        assert jsd_of([f, g])[0, 1] == pytest.approx(want, abs=1e-8)
        matrix = jsd_matrices([[f.alpha, g.alpha]], [[f.beta, g.beta]])[0]
        assert matrix[0, 1] == pytest.approx(want, abs=1e-8)
        assert matrix[1, 0] == pytest.approx(want, abs=1e-8)


class TestPairJsds:
    """The batch kernel: each pair on the rule of its own shapes, in one call."""

    def test_study_shapes_agree_with_quad(self):
        pairs = study_shape_pairs(150, seed=11)
        for pair, value in zip(pairs.tolist(), _pair_jsds(pairs).tolist()):
            f, g = BetaShape(*pair[:2]), BetaShape(*pair[2:])
            assert value == pytest.approx(jsd_quad(f, g), abs=1e-8)

    def test_bits_do_not_depend_on_the_batch(self):
        study = study_shape_pairs(400, seed=3)
        # posteriors of n = 10 and n = 1000 and shapes below 1: pairs on several
        # (level, reach) rules share one call
        rng = np.random.default_rng(6)
        pool = np.concatenate([[(1.0 + r, 1.0 + n - r) for n in (10, 1000)
                                for r in rng.integers(0, n + 1, 300).tolist()],
                               rng.uniform(0.05, 1.0, (300, 2))])
        mixed = pool[rng.integers(0, len(pool), (400, 2))].reshape(-1, 4)
        assert len(unique_rows(_rule_keys(mixed))[0]) > 3
        for pairs in (study, mixed):
            pairs[::37, 2:] = pairs[::37, :2]  # some equal shapes ride along
            batch = _pair_jsds(pairs)
            order = np.random.default_rng(5).permutation(len(pairs))
            np.testing.assert_array_equal(_pair_jsds(pairs[order]), batch[order])
            np.testing.assert_array_equal(_pair_jsds(pairs[order[:60]]), batch[order[:60]])
            alone = [_pair_jsds(pair[None])[0] for pair in pairs]
            np.testing.assert_array_equal(alone, batch)
            assert np.all(batch[::37] == 0.0) and np.all(batch[1::37] > 0.0)


    @pytest.mark.parametrize("pair", [[1e6, 1e6, 2e6, 1e6], [1e-300, 1.0, 2.0, 1.0]],
                             ids=["over-the-node-bound", "shape-below-the-floor"])
    def test_pair_out_of_the_rules_range_is_a_numeric_error(self, pair):
        # raised before any rule is built; below a shape of 1e-280 the edge weights would
        # pass e^650, where the exp floor of e^-700 drops mass that counts
        with pytest.raises(NumericError, match=r"^JSD of Beta\("):
            _pair_jsds(np.array([[1.0, 2.0, 3.0, 4.0], pair]))


class TestJsdMatrices:
    def test_bank_returns_the_bits_of_a_fresh_quadrature(self):
        rng = np.random.default_rng(4)
        sizes = np.array([10, 10, 25, 25, 30])
        responses = rng.binomial(sizes, 0.3, size=(30, 5))
        alphas, betas = 1.0 + responses, 1.0 + sizes - responses
        bank = jsd_matrices(alphas, betas)
        np.testing.assert_array_equal(jsd_matrices(alphas[::-1], betas[::-1]), bank[::-1])
        for row in range(30):
            for a in range(5):
                for b in range(5):
                    if a == b:
                        continue
                    fresh = _pair_jsds(np.array([[alphas[row, a], betas[row, a],
                                                  alphas[row, b], betas[row, b]]]))[0]
                    assert bank[row, a, b] == fresh

    def test_bank_rows_match_single_matrices(self):
        post = [[BetaShape(2, 9), BetaShape(5, 7), BetaShape(1, 1)],
                [BetaShape(5, 7), BetaShape(2, 9), BetaShape(3, 3)]]
        alphas = [[p.alpha for p in row] for row in post]
        betas = [[p.beta for p in row] for row in post]
        bank = jsd_matrices(alphas, betas)
        for row, matrix in zip(post, bank):
            np.testing.assert_array_equal(jsd_of(row), matrix)


class TestFujikawaWeights:
    def test_identical_posteriors_weight_one(self):
        post = [BetaShape(4, 8)] * 3
        w = weights_from_jsd(jsd_of(post), FujikawaParams(epsilon=2, tau=0.5))
        assert np.all(w == 1.0)

    def test_exact_tau_boundary_drops_to_zero(self):
        post = [BetaShape(4, 8), BetaShape(6, 6)]
        params = FujikawaParams(epsilon=1.5, tau=0.0)
        base = weights_from_jsd(jsd_of(post), params)[0, 1]
        assert base > 0.0
        clipped = weights_from_jsd(jsd_of(post), FujikawaParams(epsilon=1.5, tau=base))
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
        m = jsd_of(post)
        assert np.array_equal(m, m.T)
        assert np.all(np.diag(m) == 0.0)


class TestFujikawaPosterior:
    """The weighted-sum step of a bank's ``posterior_shapes`` for Fujikawa."""

    def test_identity_weights_match_individual_bitwise(self):
        data = BasketData((3, 7, 0), (10, 20, 5))
        for prior in [BetaShape(1, 1), BetaShape(2, 3), BetaShape(0.5, 0.5)]:
            post = bank_shapes("Fujikawa", data, prior, np.eye(3))
            assert post == [BetaShape(prior.alpha + r, prior.beta + (n - r))
                            for r, n in zip(data.responses, data.sample_sizes)]

    def test_all_ones_weights_pool_including_priors(self):
        data = BasketData((2, 3, 1, 0, 4), (10, 15, 20, 25, 30))
        post = bank_shapes("Fujikawa", data, BetaShape(1, 1), np.ones((5, 5)))
        total_r = sum(data.responses)
        total_miss = sum(n - r for r, n in zip(data.responses, data.sample_sizes))
        for shape in post:
            assert shape.alpha == pytest.approx(5 + total_r, abs=1e-12)
            assert shape.beta == pytest.approx(5 + total_miss, abs=1e-12)

    def test_hand_worked_example(self):
        data = BasketData((3, 4), (10, 10))
        w = np.array([[1.0, 0.5], [0.5, 1.0]])
        post = bank_shapes("Fujikawa", data, BetaShape(1, 1), w)
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
        fuji = bank_shapes("Fujikawa", data, BetaShape(1, 1), matrix)
        power = bank_shapes("CPP", data, BetaShape(1, 1), matrix)
        for f, p in zip(fuji, power):
            assert f.alpha - p.alpha == pytest.approx(2 * w, abs=1e-9)
            assert f.beta - p.beta == pytest.approx(2 * w, abs=1e-9)
