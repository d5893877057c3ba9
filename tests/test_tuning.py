import numpy as np
import pytest

from basketsim.bma import BmaParams, enumerate_partitions, log_marginal_likelihood
from basketsim.cli import builtin_catalog
from basketsim.core import (
    BasketData,
    BetaShape,
    CalibrationError,
    Scenario,
    beta_mean,
    beta_tail,
)
from basketsim.engine import DesignConfig, scenario_tails_means
from basketsim.fujikawa import FujikawaParams, jsd
from basketsim.hierarchical import BhmParams, ExnexParams, McmcConfig
from basketsim.powerprior import CppParams, alpha0, cpp_weight, hellinger_gamma
from basketsim.tuning import (
    BankEvaluator,
    calibrate_lambda,
    default_grid,
    grid_search,
    smallest_lambda,
)

GROUPED_NULL = Scenario(2, (10, 10, 25, 25, 30), (0.15,) * 5, "Null", "Grouped")
GROUPED_ASC = Scenario(8, (10, 10, 25, 25, 30), (0.15, 0.15, 0.25, 0.35, 0.35),
                       "Ascending", "Grouped")
GROUPED_SGN = Scenario(17, (10, 10, 25, 25, 30), (0.40, 0.15, 0.15, 0.15, 0.15),
                       "SGN", "Grouped")
MINI_FAMILY = [GROUPED_NULL, GROUPED_ASC, GROUPED_SGN]


def reference_tails_means(design, params, data, p0=0.15):
    """One replicate's tails and means from the scalar formulas, pair by pair."""
    k = data.k
    baskets = [data.basket(i) for i in range(k)]
    if design == "BMA":
        prior = BetaShape(1, 1)
        partitions = enumerate_partitions(k)
        log_w = np.array([
            p.block_count * params.psi + log_marginal_likelihood(p, data, prior)
            for p in partitions
        ])
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        tails, means = np.zeros(k), np.zeros(k)
        for w_j, partition in zip(w, partitions):
            for block in partition.blocks():
                r = sum(baskets[i][0] for i in block)
                n = sum(baskets[i][1] for i in block)
                shape = BetaShape(1 + r, 1 + n - r)
                for i in block:
                    tails[i] += w_j * beta_tail(shape, p0)
                    means[i] += w_j * beta_mean(shape)
        return tails, means
    singles = [BetaShape(1 + r, 1 + n - r) for r, n in baskets]
    shapes = []
    for a in range(k):
        alpha = beta = 0.0 if design == "Fujikawa" else 1.0
        for b in range(k):
            if a == b:
                w = 1.0
            elif design == "Fujikawa":
                w = (1.0 - jsd(singles[a], singles[b])) ** params.epsilon
                w = 0.0 if w <= params.tau else w
            elif design == "APP":
                w = alpha0(baskets[a][1], baskets[b][1]) * (
                    1.0 - hellinger_gamma(baskets[a], baskets[b])
                )
            else:
                w = cpp_weight(baskets[a], baskets[b], params)
                if design == "LCPP":
                    w *= alpha0(baskets[a][1], baskets[b][1])
            if design == "Fujikawa":
                alpha += w * singles[b].alpha
                beta += w * singles[b].beta
            else:
                alpha += w * baskets[b][0]
                beta += w * (baskets[b][1] - baskets[b][0])
        shapes.append(BetaShape(alpha, beta))
    return (
        np.array([beta_tail(shape, p0) for shape in shapes]),
        np.array([beta_mean(shape) for shape in shapes]),
    )


def empirical_fwer(max_tails, lam, strict):
    hits = max_tails > lam if strict else max_tails >= lam
    return hits.mean()


class TestSmallestLambda:
    def test_all_zero_tails_needs_smallest_grid_value(self):
        assert smallest_lambda(np.zeros(500), 0.05, strict=False) == 0.001

    def test_vacuous_alpha(self):
        rng = np.random.default_rng(1)
        assert smallest_lambda(rng.random(500), 1.0, strict=False) == 0.001

    def test_minimality_on_random_banks(self):
        rng = np.random.default_rng(7)
        for strict in (False, True):
            for _ in range(25):
                tails = rng.beta(2, 4, size=800)
                lam = smallest_lambda(tails, 0.05, strict)
                assert empirical_fwer(tails, lam, strict) <= 0.05 + 1e-12
                if lam > 0.001:
                    assert empirical_fwer(tails, lam - 0.001, strict) > 0.05

    def test_strictness_at_grid_point_mass(self):
        tails = np.full(100, 0.5)
        # Pr >= lambda rejects everything up to 0.5, so 0.501 is needed
        assert smallest_lambda(tails, 0.05, strict=False) == 0.501
        # Pr > lambda already spares them at exactly 0.5
        assert smallest_lambda(tails, 0.05, strict=True) == 0.5

    def test_unattainable_raises_with_min_fwer(self):
        with pytest.raises(CalibrationError) as exc:
            smallest_lambda(np.ones(100), 0.05, strict=False)
        assert exc.value.min_fwer == 1.0


class TestCalibrateLambda:
    def test_cpp_calibration_minimality(self):
        cfg = DesignConfig("CPP", CppParams(4, 4.5))
        lam = calibrate_lambda(cfg, GROUPED_NULL, 1500, alpha=0.05, seed=5)
        tails, _ = scenario_tails_means(cfg, GROUPED_NULL, 1500, 5, 0.15)
        max_tails = tails.max(axis=1)
        assert empirical_fwer(max_tails, lam, strict=False) <= 0.05
        assert empirical_fwer(max_tails, lam - 0.001, strict=False) > 0.05

    def test_precomputed_tails_shortcut_agrees(self):
        cfg = DesignConfig("CPP", CppParams(4, 4.5))
        tails, _ = scenario_tails_means(cfg, GROUPED_NULL, 800, 9, 0.15)
        assert calibrate_lambda(cfg, GROUPED_NULL, 800, seed=9) == calibrate_lambda(
            cfg, GROUPED_NULL, 800, seed=9, tails=tails
        )

    def test_rejects_non_null_scenario(self):
        cfg = DesignConfig("CPP", CppParams(4, 4.5))
        with pytest.raises(ValueError):
            calibrate_lambda(cfg, GROUPED_ASC, 100, seed=1)


class TestDefaultGrids:
    @pytest.mark.parametrize(
        "design,size", [("CPP", 100), ("LCPP", 100), ("Fujikawa", 36),
                        ("BMA", 17), ("BHM", 8), ("EXNEX", 72), ("APP", 1)],
    )
    def test_grid_sizes(self, design, size):
        assert len(default_grid(design)) == size

    def test_phi_grid_contains_published_optimum(self):
        phis = [p.phi for p in default_grid("BHM")]
        assert phis[0] == 0.125 and phis[-1] == 2.0
        assert round(phis[2], 3) == 0.661

    def test_fujikawa_grid_contains_linear_optimum(self):
        grid = default_grid("Fujikawa")
        assert any(g.epsilon == 1.5 and g.tau == 0.2 for g in grid)


class TestBankEvaluator:
    @pytest.mark.parametrize(
        "design,params",
        [
            ("CPP", CppParams(4, 4.5)),
            ("LCPP", CppParams(3, 4.5)),
            ("APP", None),
            ("Fujikawa", FujikawaParams(1.5, 0.2)),
            ("BMA", BmaParams(-2.0)),
            ("BHM", BhmParams(phi=0.661)),
            ("EXNEX", ExnexParams(phi=0.661, q=0.9)),
        ],
    )
    def test_fast_path_matches_engine(self, design, params):
        """Closed-form banks match the scalar formulas; MCMC banks match the engine."""
        mc = McmcConfig(total_samples=900)
        ev = BankEvaluator(design, GROUPED_ASC, 50, 37, mcmc=mc)
        tails_fast, means_fast = ev.tails_means(params)
        if design in ("BHM", "EXNEX"):
            cfg = DesignConfig(design, params, mcmc=mc)
            tails_ref, means_ref = scenario_tails_means(cfg, GROUPED_ASC, 50, 37, 0.15)
        else:
            refs = [
                reference_tails_means(
                    design, params, BasketData(tuple(map(int, r)), GROUPED_ASC.sample_sizes)
                )
                for r in ev.responses
            ]
            tails_ref = np.array([t for t, _ in refs])
            means_ref = np.array([m for _, m in refs])
        np.testing.assert_allclose(tails_fast, tails_ref, atol=1e-10)
        np.testing.assert_allclose(means_fast, means_ref, atol=1e-10)


class TestGridSearch:
    def test_single_point_grid_is_selected(self):
        result = grid_search(
            "CPP", MINI_FAMILY, n_reps=300, seed=3, grid=[CppParams(4, 4.5)]
        )
        assert result.selected_index == 0
        assert result.selected.params == CppParams(4, 4.5)
        assert set(result.selected.pattern_ecd) == {"Null", "Ascending", "SGN"}

    def test_app_has_exactly_one_combination(self):
        result = grid_search("APP", MINI_FAMILY, n_reps=300, seed=3)
        assert len(result.records) == 1

    def test_selected_attains_maximum(self):
        grid = [CppParams(a, b) for a in (1.0, 4.0) for b in (1.0, 4.5)]
        result = grid_search("CPP", MINI_FAMILY, n_reps=400, seed=11, grid=grid)
        best = result.records[result.selected_index].mean_ecd
        assert all(best >= rec.mean_ecd for rec in result.records)

    def test_deterministic_rerun(self):
        grid = [FujikawaParams(e, t) for e in (1.0, 2.0) for t in (0.0, 0.3)]
        a = grid_search("Fujikawa", MINI_FAMILY, n_reps=150, seed=23, grid=grid)
        b = grid_search("Fujikawa", MINI_FAMILY, n_reps=150, seed=23, grid=grid)
        assert a == b

    def test_lambda_reported_on_grid(self):
        result = grid_search("BMA", MINI_FAMILY, n_reps=300, seed=3,
                             grid=[BmaParams(-2.0), BmaParams(0.0)])
        for rec in result.records:
            assert rec.lambda_ == round(rec.lambda_, 3)

    def test_exact_ties_break_toward_earliest_point(self):
        linear = [s for s in builtin_catalog() if s.size_family == "Linear"]
        result = grid_search("Fujikawa", linear, 100, seed=1008)
        early, late = result.records[7], result.records[12]
        assert early.params == FujikawaParams(1.0, 0.1)
        assert late.params == FujikawaParams(1.5, 0.0)
        # both score 2483 correct decisions over 6 x 100 replicates; their
        # float means differ in the last bit, the later one upward
        assert early.mean_ecd == pytest.approx(2483 / 600, abs=1e-12)
        assert late.mean_ecd == pytest.approx(2483 / 600, abs=1e-12)
        assert max(rec.mean_ecd for rec in result.records) == pytest.approx(2483 / 600, abs=1e-12)
        assert result.selected_index == 7
