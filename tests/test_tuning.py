import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from basketsim import bma
from basketsim.bma import BmaParams
from basketsim.cli import builtin_catalog
from basketsim.core import (
    BasketData,
    BetaShape,
    CalibrationError,
    ConfigurationError,
    SIZE_FAMILIES,
    Scenario,
    beta_tails,
)
from basketsim.engine import (
    DESIGNS,
    LAMBDA_GRID,
    REGISTRY,
    DesignConfig,
    crossing_counts,
    design_bank,
    generate_responses,
    outcome_table,
    run_design,
)
from basketsim.fujikawa import FujikawaParams, _pair_jsds
from basketsim.hierarchical import BhmParams, ExnexParams
from basketsim.powerprior import CppParams
from basketsim import engine, tuning
from basketsim.tuning import grid_search, study
from scalar_reference import alpha0, blocks, cpp_weight, hellinger_gamma, log_marginal_likelihood

GROUPED_NULL = Scenario(2, (10, 10, 25, 25, 30), (0.15,) * 5, "Null", "Grouped")
GROUPED_ASC = Scenario(8, (10, 10, 25, 25, 30), (0.15, 0.15, 0.25, 0.35, 0.35),
                       "Ascending", "Grouped")
GROUPED_SGN = Scenario(17, (10, 10, 25, 25, 30), (0.40, 0.15, 0.15, 0.15, 0.15),
                       "SGN", "Grouped")
MINI_FAMILY = [GROUPED_NULL, GROUPED_ASC, GROUPED_SGN]


def beta_tail_mean(shape, p0):
    return float(beta_tails(shape.alpha, shape.beta, p0)), shape.alpha / (shape.alpha + shape.beta)


def reference_tails_means(design, params, data, p0=0.15):
    """One replicate's tails and means from the scalar formulas, pair by pair."""
    k = len(data.responses)
    baskets = list(zip(data.responses, data.sample_sizes))
    if design == "BMA":
        prior = BetaShape(1, 1)
        partitions = bma._labels(k).tolist()
        log_w = np.array([
            (max(p) + 1) * params.psi + log_marginal_likelihood(p, data, prior)
            for p in partitions
        ])
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        tails, means = np.zeros(k), np.zeros(k)
        for w_j, partition in zip(w, partitions):
            for block in blocks(partition):
                r = sum(baskets[i][0] for i in block)
                n = sum(baskets[i][1] for i in block)
                shape = BetaShape(1 + r, 1 + n - r)
                tail, mean = beta_tail_mean(shape, p0)
                for i in block:
                    tails[i] += w_j * tail
                    means[i] += w_j * mean
        return tails, means
    singles = [BetaShape(1 + r, 1 + n - r) for r, n in baskets]
    shapes = []
    for a in range(k):
        alpha = beta = 0.0 if design == "Fujikawa" else 1.0
        for b in range(k):
            if a == b:
                w = 1.0
            elif design == "Fujikawa":
                pair = [singles[a].alpha, singles[a].beta, singles[b].alpha, singles[b].beta]
                w = (1.0 - _pair_jsds(np.array([pair]))[0]) ** params.epsilon
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
    stats = np.array([beta_tail_mean(shape, p0) for shape in shapes])
    return stats[:, 0], stats[:, 1]


def bank_tails_means(config, scenario, n_reps, seed):
    """The tails and posterior means [R, K] of one scenario's replicates, each row as often
    as its count, through the scenario's own outcome table."""
    table = outcome_table([scenario], n_reps, seed)
    bank = design_bank(config.design, table.rows, table.sizes, config.prior, 0.15)
    tails, means = bank.tails_means(config.params)
    counts = table.counts[scenario]
    return np.repeat(tails, counts, axis=0), np.repeat(means, counts, axis=0)


def ones(n):
    """Unit counts: every row is one replicate."""
    return np.ones(n, np.int64)


def distinct_rows(scenarios, n_reps, seed):
    return {tuple(row) for s in scenarios for row in generate_responses(s, n_reps, seed).tolist()}


def smallest_lambda(max_tails, counts, alpha, strict):
    """A global-null bank's calibrated threshold from its rows' largest tails and counts."""
    errors = crossing_counts(np.asarray(max_tails, float)[:, None], np.asarray(counts, float)[None],
                             np.zeros((1, 1), bool), LAMBDA_GRID, strict, per_basket=False)[0, 0]
    return float(LAMBDA_GRID[tuning._smallest_step(errors, alpha)])


def empirical_fwer(max_tails, lam, strict):
    hits = max_tails > lam if strict else max_tails >= lam
    return hits.mean()


class TestSmallestLambda:
    def test_all_zero_tails_needs_smallest_grid_value(self):
        assert smallest_lambda(np.zeros(500), ones(500), 0.05, strict=False) == 0.001

    def test_vacuous_alpha(self):
        rng = np.random.default_rng(1)
        assert smallest_lambda(rng.random(500), ones(500), 1.0, strict=False) == 0.001

    def test_minimality_on_random_banks(self):
        rng = np.random.default_rng(7)
        for strict in (False, True):
            for _ in range(25):
                tails = rng.beta(2, 4, size=800)
                lam = smallest_lambda(tails, ones(800), 0.05, strict)
                assert empirical_fwer(tails, lam, strict) <= 0.05 + 1e-12
                if lam > 0.001:
                    assert empirical_fwer(tails, lam - 0.001, strict) > 0.05

    def test_strictness_at_grid_point_mass(self):
        tails = np.full(100, 0.5)
        # Pr >= lambda rejects everything up to 0.5, so 0.501 is needed
        assert smallest_lambda(tails, ones(100), 0.05, strict=False) == 0.501
        # Pr > lambda already spares them at exactly 0.5
        assert smallest_lambda(tails, ones(100), 0.05, strict=True) == 0.5

    def test_unattainable_raises_with_min_fwer(self):
        with pytest.raises(CalibrationError) as exc:
            smallest_lambda(np.ones(100), ones(100), 0.05, strict=False)
        assert exc.value.min_fwer == 1.0

    @given(data=st.data(), strict=st.booleans(), alpha=st.sampled_from([0.0, 0.05, 0.2, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_counts_weigh_like_repeated_replicates(self, data, strict, alpha):
        # maxima on and off the grid, ties, and rows that no replicate lands on
        tail = st.one_of(st.integers(0, 1000).map(lambda i: i / 1000.0),
                         st.floats(0.0, 1.0, allow_nan=False))
        tails = np.array(data.draw(st.lists(tail, min_size=1, max_size=30)))
        counts = np.array(data.draw(st.lists(st.integers(0, 6), min_size=len(tails),
                                             max_size=len(tails))))
        assume(counts.sum() > 0)
        replicates = np.repeat(tails, counts)

        def outcome(*args):
            try:
                return smallest_lambda(*args, alpha, strict)
            except CalibrationError as exc:
                return "unattainable", exc.min_fwer

        assert outcome(tails, counts) == outcome(replicates, ones(len(replicates)))
        # every grid step counted directly on the replicates
        grid = np.arange(1, 1000) / 1000.0
        hits = replicates[None, :] > grid[:, None] if strict else replicates >= grid[:, None]
        errors = hits.sum(axis=1)
        within = errors <= alpha * len(replicates) + 1e-9
        expected = (float(grid[np.argmax(within)]) if within.any()
                    else ("unattainable", errors[-1] / len(replicates)))
        assert outcome(tails, counts) == expected


class TestCalibrateLambda:
    def test_cpp_calibration_minimality(self):
        cfg = DesignConfig("CPP", CppParams(4, 4.5))
        lam, _ = study(cfg, outcome_table([GROUPED_NULL], 1500, 5), alpha=0.05)
        tails, _ = bank_tails_means(cfg, GROUPED_NULL, 1500, 5)
        max_tails = tails.max(axis=1)
        assert empirical_fwer(max_tails, lam, strict=False) <= 0.05
        assert empirical_fwer(max_tails, lam - 0.001, strict=False) > 0.05

    def test_rejects_non_null_scenario(self):
        cfg = DesignConfig("CPP", CppParams(4, 4.5))
        with pytest.raises(ValueError):
            study(cfg, outcome_table([GROUPED_ASC], 100, 1))


class TestStudy:
    def count_rows(self, monkeypatch):
        """The outcome rows every evaluated block holds, in evaluation order."""
        rows = []
        evaluate_block = engine._evaluate_block

        def counted(args):
            rows.extend(tuple(row) for row in args[1].tolist())
            return evaluate_block(args)

        monkeypatch.setattr(engine, "_evaluate_block", counted)
        return rows

    def test_null_bank_evaluated_once(self, monkeypatch):
        rows = self.count_rows(monkeypatch)
        cfg = DesignConfig("CPP", CppParams(4, 4.5))
        lam, ocs = study(cfg, outcome_table(MINI_FAMILY, 300, 9))
        # each distinct row of the three banks once, the null's included
        assert len(rows) == len(set(rows))
        assert set(rows) == distinct_rows(MINI_FAMILY, 300, 9)
        tails, _ = bank_tails_means(cfg, GROUPED_NULL, 300, 9)
        assert lam == smallest_lambda(tails.max(axis=1), ones(300), 0.05, strict=False)
        assert [oc.n_reps for oc in ocs] == [300] * 3

    def test_fixed_lambda_skips_calibration(self, monkeypatch):
        rows = self.count_rows(monkeypatch)
        cfg = DesignConfig("CPP", CppParams(4, 4.5), lambda_=0.5)
        lam, _ = study(cfg, outcome_table([GROUPED_ASC], 300, 9))
        assert lam == 0.5
        assert sorted(rows) == sorted(distinct_rows([GROUPED_ASC], 300, 9))

    @pytest.mark.parametrize("design,params", [("CPP", CppParams(4, 4.5)),
                                               ("BMA", BmaParams(-2.0)),
                                               ("EXNEX", ExnexParams(phi=0.661, q=0.9))])
    def test_fixed_lambda_ignores_other_banks(self, design, params):
        # simulate's table holds the null's bank for every design, a fixed lambda's included
        cfg = DesignConfig(design, params, lambda_=0.8125)
        own = study(cfg, outcome_table([GROUPED_ASC, GROUPED_SGN], 300, 9))
        lam, ocs = study(cfg, outcome_table(MINI_FAMILY, 300, 9))
        assert (lam, ocs[1:]) == own

    @pytest.mark.parametrize("design", ["CPP", "APP", "LCPP", "Fujikawa", "BMA"])
    def test_one_point_grid_search_matches_study(self, design):
        linear = [s for s in builtin_catalog() if s.size_family == "Linear"]
        params = REGISTRY[design].presets["Linear"]
        table = outcome_table(linear, 200, 4)
        record = grid_search(design, table, grid=[params]).records[0]
        lam, ocs = study(DesignConfig(design, params), table)
        assert record.lambda_ == lam
        assert record.pattern_ecd == {s.pattern: oc.ecd_mean for s, oc in zip(linear, ocs)}


class TestDefaultGrids:
    @pytest.mark.parametrize(
        "design,size", [("CPP", 100), ("LCPP", 100), ("Fujikawa", 36),
                        ("BMA", 17), ("BHM", 8), ("EXNEX", 72), ("APP", 1)],
    )
    def test_grid_sizes(self, design, size):
        assert len(REGISTRY[design].grid) == size
        for point in REGISTRY[design].grid:  # a mistyped point raises ConfigurationError
            DesignConfig(design, point)
        # the registry keeps the paper's order, which the CSV rows and report tables follow
        assert DESIGNS == ("CPP", "APP", "LCPP", "Fujikawa", "BMA", "BHM", "EXNEX")

    @pytest.mark.parametrize("design", DESIGNS)
    def test_presets_cover_every_size_family(self, design):
        # the CLI runs a design without a config entry at its family's preset, so a family
        # missing here would end in a KeyError traceback
        spec = REGISTRY[design]
        assert tuple(spec.presets) == SIZE_FAMILIES
        assert all(isinstance(params, spec.params) for params in spec.presets.values())

    def test_phi_grid_contains_published_optimum(self):
        phis = [p.phi for p in REGISTRY["BHM"].grid]
        assert phis[0] == 0.125 and phis[-1] == 2.0
        assert round(phis[2], 3) == 0.661

    def test_fujikawa_grid_contains_linear_optimum(self):
        grid = REGISTRY["Fujikawa"].grid
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
        """The tuning bank (engine.design_bank) against the scalar formulas for the
        closed-form designs and against one-replicate analyses for BHM and EXNEX."""
        responses = generate_responses(GROUPED_ASC, 50, 37)
        sizes = GROUPED_ASC.sample_sizes
        bank = design_bank(design, responses, sizes, BetaShape(1, 1), 0.15)
        tails_fast, means_fast = bank.tails_means(params)
        data = [BasketData(tuple(map(int, r)), sizes) for r in responses]
        if design in ("BHM", "EXNEX"):
            config = DesignConfig(design, params, lambda_=0.9)
            refs = [(res.tail_probs, res.posterior_means)
                    for res in (run_design(config, d) for d in data)]
        else:
            refs = [reference_tails_means(design, params, d) for d in data]
        tails_ref = np.array([t for t, _ in refs])
        means_ref = np.array([m for _, m in refs])
        np.testing.assert_allclose(tails_fast, tails_ref, atol=1e-10)
        np.testing.assert_allclose(means_fast, means_ref, atol=1e-10)


class TestGridSearch:
    def test_single_point_grid_is_selected(self):
        result = grid_search(
            "CPP", outcome_table(MINI_FAMILY, 300, 3), grid=[CppParams(4, 4.5)]
        )
        assert result.selected_index == 0
        selected = result.records[result.selected_index]
        assert selected.params == CppParams(4, 4.5)
        assert set(selected.pattern_ecd) == {"Null", "Ascending", "SGN"}

    @pytest.mark.parametrize("grid", [[None], [CppParams(4, 4.5), None]])
    def test_mistyped_grid_rejected_before_any_bank(self, grid, monkeypatch):
        # the type check used to come from the weights, after every bank was built
        built = []
        monkeypatch.setattr(engine, "design_bank", lambda *args: built.append(args))
        table = outcome_table(MINI_FAMILY, 50, 3)
        with pytest.raises(ConfigurationError, match="needs params of type CppParams"):
            grid_search("CPP", table, grid=grid)
        assert built == []

    def test_one_bank_alive_at_a_time(self, monkeypatch):
        # grid_search used to build every block's bank up front and keep them all for the grid
        live, peaks = [], []

        def counted(*args):
            bank = design_bank(*args)
            token = object()
            live.append(token)
            peaks.append(len(live))
            weakref.finalize(bank, live.remove, token)
            return bank

        grid = [CppParams(a, 4.5) for a in (1.0, 2.0, 4.0)]
        table = outcome_table(MINI_FAMILY, 100, 3)
        whole = grid_search("CPP", table, grid=grid)
        monkeypatch.setattr(engine, "design_bank", counted)
        monkeypatch.setattr(tuning, "design_bank", counted, raising=False)
        monkeypatch.setattr(engine, "_BLOCK_ROWS", 40)
        blocks = table.blocks()
        assert len(blocks) >= 3
        assert grid_search("CPP", table, grid=grid) == whole
        assert len(peaks) == len(blocks)  # one bank per block for the whole grid
        assert max(peaks) == 1

    def test_exnex_jobs_keep_every_record(self):
        grid = [ExnexParams(phi=0.59, q=0.5), ExnexParams(phi=0.8, q=0.9)]
        table = outcome_table(MINI_FAMILY, 40, 6)
        serial, fanned = (grid_search("EXNEX", table, grid=grid, jobs=jobs) for jobs in (1, 2))
        assert serial == fanned

    def test_app_has_exactly_one_combination(self):
        result = grid_search("APP", outcome_table(MINI_FAMILY, 300, 3))
        assert len(result.records) == 1

    def test_selected_attains_maximum(self):
        grid = [CppParams(a, b) for a in (1.0, 4.0) for b in (1.0, 4.5)]
        result = grid_search("CPP", outcome_table(MINI_FAMILY, 400, 11), grid=grid)
        best = result.records[result.selected_index].mean_ecd
        assert all(best >= rec.mean_ecd for rec in result.records)

    def test_deterministic_rerun(self):
        grid = [FujikawaParams(e, t) for e in (1.0, 2.0) for t in (0.0, 0.3)]
        a = grid_search("Fujikawa", outcome_table(MINI_FAMILY, 150, 23), grid=grid)
        b = grid_search("Fujikawa", outcome_table(MINI_FAMILY, 150, 23), grid=grid)
        assert a == b

    def test_lambda_reported_on_grid(self):
        result = grid_search("BMA", outcome_table(MINI_FAMILY, 300, 3),
                             grid=[BmaParams(-2.0), BmaParams(0.0)])
        for rec in result.records:
            assert rec.lambda_ == round(rec.lambda_, 3)

    def test_same_pattern_scenarios_are_averaged(self):
        # two Alternative scenarios used to collapse into one entry, the later one
        sizes = (10, 15, 20, 25, 30)
        family = [Scenario(1, sizes, (0.15,) * 5, "Null", "Linear"),
                  Scenario(2, sizes, (0.35,) * 5, "Alternative", "Linear"),
                  Scenario(3, sizes, (0.25,) * 5, "Alternative", "Linear")]
        table = outcome_table(family, 200, 5)
        record = grid_search("APP", table).records[0]
        lam, ocs = study(DesignConfig("APP"), table)
        null, alt2, alt3 = (oc.ecd_mean for oc in ocs)
        assert alt2 != alt3
        assert record.lambda_ == lam
        assert record.pattern_ecd == {"Null": null, "Alternative": (alt2 + alt3) / 2}
        assert record.mean_ecd == math.fsum([null, (alt2 + alt3) / 2]) / 2

    def test_exact_ties_break_toward_earliest_point(self):
        linear = [s for s in builtin_catalog() if s.size_family == "Linear"]
        result = grid_search("Fujikawa", outcome_table(linear, 100, 1008))
        early, late = result.records[7], result.records[12]
        assert early.params == FujikawaParams(1.0, 0.1)
        assert late.params == FujikawaParams(1.5, 0.0)
        # both score 2483 correct decisions over 6 x 100 replicates; their
        # float means differ in the last bit, the later one upward
        assert early.mean_ecd == pytest.approx(2483 / 600, abs=1e-12)
        assert late.mean_ecd == pytest.approx(2483 / 600, abs=1e-12)
        assert max(rec.mean_ecd for rec in result.records) == pytest.approx(2483 / 600, abs=1e-12)
        assert result.selected_index == 7
