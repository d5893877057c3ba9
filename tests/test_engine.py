import functools
import math
import os
import warnings
from multiprocessing import get_context

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from basketsim import engine, hierarchical
from basketsim.bma import BmaParams
from basketsim.cli import builtin_catalog
from basketsim.core import BasketData, BetaShape, ConfigurationError, Scenario, beta_tails
from basketsim.engine import (
    DESIGNS,
    LAMBDA_GRID,
    DesignConfig,
    OperatingCharacteristics,
    aggregate,
    crossing_counts,
    decisions_from_tails,
    design_bank,
    evaluate_table,
    generate_responses,
    outcome_table,
    run_design,
)
from basketsim.fujikawa import FujikawaParams, jsd_matrices, weights_from_jsd
from basketsim.hierarchical import BhmParams, ExnexParams
from basketsim.powerprior import CppParams
from basketsim.tuning import grid_search, study

LINEAR_NULL = Scenario(1, (10, 15, 20, 25, 30), (0.15,) * 5, "Null", "Linear")
GROUPED_ASC = Scenario(8, (10, 10, 25, 25, 30), (0.15, 0.15, 0.25, 0.35, 0.35),
                       "Ascending", "Grouped")
GROUPED_ALT = Scenario(5, (10, 10, 25, 25, 30), (0.35,) * 5, "Alternative", "Grouped")

CPP_CFG = DesignConfig("CPP", CppParams(4, 4.5), lambda_=0.9)
FUJI_CFG = DesignConfig("Fujikawa", FujikawaParams(1.5, 0.0), lambda_=0.9)
BMA_CFG = DesignConfig("BMA", BmaParams(-2.0), lambda_=0.9)


def table_tails_means(config, table):
    """The tails and posterior means [U, K] of a table's rows, from one design_bank."""
    bank = design_bank(config.design, table.rows, table.sizes, config.prior, 0.15)
    return bank.tails_means(config.params)


def bank_tails_means(config, scenario, n_reps, master_seed):
    """The tails and posterior means [R, K] of one scenario's replicates, each row as often
    as its count, through the scenario's own outcome table."""
    table = outcome_table([scenario], n_reps, master_seed)
    tails, means = table_tails_means(config, table)
    counts = table.counts[scenario]
    return np.repeat(tails, counts, axis=0), np.repeat(means, counts, axis=0)


def ones(n):
    """Unit counts: every row is one replicate."""
    return np.ones(n, np.int64)


def aggregate_decisions(scenario, counts, decisions, means, p0):
    """``aggregate`` on given decisions [U, K], each a tail of 1 or 0 against one threshold
    of 0.5, weighted by a bank's replicate count on each row [U]."""
    crossed = crossing_counts(np.asarray(decisions, float), np.asarray(counts, float)[None],
                              np.array([scenario.active_truth(p0)]), np.array([0.5]),
                              strict=False)[0, :, 1:].sum(axis=1)
    return aggregate(scenario, crossed, means, counts)


def reference_oc(scenario, counts, decisions, means, p0):
    """The OC record counted directly on the decisions [U, K] of rows weighted by a bank's
    replicate count on each row [U]."""
    n_reps = int(counts.sum())
    truth = np.array(scenario.active_truth(p0))
    rejections = (counts @ decisions).tolist()
    family_errors = int(counts @ decisions[:, ~truth].any(axis=1))
    correct = sum(r if active else n_reps - r for r, active in zip(rejections, truth))
    replicate_means = np.repeat(means, counts, axis=0).T.tolist()
    return OperatingCharacteristics(
        ecd_mean=correct / n_reps, rejection_rate=tuple(r / n_reps for r in rejections),
        fwer=family_errors / n_reps, n_reps=n_reps,
        bias=tuple(math.fsum(m) / n_reps - p for m, p in zip(replicate_means, scenario.true_rates)))


def simulate(scenario, config, n_reps, master_seed):
    """One scenario's operating characteristics at the config's fixed lambda."""
    _, (oc,) = study(config, outcome_table([scenario], n_reps, master_seed))
    return oc


CLOSED_FORM = {
    "CPP": CppParams(4, 4.5),
    "APP": None,
    "LCPP": CppParams(3, 4.5),
    "Fujikawa": FujikawaParams(1.5, 0.2),
    "BMA": BmaParams(-2.0),
}
HIERARCHICAL = {"BHM": BhmParams(phi=0.661), "EXNEX": ExnexParams(phi=0.661, q=0.9)}
ALL_DESIGNS = {**CLOSED_FORM, **HIERARCHICAL}


def per_replicate_responses(scenario, n_reps, master_seed, start=0):
    """The reference bank: one SeedSequence, Philox and Generator per replicate."""
    out = np.empty((n_reps, scenario.k), dtype=np.int64)
    for i in range(n_reps):
        seq = np.random.SeedSequence(master_seed, spawn_key=(0, scenario.id, start + i))
        out[i] = np.random.Generator(np.random.Philox(seq)).binomial(
            scenario.sample_sizes, scenario.true_rates)
    return out


def correct_decisions(decisions, true_rates, p0):
    """Reference count of the baskets classified in line with their true activity."""
    return sum(bool(d) == (p > p0) for d, p in zip(decisions, true_rates))


def trial(scenario, master_seed, replicate):
    """Responses of one replicate: a bank of one."""
    return tuple(generate_responses(scenario, 1, master_seed, start=replicate)[0].tolist())


def watch_workers(monkeypatch, directory):
    """Have every forked worker record (pid, its quadrature table builds) after each block
    it evaluates, in a file of its own under ``directory``.  A worker's first block waits at
    a barrier for a second worker's, so both workers of a pool of two take a block."""
    parent, waited = os.getpid(), []
    barrier = get_context("fork").Barrier(2, timeout=60)
    evaluate_block = engine._evaluate_block

    @functools.wraps(evaluate_block)  # pickled by reference as engine._evaluate_block
    def watched(args):
        if os.getpid() != parent and not waited:
            waited.append(True)
            barrier.wait()
        result = evaluate_block(args)
        if os.getpid() != parent:
            with open(directory / f"{os.getpid()}.txt", "a") as fh:
                fh.write(f"{os.getpid()} {hierarchical.table_builds}\n")
        return result

    monkeypatch.setattr(engine, "_evaluate_block", watched)


def worker_answers(directory):
    """The (pid, table builds) that ``watch_workers`` recorded, and clear them."""
    answers = []
    for path in directory.iterdir():
        answers += [tuple(map(int, line.split())) for line in path.read_text().splitlines()]
        path.unlink()
    return answers


@st.composite
def trials(draw, size=st.integers(1, 40)):
    """(responses, sizes, permutation) for 3 to 5 baskets."""
    k = draw(st.integers(3, 5))
    sizes = draw(st.lists(size, min_size=k, max_size=k))
    responses = [draw(st.integers(0, n)) for n in sizes]
    perm = draw(st.permutations(range(k)))
    return np.array(responses), np.array(sizes), list(perm)


class TestDesignConfig:
    def test_param_type_enforced(self):
        with pytest.raises(ConfigurationError):
            DesignConfig("CPP", FujikawaParams(1.5, 0.2))
        with pytest.raises(ConfigurationError):
            DesignConfig("APP", CppParams(1, 1))
        with pytest.raises(ConfigurationError):
            DesignConfig("Nope", None)

    def test_strictness_defaults(self):
        assert not DesignConfig("CPP", CppParams(1, 1)).strict
        assert not DesignConfig("APP").strict
        assert not DesignConfig("Fujikawa", FujikawaParams(1, 0)).strict
        assert DesignConfig("BMA", BmaParams(0.0)).strict
        assert DesignConfig("BHM", BhmParams(phi=0.661)).strict

    def test_default_priors_uniform(self):
        cfg = DesignConfig("APP", lambda_=0.9)
        assert cfg.prior is None
        data = BasketData((3, 7, 0), (10, 20, 5))
        want = design_bank("APP", [data.responses], data.sample_sizes, BetaShape(1, 1),
                           0.15).tails_means(None)
        assert run_design(cfg, data).tail_probs.tolist() == want[0][0].tolist()

    @pytest.mark.parametrize("design", sorted(CLOSED_FORM))
    def test_configured_prior_reaches_the_bank(self, design):
        # one Beta(2, 3) for every basket: run_design must give the bank's bits under it,
        # not the Beta(1, 1) a prior accepted and then ignored would give
        params, data = ALL_DESIGNS[design], BasketData((3, 7, 0, 5, 2), (10, 20, 5, 15, 25))
        prior = BetaShape(2, 3)
        tails, means = design_bank(design, [data.responses], data.sample_sizes, prior,
                                   0.15).tails_means(params)
        got = run_design(DesignConfig(design, params, prior=prior, lambda_=0.9), data)
        assert got.tail_probs.tolist() == tails[0].tolist()
        assert got.posterior_means.tolist() == means[0].tolist()
        uniform = run_design(DesignConfig(design, params, lambda_=0.9), data)
        assert got.tail_probs.tolist() != uniform.tail_probs.tolist()
        assert got.posterior_means.tolist() != uniform.posterior_means.tolist()

    @pytest.mark.parametrize("design,params", [("BHM", BhmParams(phi=0.661)),
                                               ("EXNEX", ExnexParams(phi=0.661, q=0.9))])
    def test_hierarchical_designs_reject_priors(self, design, params):
        # their priors are set by params; basket priors used to be accepted and ignored
        with pytest.raises(ConfigurationError):
            DesignConfig(design, params, prior=BetaShape(1, 1))


class TestGenerateTrial:
    def test_degenerate_rates(self):
        zero = Scenario(90, (10, 20), (0.0, 0.0), "Null", "Linear")
        one = Scenario(91, (10, 20), (1.0, 1.0), "Alternative", "Linear")
        for rep in range(5):
            assert trial(zero, 7, rep) == (0, 0)
            assert trial(one, 7, rep) == (10, 20)

    def test_reproducible_and_design_independent(self):
        a = trial(LINEAR_NULL, 123, 42)
        b = trial(LINEAR_NULL, 123, 42)
        assert a == b
        bank = generate_responses(LINEAR_NULL, 50, 123)
        assert tuple(bank[42]) == a

    def test_chunked_generation_matches(self):
        full = generate_responses(LINEAR_NULL, 30, 99)
        part = generate_responses(LINEAR_NULL, 10, 99, start=20)
        np.testing.assert_array_equal(full[20:], part)

    def test_fixed_responses_bypass_sampling(self):
        s = Scenario(92, (10, 20), (0.15, 0.15), "Null", "Linear", fixed_responses=(3, 5))
        assert trial(s, 1, 0) == (3, 5)
        assert trial(s, 2, 9) == (3, 5)

    def test_law_of_large_numbers(self):
        bank = generate_responses(LINEAR_NULL, 10_000, 2024)
        rates = bank.mean(axis=0) / np.asarray(LINEAR_NULL.sample_sizes)
        for k, n in enumerate(LINEAR_NULL.sample_sizes):
            bound = 3 * math.sqrt(0.15 * 0.85 / (n * 10_000))
            assert abs(rates[k] - 0.15) <= bound


class TestBulkStreams:
    """engine._philox_keys and generate_responses against numpy's own SeedSequence."""

    REPLICATES = np.array([0, 1, 399, 9_999, 2**31 + 7, 2**32 - 1])

    @pytest.mark.parametrize("sid", [1, 18, 2**32 + 1])
    @pytest.mark.parametrize("seed", [0, 1, 42, 2**32 - 1, 2**32, 2**64 + 3, 2**200 + 17])
    def test_keys_are_seed_sequence_state(self, seed, sid):
        keys = engine._philox_keys(seed, sid, self.REPLICATES)
        assert keys.dtype == np.uint64 and keys.shape == (len(self.REPLICATES), 2)
        for key, rep in zip(keys, self.REPLICATES.tolist()):
            seq = np.random.SeedSequence(seed, spawn_key=(0, sid, rep))
            np.testing.assert_array_equal(key, seq.generate_state(2, np.uint64))

    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**256), sid=st.integers(0, 2**96),
           rep=st.integers(0, 2**32 - 1))
    def test_keys_property(self, seed, sid, rep):
        seq = np.random.SeedSequence(seed, spawn_key=(0, sid, rep))
        np.testing.assert_array_equal(engine._philox_keys(seed, sid, np.array([rep]))[0],
                                      seq.generate_state(2, np.uint64))

    @pytest.mark.parametrize("seed", [7, 2**70 + 3])
    def test_banks_match_reference_for_every_builtin_scenario(self, seed):
        for scenario in builtin_catalog():
            np.testing.assert_array_equal(
                generate_responses(scenario, 150, seed, start=9_900),
                per_replicate_responses(scenario, 150, seed, start=9_900))

    @pytest.mark.parametrize("sizes, rates", [
        ((200, 400, 60), (0.5, 0.9, 0.45)),  # n·min(p, 1 − p) > 30: the BTPE sampler
        ((10, 20, 30), (0.0, 1.0, 0.6)),
    ], ids=["btpe", "edges"])
    def test_banks_match_reference_off_the_catalog(self, sizes, rates):
        s = Scenario(2**33 + 5, sizes, rates, "Null", "Linear")
        for start in (0, 2**32 - 40):
            np.testing.assert_array_equal(generate_responses(s, 40, 11, start=start),
                                          per_replicate_responses(s, 40, 11, start=start))

    def test_empty_bank(self):
        fixed = Scenario(92, (10, 20), (0.15, 0.15), "Null", "Linear", fixed_responses=(3, 5))
        for scenario in (LINEAR_NULL, fixed):
            bank = generate_responses(scenario, 0, 5, start=7)
            assert bank.shape == (0, scenario.k) and bank.dtype == np.int64

    @pytest.mark.parametrize("seed, sid, start, n_reps", [
        (1, 1, -1, 5), (1, 1, 2**32 - 4, 5), (-1, 1, 0, 5), (1, -3, 0, 5),
    ])
    def test_out_of_range_stream_keys_rejected(self, seed, sid, start, n_reps):
        s = Scenario(sid, (10, 20), (0.15, 0.15), "Null", "Linear")
        with pytest.raises(ConfigurationError):
            generate_responses(s, n_reps, seed, start=start)


class TestRunDesign:
    def test_tail_equal_lambda_nonstrict_accepts(self):
        data = BasketData((3, 4), (10, 10))
        base = run_design(FUJI_CFG, data, 0.15)
        boundary = FUJI_CFG.with_lambda(float(base.tail_probs[0]))
        res = run_design(boundary, data, 0.15)
        assert res.decisions[0]  # Pr >= lambda declares activity

    def test_tail_equal_lambda_strict_rejects(self):
        data = BasketData((3, 4), (10, 10))
        base = run_design(BMA_CFG, data, 0.15)
        boundary = BMA_CFG.with_lambda(float(base.tail_probs[0]))
        res = run_design(boundary, data, 0.15)
        assert not res.decisions[0]  # Pr > lambda needed

    def test_lambda_one_strict_never_active(self):
        data = BasketData((10, 10), (10, 10))
        cfg = DesignConfig("BMA", BmaParams(0.0), lambda_=1.0)
        res = run_design(cfg, data, 0.15)
        assert not res.decisions.any()

    @pytest.mark.parametrize("design", ["CPP", "LCPP", "APP"])
    def test_empty_basket_borrows_nothing(self, design):
        # CPP used to give an empty basket full borrowing from a 0/0 statistic
        params = None if design == "APP" else CppParams(4, 4.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            res = run_design(DesignConfig(design, params, lambda_=0.9),
                             BasketData((0, 9), (0, 10)))
        assert res.tail_probs[0] == beta_tails(1.0, 1.0, 0.15)  # the prior's
        assert res.posterior_means.tolist() == [0.5, 10 / 12]
        assert res.decisions.tolist() == [False, True]

    def test_missing_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            run_design(DesignConfig("CPP", CppParams(4, 4.5)), BasketData((1, 2), (5, 5)))

    @pytest.mark.parametrize("design", sorted(ALL_DESIGNS))
    @pytest.mark.parametrize("responses,sizes", [((2.5, 3), (10, 10)), ((2, 3), (10.5, 10))])
    def test_fractional_counts_rejected(self, design, responses, sizes):
        # BHM used to analyse 2.5 responses as 2, BMA and the others as a fractional count
        config = DesignConfig(design, ALL_DESIGNS[design], lambda_=0.9)
        with pytest.raises(ConfigurationError, match="integer counts"):
            run_design(config, BasketData(responses, sizes))

    @pytest.mark.parametrize("design", sorted(ALL_DESIGNS))
    def test_counts_outside_their_sizes_rejected(self, design):
        for rows in ([[11, 3]], [[-1, 3]], [[2, 3], [np.nan, 3]]):
            with pytest.raises(ConfigurationError, match="integer counts"):
                design_bank(design, rows, (10, 10), BetaShape(1, 1), 0.15)

    def test_mcmc_design_runs(self):
        cfg = DesignConfig("BHM", BhmParams(phi=0.661), lambda_=0.9)
        res = run_design(cfg, BasketData((2, 5, 1, 4, 9), (10, 10, 25, 25, 30)), 0.15)
        assert res.tail_probs.shape == (5,)
        assert np.all((res.tail_probs >= 0) & (res.tail_probs <= 1))


class TestCorrectDecisions:
    """``aggregate`` counts the baskets classified in line with their true activity."""

    @staticmethod
    def ecd(decisions, true_rates, pattern):
        s = Scenario(95, (10,) * 5, true_rates, pattern, "Linear")
        return aggregate_decisions(s, ones(1), np.array([decisions]), np.zeros((1, 5)),
                                   0.15).ecd_mean

    def test_all_correct(self):
        assert self.ecd([True] * 5, (0.35,) * 5, "Alternative") == 5

    def test_null_no_rejections(self):
        assert self.ecd([False] * 5, (0.15,) * 5, "Null") == 5

    def test_ascending_mixed(self):
        truth_rates = (0.15, 0.15, 0.25, 0.35, 0.35)
        decisions = (True, False, True, True, False)
        assert self.ecd(decisions, truth_rates, "Ascending") == 3


class TestSimulate:
    def test_single_fixed_replicate_matches_correct_decisions(self):
        s = Scenario(93, (10, 10), (0.35, 0.15), "Descending", "Linear",
                     fixed_responses=(6, 1))
        oc = simulate(s, CPP_CFG, n_reps=1, master_seed=3)
        res = run_design(CPP_CFG, BasketData((6, 1), (10, 10)))
        assert oc.ecd_mean == correct_decisions(res.decisions, s.true_rates, 0.15)

    def test_bit_identical_reruns(self):
        oc1 = simulate(GROUPED_ASC, CPP_CFG, n_reps=200, master_seed=11)
        oc2 = simulate(GROUPED_ASC, CPP_CFG, n_reps=200, master_seed=11)
        assert oc1 == oc2

    def test_alternative_pattern_fwer_zero(self):
        oc = simulate(GROUPED_ALT, CPP_CFG, n_reps=100, master_seed=5)
        assert oc.fwer == 0.0

    def test_fwer_bounds_and_complementarity(self):
        oc = simulate(GROUPED_ASC, FUJI_CFG.with_lambda(0.8), n_reps=400, master_seed=7)
        inactive_rates = [oc.rejection_rate[k] for k in (0, 1)]
        assert oc.fwer >= max(inactive_rates) - 1e-12
        assert oc.fwer <= sum(inactive_rates) + 1e-12
        assert 0.0 <= oc.ecd_mean <= 5.0
        # correct and incorrect per-basket calls partition the baskets
        truth = np.asarray(GROUPED_ASC.true_rates) > 0.15
        tails, _ = bank_tails_means(FUJI_CFG, GROUPED_ASC, 400, 7)
        decisions = decisions_from_tails(tails, 0.8, strict=False)
        errors = (decisions != truth[None, :]).sum(axis=1).mean()
        assert oc.ecd_mean + errors == pytest.approx(5.0, abs=1e-12)

    def test_raising_lambda_never_raises_rejection(self):
        tails, _ = bank_tails_means(CPP_CFG, GROUPED_ASC, 300, 13)
        previous = None
        for lam in (0.5, 0.7, 0.9, 0.99):
            rates = decisions_from_tails(tails, lam, strict=False).mean(axis=0)
            if previous is not None:
                assert np.all(rates <= previous + 1e-15)
            previous = rates

    def test_parallel_chunking_is_exact(self):
        table = outcome_table([GROUPED_ASC, GROUPED_ALT], 60, 21)
        for design, params in ALL_DESIGNS.items():
            cfg = DesignConfig(design, params)
            [(counts1, means1)] = evaluate_table([cfg], table, 0.15, jobs=1, per_basket=True)
            [(counts2, means2)] = evaluate_table([cfg], table, 0.15, jobs=2, per_basket=True)
            np.testing.assert_array_equal(counts1, counts2)
            np.testing.assert_array_equal(means1, means2)

    @pytest.mark.parametrize("config", [
        DesignConfig("BHM", BhmParams(phi=0.59)),
        DesignConfig("EXNEX", ExnexParams(phi=0.59, q=0.7)),
    ], ids=["BHM", "EXNEX"])
    def test_tables_built_in_parent_only(self, config, monkeypatch, tmp_path):
        grouped = [s for s in builtin_catalog() if s.size_family == "Grouped"]
        watch_workers(monkeypatch, tmp_path)
        before = hierarchical.table_builds
        for scenario in grouped:
            table = outcome_table([scenario], 8, 4)
            evaluate_table([config], table, 0.15, jobs=2)
            answers = worker_answers(tmp_path)  # one per block, from the call's own workers
            assert len(answers) == len(table.blocks(2))
            assert len({pid for pid, _ in answers} - {os.getpid()}) == 2
            assert [builds for _, builds in answers] == [0] * len(answers)
        assert hierarchical.table_builds - before == 1

    def test_tune_tables_built_once_per_phi_in_parent(self, monkeypatch, tmp_path):
        # tune used to run every block in the parent; its workers now share the parent's tables
        grouped = [s for s in builtin_catalog() if s.size_family == "Grouped"]
        grid = [ExnexParams(phi=0.57, q=0.5), ExnexParams(phi=0.57, q=0.9),
                ExnexParams(phi=0.83, q=0.5)]
        watch_workers(monkeypatch, tmp_path)
        before = hierarchical.table_builds
        table = outcome_table(grouped, 8, 4)
        grid_search("EXNEX", table, grid=grid, jobs=2)
        answers = worker_answers(tmp_path)  # one per block, from two pools of two workers
        assert len(answers) == 2 * len(table.blocks(2))
        assert len({pid for pid, _ in answers} - {os.getpid()}) == 4
        assert [builds for _, builds in answers] == [0] * len(answers)
        assert hierarchical.table_builds - before == 2

    def test_tune_pools_follow_the_table_key(self, monkeypatch, tmp_path):
        # grid points of one phi and two mu_sd used to share a pool and, block by block,
        # evict each other's tables: 6 builds for 3 blocks at one job, and worker builds
        grouped = [s for s in builtin_catalog() if s.size_family == "Grouped"]
        grid = [BhmParams(phi=0.6), BhmParams(phi=0.6, mu_sd=2.0)]
        monkeypatch.setattr(engine, "_BLOCK_ROWS", 100)
        table = outcome_table(grouped, 40, 4)
        assert len(table.blocks()) == 3
        before = hierarchical.table_builds
        grid_search("BHM", table, grid=grid)
        assert hierarchical.table_builds - before == 2
        watch_workers(monkeypatch, tmp_path)
        before = hierarchical.table_builds
        grid_search("BHM", table, grid=grid, jobs=2)
        answers = worker_answers(tmp_path)  # one per block, from two pools of two workers
        assert len(answers) == 2 * 3
        assert [builds for _, builds in answers] == [0] * len(answers)
        assert hierarchical.table_builds - before == 2

    def test_mcmc_simulate_deterministic(self):
        cfg = DesignConfig("BHM", BhmParams(phi=0.661), lambda_=0.9)
        oc1 = simulate(GROUPED_ASC, cfg, n_reps=40, master_seed=31)
        oc2 = simulate(GROUPED_ASC, cfg, n_reps=40, master_seed=31)
        assert oc1 == oc2

    def test_bank_shared_across_designs(self):
        # the data stream ignores the design, so banks coincide by construction
        bank_for_cpp = generate_responses(GROUPED_ASC, 25, 17)
        bank_for_bma = generate_responses(GROUPED_ASC, 25, 17)
        np.testing.assert_array_equal(bank_for_cpp, bank_for_bma)


GROUPED_NULL = Scenario(2, (10, 10, 25, 25, 30), (0.15,) * 5, "Null", "Grouped")
GROUPED_FIXED = Scenario(95, (10, 10, 25, 25, 30), (0.35,) * 5, "Alternative", "Grouped",
                         fixed_responses=(3, 4, 9, 8, 11))


class TestOutcomeTable:
    def test_rows_are_distinct_and_counts_rebuild_every_bank(self):
        family = [GROUPED_NULL, GROUPED_ASC, GROUPED_ALT, GROUPED_FIXED]
        table = outcome_table(family, 200, 3)
        assert len(np.unique(table.rows, axis=0)) == len(table.rows)
        for scenario in family:
            counts = table.counts[scenario]
            assert counts.shape == (len(table.rows),) and counts.sum() == 200
            # the bank's multiset of rows; the table keeps no replicate order
            assert (sorted(np.repeat(table.rows, counts, axis=0).tolist())
                    == sorted(generate_responses(scenario, 200, 3).tolist()))
        assert np.count_nonzero(table.counts[GROUPED_FIXED]) == 1

    def test_banks_must_share_one_size_vector(self):
        with pytest.raises(ConfigurationError, match="one size vector"):
            outcome_table([LINEAR_NULL, GROUPED_ASC], 5, 1)

    def test_many_blocks_match_one_block(self, monkeypatch):
        table = outcome_table([GROUPED_NULL, GROUPED_ASC], 30, 8)
        one_block = {d: evaluate_table([DesignConfig(d, p)], table, 0.15, per_basket=True)[0]
                     for d, p in ALL_DESIGNS.items()}
        monkeypatch.setattr(engine, "_BLOCK_ROWS", 7)
        blocks = table.blocks()
        assert len(blocks) >= len(table.rows) // 7 > 1
        assert max(map(len, blocks)) <= 7
        np.testing.assert_array_equal(np.concatenate(blocks), table.rows)
        for design, params in ALL_DESIGNS.items():
            [(counts, means)] = evaluate_table([DesignConfig(design, params)], table, 0.15,
                                               per_basket=True)
            np.testing.assert_array_equal(counts, one_block[design][0])
            np.testing.assert_array_equal(means, one_block[design][1])

    @pytest.mark.parametrize("design", ["CPP", "BMA", "BHM"])
    def test_coinciding_rows_match_per_scenario_evaluation(self, design):
        # every replicate of the fixed scenario is one row of the table
        config = DesignConfig(design, ALL_DESIGNS[design])
        family = [GROUPED_NULL, GROUPED_FIXED, GROUPED_ASC]
        lam, ocs = study(config, outcome_table(family, 50, 12))
        stats = {}
        for scenario in family:
            bank = design_bank(design, generate_responses(scenario, 50, 12),
                               scenario.sample_sizes, config.prior, 0.15)
            stats[scenario] = bank.tails_means(config.params)
        assert lam == study(config, outcome_table([GROUPED_NULL], 50, 12))[0]
        for scenario, oc in zip(family, ocs):
            tails, means = stats[scenario]
            decisions = decisions_from_tails(tails, lam, config.strict)
            assert oc == aggregate_decisions(scenario, ones(50), decisions, means, 0.15)


GROUPED_ALL_RESPOND = Scenario(96, (10, 10, 25, 25, 30), (0.35,) * 5, "Alternative", "Grouped",
                               fixed_responses=(10, 10, 25, 25, 30))


class TestCrossingCounts:
    @pytest.mark.parametrize("design", ["CPP", "BMA"])  # tail >= lambda, and tail > lambda
    @pytest.mark.parametrize("lam", [0.8125, 1.0])  # off the grid, and its end
    def test_fixed_lambda_off_the_grid_matches_decisions(self, design, lam):
        config = DesignConfig(design, ALL_DESIGNS[design], lambda_=lam)
        family = [GROUPED_ASC, GROUPED_ALT, GROUPED_ALL_RESPOND]
        table = outcome_table(family, 200, 6)
        got, ocs = study(config, table)
        assert got == lam
        tails, means = table_tails_means(config, table)
        assert (tails == 1.0).any()  # a tail on the threshold 1.0
        decisions = decisions_from_tails(tails, lam, config.strict)
        expected = [reference_oc(s, table.counts[s], decisions, means, 0.15) for s in family]
        assert ocs == expected

    @given(data=st.data(), strict=st.booleans(), thresholds=st.sampled_from(
        [LAMBDA_GRID, np.array([0.8125]), np.array([1.0])]))
    @settings(max_examples=100, deadline=None)
    def test_blocks_add_up_to_the_table_and_to_direct_counts(self, data, strict, thresholds):
        k, n_rows, n_scenarios = (data.draw(st.integers(1, top)) for top in (5, 30, 3))
        tail = st.one_of(st.sampled_from([0.0, 0.8125, 1.0, *LAMBDA_GRID[::97]]),
                         st.floats(0.0, 1.0, allow_nan=False))
        tails = np.array(data.draw(st.lists(st.lists(tail, min_size=k, max_size=k),
                                            min_size=n_rows, max_size=n_rows)))
        weights = np.array([data.draw(st.lists(st.integers(0, 6), min_size=n_rows,
                                               max_size=n_rows)) for _ in range(n_scenarios)])
        truth = np.array([data.draw(st.lists(st.booleans(), min_size=k, max_size=k))
                          for _ in range(n_scenarios)])
        cuts = sorted(data.draw(st.lists(st.integers(0, n_rows), max_size=4)))
        bounds = [0, *cuts, n_rows]
        whole = crossing_counts(tails, weights.astype(float), truth, thresholds, strict)
        blocks = sum(crossing_counts(tails[a:b], weights[:, a:b].astype(float), truth,
                                     thresholds, strict) for a, b in zip(bounds, bounds[1:]))
        np.testing.assert_array_equal(blocks, whole)
        # the count at each threshold, against the decisions there
        at = np.flip(np.cumsum(np.flip(whole, axis=2), axis=2), axis=2)[:, :, 1:]
        for j, lam in enumerate(thresholds):
            decisions = decisions_from_tails(tails, lam, strict)
            for s, (w, active) in enumerate(zip(weights, truth)):
                errors = w @ decisions[:, ~active].any(axis=1)
                correct = w @ (decisions == active).sum(axis=1)
                assert at[s, :, j].tolist() == [errors, correct, *(w @ decisions)]


class TestAggregate:
    def test_counts_and_bias(self):
        s = Scenario(94, (10, 10), (0.35, 0.15), "Descending", "Linear")
        decisions = np.array([[True, False], [False, False], [True, True], [True, False]])
        means = np.array([[0.4, 0.2], [0.3, 0.1], [0.5, 0.3], [0.4, 0.2]])
        oc = aggregate_decisions(s, ones(4), decisions, means, 0.15)
        assert oc.rejection_rate == (0.75, 0.25)
        assert oc.fwer == 0.25  # only basket 2 is inactive
        assert oc.ecd_mean == pytest.approx((2 + 1 + 1 + 2) / 4)
        assert oc.bias[0] == pytest.approx(0.4 - 0.35)
        assert oc.bias[1] == pytest.approx(0.2 - 0.15)

    @given(data=st.data(), k=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_weighted_rows_match_their_replicates(self, data, k, seed):
        counts = np.array(data.draw(st.lists(st.integers(0, 5), min_size=1, max_size=12)))
        assume(counts.sum() > 0)
        rates = tuple(data.draw(st.sampled_from([0.15, 0.35])) for _ in range(k))
        s = Scenario(94, (10,) * k, rates, "Alternative", "Linear")
        rng = np.random.default_rng(seed)
        decisions = rng.random((len(counts), k)) < 0.5
        means = rng.random((len(counts), k))
        weighted = aggregate_decisions(s, counts, decisions, means, 0.15)
        assert weighted == reference_oc(s, counts, decisions, means, 0.15)
        replicates = rng.permutation(np.repeat(np.arange(len(counts)), counts))
        assert weighted == aggregate_decisions(s, ones(len(replicates)), decisions[replicates],
                                               means[replicates], 0.15)
        # rows no replicate lands on change nothing
        extra_decisions = rng.random((3, k)) < 0.5
        extra_means = rng.random((3, k))
        padded = aggregate_decisions(s, np.concatenate([counts, np.zeros(3, np.int64)]),
                                     np.concatenate([decisions, extra_decisions]),
                                     np.concatenate([means, extra_means]), 0.15)
        assert padded == weighted


class TestClosedFormBank:
    """engine.design_bank, the one bank kernel of all seven designs."""

    @pytest.mark.parametrize("design", sorted(ALL_DESIGNS))
    def test_bank_of_one_is_bitwise_a_row_of_the_bank(self, design):
        params = ALL_DESIGNS[design]
        prior = BetaShape(1, 1)
        responses = generate_responses(GROUPED_ASC, 40, 19)
        sizes = GROUPED_ASC.sample_sizes
        tails, means = design_bank(design, responses, sizes, prior, 0.15).tails_means(params)
        config = DesignConfig(design, params, lambda_=0.9)
        for i, row in enumerate(responses):
            one_t, one_m = design_bank(design, row[None], sizes, prior, 0.15).tails_means(params)
            np.testing.assert_array_equal(one_t[0], tails[i])
            np.testing.assert_array_equal(one_m[0], means[i])
            single = run_design(config, BasketData(tuple(map(int, row)), sizes), 0.15)
            np.testing.assert_array_equal(single.tail_probs, tails[i])
            np.testing.assert_array_equal(single.posterior_means, means[i])

    def test_unknown_design_rejected(self):
        assert set(ALL_DESIGNS) == set(DESIGNS)
        with pytest.raises(ConfigurationError):
            design_bank("Nope", [[1, 2]], (5, 5), BetaShape(1, 1), 0.15)

    @pytest.mark.parametrize("design", sorted(CLOSED_FORM))
    @settings(max_examples=25, deadline=None)
    @given(trial=trials())
    def test_label_permutation_equivariance_and_ranges(self, design, trial):
        responses, sizes, perm = trial
        params = CLOSED_FORM[design]
        prior = BetaShape(1, 1)
        tails, means = design_bank(
            design, responses[None], sizes, prior, 0.15).tails_means(params)
        tails_p, means_p = design_bank(
            design, responses[perm][None], sizes[perm], prior, 0.15).tails_means(params)
        np.testing.assert_allclose(tails_p[0], tails[0][perm], atol=1e-12)
        np.testing.assert_allclose(means_p[0], means[0][perm], atol=1e-12)
        assert np.all((tails >= 0.0) & (tails <= 1.0))
        assert np.all((means > 0.0) & (means < 1.0))
        if design == "BMA":
            return
        if design == "Fujikawa":
            weights = weights_from_jsd(jsd_matrices(1.0 + responses, 1.0 + sizes - responses), params)
        else:
            weights = design_bank(design, responses[None], sizes, prior, 0.15).weights(params)[0]
        assert np.all((weights >= 0.0) & (weights <= 1.0))
        assert np.all(np.diag(weights) == 1.0)

    @pytest.mark.parametrize("design", sorted(HIERARCHICAL))
    @settings(max_examples=25, deadline=None)
    # empty baskets included; few distinct sizes, so the quadrature tables are reused
    @given(trial=trials(size=st.sampled_from([0, 3, 10, 25])))
    def test_hierarchical_label_permutation_equivariance(self, design, trial):
        responses, sizes, perm = trial
        params = HIERARCHICAL[design]
        tails, means = design_bank(design, responses[None], sizes, None, 0.15).tails_means(params)
        tails_p, means_p = design_bank(
            design, responses[perm][None], sizes[perm], None, 0.15).tails_means(params)
        np.testing.assert_allclose(tails_p[0], tails[0][perm], atol=1e-12)
        np.testing.assert_allclose(means_p[0], means[0][perm], atol=1e-12)
        assert np.all((tails >= 0.0) & (tails <= 1.0))
        assert np.all((means > 0.0) & (means < 1.0))
