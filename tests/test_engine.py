import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from basketsim.bma import BmaParams
from basketsim.core import BasketData, BetaShape, ConfigurationError, NullRate, Scenario
from basketsim.engine import (
    ClosedFormBank,
    DesignConfig,
    aggregate,
    correct_decisions,
    decisions_from_tails,
    generate_responses,
    generate_trial,
    run_design,
    scenario_tails_means,
    simulate,
)
from basketsim.fujikawa import FujikawaParams, jsd_matrices, weights_from_jsd
from basketsim.hierarchical import BhmParams, McmcConfig
from basketsim.powerprior import CppParams, PowerPriorBank

LINEAR_NULL = Scenario(1, (10, 15, 20, 25, 30), (0.15,) * 5, "Null", "Linear")
GROUPED_ASC = Scenario(8, (10, 10, 25, 25, 30), (0.15, 0.15, 0.25, 0.35, 0.35),
                       "Ascending", "Grouped")
GROUPED_ALT = Scenario(5, (10, 10, 25, 25, 30), (0.35,) * 5, "Alternative", "Grouped")

CPP_CFG = DesignConfig("CPP", CppParams(4, 4.5), lambda_=0.9)
FUJI_CFG = DesignConfig("Fujikawa", FujikawaParams(1.5, 0.0), lambda_=0.9)
BMA_CFG = DesignConfig("BMA", BmaParams(-2.0), lambda_=0.9)

CLOSED_FORM = {
    "CPP": CppParams(4, 4.5),
    "APP": None,
    "LCPP": CppParams(3, 4.5),
    "Fujikawa": FujikawaParams(1.5, 0.2),
    "BMA": BmaParams(-2.0),
}


@st.composite
def trials(draw):
    """(responses, sizes, permutation) for 3 to 5 baskets."""
    k = draw(st.integers(3, 5))
    sizes = draw(st.lists(st.integers(1, 40), min_size=k, max_size=k))
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
        cfg = DesignConfig("APP")
        assert cfg.prior_list(3) == [BetaShape(1, 1)] * 3


class TestGenerateTrial:
    def test_degenerate_rates(self):
        zero = Scenario(90, (10, 20), (0.0, 0.0), "Null", "Linear")
        one = Scenario(91, (10, 20), (1.0, 1.0), "Alternative", "Linear")
        for rep in range(5):
            assert generate_trial(zero, 7, rep).responses == (0, 0)
            assert generate_trial(one, 7, rep).responses == (10, 20)

    def test_reproducible_and_design_independent(self):
        a = generate_trial(LINEAR_NULL, 123, 42)
        b = generate_trial(LINEAR_NULL, 123, 42)
        assert a == b
        bank = generate_responses(LINEAR_NULL, 50, 123)
        assert tuple(bank[42]) == a.responses

    def test_chunked_generation_matches(self):
        full = generate_responses(LINEAR_NULL, 30, 99)
        part = generate_responses(LINEAR_NULL, 10, 99, start=20)
        np.testing.assert_array_equal(full[20:], part)

    def test_fixed_responses_bypass_sampling(self):
        s = Scenario(92, (10, 20), (0.15, 0.15), "Null", "Linear", fixed_responses=(3, 5))
        assert generate_trial(s, 1, 0).responses == (3, 5)
        assert generate_trial(s, 2, 9).responses == (3, 5)

    def test_law_of_large_numbers(self):
        bank = generate_responses(LINEAR_NULL, 10_000, 2024)
        rates = bank.mean(axis=0) / np.asarray(LINEAR_NULL.sample_sizes)
        for k, n in enumerate(LINEAR_NULL.sample_sizes):
            bound = 3 * math.sqrt(0.15 * 0.85 / (n * 10_000))
            assert abs(rates[k] - 0.15) <= bound


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

    def test_missing_lambda_rejected(self):
        with pytest.raises(ConfigurationError):
            run_design(DesignConfig("CPP", CppParams(4, 4.5)), BasketData((1, 2), (5, 5)))

    def test_mcmc_design_runs(self):
        cfg = DesignConfig(
            "BHM", BhmParams(phi=0.661), lambda_=0.9,
            mcmc=McmcConfig(total_samples=1500, seed=5),
        )
        res = run_design(cfg, BasketData((2, 5, 1, 4, 9), (10, 10, 25, 25, 30)), 0.15)
        assert res.tail_probs.shape == (5,)
        assert np.all((res.tail_probs >= 0) & (res.tail_probs <= 1))


class TestCorrectDecisions:
    def test_all_correct(self):
        assert correct_decisions([True] * 5, [0.35] * 5, 0.15) == 5

    def test_null_no_rejections(self):
        assert correct_decisions([False] * 5, [0.15] * 5, 0.15) == 5

    def test_ascending_mixed(self):
        truth_rates = (0.15, 0.15, 0.25, 0.35, 0.35)
        decisions = (True, False, True, True, False)
        assert correct_decisions(decisions, truth_rates, 0.15) == 3


class TestSimulate:
    def test_single_fixed_replicate_matches_correct_decisions(self):
        s = Scenario(93, (10, 10), (0.35, 0.15), "Descending", "Linear",
                     fixed_responses=(6, 1))
        oc = simulate(s, CPP_CFG, n_reps=1, master_seed=3)
        res = run_design(CPP_CFG, BasketData((6, 1), (10, 10)), NullRate())
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
        tails, _ = scenario_tails_means(FUJI_CFG, GROUPED_ASC, 400, 7, 0.15)
        decisions = decisions_from_tails(tails, 0.8, strict=False)
        errors = (decisions != truth[None, :]).sum(axis=1).mean()
        assert oc.ecd_mean + errors == pytest.approx(5.0, abs=1e-12)

    def test_raising_lambda_never_raises_rejection(self):
        tails, _ = scenario_tails_means(CPP_CFG, GROUPED_ASC, 300, 13, 0.15)
        previous = None
        for lam in (0.5, 0.7, 0.9, 0.99):
            rates = decisions_from_tails(tails, lam, strict=False).mean(axis=0)
            if previous is not None:
                assert np.all(rates <= previous + 1e-15)
            previous = rates

    def test_parallel_chunking_is_exact(self):
        tails1, means1 = scenario_tails_means(CPP_CFG, GROUPED_ASC, 60, 21, 0.15, jobs=1)
        tails2, means2 = scenario_tails_means(CPP_CFG, GROUPED_ASC, 60, 21, 0.15, jobs=2)
        np.testing.assert_array_equal(tails1, tails2)
        np.testing.assert_array_equal(means1, means2)

    def test_mcmc_simulate_deterministic(self):
        cfg = DesignConfig(
            "BHM", BhmParams(phi=0.661), lambda_=0.9,
            mcmc=McmcConfig(total_samples=800),
        )
        oc1 = simulate(GROUPED_ASC, cfg, n_reps=40, master_seed=31)
        oc2 = simulate(GROUPED_ASC, cfg, n_reps=40, master_seed=31)
        assert oc1 == oc2

    def test_bank_shared_across_designs(self):
        # the data stream ignores the design, so banks coincide by construction
        bank_for_cpp = generate_responses(GROUPED_ASC, 25, 17)
        bank_for_bma = generate_responses(GROUPED_ASC, 25, 17)
        np.testing.assert_array_equal(bank_for_cpp, bank_for_bma)


class TestAggregate:
    def test_counts_and_bias(self):
        s = Scenario(94, (10, 10), (0.35, 0.15), "Descending", "Linear")
        decisions = np.array([[True, False], [False, False], [True, True], [True, False]])
        means = np.array([[0.4, 0.2], [0.3, 0.1], [0.5, 0.3], [0.4, 0.2]])
        oc = aggregate(s, decisions, means, 0.15)
        assert oc.rejection_rate == (0.75, 0.25)
        assert oc.fwer == 0.25  # only basket 2 is inactive
        assert oc.ecd_mean == pytest.approx((2 + 1 + 1 + 2) / 4)
        assert oc.bias[0] == pytest.approx(0.4 - 0.35)
        assert oc.bias[1] == pytest.approx(0.2 - 0.15)


class TestClosedFormBank:
    @pytest.mark.parametrize("design", sorted(CLOSED_FORM))
    def test_bank_of_one_is_bitwise_a_row_of_the_bank(self, design):
        params = CLOSED_FORM[design]
        priors = [BetaShape(1, 1)] * 5
        responses = generate_responses(GROUPED_ASC, 40, 19)
        sizes = GROUPED_ASC.sample_sizes
        tails, means = ClosedFormBank(design, responses, sizes, priors, 0.15).tails_means(params)
        config = DesignConfig(design, params, lambda_=0.9)
        for i, row in enumerate(responses):
            one_t, one_m = ClosedFormBank(design, row[None], sizes, priors, 0.15).tails_means(params)
            np.testing.assert_array_equal(one_t[0], tails[i])
            np.testing.assert_array_equal(one_m[0], means[i])
            single = run_design(config, BasketData(tuple(map(int, row)), sizes), 0.15)
            np.testing.assert_array_equal(single.tail_probs, tails[i])
            np.testing.assert_array_equal(single.posterior_means, means[i])

    def test_unknown_design_rejected(self):
        with pytest.raises(ConfigurationError):
            ClosedFormBank("BHM", [[1, 2]], (5, 5), [BetaShape(1, 1)] * 2, 0.15)

    @pytest.mark.parametrize("design", sorted(CLOSED_FORM))
    @settings(max_examples=25, deadline=None)
    @given(trial=trials())
    def test_label_permutation_equivariance_and_ranges(self, design, trial):
        responses, sizes, perm = trial
        params = CLOSED_FORM[design]
        priors = [BetaShape(1, 1)] * len(sizes)
        tails, means = ClosedFormBank(
            design, responses[None], sizes, priors, 0.15).tails_means(params)
        tails_p, means_p = ClosedFormBank(
            design, responses[perm][None], sizes[perm], priors, 0.15).tails_means(params)
        np.testing.assert_allclose(tails_p[0], tails[0][perm], atol=1e-12)
        np.testing.assert_allclose(means_p[0], means[0][perm], atol=1e-12)
        assert np.all((tails >= 0.0) & (tails <= 1.0))
        assert np.all((means > 0.0) & (means < 1.0))
        if design == "BMA":
            return
        if design == "Fujikawa":
            weights = weights_from_jsd(jsd_matrices(1.0 + responses, 1.0 + sizes - responses), params)
        else:
            weights = PowerPriorBank(design, responses, sizes).weights(params)
        assert np.all((weights >= 0.0) & (weights <= 1.0))
        assert np.all(np.diag(weights) == 1.0)
