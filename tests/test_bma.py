import itertools
import math

import numpy as np
import pytest

from basketsim import bma
from basketsim.bma import BmaBank, BmaParams
from basketsim.core import BasketData, BetaShape, ConfigurationError, beta_tails
from basketsim.engine import REGISTRY, DesignConfig, run_design
from scalar_reference import BmaBankByShapes, blocks, edge_case_banks, log_marginal_likelihood


def brute_force_partitions(k):
    """All canonical restricted-growth strings by filtering raw assignments."""
    canonical = []
    for assignment in itertools.product(range(k), repeat=k):
        seen = -1
        ok = True
        for label in assignment:
            if label > seen + 1:
                ok = False
                break
            seen = max(seen, label)
        if ok:
            canonical.append(assignment)
    return canonical


def log_marginal_by_grid(partition, data, points=10 ** 5):
    """Grid-integration oracle for the Beta(1,1) block marginal likelihood."""
    ps = (np.arange(points) + 0.5) / points
    log_ps, log_qs = np.log(ps), np.log1p(-ps)
    total = 0.0
    for block in blocks(partition):
        r = sum(data.responses[i] for i in block)
        n = sum(data.sample_sizes[i] for i in block)
        log_vals = r * log_ps + (n - r) * log_qs
        peak = log_vals.max()
        total += peak + math.log(np.exp(log_vals - peak).sum() / points)
    return total


def kernel_log_marginals(data, prior=BetaShape(1, 1)):
    """Log marginal likelihood of every partition from the BMA kernel, in the order
    of ``bma._labels``: those of a bank of one."""
    return BmaBank([data.responses], data.sample_sizes, prior, 0.15)._log_marginals[0]


def kernel_model_probs(data, psi, prior=BetaShape(1, 1)):
    return bma._model_space(data.k).model_probs(kernel_log_marginals(data, prior), psi)


def bma_tails_means(data, psi, p0=0.15, prior=BetaShape(1, 1)):
    """Model-averaged tails and means of one data set: a bank of one."""
    tails, means = BmaBank([data.responses], data.sample_sizes, prior, p0).tails_means(
        BmaParams(psi=psi))
    return tails[0], means[0]


class TestEnumeratePartitions:
    @pytest.mark.parametrize("k,bell", [(2, 2), (3, 5), (4, 15), (5, 52), (6, 203)])
    def test_bell_counts(self, k, bell):
        assert len(bma._labels(k).tolist()) == bell

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_matches_brute_force_filter(self, k):
        got = [tuple(p) for p in bma._labels(k).tolist()]
        assert sorted(got) == sorted(brute_force_partitions(k))
        assert len(set(got)) == len(got)

    def test_deterministic_order_and_pooled_first(self):
        parts = [tuple(p) for p in bma._labels(4).tolist()]
        assert parts == [tuple(p) for p in bma._labels(4).tolist()]
        assert parts[0] == (0, 0, 0, 0)
        assert max(parts[0]) + 1 == 1

    def test_cap_enforced(self):
        with pytest.raises(ConfigurationError):
            bma.block_rows(13)
        with pytest.raises(ConfigurationError):
            bma.block_rows(1)

    @pytest.mark.parametrize("k", [1, 5])
    def test_bank_checks_the_cap_before_enumerating(self, k, monkeypatch):
        monkeypatch.setattr(bma, "MAX_BASKETS", 4)
        monkeypatch.setattr(bma, "_model_space", lambda k: pytest.fail("enumerated"))
        with pytest.raises(ConfigurationError, match="supports 2..4 baskets"):
            BmaBank([[1] * k], (5,) * k, BetaShape(1, 1), 0.15)

    def test_bell_numbers_count_the_partitions(self):
        assert [len(bma._labels(k)) for k in range(1, 10)] == list(bma.BELL[1:10])

    def test_bank_checks_its_memory_before_enumerating(self, monkeypatch):
        # 24 bytes per row, basket and model: 4,096 rows of K = 8 need 3,255,828,480 bytes
        monkeypatch.setattr(bma, "_model_space", lambda k: pytest.fail("enumerated"))
        with pytest.raises(ConfigurationError, match="BMA over 8 baskets needs 3255828480 "):
            BmaBank([[1] * 8] * 4096, (5,) * 8, BetaShape(1, 1), 0.15)


class TestModelSpace:
    @pytest.mark.parametrize("k", range(2, 9))
    def test_arrays_name_each_partitions_blocks(self, k):
        space = bma._model_space(k)
        subsets = [tuple(np.flatnonzero(row).tolist()) for row in space.member]
        assert len(set(subsets)) == len(subsets)
        for j, partition in enumerate(bma._labels(k).tolist()):
            parts, index = blocks(partition), space.partition_index[j].tolist()
            # the partition's blocks as basket sets, in label order, then the padding
            assert [subsets[s] for s in index[:len(parts)]] == parts
            assert index[len(parts):] == [len(subsets)] * (k - len(parts))
            assert space.basket_subset[j].tolist() == [index[label] for label in partition]


class TestLogMarginalLikelihood:
    def test_separate_partition_is_additive(self):
        from basketsim.core import log_beta

        data = BasketData((3, 7), (10, 20))
        got = kernel_log_marginals(data)[1]  # partition (0, 1)
        expected = log_beta(1 + 3, 1 + 7) + log_beta(1 + 7, 1 + 13)
        assert got == pytest.approx(expected, abs=1e-12)

    def test_pooled_duplicated_data(self):
        from basketsim.core import log_beta

        r, n = 4, 12
        data = BasketData((r, r), (n, n))
        got = kernel_log_marginals(data)[0]  # partition (0, 0)
        assert got == pytest.approx(log_beta(1 + 2 * r, 1 + 2 * (n - r)), abs=1e-12)

    def test_all_partitions_match_grid_oracle(self):
        data = BasketData((2, 3, 8), (10, 10, 10))
        prior = BetaShape(1, 1)
        got = kernel_log_marginals(data, prior)
        for partition, value in zip(bma._labels(3).tolist(), got):
            assert value == pytest.approx(log_marginal_by_grid(partition, data), abs=1e-6)
            assert value == pytest.approx(
                log_marginal_likelihood(partition, data, prior), abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            BmaBank([[1, 2]], (5, 5, 5), BetaShape(1, 1), 0.15)


class TestPosteriorModelProbs:
    def test_normalized_and_nonnegative(self):
        data = BasketData((2, 3, 8), (10, 10, 10))
        probs = kernel_model_probs(data, psi=-2)
        assert abs(probs.sum() - 1.0) < 1e-12
        assert np.all(probs >= 0.0)

    def test_psi_zero_is_likelihood_only(self):
        data = BasketData((2, 3, 8), (10, 10, 10))
        prior = BetaShape(1, 1)
        probs = kernel_model_probs(data, psi=0.0, prior=prior)
        partitions = bma._labels(3).tolist()
        lm = np.array([log_marginal_likelihood(p, data, prior) for p in partitions])
        expected = np.exp(lm - lm.max())
        expected /= expected.sum()
        np.testing.assert_allclose(probs, expected, atol=1e-12)

    def test_strongly_negative_psi_forces_pooling(self):
        data = BasketData((2, 3, 8), (10, 10, 10))
        probs = kernel_model_probs(data, psi=-50.0)
        assert probs[0] == pytest.approx(1.0, abs=1e-9)  # index 0 is the pooled model


class TestBmaTailProbs:
    def test_identical_baskets_symmetric(self):
        tails, _ = bma_tails_means(BasketData((4, 4), (15, 15)), psi=0.0)
        assert tails[0] == pytest.approx(tails[1], abs=1e-12)

    def test_forced_pooling_limit(self):
        tails, _ = bma_tails_means(BasketData((2, 9), (10, 20)), psi=-50.0)
        pooled = beta_tails(1 + 11, 1 + 19, 0.15)
        np.testing.assert_allclose(tails, pooled, atol=1e-8)

    def test_matches_brute_force_model_average(self):
        data = BasketData((2, 3, 8), (10, 10, 10))
        p0 = 0.15
        psi = 0.0
        partitions = bma._labels(3).tolist()
        log_w = np.array([
            (max(p) + 1) * psi + log_marginal_by_grid(p, data) for p in partitions
        ])
        w = np.exp(log_w - log_w.max())
        w /= w.sum()
        expected = np.zeros(3)
        model_tails = np.zeros((len(partitions), 3))
        for j, partition in enumerate(partitions):
            for block in blocks(partition):
                r = sum(data.responses[i] for i in block)
                n = sum(data.sample_sizes[i] for i in block)
                tail = beta_tails(1 + r, 1 + (n - r), p0)
                for basket in block:
                    model_tails[j, basket] = tail
            expected += w[j] * model_tails[j]
        got, _ = bma_tails_means(data, psi, p0)
        np.testing.assert_allclose(got, expected, atol=1e-6)
        # convex combination: within the min/max of model-specific tails
        assert np.all(got >= model_tails.min(axis=0) - 1e-12)
        assert np.all(got <= model_tails.max(axis=0) + 1e-12)

    def test_label_permutation_equivariance(self):
        data = BasketData((2, 3, 8, 5), (10, 10, 10, 25))
        perm = [2, 0, 3, 1]
        permuted = BasketData(
            tuple(data.responses[i] for i in perm),
            tuple(data.sample_sizes[i] for i in perm),
        )
        tails, means = bma_tails_means(data, psi=-2.0)
        tails_perm, means_perm = bma_tails_means(permuted, psi=-2.0)
        np.testing.assert_allclose(tails_perm, tails[perm], atol=1e-12)
        np.testing.assert_allclose(means_perm, means[perm], atol=1e-12)

    @pytest.mark.parametrize("psi", [bma.MAX_PSI, -bma.MAX_PSI])
    def test_largest_psi_stays_finite(self, psi):
        # one block model takes all the weight, with no inf - inf on the way
        tails, means = bma_tails_means(BasketData((2, 3, 8, 0, 10), (10, 10, 10, 20, 20)), psi)
        assert np.isfinite(tails).all() and np.isfinite(means).all()
        pooled = beta_tails(1 + 23, 1 + 47, 0.15)
        separate = beta_tails([3, 4, 9, 1, 11], [9, 8, 3, 21, 11], 0.15)
        np.testing.assert_allclose(tails, pooled if psi < 0 else separate, rtol=1e-12)

    @pytest.mark.parametrize("psi", [1e308, -1e308, math.inf, math.nan])
    def test_overflowing_psi_rejected(self, psi):
        with pytest.raises(ValueError, match="^psi "):
            BmaParams(psi)

    def test_decision_stats_consistent_with_public_ops(self):
        # the bank kernel and run_design, the one-data-set API, agree bit for bit
        data = BasketData((2, 3, 8), (10, 10, 10))
        tails, means = bma_tails_means(data, psi=-2.0)
        res = run_design(DesignConfig("BMA", BmaParams(-2.0), lambda_=0.9), data, 0.15)
        np.testing.assert_array_equal(tails, res.tail_probs)
        np.testing.assert_array_equal(means, res.posterior_means)


def assert_bits_equal(got, expected):
    np.testing.assert_array_equal(np.asarray(got).view(np.int64),
                                  np.asarray(expected).view(np.int64))


class TestTableBank:
    """The pooled-count tables against ``BmaBankByShapes``, which pools and evaluates
    every row's subset shapes one by one: equal bits in every statistic."""

    @pytest.mark.parametrize("prior", [BetaShape(1, 1), BetaShape(0.5, 2.5), BetaShape(2, 3)])
    @pytest.mark.parametrize("k", [2, 3, 4, 5, 6])
    def test_matches_shape_reference(self, k, prior):
        for rows, sizes in edge_case_banks(k):
            ref = BmaBankByShapes(rows, sizes, prior, 0.15)
            shuffle = np.random.default_rng(k).permutation(len(rows))
            bank, shuffled = (BmaBank(bank_rows, sizes, prior, 0.15)
                              for bank_rows in (rows, rows[shuffle]))
            singles = {i: BmaBank(rows[[i]], sizes, prior, 0.15) for i in (0, -4, -2, -1)}
            assert_bits_equal(bank._log_marginals, ref.log_marginals)
            assert_bits_equal(bank._tails, ref.tails)
            assert_bits_equal(bank._means, ref.means)
            for params in REGISTRY["BMA"].grid:
                expected = ref.tails_means(params.psi)
                for got, want in zip(bank.tails_means(params), expected):
                    assert_bits_equal(got, want)
                for got, want in zip(shuffled.tails_means(params), expected):
                    assert_bits_equal(got, want[shuffle])
                for i, single in singles.items():
                    for got, want in zip(single.tails_means(params), expected):
                        assert_bits_equal(got, want[[i]])
