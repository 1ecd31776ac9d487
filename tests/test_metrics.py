import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalrules import (
    ConfigError,
    CriteriaWeights,
    PartitionedDatabase,
    MiningConfig,
    compute_metrics,
    mine,
    recommended_min_correlation,
)
from goalrules.metrics import UNIT_WEIGHTS, quality, support
from goalrules.preprocess import replicate
from conftest import brute_support, build_pdb, random_pdb


def random_wide_pdb(m: int, seed: int) -> PartitionedDatabase:
    """Random records over m properties, several bits each, in three goals
    (the last one empty), so codes straddle the 64-bit limb boundaries."""
    rng = random.Random(seed)
    parts = [
        [rng.randrange(1, 1 << m) | 1 << rng.randrange(m - 3, m) for _ in range(n)]
        for n in (150, 77, 0)
    ]
    return build_pdb(parts, m)


def wide_premises(m: int, rng: random.Random) -> list[int]:
    """The empty premise, bits beyond the catalog, single bits at the limb
    edges and random premises of 1 to 4 bits."""
    edges = [1 << i for i in {0, 62, 63, 64, 65, m - 1} if i < m]
    drawn = [sum(1 << i for i in rng.sample(range(m), rng.randint(1, 4))) for _ in range(60)]
    return [0, 1 << m, 1 << m | 1] + edges + drawn


class TestSupport:
    def db(self):
        # records 0b101, 0b111 in goal 0; 0b011 in goal 1
        return build_pdb([[5, 7], [3]], m=3)

    def test_premise_contained(self):
        result = support(5, self.db())
        assert result == (2, 0)
        assert sum(result) == 2

    def test_empty_premise_matches_everything(self):
        assert support(0, self.db()) == (2, 1)

    def test_single_bits(self):
        db = self.db()
        assert support(1, db) == (2, 1)
        assert support(2, db) == (1, 1)
        assert support(4, db) == (2, 0)

    def test_unused_bit_has_no_support(self):
        assert support(8, self.db()) == (0, 0)

    def test_negative_premise_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            support(-1, self.db())

    def test_empty_partition(self):
        assert support(1, build_pdb([[1], []], m=1)) == (1, 0)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_anti_monotone_under_premise_growth(self, seed):
        rng = random.Random(seed)
        pdb = random_pdb(rng)
        m = len(pdb.catalog)
        x = rng.randrange(0, 1 << m)
        z = x | rng.randrange(0, 1 << m)
        sup_x = support(x, pdb)
        sup_z = support(z, pdb)
        assert all(a <= b for a, b in zip(sup_z, sup_x))

    @pytest.mark.parametrize("m", [63, 64, 65, 130])
    def test_support_matches_brute_force(self, m):
        pdb = random_wide_pdb(m, seed=m)
        for premise in wide_premises(m, random.Random(m)):
            assert support(premise, pdb) == brute_support(premise, pdb), premise

    @given(seed=st.integers(0, 10_000), factor=st.integers(1, 4))
    @settings(max_examples=60, deadline=None)
    def test_random_premises_match_brute_force_and_scale(self, seed, factor):
        rng = random.Random(seed)
        pdb = random_pdb(rng)
        big = replicate(pdb, factor)
        for _ in range(8):
            premise = rng.randrange(0, 1 << len(pdb.catalog))
            counts = support(premise, pdb)
            assert counts == brute_support(premise, pdb)
            assert support(premise, big) == tuple(c * factor for c in counts)


class TestWeights:
    def test_defaults_are_unit(self):
        assert CriteriaWeights().as_tuple() == (1.0, 1.0, 1.0, 1.0)
        assert UNIT_WEIGHTS.as_tuple() == (1.0, 1.0, 1.0, 1.0)

    def test_negative_rejected(self):
        with pytest.raises(ConfigError, match="non-negative"):
            CriteriaWeights(p2=-0.1)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_rejected(self, bad):
        with pytest.raises(ConfigError, match="finite"):
            CriteriaWeights(1.0, bad, 1.0, 1.0)

    @pytest.mark.parametrize("bad", [True, "1"])
    def test_non_number_rejected(self, bad):
        # a bool would read as 1 and text would fail later with a TypeError
        with pytest.raises(ConfigError, match="^criteria weights must be real numbers$"):
            CriteriaWeights(bad, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize("weights", [(1e308,) * 4, (0.0, 1.7e308, 1.7e308, 0.0)])
    def test_overflowing_sum_rejected(self, weights):
        # quality could reach the sum of the weights, which overflows to inf
        with pytest.raises(ConfigError, match="finite sum"):
            CriteriaWeights(*weights)

    def test_all_zero_rejected(self):
        with pytest.raises(ConfigError, match="at least one"):
            CriteriaWeights(0.0, 0.0, 0.0, 0.0)

    def test_projection_weights(self):
        assert quality(0.2, 0.4, 0.6, 0.1, CriteriaWeights(0, 0, 1, 0)) == 0.6
        assert quality(0.2, 0.4, 0.6, 0.1, CriteriaWeights(2, 0, 0, 0)) == 0.4


class TestComputeMetrics:
    def test_plain_case(self):
        m = compute_metrics(3, 4, 5, 10)
        assert m.f_g == 0.6
        assert m.f_all == 0.3
        assert m.confidence == 0.75
        assert m.lift == 1.5
        assert m.correlation == 0.5  # (1.5 - 1) / (2 - 1)
        assert m.quality == 0.3 + 0.6 + 0.75 + 0.5

    def test_zero_goal_support_pins_negative_one(self):
        m = compute_metrics(0, 4, 5, 10)
        assert (m.f_g, m.f_all, m.confidence, m.lift) == (0.0, 0.0, 0.0, 0.0)
        assert m.correlation == -1.0

    def test_independence_pins_zero(self):
        m = compute_metrics(2, 4, 5, 10)
        assert m.lift == 1.0
        assert m.correlation == 0.0

    def test_negative_branch_is_lift_minus_one(self):
        m = compute_metrics(1, 4, 5, 10)
        assert m.lift == 0.5
        assert m.correlation == -0.5

    def test_premise_only_in_goal_pins_one(self):
        m = compute_metrics(4, 4, 5, 15)
        assert m.lift == 3.0  # equals the attainable maximum N / n_k
        assert m.correlation == 1.0

    def test_single_populated_goal_has_zero_correlation(self):
        m = compute_metrics(4, 4, 10, 10)
        assert m.confidence == 1.0
        assert m.correlation == 0.0

    @pytest.mark.parametrize(
        "args,msg",
        [
            ((1, 0, 5, 10), "no support"),
            ((1, 4, 0, 10), "empty goal partition"),
            ((5, 4, 5, 10), "inconsistent"),
            ((2, 4, 5, 3), "inconsistent"),
            ((-1, 4, 5, 10), "inconsistent"),
        ],
    )
    def test_rejects_bad_counts(self, args, msg):
        with pytest.raises(ValueError, match=msg):
            compute_metrics(*args)

    @given(
        total=st.integers(2, 400),
        data=st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_linear_relations(self, total, data):
        n_k = data.draw(st.integers(1, total))
        sup = data.draw(st.integers(1, total))
        sup_k = data.draw(st.integers(0, min(sup, n_k)))
        m = compute_metrics(sup_k, sup, n_k, total)
        assert abs(m.f_all - m.f_g * (n_k / total)) <= 1e-12
        assert abs(m.f_all - m.confidence * (sup / total)) <= 1e-12
        assert abs(m.lift - m.confidence * (total / n_k)) <= 1e-12
        assert -1.0 <= m.correlation <= 1.0
        if n_k < total:
            if m.lift > 1.0:
                assert m.correlation > 0.0
            elif m.lift < 1.0:
                assert m.correlation < 0.0
            else:
                assert m.correlation == 0.0
        assert m.quality == quality(m.f_all, m.f_g, m.confidence, m.correlation)

    @given(
        total=st.integers(3, 300),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_correlation_monotone_in_goal_support(self, total, data):
        n_k = data.draw(st.integers(1, total - 1))
        sup = data.draw(st.integers(2, total))
        a = data.draw(st.integers(0, min(sup, n_k) - 1))
        b = data.draw(st.integers(a + 1, min(sup, n_k)))
        low = compute_metrics(a, sup, n_k, total)
        high = compute_metrics(b, sup, n_k, total)
        assert high.correlation > low.correlation

    def test_duplication_gives_identical_floats(self):
        base = compute_metrics(3, 7, 11, 29)
        for factor in (2, 10, 1000):
            scaled = compute_metrics(3 * factor, 7 * factor, 11 * factor, 29 * factor)
            assert scaled == base


class TestRecommendedMinCorrelation:
    @pytest.mark.parametrize("p,expected", [(1.0, 0.0), (2.0, 0.25), (4.0, 0.375)])
    def test_values(self, p, expected):
        assert recommended_min_correlation(p) == expected

    def test_stays_below_half(self):
        assert recommended_min_correlation(1e9) < 0.5

    @pytest.mark.parametrize("p", [0.0, -1.0])
    def test_rejects_non_positive(self, p):
        with pytest.raises(ValueError):
            recommended_min_correlation(p)

    def test_rounded_float_ratio_is_an_error(self):
        # 4/3 as a float is below 4/3, and its threshold fell below 1/8
        with pytest.raises(ValueError, match="Fraction"):
            recommended_min_correlation(4 / 3)
        assert recommended_min_correlation(Fraction(4, 3)) == 0.125

    @given(
        total=st.integers(4, 500),
        nk_seed=st.integers(0, 10**6),
        sup_seed=st.integers(0, 10**6),
        gap=st.integers(0, 10**6),
    )
    @settings(max_examples=200, deadline=None)
    def test_threshold_guarantees_majority_confidence(self, total, nk_seed, sup_seed, gap):
        # the guarantee is about minority goal classes (n_k <= N/2); for a
        # majority goal the recommended threshold goes negative and carries
        # no confidence promise
        n_k = 1 + nk_seed % (total // 2)
        sup = 1 + sup_seed % total
        cap = min(sup, n_k)
        # bias sup_k toward the top so the threshold is actually exceeded
        sup_k = cap - (gap % (cap + 1)) // 2
        metrics = compute_metrics(sup_k, sup, n_k, total)
        p = Fraction(total - n_k, n_k)
        if metrics.correlation > recommended_min_correlation(p):
            assert metrics.confidence > 0.5

    def test_half_confidence_ties_never_exceed_threshold(self):
        # every count set with confidence exactly 0.5 and a minority goal up
        # to 120 records, among them 6 of 12 with n_k 12 of 34, where the
        # exact correlation equals the threshold (5/22)
        ties = 0
        for total in range(4, 121):
            for n_k in range(1, total // 2 + 1):
                threshold = recommended_min_correlation(Fraction(total - n_k, n_k))
                for sup_k in range(1, n_k + 1):
                    if sup_k > total - n_k:
                        break
                    metrics = compute_metrics(sup_k, 2 * sup_k, n_k, total)
                    assert metrics.correlation <= threshold, (sup_k, n_k, total)
                    ties += 1
        assert ties > 50_000

    def test_threshold_exceeded_case_is_reachable(self):
        # conf 0.75, lift 1.5 on an even split: corr 0.5 > threshold 0
        metrics = compute_metrics(3, 4, 5, 10)
        assert metrics.correlation > recommended_min_correlation(1.0)
        assert metrics.confidence > 0.5

    def test_typed_decimal_never_below_exact_threshold(self):
        # mine reads a threshold as its decimal; at a confidence of 1/2 the
        # exact correlation is (N - 2n_k) / 2(N - n_k), often just above the
        # nearest float, 5/22 among them
        for total in range(3, 150):
            for n_k in range(1, total // 2 + 1):
                threshold = recommended_min_correlation(Fraction(total - n_k, n_k))
                exact = Fraction(total - 2 * n_k, 2 * (total - n_k))
                assert Fraction(repr(threshold)) >= exact, (n_k, total)

    def test_mine_keeps_no_half_confidence_candidate(self):
        # P0 in 6 of the goal's 12 records and 6 of the other 22: conf 1/2, corr 5/22
        pdb = build_pdb([[1] * 6 + [2] * 6, [1] * 6 + [2] * 16], m=2)
        config = MiningConfig(min_corr=recommended_min_correlation(Fraction(22, 12)))
        assert [r.premise for r in mine(pdb, config).positive[0]] == []
