import gc
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalrules import ConfigError, CriteriaWeights, MiningConfig, compute_metrics, engine, mine
from goalrules.engine import create_candidates, mine_negative
from goalrules.metrics import support
from goalrules.preprocess import replicate
from conftest import (
    assert_rulesets_equal,
    build_pdb,
    multiset_root,
    property_counts,
    random_pdb,
)
from oracle import from_database, oracle_mine

# Two properties that are individually informative for goal 0 but nearly
# disjoint inside it: each single scores correlation 0.4, their pair lands
# exactly at independence (correlation 0) and is dropped at min_corr 0.35.
#   goal 0 (10 records): both bits twice, bit0 only x4, bit1 only x4
#   goal 1 (20 records): both bits x4, filler bit2 x16
CORR_DROP_PARTS = [
    [3, 3, 1, 1, 1, 1, 2, 2, 2, 2],
    [3, 3, 3, 3] + [4] * 16,
]


def corr_drop_pdb():
    return build_pdb(CORR_DROP_PARTS, m=3)


class TestMiningConfig:
    def test_defaults(self):
        config = MiningConfig()
        assert config.min_corr == 0.35
        assert config.corr_stop == 1.0
        assert config.min_f_all == 0.01
        assert config.neg_corr == -0.35
        assert config.max_premise_len is None
        assert config.weights.as_tuple() == (1.0, 1.0, 1.0, 1.0)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"min_corr": 0.0},
            {"min_corr": 1.2},
            {"corr_stop": 0.0},
            {"min_corr": 0.8, "corr_stop": 0.5},
            {"min_f_all": -0.1},
            {"min_f_all": 1.1},
            {"neg_corr": 0.0},
            {"neg_corr": -1.5},
            {"max_premise_len": 0},
            {"max_premise_len": 2.5},
            {"max_premise_len": True},
            {"weights": (1, 1, 1, 1)},
            {"min_corr": "0.3"},
            {"min_f_all": True},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ConfigError):
            MiningConfig(**kwargs)

    def test_integer_thresholds_accepted(self):
        config = MiningConfig(min_corr=1, corr_stop=1, min_f_all=0, neg_corr=-1)
        assert mine(build_pdb([[1, 1], [2]], m=2), config).goal_count == 2


class TestCreateCandidates:
    def test_perfect_predictors(self):
        pdb = build_pdb([[1, 1, 1], [2, 2, 2]], m=2)
        groups = create_candidates(pdb, MiningConfig())
        assert [len(g) for g in groups] == [1, 1]
        rule = groups[0][0]
        assert rule.premise == 1
        assert rule.goal == 0
        assert rule.metrics.correlation == 1.0
        assert rule.final  # reached corr_stop
        assert groups[1][0].premise == 2

    def test_uniform_property_excluded(self):
        pdb = build_pdb([[1, 1], [1, 1]], m=1)
        assert create_candidates(pdb, MiningConfig()) == [[], []]

    def test_threshold_is_strict(self):
        # property 0: goal 0 has 5/8 of its support, correlation exactly 0.25
        parts = [[1] * 5 + [2] * 5, [1] * 3 + [2] * 7]
        pdb = build_pdb(parts, m=2)
        at_threshold = create_candidates(pdb, MiningConfig(min_corr=0.25))
        assert at_threshold == [[], []]
        below = create_candidates(pdb, MiningConfig(min_corr=0.2))
        assert [len(g) for g in below] == [1, 0]
        assert below[0][0].metrics.correlation == 0.25

    def test_zero_support_property_never_candidate(self):
        pdb = build_pdb([[1, 1, 1], [2]], m=3)  # bit 2 appears nowhere
        groups = create_candidates(pdb, MiningConfig(min_corr=0.01))
        assert all(rule.premise != 4 for group in groups for rule in group)

    def test_degenerate_goals_get_nothing(self):
        pdb = build_pdb([[1, 1], []], m=1)
        assert create_candidates(pdb, MiningConfig()) == [[], []]

    def test_candidates_sorted_and_flagged(self):
        pdb = corr_drop_pdb()
        groups = create_candidates(pdb, MiningConfig())
        assert [rule.premise for rule in groups[0]] == [1, 2]
        assert not groups[0][0].final  # bit 1 is still above bit 0
        assert groups[0][1].final  # top candidate: nothing above it
        # the goal-1 filler bit is a perfect goal-1 predictor
        assert [(r.premise, r.final) for r in groups[1]] == [(4, True)]

    def test_frequency_floor_marks_final(self):
        pdb = corr_drop_pdb()
        groups = create_candidates(pdb, MiningConfig(min_f_all=0.5))
        assert groups[0] and all(rule.final for rule in groups[0])


# Goal 0 holds the candidates 2, 8 and 32 (bits 1, 3, 5) at correlation 0.5,
# and every pair and the triple survive at correlation 3/7; goal 1 holds the
# perfect predictors 1, 4 and 16.
LADDER_PARTS = [[42] * 5 + [2, 8, 32], [42] * 2 + [21] * 6]
LADDER = MiningConfig(min_corr=0.1, min_f_all=0.0)


class TestEligibleCandidates:
    """A premise grows only by candidates above its top bit, seen through mine."""

    def mined(self, config=LADDER):
        return mine(build_pdb(LADDER_PARTS, m=6), config).positive

    def test_strictly_above_top_bit(self):
        # 42 is reachable from 10, 34 and 40 in any order, but appears once
        assert [r.premise for r in self.mined()[0]] == [2, 8, 32, 10, 34, 40, 42]

    def test_self_not_eligible(self):
        lengths = [(r.premise, r.premise_len) for r in self.mined()[0]]
        assert lengths == [(2, 1), (8, 1), (32, 1), (10, 2), (34, 2), (40, 2), (42, 3)]

    def test_top_premise_has_none(self):
        finals = {r.premise: r.final for r in self.mined()[0]}
        # premises holding the top candidate bit have nothing left above them
        assert finals == {2: False, 8: False, 32: True, 10: False, 34: True, 40: True, 42: True}

    def test_empty_candidates(self):
        positive = self.mined(MiningConfig(min_corr=0.6, min_f_all=0.0))
        assert positive[0] == ()
        assert [r.premise for r in positive[1]] == [1, 4, 16]


class TestExpand:
    """Growing a premise by one candidate property, seen through mine."""

    def test_pair_below_min_corr_dropped(self):
        pdb = corr_drop_pdb()
        group = create_candidates(pdb, MiningConfig())[0]
        assert [r.metrics.correlation for r in group] == [0.4, 0.4]
        pair = support(3, pdb)
        assert compute_metrics(pair[0], sum(pair), 10, 30).correlation == 0.0
        assert [r.premise for r in mine(pdb).positive[0]] == [1, 2]

    def test_pair_kept_at_lower_threshold(self):
        pdb = corr_drop_pdb()
        ruleset = mine(pdb, MiningConfig(min_corr=0.0000001))
        # pair correlation is exactly 0, still below
        assert [r.premise for r in ruleset.positive[0]] == [1, 2]

    def test_zero_support_pair_dropped(self):
        # bits 0 and 1 are both goal-0 candidates but never co-occur
        pdb = build_pdb([[1, 1, 1, 2, 2, 2], [1, 2, 4, 4, 4, 4]], m=3)
        config = MiningConfig(min_corr=0.1)
        group = create_candidates(pdb, config)[0]
        assert [(r.premise, r.final) for r in group] == [(1, False), (2, True)]
        assert sum(support(3, pdb)) == 0
        assert [r.premise for r in mine(pdb, config).positive[0]] == [1, 2]

    def test_surviving_pair_counts_and_metrics(self):
        parts = [[3] * 6 + [1, 2], [3, 1, 2] + [4] * 5]
        pdb = build_pdb(parts, m=3)
        config = MiningConfig(min_corr=0.1)
        assert [r.premise for r in create_candidates(pdb, config)[0]] == [1, 2]
        child = mine(pdb, config).positive[0][-1]
        assert child.premise == 3
        assert child.premise_len == 2
        assert (child.sup_k, child.sup) == (6, 7)
        expected = compute_metrics(6, 7, 8, 16)
        assert child.metrics == expected
        assert child.final  # top candidate bit consumed

    def test_corr_stop_marks_final(self):
        parts = [[3] * 4 + [4] * 4, [2] * 4 + [4] * 4]
        pdb = build_pdb(parts, m=3)
        config = MiningConfig(min_corr=0.1, corr_stop=0.9)
        group = create_candidates(pdb, config)[0]
        assert [r.premise for r in group] == [1]
        assert group[0].final  # correlation 1.0 >= corr_stop


class TestMine:
    def test_corr_drop_database_end_to_end(self):
        ruleset = mine(corr_drop_pdb())
        premises = [(r.premise, r.final) for r in ruleset.positive[0]]
        assert premises == [(1, False), (2, True)]  # pair dropped, singles kept
        assert [(r.premise, r.final) for r in ruleset.positive[1]] == [(4, True)]
        # bit 2 never occurs in goal 0; bits 0 and 1 lean away from goal 1
        assert [[r.premise for r in group] for group in ruleset.negative] == [[4], [1, 2]]
        assert ruleset.negative == tuple(map(tuple, mine_negative(corr_drop_pdb())))

    def test_single_goal_database_is_empty(self):
        pdb = build_pdb([[1, 3, 1]], m=2, labels=("only",))
        ruleset = mine(pdb)
        assert ruleset.positive == ((),)

    def test_no_candidates_no_rules(self):
        pdb = build_pdb([[1, 1], [1, 1]], m=1)
        assert mine(pdb).positive == ((), ())

    def chain_pdb(self):
        # bits 0,1,2 lean toward goal 0 without being perfect predictors, so
        # every subset survives at a low threshold and the triple is reached
        return build_pdb([[7, 7, 7, 7, 7, 1, 2, 4], [7, 7] + [8] * 6], m=4)

    def test_chain_grows_to_full_depth(self):
        ruleset = mine(self.chain_pdb(), MiningConfig(min_corr=0.1, min_f_all=0.0))
        premises = [r.premise for r in ruleset.positive[0]]
        # three levels, each level sorted by premise code
        assert premises == [1, 2, 4, 3, 5, 6, 7]
        by_premise = {r.premise: r for r in ruleset.positive[0]}
        assert by_premise[7].premise_len == 3
        assert by_premise[7].final
        assert not by_premise[3].final  # bit 2 still eligible above bits 0,1
        assert by_premise[5].final  # top bit is the highest candidate
        assert by_premise[6].final
        assert by_premise[3].metrics.correlation == compute_metrics(5, 7, 8, 16).correlation

    def test_premise_lengths_and_popcount(self):
        rng = random.Random(5)
        for _ in range(20):
            pdb = random_pdb(rng)
            ruleset = mine(pdb, MiningConfig(min_corr=0.2, min_f_all=0.0))
            for group in ruleset.positive:
                for rule in group:
                    assert rule.premise_len == bin(rule.premise).count("1")

    def test_canonical_order_and_uniqueness(self):
        rng = random.Random(11)
        for _ in range(30):
            pdb = random_pdb(rng)
            ruleset = mine(pdb, MiningConfig(min_corr=0.15, min_f_all=0.0))
            for group in ruleset.positive:
                keys = [(rule.premise_len, rule.premise) for rule in group]
                assert keys == sorted(keys)
                premises = [rule.premise for rule in group]
                assert len(set(premises)) == len(premises)

    def test_counts_match_support_recomputation(self):
        rng = random.Random(23)
        for _ in range(10):
            pdb = random_pdb(rng)
            ruleset = mine(pdb, MiningConfig(min_corr=0.2))
            for goal, group in enumerate(ruleset.positive):
                for rule in group:
                    result = support(rule.premise, pdb)
                    assert rule.sup_k == result[goal]
                    assert rule.sup == sum(result)
                    assert rule.metrics == compute_metrics(
                        rule.sup_k, rule.sup, pdb.partition_sizes[goal], pdb.total
                    )

    def test_max_premise_len_caps_depth(self):
        pdb = self.chain_pdb()
        config = MiningConfig(min_corr=0.1, min_f_all=0.0, max_premise_len=2)
        ruleset = mine(pdb, config)
        lengths = {r.premise_len for r in ruleset.positive[0]}
        assert lengths == {1, 2}
        singles_only = mine(pdb, MiningConfig(min_corr=0.1, min_f_all=0.0, max_premise_len=1))
        assert {r.premise_len for r in singles_only.positive[0]} == {1}

    def test_with_negative_needs_one_group_per_goal(self):
        ruleset = mine(random_pdb(random.Random(3)))
        with pytest.raises(ValueError, match="^one negative rule group per goal required$"):
            ruleset.with_negative([()] * (ruleset.goal_count + 1))

    @pytest.mark.parametrize("enabled", [True, False])
    def test_collector_left_as_found(self, enabled, monkeypatch):
        """``mine`` pauses the cyclic collector for the walks and restores the
        caller's state, also when a walk raises."""
        found = gc.isenabled()
        walking = []

        def failing_walk(*args):
            walking.append(gc.isenabled())
            raise RuntimeError("walk failed")

        try:
            gc.enable() if enabled else gc.disable()
            assert mine(corr_drop_pdb()).positive[0]
            assert gc.isenabled() is enabled
            monkeypatch.setattr(engine, "_goal_rules", failing_walk)
            with pytest.raises(RuntimeError, match="walk failed"):
                mine(corr_drop_pdb())
            assert walking == [False]
            assert gc.isenabled() is enabled
        finally:
            gc.enable() if found else gc.disable()

    def test_duplication_preserves_criteria_exactly(self):
        rng = random.Random(41)
        pdb = random_pdb(rng)
        config = MiningConfig(min_corr=0.2)
        base = mine(pdb, config)
        scaled = mine(replicate(pdb, 7), config)
        for b_group, s_group in zip(base.positive, scaled.positive):
            assert len(b_group) == len(s_group)
            for b, s in zip(b_group, s_group):
                assert (s.premise, s.goal, s.final) == (b.premise, b.goal, b.final)
                assert s.metrics == b.metrics  # identical floats, not just close
                assert (s.sup_k, s.sup) == (b.sup_k * 7, b.sup * 7)

    def test_weights_only_change_quality(self):
        pdb = corr_drop_pdb()
        tilted = MiningConfig(weights=CriteriaWeights(0.0, 0.0, 1.0, 0.0))
        base_rules = mine(pdb).positive[0]
        tilted_rules = mine(pdb, tilted).positive[0]
        assert [r.premise for r in base_rules] == [r.premise for r in tilted_rules]
        for b, t in zip(base_rules, tilted_rules):
            assert t.metrics.quality == t.metrics.confidence
            assert b.metrics.correlation == t.metrics.correlation


class TestMineNegative:
    def test_anti_predictor_reported(self):
        # bit 0 lives almost entirely in goal 1
        parts = [[2] * 9 + [1], [1] * 10 + [2] * 10]
        pdb = build_pdb(parts, m=2)
        groups = mine_negative(pdb)
        assert [rule.premise for rule in groups[0]] == [1]
        rule = groups[0][0]
        assert rule.negative and rule.final
        assert rule.premise_len == 1
        assert rule.metrics.correlation <= -0.35
        assert rule.metrics.correlation == compute_metrics(1, 11, 10, 30).correlation

    def test_absent_property_hits_minus_one(self):
        parts = [[2] * 5, [3] * 5]
        pdb = build_pdb(parts, m=2)
        groups = mine_negative(pdb)
        assert [rule.premise for rule in groups[0]] == [1]
        assert groups[0][0].metrics.correlation == -1.0

    def test_threshold_is_inclusive(self):
        # correlation exactly -0.5 for bit 0 against goal 0
        parts = [[1] + [2] * 4, [1] * 3 + [2] * 2]
        pdb = build_pdb(parts, m=2)
        assert support(1, pdb) == (1, 3)
        metrics = compute_metrics(1, 4, 5, 10)
        assert metrics.correlation == -0.5
        included = mine_negative(pdb, MiningConfig(neg_corr=-0.5))
        assert any(rule.premise == 1 for rule in included[0])
        excluded = mine_negative(pdb, MiningConfig(neg_corr=-0.51))
        assert all(rule.premise != 1 for rule in excluded[0])

    def test_independent_property_not_reported(self):
        parts = [[1] * 2 + [2] * 2, [1] * 2 + [2] * 2]
        pdb = build_pdb(parts, m=2)
        assert mine_negative(pdb) == [[], []]

    def test_degenerate_goals_skipped(self):
        pdb = build_pdb([[1, 2], []], m=2)
        assert mine_negative(pdb) == [[], []]

    def test_mine_returns_the_same_negatives(self):
        rng = random.Random(17)
        negatives = 0
        for _ in range(80):
            pdb = random_pdb(rng)
            config = MiningConfig(
                min_corr=rng.choice([0.1, 0.35, 0.6]), neg_corr=rng.choice([-0.1, -0.35, -0.6, -1.0])
            )
            ruleset = mine(pdb, config)
            assert [list(group) for group in ruleset.negative] == mine_negative(pdb, config)
            negatives += sum(ruleset.negative_counts())
        assert negatives > 20  # the comparison must bite


class TestPairBounds:
    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=60, deadline=None)
    def test_pair_support_within_bounds(self, seed):
        rng = random.Random(seed)
        pdb = random_pdb(rng)
        m = len(pdb.catalog)
        i, j = rng.sample(range(m), 2) if m >= 2 else (0, 0)
        if i == j:
            return
        sup_i = support(1 << i, pdb)
        sup_j = support(1 << j, pdb)
        sup_ij = support((1 << i) | (1 << j), pdb)
        for k, n_k in enumerate(pdb.partition_sizes):
            assert max(0, sup_i[k] + sup_j[k] - n_k) <= sup_ij[k] <= min(sup_i[k], sup_j[k])


class TestExactTies:
    """Thresholds are the decimals as typed, and a rule whose exact
    correlation equals one is decided as the comparison says, whatever the
    rounding of its float correlation."""

    def test_candidate_at_min_corr_is_dropped(self):
        # P0: sup_k=1, sup=2 in a goal of 3 among 13 records; corr is 7/20
        pdb = build_pdb([[1, 2, 2], [1] + [2] * 9], m=2)
        assert compute_metrics(1, 2, 3, 13).correlation > 0.35
        assert create_candidates(pdb, MiningConfig(min_corr=0.35))[0] == []
        assert [r.premise for r in mine(pdb, MiningConfig(min_corr=0.35)).positive[0]] == []

    def test_extension_at_min_corr_is_kept(self):
        # P0 and P1: corr 1/3 each; P0P1: sup_k=4, sup=5, n_k=6, total=8, corr 1/5
        pdb = build_pdb([[3, 3, 3, 3, 1, 2], [3, 4]], m=3)
        assert compute_metrics(4, 5, 6, 8).correlation < 0.2
        rules = {r.premise: r for r in mine(pdb, MiningConfig(min_corr=0.2)).positive[0]}
        assert sorted(rules) == [1, 2, 3]
        assert (rules[3].sup_k, rules[3].sup) == (4, 5)

    def test_corr_stop_is_inclusive(self):
        # P0: sup_k=4, sup=5, n_k=6, total=8, corr 1/5; P1 lies above it
        pdb = build_pdb([[3, 3, 1, 1, 2, 4], [1, 4]], m=3)
        assert compute_metrics(4, 5, 6, 8).correlation < 0.2
        rules = {r.premise: r for r in mine(pdb, MiningConfig(min_corr=0.1, corr_stop=0.2)).positive[0]}
        assert rules[1].final
        assert 3 not in rules

    def test_neg_corr_is_inclusive(self):
        # P0: sup_k=2, sup=5 in a goal of 3 among 6 records; corr is -1/5
        pdb = build_pdb([[1, 1, 2], [1, 1, 1]], m=2)
        assert compute_metrics(2, 5, 3, 6).correlation > -0.2
        config = MiningConfig(neg_corr=-0.2)
        assert [r.premise for r in mine(pdb, config).negative[0]] == [1]
        assert [r.premise for r in mine_negative(pdb, config)[0]] == [1]


class TestMultisetRoot:
    """On a table whose code multiplicities share a factor g > 1 the search
    counts on the root, each code taken multiplicity/g times, and scales by
    g: the rules are the oracle's on the full table, and those of the
    table's base with every count times k."""

    @staticmethod
    def assert_oracle(pdb, config):
        rules = mine(pdb, config)
        assert_rulesets_equal(rules, oracle_mine(from_database(pdb), len(pdb.partitions), config))
        return rules

    @staticmethod
    def assert_scaled(rules, base_rules, k):
        for side in ("positive", "negative"):
            for group, base_group in zip(getattr(rules, side), getattr(base_rules, side)):
                assert [(r.premise, r.final, r.sup_k, r.sup) for r in group] == [
                    (b.premise, b.final, b.sup_k * k, b.sup * k) for b in base_group
                ]

    SEEDS = [9, 19, 23, 24]  # random_pdb tables whose rules grow to 3 properties or more

    @pytest.mark.parametrize("seed", SEEDS)
    def test_replicated_table(self, seed):
        base = random_pdb(random.Random(seed), max_part=30)
        config = MiningConfig(min_corr=0.2, min_f_all=0.05)
        pdb = replicate(base, 6)
        assert multiset_root(pdb)[0] % 6 == 0
        rules = self.assert_oracle(pdb, config)
        self.assert_scaled(rules, mine(base, config), 6)
        assert max(r.premise_len for r in rules.all_positive()) >= 3  # the walk must bite

    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_extra_row_is_its_own_root(self, seed, monkeypatch):
        """A replicated table plus one row has g = 1, and the gcd of its
        counts rules out tallying codes at all."""
        base = random_pdb(random.Random(seed), max_part=30)
        pdb = replicate(base, 6)
        parts = [tuple(part) for part in pdb.partitions]
        parts[0] += (tuple(base.partitions[1]) or (1,))[:1]
        pdb = build_pdb(parts, len(base.catalog))

        def no_tally(*args):
            raise AssertionError("codes tallied on a table whose counts have gcd 1")

        monkeypatch.setattr(engine, "Counter", no_tally)
        g, root = multiset_root(pdb)
        assert g == 1 and root is pdb
        self.assert_oracle(pdb, MiningConfig(min_corr=0.2, min_f_all=0.05))

    def test_counts_sharing_a_factor_of_distinct_codes(self):
        """Every size and property count is even, but each code of goal 0
        appears once, so g is 1."""
        pdb = build_pdb([[0b0101, 0b1010, 0b0110, 0b1001], [0b1111, 0b1111]], m=4)
        counts = property_counts(pdb)
        assert math.gcd(*pdb.partition_sizes, *(n for goal in counts for n in goal)) == 2
        assert multiset_root(pdb)[0] == 1
        rules = self.assert_oracle(pdb, MiningConfig(min_corr=0.2))
        pairs = [(r.premise, r.sup_k, r.sup) for r in rules.positive[1] if r.premise_len == 2]
        assert pairs == [
            (0b0011, 2, 2), (0b0101, 2, 3), (0b0110, 2, 3), (0b1001, 2, 3), (0b1010, 2, 3), (0b1100, 2, 2)
        ]

    def test_frequency_floor_between_multiples_of_g(self):
        """``min_f_all`` puts ``ceil(f·total)`` one above a multiple of g, so
        a rule whose full ``sup_k`` is that multiple is final: the floor is
        compared with the scaled count, not with the root's."""
        base = random_pdb(random.Random(24), max_part=30)
        k = 4
        pdb = replicate(base, k)
        loose = mine(pdb, MiningConfig(min_corr=0.2, min_f_all=0.0))
        rule = max((r for r in loose.all_positive() if not r.final), key=lambda r: r.sup_k)
        f = (rule.sup_k + 0.5) / pdb.total
        config = MiningConfig(min_corr=0.2, min_f_all=f)
        assert engine._Bounds.of(1, pdb.total, config).min_sup_k == rule.sup_k + 1
        assert multiset_root(pdb)[0] == k
        rules = self.assert_oracle(pdb, config)
        self.assert_scaled(rules, mine(base, config), k)
        kept = {r.premise: r for r in rules.positive[rule.goal]}
        assert kept[rule.premise].final
