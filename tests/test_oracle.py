import random
from itertools import combinations

import pytest

from goalrules import MiningConfig, compute_metrics, mine
from goalrules.metrics import support
from conftest import assert_rulesets_equal, build_pdb, random_pdb
from fractions import Fraction

from oracle import (
    SetRecord,
    exact_correlation,
    from_database,
    oracle_enumerate,
    oracle_mine,
    oracle_support,
)


def bits(code):
    return frozenset(i for i in range(code.bit_length()) if (code >> i) & 1)


class TestSetRecord:
    def test_from_code(self):
        record = SetRecord.from_code(0b10101, 2)
        assert record.properties == {0, 2, 4}
        assert record.goal == 2
        assert SetRecord.from_code(0, 0).properties == frozenset()


class TestOracleSupport:
    def db(self):
        return build_pdb([[5, 7], [3]], m=3)

    def test_examples(self):
        records = from_database(self.db())
        assert oracle_support({0, 2}, records) == (2, 0)
        assert oracle_support(set(), records) == (2, 1)
        assert oracle_support({1}, records) == (1, 1)
        assert oracle_support({3}, records) == (0, 0)

    def test_explicit_goal_count(self):
        records = [SetRecord(frozenset({0}), 0)]
        assert oracle_support({0}, records, n_goals=3) == (1, 0, 0)

    def test_matches_engine_support_randomized(self):
        rng = random.Random(7)
        for _ in range(50):
            pdb = random_pdb(rng)
            records = from_database(pdb)
            premise = rng.randrange(0, 1 << len(pdb.catalog))
            assert oracle_support(bits(premise), records) == support(premise, pdb)


class TestOracleMineEquivalence:
    def test_matches_engine_on_random_databases(self):
        rng = random.Random(99)
        thresholds = [0.1, 0.25, 0.35, 0.5]
        negatives = 0
        for trial in range(60):
            pdb = random_pdb(rng)
            min_corr = rng.choice(thresholds)
            config = MiningConfig(
                min_corr=min_corr,
                corr_stop=rng.choice([c for c in (0.25, 0.5, 0.75, 1.0) if c >= min_corr]),
                min_f_all=rng.choice([0.0, 0.01, 0.1]),
                neg_corr=rng.choice([-0.1, -0.35, -0.6, -1.0]),
                max_premise_len=rng.choice([None, None, 2, 3]),
            )
            records = from_database(pdb)
            engine_rules = mine(pdb, config)
            oracle_rules = oracle_mine(records, len(pdb.partition_sizes), config)
            assert_rulesets_equal(engine_rules, oracle_rules)
            negatives += sum(map(len, engine_rules.negative))
        assert negatives > 20  # the negative check must bite

    @pytest.mark.parametrize(
        "parts, config",
        [
            ([[1, 2, 2], [1] + [2] * 9], MiningConfig(min_corr=0.35)),
            ([[3, 3, 3, 3, 1, 2], [3, 4]], MiningConfig(min_corr=0.2)),
            ([[3, 3, 1, 1, 2, 4], [1, 4]], MiningConfig(min_corr=0.1, corr_stop=0.2)),
            ([[1, 1, 2], [1, 1, 1]], MiningConfig(neg_corr=-0.2)),
        ],
        ids=["min_corr-candidate", "min_corr-extension", "corr_stop", "neg_corr"],
    )
    def test_matches_engine_at_exact_ties(self, parts, config):
        """The databases of ``test_engine.TestExactTies``: a rule's exact
        correlation equals a threshold, and its float one is off by an ulp."""
        pdb = build_pdb(parts, m=3)
        assert_rulesets_equal(mine(pdb, config), oracle_mine(from_database(pdb), 2, config))

    def test_exact_correlation(self):
        assert exact_correlation(1, 2, 3, 13) == Fraction(7, 20)
        assert exact_correlation(0, 4, 3, 13) == -1
        assert exact_correlation(3, 3, 3, 13) == 1
        assert exact_correlation(3, 13, 3, 13) == 0
        rng = random.Random(5)
        for _ in range(200):
            total = rng.randint(2, 60)
            n_k = rng.randint(1, total - 1)
            sup = rng.randint(1, total)
            sup_k = rng.randint(max(0, sup - (total - n_k)), min(sup, n_k))
            exact = exact_correlation(sup_k, sup, n_k, total)
            assert compute_metrics(sup_k, sup, n_k, total).correlation == pytest.approx(float(exact), abs=1e-15)

    def test_corr_drop_database(self):
        pdb = build_pdb([[3, 3, 1, 1, 1, 1, 2, 2, 2, 2], [3, 3, 3, 3] + [4] * 16], m=3)
        oracle_rules = oracle_mine(from_database(pdb), 2, MiningConfig())
        assert [(r.premise, r.final) for r in oracle_rules.positive[0]] == [(1, False), (2, True)]

    def test_handles_empty_partition(self):
        pdb = build_pdb([[1, 1], []], m=1)
        ruleset = oracle_mine(from_database(pdb), 2, MiningConfig())
        assert ruleset.positive == ((), ())


class TestOracleEnumerate:
    def test_counts_every_premise_and_goal(self):
        records = [SetRecord(frozenset({0, 1, 2}), g % 2) for g in range(6)]
        rules = oracle_enumerate(records, max_len=2)
        # C(3,1) + C(3,2) premises, two goals each
        assert len(rules) == (3 + 3) * 2
        assert {r.premise_len for r in rules} == {1, 2}
        assert all(not r.final for r in rules)

    def test_skips_zero_support_premises(self):
        records = [SetRecord(frozenset({0}), 0), SetRecord(frozenset({1}), 1)]
        rules = oracle_enumerate(records, max_len=2)
        assert {r.premise for r in rules} == {1, 2}  # pair {0,1} never occurs

    def test_max_len_capped_by_observed_properties(self):
        records = [SetRecord(frozenset({0, 1}), 0), SetRecord(frozenset({0, 1}), 1)]
        rules = oracle_enumerate(records, max_len=10)
        assert max(r.premise_len for r in rules) == 2

    def test_canonical_order(self):
        rng = random.Random(3)
        pdb = random_pdb(rng)
        rules = oracle_enumerate(from_database(pdb), max_len=3)
        keys = [(r.goal, r.premise_len, r.premise) for r in rules]
        assert keys == sorted(keys)

    def test_infeasible_bound_errors_with_estimate(self):
        records = [SetRecord(frozenset(range(40)), 0), SetRecord(frozenset(), 1)]
        with pytest.raises(ValueError, match="infeasible: about"):
            oracle_enumerate(records, max_len=40)

    def test_metrics_match_direct_computation(self):
        pdb = build_pdb([[3, 1], [2, 3]], m=2)
        records = from_database(pdb)
        rules = oracle_enumerate(records, max_len=2)
        for rule in rules:
            result = support(rule.premise, pdb)
            expected = compute_metrics(
                result[rule.goal],
                sum(result),
                pdb.partition_sizes[rule.goal],
                pdb.total,
            )
            assert rule.metrics == expected


class TestSearchCompleteness:
    """Every mined rule appears in the enumeration, and every enumerated rule
    the search skipped has a concrete disqualifying step."""

    def explain_absence(self, indices, goal, records, config, candidates, mined):
        if config.max_premise_len is not None and len(indices) > config.max_premise_len:
            return "beyond length cap"
        if any(i not in candidates for i in indices):
            return "contains a non-candidate property"
        for depth in range(1, len(indices) + 1):
            prefix = indices[:depth]
            if prefix in mined:
                if mined[prefix].final and depth < len(indices):
                    return "prefix is final"
                continue
            if depth == 1:
                return None  # candidates always appear in the output
            result = oracle_support(set(prefix), records)
            if sum(result) == 0:
                return "prefix lost all support"
            n_goals = len(result)
            sizes = [0] * n_goals
            for record in records:
                sizes[record.goal] += 1
            metrics = compute_metrics(result[goal], sum(result), sizes[goal], len(records))
            if metrics.correlation < config.min_corr:
                return "prefix fell below min_corr"
            return None
        return "premise itself was mined"

    def test_mined_rules_are_contained_and_absences_explained(self):
        rng = random.Random(1234)
        checked_absences = 0
        for _ in range(25):
            pdb = random_pdb(rng, max_m=8, max_part=16)
            config = MiningConfig(min_corr=rng.choice([0.15, 0.3, 0.45]))
            records = from_database(pdb)
            ruleset = mine(pdb, config)
            enumerated = oracle_enumerate(records, max_len=len(pdb.catalog))
            by_key = {(r.goal, r.premise): r for r in enumerated}
            mined_premises = {
                goal: {
                    tuple(sorted(bits(r.premise))): r
                    for r in group
                }
                for goal, group in enumerate(ruleset.positive)
            }
            candidate_sets = {
                goal: {next(iter(bits(r.premise))) for r in group if r.premise_len == 1}
                for goal, group in enumerate(ruleset.positive)
            }
            for goal, group in enumerate(ruleset.positive):
                for rule in group:
                    twin = by_key[(goal, rule.premise)]
                    assert twin.metrics == rule.metrics
                    assert (twin.sup_k, twin.sup) == (rule.sup_k, rule.sup)
            for rule in enumerated:
                key = tuple(sorted(bits(rule.premise)))
                if key in mined_premises[rule.goal]:
                    continue
                reason = self.explain_absence(
                    key,
                    rule.goal,
                    records,
                    config,
                    candidate_sets[rule.goal],
                    mined_premises[rule.goal],
                )
                assert reason is not None, (key, rule.goal)
                checked_absences += 1
        assert checked_absences > 100  # the check must actually bite
