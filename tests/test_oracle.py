import random
from itertools import combinations

import pytest

from goalrules import MiningConfig, Rule, compute_metrics, mine, mine_negative, support
from goalrules.oracle import (
    SetRecord,
    from_database,
    oracle_enumerate,
    oracle_mine,
    oracle_support,
)
from conftest import assert_rulesets_equal, build_pdb, random_pdb


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
        assert oracle_support({0, 2}, records).per_goal == (2, 0)
        assert oracle_support(set(), records).per_goal == (2, 1)
        assert oracle_support({1}, records).per_goal == (1, 1)
        assert oracle_support({3}, records).per_goal == (0, 0)

    def test_explicit_goal_count(self):
        records = [SetRecord(frozenset({0}), 0)]
        assert oracle_support({0}, records, n_goals=3).per_goal == (1, 0, 0)

    def test_matches_engine_support_randomized(self):
        rng = random.Random(7)
        for _ in range(50):
            pdb = random_pdb(rng)
            records = from_database(pdb)
            premise = rng.randrange(0, 1 << len(pdb.catalog))
            assert oracle_support(bits(premise), records).per_goal == support(premise, pdb).per_goal


class TestOracleMineEquivalence:
    def oracle_negative(self, records, pdb, config):
        """Negative rules from single-property counts by subset containment."""
        sizes, total = pdb.partition_sizes, pdb.total
        singles = [oracle_support({i}, records, len(sizes)) for i in range(len(pdb.catalog))]
        groups = [[] for _ in sizes]
        for goal, n_k in enumerate(sizes):
            if not 0 < n_k < total:
                continue
            for i, result in enumerate(singles):
                if result.total == 0:
                    continue
                sup_k = result.per_goal[goal]
                metrics = compute_metrics(sup_k, result.total, n_k, total, config.weights)
                if metrics.correlation <= config.neg_corr:
                    groups[goal].append(Rule(1 << i, 1, goal, sup_k, result.total, metrics, True, True))
        return groups

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
            negative = mine_negative(pdb, config)
            engine_rules = mine(pdb, config).with_negative(negative)
            oracle_rules = oracle_mine(records, len(pdb.partition_sizes), config).with_negative(
                self.oracle_negative(records, pdb, config)
            )
            assert_rulesets_equal(engine_rules, oracle_rules)
            negatives += sum(map(len, negative))
        assert negatives > 20  # the negative check must bite

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
                result.per_goal[rule.goal],
                result.total,
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
            if result.total == 0:
                return "prefix lost all support"
            n_goals = len(result.per_goal)
            sizes = [0] * n_goals
            for record in records:
                sizes[record.goal] += 1
            metrics = compute_metrics(result.per_goal[goal], result.total, sizes[goal], len(records))
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
