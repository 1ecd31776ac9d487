"""Set-based reference miner used to cross-check the bit-code engine on
small instances.

Records are explicit property-index sets and support is subset counting,
so nothing here touches the engine's bitmap support kernel. Keep, prune,
final and negative decisions compare exact rationals (``exact_correlation``
and ``Fraction`` thresholds, read as typed), not the engine's integer
products; shared with the engine is only ``compute_metrics``, behind the
printed floats of ``Rule.metrics``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from goalrules.engine import MiningConfig, Rule, RuleSet

ENUMERATION_LIMIT = 2_000_000


@dataclass(frozen=True)
class SetRecord:
    """One record as an explicit set of property indices plus its goal."""

    properties: frozenset[int]
    goal: int

    @classmethod
    def from_code(cls, code: int, goal: int) -> "SetRecord":
        indices = set()
        index = 0
        while code:
            if code & 1:
                indices.add(index)
            code >>= 1
            index += 1
        return cls(frozenset(indices), goal)


def from_database(pdb) -> list[SetRecord]:
    """Explicit-set view of a partitioned database, in record order."""
    records = []
    for goal, part in enumerate(pdb.partitions):
        records.extend(SetRecord.from_code(code, goal) for code in part)
    return records


def oracle_support(
    premise: Iterable[int], records: Sequence[SetRecord], n_goals: int | None = None
) -> tuple[int, ...]:
    """Subset-containment counting per goal."""
    wanted = frozenset(premise)
    if n_goals is None:
        n_goals = max((r.goal for r in records), default=-1) + 1
    counts = [0] * n_goals
    for record in records:
        if wanted <= record.properties:
            counts[record.goal] += 1
    return tuple(counts)


def _code(indices: Sequence[int]) -> int:
    return sum(1 << i for i in indices)


def exact_correlation(sup_k: int, sup: int, n_k: int, total: int) -> Fraction:
    """The correlation criterion as an exact rational: ``lift - 1`` when the
    lift is at most 1, else ``(lift - 1) / p`` with ``p`` the goal's
    outside/inside record ratio, so it spans [-1, 1]."""
    lift = Fraction(sup_k * total, sup * n_k)
    if lift <= 1:
        return lift - 1
    return (lift - 1) / Fraction(total - n_k, n_k)


def _threshold(x: float) -> Fraction:
    return Fraction(repr(float(x)))


def _partition_sizes(records: Sequence[SetRecord], n_goals: int) -> list[int]:
    sizes = [0] * n_goals
    for record in records:
        sizes[record.goal] += 1
    return sizes


def oracle_mine(
    records: Sequence[SetRecord], n_goals: int, config: MiningConfig | None = None
) -> RuleSet:
    """Reference search mirroring the engine's semantics on explicit sets.

    Premises are ascending index tuples extended only past their largest
    index; candidacy, retention, and finality rules match ``engine.mine``.
    Negative rules are the single properties whose correlation is at or
    below ``neg_corr``, as in ``engine.mine``.
    """
    if config is None:
        config = MiningConfig()
    total = len(records)
    sizes = _partition_sizes(records, n_goals)
    observed = sorted({i for r in records for i in r.properties})
    min_corr, corr_stop, min_f_all, neg_corr = map(
        _threshold, (config.min_corr, config.corr_stop, config.min_f_all, config.neg_corr)
    )

    per_goal: list[list[Rule]] = []
    negative: list[list[Rule]] = []
    for goal in range(n_goals):
        if not 0 < sizes[goal] < total:
            per_goal.append([])
            negative.append([])
            continue
        basis = (sizes[goal], total, config.weights)

        def rule_for(indices: tuple[int, ...]) -> tuple[Rule, Fraction] | None:
            """The rule with a provisional ``final`` of False, and its exact
            correlation; None without support."""
            result = oracle_support(indices, records, n_goals)
            if sum(result) == 0:
                return None
            rule = Rule(_code(indices), len(indices), goal, result[goal], sum(result), basis, False)
            return rule, exact_correlation(rule.sup_k, rule.sup, sizes[goal], total)

        candidates: list[tuple[int, ...]] = []
        against: list[Rule] = []
        by_premise: dict[tuple[int, ...], Rule] = {}
        found: dict[tuple[int, ...], tuple[Rule, Fraction]] = {}
        for i in observed:
            scored = rule_for((i,))
            if scored is None:
                continue
            rule, corr = scored
            if corr > min_corr:
                candidates.append((i,))
                found[(i,)] = scored
            elif corr <= neg_corr:
                against.append(rule._replace(final=True, negative=True))
        negative.append(against)
        top_index = candidates[-1][0] if candidates else -1

        def finalize(indices: tuple[int, ...], scored: tuple[Rule, Fraction]) -> Rule:
            rule, corr = scored
            final = (
                corr >= corr_stop
                or Fraction(rule.sup_k, total) < min_f_all
                or indices[-1] >= top_index
            )
            return rule._replace(final=final)

        level: list[tuple[int, ...]] = []
        for indices in candidates:
            by_premise[indices] = finalize(indices, found[indices])
            level.append(indices)
        rules = [by_premise[p] for p in level]
        while level and (config.max_premise_len is None or len(level[0]) < config.max_premise_len):
            grown: list[tuple[int, ...]] = []
            for indices in level:
                if by_premise[indices].final:
                    continue
                for candidate in candidates:
                    j = candidate[0]
                    if j <= indices[-1]:
                        continue
                    extended = indices + (j,)
                    scored = rule_for(extended)
                    if scored is None or scored[1] < min_corr:
                        continue
                    by_premise[extended] = finalize(extended, scored)
                    grown.append(extended)
            if not grown:
                break
            grown.sort(key=_code)
            rules.extend(by_premise[p] for p in grown)
            level = grown
        per_goal.append(rules)
    return RuleSet(tuple(map(tuple, per_goal)), tuple(map(tuple, negative)))


def oracle_enumerate(
    records: Sequence[SetRecord],
    max_len: int,
    config: MiningConfig | None = None,
    n_goals: int | None = None,
) -> list[Rule]:
    """Every premise of up to ``max_len`` observed properties, evaluated for
    every populated goal; only zero-support premises are skipped.

    Errors out when the premise space is too large to enumerate.
    """
    if config is None:
        config = MiningConfig()
    if n_goals is None:
        n_goals = max((r.goal for r in records), default=-1) + 1
    total = len(records)
    sizes = _partition_sizes(records, n_goals)
    observed = sorted({i for r in records for i in r.properties})
    width = min(max_len, len(observed))
    space = sum(comb(len(observed), length) for length in range(1, width + 1))
    if space > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration infeasible: about {space} premise sets")
    rules = []
    for length in range(1, width + 1):
        for indices in combinations(observed, length):
            result = oracle_support(indices, records, n_goals)
            if sum(result) == 0:
                continue
            for goal in range(n_goals):
                if sizes[goal] == 0:
                    continue
                basis = (sizes[goal], total, config.weights)
                rules.append(
                    Rule(_code(indices), length, goal, result[goal], sum(result), basis, False)
                )
    rules.sort(key=lambda r: (r.goal, r.premise_len, r.premise))
    return rules
