"""Set-based reference miner used to cross-check the bit-code engine on
small instances.

Records are explicit property-index sets and support is subset counting,
so nothing here touches the engine's bitmap support kernel. Shared with the
engine is only the closed-form criteria arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb
from typing import Iterable, Sequence

from goalrules.engine import MiningConfig, Rule, RuleSet
from goalrules.metrics import compute_metrics

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

    def metrics_for(indices: tuple[int, ...], goal: int):
        result = oracle_support(indices, records, n_goals)
        if sum(result) == 0:
            return None, result
        return (
            compute_metrics(result[goal], sum(result), sizes[goal], total, config.weights),
            result,
        )

    per_goal: list[list[Rule]] = []
    negative: list[list[Rule]] = []
    for goal in range(n_goals):
        if not 0 < sizes[goal] < total:
            per_goal.append([])
            negative.append([])
            continue
        candidates: list[tuple[int, ...]] = []
        against: list[Rule] = []
        by_premise: dict[tuple[int, ...], Rule] = {}
        for i in observed:
            metrics, result = metrics_for((i,), goal)
            if metrics is None:
                continue
            if metrics.correlation > config.min_corr:
                candidates.append((i,))
            elif metrics.correlation <= config.neg_corr:
                sup_k = result[goal]
                against.append(Rule(_code((i,)), 1, goal, sup_k, sum(result), metrics, True, True))
        negative.append(against)
        top_index = candidates[-1][0] if candidates else -1

        def finalize(indices: tuple[int, ...], metrics) -> bool:
            if metrics.correlation >= config.corr_stop:
                return True
            if metrics.f_all < config.min_f_all:
                return True
            return indices[-1] >= top_index

        level: list[tuple[int, ...]] = []
        for indices in candidates:
            metrics, result = metrics_for(indices, goal)
            by_premise[indices] = Rule(
                _code(indices),
                1,
                goal,
                result[goal],
                sum(result),
                metrics,
                finalize(indices, metrics),
            )
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
                    metrics, result = metrics_for(extended, goal)
                    if metrics is None or metrics.correlation < config.min_corr:
                        continue
                    by_premise[extended] = Rule(
                        _code(extended),
                        len(extended),
                        goal,
                        result[goal],
                        sum(result),
                        metrics,
                        finalize(extended, metrics),
                    )
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
                metrics = compute_metrics(
                    result[goal], sum(result), sizes[goal], total, config.weights
                )
                rules.append(
                    Rule(
                        _code(indices),
                        length,
                        goal,
                        result[goal],
                        sum(result),
                        metrics,
                        False,
                    )
                )
    rules.sort(key=lambda r: (r.goal, r.premise_len, r.premise))
    return rules
