"""Correlation-driven rule search: candidate generation and monotone
premise expansion over a partitioned database.

Premises only ever grow by properties whose bit sits above the current
top bit, so every premise set is generated exactly once.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import ConfigError
from .metrics import CriteriaWeights, RuleMetrics, SupportResult, compute_metrics, support


@dataclass(frozen=True)
class MiningConfig:
    """Thresholds and weights steering the rule search."""

    min_corr: float = 0.35
    corr_stop: float = 1.0
    min_f_all: float = 0.01
    weights: CriteriaWeights = field(default_factory=CriteriaWeights)
    neg_corr: float = -0.35
    max_premise_len: int | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.min_corr <= 1.0:
            raise ConfigError("min_corr must be in (0, 1]")
        if not 0.0 < self.corr_stop <= 1.0:
            raise ConfigError("corr_stop must be in (0, 1]")
        if self.min_corr > self.corr_stop:
            raise ConfigError("min_corr must not exceed corr_stop")
        if not 0.0 <= self.min_f_all <= 1.0:
            raise ConfigError("min_f_all must be in [0, 1]")
        if not -1.0 <= self.neg_corr < 0.0:
            raise ConfigError("neg_corr must be in [-1, 0)")
        if self.max_premise_len is not None and self.max_premise_len < 1:
            raise ConfigError("max_premise_len must be >= 1")


@dataclass(frozen=True)
class Rule:
    """One mined rule: premise bits imply membership in a goal class.

    ``final`` marks rules the search will not expand further; ``negative``
    marks single-property rules arguing against the goal.
    """

    premise: int
    premise_len: int
    goal: int
    sup_k: int
    sup: int
    metrics: RuleMetrics
    final: bool
    negative: bool = False


@dataclass(frozen=True)
class RuleSet:
    """Mined rules grouped per goal, each group ordered by premise length
    then premise code."""

    positive: tuple[tuple[Rule, ...], ...]
    negative: tuple[tuple[Rule, ...], ...]

    @property
    def goal_count(self) -> int:
        return len(self.positive)

    def positive_counts(self) -> list[int]:
        return [len(group) for group in self.positive]

    def negative_counts(self) -> list[int]:
        return [len(group) for group in self.negative]

    def all_positive(self) -> list[Rule]:
        return [rule for group in self.positive for rule in group]

    def all_negative(self) -> list[Rule]:
        return [rule for group in self.negative for rule in group]

    def with_negative(self, negative: Sequence[Sequence[Rule]]) -> "RuleSet":
        if len(negative) != len(self.positive):
            raise ValueError("one negative rule group per goal required")
        return RuleSet(self.positive, tuple(tuple(g) for g in negative))


def _is_final(premise: int, metrics: RuleMetrics, candidates: Sequence[Rule], config: MiningConfig) -> bool:
    if metrics.correlation >= config.corr_stop:
        return True
    if metrics.f_all < config.min_f_all:
        return True
    # no candidate bit above the premise's top bit
    return not candidates or candidates[-1].premise <= premise


def _single_supports(pdb) -> list[tuple[int, SupportResult]]:
    """(code, support) of every property that occurs in some record."""
    singles = []
    for i in range(len(pdb.catalog)):
        result = support(1 << i, pdb)
        if result.total > 0:
            singles.append((1 << i, result))
    return singles


def create_candidates(pdb, config: MiningConfig) -> list[list[Rule]]:
    """Single-property rules whose correlation exceeds ``min_corr``, per goal.

    Goals with an empty partition — or holding every record — get no
    candidates; correlation carries no signal there.
    """
    total = pdb.total
    singles = _single_supports(pdb)
    out: list[list[Rule]] = []
    for goal, n_k in enumerate(pdb.partition_sizes):
        rules: list[Rule] = []
        if 0 < n_k < total:
            for code, result in singles:
                metrics = compute_metrics(
                    result.per_goal[goal], result.total, n_k, total, config.weights
                )
                if metrics.correlation > config.min_corr:
                    rules.append(
                        Rule(code, 1, goal, result.per_goal[goal], result.total, metrics, False)
                    )
        rules = [
            replace(rule, final=_is_final(rule.premise, rule.metrics, rules, config))
            for rule in rules
        ]
        out.append(rules)
    return out


def eligible_candidates(rule: Rule, candidates: Sequence[Rule]) -> Sequence[Rule]:
    """Candidates whose property bit lies above the premise's top bit.

    Candidate codes are single bits in ascending order, so these are exactly
    the candidates with code greater than the whole premise.
    """
    codes = [c.premise for c in candidates]
    return candidates[bisect_right(codes, rule.premise):]


def expand(
    rule: Rule,
    candidate: Rule,
    pdb,
    config: MiningConfig,
    *,
    candidates: Sequence[Rule],
) -> Rule | None:
    """Grow a premise by one eligible candidate property.

    Returns None when the longer premise loses all support or falls below
    ``min_corr``; otherwise a rule one property longer, flagged final when
    it reaches ``corr_stop``, drops under ``min_f_all``, or has no candidate
    bit left above it.
    """
    if candidate.premise <= rule.premise:
        raise ValueError("candidate property must sit above the premise's top bit")
    premise = rule.premise + candidate.premise  # disjoint bits
    result = support(premise, pdb)
    if result.total == 0:
        return None
    metrics = compute_metrics(
        result.per_goal[rule.goal],
        result.total,
        pdb.partition_sizes[rule.goal],
        pdb.total,
        config.weights,
    )
    if metrics.correlation < config.min_corr:
        return None
    return Rule(
        premise,
        rule.premise_len + 1,
        rule.goal,
        result.per_goal[rule.goal],
        result.total,
        metrics,
        _is_final(premise, metrics, candidates, config),
    )


def _check_threads(threads: int) -> None:
    if threads < 1:
        raise ConfigError("thread count must be >= 1")


def mine(pdb, config: MiningConfig | None = None, *, threads: int = 1) -> RuleSet:
    """Mine positive rules for every goal class.

    Level-synchronous search: each round expands every non-final rule by
    every eligible candidate, keeps the survivors sorted by premise code,
    and stops when a round adds nothing or the premise length cap is hit.
    ``threads`` is accepted for compatibility and must be >= 1; the search
    runs sequentially, so results are identical for any value.
    """
    _check_threads(threads)
    if config is None:
        config = MiningConfig()
    candidates = create_candidates(pdb, config)
    per_goal = [list(group) for group in candidates]
    current = candidates
    length = 1
    while any(current) and (config.max_premise_len is None or length < config.max_premise_len):
        grown: list[list[Rule]] = [[] for _ in candidates]
        for goal, rules in enumerate(current):
            group = candidates[goal]
            for rule in rules:
                if rule.final:
                    continue
                for candidate in eligible_candidates(rule, group):
                    child = expand(rule, candidate, pdb, config, candidates=group)
                    if child is not None:
                        grown[goal].append(child)
        if not any(grown):
            break
        for goal, rules in enumerate(grown):
            rules.sort(key=lambda r: r.premise)
            per_goal[goal].extend(rules)
        current = grown
        length += 1
    empty = tuple(() for _ in per_goal)
    return RuleSet(tuple(tuple(rules) for rules in per_goal), empty)


def mine_negative(pdb, config: MiningConfig | None = None, *, threads: int = 1) -> list[list[Rule]]:
    """Single-property rules arguing against a goal: correlation at or below
    ``neg_corr``. These are terminal; longer premises only lose support.
    ``threads`` is a sequential alias, as in ``mine``."""
    _check_threads(threads)
    if config is None:
        config = MiningConfig()
    total = pdb.total
    singles = _single_supports(pdb)
    out: list[list[Rule]] = []
    for goal, n_k in enumerate(pdb.partition_sizes):
        rules: list[Rule] = []
        if 0 < n_k < total:
            for code, result in singles:
                metrics = compute_metrics(
                    result.per_goal[goal], result.total, n_k, total, config.weights
                )
                if metrics.correlation <= config.neg_corr:
                    rules.append(
                        Rule(
                            code,
                            1,
                            goal,
                            result.per_goal[goal],
                            result.total,
                            metrics,
                            final=True,
                            negative=True,
                        )
                    )
        out.append(rules)
    return out
