"""Correlation-driven rule search over a partitioned database.

One pass over the single-property supports gives each goal its candidates
and its negative rules. Each goal's rules then grow depth-first from its
candidates: a premise only ever grows by a candidate whose bit sits above
its top bit, so every premise set is generated exactly once, and each
extension ANDs one more property bitmap onto the bitmaps of its parent's
premise (the path bitmaps) instead of recounting the whole premise.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Sequence

from .errors import ConfigError
from .metrics import CriteriaWeights, RuleMetrics, compute_metrics, support


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


def _is_final(premise: int, metrics: RuleMetrics, top: int, config: MiningConfig) -> bool:
    """Whether the search stops at this rule; ``top`` is the goal's highest
    candidate code (0 when it has none)."""
    if metrics.correlation >= config.corr_stop:
        return True
    if metrics.f_all < config.min_f_all:
        return True
    # no candidate bit above the premise's top bit
    return top <= premise


def _single_rules(pdb, config: MiningConfig) -> tuple[list[list[Rule]], list[list[Rule]]]:
    """One pass over the single-property supports, per goal: the candidates
    (correlation above ``min_corr``, final flag set) and the negative rules
    (correlation at or below ``neg_corr``).

    Goals with an empty partition — or holding every record — get neither;
    correlation carries no signal there.
    """
    total = pdb.total
    singles = [(1 << i, support(1 << i, pdb)) for i in range(len(pdb.catalog))]
    candidates: list[list[Rule]] = []
    negative: list[list[Rule]] = []
    for goal, n_k in enumerate(pdb.partition_sizes):
        kept: list[Rule] = []
        against: list[Rule] = []
        if 0 < n_k < total:
            for code, result in singles:
                sup, sup_k = result.total, result.per_goal[goal]
                if sup == 0:
                    continue
                metrics = compute_metrics(sup_k, sup, n_k, total, config.weights)
                if metrics.correlation > config.min_corr:
                    kept.append(Rule(code, 1, goal, sup_k, sup, metrics, final=False))
                elif metrics.correlation <= config.neg_corr:
                    against.append(Rule(code, 1, goal, sup_k, sup, metrics, final=True, negative=True))
        top = kept[-1].premise if kept else 0
        candidates.append(
            [replace(rule, final=_is_final(rule.premise, rule.metrics, top, config)) for rule in kept]
        )
        negative.append(against)
    return candidates, negative


def create_candidates(pdb, config: MiningConfig) -> list[list[Rule]]:
    """Single-property rules whose correlation exceeds ``min_corr``, per goal,
    in ascending code order."""
    return _single_rules(pdb, config)[0]


def _grow(group: Sequence[Rule], pdb, config: MiningConfig) -> list[Rule]:
    """Every rule of one goal reachable from its candidates ``group``, sorted
    by premise length, then premise code.

    A depth-first walk on an explicit stack. Each entry holds a rule, the
    per-goal AND of its premise's bitmaps (the path bitmaps) and the index
    of the next candidate to try; premises grow only by candidates above
    their top bit, so every premise set is reached once. An extension ANDs
    the candidate's bitmap onto the path bitmaps and takes one
    ``bit_count`` per goal. It is dropped when it loses all support or
    falls below ``min_corr``, and walked further unless final or at
    ``max_premise_len``. Above the seeded candidates, whose path bitmaps
    are their own, the stack holds only the current path.
    """
    if not group:
        return []
    goal = group[0].goal
    n_k, total, weights = pdb.partition_sizes[goal], pdb.total, config.weights
    top = group[-1].premise
    limit = config.max_premise_len or len(group)
    columns = [[maps[c.premise.bit_length() - 1] for maps in pdb.bitmaps] for c in group]
    rules = list(group)
    stack = [(c, columns[i], i + 1) for i, c in enumerate(group) if not c.final and limit > 1]
    while stack:
        rule, paths, j = stack.pop()
        if j == len(group):
            continue
        stack.append((rule, paths, j + 1))  # its next candidate, after this subtree
        grown = [path & bits for path, bits in zip(paths, columns[j])]
        counts = [path.bit_count() for path in grown]
        sup = sum(counts)
        if sup == 0:
            continue
        metrics = compute_metrics(counts[goal], sup, n_k, total, weights)
        if metrics.correlation < config.min_corr:
            continue
        premise = rule.premise | group[j].premise
        final = _is_final(premise, metrics, top, config)
        child = Rule(premise, rule.premise_len + 1, goal, counts[goal], sup, metrics, final)
        rules.append(child)
        if not final and child.premise_len < limit:
            stack.append((child, grown, j + 1))
    rules.sort(key=lambda r: (r.premise_len, r.premise))
    return rules


def check_threads(threads: int) -> None:
    """Reject a thread count below 1; the CLI calls this before reading input."""
    if threads < 1:
        raise ConfigError("thread count must be >= 1")


def mine(pdb, config: MiningConfig | None = None, *, threads: int = 1) -> RuleSet:
    """Mine positive rules for every goal class.

    The single-property candidates of each goal seed a depth-first walk
    (``_grow``) that extends a premise by one candidate bit above its top
    bit at a time, ANDing that property's bitmap onto the premise's path
    bitmaps. ``threads`` is accepted for compatibility and must be >= 1;
    the search runs sequentially, so results are identical for any value.
    """
    check_threads(threads)
    if config is None:
        config = MiningConfig()
    positive = tuple(tuple(_grow(group, pdb, config)) for group in create_candidates(pdb, config))
    return RuleSet(positive, tuple(() for _ in positive))


def mine_negative(pdb, config: MiningConfig | None = None, *, threads: int = 1) -> list[list[Rule]]:
    """Single-property rules arguing against a goal: correlation at or below
    ``neg_corr``. These are terminal; longer premises only lose support.
    ``threads`` is a sequential alias, as in ``mine``."""
    check_threads(threads)
    if config is None:
        config = MiningConfig()
    return _single_rules(pdb, config)[1]
