"""Correlation-driven rule search over a partitioned database.

One function (``_goal_rules``) makes each goal's rules. One pass over the
goal's single-property supports gives its candidate properties and its
negative rules. Its positive rules then grow depth-first from the empty
premise: a premise only ever grows by a candidate whose bit sits above its
top bit, so every premise set is generated exactly once, and each extension
ANDs one more property bitmap onto the bitmaps of its parent's premise (the
path bitmaps) instead of recounting the whole premise. The walk's first
level is the single-property rules, and it is the one place where positive
rules are made and marked final, in one bucket per premise length. The walk
counts on the table's multiset root (``_root``), a ``PartitionedDatabase``
like the table: a table written k times is walked once, with every count
scaled back up by k.

Every decision compares two integer products of a rule's counts with
constants fixed per goal (``_Bounds``); floats are made only for output.
"""

from __future__ import annotations

import gc
from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, repeat
from math import gcd
from numbers import Integral, Real
from operator import itemgetter
from typing import NamedTuple, Sequence

from .errors import ConfigError
from .metrics import CriteriaWeights, RuleMetrics, compute_metrics


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
        for name in ("min_corr", "corr_stop", "min_f_all", "neg_corr"):
            value = getattr(self, name)
            if not isinstance(value, Real) or isinstance(value, bool):
                raise ConfigError(f"{name} must be a real number")
        limit = self.max_premise_len
        if limit is not None and (not isinstance(limit, Integral) or isinstance(limit, bool)):
            raise ConfigError("max_premise_len must be an integer")
        if not isinstance(self.weights, CriteriaWeights):
            raise ConfigError("weights must be a CriteriaWeights")
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
        if limit is not None and limit < 1:
            raise ConfigError("max_premise_len must be >= 1")


class Rule(NamedTuple):
    """One mined rule: premise bits imply membership in a goal class.

    ``metrics`` derives the float criteria from the counts and ``basis``, the
    goal's ``(n_k, total, weights)``. ``final`` marks rules the search will
    not expand further; ``negative`` marks single-property rules arguing
    against the goal. The search builds one per kept premise with
    ``tuple.__new__``: several times cheaper than a frozen dataclass, and
    cheaper than the named tuple's own ``__new__``, a Python function.
    """

    premise: int
    premise_len: int
    goal: int
    sup_k: int
    sup: int
    basis: tuple[int, int, CriteriaWeights]
    final: bool
    negative: bool = False

    @property
    def metrics(self) -> RuleMetrics:
        return compute_metrics(self.sup_k, self.sup, *self.basis)


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


class _Bounds(NamedTuple):
    """One goal's thresholds as integer constants. A threshold is the decimal
    typed, ``c = cn/cd`` (0.35 is 7/20). For ``c > 0``, ``corr`` compares
    with ``c`` as ``sup_k·total·cd`` does with ``sup·(n_k·cd + cn·(total −
    n_k))``: ``corr_a``/``corr_b`` for ``min_corr``, ``stop_a``/``stop_b``
    for ``corr_stop``. For ``c < 0``, ``corr <= c`` is ``sup_k·total·cd <=
    sup·n_k·(cd + cn)``: ``neg_a``/``neg_b`` for ``neg_corr``. ``f_all <
    min_f_all`` is ``sup_k < min_sup_k``.
    """

    corr_a: int
    corr_b: int
    stop_a: int
    stop_b: int
    min_sup_k: int
    neg_a: int
    neg_b: int

    @classmethod
    def of(cls, n_k: int, total: int, config: MiningConfig) -> "_Bounds":
        thresholds = (config.min_corr, config.corr_stop, config.min_f_all, config.neg_corr)
        low, stop, freq, neg = (Fraction(repr(float(x))) for x in thresholds)

        def above(c: Fraction) -> tuple[int, int]:
            return total * c.denominator, n_k * c.denominator + c.numerator * (total - n_k)

        min_sup_k = -(-freq.numerator * total // freq.denominator)  # ceil(min_f_all·total)
        negative = total * neg.denominator, n_k * (neg.denominator + neg.numerator)
        return cls(*above(low), *above(stop), min_sup_k, *negative)


def _root(pdb, counts: list[list[int]]):
    """``(g, root)``: the table's multiset root, the smallest table the
    search can count on. ``g`` is the largest integer dividing every code's
    multiplicity in every goal; goal k's root partition holds each of its
    codes multiplicity/g times, so a premise's count in goal k is exactly
    ``g`` times its count over the root's bitmaps. With g = 1 the root is
    ``pdb`` itself. g divides every partition size and every property count
    in ``counts``, so their gcd bounds it for free; the codes are tallied
    only when that gcd exceeds 1, never on a table of distinct rows."""
    g = gcd(*pdb.partition_sizes, *chain.from_iterable(counts))
    if g > 1:
        tallies = [Counter(part) for part in pdb.partitions]
        g = gcd(g, *chain.from_iterable(tally.values() for tally in tallies))
    if g <= 1:
        return 1, pdb
    parts = tuple(
        tuple(chain.from_iterable(repeat(code, n // g) for code, n in tally.items()))
        for tally in tallies
    )
    return g, replace(pdb, partitions=parts)


def _goal_rules(
    goal: int, counts: Sequence[int], sups: Sequence[int], g: int, root, config: MiningConfig
) -> tuple[list[Rule], list[Rule]]:
    """``goal``'s positive rules, sorted by premise length, then premise
    code, and its negative rules, in code order, from ``counts``, each
    property's count in the goal, and ``sups``, its count in the table.
    ``root`` is the table's multiset root and ``g`` its factor (``_root``).
    A goal that is empty or holds every record gets neither; correlation
    carries no signal there.

    One pass over the single properties takes those whose correlation
    exceeds ``min_corr`` as candidates, in ascending order, and makes a
    negative rule of each at or below ``neg_corr``. Each candidate has two
    root bitmaps: the goal's, and the other goals', concatenated in goal
    order. The positive rules then grow in a depth-first walk on an explicit
    stack of kept premises, from the empty one with all-ones bitmaps. Each
    entry holds the AND of its premise's two kinds of bitmap (the path
    bitmaps) and an iterator over the candidates above its top bit, so every
    premise set is reached once. A try ANDs the candidate's goal bitmap onto
    the inside path and counts it, times ``g``, as ``sup_k``; only when that
    is not 0 does it AND and count the outside pair, which gives ``sup -
    sup_k``. It is dropped at no support in the goal or a correlation below
    ``min_corr``; otherwise it is a rule, final when it holds the top
    candidate, its correlation reaches ``corr_stop`` or its ``f_all`` is
    under ``min_f_all``, and walked at once unless final or at
    ``max_premise_len``. Its parent's tries resume after it, so the stack
    holds only the current path. Every test is on the goal's integer
    ``_Bounds`` with the full table's counts. Rules go to one bucket per
    premise length, so each bucket is sorted by premise code alone.
    """
    bitmaps, sizes = root.bitmaps, root.partition_sizes
    basis = (sizes[goal] * g, sum(sizes) * g, config.weights)
    if not 0 < basis[0] < basis[1]:
        return [], []
    corr_a, corr_b, stop_a, stop_b, min_sup_k, neg_a, neg_b = _Bounds.of(basis[0], basis[1], config)
    candidates: list[int] = []
    negative: list[Rule] = []
    for i, (sup_k, sup) in enumerate(zip(counts, sups)):
        if sup == 0:
            continue
        if sup_k * corr_a > sup * corr_b:
            candidates.append(i)
        elif sup_k * neg_a <= sup * neg_b:
            negative.append(Rule(1 << i, 1, goal, sup_k, sup, basis, final=True, negative=True))
    n = len(candidates)
    limit = min(config.max_premise_len or n, n)
    columns = []
    for i in candidates:
        outside, shift = 0, 0
        for k, (maps, size) in enumerate(zip(bitmaps, sizes)):
            if k != goal:
                outside |= maps[i] << shift
                shift += size
        columns.append((bitmaps[goal][i], outside))
    buckets: list[list[Rule]] = [[] for _ in range(limit + 1)]  # [L]: rules grown from length L
    new = tuple.__new__
    stack = [(0, 0, (1 << sizes[goal]) - 1, (1 << sum(sizes) - sizes[goal]) - 1, iter(range(n)))]
    while stack:
        premise, length, inside, outside, tries = stack[-1]
        bucket, length = buckets[length], length + 1
        for j in tries:
            bits_in, bits_out = columns[j]
            grown_in = inside & bits_in
            sup_k = grown_in.bit_count() * g
            if sup_k == 0:
                continue
            grown_out = outside & bits_out
            sup = sup_k + grown_out.bit_count() * g
            if sup_k * corr_a < sup * corr_b:  # corr < min_corr
                continue
            child = premise | 1 << candidates[j]
            final = j == n - 1 or sup_k * stop_a >= sup * stop_b or sup_k < min_sup_k
            bucket.append(new(Rule, (child, length, goal, sup_k, sup, basis, final, False)))
            if not final and length < limit:
                stack.append((child, length, grown_in, grown_out, iter(range(j + 1, n))))
                break  # walk the child now; this premise's tries resume after it
        else:
            stack.pop()  # every try made
    for bucket in buckets:
        bucket.sort(key=itemgetter(0))
    return list(chain.from_iterable(buckets)), negative


def mine(pdb, config: MiningConfig | None = None) -> RuleSet:
    """Mine the positive and negative rules of every goal class.

    One popcount of each property bitmap gives the property's count per
    goal, and their column sums its count in the table. ``_root`` builds
    the table's multiset root from them once; ``_goal_rules`` then makes
    each goal's rules on it with the cyclic garbage collector paused, as the
    walks make no cycles, then restores the caller's setting.
    """
    config = config or MiningConfig()
    counts = [[bits.bit_count() for bits in maps] for maps in pdb.bitmaps]
    sups = [sum(column) for column in zip(*counts)]
    g, root = _root(pdb, counts)
    enabled = gc.isenabled()
    gc.disable()
    try:
        groups = [_goal_rules(goal, row, sups, g, root, config) for goal, row in enumerate(counts)]
    finally:
        if enabled:
            gc.enable()
    return RuleSet(tuple(tuple(p) for p, _ in groups), tuple(tuple(n) for _, n in groups))


def create_candidates(pdb, config: MiningConfig) -> list[list[Rule]]:
    """Single-property rules whose correlation exceeds ``min_corr``, per goal,
    in ascending code order: ``mine``'s positive groups at premise length 1."""
    return list(map(list, mine(pdb, replace(config, max_premise_len=1)).positive))


def mine_negative(pdb, config: MiningConfig | None = None) -> list[list[Rule]]:
    """Single-property rules arguing against a goal: correlation at or below
    ``neg_corr``. These are terminal; longer premises only lose support.
    ``mine``'s negative groups, made at premise length 1."""
    config = replace(config or MiningConfig(), max_premise_len=1)
    return list(map(list, mine(pdb, config).negative))
