"""Correlation-driven rule search over a partitioned database.

One pass over the single-property supports gives each goal its candidates
and its negative rules. Each goal's rules then grow depth-first from its
candidates: a premise only ever grows by a candidate whose bit sits above
its top bit, so every premise set is generated exactly once, and each
extension ANDs one more property bitmap onto the bitmaps of its parent's
premise (the path bitmaps) instead of recounting the whole premise. The
walk counts on the table's multiset root (``_Root``): a table written k
times is walked once, with every count scaled back up by k.

Every decision compares two integer products of a rule's counts with
constants fixed per goal (``_Bounds``); floats are made only for output.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from fractions import Fraction
from itertools import chain, repeat
from math import gcd
from operator import attrgetter
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


class Rule(NamedTuple):
    """One mined rule: premise bits imply membership in a goal class.

    ``metrics`` derives the float criteria from the counts and ``basis``, the
    goal's ``(n_k, total, weights)``. ``final`` marks rules the search will
    not expand further; ``negative`` marks single-property rules arguing
    against the goal. A named tuple: several times cheaper to build than a
    frozen dataclass, and the search builds one per kept premise.
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

    def stops(self, sup_k: int, sup: int) -> bool:
        """Whether ``corr >= corr_stop`` or ``f_all < min_f_all``."""
        return sup_k * self.stop_a >= sup * self.stop_b or sup_k < self.min_sup_k


def _property_counts(pdb) -> list[list[int]]:
    """Each property's record count per goal: the popcount of its bitmap."""
    return [[bits.bit_count() for bits in maps] for maps in pdb.bitmaps]


def _single_rules(
    pdb, config: MiningConfig, counts: list[list[int]]
) -> tuple[list[list[Rule]], list[list[Rule]]]:
    """One pass over the single-property supports, per goal: the candidates
    (correlation above ``min_corr``, final flag set) and the negative rules
    (correlation at or below ``neg_corr``).

    ``counts`` holds each goal's property counts (``_property_counts``).
    Goals with an empty partition — or holding every record — get neither;
    correlation carries no signal there. A candidate is final when it
    ``stops`` or no candidate bit sits above its own.
    """
    total = pdb.total
    sups = [sum(column) for column in zip(*counts)]
    candidates: list[list[Rule]] = []
    negative: list[list[Rule]] = []
    for goal, n_k in enumerate(pdb.partition_sizes):
        basis = (n_k, total, config.weights)
        kept: list[tuple[int, int, int]] = []
        against: list[Rule] = []
        if 0 < n_k < total:
            bounds = _Bounds.of(n_k, total, config)
            for i, (sup_k, sup) in enumerate(zip(counts[goal], sups)):
                if sup == 0:
                    continue
                if sup_k * bounds.corr_a > sup * bounds.corr_b:
                    kept.append((1 << i, sup_k, sup))
                elif sup_k * bounds.neg_a <= sup * bounds.neg_b:
                    against.append(Rule(1 << i, 1, goal, sup_k, sup, basis, final=True, negative=True))
        top = kept[-1][0] if kept else 0
        candidates.append(
            [
                Rule(code, 1, goal, sup_k, sup, basis, top <= code or bounds.stops(sup_k, sup))
                for code, sup_k, sup in kept
            ]
        )
        negative.append(against)
    return candidates, negative


def create_candidates(pdb, config: MiningConfig) -> list[list[Rule]]:
    """Single-property rules whose correlation exceeds ``min_corr``, per goal,
    in ascending code order."""
    return _single_rules(pdb, config, _property_counts(pdb))[0]


class _Root(NamedTuple):
    """The table's multiset root, the smallest table the search can count
    on. ``g`` is the largest integer dividing every code's multiplicity in
    every goal; goal k's root holds each of its codes multiplicity/g times,
    so a premise's count in goal k is exactly ``g`` times its count over
    ``bitmaps[k]``, the root's property bitmaps (``sizes`` are the root's
    partition sizes). On a table with g = 1 the root is the table itself.
    """

    g: int
    bitmaps: tuple[tuple[int, ...], ...]
    sizes: tuple[int, ...]

    @classmethod
    def of(cls, pdb, counts: list[list[int]]) -> "_Root":
        """The root of ``pdb``, whose property counts are ``counts``. g
        divides every partition size and every property count, so their gcd
        bounds it for free; the codes are tallied only when that gcd exceeds
        1, never on a table of distinct rows."""
        g = gcd(*pdb.partition_sizes, *chain.from_iterable(counts))
        if g > 1:
            tallies = [Counter(part) for part in pdb.partitions]
            g = gcd(g, *chain.from_iterable(tally.values() for tally in tallies))
        if g <= 1:
            return cls(1, pdb.bitmaps, pdb.partition_sizes)
        parts = tuple(
            tuple(chain.from_iterable(repeat(code, n // g) for code, n in tally.items()))
            for tally in tallies
        )
        root = replace(pdb, partitions=parts)
        return cls(g, root.bitmaps, root.partition_sizes)

    def pair(self, goal: int, i: int) -> tuple[int, int]:
        """Property i's root bitmap inside ``goal``, and over the other
        goals' root records, concatenated in goal order."""
        outside, shift = 0, 0
        for k, (maps, size) in enumerate(zip(self.bitmaps, self.sizes)):
            if k != goal:
                outside |= maps[i] << shift
                shift += size
        return self.bitmaps[goal][i], outside


def _grow(group: Sequence[Rule], root: _Root, config: MiningConfig) -> list[Rule]:
    """Every rule of one goal reachable from its candidates ``group``, sorted
    by premise length, then premise code.

    A depth-first walk on an explicit stack. Each entry holds a rule, the
    AND of its premise's root bitmaps inside the goal and outside it (the
    path bitmaps, from ``root.pair``) and the index of the next candidate
    to try; premises grow only by candidates above their top bit, so every
    premise set is reached once. An extension ANDs the candidate's inside
    bitmap onto the inside path and counts it, times ``root.g``, as
    ``sup_k``; only when that is not 0 does it AND and count the outside
    pair, which gives ``sup - sup_k``. It is dropped when it has no support
    in the goal or its correlation is below ``min_corr``, and walked
    further unless final or at ``max_premise_len``; both tests are the
    goal's integer ``_Bounds`` on the full table's counts, and no float is
    made. Above the seeded candidates, whose path bitmaps are their own,
    the stack holds only the current path.
    """
    if not group:
        return []
    goal, basis = group[0].goal, group[0].basis
    bounds = _Bounds.of(basis[0], basis[1], config)
    corr_a, corr_b, stops = bounds.corr_a, bounds.corr_b, bounds.stops
    top = group[-1].premise
    limit = config.max_premise_len or len(group)
    g = root.g
    columns = [root.pair(goal, c.premise.bit_length() - 1) for c in group]
    rules = list(group)
    stack = [(c, *columns[i], i + 1) for i, c in enumerate(group) if not c.final and limit > 1]
    while stack:
        rule, inside, outside, j = stack.pop()
        if j == len(group):
            continue
        stack.append((rule, inside, outside, j + 1))  # its next candidate, after this subtree
        bits_in, bits_out = columns[j]
        grown_in = inside & bits_in
        sup_k = grown_in.bit_count() * g
        if sup_k == 0:
            continue
        grown_out = outside & bits_out
        sup = sup_k + grown_out.bit_count() * g
        if sup_k * corr_a < sup * corr_b:  # corr < min_corr
            continue
        premise = rule.premise | group[j].premise
        final = top <= premise or stops(sup_k, sup)
        child = Rule(premise, rule.premise_len + 1, goal, sup_k, sup, basis, final)
        rules.append(child)
        if not final and child.premise_len < limit:
            stack.append((child, grown_in, grown_out, j + 1))
    rules.sort(key=attrgetter("premise_len", "premise"))
    return rules


def check_threads(threads: int) -> None:
    """Reject a thread count below 1; the CLI calls this before reading input."""
    if threads < 1:
        raise ConfigError("thread count must be >= 1")


def mine(pdb, config: MiningConfig | None = None, *, threads: int = 1) -> RuleSet:
    """Mine the positive and negative rules of every goal class.

    One single-property pass (``_single_rules``) gives each goal its
    negative rules and its candidates. The candidates seed a depth-first
    walk (``_grow``) that extends a premise by one candidate bit above its
    top bit at a time, ANDing that property's bitmaps onto the premise's
    path bitmaps over the table's multiset root (``_Root``). ``threads`` is
    accepted for compatibility and must be >= 1; the search runs
    sequentially, so results are identical for any value.
    """
    check_threads(threads)
    if config is None:
        config = MiningConfig()
    counts = _property_counts(pdb)
    candidates, negative = _single_rules(pdb, config, counts)
    root = _Root.of(pdb, counts)
    return RuleSet(
        tuple(tuple(_grow(group, root, config)) for group in candidates),
        tuple(map(tuple, negative)),
    )


def mine_negative(pdb, config: MiningConfig | None = None, *, threads: int = 1) -> list[list[Rule]]:
    """Single-property rules arguing against a goal: correlation at or below
    ``neg_corr``. These are terminal; longer premises only lose support.
    The same groups as ``mine(...).negative``; ``threads`` is a sequential
    alias, as in ``mine``."""
    check_threads(threads)
    if config is None:
        config = MiningConfig()
    return _single_rules(pdb, config, _property_counts(pdb))[1]
