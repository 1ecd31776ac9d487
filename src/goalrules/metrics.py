"""Support counting over goal partitions and the rule quality criteria.

Support is vertical: each goal keeps one bitmap per property
(``PartitionedDatabase.bitmaps``), and a premise's count in that goal is
the popcount of the AND of its properties' bitmaps. Its cost depends on
the premise length and the record count, not on the catalog width.

All criteria are derived from exact integer counts in one place, so every
caller — printed rules, oracle, benchmark — sees bit-identical floats for the
same counts. The miner decides on the counts themselves and makes no float.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf, nextafter
from numbers import Real

from .errors import ConfigError
from .preprocess import set_bits


@dataclass(frozen=True)
class CriteriaWeights:
    """Weights of the four criteria blended into the quality score."""

    p1: float = 1.0  # overall frequency
    p2: float = 1.0  # in-goal frequency
    p3: float = 1.0  # confidence
    p4: float = 1.0  # correlation

    def __post_init__(self) -> None:
        weights = self.as_tuple()
        if not all(isinstance(w, Real) and not isinstance(w, bool) for w in weights):
            raise ConfigError("criteria weights must be real numbers")
        if not all(0 <= w < inf for w in weights):
            raise ConfigError("criteria weights must be finite and non-negative")
        if not any(w > 0 for w in weights):
            raise ConfigError("at least one criteria weight must be positive")
        # quality is at most this sum in magnitude, so a finite sum keeps it finite
        if sum(weights) == inf:
            raise ConfigError("criteria weights must have a finite sum")

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.p1, self.p2, self.p3, self.p4)


UNIT_WEIGHTS = CriteriaWeights()


@dataclass(frozen=True)
class RuleMetrics:
    f_g: float
    f_all: float
    confidence: float
    lift: float
    correlation: float
    quality: float


def support(premise: int, pdb) -> tuple[int, ...]:
    """Count the records containing every premise bit, per goal partition;
    ``sum()`` of the tuple is the premise's total support.

    The empty premise (0) matches everything and returns the partition
    sizes; a bit beyond the catalog matches nothing.
    """
    if premise < 0:
        raise ValueError("premise must be non-negative")
    if premise == 0:
        return tuple(pdb.partition_sizes)
    if premise >> len(pdb.catalog):
        return (0,) * len(pdb.partition_sizes)
    first, *rest = set_bits(premise)
    counts = []
    for maps in pdb.bitmaps:
        common = maps[first]
        for i in rest:
            common &= maps[i]
        counts.append(common.bit_count())
    return tuple(counts)


def quality(
    f_all: float,
    f_g: float,
    confidence: float,
    correlation: float,
    weights: CriteriaWeights = UNIT_WEIGHTS,
) -> float:
    """Weighted blend of the four criteria."""
    return (
        weights.p1 * f_all
        + weights.p2 * f_g
        + weights.p3 * confidence
        + weights.p4 * correlation
    )


def compute_metrics(
    sup_k: int,
    sup: int,
    n_k: int,
    total: int,
    weights: CriteriaWeights = UNIT_WEIGHTS,
) -> RuleMetrics:
    """Derive all rule criteria for one premise/goal pair from exact counts.

    Correlation rescales lift onto [-1, 1]: negative side is lift - 1,
    positive side divides the excess by the attainable maximum, so 1.0 means
    the premise occurs only inside the goal and -1.0 means never.
    """
    if n_k <= 0:
        raise ValueError("empty goal partition")
    if sup <= 0:
        raise ValueError("premise has no support")
    if not (0 <= sup_k <= min(sup, n_k) and max(sup, n_k) <= total):
        raise ValueError("inconsistent support counts")
    f_g = sup_k / n_k
    f_all = sup_k / total
    confidence = sup_k / sup
    # One correctly-rounded division of exact integer products: duplicated
    # databases then yield bit-identical floats, not merely close ones.
    lift = (sup_k * total) / (sup * n_k)
    if n_k == total:
        correlation = 0.0  # single populated goal: lift is identically 1
    elif lift <= 1.0:
        correlation = lift - 1.0
    else:
        correlation = _positive_correlation(sup_k, sup, (total - n_k) / n_k)
    return RuleMetrics(
        f_g=f_g,
        f_all=f_all,
        confidence=confidence,
        lift=lift,
        correlation=correlation,
        quality=quality(f_all, f_g, confidence, correlation, weights),
    )


def recommended_min_correlation(p: float) -> float:
    """Correlation threshold guaranteeing confidence > 0.5 for a goal whose
    outside/inside record ratio is ``p``; rises from 0 toward 0.5 as the
    goal gets rarer. ``p`` is an int, a ``Fraction`` or an integral float:
    ``(total - n_k) / n_k`` is already rounded, so pass
    ``Fraction(total - n_k, n_k)``. The result's decimal, which is how
    ``mine`` reads a threshold, is never below the exact ``(p - 1) / 2p``,
    nor the result below the correlation ``compute_metrics`` gives a
    confidence of 1/2."""
    if p <= 0:
        raise ValueError("partition ratio must be positive")
    if isinstance(p, float) and not p.is_integer():
        raise ValueError(f"partition ratio {p!r} is not an integer: pass Fraction(total - n_k, n_k)")
    a, b = p.as_integer_ratio()
    r = _positive_correlation(1, 2, p)
    r = r if Fraction(repr(r)) >= Fraction(a - b, 2 * a) else nextafter(r, inf)
    # compute_metrics's correlation, on the float ratio, may be an ulp higher
    return max(r, _positive_correlation(1, 2, float(p)))


def _positive_correlation(sup_k: int, sup: int, p: float) -> float:
    """Correlation on the lift > 1 side, ``(lift - 1) / p`` with
    ``lift = conf * (p + 1)`` and ``conf = sup_k / sup``, for the
    outside/inside record ratio ``p`` as the float ``(total - n_k) / n_k``.

    It is ``conf - (1 - conf) / p`` as one correctly-rounded division of
    exact integers (``p`` as its integer ratio), so it rises with ``sup_k``
    and a confidence of 1 gives exactly 1. At ``sup_k / sup == 1/2`` it is
    at most ``recommended_min_correlation(p)``, so that threshold's
    guarantee holds for the floats too: no confidence of at most 0.5 yields
    a correlation above it.
    """
    a, b = p.as_integer_ratio()
    return (sup_k * a - (sup - sup_k) * b) / (sup * a)
