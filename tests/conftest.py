"""Shared helpers: handmade and randomized partitioned databases."""

from __future__ import annotations

import random

import pytest

from goalrules import PartitionedDatabase, Property, PropertyCatalog, RuleSet


def generic_catalog(m: int) -> PropertyCatalog:
    """Anonymous m-property catalog (P0..Pm-1), each property its own column."""
    return PropertyCatalog(tuple(Property(i, f"P{i}", f"P{i}", 0, f"P{i}") for i in range(m)))


def build_pdb(parts: list[list[int]], m: int, labels=None) -> PartitionedDatabase:
    """Database from explicit per-goal record code lists over m properties."""
    if labels is None:
        labels = tuple(f"G{k}" for k in range(len(parts)))
    return PartitionedDatabase(
        partitions=tuple(tuple(part) for part in parts),
        goal_labels=tuple(labels),
        catalog=generic_catalog(m),
    )


def random_pdb(rng: random.Random, max_m: int = 12, max_part: int = 24) -> PartitionedDatabase:
    """Random small database with goal-leaning bit patterns so that rules
    actually exist at common correlation thresholds."""
    m = rng.randint(2, max_m)
    goals = rng.randint(2, 3)
    patterns = [rng.randrange(0, 1 << m) for _ in range(goals)]
    parts: list[list[int]] = []
    for goal in range(goals):
        part = []
        for _ in range(rng.randint(0, max_part)):
            code = rng.randrange(1, 1 << m)
            if rng.random() < 0.6:
                code |= patterns[goal]
            part.append(code if code else 1)
        parts.append(part)
    if not any(parts):
        parts[0].append(1)
    return build_pdb(parts, m)


def assert_rulesets_equal(left: RuleSet, right: RuleSet, tol: float = 0.0) -> None:
    assert left.goal_count == right.goal_count
    for side in ("positive", "negative"):
        for a_group, b_group in zip(getattr(left, side), getattr(right, side)):
            assert len(a_group) == len(b_group)
            for a, b in zip(a_group, b_group):
                assert (a.premise, a.premise_len, a.goal) == (b.premise, b.premise_len, b.goal)
                assert (a.sup_k, a.sup, a.final, a.negative) == (b.sup_k, b.sup, b.final, b.negative)
                for field in ("f_g", "f_all", "confidence", "lift", "correlation", "quality"):
                    av = getattr(a.metrics, field)
                    bv = getattr(b.metrics, field)
                    if tol == 0.0:
                        assert av == bv, (field, av, bv)
                    else:
                        assert abs(av - bv) <= tol, (field, av, bv)


def brute_support(premise: int, pdb) -> tuple[int, ...]:
    """Per-goal support by testing every record code: the reference count."""
    return tuple(sum((code & premise) == premise for code in part) for part in pdb.partitions)


@pytest.fixture
def pure_scan(monkeypatch):
    """Run as if numpy were absent, even when it is installed: the pure-Python
    bitmap builder, and row-by-row encoding of every preprocessing chunk."""
    import sys

    monkeypatch.setattr(sys.modules["goalrules.preprocess"], "_np", None)
