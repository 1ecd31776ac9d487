"""Shared helpers: handmade and randomized partitioned databases, and a
reader of ``goalrules preprocess`` dumps."""

from __future__ import annotations

import json
import random
from itertools import islice
from pathlib import Path

import pytest

from goalrules import PartitionedDatabase, Property, PropertyCatalog, RuleSet, engine


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


def read_dump(path) -> PartitionedDatabase:
    """The database a dump holds, read without checks: records are decimal
    strings, split into goals by ``partition_sizes``."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    records = map(int, doc["records"])
    return PartitionedDatabase(
        partitions=tuple(tuple(islice(records, n)) for n in doc["partition_sizes"]),
        goal_labels=tuple(doc["goal_labels"]),
        catalog=PropertyCatalog(tuple(Property(**p) for p in doc["catalog"])),
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


def property_counts(pdb) -> list[list[int]]:
    """Each property's record count per goal: the popcount of its bitmap."""
    return [[bits.bit_count() for bits in maps] for maps in pdb.bitmaps]


def multiset_root(pdb):
    """The table's multiset root, built as ``mine`` builds it."""
    return engine._Root.of(pdb, property_counts(pdb))


def assert_bitmaps_equal(actual, expected) -> None:
    """Per-goal property bitmaps compared pair by pair. A failure names the
    first ``(goal, property)`` that differs and its lowest differing bit: a
    plain ``==`` on bitmaps of many records fails with an int too long for
    pytest to print."""
    assert len(actual) == len(expected), f"{len(actual)} goals, expected {len(expected)}"
    for goal, (maps, want) in enumerate(zip(actual, expected)):
        assert len(maps) == len(want), f"goal {goal}: {len(maps)} properties, expected {len(want)}"
        for i, (bits, wanted) in enumerate(zip(maps, want)):
            if bits != wanted:
                low = ((bits ^ wanted) & -(bits ^ wanted)).bit_length() - 1
                pytest.fail(
                    f"goal {goal}, property {i}: bit {low} is {bits >> low & 1}, expected {wanted >> low & 1}",
                    pytrace=False,
                )


def assert_rulesets_equal(left: RuleSet, right: RuleSet, tol: float = 0.0) -> None:
    assert left.goal_count == right.goal_count
    for side in ("positive", "negative"):
        for a_group, b_group in zip(getattr(left, side), getattr(right, side)):
            assert len(a_group) == len(b_group)
            for a, b in zip(a_group, b_group):
                assert (a.premise, a.premise_len, a.goal) == (b.premise, b.premise_len, b.goal)
                assert (a.sup_k, a.sup, a.final, a.negative) == (b.sup_k, b.sup, b.final, b.negative)
                assert type(a) is type(b) is engine.Rule and a == b  # basis and field order too
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
    """Run as if numpy were absent, even when it is installed: the cell path
    (``csv.reader`` and row-by-row encoding) for every block of a CSV table.
    Only the CSV reader reads numpy, so only its tests use this fixture:
    ``TestCsvRowByRow``, ``TestBlockReader.test_matches_the_cell_path`` and
    ``TestBlockReader.test_quoted_table_reads_as_its_plain_form``."""
    import sys

    monkeypatch.setattr(sys.modules["goalrules.preprocess"], "_np", None)
