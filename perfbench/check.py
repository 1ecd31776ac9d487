"""Independent checker for the output of ``goalrules mine --format json``.

It imports nothing from ``goalrules``. It re-bins the raw CSV from the
description file (half-open bins, label lists), holds every property as one
bitmap over all rows, and re-derives the whole search from exact integer
counts:

* candidates: single properties with ``corr > min_corr``;
* an extension of a non-final rule is kept when ``corr >= min_corr``;
* a rule is final when ``corr >= corr_stop``, ``f_all < min_f_all`` or no
  candidate bit lies above its top bit;
* negative rules: single properties with ``corr <= neg_corr``.

Thresholds are taken as the decimal the user typed (``Fraction(repr(x))``),
so 0.35 means 7/20. Every decision is a cross-multiplied integer comparison.
The emitted floats are compared with ``fractions.Fraction`` values of the
same criteria within a relative tolerance of 1e-12. Completeness follows from
comparing the emitted list with the recount rule for rule: every eligible
extension of every non-final rule is either emitted or pruned by the recount.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

REL_TOL = 1e-12
_CHUNK = 65536


class CheckError(Exception):
    """The inputs could not be read the way the description declares."""


@dataclass
class Table:
    """A re-binned table: one bitmap over all rows per property and per goal."""

    names: list[str]
    goals: list[str]
    rows: int
    goal_sizes: list[int]
    prop_bits: list[int]
    goal_bits: list[int]


def _to_int(mask: np.ndarray) -> int:
    return int.from_bytes(np.packbits(mask, bitorder="little").tobytes(), "little")


def load_table(csv_path, description: dict) -> Table:
    """Re-bin the CSV: a continuous value lands in bin i when it is below the
    i-th boundary and not below the ones before it (a value equal to a
    boundary belongs to the bin above); a label lands at its list position."""
    columns = description["columns"]
    names = [c["name"] for c in columns]
    with open(csv_path, newline="") as handle:
        reader = csv.reader(handle)
        if next(reader) != names:
            raise CheckError("CSV header does not match the description")
        chunks: list[list[np.ndarray]] = []
        while True:
            block = [row for _, row in zip(range(_CHUNK), reader)]
            if not block:
                break
            if any(len(row) != len(names) for row in block):
                raise CheckError("CSV row with the wrong number of cells")
            chunks.append([_bin_column(col, spec) for col, spec in zip(zip(*block), columns)])
    bins = [np.concatenate([chunk[j] for chunk in chunks]) for j in range(len(columns))]
    target = next(j for j, c in enumerate(columns) if c["kind"] == "target")
    goal_of_row = bins[target]
    prop_names, prop_bits = [], []
    for j, spec in enumerate(columns):
        if j == target:
            continue
        for category in range(spec["classes"]):
            prop_names.append(f"{spec.get('short', spec['name'])}{category}")
            prop_bits.append(_to_int(bins[j] == category))
    goal_masks = [goal_of_row == k for k in range(columns[target]["classes"])]
    return Table(
        names=prop_names,
        goals=[str(v) for v in columns[target]["values"]],
        rows=len(goal_of_row),
        goal_sizes=[int(m.sum()) for m in goal_masks],
        prop_bits=prop_bits,
        goal_bits=[_to_int(m) for m in goal_masks],
    )


def _bin_column(cells, spec) -> np.ndarray:
    if spec["kind"] == "continuous":
        try:
            values = np.array(cells, dtype=np.float64)
        except ValueError as exc:
            raise CheckError(f"column {spec['name']!r}: {exc}") from exc
        if not np.isfinite(values).all():
            raise CheckError(f"column {spec['name']!r}: non-finite value")
        category = np.zeros(len(values), dtype=np.int64)
        for bound in spec["values"]:
            category += values >= bound
        return category
    index = {str(label): i for i, label in enumerate(spec["values"])}
    try:
        return np.array([index[c] for c in cells], dtype=np.int64)
    except KeyError as exc:
        raise CheckError(f"column {spec['name']!r}: unknown label {exc.args[0]!r}") from exc


def decimal(x: float) -> Fraction:
    """The threshold as typed: 0.35 is 7/20, not the nearest binary float."""
    return Fraction(repr(float(x)))


def corr_cmp(sup_k: int, sup: int, n_k: int, total: int, threshold: Fraction) -> int:
    """Sign of ``corr - threshold`` from integer counts alone.

    corr is (sup_k*N - sup*n_k) over sup*n_k when lift <= 1 and over
    sup*(N - n_k) when lift > 1, and 0 when one goal holds every row.
    """
    if n_k == total:
        num, den = 0, 1
    else:
        num = sup_k * total - sup * n_k
        den = sup * n_k if num <= 0 else sup * (total - n_k)
    lhs = num * threshold.denominator
    rhs = threshold.numerator * den
    return (lhs > rhs) - (lhs < rhs)


def exact_criteria(sup_k: int, sup: int, n_k: int, total: int, weights) -> dict[str, Fraction]:
    """f_g, f_all, conf, lift, corr and q as exact rationals; ``weights`` are
    the four quality weights as Fractions of the floats the program uses."""
    f_g = Fraction(sup_k, n_k)
    f_all = Fraction(sup_k, total)
    conf = Fraction(sup_k, sup)
    lift = Fraction(sup_k * total, sup * n_k)
    if n_k == total:
        corr = Fraction(0)
    elif lift <= 1:
        corr = lift - 1
    else:
        corr = (lift - 1) / (Fraction(total, n_k) - 1)
    p1, p2, p3, p4 = weights
    q = p1 * f_all + p2 * f_g + p3 * conf + p4 * corr
    return {"f_g": f_g, "f_all": f_all, "conf": conf, "lift": lift, "corr": corr, "q": q}


@dataclass(frozen=True)
class Config:
    min_corr: Fraction
    corr_stop: Fraction
    min_f_all: Fraction
    neg_corr: Fraction
    weights: tuple[Fraction, ...]
    max_premise_len: int | None

    @classmethod
    def from_output(cls, doc: dict) -> "Config":
        c = doc["config"]
        return cls(
            decimal(c["min_corr"]),
            decimal(c["corr_stop"]),
            decimal(c["min_f_all"]),
            decimal(c["neg_corr"]),
            tuple(Fraction(float(w)) for w in c["weights"]),
            c["max_premise_len"],
        )


def expected_rules(table: Table, config: Config) -> list[tuple]:
    """Re-derive what ``mine --negative`` must emit, in emitted order, by
    depth-first search over bitmaps: tuples ``(goal, premise code, length,
    sup_k, sup, final, negative)``."""
    total = table.rows
    single = [tuple((b & g).bit_count() for g in table.goal_bits) for b in table.prop_bits]
    cap = config.max_premise_len
    low = config.min_f_all
    positive: list[tuple] = []
    negative: list[tuple] = []
    for k, n_k in enumerate(table.goal_sizes):
        if not 0 < n_k < total:
            continue
        cands: list[int] = []
        for i, counts in enumerate(single):
            sup_k, sup = counts[k], sum(counts)
            if sup == 0:
                continue
            if corr_cmp(sup_k, sup, n_k, total, config.min_corr) > 0:
                cands.append(i)
            if corr_cmp(sup_k, sup, n_k, total, config.neg_corr) <= 0:
                negative.append((k, 1 << i, 1, sup_k, sup, True, True))

        def is_final(sup_k: int, sup: int, top: int) -> bool:
            return (
                corr_cmp(sup_k, sup, n_k, total, config.corr_stop) >= 0
                or sup_k * low.denominator < low.numerator * total
                or not cands
                or cands[-1] <= top
            )

        found = []
        stack = []  # (bitmap, premise code, top index, length) of non-final rules
        for i in cands:
            sup_k, sup = single[i][k], sum(single[i])
            final = is_final(sup_k, sup, i)
            found.append((k, 1 << i, 1, sup_k, sup, final, False))
            if not final:
                stack.append((table.prop_bits[i], 1 << i, i, 1))
        goal_bits = table.goal_bits[k]
        while stack:
            bits, code, top, length = stack.pop()
            if cap is not None and length >= cap:
                continue
            for i in cands:
                if i <= top:
                    continue
                child = bits & table.prop_bits[i]
                sup = child.bit_count()
                if sup == 0:
                    continue
                sup_k = (child & goal_bits).bit_count()
                if corr_cmp(sup_k, sup, n_k, total, config.min_corr) < 0:
                    continue
                final = is_final(sup_k, sup, i)
                found.append((k, code | 1 << i, length + 1, sup_k, sup, final, False))
                if not final:
                    stack.append((child, code | 1 << i, i, length + 1))
        found.sort(key=lambda r: (r[2], r[1]))
        positive.extend(found)
    return positive + negative


def _emitted_tuple(rule: dict, goal_index: dict, prop_index: dict) -> tuple:
    code = 0
    for name in rule["premise"]:
        code |= 1 << prop_index[name]
    if code.bit_count() != len(rule["premise"]):
        raise KeyError(rule["premise"])
    return (
        goal_index[rule["goal"]],
        code,
        len(rule["premise"]),
        rule["sup_k"],
        rule["sup"],
        rule["final"],
        rule["negative"],
    )


def premises_tried(doc: dict) -> int:
    """Support scans made by the positive search, read off the output alone:
    one per catalog property, plus, for each non-final rule below the length
    cap, one per candidate of its goal whose bit lies above the premise."""
    cap = doc["config"]["max_premise_len"]
    index = {p["name"]: p["index"] for p in doc["catalog"]}
    positive = [r for r in doc["rules"] if not r["negative"]]
    candidates: dict[str, list[int]] = {}
    for r in positive:
        if len(r["premise"]) == 1:
            candidates.setdefault(r["goal"], []).append(index[r["premise"][0]])
    tried = len(doc["catalog"])
    for r in positive:
        if r["final"] or (cap is not None and len(r["premise"]) >= cap):
            continue
        top = max(index[n] for n in r["premise"])
        tried += sum(1 for c in candidates.get(r["goal"], ()) if c > top)
    return tried


def check_output(table: Table, doc: dict) -> list[str]:
    """Every way ``doc`` departs from the recount, as readable lines; empty
    when the output is correct."""
    errors: list[str] = []
    config = Config.from_output(doc)
    if [p["name"] for p in doc["catalog"]] != table.names:
        return [f"catalog {[p['name'] for p in doc['catalog']]} != recount {table.names}"]
    if doc["goals"] != table.goals:
        return [f"goals {doc['goals']} != recount {table.goals}"]
    report = doc["report"]
    if report["records"] != table.rows or report["partition_sizes"] != table.goal_sizes:
        errors.append(
            f"report records/partitions {report['records']}/{report['partition_sizes']} "
            f"!= recount {table.rows}/{table.goal_sizes}"
        )
    goal_index = {g: k for k, g in enumerate(table.goals)}
    prop_index = {n: i for i, n in enumerate(table.names)}
    try:
        emitted = [_emitted_tuple(r, goal_index, prop_index) for r in doc["rules"]]
    except KeyError as exc:
        return errors + [f"rule with an unknown goal or a malformed premise: {exc.args[0]!r}"]
    for sign, key in ((False, "positive_counts"), (True, "negative_counts")):
        counts = [sum(1 for e in emitted if e[0] == k and e[6] == sign) for k in range(len(table.goals))]
        if report[key] != counts:
            errors.append(f"report {key} {report[key]} != emitted {counts}")

    errors.extend(_check_parents(emitted, table.names))
    expected = expected_rules(table, config)
    if emitted != expected:
        errors.extend(_diff(emitted, expected, table, config))
        return errors

    for rule, e in zip(doc["rules"], emitted):
        goal, _, _, sup_k, sup, _, _ = e
        exact = exact_criteria(sup_k, sup, table.goal_sizes[goal], table.rows, config.weights)
        for key, value in exact.items():
            if not math.isclose(rule[key], float(value), rel_tol=REL_TOL, abs_tol=REL_TOL):
                errors.append(
                    f"{rule['premise']} => {rule['goal']}: {key} {rule[key]!r} != exact {float(value)!r}"
                )
    return errors


def _check_parents(emitted: list[tuple], names: list[str]) -> list[str]:
    """Anti-monotone support: each longer rule's parent (the premise without
    its top property) is an emitted, non-final rule of the same goal whose
    counts are at least the child's."""
    errors = []
    by_key = {(e[0], e[1]): e for e in emitted if not e[6]}
    for e in emitted:
        goal, code, length, sup_k, sup, _, negative = e
        if negative or length == 1:
            continue
        parent = by_key.get((goal, code ^ (1 << (code.bit_length() - 1))))
        if parent is None or parent[5]:
            errors.append(f"rule {_names(code, names)} of goal {goal} has no non-final parent")
        elif sup_k > parent[3] or sup > parent[4]:
            errors.append(f"rule {_names(code, names)} of goal {goal} has more support than its parent")
    return errors


def _names(code: int, names: list[str]) -> list[str]:
    return [n for i, n in enumerate(names) if code >> i & 1]


def _diff(emitted: list[tuple], expected: list[tuple], table: Table, config: Config) -> list[str]:
    """Name the first few rules on which output and recount disagree, and
    whether the exact correlation sits on a threshold, where the program's
    float comparison can decide differently (the float-boundary fault)."""
    lines = []
    got = {(e[0], e[1], e[6]): e for e in emitted}
    want = {(e[0], e[1], e[6]): e for e in expected}
    for key in sorted(got.keys() | want.keys()):
        g, w = got.get(key), want.get(key)
        if g == w:
            continue
        goal, code, _ = key
        ref = w or g
        # corr = 1 is computed exactly, so corr_stop = 1 is no boundary
        thresholds = [config.min_corr, config.neg_corr] + [config.corr_stop] * (config.corr_stop < 1)
        tie = any(corr_cmp(ref[3], ref[4], table.goal_sizes[goal], table.rows, t) == 0 for t in thresholds)
        boundary = " (exact corr on a threshold: float-boundary fault)" if tie else ""
        lines.append(
            f"goal {table.goals[goal]} premise {_names(code, table.names)}: "
            f"emitted {g} recount {w}{boundary}"
        )
        if len(lines) == 10:
            break
    if not lines:
        lines.append("rules are emitted in the wrong order")
    return lines

