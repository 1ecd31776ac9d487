"""Tests of the independent checker on small tables counted by hand.

    python3 -m pytest perfbench/test_check.py
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import check

SRC = Path(__file__).resolve().parent.parent / "src"

# a: categorical x/y -> A0, A1; b: one boundary at 0.5 -> B0 (< 0.5), B1 (>= 0.5)
DESCRIPTION = {
    "columns": [
        {"name": "a", "kind": "categorical", "short": "A", "classes": 2, "values": ["x", "y"]},
        {"name": "b", "kind": "continuous", "short": "B", "classes": 2, "values": [0.5]},
        {"name": "g", "kind": "target", "short": "G", "classes": 2, "values": ["G0", "G1"]},
    ]
}
ROWS = [
    ("x", "0.2", "G0"),
    ("x", "0.7", "G0"),
    ("x", "0.5", "G0"),  # on the boundary: bin B1
    ("y", "0.1", "G1"),
    ("y", "0.9", "G1"),
    ("x", "0.3", "G1"),
]
CONFIG = {
    "min_corr": 0.3,
    "corr_stop": 1.0,
    "min_f_all": 0.01,
    "neg_corr": -0.35,
    "weights": [1.0, 1.0, 1.0, 1.0],
    "max_premise_len": None,
}
# (premise, goal, sup_k, sup, corr, final, negative), worked out from ROWS.
# N = 6, n_G0 = n_G1 = 3. A0 holds rows 1,2,3,6; A1 4,5; B0 1,4,6; B1 2,3,5.
HAND_RULES = [
    (["A0"], "G0", 3, 4, Fraction(1, 2), False, False),
    (["B1"], "G0", 2, 3, Fraction(1, 3), True, False),  # no candidate above B1
    (["A0", "B1"], "G0", 2, 2, Fraction(1), True, False),  # reaches corr_stop
    (["A1"], "G1", 2, 2, Fraction(1), True, False),
    (["B0"], "G1", 2, 3, Fraction(1, 3), True, False),  # A1 sits below B0
    (["A1"], "G0", 0, 2, Fraction(-1), True, True),
    (["A0"], "G1", 1, 4, Fraction(-1, 2), True, True),
]


def _write_table(directory: Path, rows, description) -> tuple[Path, Path]:
    csv_path, dbd_path = directory / "t.csv", directory / "t.dbd.json"
    names = [c["name"] for c in description["columns"]]
    csv_path.write_text("\n".join([",".join(names)] + [",".join(r) for r in rows]) + "\n")
    dbd_path.write_text(json.dumps(description))
    return csv_path, dbd_path


def _document(rules, config=CONFIG, goal_sizes=(3, 3)) -> dict:
    """A ``mine --format json`` document for ``rules``, with the criteria
    computed the way the program computes them."""
    total = sum(goal_sizes)
    out = []
    for premise, goal, sup_k, sup, _, final, negative in rules:
        n_k = goal_sizes[int(goal[1:])]
        lift = (sup_k * total) / (sup * n_k)
        corr = lift - 1.0 if lift <= 1.0 else (lift - 1.0) / (total / n_k - 1.0)
        f_g, f_all, conf = sup_k / n_k, sup_k / total, sup_k / sup
        out.append({
            "premise": premise, "goal": goal, "sup_k": sup_k, "sup": sup,
            "f_g": f_g, "f_all": f_all, "conf": conf, "lift": lift, "corr": corr,
            "q": f_all + f_g + conf + corr, "final": final, "negative": negative,
        })
    positive = [sum(1 for r in rules if r[1] == g and not r[6]) for g in ("G0", "G1")]
    negative = [sum(1 for r in rules if r[1] == g and r[6]) for g in ("G0", "G1")]
    return {
        "config": config,
        "goals": ["G0", "G1"],
        "catalog": [{"index": i, "name": n} for i, n in enumerate(["A0", "A1", "B0", "B1"])],
        "rules": out,
        "report": {
            "records": total, "partition_sizes": list(goal_sizes),
            "positive_counts": positive, "negative_counts": negative,
        },
    }


@pytest.fixture
def table(tmp_path) -> check.Table:
    csv_path, _ = _write_table(tmp_path, ROWS, DESCRIPTION)
    return check.load_table(csv_path, DESCRIPTION)


def test_rebinning_uses_half_open_bins(table):
    assert table.names == ["A0", "A1", "B0", "B1"]
    assert (table.rows, table.goal_sizes) == (6, [3, 3])
    rows_of = lambda bits: [i + 1 for i in range(6) if bits >> i & 1]  # noqa: E731
    assert [rows_of(b) for b in table.prop_bits] == [[1, 2, 3, 6], [4, 5], [1, 4, 6], [2, 3, 5]]


def test_recount_matches_hand_counts(table):
    index = {n: i for i, n in enumerate(table.names)}
    want = [
        (int(g[1:]), sum(1 << index[p] for p in premise), len(premise), sup_k, sup, final, negative)
        for premise, g, sup_k, sup, _, final, negative in HAND_RULES
    ]
    assert check.expected_rules(table, check.Config.from_output(_document(HAND_RULES))) == want
    for premise, g, sup_k, sup, corr, *_ in HAND_RULES:
        exact = check.exact_criteria(sup_k, sup, 3, 6, (Fraction(1),) * 4)
        assert exact["corr"] == corr


def test_correct_document_passes(table):
    assert check.check_output(table, _document(HAND_RULES)) == []


def test_program_output_passes(tmp_path):
    sys.path.insert(0, str(SRC))
    try:
        from goalrules.cli import main
        from goalrules.datasets import save_tables, synthetic_tables
    finally:
        sys.path.remove(str(SRC))
    rows, description = synthetic_tables(rows=400, continuous=3, categorical=1, seed=3)
    csv_path, dbd_path, out_path = tmp_path / "s.csv", tmp_path / "s.dbd.json", tmp_path / "out.json"
    save_tables(rows, description, csv_path, dbd_path)
    with open(out_path, "w") as out:
        stdout, sys.stdout = sys.stdout, out
        try:
            code = main(["mine", "--db", str(csv_path), "--dbd", str(dbd_path), "--negative",
                         "--format", "json", "--min-corr", "0.2"])
        finally:
            sys.stdout = stdout
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert len(doc["rules"]) > 10
    assert check.check_output(check.load_table(csv_path, description), doc) == []


def _corrupt(doc: dict, how: str) -> dict:
    bad = copy.deepcopy(doc)
    rules = bad["rules"]
    if how == "count":
        rules[0]["sup_k"] -= 1
    elif how == "final":
        rules[0]["final"] = not rules[0]["final"]
    elif how == "missing":  # an eligible extension the recount keeps
        del rules[2]
        bad["report"]["positive_counts"][0] -= 1
    elif how == "extra":  # B1 is not a candidate of G1
        rules.insert(5, {**rules[1], "goal": "G1"})
    elif how == "float":
        rules[0]["corr"] *= 1 + 1e-9
    elif how == "order":
        rules[0], rules[1] = rules[1], rules[0]
    elif how == "report":
        bad["report"]["records"] += 1
    return bad


@pytest.mark.parametrize("how", ["count", "final", "missing", "extra", "float", "order", "report"])
def test_corrupted_document_is_rejected(table, how):
    assert check.check_output(table, _corrupt(_document(HAND_RULES), how))


def test_support_above_parent_is_rejected(table):
    doc = _document(HAND_RULES)
    doc["rules"][2]["sup"] = 5  # A0+B1 cannot hold more rows than A0 (4)
    errors = check.check_output(table, doc)
    assert any("more support than its parent" in e for e in errors)


def test_threshold_tie_is_decided_exactly_and_named(tmp_path):
    # 200 rows, goal G0 holds 100; A0 holds 40 rows, 27 of them in G0:
    # corr = 2*27/40 - 1 = 7/20 exactly, which is not above --min-corr 0.35,
    # while the float computation gives 0.3500000000000001.
    rows = [("x", "0.1", "G0")] * 27 + [("y", "0.1", "G0")] * 73
    rows += [("x", "0.1", "G1")] * 13 + [("y", "0.1", "G1")] * 87
    csv_path, _ = _write_table(tmp_path, rows, DESCRIPTION)
    table = check.load_table(csv_path, DESCRIPTION)
    assert check.corr_cmp(27, 40, 100, 200, check.decimal(0.35)) == 0
    config = {**CONFIG, "min_corr": 0.35}
    doc = _document([(["A0"], "G0", 27, 40, None, True, False)], config, goal_sizes=(100, 100))
    assert doc["rules"][0]["corr"] > 0.35
    errors = check.check_output(table, doc)
    assert any("G0 premise ['A0']" in e and "float-boundary" in e for e in errors)
    # A0 => not G1 sits exactly on --neg-corr -0.35: (13*200 - 40*100) / (40*100)
    assert (1, 0b0001, 1, 13, 40, True, True) in check.expected_rules(table, check.Config.from_output(doc))


def test_premises_tried_counts_scans_from_the_output():
    # 4 single-property scans, then A0 (non-final, top bit 0) tries B1
    assert check.premises_tried(_document(HAND_RULES)) == 5


def test_rule_under_min_f_all_is_final(table):
    # f_all(A0 => G0) = 3/6 < 0.6: A0 turns final, so A0+B1 is never tried
    config = check.Config.from_output(_document(HAND_RULES, {**CONFIG, "min_f_all": 0.6}))
    rules = check.expected_rules(table, config)
    assert (0, 0b0001, 1, 3, 4, True, False) in rules
    assert not any(r[2] == 2 for r in rules)


def test_extension_on_min_corr_is_kept(tmp_path):
    # 200 rows, G0 holds 100. A0+B0 holds 50 rows, 30 in G0: corr = 2*30/50 - 1
    # = 1/5 exactly, so at --min-corr 0.2 the extension is kept (corr >= min_corr).
    rows = [("x", "0.1", "G0")] * 30 + [("x", "0.1", "G1")] * 20
    rows += [("x", "0.9", "G0")] * 40 + [("x", "0.9", "G1")] * 10
    rows += [("y", "0.1", "G0")] * 16 + [("y", "0.1", "G1")] * 4
    rows += [("y", "0.9", "G0")] * 14 + [("y", "0.9", "G1")] * 66
    csv_path, _ = _write_table(tmp_path, rows, DESCRIPTION)
    table = check.load_table(csv_path, DESCRIPTION)
    config = check.Config.from_output(_document([], {**CONFIG, "min_corr": 0.2}, goal_sizes=(100, 100)))
    assert check.corr_cmp(30, 50, 100, 200, config.min_corr) == 0
    assert (0, 0b0101, 2, 30, 50, True, False) in check.expected_rules(table, config)
