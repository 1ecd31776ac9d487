import contextlib
import csv
import dataclasses
import hashlib
import importlib
import io
import json
import os
import random
import subprocess
import sys
import types
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import build_pdb, random_pdb, read_dump
from goalrules import (
    MiningConfig,
    PartitionedDatabase,
    Property,
    PropertyCatalog,
    Rule,
    RuleSet,
    mine,
    preprocess_csv,
)
from goalrules import engine
from goalrules.cli import RunReport, format_rules_csv, format_rules_table, main, mining_output_json
from goalrules.datasets import save_tables, synthetic_tables
from goalrules.metrics import CriteriaWeights, support
from goalrules.preprocess import set_bits

DESC = {
    "columns": [
        {"name": "x", "kind": "continuous", "short": "X", "classes": 2, "values": [0.5]},
        {"name": "f", "kind": "categorical", "short": "F", "classes": 2, "values": ["a", "b"]},
        {"name": "outcome", "kind": "target", "short": "G", "classes": 2, "values": ["g0", "g1"]},
    ]
}

# x >= 0.5 and f=b both lean toward g1; f is a perfect split, x a 15/5 one
ROWS = (
    [("0.2", "a", "g0")] * 15
    + [("0.7", "a", "g0")] * 5
    + [("0.7", "b", "g1")] * 15
    + [("0.2", "b", "g1")] * 5
)


@pytest.fixture
def table(tmp_path):
    db = tmp_path / "toy.csv"
    dbd = tmp_path / "toy.dbd.json"
    with open(db, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(["x", "f", "outcome"])
        writer.writerows(ROWS)
    dbd.write_text(json.dumps(DESC))
    return str(db), str(dbd)


def run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    return json.loads(out)


class TestPreprocessCommand:
    def test_report_and_dump_file(self, table, tmp_path, capsys):
        db, dbd = table
        out = tmp_path / "enc.json"
        assert main(["preprocess", "--db", db, "--dbd", dbd, "--out", str(out)]) == 0
        stdout = capsys.readouterr().out
        assert "X0" in stdout and "F1" in stdout
        assert "partitions: g0=20, g1=20 (total 40)" in stdout
        loaded = read_dump(out)
        assert loaded.partition_sizes == (20, 20)
        assert loaded == preprocess_csv(db, dbd)

    def test_dump_to_stdout_without_out(self, table, capsys):
        db, dbd = table
        assert main(["preprocess", "--db", db, "--dbd", dbd]) == 0
        captured = capsys.readouterr()
        doc = json.loads(captured.out)
        assert doc["partition_sizes"] == [20, 20]
        assert "partitions:" in captured.err

    def test_missing_dbd_is_usage_error(self, table):
        db, _ = table
        with pytest.raises(SystemExit) as excinfo:
            main(["preprocess", "--db", db])
        assert excinfo.value.code == 2

    def test_malformed_description_is_data_error(self, table, tmp_path, capsys):
        db, _ = table
        bad = tmp_path / "bad.dbd.json"
        bad.write_text("{oops")
        assert main(["preprocess", "--db", db, "--dbd", str(bad)]) == 3
        assert "not valid JSON" in capsys.readouterr().err

    def test_missing_cell_names_row_and_column(self, table, tmp_path, capsys):
        db, dbd = table
        broken = tmp_path / "broken.csv"
        content = Path(db).read_text() + "0.3,,g0\n"
        broken.write_text(content)
        assert main(["preprocess", "--db", str(broken), "--dbd", dbd]) == 3
        err = capsys.readouterr().err
        assert "row 41" in err and "'f'" in err

    @pytest.mark.parametrize("flags", [[], ["--skip-missing"]])
    def test_extra_cells_are_data_error(self, table, tmp_path, capsys, flags):
        db, dbd = table
        broken = tmp_path / "broken.csv"
        broken.write_text(Path(db).read_text() + "0.2,a,g0,999\n")
        for command in ("preprocess", "mine"):
            assert main([command, "--db", str(broken), "--dbd", dbd, *flags]) == 3
            err = capsys.readouterr().err
            assert err == "error: row 41: 4 cells, but the header has 3 columns\n"

    @pytest.mark.parametrize("command", ["preprocess", "mine"])
    def test_missing_file_is_data_error(self, table, tmp_path, capsys, command):
        db, dbd = table
        missing = str(tmp_path / "nope.csv")
        for argv in (["--db", missing, "--dbd", dbd], ["--db", db, "--dbd", missing]):
            assert main([command, *argv]) == 3
            err = capsys.readouterr().err
            assert err == f"error: cannot read {missing}: No such file or directory\n"

    @pytest.mark.parametrize("flag", ["--db", "--dbd"])
    def test_out_naming_an_input_is_usage_error(self, table, tmp_path, capsys, monkeypatch, flag):
        """``--out`` may not overwrite the table or its description, however
        the path is spelled, and is refused before either is read."""
        paths = dict(zip(("--db", "--dbd"), table))
        target = Path(paths[flag])
        before = [Path(path).read_bytes() for path in table]
        monkeypatch.chdir(target.parent)
        (tmp_path / "link").symlink_to(target)
        for out in (f"./{target.name}", str(tmp_path / "link")):
            assert main(["preprocess", *sum(paths.items(), ()), "--out", out]) == 2
            assert capsys.readouterr() == ("", f"error: --out and {flag} name the same file: {out}\n")
        assert [Path(path).read_bytes() for path in table] == before
        paths[flag] = str(tmp_path / "missing")  # 2, not the 3 of an input that cannot be read
        assert main(["preprocess", *sum(paths.items(), ()), "--out", paths[flag]]) == 2

    def test_unwritable_out_is_data_error(self, table, tmp_path, capsys):
        db, dbd = table
        out = str(tmp_path / "nope" / "enc.json")
        assert main(["preprocess", "--db", db, "--dbd", dbd, "--out", out]) == 3
        captured = capsys.readouterr()
        assert captured.err == f"error: cannot write {out}: No such file or directory\n"
        assert captured.out == ""

    def test_code_too_long_for_text_is_data_error(self, tmp_path, capsys):
        """A code of more than 4,300 decimal digits (a top bit past about
        14,280) cannot be written as a dump: no dump is printed, and the file
        ``--out`` names keeps its old bytes."""
        labels = [f"v{i}" for i in range(15_000)]
        db, dbd, out = tmp_path / "big.csv", tmp_path / "big.dbd.json", tmp_path / "d.json"
        db.write_text("c,y\nv0,a\nv14999,b\n")
        dbd.write_text(json.dumps({"columns": [
            {"name": "c", "kind": "categorical", "short": "C", "classes": len(labels), "values": labels},
            {"name": "y", "kind": "target", "short": "Y", "classes": 2, "values": ["a", "b"]},
        ]}))
        out.write_text("kept\n")
        error = "error: cannot dump record 1: Exceeds the limit (4300 digits) for integer string conversion"
        assert main(["preprocess", "--db", str(db), "--dbd", str(dbd), "--out", str(out)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith(error)
        assert out.read_text() == "kept\n"
        assert main(["preprocess", "--db", str(db), "--dbd", str(dbd)]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and f"\n{error}" in captured.err

    def test_skip_missing_reports_count(self, table, tmp_path, capsys):
        db, dbd = table
        broken = tmp_path / "broken.csv"
        broken.write_text(Path(db).read_text() + "0.3,,g0\n")
        out = tmp_path / "enc.json"
        code = main(
            ["preprocess", "--db", str(broken), "--dbd", dbd, "--skip-missing", "--out", str(out)]
        )
        assert code == 0
        assert "skipped rows: 1" in capsys.readouterr().out


class TestMineCommand:
    def test_table_output(self, table, capsys):
        db, dbd = table
        assert main(["mine", "--db", db, "--dbd", dbd]) == 0
        out = capsys.readouterr().out
        assert "X1,F1 => g1" in out
        assert "F0 => g0" in out
        assert "# rules: positive=[3, 3]" in out
        assert "0.500" in out  # three-decimal display

    def test_json_schema(self, table, capsys):
        db, dbd = table
        doc = run_json(capsys, ["mine", "--db", db, "--dbd", dbd, "--format", "json"])
        assert set(doc) == {"config", "goals", "catalog", "rules", "report"}
        assert doc["goals"] == ["g0", "g1"]
        assert doc["config"]["min_corr"] == 0.35
        assert len(doc["rules"]) == 6
        rule = doc["rules"][0]
        assert set(rule) == {
            "premise", "goal", "sup_k", "sup", "f_g", "f_all",
            "conf", "lift", "corr", "q", "final", "negative",
        }
        assert rule["premise"] == ["X0"]
        assert doc["report"]["records"] == 40
        assert doc["report"]["positive_counts"] == [3, 3]

    def test_negative_rules_included_on_request(self, table, capsys):
        db, dbd = table
        doc = run_json(
            capsys, ["mine", "--db", db, "--dbd", dbd, "--format", "json", "--negative"]
        )
        negatives = [r for r in doc["rules"] if r["negative"]]
        assert len(negatives) == 4
        assert all(r["corr"] <= -0.35 for r in negatives)
        assert all(r["final"] for r in negatives)
        assert doc["report"]["negative_counts"] == [2, 2]

    def test_without_flag_no_negatives(self, table, capsys):
        db, dbd = table
        doc = run_json(capsys, ["mine", "--db", db, "--dbd", dbd, "--format", "json"])
        assert all(not r["negative"] for r in doc["rules"])
        assert doc["report"]["negative_counts"] == [0, 0]

    def test_one_single_property_pass(self, table, capsys, monkeypatch):
        """Negative rules come from the pass that seeds the search: one
        ``_Bounds`` per goal serves both rule kinds."""
        calls = []
        bounds_of = engine._Bounds.of

        def counted(*args):
            calls.append(args)
            return bounds_of(*args)

        monkeypatch.setattr(engine._Bounds, "of", counted)
        db, dbd = table
        assert main(["mine", "--db", db, "--dbd", dbd, "--negative"]) == 0
        assert "negative=[2, 2]" in capsys.readouterr().out
        assert len(calls) == 2

    def test_csv_output(self, table, capsys):
        db, dbd = table
        assert main(["mine", "--db", db, "--dbd", dbd, "--format", "csv"]) == 0
        captured = capsys.readouterr()
        reader = list(csv.reader(io.StringIO(captured.out)))
        assert reader[0][:5] == ["premise", "goal", "premise_len", "sup_k", "sup"]
        assert len(reader) == 1 + 6
        assert ["X1+F1", "g1"] == reader[-1][:2]
        assert "# rules:" in captured.err

    def test_weights_project_quality_onto_confidence(self, table, capsys):
        db, dbd = table
        doc = run_json(
            capsys,
            ["mine", "--db", db, "--dbd", dbd, "--format", "json", "--weights", "0,0,1,0"],
        )
        for rule in doc["rules"]:
            assert rule["q"] == rule["conf"]

    def test_max_premise_len_flag(self, table, capsys):
        db, dbd = table
        doc = run_json(
            capsys,
            ["mine", "--db", db, "--dbd", dbd, "--format", "json", "--max-premise-len", "1"],
        )
        assert all(len(r["premise"]) == 1 for r in doc["rules"])

    def test_bad_threshold_is_config_error(self, table, capsys):
        db, dbd = table
        assert main(["mine", "--db", db, "--dbd", dbd, "--min-corr", "1.5"]) == 2
        assert "min_corr" in capsys.readouterr().err

    def test_bad_weights_are_config_error(self, table, capsys):
        db, dbd = table
        assert main(["mine", "--db", db, "--dbd", dbd, "--weights", "1,2"]) == 2
        assert "four" in capsys.readouterr().err

    def test_non_numeric_weights_are_config_error(self, table, capsys):
        db, dbd = table
        assert main(["mine", "--db", db, "--dbd", dbd, "--weights", "a,b,c,d"]) == 2
        assert capsys.readouterr().err == "error: --weights expects numbers, got 'a,b,c,d'\n"

    def test_unknown_format_is_usage_error(self, table):
        db, dbd = table
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", "--db", db, "--dbd", dbd, "--format", "xml"])
        assert excinfo.value.code == 2

    def test_json_stable_apart_from_timings(self, table, capsys):
        db, dbd = table
        args = ["mine", "--db", db, "--dbd", dbd, "--format", "json"]
        first = run_json(capsys, args)
        second = run_json(capsys, args)
        for doc in (first, second):
            doc["report"]["preprocess_seconds"] = 0.0
            doc["report"]["mine_seconds"] = 0.0
        assert json.dumps(first) == json.dumps(second)

    def test_threads_do_not_change_output(self, table, capsys):
        db, dbd = table
        one = run_json(capsys, ["mine", "--db", db, "--dbd", dbd, "--format", "json"])
        many = run_json(
            capsys, ["mine", "--db", db, "--dbd", dbd, "--format", "json", "--threads", "3"]
        )
        assert json.dumps(one["rules"]) == json.dumps(many["rules"])

    def test_zero_threads_is_config_error(self, table, capsys):
        db, dbd = table
        assert main(["mine", "--db", db, "--dbd", dbd, "--threads", "0"]) == 2
        assert "thread count" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["mine"])
    def test_threads_checked_before_reading(self, tmp_path, capsys, command):
        missing = str(tmp_path / "nope.csv")
        assert main([command, "--db", missing, "--dbd", missing, "--threads", "0"]) == 2
        assert "thread count" in capsys.readouterr().err

    # the last weights are each finite, but q could reach their sum, which is inf
    @pytest.mark.parametrize(
        "weights", ["nan,1,1,1", "1,inf,1,1", "1,1,-inf,1", "1e308,1e308,1e308,1e308"]
    )
    def test_non_finite_weights_are_config_error(self, table, capsys, weights):
        db, dbd = table
        argv = ["mine", "--db", db, "--dbd", dbd, "--format", "json", "--weights", weights]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "finite" in captured.err

    def test_seed_is_not_a_mining_option(self, table):
        db, dbd = table
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", "--db", db, "--dbd", dbd, "--seed", "1"])
        assert excinfo.value.code == 2


def reference_json(ruleset, pdb, config, report) -> str:
    """The mining document built as one dict per rule and written with
    ``json.dumps(indent=2)``: the layout the streamed output must match."""
    m = len(pdb.catalog)
    doc = {
        "config": {
            "min_corr": config.min_corr,
            "corr_stop": config.corr_stop,
            "min_f_all": config.min_f_all,
            "neg_corr": config.neg_corr,
            "weights": list(config.weights.as_tuple()),
            "max_premise_len": config.max_premise_len,
        },
        "goals": list(pdb.goal_labels),
        "catalog": [
            {
                "index": p.index,
                "name": p.name,
                "column": p.column,
                "category": p.category,
                "full_name": p.full_name,
            }
            for p in pdb.catalog
        ],
        "rules": [
            {
                "premise": [pdb.catalog[i].name for i in range(m) if rule.premise >> i & 1],
                "goal": pdb.goal_labels[rule.goal],
                "sup_k": rule.sup_k,
                "sup": rule.sup,
                "f_g": rule.metrics.f_g,
                "f_all": rule.metrics.f_all,
                "conf": rule.metrics.confidence,
                "lift": rule.metrics.lift,
                "corr": rule.metrics.correlation,
                "q": rule.metrics.quality,
                "final": rule.final,
                "negative": rule.negative,
            }
            for rule in ruleset.all_positive() + ruleset.all_negative()
        ],
        "report": dataclasses.asdict(report),
    }
    return json.dumps(doc, indent=2) + "\n"


def mine_run(pdb, config, negative, dataset="data.csv", seconds=(0.25, 1.5)):
    ruleset = mine(pdb, config)
    if not negative:
        ruleset = ruleset.with_negative([()] * ruleset.goal_count)
    report = RunReport(
        dataset=dataset,
        records=pdb.total,
        partition_sizes=list(pdb.partition_sizes),
        threads=1,
        preprocess_seconds=seconds[0],
        mine_seconds=seconds[1],
        positive_counts=ruleset.positive_counts(),
        negative_counts=ruleset.negative_counts(),
    )
    return ruleset, report


# any character, with JSON's escapes, control characters and non-ASCII favoured
ODD_TEXT = st.text(
    st.one_of(st.sampled_from('"\\/\x00\x07\n\x1f\x7f\u00e9\u6f22\U0001f600\ud800'), st.characters()),
    max_size=6,
)


class TestJsonEmitter:
    @pytest.mark.parametrize(
        "config, negative, rules",
        [
            (MiningConfig(), True, (6, 4)),
            (MiningConfig(max_premise_len=1), True, (4, 4)),
            (MiningConfig(min_corr=1.0), False, (0, 0)),
            (MiningConfig(min_corr=1.0), True, (0, 4)),
            (MiningConfig(weights=CriteriaWeights(0.5, 0, 3, 1e-300)), False, (6, 0)),
        ],
    )
    def test_matches_json_dumps(self, table, config, negative, rules):
        db, dbd = table
        pdb = preprocess_csv(db, dbd)
        ruleset, report = mine_run(pdb, config, negative, dataset=db)
        counts = (len(ruleset.all_positive()), len(ruleset.all_negative()))
        assert counts == rules
        text = mining_output_json(ruleset, pdb, config, report)
        assert text == reference_json(ruleset, pdb, config, report)
        if rules == (0, 0):
            assert '"rules": [],' in text

    def test_more_than_64_properties(self):
        # sparse records over 70 properties, so premises reach bits 64..69
        rng = random.Random(5)
        parts = [
            [(1 << rng.randrange(60, 70)) | (1 << rng.randrange(70)) | (1 << 64 + g) for _ in range(30)]
            for g in range(3)
        ]
        pdb = build_pdb(parts, 70)
        config = MiningConfig(min_corr=0.2)
        ruleset, report = mine_run(pdb, config, negative=True)
        assert any(rule.premise >> 64 for rule in ruleset.all_positive())
        assert any(rule.premise >> 64 for rule in ruleset.all_negative())
        text = mining_output_json(ruleset, pdb, config, report)
        assert text == reference_json(ruleset, pdb, config, report)

    def test_premise_whose_prefix_was_not_emitted(self, table):
        """A hand-built rule set: a premise before its prefix, one after it,
        and the empty premise spell their names as ``json.dumps`` does."""
        db, dbd = table
        pdb = preprocess_csv(db, dbd)
        config = MiningConfig()
        basis = (pdb.partition_sizes[1], pdb.total, config.weights)
        rules = []
        for premise in (0b1010, 0b0010, 0b1010, 0, 0b1001):
            counts = support(premise, pdb)
            rules.append(Rule(premise, premise.bit_count(), 1, counts[1], sum(counts), basis, final=False))
        ruleset = RuleSet(((), tuple(rules)), ((), ()))
        _, report = mine_run(pdb, config, negative=False)
        text = mining_output_json(ruleset, pdb, config, report)
        assert text == reference_json(ruleset, pdb, config, report)
        assert json.loads(text)["rules"][4]["premise"] == ["X0", "F1"]

    @pytest.mark.parametrize("fmt", ["json", "csv", "table"])
    def test_every_format_spells_the_set_bits(self, fmt):
        """Each format's premise is the names at its set bits, in bit order,
        whichever of its prefixes the rule set holds: 0b1010 comes before
        its prefix 0b0010, 0b1001's prefix 0b0001 is no rule, 0 is the empty
        premise, the next two premises reach past bit 63, and the last holds
        every one of 1,200 properties, more prefixes than the interpreter's
        default recursion limit."""
        premises = (
            0b1010, 0b0010, 0b1010, 0, 0b1001, 1 << 66 | 1 << 65 | 1, 1 << 64 | 0b10, (1 << 1200) - 1
        )
        pdb = build_pdb([[*filter(None, premises), (1 << 67) - 1], [1 << 69, 0b100]], 1200)
        config = MiningConfig()
        basis = (pdb.partition_sizes[0], pdb.total, config.weights)

        def rule(premise, negative=False):
            counts = support(premise, pdb)
            return Rule(premise, premise.bit_count(), 0, counts[0], sum(counts), basis, False, negative)

        ruleset = RuleSet((tuple(map(rule, premises)), ()), ((rule(1 << 65, True),), ()))
        names = pdb.catalog.names()
        expected = [[names[i] for i in set_bits(p)] for p in (*premises, 1 << 65)]
        if fmt == "json":
            _, report = mine_run(pdb, config, negative=True)
            text = mining_output_json(ruleset, pdb, config, report)
            spelled = [r["premise"] for r in json.loads(text)["rules"]]
        elif fmt == "csv":
            rows = list(csv.reader(io.StringIO(format_rules_csv(ruleset, pdb))))[1:]
            spelled = [row[0].split("+") if row[0] else [] for row in rows]
        else:
            heads = [line.split(" => ")[0] for line in format_rules_table(ruleset, pdb).splitlines()[2:]]
            spelled = [head.split(",") if head else [] for head in heads]
        assert spelled == expected

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32),
        negative=st.booleans(),
        max_len=st.sampled_from([None, 1, 2]),
        dataset=ODD_TEXT,
        seconds=st.tuples(st.floats(0, 1e6), st.floats(0, 1e6)),
        data=st.data(),
    )
    def test_escapes_match_json_dumps(self, seed, negative, max_len, dataset, seconds, data):
        base = random_pdb(random.Random(seed))
        m = len(base.catalog)
        names = data.draw(st.lists(ODD_TEXT, min_size=m, max_size=m, unique=True))
        labels = data.draw(st.lists(ODD_TEXT, min_size=len(base.goal_labels),
                                    max_size=len(base.goal_labels)))
        catalog = PropertyCatalog(
            tuple(Property(i, name, name[::-1], i % 3, f"{name} = {i}") for i, name in enumerate(names))
        )
        pdb = PartitionedDatabase(base.partitions, tuple(labels), catalog)
        config = MiningConfig(min_corr=0.2, max_premise_len=max_len)
        ruleset, report = mine_run(pdb, config, negative, dataset, seconds)
        text = mining_output_json(ruleset, pdb, config, report)
        assert text == reference_json(ruleset, pdb, config, report)
        assert text.isascii()

    def test_stdout_stream_matches_document(self, table, tmp_path):
        db, dbd = table
        out_path = tmp_path / "out.json"
        argv = ["mine", "--db", db, "--dbd", dbd, "--format", "json", "--negative"]
        with open(out_path, "w") as out, contextlib.redirect_stdout(out):
            assert main(argv) == 0
        streamed = out_path.read_bytes()
        spans = json.loads(streamed)["report"]
        # the same run in-process, with the streamed run's two timing fields
        pdb = preprocess_csv(db, dbd)
        config = MiningConfig()
        seconds = (spans["preprocess_seconds"], spans["mine_seconds"])
        ruleset, report = mine_run(pdb, config, negative=True, dataset=db, seconds=seconds)
        assert streamed == mining_output_json(ruleset, pdb, config, report).encode()


class TestSynthCommand:
    def test_generated_table_mines_cleanly(self, tmp_path, capsys):
        db = tmp_path / "s.csv"
        dbd = tmp_path / "s.dbd.json"
        code = main(
            ["synth", "--rows", "120", "--seed", "3", "--out-db", str(db), "--out-dbd", str(dbd)]
        )
        assert code == 0
        assert "wrote 120 rows" in capsys.readouterr().out
        assert main(["mine", "--db", str(db), "--dbd", str(dbd)]) == 0

    def test_runs_as_python_module(self, tmp_path):
        import goalrules

        db = tmp_path / "s.csv"
        dbd = tmp_path / "s.dbd.json"
        env = dict(os.environ, PYTHONPATH=str(Path(goalrules.__file__).parent.parent))
        argv = ["synth", "--rows", "30", "--out-db", str(db), "--out-dbd", str(dbd)]
        done = subprocess.run(
            [sys.executable, "-m", "goalrules.cli", *argv], env=env, capture_output=True, timeout=60
        )
        assert done.returncode == 0
        assert db.exists() and dbd.exists()

    def test_degenerate_shape_is_config_error(self, tmp_path, capsys):
        db = tmp_path / "s.csv"
        dbd = tmp_path / "s.dbd.json"
        code = main(["synth", "--rows", "0", "--out-db", str(db), "--out-dbd", str(dbd)])
        assert code == 2

    def test_same_path_for_both_is_config_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["synth", "--rows", "30", "--out-db", "s.csv", "--out-dbd", "./s.csv"]) == 2
        assert capsys.readouterr().err == "error: --out-db and --out-dbd name the same file: s.csv\n"
        assert not (tmp_path / "s.csv").exists()

    @pytest.mark.parametrize("unwritable", ["--out-db", "--out-dbd"])
    def test_unwritable_path_is_data_error(self, tmp_path, capsys, unwritable):
        db, dbd = str(tmp_path / "s.csv"), str(tmp_path / "s.dbd.json")
        argv = ["synth", "--rows", "30", "--out-db", db, "--out-dbd", dbd]
        argv[argv.index(unwritable) + 1] = missing = str(tmp_path / "nope" / "x")
        assert main(argv) == 3
        err = capsys.readouterr().err
        assert err == f"error: cannot write {missing}: No such file or directory\n"

    def test_colliding_property_names_are_config_error(self, tmp_path, capsys):
        """With 12 columns of 11 classes, D1 + category 10 and D11 + category
        0 would both name property D110, a table ``mine`` rejects."""
        db, dbd = str(tmp_path / "s.csv"), str(tmp_path / "s.dbd.json")
        shape = ["--continuous", "0", "--categorical", "12", "--classes", "11"]
        assert main(["synth", "--rows", "5", *shape, "--out-db", db, "--out-dbd", dbd]) == 2
        assert "'D110'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_failed_write_names_both_paths(self, tmp_path, capsys):
        db = str(tmp_path / "s.csv")
        assert main(["synth", "--rows", "30", "--out-db", db, "--out-dbd", "/dev/full"]) == 3
        err = capsys.readouterr().err
        assert err == f"error: cannot write {db} or /dev/full: No space left on device\n"


def _without_timings(out: bytes) -> list[bytes]:
    return [
        line for line in out.splitlines()
        if b'"preprocess_seconds"' not in line and b'"mine_seconds"' not in line
    ]


class TestOutputPin:
    """Whole outputs on a synthetic table of 1,266 positive and 35 negative
    rules, pinned by sha256: the JSON with its two timing lines removed, and
    the CSV. The digests were taken while the search still built float
    criteria for every premise, so they pin the integer decisions and the
    emitter's per-count reuse of criteria text to the same bytes. The
    replicated table (300 rows written 4 times, 992 positive and 37
    negative rules) is mined on its multiset root; its digests were taken
    while the search still counted on every record, and its ``--min-freq``
    puts the frequency floor at 18, not a multiple of 4."""

    ARGS = [
        "mine", "--db", "s.csv", "--dbd", "s.dbd.json", "--negative",
        "--min-corr", "0.3", "--max-premise-len", "4",
    ]
    REPLICATED = [
        "mine", "--db", "r.csv", "--dbd", "r.dbd.json", "--negative",
        "--min-corr", "0.3", "--max-premise-len", "4", "--min-freq", "0.015",
    ]

    @pytest.fixture(autouse=True)
    def synthetic(self, tmp_path, monkeypatch):
        table, description = synthetic_tables(600, 10, categorical=1, seed=3)
        save_tables(table, description, tmp_path / "s.csv", tmp_path / "s.dbd.json")
        table, description = synthetic_tables(300, 10, categorical=1, seed=4)
        save_tables(table * 4, description, tmp_path / "r.csv", tmp_path / "r.dbd.json")
        monkeypatch.chdir(tmp_path)  # the JSON report names the table by this relative path

    def test_json(self, capsys):
        assert main(self.ARGS + ["--format", "json"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(json.loads(out)["rules"]) == 1301
        digest = hashlib.sha256(b"\n".join(_without_timings(out))).hexdigest()
        assert digest == "cec0d32c0b7c0a021bf36c3e783a12e564db93cf174a1a865a6bdbacacd3162e"

    def test_csv(self, capsys):
        assert main(self.ARGS + ["--format", "csv"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "3ed801d1e33c76bd069df822764ddc9fd115389578dee7dee55a7d51cdfa2c87"

    def test_replicated_json(self, capsys):
        assert main(self.REPLICATED + ["--format", "json"]) == 0
        out = capsys.readouterr().out.encode()
        assert len(json.loads(out)["rules"]) == 1029
        digest = hashlib.sha256(b"\n".join(_without_timings(out))).hexdigest()
        assert digest == "587410ad40d520c1b080e6f3962091a9169319e6e7bebe2da69ee61831994533"

    def test_replicated_csv(self, capsys):
        assert main(self.REPLICATED + ["--format", "csv"]) == 0
        digest = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "e1a1a589f4c5160148d49e508e2e6a42acf548dda1a93f893f775bac083621fd"


# On a child's PYTHONPATH, it makes every import of numpy fail.
WITHOUT_NUMPY = Path(__file__).parent / "without_numpy"
PREPROCESS = """
import sys
from goalrules.preprocess import _np, preprocess_csv
pdb = preprocess_csv(sys.argv[1], sys.argv[2], skip_missing=True)
print(_np is None, pdb.partitions, pdb.skipped_rows)
"""
MINE = "import sys; from goalrules.cli import run; sys.argv[0] = 'goalrules'; run()"


class TestWithoutNumpy:
    @pytest.mark.parametrize(
        "continuous", [10, 22, 43], ids=["30-properties", "66-properties", "129-properties"]
    )
    def test_mine_matches_the_numpy_run(self, tmp_path, continuous):
        """With numpy's import blocked, the program takes its pure-Python
        paths: the same partitions, packed in as many 64-bit limbs, and the
        same output apart from the timings."""
        pytest.importorskip("numpy", exc_type=ImportError)
        import goalrules

        db, dbd = tmp_path / "s.csv", tmp_path / "s.dbd.json"
        table, description = synthetic_tables(400, continuous, categorical=0, seed=5)
        save_tables(table, description, db, dbd)
        with open(db, "a") as handle:  # one row for --skip-missing to drop
            handle.write("," * continuous + "\n")
        src = str(Path(goalrules.__file__).parent.parent)
        argv = ["mine", "--negative", "--format", "json", "--min-corr", "0.2", "--max-premise-len", "3",
                "--skip-missing", "--db", str(db), "--dbd", str(dbd)]
        outputs = []
        for path in (src, os.pathsep.join([str(WITHOUT_NUMPY), src])):
            env = dict(os.environ, PYTHONPATH=path)
            for code, args in ((PREPROCESS, [str(db), str(dbd)]), (MINE, argv)):
                done = subprocess.run(
                    [sys.executable, "-c", code, *args], env=env, capture_output=True, timeout=120
                )
                assert done.returncode == 0, done.stderr
                outputs.append(done.stdout)
        with_numpy, _, without, _ = outputs
        assert with_numpy.startswith(b"False ") and without.startswith(b"True ")
        pdb = preprocess_csv(db, dbd, skip_missing=True)
        assert with_numpy == f"False {pdb.partitions} 1\n".encode()
        assert with_numpy.count(f"width={-(-3 * continuous // 64)})".encode()) == 3
        assert without == b"True" + with_numpy[5:]
        doc = json.loads(outputs[1])
        assert len(doc["catalog"]) == 3 * continuous
        assert any(r["negative"] for r in doc["rules"]) and any(len(r["premise"]) > 1 for r in doc["rules"])
        assert _without_timings(outputs[3]) == _without_timings(outputs[1])


class TestUtf8Input:
    def test_byte_order_mark_mines_the_same_bytes(self, table, tmp_path, capsys):
        db, dbd = table
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + Path(db).read_bytes())
        outputs = {}
        for path in (db, str(marked)):
            for fmt in ("json", "csv", "table"):
                assert main(["mine", "--negative", "--format", fmt, "--db", path, "--dbd", dbd]) == 0
                out = capsys.readouterr().out.replace(path, "DB")
                outputs[path, fmt] = [line for line in out.splitlines() if "_seconds" not in line]
            dump = tmp_path / "dump.json"
            assert main(["preprocess", "--db", path, "--dbd", dbd, "--out", str(dump)]) == 0
            capsys.readouterr()
            outputs[path, "dump"] = dump.read_bytes()
        for key in ("json", "csv", "table", "dump"):
            assert outputs[str(marked), key] == outputs[db, key]
        assert len(json.loads("\n".join(outputs[db, "json"]))["rules"]) > 1

    def test_non_ascii_label_under_the_c_locale(self, tmp_path):
        import goalrules

        doc = json.loads(json.dumps(DESC))
        doc["columns"][1]["values"] = ["a", "grün"]
        db, dbd = tmp_path / "t.csv", tmp_path / "t.dbd.json"
        lines = [",".join(row).replace(",b,", ",grün,") for row in ROWS]
        db.write_text("x,f,outcome\n" + "\n".join(lines) + "\n", encoding="utf-8")
        dbd.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        env = dict(
            os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
            PYTHONPATH=str(Path(goalrules.__file__).parent.parent),
        )
        probe = "import locale; print(locale.getpreferredencoding(False))"
        encoding = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, timeout=60)
        assert encoding.stdout.strip().lower() not in (b"utf-8", b"utf8")
        done = subprocess.run(
            [sys.executable, "-m", "goalrules.cli", "mine", "--format", "json", "--db", str(db), "--dbd", str(dbd)],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        catalog = json.loads(done.stdout)["catalog"]
        assert [p["full_name"] for p in catalog if p["column"] == "f"] == ["f = a", "f = grün"]


    @pytest.mark.parametrize(
        "command, stream, expected",
        [
            (["preprocess"], "stderr", "f = grün"),  # the catalog; the dump goes to stdout
            (["mine", "--format", "table"], "stdout", "F1 => größer"),
            (["mine", "--format", "csv"], "stdout", "F1,größer,"),
        ],
        ids=["preprocess", "mine-table", "mine-csv"],
    )
    def test_output_is_utf8_under_the_c_locale(self, tmp_path, command, stream, expected):
        """Output is written as UTF-8 whatever the locale, as input is read."""
        import goalrules

        doc = json.loads(json.dumps(DESC))
        doc["columns"][1]["values"] = ["a", "grün"]
        doc["columns"][2]["values"] = ["g0", "größer"]
        db, dbd = tmp_path / "t.csv", tmp_path / "t.dbd.json"
        lines = [",".join(row).replace(",b,", ",grün,").replace("g1", "größer") for row in ROWS]
        db.write_text("x,f,outcome\n" + "\n".join(lines) + "\n", encoding="utf-8")
        dbd.write_text(json.dumps(doc, ensure_ascii=False), encoding="utf-8")
        env = {k: v for k, v in os.environ.items() if k != "PYTHONIOENCODING"}
        env.update(
            LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
            PYTHONPATH=str(Path(goalrules.__file__).parent.parent),
        )
        done = subprocess.run(
            [sys.executable, "-m", "goalrules.cli", *command, "--db", str(db), "--dbd", str(dbd)],
            env=env, capture_output=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr
        out = getattr(done, stream)
        assert expected.encode("utf-8") in out
        assert b"\\x" not in out


class TestPublicNames:
    KEPT = [
        "ColumnDescriptor", "ConfigError", "CriteriaWeights", "DataError", "MiningConfig",
        "MissingValueError", "PartitionedDatabase", "Property", "PropertyCatalog", "Rule",
        "RuleMetrics", "RuleSet", "build_catalog", "compute_metrics", "dump_database",
        "mine", "parse_description", "preprocess_csv",
        "read_table", "recommended_min_correlation",
    ]

    def test_all_is_the_kept_list(self):
        import goalrules

        assert goalrules.__all__ == self.KEPT
        for name in self.KEPT:
            assert getattr(goalrules, name) is not None

    def test_preprocess_is_the_module(self):
        import goalrules

        assert isinstance(goalrules.preprocess, types.ModuleType)
        assert goalrules.preprocess.preprocess_csv is goalrules.preprocess_csv

    def test_oracle_is_not_part_of_the_package(self):
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module("goalrules.oracle")


class TestClosedStdout:
    @pytest.mark.parametrize(
        "command,rows,continuous",
        [
            pytest.param(
                ["mine", "--negative", "--format", "json", "--min-corr", "0.1"], 6000, 10,
                id="mine-json",
            ),
            pytest.param(["preprocess"], 6000, 10, id="preprocess"),
            # about 3 kB, which stay in stdout's buffer until the flush at exit
            pytest.param(["mine", "--format", "json"], 40, 1, id="mine-json-buffered"),
        ],
    )
    def test_reader_closing_stdout_ends_quietly(self, tmp_path, command, rows, continuous):
        """``goalrules ... | head``: status 141 and no traceback, whether a
        write fails first or only the flush at exit."""
        import goalrules

        db, dbd = tmp_path / "s.csv", tmp_path / "s.dbd.json"
        table, description = synthetic_tables(rows, continuous, categorical=1, seed=1)
        save_tables(table, description, db, dbd)
        # Python's default buffered stdout, whatever this process was given
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = str(Path(goalrules.__file__).parent.parent)
        child = subprocess.Popen(
            [sys.executable, "-m", "goalrules.cli", *command, "--db", str(db), "--dbd", str(dbd)],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        )
        child.stdout.close()  # long before the child has mined or encoded anything
        _, err = child.communicate(timeout=120)
        assert child.returncode == 141
        assert b"Traceback" not in err and b"Exception ignored" not in err

    @pytest.mark.parametrize("db_exists", [True, False], ids=["table", "missing-table"])
    def test_stdout_closed_at_start_is_one_error_line(self, table, tmp_path, db_exists):
        """``goalrules mine ... >&-``: status 2 and one line on stderr, before
        any input is read, so a missing table is not reported."""
        import goalrules

        db, dbd = table
        if not db_exists:
            db = str(tmp_path / "absent.csv")
        env = dict(os.environ, PYTHONPATH=str(Path(goalrules.__file__).parent.parent))
        done = subprocess.run(
            ["sh", "-c", 'exec "$0" -m goalrules.cli "$@" >&-', sys.executable,
             "mine", "--format", "json", "--db", db, "--dbd", dbd],
            env=env, stderr=subprocess.PIPE, timeout=60,
        )
        assert done.returncode == 2
        assert done.stderr == b"error: standard output is closed\n"


class TestClosedStderr:
    @staticmethod
    def run(argv, redirect):
        """``goalrules`` in a subprocess, its stderr closed when
        ``redirect`` is ``2>&-``."""
        import goalrules

        env = dict(os.environ, PYTHONPATH=str(Path(goalrules.__file__).parent.parent))
        return subprocess.run(
            ["sh", "-c", f'exec "$0" -m goalrules.cli "$@" {redirect}', sys.executable, *argv],
            env=env, capture_output=True, timeout=60,
        )

    @pytest.mark.parametrize(
        "extra,status",
        [([], 3), (["--min-corr", "5"], 2)],
        ids=["data-error", "config-error"],
    )
    def test_error_status_without_stderr(self, tmp_path, extra, status):
        """``goalrules mine ... 2>&-``: the error line has nowhere to go, but
        the status is still the error's, not 1 from a failed print."""
        argv = ["mine", "--db", str(tmp_path / "absent.csv"), "--dbd", str(tmp_path / "absent.json"), *extra]
        for redirect in ("2>&-", ""):
            done = self.run(argv, redirect)
            assert (done.returncode, done.stdout) == (status, b"")
            assert done.stderr == b"" if redirect else done.stderr.startswith(b"error: ")

    @pytest.mark.parametrize(
        "command,report",
        [(["mine", "--format", "csv"], b"# dataset="), (["preprocess"], b" idx name")],
        ids=["mine-csv", "preprocess"],
    )
    def test_report_dropped_without_stderr(self, table, command, report):
        """``goalrules mine --format csv ... 2>&-``: the report meant for
        stderr is dropped, and the run succeeds with its stdout whole."""
        db, dbd = table
        outputs = []
        for redirect in ("2>&-", ""):
            done = self.run([*command, "--db", db, "--dbd", dbd], redirect)
            assert done.returncode == 0
            assert done.stderr == b"" if redirect else done.stderr.startswith(report)
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1] and outputs[0].startswith((b"premise,", b"{"))
