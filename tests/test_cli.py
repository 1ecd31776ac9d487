import csv
import io
import json

import pytest

from goalrules import load_database
from goalrules.cli import main

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
        loaded = load_database(out)
        assert loaded.partition_sizes == (20, 20)

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
        content = open(db).read() + "0.3,,g0\n"
        broken.write_text(content)
        assert main(["preprocess", "--db", str(broken), "--dbd", dbd]) == 3
        err = capsys.readouterr().err
        assert "row 41" in err and "'f'" in err

    def test_skip_missing_reports_count(self, table, tmp_path, capsys):
        db, dbd = table
        broken = tmp_path / "broken.csv"
        broken.write_text(open(db).read() + "0.3,,g0\n")
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

    def test_seed_is_not_a_mining_option(self, table):
        db, dbd = table
        with pytest.raises(SystemExit) as excinfo:
            main(["mine", "--db", db, "--dbd", dbd, "--seed", "1"])
        assert excinfo.value.code == 2


class TestBenchCommand:
    def test_reports_and_verifies_invariance(self, table, capsys):
        db, dbd = table
        assert main(["bench", "--db", db, "--dbd", dbd, "--factors", "2,5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 3  # header + one line per factor
        assert lines[1].split()[0] == "2"
        assert lines[2].split()[0] == "5"
        assert all(line.endswith("yes") for line in lines[1:])

    def test_bad_factors_are_config_errors(self, table, capsys):
        db, dbd = table
        assert main(["bench", "--db", db, "--dbd", dbd, "--factors", "2,x"]) == 2
        assert main(["bench", "--db", db, "--dbd", dbd, "--factors", "0"]) == 2


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

    def test_degenerate_shape_is_config_error(self, tmp_path, capsys):
        db = tmp_path / "s.csv"
        dbd = tmp_path / "s.dbd.json"
        code = main(["synth", "--rows", "0", "--out-db", str(db), "--out-dbd", str(dbd)])
        assert code == 2
