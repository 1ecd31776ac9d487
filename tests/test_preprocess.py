import csv
import json
import math
import random
import re
import sys
import tracemalloc
import warnings
from array import array

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from goalrules import (
    ColumnDescriptor,
    DataError,
    MiningConfig,
    MissingValueError,
    PartitionedDatabase,
    PropertyCatalog,
    build_catalog,
    dump_database,
    encode_row,
    load_database,
    parse_description,
    preprocess,
    preprocess_csv,
    read_table,
)
from goalrules import engine, mine
from goalrules.metrics import support
from goalrules.preprocess import (
    Records,
    _compile,
    _encode,
    _Encoder,
    database_from_dict,
    database_to_dict,
    replicate,
)
from goalrules.cli import _premise_names, main
from goalrules.datasets import save_tables, synthetic_tables

from conftest import assert_rulesets_equal, generic_catalog
from oracle import from_database, oracle_mine

DESC = {
    "columns": [
        {"name": "temp", "kind": "continuous", "short": "T", "classes": 3, "values": [10.0, 20.0]},
        {"name": "color", "kind": "categorical", "short": "C", "classes": 2, "values": ["red", "blue"]},
        {"name": "label", "kind": "target", "short": "Y", "classes": 2, "values": ["no", "yes"]},
    ]
}


def make_descriptors(doc=DESC):
    return parse_description(json.dumps(doc))


def variant(**changes):
    doc = json.loads(json.dumps(DESC))
    doc["columns"][changes.pop("col")].update(changes)
    return doc


class TestParseDescription:
    def test_roundtrip(self):
        descs = make_descriptors()
        assert [d.name for d in descs] == ["temp", "color", "label"]
        assert [d.kind for d in descs] == ["continuous", "categorical", "target"]
        assert descs[0].values == (10.0, 20.0)
        assert descs[1].values == ("red", "blue")
        assert descs[2].is_target

    def test_short_and_full_name_default_to_name(self):
        doc = json.loads(json.dumps(DESC))
        del doc["columns"][0]["short"]
        descs = make_descriptors(doc)
        assert descs[0].short_name == "temp"
        assert descs[0].full_name == "temp"

    def test_not_json(self):
        with pytest.raises(DataError, match="not valid JSON"):
            parse_description("{nope")

    def test_missing_columns(self):
        with pytest.raises(DataError, match="'columns'"):
            parse_description(json.dumps({"columns": []}))

    def test_no_target(self):
        doc = {"columns": [DESC["columns"][0]]}
        with pytest.raises(DataError, match="no target column"):
            make_descriptors(doc)

    def test_multiple_targets(self):
        doc = json.loads(json.dumps(DESC))
        doc["columns"].append(
            {"name": "label2", "kind": "target", "classes": 2, "values": ["a", "b"]}
        )
        with pytest.raises(DataError, match="multiple target"):
            make_descriptors(doc)

    def test_boundary_count(self):
        doc = variant(col=0, values=[10.0])
        with pytest.raises(DataError, match="boundary count must be class_count - 1"):
            make_descriptors(doc)

    def test_boundaries_not_ascending(self):
        doc = variant(col=0, values=[20.0, 10.0])
        with pytest.raises(DataError, match="strictly ascending"):
            make_descriptors(doc)

    def test_non_finite_boundary(self):
        doc = variant(col=0, values=[10.0, math.inf])
        with pytest.raises(DataError, match="non-finite boundary"):
            make_descriptors(doc)

    def test_class_count_too_small(self):
        doc = variant(col=1, classes=1, values=["red"])
        with pytest.raises(DataError, match="at least 2"):
            make_descriptors(doc)

    @pytest.mark.parametrize("classes", [2.9, 2.5, True, math.inf, math.nan])
    def test_class_count_not_an_integer(self, classes):
        doc = variant(col=1, classes=classes)
        with pytest.raises(DataError, match="column 'color': bad 'classes' value"):
            make_descriptors(doc)

    def test_integral_class_count_accepted(self):
        assert make_descriptors(variant(col=1, classes=2.0))[1].class_count == 2

    def test_label_count_mismatch(self):
        doc = variant(col=1, values=["red", "blue", "green"])
        with pytest.raises(DataError, match="expected 2 labels"):
            make_descriptors(doc)

    def test_duplicate_labels(self):
        doc = variant(col=1, values=["red", "red"])
        with pytest.raises(DataError, match="distinct"):
            make_descriptors(doc)

    @pytest.mark.parametrize("col", [1, 2])
    def test_lone_surrogate_label(self, col):
        # what an undecodable CSV byte reads as: no label may match it
        doc = variant(col=col, values=["\udcff", "blue"])
        with pytest.raises(DataError, match="labels must be valid Unicode text"):
            make_descriptors(doc)

    def test_duplicate_column_names(self):
        doc = json.loads(json.dumps(DESC))
        doc["columns"][1]["name"] = "temp"
        with pytest.raises(DataError, match="duplicate column name"):
            make_descriptors(doc)

    def test_duplicate_short_names(self):
        doc = json.loads(json.dumps(DESC))
        doc["columns"][1]["short"] = "T"
        with pytest.raises(DataError, match="duplicate short name"):
            make_descriptors(doc)

    def test_missing_key(self):
        doc = json.loads(json.dumps(DESC))
        del doc["columns"][0]["kind"]
        with pytest.raises(DataError, match="missing key 'kind'"):
            make_descriptors(doc)

    def test_unknown_kind(self):
        doc = variant(col=0, kind="fancy")
        with pytest.raises(DataError, match="unknown kind"):
            make_descriptors(doc)

    @pytest.mark.parametrize(
        "col, changes, message",
        [
            (1, {"values": ["red", None]}, "column 'color': bad 'values' value None"),
            (2, {"values": ["no", True]}, "column 'label': bad 'values' value True"),
            (1, {"values": ["red", {}]}, "column 'color': bad 'values' value {}"),
            (0, {"short": None}, "column 'temp': bad 'short' value None"),
            (0, {"name": None}, "column None: bad 'name' value None"),
            (0, {"kind": None}, "column 'temp': bad 'kind' value None"),
            (1, {"full_name": ["a"]}, "column 'color': bad 'full_name' value ['a']"),
            (0, {"values": [True, 20.0]}, "continuous column 'temp': non-numeric boundary"),
        ],
        ids=["label-null", "target-true", "label-object", "short", "name", "kind", "full_name", "boundary"],
    )
    def test_text_and_boundaries_are_not_stringified(self, col, changes, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            make_descriptors(variant(col=col, **changes))

    def test_number_reads_as_its_text(self):
        descs = make_descriptors(variant(col=1, name=7, values=[0, 1.5]))
        assert (descs[1].name, descs[1].values) == ("7", ("0", "1.5"))


class TestCatalog:
    def test_layout(self):
        catalog = build_catalog(make_descriptors())
        assert catalog.names() == ["T0", "T1", "T2", "C0", "C1"]
        assert [p.code for p in catalog] == [1, 2, 4, 8, 16]
        assert [p.column for p in catalog] == ["temp"] * 3 + ["color"] * 2
        assert len(catalog) == 5

    def test_interval_text(self):
        catalog = build_catalog(make_descriptors())
        assert catalog[0].full_name == "temp < 10"
        assert catalog[1].full_name == "10 <= temp < 20"
        assert catalog[2].full_name == "temp >= 20"
        assert catalog[3].full_name == "color = red"

    def test_generic(self):
        catalog = generic_catalog(4)
        assert catalog.names() == ["P0", "P1", "P2", "P3"]
        assert [p.column for p in catalog] == catalog.names()

    def test_bad_indices_rejected(self):
        from goalrules import Property

        with pytest.raises(DataError, match="0..m-1"):
            PropertyCatalog((Property(1, "A1", "a", 1, "A1"),))

    def test_colliding_property_names_rejected(self, tmp_path, capsys):
        # category 10 of short name A and category 0 of short name A1 are both A10
        doc = {
            "columns": [
                {"name": "a", "kind": "categorical", "short": "A", "classes": 11,
                 "values": [f"v{i}" for i in range(11)]},
                {"name": "b", "kind": "categorical", "short": "A1", "classes": 2, "values": ["x", "y"]},
                {"name": "label", "kind": "target", "classes": 2, "values": ["no", "yes"]},
            ]
        }
        with pytest.raises(DataError, match="^duplicate property name 'A10'$"):
            build_catalog(make_descriptors(doc))
        db, dbd = tmp_path / "t.csv", tmp_path / "t.dbd.json"
        db.write_text("a,b,label\nv0,x,no\nv10,y,yes\n")
        dbd.write_text(json.dumps(doc))
        for command in ("preprocess", "mine"):
            assert main([command, "--db", str(db), "--dbd", str(dbd)]) == 3
            assert capsys.readouterr().err == "error: duplicate property name 'A10'\n"


def bin_of(value: float, bounds) -> int:
    """The bin ``encode_row`` puts ``value`` in, on a description with one
    continuous input column over ``bounds``."""
    descs = [
        ColumnDescriptor("x", "continuous", "X", len(bounds) + 1, tuple(bounds), "x"),
        ColumnDescriptor("y", "target", "Y", 2, ("a", "b"), "y"),
    ]
    code, _ = encode_row({"x": repr(value), "y": "a"}, descs, build_catalog(descs))
    return code.bit_length() - 1


class TestDiscretize:
    """Continuous binning, through ``encode_row``."""

    @pytest.mark.parametrize(
        "value,expected",
        [(9.99, 0), (10.0, 1), (15.0, 1), (20.0, 2), (25.0, 2), (-1e9, 0)],
    )
    def test_bins(self, value, expected):
        assert bin_of(value, [10.0, 20.0]) == expected

    def test_single_boundary(self):
        assert bin_of(0.0, [0.5]) == 0
        assert bin_of(0.5, [0.5]) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        with pytest.raises(DataError, match=f"column 'x': non-finite value {bad!r}$"):
            bin_of(bad, [1.0])

    @given(
        bounds=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=6, unique=True
        ),
        value=st.floats(-1e7, 1e7, allow_nan=False),
    )
    def test_total_and_monotone(self, bounds, value):
        bounds = sorted(bounds)
        bin_index = bin_of(value, bounds)
        assert 0 <= bin_index <= len(bounds)
        # every boundary belongs to the bin above it
        for i, b in enumerate(bounds):
            assert bin_of(b, bounds) == i + 1
        if bin_index > 0:
            assert value >= bounds[bin_index - 1]
        if bin_index < len(bounds):
            assert value < bounds[bin_index]


class TestEncodeRow:
    def test_example(self):
        descs = make_descriptors()
        catalog = build_catalog(descs)
        code, goal = encode_row({"temp": "15", "color": "red", "label": "yes"}, descs, catalog)
        assert code == 2 | 8
        assert goal == 1
        assert bin(code).count("1") == 2  # one property per input column

    def test_unparsable_continuous(self):
        descs = make_descriptors()
        catalog = build_catalog(descs)
        for cell in ("warm", "1_0", "١٥", " 25", "25 ", "\t25", "2 5", "25\x1c"):
            message = re.escape(f"unparsable continuous value {cell!r} in column 'temp'")
            with pytest.raises(DataError, match=message):
                encode_row({"temp": cell, "color": "red", "label": "no"}, descs, catalog)

    def test_non_finite_cell(self):
        descs = make_descriptors()
        catalog = build_catalog(descs)
        with pytest.raises(DataError, match="non-finite value"):
            encode_row({"temp": "nan", "color": "red", "label": "no"}, descs, catalog)

    def test_unknown_label(self):
        descs = make_descriptors()
        catalog = build_catalog(descs)
        with pytest.raises(DataError, match="unknown label 'green' in column 'color'"):
            encode_row({"temp": "1", "color": "green", "label": "no"}, descs, catalog)

    @pytest.mark.parametrize("missing", [None, ""])
    def test_missing_cell(self, missing):
        descs = make_descriptors()
        catalog = build_catalog(descs)
        row = {"temp": "1", "color": missing, "label": "no"}
        if missing is None:
            row.pop("color")
        with pytest.raises(MissingValueError, match="column 'color'"):
            encode_row(row, descs, catalog)

    def test_extra_cells_under_none_are_an_error(self):
        descs = make_descriptors()
        row = {"temp": "25", "color": "blue", "label": "yes", None: ["9"]}
        with pytest.raises(DataError, match="^4 cells, but the header has 3 columns$"):
            encode_row(row, descs, build_catalog(descs))

    def test_target_only_description(self):
        descs = [ColumnDescriptor("label", "target", "Y", 2, ("no", "yes"), "label")]
        catalog = build_catalog(descs)
        assert len(catalog) == 0
        with pytest.raises(DataError, match="no input columns"):
            encode_row({"label": "no"}, descs, catalog)


class TestPreprocess:
    def rows(self):
        return [
            {"temp": "5", "color": "red", "label": "no"},    # T0|C0 = 9,  goal 0
            {"temp": "25", "color": "blue", "label": "yes"},  # T2|C1 = 20, goal 1
            {"temp": "12", "color": "red", "label": "no"},   # T1|C0 = 10, goal 0
        ]

    def test_grouping_is_stable(self):
        pdb = preprocess(self.rows(), make_descriptors())
        assert pdb.partition_sizes == (2, 1)
        assert pdb.records == (9, 10, 20)  # goal-0 rows keep input order
        assert pdb.goal_labels == ("no", "yes")
        assert pdb.partitions == ((9, 10), (20,))
        assert pdb.total == 3

    def test_empty_partition_kept(self):
        rows = [r for r in self.rows() if r["label"] == "no"]
        pdb = preprocess(rows, make_descriptors())
        assert pdb.partition_sizes == (2, 0)
        assert pdb.partitions[1] == ()

    def test_no_records(self):
        with pytest.raises(DataError, match="no records"):
            preprocess([], make_descriptors())

    def test_error_names_row_and_column(self):
        rows = self.rows()
        rows[1]["color"] = ""
        with pytest.raises(DataError, match="row 2: missing value in column 'color'"):
            preprocess(rows, make_descriptors())

    def test_skip_missing_counts(self):
        rows = self.rows()
        rows[1]["color"] = ""
        pdb = preprocess(rows, make_descriptors(), skip_missing=True)
        assert pdb.skipped_rows == 1
        assert pdb.total == 2

    def test_skip_missing_still_rejects_bad_labels(self):
        rows = self.rows()
        rows[0]["color"] = "green"
        with pytest.raises(DataError, match="row 1"):
            preprocess(rows, make_descriptors(), skip_missing=True)

    @given(
        choices=st.lists(
            st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 1)),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_encode_decode_roundtrip(self, choices):
        descs = make_descriptors()
        catalog = build_catalog(descs)
        temp_reps = ["5", "15", "25"]
        color_reps = ["red", "blue"]
        labels = ["no", "yes"]
        for t, c, y in choices:
            code, goal = encode_row(
                {"temp": temp_reps[t], "color": color_reps[c], "label": labels[y]},
                descs,
                catalog,
            )
            assert _premise_names(code, catalog.names()) == [f"T{t}", f"C{c}"]
            assert goal == y


def reference_encode(row, descriptors) -> tuple[int, int]:
    """Per-cell reference encoder: a value's bin is the number of boundaries
    at or below it, and bits are laid out column by column, category by
    category, in description order, skipping the target."""
    code, goal, offset = 0, None, 0
    for desc in descriptors:
        raw = row[desc.name]
        if desc.kind == "continuous":
            category = sum(b <= float(raw) for b in desc.values)
        else:
            category = desc.values.index(raw)
        if desc.is_target:
            goal = category
        else:
            code |= 1 << (offset + category)
            offset += desc.class_count
    return code, goal


@st.composite
def described_rows(draw):
    """A random description (continuous and categorical input columns, the
    target anywhere) and rows whose continuous cells hit boundaries, ±0.0
    and arbitrary finite values."""
    labels = st.lists(st.text(min_size=1, max_size=3), min_size=2, max_size=4, unique=True)
    descs = []
    for i in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            bounds = draw(
                st.lists(st.floats(-1e3, 1e3, allow_nan=False), min_size=1, max_size=4, unique=True)
            )
            values = tuple(sorted(bounds))
            kind, classes = "continuous", len(values) + 1
        else:
            values = tuple(draw(labels))
            kind, classes = "categorical", len(values)
        descs.append(ColumnDescriptor(f"c{i}", kind, f"C{i}", classes, values, f"c{i}"))
    goals = tuple(draw(labels))
    target = ColumnDescriptor("y", "target", "Y", len(goals), goals, "y")
    descs.insert(draw(st.integers(0, len(descs))), target)

    def cell(desc):
        if desc.kind != "continuous":
            return st.sampled_from(desc.values)
        special = st.sampled_from(desc.values + (0.0, -0.0))
        return st.one_of(special, st.floats(-2e3, 2e3, allow_nan=False)).map(repr)

    row = st.fixed_dictionaries({d.name: cell(d) for d in descs})
    return descs, draw(st.lists(row, min_size=1, max_size=20))


class TestEncoderMatchesReference:
    @given(described_rows())
    @settings(max_examples=200, deadline=None)
    def test_preprocess_agrees_with_per_cell_reference(self, case):
        descs, rows = case
        target = next(d for d in descs if d.is_target)
        buckets = [[] for _ in target.values]
        for row in rows:
            code, goal = reference_encode(row, descs)
            buckets[goal].append(code)
            assert encode_row(row, descs, build_catalog(descs)) == (code, goal)
        pdb = preprocess(rows, descs)
        assert pdb.partitions == tuple(tuple(b) for b in buckets)
        assert pdb.records == tuple(c for b in buckets for c in b)
        assert pdb.partition_sizes == tuple(len(b) for b in buckets)
        assert pdb.total == len(rows)


class TestDatabaseInvariants:
    def dump(self, sizes) -> dict:
        pdb = PartitionedDatabase(((1,), (2,)), ("a", "b"), generic_catalog(2))
        doc = database_to_dict(pdb)
        doc["partition_sizes"] = list(sizes)
        return doc

    def test_size_sum_must_match(self):
        with pytest.raises(DataError, match="sum"):
            database_from_dict(self.dump((1, 2)))

    def test_label_count_must_match(self):
        with pytest.raises(DataError, match="per goal label"):
            PartitionedDatabase(((1,), ()), ("a",), generic_catalog(2))
        with pytest.raises(DataError, match="per goal label"):
            database_from_dict(self.dump((1, 1, 0)))

    def test_negative_size(self):
        with pytest.raises(DataError, match="non-negative"):
            database_from_dict(self.dump((-1, 3)))

    def test_sizes_split_records_into_partitions(self):
        loaded = database_from_dict(self.dump((0, 2)))
        assert loaded.partitions == ((), (1, 2))
        assert loaded.partition_sizes == (0, 2)
        assert loaded.total == 2


class TestDumpLoad:
    def test_roundtrip(self, tmp_path):
        pdb = preprocess(TestPreprocess().rows(), make_descriptors())
        path = tmp_path / "db.json"
        dump_database(pdb, path)
        loaded = load_database(path)
        assert loaded.records == pdb.records
        assert loaded.partition_sizes == pdb.partition_sizes
        assert loaded.goal_labels == pdb.goal_labels
        assert loaded.catalog == pdb.catalog

    def test_records_are_decimal_strings(self):
        pdb = preprocess(TestPreprocess().rows(), make_descriptors())
        doc = database_to_dict(pdb)
        assert doc["records"] == ["9", "10", "20"]
        assert doc["partition_sizes"] == [2, 1]
        assert doc["goal_labels"] == ["no", "yes"]
        assert doc["catalog"][0] == {
            "index": 0,
            "name": "T0",
            "column": "temp",
            "category": 0,
            "full_name": "temp < 10",
        }

    def test_load_rejects_out_of_range_codes(self, tmp_path):
        pdb = preprocess(TestPreprocess().rows(), make_descriptors())
        doc = database_to_dict(pdb)
        doc["records"][0] = "32"  # above the 5-property catalog
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="code out of catalog range"):
            load_database(path)

    @pytest.mark.parametrize("index, record, column", [(0, 0b00111, "temp"), (2, 0b11001, "color")])
    def test_load_rejects_two_properties_of_one_column(self, index, record, column):
        doc = database_to_dict(preprocess(TestPreprocess().rows(), make_descriptors()))
        doc["records"][index] = str(record)
        message = f"^record {index}: more than one property of column '{column}'$"
        with pytest.raises(DataError, match=message):
            database_from_dict(doc)

    @given(case=described_rows(), data=st.data())
    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_load_rejects_a_second_property_of_any_column(self, tmp_path_factory, case, data):
        descs, rows = case
        pdb = preprocess(rows, descs)
        path = tmp_path_factory.mktemp("dump") / "db.json"
        dump_database(pdb, path)
        assert load_database(path).partitions == pdb.partitions
        doc = json.loads(path.read_text(encoding="utf-8"))
        index = data.draw(st.integers(0, len(doc["records"]) - 1))
        record = int(doc["records"][index])
        column = data.draw(st.sampled_from([d.name for d in descs if not d.is_target]))
        unset = [p["index"] for p in doc["catalog"] if p["column"] == column and not record >> p["index"] & 1]
        doc["records"][index] = str(record | 1 << data.draw(st.sampled_from(unset)))
        path.write_text(json.dumps(doc), encoding="utf-8")
        message = f"record {index}: more than one property of column {column!r}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_database(path)

    def test_load_takes_several_properties_of_distinct_columns(self):
        pdb = PartitionedDatabase(((0b111,), (0b110,)), ("a", "b"), generic_catalog(3))
        assert database_from_dict(database_to_dict(pdb)).partitions == pdb.partitions

    def test_load_rejects_repeated_property_name(self, tmp_path):
        pdb = preprocess(TestPreprocess().rows(), make_descriptors())
        doc = database_to_dict(pdb)
        doc["catalog"][4]["name"] = "T0"
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="duplicate property name 'T0'"):
            load_database(path)

    @pytest.mark.parametrize(
        "key, index, field, value",
        [
            ("records", 0, None, 9.5),
            ("records", 0, None, " 9 "),
            ("records", 0, None, "1_0"),
            ("records", 0, None, "\u0669"),  # an Arabic-Indic 9
            ("records", 0, None, True),
            ("partition_sizes", 0, None, 2.5),
            ("catalog", 0, "index", 0.0),
            ("catalog", 1, "category", True),
        ],
    )
    def test_load_takes_only_whole_numbers(self, key, index, field, value):
        doc = database_to_dict(preprocess(TestPreprocess().rows(), make_descriptors()))
        if field is None:
            doc[key][index] = value
        else:
            doc[key][index][field] = value
        message = f"malformed database dump: not a whole number: {value!r}"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            database_from_dict(json.loads(json.dumps(doc)))

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        with pytest.raises(DataError, match="not valid JSON"):
            load_database(path)

    def test_load_rejects_undecodable_bytes(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_bytes(b'{"records": ["\xff"]}')
        with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: .*0xff"):
            load_database(path)

    def test_load_missing_file_names_the_path(self, tmp_path):
        missing = tmp_path / "nope.json"
        with pytest.raises(DataError, match=re.escape(f"cannot read {missing}: No such file")):
            load_database(missing)


class TestReplicate:
    def test_scales_partitions(self):
        pdb = preprocess(TestPreprocess().rows(), make_descriptors())
        big = replicate(pdb, 3)
        assert big.partition_sizes == (6, 3)
        assert big.partitions[0] == (9, 10) * 3
        assert big.catalog is pdb.catalog
        # all frequency ratios preserved
        small = support(9, pdb)
        large = support(9, big)
        assert large == tuple(c * 3 for c in small)

    def test_bad_factor(self):
        pdb = preprocess(TestPreprocess().rows(), make_descriptors())
        with pytest.raises(ValueError):
            replicate(pdb, 0)


class TestCsv:
    def write_files(self, tmp_path, rows):
        db = tmp_path / "t.csv"
        dbd = tmp_path / "t.dbd.json"
        header = "temp,color,label"
        db.write_text("\n".join([header] + rows) + "\n")
        dbd.write_text(json.dumps(DESC))
        return db, dbd

    def test_end_to_end(self, tmp_path):
        db, dbd = self.write_files(tmp_path, ["5,red,no", "25,blue,yes"])
        pdb = preprocess_csv(db, dbd)
        assert pdb.partition_sizes == (1, 1)
        assert pdb.records == (9, 20)

    def test_header_mismatch(self, tmp_path):
        db = tmp_path / "t.csv"
        db.write_text("a,b,c\n1,2,3\n")
        dbd = tmp_path / "t.dbd.json"
        dbd.write_text(json.dumps(DESC))
        with pytest.raises(DataError, match="does not match description columns"):
            preprocess_csv(db, dbd)

    @pytest.mark.parametrize(
        "first,extra,message",
        [
            pytest.param("5,red,no", ",999", "row 2: 4 cells, but the header has 3 columns", id=",999"),
            pytest.param("5,red,no", ",", "row 2: 4 cells, but the header has 3 columns", id=","),
            pytest.param("5,red,no", ",1,2", "row 2: 5 cells, but the header has 3 columns", id=",1,2"),
            # the first bad row is named, even when a later row has too many cells
            pytest.param(
                "5,green,no", ",9", "row 1: unknown label 'green' in column 'color'", id="green"
            ),
        ],
    )
    def test_extra_cells_name_the_row(self, tmp_path, first, extra, message):
        db, dbd = self.write_files(tmp_path, [first, "25,blue,yes" + extra])
        for skip_missing in (False, True):
            with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
                preprocess_csv(db, dbd, skip_missing=skip_missing)

    def test_missing_files_name_the_path(self, tmp_path):
        db, dbd = self.write_files(tmp_path, ["5,red,no"])
        missing = tmp_path / "nope.csv"
        absent = re.escape(f"cannot read {missing}: No such file or directory")
        with pytest.raises(DataError, match=absent):
            preprocess_csv(missing, dbd)
        with pytest.raises(DataError, match=absent):
            preprocess_csv(db, missing)
        with pytest.raises(DataError, match=re.escape(f"cannot read {tmp_path}: Is a directory")):
            preprocess_csv(tmp_path, dbd)

    def test_empty_cell_is_missing_even_where_empty_is_a_label(self, tmp_path):
        doc = variant(col=1, values=["", "red"])
        db, dbd = self.write_files(tmp_path, ["5,red,no", "25,,yes"])
        dbd.write_text(json.dumps(doc))
        with pytest.raises(DataError, match="^row 2: missing value in column 'color'$"):
            preprocess_csv(db, dbd)
        assert preprocess_csv(db, dbd, skip_missing=True).skipped_rows == 1

    def test_read_table_streams_dicts(self, tmp_path):
        db, _ = self.write_files(tmp_path, ["5,red,no"])
        rows = list(read_table(db, make_descriptors()))
        assert rows == [{"temp": "5", "color": "red", "label": "no"}]

    def test_read_table_lays_rows_out_as_dict_reader(self, tmp_path):
        db, _ = self.write_files(tmp_path, ["5,red,no,9,8", "", "25,blue"])
        rows = list(read_table(db, make_descriptors()))
        assert rows == [
            {"temp": "5", "color": "red", "label": "no", None: ["9", "8"]},
            {"temp": "25", "color": "blue", "label": None},
        ]
        with open(db, newline="") as handle:
            assert rows == list(csv.DictReader(handle))

    LONG_ROW = "^row 2: 4 cells, but the header has 3 columns$"

    @pytest.mark.parametrize("skip_missing", [False, True])
    def test_dict_reader_long_row_names_the_row(self, tmp_path, skip_missing):
        db, _ = self.write_files(tmp_path, ["5,red,no", "25,blue,yes,EXTRA"])
        with open(db, newline="") as handle, pytest.raises(DataError, match=self.LONG_ROW):
            preprocess(csv.DictReader(handle), make_descriptors(), skip_missing=skip_missing)

    @pytest.mark.parametrize("skip_missing", [False, True])
    def test_read_table_long_row_names_the_row(self, tmp_path, skip_missing):
        db, _ = self.write_files(tmp_path, ["5,red,no", "25,blue,yes,EXTRA"])
        rows = read_table(db, make_descriptors())
        with pytest.raises(DataError, match=self.LONG_ROW):
            preprocess(rows, make_descriptors(), skip_missing=skip_missing)

    @pytest.mark.parametrize("first", ["5,red,no", "5,green,no"])
    def test_csv_syntax_error_names_its_line(self, tmp_path, capsys, first):
        # a field over csv.field_size_limit(), reported by line unless an
        # earlier row of the same block has an unknown label: rows are read
        # in file order, and the first bad one is named
        db, dbd = self.write_files(tmp_path, [first, "x" * 131_073 + ",red,no", "25,blue,yes"])
        message = "line 3: field larger than field limit (131072)"
        if "green" in first:
            message = "row 1: unknown label 'green' in column 'color'"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            preprocess_csv(db, dbd)
        descriptors = make_descriptors()
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            preprocess(read_table(db, descriptors), descriptors)
        assert main(["preprocess", "--db", str(db), "--dbd", str(dbd)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "line,message",
        [
            pytest.param(
                b"25,bl\xffue,yes", "row 2: unknown label 'bl\\udcffue' in column 'color'", id="label"
            ),
            pytest.param(
                b"2\xff5,blue,yes",
                "row 2: unparsable continuous value '2\\udcff5' in column 'temp'",
                id="number",
            ),
        ],
    )
    def test_undecodable_byte_names_row_and_column(self, tmp_path, capsys, line, message):
        db, dbd = self.write_files(tmp_path, ["5,red,no"])
        db.write_bytes(db.read_bytes() + line + b"\n")
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            preprocess_csv(db, dbd)
        assert main(["mine", "--db", str(db), "--dbd", str(dbd)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_undecodable_description_names_the_path(self, tmp_path, capsys):
        db, dbd = self.write_files(tmp_path, ["5,red,no"])
        dbd.write_bytes(b'{"columns": ["\xff"]}')
        with pytest.raises(DataError, match=f"^cannot read {re.escape(str(dbd))}: .*0xff"):
            preprocess_csv(db, dbd)
        assert main(["preprocess", "--db", str(db), "--dbd", str(dbd)]) == 3
        assert capsys.readouterr().err.startswith(f"error: cannot read {dbd}: ")


class TestCsvHeader:
    @given(
        header=st.lists(st.sampled_from(["temp", "color", "label"]), min_size=1, max_size=4).filter(
            lambda header: header != ["temp", "color", "label"]
        ),
        bom=st.booleans(),
    )
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    def test_duplicate_or_reordered_header(self, tmp_path_factory, capsys, header, bom):
        db, dbd = TestCsv().write_files(tmp_path_factory.mktemp("header"), ["5,red,no"])
        db.write_text("\ufeff" * bom + ",".join(header) + "\n5,red,no\n", encoding="utf-8")
        message = f"CSV header {header} does not match description columns ['temp', 'color', 'label']"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            preprocess_csv(db, dbd)
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            next(read_table(db, make_descriptors()))
        for command in ("preprocess", "mine"):
            assert main([command, "--db", str(db), "--dbd", str(dbd)]) == 3
            assert capsys.readouterr().err == f"error: {message}\n"


# one bad cell or bad row, each made from a row's cells; two defects may
# fall on one row, so each keeps whatever cells it does not replace
DEFECTS = {
    "missing cell": lambda cells: [cells[0], "", *cells[2:]],
    "short row": lambda cells: cells[:2],
    "extra cell": lambda cells: cells + ["9"],
    "bad label": lambda cells: [cells[0], "green", *cells[2:]],
    "digit groups": lambda cells: ["1_0", *cells[1:]],
    "not a number": lambda cells: ["nan", *cells[1:]],
    "padded number": lambda cells: [" 25", *cells[1:]],
    "non-ASCII digits": lambda cells: ["١٥", *cells[1:]],
}


@st.composite
def csv_lines_with_defects(draw):
    """Data lines of a ``DESC`` table, 1-700 rows, with one or two defects
    at random rows and optional blank lines."""
    rng = draw(st.randoms(use_true_random=False))
    count = draw(st.integers(1, 700))
    temps = ["5", "10", "12.5", "-3e1", "20", "25"]
    rows = [
        [rng.choice(temps), rng.choice(["red", "blue"]), rng.choice(["no", "yes"])]
        for _ in range(count)
    ]
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.integers(0, count - 1))
        rows[at] = DEFECTS[draw(st.sampled_from(sorted(DEFECTS)))](rows[at])
    lines = [",".join(row) for row in rows]
    for at in sorted(draw(st.lists(st.integers(0, count), max_size=4)), reverse=True):
        lines.insert(at, "")
    return lines


def encode_lines_row_by_row(lines, descriptors, skip_missing):
    """Reference for ``preprocess_csv``: each non-blank line split on commas,
    checked for extra cells and encoded alone with ``encode_row``. Returns
    ``(partitions, skipped_rows)``, or the error text of the first bad row."""
    catalog = build_catalog(descriptors)
    names = [d.name for d in descriptors]
    buckets = [[], []]
    skipped = 0
    for number, line in enumerate(filter(None, lines), start=1):
        cells = line.split(",")
        if len(cells) > len(names):
            return f"row {number}: {len(cells)} cells, but the header has {len(names)} columns"
        try:
            code, goal = encode_row(dict(zip(names, cells)), descriptors, catalog)
        except MissingValueError as exc:
            if skip_missing:
                skipped += 1
                continue
            return f"row {number}: {exc}"
        except DataError as exc:
            return f"row {number}: {exc}"
        buckets[goal].append(code)
    if not any(buckets):
        return "no records"
    return tuple(map(tuple, buckets)), skipped


class TestRowByRowReference:
    """``preprocess_csv`` against ``encode_lines_row_by_row``, on tables of
    up to 700 rows with defects anywhere in them."""

    @pytest.mark.parametrize("numpy_absent", [False, True], ids=["numpy", "pure_scan"])
    @given(lines=csv_lines_with_defects())
    @settings(
        max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_matches_row_by_row_reference(self, request, tmp_path_factory, numpy_absent, lines):
        if numpy_absent:
            request.getfixturevalue("pure_scan")
        db, dbd = TestCsv().write_files(tmp_path_factory.mktemp("row_by_row"), lines)
        descriptors = make_descriptors()
        for skip_missing in (False, True):
            expected = encode_lines_row_by_row(lines, descriptors, skip_missing)
            if isinstance(expected, str):
                with pytest.raises(DataError) as info:
                    preprocess_csv(db, dbd, skip_missing=skip_missing)
                assert str(info.value) == expected
            else:
                pdb = preprocess_csv(db, dbd, skip_missing=skip_missing)
                assert (pdb.partitions, pdb.skipped_rows) == expected


def preprocess_outcome(read, skip_missing):
    """``(partitions, skipped_rows)`` of one preprocessing call, or the text
    of the ``DataError`` it raised."""
    try:
        pdb = read(skip_missing=skip_missing)
    except DataError as exc:
        return str(exc)
    return pdb.partitions, pdb.skipped_rows


def read_whole_file(db, descriptors, skip_missing):
    """Reference for what a CSV reads as, and for which error comes first:
    the whole file read by one ``csv.reader``, in no blocks, and each
    non-blank row encoded with ``encode_row`` before the next is read.
    Returns what ``preprocess_outcome`` returns."""
    catalog = build_catalog(descriptors)
    names = [d.name for d in descriptors]
    buckets = [[] for d in descriptors if d.is_target for _ in d.values]
    number = skipped = 0
    with open(db, newline="", encoding="utf-8-sig", errors="surrogateescape") as handle:
        reader = csv.reader(handle)
        try:
            assert next(reader) == names
            for cells in filter(None, reader):
                number += 1
                row = dict(zip(names, cells))
                if len(cells) > len(names):
                    row[None] = cells[len(names) :]
                try:
                    code, goal = encode_row(row, descriptors, catalog)
                except DataError as exc:
                    if skip_missing and isinstance(exc, MissingValueError):
                        skipped += 1
                        continue
                    return f"row {number}: {exc}"
                buckets[goal].append(code)
        except csv.Error as exc:
            return f"line {reader.line_num}: {exc}"
    if not any(buckets):
        return "no records"
    return tuple(map(tuple, buckets)), skipped


def assert_reads_as_cells(db, dbd):
    """``preprocess_csv`` and ``preprocess(read_table())`` against
    ``read_whole_file``, with and without ``skip_missing``; returns the
    outcome without."""
    descriptors = parse_description(dbd.read_text(encoding="utf-8"))
    outcomes = []
    for skip_missing in (False, True):
        expected = read_whole_file(db, descriptors, skip_missing)
        for read in (
            lambda **kw: preprocess(read_table(db, descriptors), descriptors, **kw),
            lambda **kw: preprocess_csv(db, dbd, **kw),
        ):
            assert preprocess_outcome(read, skip_missing) == expected
        outcomes.append(expected)
    return outcomes[0]


# labels with inner spaces, non-ASCII text, a comma and a line break that
# only a quoted cell can hold, and quotes, which only csv.reader unquotes
HOSTILE_DESC = {
    "columns": [
        {"name": "temp", "kind": "continuous", "short": "T", "classes": 3, "values": [10.0, 20.0]},
        {
            "name": "color", "kind": "categorical", "short": "C", "classes": 5,
            "values": ["red", "dark blue", "grün", "a,b\nc", '"red"'],
        },
        {"name": "label", "kind": "target", "short": "Y", "classes": 2, "values": ["no", "yes"]},
    ]
}
FIELD_LIMIT = 40  # csv.field_size_limit() while the hostile tables are read
GOOD_CELLS = (
    ["5", "10", "12.5", "-3e1", "20", "25", "1e-3"],
    ["red", "dark blue", "grün", '"a,b\nc"', '"red"'],
    ["no", "yes"],
)
# each a cell that one of the two readers might take differently
HOSTILE_CELLS = [
    " 25", "25 ", "\t5", "5\x0b", "\xa025", "25\u3000", "5\x85", "1 5", "1_0", "١٥", "\uff11\uff15",
    "nan", "inf", "-inf", "1e999", "", '"5"', '"5', "5\x00", "x" * (FIELD_LIMIT + 1),
    "1" + "0" * FIELD_LIMIT, "red\x00", "yes\x00", '"""red"""',
    " red", "red ", "dark  blue", "dark\u3000blue", "green", "re\x00d", '"dark\nblue"',
    "bl\udcffue", "gr\u00fcn\xa0", "gr\u00fcn ", "dark blues", "yess",
]
EXTRA_LINES = ["", "  ", "\t", ",", ",,", "5,red", "5,red,no,9"]


@st.composite
def hostile_csv(draw):
    """The bytes of a ``HOSTILE_DESC`` table: 1-600 good rows, up to four
    of them replaced by a row with a hostile cell or by a hostile line, with
    ``\\n``, ``\\r\\n`` or lone ``\\r`` line ends, and sometimes a byte order
    mark."""
    rng = draw(st.randoms(use_true_random=False))
    count = draw(st.integers(1, 600))
    lines = [",".join(map(rng.choice, GOOD_CELLS)) for _ in range(count)]
    for _ in range(draw(st.integers(0, 4))):
        at = draw(st.integers(0, count - 1))
        if draw(st.booleans()):
            lines[at] = draw(st.sampled_from(EXTRA_LINES))
        else:
            cells = lines[at].split(",") if lines[at].count(",") == 2 else ["5", "red", "no"]
            cells[draw(st.integers(0, 2))] = draw(st.sampled_from(HOSTILE_CELLS))
            lines[at] = ",".join(cells)
    ends = draw(st.sampled_from([["\n"], ["\r\n"], ["\n", "\r\n"], ["\n"] * 50 + ["\r"]]))
    body = "".join(line + rng.choice(ends) for line in lines)
    if draw(st.booleans()):
        body = body.rstrip("\r\n")  # no line end after the last row
    bom = "\ufeff" if draw(st.booleans()) else ""
    return (bom + "temp,color,label\n" + body).encode("utf-8", "surrogateescape")


@pytest.fixture
def field_limit():
    saved = csv.field_size_limit(FIELD_LIMIT)
    yield FIELD_LIMIT
    csv.field_size_limit(saved)


def write_hostile(directory, data):
    db, dbd = directory / "h.csv", directory / "h.dbd.json"
    db.write_bytes(data)
    dbd.write_text(json.dumps(HOSTILE_DESC), encoding="utf-8")
    return db, dbd


def write_synthetic(directory, empty_rows=(), quoted=False):
    """A 3,000-row ``synthetic_tables`` table, over five 64k-character
    blocks, whose rows at ``empty_rows`` hold only empty cells. Plain, it is
    written as ``perfbench/generate.py`` writes it; quoted, as R's
    ``write.csv`` writes text, with the header and every cell in quotes."""
    table, description = synthetic_tables(3_000, 10, categorical=1, seed=4)
    names = [c["name"] for c in description["columns"]]
    lines = [names, *([row[n] for n in names] for row in table)]
    for at in empty_rows:
        lines[at + 1] = [""] * len(names)
    db, dbd = directory / ("quoted.csv" if quoted else "plain.csv"), directory / "t.dbd.json"
    with open(db, "w", newline="") as handle:
        if quoted:
            csv.writer(handle, quoting=csv.QUOTE_ALL, lineterminator="\n").writerows(lines)
        else:
            handle.writelines(",".join(cells) + "\n" for cells in lines)
    dbd.write_text(json.dumps(description))
    return db, dbd


class TestBlockReader:
    """``preprocess_csv`` reads plain blocks with numpy and the rest with
    ``csv.reader``; either way a table reads as ``preprocess(read_table())``
    reads it."""

    @pytest.mark.parametrize("numpy_absent", [False, True], ids=["numpy", "pure_scan"])
    @given(data=hostile_csv(), block=st.sampled_from([40, 300, 4_000, 1 << 16]))
    @settings(
        max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
    )
    def test_matches_the_cell_path(
        self, request, tmp_path_factory, monkeypatch, field_limit, numpy_absent, data, block
    ):
        if numpy_absent:
            request.getfixturevalue("pure_scan")
        monkeypatch.setattr(sys.modules["goalrules.preprocess"], "_BLOCK_CHARS", block)
        assert_reads_as_cells(*write_hostile(tmp_path_factory.mktemp("blocks"), data))

    @pytest.mark.parametrize("cell", HOSTILE_CELLS)
    def test_each_hostile_cell(self, tmp_path, monkeypatch, field_limit, cell):
        # the cell in each column of one row of the first block, and in row
        # 300 of a later block, after blocks of the other path
        monkeypatch.setattr(sys.modules["goalrules.preprocess"], "_BLOCK_CHARS", 1_000)
        good = ["12.5,red,no"] * 400
        for column in range(3):
            for at in (3, 299):
                cells = good[at].split(",")
                cells[column] = cell
                lines = good[:at] + [",".join(cells)] + good[at + 1 :]
                data = ("temp,color,label\n" + "\n".join(lines) + "\n").encode("utf-8", "surrogateescape")
                assert_reads_as_cells(*write_hostile(tmp_path, data))

    @pytest.mark.parametrize("line", EXTRA_LINES)
    def test_each_hostile_line(self, tmp_path, monkeypatch, line):
        # in the first block, before a bad row in a later one
        monkeypatch.setattr(sys.modules["goalrules.preprocess"], "_BLOCK_CHARS", 1_000)
        lines = ["12.5,red,no"] * 400
        lines[3] = line
        lines[299] = "12.5,green,no"
        data = ("temp,color,label\n" + "\n".join(lines) + "\n").encode()
        assert isinstance(assert_reads_as_cells(*write_hostile(tmp_path, data)), str)

    def write_rows(self, tmp_path, lines):
        return write_hostile(tmp_path, ("temp,color,label\n" + "".join(lines)).encode())

    def test_bad_row_in_a_later_block_is_named(self, tmp_path, capsys):
        lines = ["12.5,dark blue,no\n"] * 9_000
        lines[7_000] = "12.5,green,no\n"
        db, dbd = self.write_rows(tmp_path, lines)
        message = "row 7001: unknown label 'green' in column 'color'"
        assert assert_reads_as_cells(db, dbd) == message
        assert main(["preprocess", "--db", str(db), "--dbd", str(dbd)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_quoted_field_across_a_block_boundary(self, tmp_path):
        from goalrules.preprocess import _BLOCK_CHARS

        line = "12.5,dark blue,no\n"
        opening = 1 + _BLOCK_CHARS // len(line)  # the last line of the first block
        lines = [line] * 5_000
        lines[opening - 1 : opening] = ['5.0000000000,"a,b\n', 'c",yes\n']  # as long as `line`
        db, dbd = self.write_rows(tmp_path, lines)
        with open(db, newline="") as handle:
            handle.readline()
            assert handle.readlines(_BLOCK_CHARS)[-1] == '5.0000000000,"a,b\n'
        (no, yes), skipped = assert_reads_as_cells(db, dbd)
        assert yes == (1 << 0 | 1 << 6,) and no == (1 << 1 | 1 << 4,) * 4_999
        assert skipped == 0

    @pytest.mark.parametrize("first", ["12.5,red,no\n", "12.5,green,no\n"])
    def test_syntax_error_after_the_first_block_names_its_line(self, tmp_path, capsys, first):
        lines = ["12.5,red,no\n"] * 9_000
        lines[10] = first
        lines[6_000] = "x" * 131_073 + ",red,no\n"
        db, dbd = self.write_rows(tmp_path, lines)
        message = "line 6002: field larger than field limit (131072)"
        if "green" in first:
            message = "row 11: unknown label 'green' in column 'color'"
        assert assert_reads_as_cells(db, dbd) == message
        assert main(["preprocess", "--db", str(db), "--dbd", str(dbd)]) == 3
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("long_row", [2, 20, 255, 256, 300])
    def test_first_bad_line_is_named_across_blocks(self, tmp_path, monkeypatch, long_row):
        # a bad row 3 and a line over the field limit in another block: the
        # rows are read and encoded one at a time, so the one that comes
        # first in the file is named, however far the other is
        monkeypatch.setattr(sys.modules["goalrules.preprocess"], "_BLOCK_CHARS", 64)
        lines = ["12.5,red,no\n"] * 400
        lines[2] = "12.5,green,no\n"
        lines[long_row - 1] = "x" * 131_073 + ",red,no\n"
        db, dbd = self.write_rows(tmp_path, lines)
        expected = "row 3: unknown label 'green' in column 'color'"
        if long_row < 3:
            expected = f"line {long_row + 1}: field larger than field limit (131072)"
        assert assert_reads_as_cells(db, dbd) == expected

    def test_plain_table_never_leaves_the_block_path(self, tmp_path, monkeypatch):
        from goalrules.preprocess import _BLOCK_CHARS, _Encoder

        pytest.importorskip("numpy", exc_type=ImportError)
        db, dbd = write_synthetic(tmp_path)
        assert db.stat().st_size > 3 * _BLOCK_CHARS
        descriptors = parse_description(dbd.read_text())
        expected = preprocess(read_table(db, descriptors), descriptors)

        def add_row(self, cells):
            raise AssertionError(f"row {self.rows + 1} of a plain table took the cell path")

        monkeypatch.setattr(_Encoder, "add_row", add_row)
        assert preprocess_csv(db, dbd).partitions == expected.partitions

    def test_cell_path_stops_at_the_end_of_its_block(self, tmp_path, monkeypatch):
        from goalrules.preprocess import _BLOCK_CHARS

        pytest.importorskip("numpy", exc_type=ImportError)
        db, dbd = write_synthetic(tmp_path)
        descriptors = parse_description(dbd.read_text())
        expected = preprocess(read_table(db, descriptors), descriptors)
        lines = db.read_text().splitlines(keepends=True)
        lines[1] = '"' + lines[1].replace(",", '",', 1)  # one quoted cell, in row 1
        db.write_text("".join(lines))
        with open(db, newline="") as handle:
            handle.readline()
            first_block = len(handle.readlines(_BLOCK_CHARS))
        assert 256 < first_block < 3_000 and first_block % 256
        rows = {"cells": 0, "block": 0}
        add_row, add_block = _Encoder.add_row, _Encoder.add_block

        def count_row(self, cells):
            rows["cells"] += 1
            add_row(self, cells)

        def count_block(self, block):
            assert '"' not in "".join(block)
            rows["block"] += len(block)
            return add_block(self, block)

        monkeypatch.setattr(_Encoder, "add_row", count_row)
        monkeypatch.setattr(_Encoder, "add_block", count_block)
        assert preprocess_csv(db, dbd).partitions == expected.partitions
        assert rows == {"cells": first_block, "block": 3_000 - first_block}

    @pytest.mark.parametrize("numpy_absent", [False, True], ids=["numpy", "pure_scan"])
    def test_quoted_table_reads_as_its_plain_form(self, request, tmp_path, capsys, numpy_absent):
        if numpy_absent:
            request.getfixturevalue("pure_scan")
        empty_rows = (0, 700, 1_501, 2_999)
        plain, dbd = write_synthetic(tmp_path, empty_rows)
        quoted, _ = write_synthetic(tmp_path, empty_rows, quoted=True)
        assert quoted.read_text().count('"') == 2 * 12 * 3_001
        outcomes, outputs = [], []
        for db in (plain, quoted):
            pdb = preprocess_csv(db, dbd, skip_missing=True)
            outcomes.append((pdb.partitions, pdb.skipped_rows))
            argv = ["mine", "--negative", "--format", "json", "--skip-missing", "--min-corr", "0.2",
                    "--max-premise-len", "3", "--db", str(db), "--dbd", str(dbd)]
            assert main(argv) == 0
            out = capsys.readouterr().out.replace(str(db), "DB")
            timings = ('"preprocess_seconds"', '"mine_seconds"')
            outputs.append([line for line in out.splitlines() if not line.lstrip().startswith(timings)])
        assert outcomes[1] == outcomes[0]
        assert outcomes[0][1] == len(empty_rows)
        assert outputs[1] == outputs[0]
        rules = json.loads("\n".join(outputs[0]))["rules"]
        assert any(r["negative"] for r in rules) and any(len(r["premise"]) > 1 for r in rules)

    @given(
        text=st.one_of(
            st.floats(allow_nan=False, allow_infinity=False).map(repr),
            st.from_regex(r"[-+]?([0-9]{1,30}\.?[0-9]{0,30}|\.[0-9]{1,30})([eE][-+]?[0-9]{1,3})?", fullmatch=True),
        )
    )
    @settings(max_examples=500, deadline=None)
    def test_numpy_reads_a_plain_number_as_float_does(self, text):
        np = pytest.importorskip("numpy", exc_type=ImportError)
        parsed = np.loadtxt([text + "\n"], dtype="f8", delimiter=",", comments=None, ndmin=1)
        assert parsed.tobytes() == np.array([float(text)]).tobytes()

    @pytest.mark.parametrize("blank", ["\n", "\r\n"])
    def test_blank_lines_alone_are_no_records(self, tmp_path, capsys, blank):
        db, dbd = self.write_rows(tmp_path, [blank] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert assert_reads_as_cells(db, dbd) == "no records"
            assert main(["preprocess", "--db", str(db), "--dbd", str(dbd)]) == 3
        assert capsys.readouterr().err == "error: no records\n"

    def test_whitespace_table_is_complete(self):
        from goalrules.preprocess import _SPACES

        assert set(_SPACES) | {"\n", "\r"} == {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()}
        assert _SPACES[:8].isascii() and not _SPACES[8:].isascii()


class TestBitmaps:
    def test_bit_j_of_goal_k_is_record_j(self):
        pdb = preprocess(TestPreprocess().rows(), make_descriptors())
        # goal 0 holds 9 = T0|C0 and 10 = T1|C0; goal 1 holds 20 = T2|C1
        assert pdb.bitmaps == ((0b01, 0b10, 0, 0b11, 0), (0, 0, 1, 0, 1))

    def test_wide_catalog(self):
        pdb = PartitionedDatabase(
            ((1 << 70, 3), (1 << 64 | 1 << 63,)), ("a", "b"), generic_catalog(71)
        )
        assert pdb.bitmaps[0][70] == 0b01
        assert pdb.bitmaps[0][0] == pdb.bitmaps[0][1] == 0b10
        assert pdb.bitmaps[1][63] == pdb.bitmaps[1][64] == 1
        assert support(1 << 70, pdb) == (1, 0)

    def test_empty_partition_has_zero_bitmaps(self):
        rows = [r for r in TestPreprocess().rows() if r["label"] == "no"]
        pdb = preprocess(rows, make_descriptors())
        assert pdb.bitmaps[1] == (0,) * len(pdb.catalog)

    @pytest.mark.parametrize("m", [5, 64, 65, 130])
    def test_pure_builder_matches_numpy(self, m, monkeypatch):
        pytest.importorskip("numpy", exc_type=ImportError)
        rng = random.Random(m)
        parts = tuple(tuple(rng.randrange(1, 1 << m) for _ in range(n)) for n in (300, 0, 17))
        catalog = generic_catalog(m)
        built = PartitionedDatabase(parts, ("a", "b", "c"), catalog).bitmaps
        monkeypatch.setattr(sys.modules["goalrules.preprocess"], "_np", None)
        pure = PartitionedDatabase(parts, ("a", "b", "c"), catalog).bitmaps
        assert pure == built


@pytest.mark.usefixtures("pure_scan")
class TestPreprocessRowByRow(TestPreprocess):
    """``TestPreprocess`` without numpy, which changes only the bitmap builder:
    mapping rows are always encoded row by row."""

    test_encode_decode_roundtrip = None  # encode_row alone, which has no numpy path


@pytest.mark.usefixtures("pure_scan")
class TestCsvRowByRow(TestCsv):
    """``TestCsv`` without numpy, where every block takes the cell path and is
    encoded row by row."""


class TestRecords:
    CODES = (1, 1 << 63, 1 << 64 | 5, (1 << 129) - 1, 7)

    @pytest.mark.parametrize("width", [3, 4])
    def test_reads_as_a_sequence_of_ints(self, width):
        records = Records.pack(self.CODES, width)
        assert (len(records), records.width, len(records.words)) == (5, width, 5 * width)
        assert list(records) == list(self.CODES) and records == self.CODES and self.CODES == records
        assert [records[i] for i in range(-5, 5)] == list(self.CODES * 2)
        for cut in (slice(1, 3), slice(None, None, -1), slice(4, 1), slice(-2, None), slice(None, None, 2)):
            assert records[cut] == self.CODES[cut] and records[cut].width == width
        assert records + (2,) == self.CODES + (2,) and records * 2 == self.CODES * 2
        assert records != self.CODES[:4] and records != [*self.CODES[:4], 8]
        assert hash(records) == hash(self.CODES)
        assert repr(records) == f"Records({self.CODES!r}, width={width})"
        with pytest.raises(IndexError):
            records[5]

    def test_one_limb_reads_the_array_itself(self):
        records = Records.pack((9, 10, 20), 1)
        assert records.words == array("Q", (9, 10, 20))
        assert records[::-1] == (20, 10, 9) and records[1:] + records[:1] == (10, 20, 9)
        assert Records.pack((), 1) == () and not Records.pack((), 2)

    @given(data=st.data(), width=st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_behaves_like_the_tuple_of_its_codes(self, data, width):
        codes = st.integers(0, (1 << 64 * width) - 1)
        expected = tuple(data.draw(st.lists(codes, max_size=10)))
        records = Records.pack(expected, width)
        n = len(expected)
        assert len(records) == n and tuple(iter(records)) == expected
        for i in range(-n - 2, n + 2):
            if -n <= i < n:
                assert records[i] == expected[i]
            else:
                with pytest.raises(IndexError):
                    records[i]
        bound = st.none() | st.integers(-n - 2, n + 2)
        cut = slice(*data.draw(st.tuples(bound, bound, st.none() | st.integers(-3, 3).filter(bool))))
        assert records[cut] == expected[cut] and records[cut].width == width
        tail = tuple(data.draw(st.lists(codes, max_size=4)))
        assert records + tail == expected + tail
        other_width = data.draw(st.integers(1, 3))
        narrow = st.integers(0, (1 << 64 * min(width, other_width)) - 1)
        other = tuple(data.draw(st.lists(narrow, max_size=4)))
        joined = records + Records.pack(other, other_width)
        assert joined == expected + other and joined.width == width
        assert Records.pack(other, other_width) == Records.pack(other, width) == other
        factor = data.draw(st.integers(-1, 3))
        assert records * factor == expected * factor and (records * factor).width == width
        different = tuple(data.draw(st.lists(codes, max_size=10)))
        for against in (different, Records.pack(different, width)):
            assert (records == against) == (expected == different)
            assert (records != against) == (expected != different)
        assert hash(records) == hash(expected)

    @pytest.mark.parametrize("code,width", [(-1, 1), (1 << 64, 1), (-1, 2), (1 << 128, 2)])
    def test_code_wider_than_its_limbs_is_an_error(self, code, width):
        with pytest.raises(OverflowError):
            Records.pack((3, code), width)

    def test_constructor_packs_to_the_catalog_width(self):
        pdb = PartitionedDatabase(((1 << 70, 3), [1 << 64]), ("a", "b"), generic_catalog(71))
        assert [(type(p), p.width) for p in pdb.partitions] == [(Records, 2)] * 2
        assert pdb.partitions == ((1 << 70, 3), (1 << 64,))
        assert pdb.records == (1 << 70, 3, 1 << 64) and pdb.records.width == 2
        same = PartitionedDatabase(pdb.partitions, ("a", "b"), pdb.catalog)
        assert all(a is b for a, b in zip(same.partitions, pdb.partitions))


def width_table(m: int, rows: int = 60, seed: int = 0) -> tuple[dict, list[list[str]]]:
    """A description over m properties and rows leaning toward their goal.
    Columns of 3 classes fill bits 0..59; above 64 properties, a 5-class
    column holds bits 60..64, across the first limb's edge, and 3-class
    columns then a last one of 2-4 classes fill the rest (at 129
    properties, bits 125..128 across the second limb's edge). Even columns
    are continuous, odd ones categorical; a row's leaning category is
    ``(goal + classes - 2) % classes``, so bits 63 and 64 both occur."""
    sizes, left = [3] * 20, m - 60
    if m > 64:
        sizes.append(5)
        left -= 5
        while left > 4:
            sizes.append(3)
            left -= 3
    if left:
        sizes.append(left)
    columns = []
    for j, classes in enumerate(sizes):
        if j % 2:
            columns.append({"name": f"d{j}", "kind": "categorical", "classes": classes,
                            "values": [f"v{c}" for c in range(classes)]})
        else:
            columns.append({"name": f"c{j}", "kind": "continuous", "classes": classes,
                            "values": list(range(1, classes))})
    columns.append({"name": "goal", "kind": "target", "classes": 3, "values": ["g0", "g1", "g2"]})
    rng = random.Random(seed)
    lines = []
    for _ in range(rows):
        goal = rng.randrange(3)
        cells = []
        for j, classes in enumerate(sizes):
            c = (goal + classes - 2) % classes if rng.random() < 0.6 else rng.randrange(classes)
            cells.append(f"v{c}" if j % 2 else f"{c + 0.5}")
        lines.append([*cells, f"g{goal}"])
    return {"columns": columns}, lines


class TestRecordWidths:
    """Tables at and around the 64-bit limb edges: every way in gives the
    codes of ``_encode``, packed at the catalog's width, and the rules of
    the oracle."""

    WIDTHS = [63, 64, 65, 128, 129]

    @staticmethod
    def write(tmp_path, doc, lines, quoting=csv.QUOTE_MINIMAL, copies=1):
        db, dbd = tmp_path / "w.csv", tmp_path / "w.json"
        dbd.write_text(json.dumps(doc))
        with open(db, "w", newline="") as handle:
            writer = csv.writer(handle, quoting=quoting, lineterminator="\n")
            writer.writerow([c["name"] for c in doc["columns"]])
            writer.writerows(lines * copies)
        return db, dbd

    @staticmethod
    def expected(doc, lines, copies=1):
        descriptors = make_descriptors(doc)
        columns = _compile(descriptors, build_catalog(descriptors))
        parts = ([], [], [])
        for cells in lines * copies:
            code, goal = _encode(cells, columns)
            parts[goal].append(code)
        return tuple(map(tuple, parts))

    @staticmethod
    def assert_packed(pdb, m, expected):
        assert len(pdb.catalog) == m
        assert all(isinstance(p, Records) and p.width == -(-m // 64) for p in pdb.partitions)
        assert pdb.partitions == expected

    @pytest.mark.parametrize("m", WIDTHS)
    def test_every_path_gives_the_codes_of_encode(self, m, tmp_path, monkeypatch):
        pytest.importorskip("numpy", exc_type=ImportError)
        doc, lines = width_table(m)
        expected = self.expected(doc, lines)
        if m > 64:
            assert any(code >> 63 & 1 for part in expected for code in part)
            assert any(code >> 64 & 1 for part in expected for code in part)
        plain = self.write(tmp_path, doc, lines)
        with monkeypatch.context() as patch:
            patch.setattr(_Encoder, "add_row", None)  # the block reader alone
            pdb = preprocess_csv(*plain)
        self.assert_packed(pdb, m, expected)
        quoted = self.write(tmp_path, doc, lines, quoting=csv.QUOTE_ALL)
        assert '"' in quoted[0].read_text().splitlines()[1]
        with monkeypatch.context() as patch:
            patch.setattr(_Encoder, "add_block", None)  # the cell path alone
            self.assert_packed(preprocess_csv(*quoted), m, expected)
        names = [c["name"] for c in doc["columns"]]
        rows = [dict(zip(names, cells)) for cells in lines]
        self.assert_packed(preprocess(rows, make_descriptors(doc)), m, expected)
        dump_database(pdb, tmp_path / "dump.json")
        self.assert_packed(load_database(tmp_path / "dump.json"), m, expected)
        self.assert_packed(replicate(pdb, 3), m, tuple(part * 3 for part in expected))

    @pytest.mark.parametrize("m", WIDTHS)
    def test_rules_match_the_oracle(self, m, tmp_path):
        doc, lines = width_table(m)
        config = MiningConfig(min_corr=0.3, max_premise_len=3)
        for copies in (1, 3):
            pdb = preprocess_csv(*self.write(tmp_path, doc, lines, copies=copies))
            self.assert_packed(pdb, m, self.expected(doc, lines, copies))
            assert engine._Root.of(pdb, engine._property_counts(pdb)).g == copies
            rules = mine(pdb, config)
            assert_rulesets_equal(rules, oracle_mine(from_database(pdb), 3, config))
            premises = [r.premise for r in rules.all_positive()]
            assert any(p.bit_count() > 1 for p in premises)
            if m > 64:
                assert any(p >> 63 for p in premises)


class TestRecordMemory:
    def test_records_take_their_words_and_little_more(self, tmp_path):
        """``preprocess_csv`` on 200,000 plain rows of 30 properties peaks at
        8 bytes a record, 1/8 more for the arrays' growth, and 1 MB for one
        block in flight (``tracemalloc`` counts numpy's buffers too). Boxed
        ints in tuples took about 45 bytes a record."""
        pytest.importorskip("numpy", exc_type=ImportError)
        table, description = synthetic_tables(100, 10, categorical=0, seed=3)
        db, dbd = tmp_path / "t.csv", tmp_path / "t.json"
        save_tables(table, description, db, dbd)
        header, *block = db.read_text().splitlines(keepends=True)
        db.write_text(header + "".join(block) * 2000)
        tracemalloc.start()
        try:
            pdb = preprocess_csv(db, dbd)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert pdb.total == 200_000 and len(pdb.catalog) == 30
        assert peak <= 8 * pdb.total * 9 / 8 + (1 << 20)
