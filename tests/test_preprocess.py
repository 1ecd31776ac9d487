import json
import math
import random
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from goalrules import (
    ColumnDescriptor,
    DataError,
    MissingValueError,
    PartitionedDatabase,
    PropertyCatalog,
    build_catalog,
    database_to_dict,
    decode,
    discretize,
    dump_database,
    encode_row,
    load_database,
    parse_description,
    preprocess,
    preprocess_csv,
    read_table,
    replicate,
    support,
)

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

    def test_label_count_mismatch(self):
        doc = variant(col=1, values=["red", "blue", "green"])
        with pytest.raises(DataError, match="expected 2 labels"):
            make_descriptors(doc)

    def test_duplicate_labels(self):
        doc = variant(col=1, values=["red", "red"])
        with pytest.raises(DataError, match="distinct"):
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

    def test_index_for(self):
        catalog = build_catalog(make_descriptors())
        assert catalog.index_for("color", 1) == 4
        assert catalog.index_for("temp", 2) == 2

    def test_generic(self):
        catalog = PropertyCatalog.generic(4)
        assert catalog.names() == ["P0", "P1", "P2", "P3"]

    def test_bad_indices_rejected(self):
        from goalrules import Property

        with pytest.raises(DataError, match="0..m-1"):
            PropertyCatalog((Property(1, "A1", "a", 1, "A1"),))


class TestDiscretize:
    @pytest.mark.parametrize(
        "value,expected",
        [(9.99, 0), (10.0, 1), (15.0, 1), (20.0, 2), (25.0, 2), (-1e9, 0)],
    )
    def test_bins(self, value, expected):
        assert discretize(value, [10.0, 20.0]) == expected

    def test_single_boundary(self):
        assert discretize(0.0, [0.5]) == 0
        assert discretize(0.5, [0.5]) == 1

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite(self, bad):
        with pytest.raises(DataError, match="non-finite value"):
            discretize(bad, [1.0])

    @given(
        bounds=st.lists(
            st.floats(-1e6, 1e6, allow_nan=False), min_size=1, max_size=6, unique=True
        ),
        value=st.floats(-1e7, 1e7, allow_nan=False),
    )
    def test_total_and_monotone(self, bounds, value):
        bounds = sorted(bounds)
        bin_index = discretize(value, bounds)
        assert 0 <= bin_index <= len(bounds)
        # every boundary belongs to the bin above it
        for i, b in enumerate(bounds):
            assert discretize(b, bounds) == i + 1
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
        with pytest.raises(DataError, match="unparsable continuous value 'warm'"):
            encode_row({"temp": "warm", "color": "red", "label": "no"}, descs, catalog)

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
        assert pdb.partition_starts == (0, 2)
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
            assert decode(code, catalog) == [f"T{t}", f"C{c}"]
            assert goal == y


class TestDecode:
    def test_values(self):
        catalog = PropertyCatalog.generic(4)
        assert decode(0, catalog) == []
        assert decode(5, catalog) == ["P0", "P2"]
        assert decode(15, catalog) == ["P0", "P1", "P2", "P3"]

    @pytest.mark.parametrize("bad", [-1, 16, 1 << 10])
    def test_out_of_range(self, bad):
        with pytest.raises(DataError, match="code out of catalog range"):
            decode(bad, PropertyCatalog.generic(4))


class TestDatabaseInvariants:
    def test_size_sum_must_match(self):
        with pytest.raises(DataError, match="sum"):
            PartitionedDatabase((1, 2), (1,), ("a",), PropertyCatalog.generic(2))

    def test_label_count_must_match(self):
        with pytest.raises(DataError, match="per goal label"):
            PartitionedDatabase((1,), (1, 0), ("a",), PropertyCatalog.generic(2))

    def test_negative_size(self):
        with pytest.raises(DataError, match="non-negative"):
            PartitionedDatabase((), (-1, 1), ("a", "b"), PropertyCatalog.generic(2))


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

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{]")
        with pytest.raises(DataError, match="not valid JSON"):
            load_database(path)


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
        assert large.per_goal == tuple(c * 3 for c in small.per_goal)

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

    def test_read_table_streams_dicts(self, tmp_path):
        db, _ = self.write_files(tmp_path, ["5,red,no"])
        rows = list(read_table(db, make_descriptors()))
        assert rows == [{"temp": "5", "color": "red", "label": "no"}]


class TestBitmaps:
    def test_bit_j_of_goal_k_is_record_j(self):
        pdb = preprocess(TestPreprocess().rows(), make_descriptors())
        # goal 0 holds 9 = T0|C0 and 10 = T1|C0; goal 1 holds 20 = T2|C1
        assert pdb.bitmaps == ((0b01, 0b10, 0, 0b11, 0), (0, 0, 1, 0, 1))

    def test_wide_catalog(self):
        pdb = PartitionedDatabase(
            (1 << 70, 3, 1 << 64 | 1 << 63), (2, 1), ("a", "b"), PropertyCatalog.generic(71)
        )
        assert pdb.bitmaps[0][70] == 0b01
        assert pdb.bitmaps[0][0] == pdb.bitmaps[0][1] == 0b10
        assert pdb.bitmaps[1][63] == pdb.bitmaps[1][64] == 1
        assert support(1 << 70, pdb).per_goal == (1, 0)

    def test_empty_partition_has_zero_bitmaps(self):
        rows = [r for r in TestPreprocess().rows() if r["label"] == "no"]
        pdb = preprocess(rows, make_descriptors())
        assert pdb.bitmaps[1] == (0,) * len(pdb.catalog)

    @pytest.mark.parametrize("m", [5, 64, 65, 130])
    def test_pure_builder_matches_numpy(self, m, monkeypatch):
        pytest.importorskip("numpy")
        rng = random.Random(m)
        sizes = (300, 0, 17)
        records = tuple(rng.randrange(1, 1 << m) for _ in range(sum(sizes)))
        catalog = PropertyCatalog.generic(m)
        built = PartitionedDatabase(records, sizes, ("a", "b", "c"), catalog).bitmaps
        monkeypatch.setattr(sys.modules["goalrules.preprocess"], "_np", None)
        pure = PartitionedDatabase(records, sizes, ("a", "b", "c"), catalog).bitmaps
        assert pure == built
