import hashlib
import json
import random
import sys
import types

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from goalrules import (
    ColumnDescriptor,
    DataError,
    mine,
    parse_description,
    preprocess,
    preprocess_csv,
)
from goalrules.datasets import (
    diabetes_database,
    diabetes_tables,
    save_tables,
    synthetic_tables,
    tertile_boundaries,
)
from goalrules.preprocess import CATEGORICAL, CONTINUOUS, TARGET, description_document


class TestTertiles:
    def test_two_ascending_cuts(self):
        cuts = tertile_boundaries(list(range(1, 10)))
        assert len(cuts) == 2
        assert cuts[0] < cuts[1]

    def test_concentrated_values_rejected(self):
        with pytest.raises(ValueError, match="concentrated"):
            tertile_boundaries([1.0] * 30)


class TestDiabetes:
    @pytest.fixture(autouse=True)
    def sklearn(self):
        pytest.importorskip("sklearn")

    def test_tables_shape(self):
        rows, description = diabetes_tables()
        assert len(rows) == 442
        names = [c["name"] for c in description["columns"]]
        assert names == ["age", "sex", "bmi", "bp", "s1", "s2", "s3", "s4", "s5", "s6", "progression"]
        descs = parse_description(json.dumps(description))
        assert descs[-1].is_target
        assert descs[-1].values == ("Goal0", "Goal1", "Goal2")
        assert descs[1].kind == "categorical"  # sex has two codes

    def test_database_partitions_are_tertiles(self):
        pdb = diabetes_database()
        assert pdb.total == 442
        assert len(pdb.partition_sizes) == 3
        assert all(140 <= size <= 155 for size in pdb.partition_sizes)

    def test_catalog_layout(self):
        pdb = diabetes_database()
        assert len(pdb.catalog) == 29  # nine 3-bin columns + two sex codes
        names = pdb.catalog.names()
        for expected in ("AGE0", "SEX1", "BMI2", "S52"):
            assert expected in names

    def test_rows_roundtrip_through_files(self, tmp_path):
        rows, description = diabetes_tables()
        db = tmp_path / "d.csv"
        dbd = tmp_path / "d.dbd.json"
        save_tables(rows, description, db, dbd)
        pdb = preprocess_csv(db, dbd)
        assert pdb.records == diabetes_database().records


def _fake_load_diabetes():
    """442 rows of ten random features, ``sex`` two-valued, and a random target."""
    rng = random.Random(442)
    names = ["age", "sex", "bmi", "bp", "s1", "s2", "s3", "s4", "s5", "s6"]
    sexes = (-0.0446416365069974, 0.0506801187398187)
    data = [
        [rng.choice(sexes) if name == "sex" else rng.uniform(-0.1, 0.1) for name in names]
        for _ in range(442)
    ]
    target = [rng.uniform(25.0, 346.0) for _ in range(442)]
    return types.SimpleNamespace(feature_names=names, data=data, target=target)


class TestDiabetesStandIn(TestDiabetes):
    """A stand-in run of ``TestDiabetes``: ``diabetes_tables`` and
    ``diabetes_database`` run on a fake ``sklearn.datasets.load_diabetes``
    of the real table's shape, not on the diabetes data. It checks the
    columns, catalog, goal partitions and CSV round trip; the acceptance
    criteria that need the real table still need scikit-learn."""

    @pytest.fixture(autouse=True)
    def sklearn(self, monkeypatch):
        datasets = types.ModuleType("sklearn.datasets")
        datasets.load_diabetes = _fake_load_diabetes
        package = types.ModuleType("sklearn")
        package.datasets = datasets
        monkeypatch.setitem(sys.modules, "sklearn", package)
        monkeypatch.setitem(sys.modules, "sklearn.datasets", datasets)


_TEXT = st.text(st.characters(blacklist_categories=("Cs",)), max_size=6)


@st.composite
def descriptor_lists(draw):
    """Valid descriptor lists: inputs of both kinds around one target, any
    finite ascending boundaries, and any text for names and labels."""
    kinds = draw(st.lists(st.sampled_from([CONTINUOUS, CATEGORICAL]), min_size=1, max_size=4))
    kinds.insert(draw(st.integers(0, len(kinds))), TARGET)
    names = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds), unique=True))
    shorts = draw(st.lists(_TEXT, min_size=len(kinds), max_size=len(kinds), unique=True))
    columns = []
    for name, short, kind in zip(names, shorts, kinds):
        if kind == CONTINUOUS:
            finite = st.floats(allow_nan=False, allow_infinity=False)
            values = sorted(draw(st.lists(finite, min_size=1, max_size=4, unique=True)))
            classes = len(values) + 1
        else:
            values = draw(st.lists(_TEXT, min_size=2, max_size=4, unique=True))
            classes = len(values)
        columns.append(ColumnDescriptor(name, kind, short, classes, tuple(values), draw(_TEXT)))
    return columns


class TestDescriptionDocument:
    @given(descriptors=descriptor_lists())
    @example(
        descriptors=[
            ColumnDescriptor("x", CONTINUOUS, "X", 3, (-1.7976931348623157e308, 5e-324), "x"),
            ColumnDescriptor('"d"', CATEGORICAL, "D", 2, ('say "hi"', "\\"), "d"),
            ColumnDescriptor("größe", TARGET, "Y", 2, ("ja", "日本"), "Größe é"),
        ]
    )
    @settings(max_examples=100, deadline=None)
    def test_parse_inverts_it(self, descriptors):
        assert parse_description(json.dumps(description_document(descriptors))) == descriptors

    def test_rejects_an_invalid_description(self):
        with pytest.raises(DataError, match="no target column"):
            description_document([ColumnDescriptor("d", CATEGORICAL, "D", 2, ("a", "b"), "dee")])


class TestSynthetic:
    def test_serialization_is_pinned(self, tmp_path):
        """The bytes a small table is written as, CSV and description. The
        benchmark regenerates its tables on any edit of ``datasets.py`` and
        compares runs across commits, so a rewrite must keep these bytes."""
        rows, description = synthetic_tables(rows=50, seed=9)
        files = (tmp_path / "s.csv", tmp_path / "s.dbd.json")
        save_tables(rows, description, *files)
        digests = [hashlib.sha256(f.read_bytes()).hexdigest() for f in files]
        assert digests == [
            "1ff0facd8259e6ea7ad5bf89b187481ec964cb878101917123761b56185b7ca9",
            "428f040ca209067d2b628a558b4a9d273dcf431235b37d7eb2db42239d6e4543",
        ]

    def test_deterministic_per_seed(self):
        a = synthetic_tables(rows=50, seed=9)
        b = synthetic_tables(rows=50, seed=9)
        c = synthetic_tables(rows=50, seed=10)
        assert a == b
        assert a != c

    def test_encodes_and_mines(self):
        rows, description = synthetic_tables(rows=200, seed=4)
        descs = parse_description(json.dumps(description))
        pdb = preprocess(rows, descs)
        assert pdb.total == 200
        mine(pdb)  # should simply not blow up

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(ValueError):
            synthetic_tables(rows=0)
        with pytest.raises(ValueError):
            synthetic_tables(continuous=0, categorical=0)
        with pytest.raises(ValueError):
            synthetic_tables(goals=1)
