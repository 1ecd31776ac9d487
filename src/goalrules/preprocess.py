"""Table preprocessing: description parsing, binarization of input columns,
bit-code encoding of rows, and grouping of records by goal class.

Each binary property occupies one bit position; a row becomes a single
unbounded int whose set bits are the properties the row satisfies.
"""

from __future__ import annotations

import csv
import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate, chain
from math import isfinite
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DataError, MissingValueError

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is an optional accelerator
    _np = None

_LIMB_BITS = 64
_LIMB_MASK = (1 << _LIMB_BITS) - 1

TARGET = "target"
CONTINUOUS = "continuous"
CATEGORICAL = "categorical"

_KINDS = (TARGET, CONTINUOUS, CATEGORICAL)


@dataclass(frozen=True)
class ColumnDescriptor:
    """One column of the raw table, as declared in the description file.

    ``values`` holds the category labels for target/categorical columns, or
    the ``class_count - 1`` ascending bin boundaries for continuous ones.
    """

    name: str
    kind: str
    short_name: str
    class_count: int
    values: tuple
    full_name: str

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise DataError(f"column {self.name!r}: unknown kind {self.kind!r}")
        if self.class_count < 2:
            raise DataError(f"column {self.name!r}: class_count must be at least 2")
        if self.kind == CONTINUOUS:
            if len(self.values) != self.class_count - 1:
                raise DataError(
                    f"continuous column {self.name!r}: "
                    "boundary count must be class_count - 1"
                )
            bounds = self.values
            if any(not isfinite(b) for b in bounds):
                raise DataError(f"continuous column {self.name!r}: non-finite boundary")
            if any(bounds[i] >= bounds[i + 1] for i in range(len(bounds) - 1)):
                raise DataError(
                    f"continuous column {self.name!r}: boundaries must be strictly ascending"
                )
        else:
            if len(self.values) != self.class_count:
                raise DataError(
                    f"column {self.name!r}: expected {self.class_count} labels, "
                    f"got {len(self.values)}"
                )
            if len(set(self.values)) != len(self.values):
                raise DataError(f"column {self.name!r}: labels must be distinct")

    @property
    def is_target(self) -> bool:
        return self.kind == TARGET


def validate_descriptors(descriptors: Sequence[ColumnDescriptor]) -> ColumnDescriptor:
    """Check cross-column constraints and return the single target descriptor."""
    if not descriptors:
        raise DataError("description must declare at least one column")
    names = [d.name for d in descriptors]
    if len(set(names)) != len(names):
        dupe = next(n for n in names if names.count(n) > 1)
        raise DataError(f"duplicate column name {dupe!r}")
    targets = [d for d in descriptors if d.is_target]
    if not targets:
        raise DataError("no target column declared")
    if len(targets) > 1:
        raise DataError("multiple target columns declared")
    shorts = [d.short_name for d in descriptors if not d.is_target]
    if len(set(shorts)) != len(shorts):
        dupe = next(s for s in shorts if shorts.count(s) > 1)
        raise DataError(f"duplicate short name {dupe!r}")
    return targets[0]


def parse_description(text: str) -> list[ColumnDescriptor]:
    """Parse a JSON description document into column descriptors.

    Expected shape: ``{"columns": [{"name", "kind", "classes", "values",
    "short", "full_name"}, ...]}`` where ``short`` and ``full_name`` default
    to the column name.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DataError(f"description is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), list) or not doc["columns"]:
        raise DataError("description must contain a non-empty 'columns' list")
    descriptors = []
    for entry in doc["columns"]:
        if not isinstance(entry, dict):
            raise DataError("each column entry must be an object")
        try:
            name = str(entry["name"])
            kind = str(entry["kind"])
            classes = int(entry["classes"])
            raw_values = entry["values"]
        except KeyError as exc:
            raise DataError(f"column entry is missing key {exc.args[0]!r}") from exc
        except (TypeError, ValueError) as exc:
            raise DataError(f"column {entry.get('name')!r}: bad 'classes' value") from exc
        if not isinstance(raw_values, list):
            raise DataError(f"column {name!r}: 'values' must be a list")
        if kind == CONTINUOUS:
            try:
                values = tuple(float(v) for v in raw_values)
            except (TypeError, ValueError) as exc:
                raise DataError(f"continuous column {name!r}: non-numeric boundary") from exc
        else:
            values = tuple(str(v) for v in raw_values)
        descriptors.append(
            ColumnDescriptor(
                name=name,
                kind=kind,
                short_name=str(entry.get("short", name)),
                class_count=classes,
                values=values,
                full_name=str(entry.get("full_name", name)),
            )
        )
    validate_descriptors(descriptors)
    return descriptors


@dataclass(frozen=True)
class Property:
    """A single binary property: one category of one input column."""

    index: int
    name: str
    column: str
    category: int
    full_name: str

    @property
    def code(self) -> int:
        return 1 << self.index


@dataclass(frozen=True)
class PropertyCatalog:
    """All binary properties of a table, ordered by bit index."""

    properties: tuple[Property, ...]

    def __post_init__(self) -> None:
        for i, prop in enumerate(self.properties):
            if prop.index != i:
                raise DataError("catalog property indices must be 0..m-1 in order")

    def __len__(self) -> int:
        return len(self.properties)

    def __iter__(self) -> Iterator[Property]:
        return iter(self.properties)

    def __getitem__(self, index: int) -> Property:
        return self.properties[index]

    def names(self) -> list[str]:
        return [p.name for p in self.properties]

    @classmethod
    def generic(cls, m: int) -> "PropertyCatalog":
        """Anonymous m-property catalog (P0..Pm-1) for synthetic databases."""
        return cls(tuple(Property(i, f"P{i}", f"P{i}", 0, f"P{i}") for i in range(m)))


def _interval_text(full_name: str, bounds: Sequence[float], category: int) -> str:
    if category == 0:
        return f"{full_name} < {bounds[0]:g}"
    if category == len(bounds):
        return f"{full_name} >= {bounds[-1]:g}"
    return f"{bounds[category - 1]:g} <= {full_name} < {bounds[category]:g}"


def build_catalog(descriptors: Sequence[ColumnDescriptor]) -> PropertyCatalog:
    """Lay out one property per category of each non-target column, in
    column order; property names combine the short name and category index."""
    validate_descriptors(descriptors)
    props: list[Property] = []
    for desc in descriptors:
        if desc.is_target:
            continue
        for cat in range(desc.class_count):
            if desc.kind == CONTINUOUS:
                full = _interval_text(desc.full_name, desc.values, cat)
            else:
                full = f"{desc.full_name} = {desc.values[cat]}"
            props.append(
                Property(
                    index=len(props),
                    name=f"{desc.short_name}{cat}",
                    column=desc.name,
                    category=cat,
                    full_name=full,
                )
            )
    return PropertyCatalog(tuple(props))


def _compile(descriptors: Sequence[ColumnDescriptor], catalog: PropertyCatalog) -> list[tuple]:
    """One ``(name, bounds, labels, codes)`` entry per column: continuous
    columns carry their bin boundaries, the others a label -> category dict;
    ``codes[c]`` is the bit of category c, and ``None`` for the target."""
    if len(catalog) == 0:
        raise DataError("no input columns")
    bits: dict[str, dict[int, int]] = {}
    for prop in catalog:
        bits.setdefault(prop.column, {})[prop.category] = prop.code
    columns = []
    for desc in descriptors:
        codes = None if desc.is_target else bits[desc.name]
        if desc.kind == CONTINUOUS:
            columns.append((desc.name, desc.values, None, codes))
        else:
            columns.append((desc.name, None, {v: i for i, v in enumerate(desc.values)}, codes))
    return columns


def _encode(row: Mapping[str, str], columns: Sequence[tuple]) -> tuple[int, int]:
    code = 0
    goal = -1
    for name, bounds, labels, codes in columns:
        raw = row.get(name)
        if raw is None or raw == "":
            raise MissingValueError(f"missing value in column {name!r}")
        if bounds is not None:
            try:
                if "_" in raw:  # float() would read the digit groups of "1_0" as 10.0
                    raise ValueError(raw)
                value = float(raw)
            except ValueError as exc:
                raise DataError(f"unparsable continuous value {raw!r} in column {name!r}") from exc
            if not isfinite(value):
                raise DataError(f"column {name!r}: non-finite value {value!r}")
            # a value equal to a boundary belongs to the bin above it
            category = bisect_right(bounds, value)
        else:
            label = str(raw)
            category = labels.get(label)
            if category is None:
                raise DataError(f"unknown label {label!r} in column {name!r}")
        if codes is None:
            goal = category
        else:
            code |= codes[category]
    return code, goal


def encode_row(
    row: Mapping[str, str],
    descriptors: Sequence[ColumnDescriptor],
    catalog: PropertyCatalog,
) -> tuple[int, int]:
    """Encode one row as ``(bit code, goal index)``.

    Exactly one property per input column is set, so the code's popcount
    equals the number of non-target columns. A continuous value falls in
    half-open bins: bin 0 is everything below the first boundary, and a
    value equal to a boundary belongs to the bin above it.
    """
    return _encode(row, _compile(descriptors, catalog))


@dataclass(frozen=True)
class PartitionedDatabase:
    """Encoded records grouped by goal class, plus the property catalog.

    ``partitions[k]`` holds the record codes of goal k in input order; the
    sizes, the total and the flat ``records`` are derived from it.
    """

    partitions: tuple[tuple[int, ...], ...]
    goal_labels: tuple[str, ...]
    catalog: PropertyCatalog
    skipped_rows: int = 0

    def __post_init__(self) -> None:
        if len(self.goal_labels) != len(self.partitions):
            raise DataError("one partition per goal label required")

    @cached_property
    def partition_sizes(self) -> tuple[int, ...]:
        return tuple(len(part) for part in self.partitions)

    @cached_property
    def total(self) -> int:
        return sum(self.partition_sizes)

    @property
    def records(self) -> tuple[int, ...]:
        """Every goal's records, contiguously in goal order."""
        return tuple(chain.from_iterable(self.partitions))

    @cached_property
    def bitmaps(self) -> tuple[tuple[int, ...], ...]:
        """Vertical layout: ``bitmaps[k][i]`` has bit j set when record j of
        goal k has property i. Built on first use, from ``partitions``."""
        build = _bitmaps_numpy if _np is not None else _bitmaps_pure
        m = len(self.catalog)
        return tuple(build(part, m) for part in self.partitions)


def set_bits(code: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative code, ascending."""
    while code:
        low = code & -code
        yield low.bit_length() - 1
        code ^= low


def _bitmaps_numpy(part: Sequence[int], m: int) -> tuple[int, ...]:
    """One goal's property bitmaps, one 64-bit limb of the codes at a time.
    Bit b of a little-endian word sits in its byte b // 8, so each property
    is a strided byte view, masked and packed; no rows x properties matrix."""
    out = []
    for base in range(0, m, _LIMB_BITS):
        codes = part if m <= _LIMB_BITS else ((code >> base) & _LIMB_MASK for code in part)
        limb = _np.fromiter(codes, dtype="<u8", count=len(part)).view(_np.uint8)
        for bit in range(min(_LIMB_BITS, m - base)):
            packed = _np.packbits(limb[bit >> 3 :: 8] & (1 << (bit & 7)), bitorder="little")
            out.append(int.from_bytes(packed.tobytes(), "little"))
    return tuple(out)


def _bitmaps_pure(part: Sequence[int], m: int) -> tuple[int, ...]:
    """Same result as ``_bitmaps_numpy``, set bit by set bit."""
    columns = [bytearray((len(part) + 7) // 8) for _ in range(m)]
    in_catalog = (1 << m) - 1
    for j, code in enumerate(part):
        byte, mask = j >> 3, 1 << (j & 7)
        for i in set_bits(code & in_catalog):
            columns[i][byte] |= mask
    return tuple(int.from_bytes(column, "little") for column in columns)


def preprocess(
    rows: Iterable[Mapping[str, str]],
    descriptors: Sequence[ColumnDescriptor],
    *,
    skip_missing: bool = False,
) -> PartitionedDatabase:
    """Encode each row with the compiled description and append its code to
    its goal's partition, keeping input order within a goal.

    Rows with missing cells are a hard error naming the row and column
    unless ``skip_missing`` is set, in which case they are dropped and
    counted in ``skipped_rows``. A description without input columns fails
    before any row is read.
    """
    target = validate_descriptors(descriptors)
    catalog = build_catalog(descriptors)
    columns = _compile(descriptors, catalog)
    buckets: list[list[int]] = [[] for _ in target.values]
    skipped = 0
    for row_number, row in enumerate(rows, start=1):
        try:
            code, goal = _encode(row, columns)
        except MissingValueError as exc:
            if skip_missing:
                skipped += 1
                continue
            raise DataError(f"row {row_number}: {exc}") from exc
        except DataError as exc:
            raise DataError(f"row {row_number}: {exc}") from exc
        buckets[goal].append(code)
    if not any(buckets):
        raise DataError("no records")
    return PartitionedDatabase(
        partitions=tuple(tuple(bucket) for bucket in buckets),
        goal_labels=tuple(str(v) for v in target.values),
        catalog=catalog,
        skipped_rows=skipped,
    )


def _open_input(path, **kwargs):
    try:
        return open(path, **kwargs)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc


def read_table(path, descriptors: Sequence[ColumnDescriptor]) -> Iterator[dict[str, str]]:
    """Stream CSV rows after checking the header against the description.
    A row with more cells than the header is an error naming the row."""
    expected = [d.name for d in descriptors]
    with _open_input(path, newline="") as handle:
        reader = csv.DictReader(handle)
        if reader.fieldnames != expected:
            raise DataError(
                f"CSV header {reader.fieldnames} does not match description columns {expected}"
            )
        for row_number, row in enumerate(reader, start=1):
            if None in row:
                raise DataError(
                    f"row {row_number}: {len(expected) + len(row[None])} cells, "
                    f"but the header has {len(expected)} columns"
                )
            yield row


def preprocess_csv(db_path, dbd_path, *, skip_missing: bool = False) -> PartitionedDatabase:
    """Read a description file and a CSV table, returning the encoded database."""
    with _open_input(dbd_path) as handle:
        descriptors = parse_description(handle.read())
    return preprocess(read_table(db_path, descriptors), descriptors, skip_missing=skip_missing)


def decode(code: int, catalog: PropertyCatalog) -> list[str]:
    """Property names of the set bits, in catalog order."""
    if code < 0 or code >> len(catalog):
        raise DataError(f"code out of catalog range: {code}")
    return [catalog.properties[i].name for i in set_bits(code)]


def catalog_to_list(catalog: PropertyCatalog) -> list[dict]:
    """JSON-ready catalog, one object per property in bit order."""
    return [
        {
            "index": p.index,
            "name": p.name,
            "column": p.column,
            "category": p.category,
            "full_name": p.full_name,
        }
        for p in catalog
    ]


def database_to_dict(pdb: PartitionedDatabase) -> dict:
    """JSON-ready dump; records are decimal strings to survive any reader."""
    return {
        "goal_labels": list(pdb.goal_labels),
        "partition_sizes": list(pdb.partition_sizes),
        "catalog": catalog_to_list(pdb.catalog),
        "records": [str(r) for r in pdb.records],
    }


def database_from_dict(doc: dict) -> PartitionedDatabase:
    try:
        catalog = PropertyCatalog(
            tuple(
                Property(
                    index=int(e["index"]),
                    name=str(e["name"]),
                    column=str(e["column"]),
                    category=int(e["category"]),
                    full_name=str(e["full_name"]),
                )
                for e in doc["catalog"]
            )
        )
        records = tuple(int(r) for r in doc["records"])
        sizes = tuple(int(n) for n in doc["partition_sizes"])
        labels = tuple(str(v) for v in doc["goal_labels"])
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"malformed database dump: {exc}") from exc
    if any(n < 0 for n in sizes):
        raise DataError("partition sizes must be non-negative")
    if sum(sizes) != len(records):
        raise DataError("partition sizes must sum to the record count")
    for record in records:
        if record <= 0 or record >> len(catalog):
            raise DataError(f"code out of catalog range: {record}")
    partitions = tuple(records[end - n : end] for n, end in zip(sizes, accumulate(sizes)))
    return PartitionedDatabase(partitions, labels, catalog)


def dump_database(pdb: PartitionedDatabase, path) -> None:
    try:
        with open(path, "w") as handle:
            json.dump(database_to_dict(pdb), handle, indent=2)
            handle.write("\n")
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from exc


def load_database(path) -> PartitionedDatabase:
    with open(path) as handle:
        try:
            doc = json.load(handle)
        except json.JSONDecodeError as exc:
            raise DataError(f"database dump is not valid JSON: {exc}") from exc
    return database_from_dict(doc)


def replicate(pdb: PartitionedDatabase, factor: int) -> PartitionedDatabase:
    """Duplicate every partition ``factor`` times; all frequency ratios are
    unchanged, which makes this useful for scaling benchmarks."""
    if factor < 1:
        raise ValueError("replication factor must be >= 1")
    return PartitionedDatabase(
        partitions=tuple(part * factor for part in pdb.partitions),
        goal_labels=pdb.goal_labels,
        catalog=pdb.catalog,
        skipped_rows=pdb.skipped_rows,
    )
