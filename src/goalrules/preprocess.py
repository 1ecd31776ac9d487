"""Table preprocessing: description parsing, binarization of input columns,
bit-code encoding of rows, and grouping of records by goal class.

Each binary property occupies one bit position; a row becomes a code whose
set bits are the properties the row satisfies. Over m properties a code is
stored as ``L = max(1, ceil(m / 64))`` unsigned 64-bit limbs, least
significant first, and each goal's codes lie back to back in one
``array('Q')``, wrapped as ``Records``: 8 * L bytes per record, at any width.

Rows are encoded by one of two paths, chosen by content. Cells that arrive
one by one (mapping rows, or CSV lines that need ``csv.reader``) take the
cell path: each row is read and encoded by ``_encode`` before the next is
read. A block of plain CSV lines is parsed by numpy's C text reader in one
call and encoded a column at a time instead. The paths accept the same rows
and give the same codes and the same error text, and rows are taken in file
order, so an error names the first bad line of the file.
"""

from __future__ import annotations

import csv
import json
import sys
from array import array
from bisect import bisect_right
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from functools import cached_property
from itertools import chain, zip_longest
from math import isfinite
from operator import eq, itemgetter
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import DataError, MissingValueError

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is an optional accelerator
    _np = None

_LIMB_BITS = 64
_LIMB_MASK = (1 << _LIMB_BITS) - 1

# Characters of CSV text read per block, which numpy.loadtxt parses in one
# call: about 750 rows of an 11-column table. On a 442,000-row table, 64k
# blocks were fastest (0.62-0.71 s to preprocess, against 0.66-0.97 s at 16k
# and 32k and 0.69-0.85 s at 128k and 256k, on a shared 2-vCPU host).
_BLOCK_CHARS = 1 << 16

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
            if any(v != v.encode("utf-8", "replace").decode() for v in self.values):
                raise DataError(f"column {self.name!r}: labels must be valid Unicode text")

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


def _whole(value, owner: str, key: str) -> int:
    """A JSON whole number: an integer or a string of ASCII digits. ``int()``
    would read ``true`` as 1, truncate 2.7 to 2 and read " 1 " and "1_0"."""
    if type(value) is int or isinstance(value, str) and value.isascii() and value.isdigit():
        try:
            return int(value)
        except ValueError as exc:  # more digits than Python reads as an int
            raise DataError(f"{owner}: {key!r} value: {exc}") from None
    raise DataError(f"{owner}: bad {key!r} value {value!r}")


def _text(value, owner: str, key: str) -> str:
    """JSON text in a description: a string, or a number read as its text.
    ``str()`` would also read null as "None" and ``true`` as "True"."""
    if type(value) in (str, int, float):
        return str(value)
    raise DataError(f"{owner}: bad {key!r} value {value!r}")


def parse_description(text: str) -> list[ColumnDescriptor]:
    """Parse a JSON description document into column descriptors.

    Expected shape: ``{"columns": [{"name", "kind", "classes", "values",
    "short", "full_name"}, ...]}`` where ``short`` and ``full_name`` default
    to the column name. Names, kinds and labels are strings or numbers, read
    as their text; null, booleans, lists and objects are errors there.
    """
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise DataError(f"description is not valid JSON: {exc}") from exc
    if not isinstance(doc, dict) or not isinstance(doc.get("columns"), list) or not doc["columns"]:
        raise DataError("description must contain a non-empty 'columns' list")
    descriptors = []
    for entry in doc["columns"]:
        if not isinstance(entry, dict):
            raise DataError("each column entry must be an object")
        try:
            name, kind, classes, raw_values = itemgetter("name", "kind", "classes", "values")(entry)
        except KeyError as exc:
            raise DataError(f"column entry is missing key {exc.args[0]!r}") from exc
        name = _text(name, f"column {name!r}", "name")
        kind = _text(kind, f"column {name!r}", "kind")
        classes = int(classes) if type(classes) is float and classes.is_integer() else classes
        classes = _whole(classes, f"column {name!r}", "classes")
        if not isinstance(raw_values, list):
            raise DataError(f"column {name!r}: 'values' must be a list")
        if kind == CONTINUOUS:
            try:  # float() would read true as 1.0
                values = tuple(float(None if type(v) is bool else v) for v in raw_values)
            except (TypeError, ValueError) as exc:
                raise DataError(f"continuous column {name!r}: non-numeric boundary") from exc
        else:
            values = tuple(_text(v, f"column {name!r}", "values") for v in raw_values)
        descriptors.append(
            ColumnDescriptor(
                name=name,
                kind=kind,
                short_name=_text(entry.get("short", name), f"column {name!r}", "short"),
                class_count=classes,
                values=values,
                full_name=_text(entry.get("full_name", name), f"column {name!r}", "full_name"),
            )
        )
    validate_descriptors(descriptors)
    return descriptors


def description_document(descriptors: Sequence[ColumnDescriptor]) -> dict:
    """The JSON-ready description document of validated descriptors: the
    inverse of ``parse_description``, with every key written out."""
    validate_descriptors(descriptors)
    return {
        "columns": [
            {
                "name": d.name,
                "kind": d.kind,
                "short": d.short_name,
                "classes": d.class_count,
                "values": list(d.values),
                "full_name": d.full_name,
            }
            for d in descriptors
        ]
    }


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
        names = self.names()
        if len(set(names)) != len(names):
            dupe = next(n for n in names if names.count(n) > 1)
            raise DataError(f"duplicate property name {dupe!r}")

    def __len__(self) -> int:
        return len(self.properties)

    def __iter__(self) -> Iterator[Property]:
        return iter(self.properties)

    def __getitem__(self, index: int) -> Property:
        return self.properties[index]

    def names(self) -> list[str]:
        return [p.name for p in self.properties]


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
    """One ``(name, bounds, labels, bits)`` entry per column: continuous
    columns carry their bin boundaries, the others a label -> category dict
    (without ``""``, which is a missing cell, never a label); ``bits[c]`` is
    the bit index of category c, and ``None`` for the target."""
    if len(catalog) == 0:
        raise DataError("no input columns")
    indices: dict[str, list[int]] = {}
    for prop in catalog:
        indices.setdefault(prop.column, []).append(prop.index)
    columns = []
    for desc in descriptors:
        bits = None if desc.is_target else tuple(indices[desc.name])
        if desc.kind == CONTINUOUS:
            columns.append((desc.name, desc.values, None, bits))
        else:
            labels = {v: i for i, v in enumerate(desc.values) if v != ""}
            columns.append((desc.name, None, labels, bits))
    return columns


def _plain(text: str) -> bool:
    """Whether a continuous cell is plain ASCII without whitespace or ``_``:
    ``float()`` would also read "1_0" as 10.0, "١٥" as 15.0 and " 25" as 25.0."""
    return "_" not in text and text.isascii() and text.split(None, 1) == [text]


def _encode(cells: Sequence, columns: Sequence[tuple]) -> tuple[int, int]:
    """Encode one row of text cells (or ``None``), in column order. A row with
    more cells than columns is an error; the cells a short row lacks are missing."""
    if len(cells) > len(columns):
        raise DataError(f"{len(cells)} cells, but the header has {len(columns)} columns")
    code = 0
    goal = -1
    for raw, (name, bounds, labels, bits) in zip_longest(cells, columns):
        if raw is not None and not isinstance(raw, str):
            raise DataError(f"non-text value {raw!r} in column {name!r}")
        if not raw:
            raise MissingValueError(f"missing value in column {name!r}")
        if bounds is not None:
            try:
                if not _plain(raw):
                    raise ValueError(raw)
                value = float(raw)
            except ValueError as exc:
                raise DataError(f"unparsable continuous value {raw!r} in column {name!r}") from exc
            if not isfinite(value):
                raise DataError(f"column {name!r}: non-finite value {value!r}")
            # a value equal to a boundary belongs to the bin above it
            category = bisect_right(bounds, value)
        else:
            category = labels.get(raw)
            if category is None:
                raise DataError(f"unknown label {raw!r} in column {name!r}")
        if bits is None:
            goal = category
        else:
            code |= 1 << bits[category]
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
    value equal to a boundary belongs to the bin above it. Extra cells under
    the key ``None``, where ``csv.DictReader`` puts them, are an error.
    """
    cells = _row_cells(row, [d.name for d in descriptors])
    return _encode(cells, _compile(descriptors, catalog))


def _row_cells(row: Mapping[str, str], names: Sequence[str]) -> list:
    """A mapping row's cells in column order, then its extra cells under the
    key ``None``, so that ``_encode`` sees a long row's true width."""
    return [*map(row.get, names), *row.get(None, ())]


def _width(m: int) -> int:
    """Limbs per code over m properties."""
    return max(1, -(-m // _LIMB_BITS))


def _limbs(code: int, width: int) -> list[int]:
    """A non-negative code as ``width`` 64-bit limbs, least significant
    first; a code too wide for them is an error."""
    if code < 0 or code >> (_LIMB_BITS * width):
        raise OverflowError(f"code {code} does not fit in {width} 64-bit limbs")
    return [(code >> shift) & _LIMB_MASK for shift in range(0, _LIMB_BITS * width, _LIMB_BITS)]


def _join(*limbs: int) -> int:
    """The code whose limbs, least significant first, are ``limbs``."""
    code = 0
    for limb in reversed(limbs):
        code = code << _LIMB_BITS | limb
    return code


class Records(Sequence[int]):
    """Record codes packed ``width`` unsigned 64-bit limbs each, least
    significant limb first, back to back in one ``array('Q')``. Reads as an
    immutable sequence of ints: indexing and iteration give the codes,
    slices, ``+`` and ``*`` give ``Records``, and it equals any sequence of
    the same ints. The limbs are machine words, so the order of bytes in
    memory is the machine's."""

    __slots__ = ("words", "width")

    def __init__(self, words: array, width: int) -> None:
        self.words = words
        self.width = width

    @classmethod
    def pack(cls, codes: Iterable[int], width: int) -> "Records":
        return cls(array("Q", chain.from_iterable(_limbs(code, width) for code in codes)), width)

    def __len__(self) -> int:
        return len(self.words) // self.width

    def __iter__(self) -> Iterator[int]:
        if self.width == 1:
            # The one fast path. Counter(part) at the multiset root took 3 ms
            # on 44,200 codes (11 ms through _join), and a dump's str() 0.06 s
            # on 442,000 (0.15 s), on a 2-vCPU x86-64 host.
            return iter(self.words)
        return map(_join, *[iter(self.words)] * self.width)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return Records.pack(map(self.__getitem__, range(len(self))[index]), self.width)
        i = range(len(self))[index]
        return _join(*self.words[i * self.width : (i + 1) * self.width])

    def __eq__(self, other) -> bool:
        if isinstance(other, Sequence):
            return len(self) == len(other) and all(map(eq, self, other))
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self))  # as the equal tuple's

    def __add__(self, other: Sequence[int]) -> "Records":
        if not isinstance(other, Sequence):
            return NotImplemented
        return Records.pack(chain(self, other), self.width)

    def __mul__(self, factor: int) -> "Records":
        return Records(self.words * factor, self.width)

    def __repr__(self) -> str:
        return f"Records({tuple(self)!r}, width={self.width})"


@dataclass(frozen=True)
class PartitionedDatabase:
    """Encoded records grouped by goal class, plus the property catalog.

    ``partitions[k]`` holds the record codes of goal k in input order, as
    ``Records`` of the catalog's width: given any sequences of ints, the
    constructor packs them. The sizes, the total and the flat ``records``
    are derived from it.
    """

    partitions: tuple[Records, ...]
    goal_labels: tuple[str, ...]
    catalog: PropertyCatalog
    skipped_rows: int = 0

    def __post_init__(self) -> None:
        if len(self.goal_labels) != len(self.partitions):
            raise DataError("one partition per goal label required")
        width = _width(len(self.catalog))
        parts = tuple(
            part if isinstance(part, Records) and part.width == width else Records.pack(part, width)
            for part in self.partitions
        )
        object.__setattr__(self, "partitions", parts)

    @cached_property
    def partition_sizes(self) -> tuple[int, ...]:
        return tuple(len(part) for part in self.partitions)

    @cached_property
    def total(self) -> int:
        return sum(self.partition_sizes)

    @property
    def records(self) -> Records:
        """Every goal's records, contiguously in goal order."""
        words = array("Q")
        for part in self.partitions:
            words.extend(part.words)
        return Records(words, _width(len(self.catalog)))

    @cached_property
    def bitmaps(self) -> tuple[tuple[int, ...], ...]:
        """Vertical layout: ``bitmaps[k][i]`` has bit j set when record j of
        goal k has property i. Built on first use, from ``partitions``."""
        return tuple(_bitmaps(part, len(self.catalog)) for part in self.partitions)


def set_bits(code: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative code, ascending."""
    while code:
        low = code & -code
        yield low.bit_length() - 1
        code ^= low


# Records per slice of ``_bitmaps``, a multiple of 8. On the 442,000-record
# tall_narrow table: 18.4 ms, 1.89 MB traced peak (1.66 MB of bitmaps); 2**16,
# 24.6 ms, 2.40 MB; whole goals, 21.5 ms, 3.28 MB (medians of 7, 2-vCPU host).
_SLICE = 1 << 14

# The exchange steps of an 8x8 bit transpose (Warren, Hacker's Delight, 7-3).
_EXCHANGES = tuple(
    (shift, int.from_bytes(mask.to_bytes(8, "little") * (_SLICE // 8), "little"))
    for shift, mask in ((7, 0x00AA00AA00AA00AA), (14, 0x0000CCCC0000CCCC), (28, 0x00000000F0F0F0F0))
)


def _bitmaps(part: Records, m: int) -> tuple[int, ...]:
    """One goal's property bitmaps, 8 properties at a time. Read as
    little-endian bytes (a swapped copy on a big-endian machine), byte c of
    each record in a slice, as one int, is a run of 64-bit words of 8 records
    x properties 8c..8c+7; transposed, byte k of a word packs property 8c+k."""
    words = part.words
    if sys.byteorder == "big":
        words = array("Q", words)
        words.byteswap()
    view, stride = memoryview(words).cast("B"), 8 * part.width
    bitmaps = []
    for c in range(-(-m // 8)):
        column = bytearray()
        for start in range(0, len(view), _SLICE * stride):
            # copied first: a strided memoryview reads about 4 times slower
            data = view[start : start + _SLICE * stride].tobytes()[c::stride]
            x = int.from_bytes(data, "little")
            for shift, mask in _EXCHANGES:
                t = (x ^ x >> shift) & mask
                x ^= t ^ t << shift
            column += x.to_bytes((len(data) + 7) // 8 * 8, "little")
        bitmaps += (int.from_bytes(column[k::8], "little") for k in range(8))
    return tuple(bitmaps[:m])


# str.isspace() characters other than "\n" and "\r": numpy's number parser
# strips them from a field's edges, where ``_plain`` rejects them.
_SPACES = (
    "\t\x0b\x0c\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2000\u2001\u2002\u2003\u2004"
    "\u2005\u2006\u2007\u2008\u2009\u200a\u2028\u2029\u202f\u205f\u3000"
)


def _plain_block(lines: Sequence[str]) -> bool:
    """Whether numpy's text reader may read these whole CSV lines: not where
    a line holds a ``"``, a NUL (which numpy drops from a label's end),
    whitespace at a field's edge (which numpy strips from a number) or more
    characters than ``csv.field_size_limit()`` (a CSV syntax error), nor
    when every line is blank (numpy warns that there is no data). Each test
    is a search for one character unless that character occurs:
    two-character searches cost more than the parse, and on ASCII text only
    the ASCII ``_SPACES``, ``\x85`` and ``\xa0`` cost a scan."""
    text = "".join(lines)
    if '"' in text or "\0" in text or not text.strip("\r\n"):
        return False
    for space in _SPACES:
        if space in text and (
            text.startswith(space)
            or text.endswith(space)
            or any(
                edge in text
                for edge in (space + ",", "," + space, space + "\n", space + "\r", "\n" + space)
            )
        ):
            return False
    limit = csv.field_size_limit()
    return len(text) <= limit or max(map(len, lines)) <= limit


def _lookup(bits: Sequence[int], width: int):
    """The one-bit codes of bit indices ``bits`` as a numpy matrix of
    ``width`` uint64 limbs a row, set a bit at a time: ``_limbs`` of each
    code makes labels x width ints (15,000 labels at width 235: 0.02 s,
    against 0.7 s that way, on a 2-vCPU host)."""
    limbs, shifts = zip(*(divmod(bit, _LIMB_BITS) for bit in bits))
    table = _np.zeros((len(bits), width), _np.uint64)
    table[_np.arange(len(bits)), limbs] = _np.array([1 << shift for shift in shifts], _np.uint64)
    return table


class _Encoder:
    """The goal partitions of the rows encoded so far, in input order. Rows
    are numbered from 1 as they arrive, a row at a time from the cell path
    or a block at a time from the block path."""

    def __init__(self, descriptors: Sequence[ColumnDescriptor], skip_missing: bool) -> None:
        target = validate_descriptors(descriptors)
        self.goal_labels = tuple(str(v) for v in target.values)
        self.catalog = build_catalog(descriptors)
        self.columns = _compile(descriptors, self.catalog)
        self.width = width = _width(len(self.catalog))
        self.tables = self.dtype = None
        if _np is not None:
            # per column, for add_block: the bin boundaries as an array, the
            # label dict, and the category -> code lookup table, one row of
            # uint64 limbs per category (None for the target)
            self.tables = [
                (
                    None if bounds is None else _np.array(bounds, dtype=float),
                    labels,
                    None if bits is None else _lookup(bits, width),
                )
                for _, bounds, labels, bits in self.columns
            ]
            # one character over the longest label: a longer cell that numpy
            # cuts short can never equal a label
            self.dtype = _np.dtype([
                (f"c{i}", "f8" if d.kind == CONTINUOUS else f"U{max(map(len, d.values)) + 1}")
                for i, d in enumerate(descriptors)
            ])
        self.skip_missing = skip_missing
        self.buckets = [array("Q") for _ in self.goal_labels]  # each goal's words
        self.rows = 0
        self.skipped = 0

    def add_row(self, cells: Sequence) -> None:
        """Encode one row of cells; a bad row is named by its number."""
        self.rows += 1
        try:
            code, goal = _encode(cells, self.columns)
        except DataError as exc:
            if self.skip_missing and isinstance(exc, MissingValueError):
                self.skipped += 1
                return
            raise DataError(f"row {self.rows}: {exc}") from exc
        self.buckets[goal].extend(_limbs(code, self.width))

    def add_block(self, lines: Sequence[str]) -> bool:
        """Parse plain CSV lines (see ``_plain_block``) with numpy's text
        reader in one call and encode them a column at a time into an
        (n, L) matrix of limbs, whose rows go to their goal's words as raw
        bytes; numpy skips blank lines, as ``csv.reader`` does. Adds nothing
        and returns ``False`` where a line does not parse, or a number is
        non-finite or a label unknown (``""`` is never a label): then only
        the cell path can name the bad row."""
        try:
            table = _np.loadtxt(lines, dtype=self.dtype, delimiter=",", comments=None, ndmin=1)
        except ValueError:  # a row of another width, an empty or bad number
            return False
        code = _np.zeros((len(table), self.width), _np.uint64)
        goals = None
        for name, (bounds, labels, lookup) in zip(self.dtype.names, self.tables):
            column = table[name]
            if bounds is not None:
                if not _np.isfinite(column).all():
                    return False
                # side="right" is bisect_right: a boundary value goes to the bin above
                category = _np.searchsorted(bounds, column, side="right")
            else:
                try:
                    category = _np.fromiter(map(labels.get, column.tolist()), _np.intp, len(column))
                except TypeError:  # an unknown label
                    return False
            if lookup is None:
                goals = category
            else:
                code |= lookup.take(category, axis=0)
        for k, bucket in enumerate(self.buckets):
            bucket.frombytes(code.compress(goals == k, axis=0).view(_np.uint8))
        self.rows += len(table)
        return True

    def database(self) -> PartitionedDatabase:
        if not any(self.buckets):
            raise DataError("no records")
        return PartitionedDatabase(
            partitions=tuple(Records(bucket, self.width) for bucket in self.buckets),
            goal_labels=self.goal_labels,
            catalog=self.catalog,
            skipped_rows=self.skipped,
        )


def preprocess(
    rows: Iterable[Mapping[str, str]],
    descriptors: Sequence[ColumnDescriptor],
    *,
    skip_missing: bool = False,
) -> PartitionedDatabase:
    """Encode each row with the compiled description and append its code to
    its goal's partition, keeping input order within a goal. Rows are laid
    out as ``csv.DictReader`` yields them: extra cells under the key
    ``None`` make a row an error, also under ``skip_missing``.

    Each row is encoded with ``_encode`` before the next is read, so a bad
    row is reported before an error that reading ``rows`` raises later (such
    as a CSV syntax error from ``read_table``), as ``preprocess_csv``
    reports it.

    Rows with missing cells are a hard error naming the row and column
    unless ``skip_missing`` is set, in which case they are dropped and
    counted in ``skipped_rows``. A description without input columns fails
    before any row is read.
    """
    encoder = _Encoder(descriptors, skip_missing)
    names = [d.name for d in descriptors]
    for row in rows:
        encoder.add_row(_row_cells(row, names))
    return encoder.database()


def _open_input(path, **kwargs):
    try:
        return open(path, **kwargs)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from exc


def _read_text(path) -> str:
    with _open_input(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as exc:
            raise DataError(f"cannot read {path}: {exc}") from exc


def _open_csv(path):
    """The CSV as text: UTF-8, after a byte order mark if there is one, with
    line ends kept as they are for ``csv.reader``. An undecodable byte reads
    as a lone surrogate, a cell the encoder rejects naming row and column."""
    return _open_input(path, newline="", encoding="utf-8-sig", errors="surrogateescape")


@contextmanager
def _line_errors(reader, offset: int = 0):
    """Name a CSV syntax error by its line in the file: ``reader`` has read
    ``reader.line_num`` lines after the first ``offset``."""
    try:
        yield
    except csv.Error as exc:
        raise DataError(f"line {offset + reader.line_num}: {exc}") from exc


def _check_header(reader, descriptors: Sequence[ColumnDescriptor]) -> None:
    expected = [d.name for d in descriptors]
    with _line_errors(reader):
        header = next(reader, None)
    if header != expected:
        raise DataError(f"CSV header {header} does not match description columns {expected}")


def read_table(path, descriptors: Sequence[ColumnDescriptor]) -> Iterator[dict[str, str]]:
    """Stream the CSV's rows as a ``csv.DictReader`` over the checked header
    yields them, decoded as ``preprocess_csv`` decodes them: a long row's
    extra cells are under the key ``None``, which ``preprocess`` rejects,
    and a short row's absent cells are ``None``. A syntax error names its line."""
    with _open_csv(path) as handle:
        rows = csv.DictReader(handle, [d.name for d in descriptors])
        _check_header(rows.reader, descriptors)
        with _line_errors(rows.reader):  # DictReader.line_num lags a row behind
            yield from rows


def preprocess_csv(db_path, dbd_path, *, skip_missing: bool = False) -> PartitionedDatabase:
    """Read a description file and a CSV table, returning the encoded database.

    After the header check, the data lines are read in blocks of about
    64k characters. With numpy present, a plain block (see ``_plain_block``)
    is parsed by ``numpy.loadtxt`` in one call, its numbers binned with
    ``searchsorted`` and its labels looked up whole. Every other block, one
    that numpy refuses, and one with a non-finite number or an unknown label
    goes to the cell path: ``csv.reader`` reads its rows one at a time,
    going past the block's end only to close a quoted field, and ``_encode``
    encodes each, as ``preprocess`` does. So the accept set, the error text
    and the ``skipped_rows`` count are the same whichever path a row takes,
    and an error names the first bad line of the file: a bad row by its
    number, a CSV syntax error (such as a field over
    ``csv.field_size_limit()``) by its line. Blank lines are dropped.
    """
    descriptors = parse_description(_read_text(dbd_path))
    encoder = _Encoder(descriptors, skip_missing)
    with _open_csv(db_path) as handle:
        reader = csv.reader(handle)
        _check_header(reader, descriptors)
        line = reader.line_num
        while block := handle.readlines(_BLOCK_CHARS):
            if encoder.dtype is not None and _plain_block(block) and encoder.add_block(block):
                line += len(block)
                continue
            # the block's rows, and the lines after it that close a quoted
            # field opened in it
            reader = csv.reader(chain(block, handle))
            with _line_errors(reader, line):
                while reader.line_num < len(block):
                    if cells := next(reader):
                        encoder.add_row(cells)
            line += reader.line_num
    return encoder.database()


def catalog_to_list(catalog: PropertyCatalog) -> list[dict]:
    """JSON-ready catalog, one object per property in bit order, keyed in
    ``Property``'s field order."""
    return [asdict(p) for p in catalog]


def database_to_dict(pdb: PartitionedDatabase) -> dict:
    """JSON-ready dump; records are decimal strings to survive any reader."""
    try:
        records = [str(r) for r in pdb.records]
    except ValueError as exc:
        bound = 10 ** sys.get_int_max_str_digits()
        index = next(i for i, r in enumerate(pdb.records) if r >= bound)
        raise DataError(f"cannot dump record {index}: {exc}") from None
    return {
        "goal_labels": list(pdb.goal_labels),
        "partition_sizes": list(pdb.partition_sizes),
        "catalog": catalog_to_list(pdb.catalog),
        "records": records,
    }


def dump_database(pdb: PartitionedDatabase, path) -> None:
    text = json.dumps(database_to_dict(pdb), indent=2) + "\n"  # a failure leaves the file as it was
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        raise DataError(f"cannot write {path}: {exc.strerror}") from exc


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
