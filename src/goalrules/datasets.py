"""Bundled demo data and synthetic table generation.

The demo table is the scikit-learn diabetes study: ten baseline measurements
per patient and a continuous progression score that gets tertile-binned into
three goal classes. Feature bins are tertiles as well, so every class is
roughly a third of the records.
"""

from __future__ import annotations

import csv
import json
import random
from statistics import quantiles
from typing import Sequence

from .errors import DataError
from .preprocess import (
    CATEGORICAL,
    CONTINUOUS,
    TARGET,
    ColumnDescriptor,
    PartitionedDatabase,
    build_catalog,
    description_document,
    parse_description,
    preprocess,
)

_DIABETES_FULL_NAMES = {
    "age": "age in years",
    "sex": "sex",
    "bmi": "body mass index",
    "bp": "average blood pressure",
    "s1": "total serum cholesterol",
    "s2": "low-density lipoproteins",
    "s3": "high-density lipoproteins",
    "s4": "total cholesterol / HDL",
    "s5": "log of serum triglycerides",
    "s6": "blood sugar level",
}


def tertile_boundaries(values: Sequence[float]) -> list[float]:
    """Two cut points splitting the values into near-equal thirds."""
    cuts = quantiles(values, n=3)
    if not cuts[0] < cuts[1]:
        raise ValueError("values are too concentrated for tertile bins")
    return [float(c) for c in cuts]


def diabetes_tables() -> tuple[list[dict[str, str]], dict]:
    """The diabetes table as raw CSV-style rows plus its description document.

    All measurements except sex become 3-bin continuous columns; sex is a
    two-label categorical; the progression target is tertile-binned into
    Goal0 (low) through Goal2 (high).
    """
    try:
        from sklearn.datasets import load_diabetes
    except ImportError as exc:  # pragma: no cover - exercised only without sklearn
        raise RuntimeError(
            "scikit-learn is required for the diabetes demo data; "
            "install the 'demo' extra"
        ) from exc
    bunch = load_diabetes()
    feature_names = list(bunch.feature_names)
    data = [[float(v) for v in row] for row in bunch.data]
    target = [float(v) for v in bunch.target]

    sex_column = feature_names.index("sex")
    sex_values = sorted({row[sex_column] for row in data})
    sex_labels = {value: str(i) for i, value in enumerate(sex_values)}

    goal_cuts = tertile_boundaries(target)
    goal_labels = ("Goal0", "Goal1", "Goal2")

    columns = []
    for j, name in enumerate(feature_names):
        if j == sex_column:
            kind, classes, values = CATEGORICAL, len(sex_values), tuple(sex_labels.values())
        else:
            cuts = tertile_boundaries([row[j] for row in data])
            kind, classes, values = CONTINUOUS, 3, tuple(cuts)
        columns.append(
            ColumnDescriptor(name, kind, name.upper(), classes, values, _DIABETES_FULL_NAMES[name])
        )
    progression = "disease progression one year after baseline"
    columns.append(ColumnDescriptor("progression", TARGET, "Y", 3, goal_labels, progression))

    rows = []
    for row, y in zip(data, target):
        cells = {}
        for j, name in enumerate(feature_names):
            cells[name] = sex_labels[row[j]] if j == sex_column else repr(row[j])
        goal_bin = sum(y >= cut for cut in goal_cuts)
        cells["progression"] = goal_labels[goal_bin]
        rows.append(cells)
    return rows, description_document(columns)


def diabetes_database() -> PartitionedDatabase:
    """The diabetes table, encoded and partitioned."""
    rows, description = diabetes_tables()
    descriptors = parse_description(json.dumps(description))
    return preprocess(rows, descriptors)


def save_tables(rows: Sequence[dict], description: dict, db_path, dbd_path) -> None:
    """Write rows as CSV and the description as JSON."""
    fieldnames = [c["name"] for c in description["columns"]]
    with open(db_path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.DictWriter(handle, fieldnames=fieldnames)
        writer.writeheader()
        writer.writerows(rows)
    with open(dbd_path, "w", encoding="utf-8") as handle:
        json.dump(description, handle, indent=2)
        handle.write("\n")


def synthetic_tables(
    rows: int = 300,
    continuous: int = 3,
    categorical: int = 1,
    classes: int = 3,
    goals: int = 3,
    seed: int = 0,
) -> tuple[list[dict[str, str]], dict]:
    """Random table whose columns lean toward the row's goal class, so the
    miner has something to find. Deterministic for a given seed."""
    if rows < 1 or continuous < 0 or categorical < 0 or continuous + categorical < 1:
        raise ValueError("need at least one input column and one row")
    if classes < 2 or goals < 2:
        raise ValueError("classes and goals must be at least 2")
    rng = random.Random(seed)
    bounds = tuple(i / classes for i in range(1, classes))
    labels = tuple(f"L{i}" for i in range(classes))
    goal_labels = tuple(f"g{i}" for i in range(goals))
    columns = []
    for j in range(continuous):
        full_name = f"continuous feature {j}"
        columns.append(ColumnDescriptor(f"c{j}", CONTINUOUS, f"C{j}", classes, bounds, full_name))
    for j in range(categorical):
        full_name = f"categorical feature {j}"
        columns.append(ColumnDescriptor(f"d{j}", CATEGORICAL, f"D{j}", classes, labels, full_name))
    columns.append(ColumnDescriptor("outcome", TARGET, "G", goals, goal_labels, "synthetic outcome"))
    try:
        build_catalog(columns)
    except DataError as exc:  # D1 + category 10 and D11 + category 0 are both D110
        raise ValueError(f"{exc}: two columns' short names and category numbers spell it") from None

    table = []
    for _ in range(rows):
        goal = rng.randrange(goals)
        cells = {}
        center = (goal + 0.5) / goals
        for j in range(continuous):
            if rng.random() < 0.6:
                value = min(1.0, max(0.0, rng.uniform(center - 0.25, center + 0.25)))
            else:
                value = rng.random()
            cells[f"c{j}"] = f"{value:.6f}"
        for j in range(categorical):
            if rng.random() < 0.5:
                cells[f"d{j}"] = f"L{goal % classes}"
            else:
                cells[f"d{j}"] = f"L{rng.randrange(classes)}"
        cells["outcome"] = goal_labels[goal]
        table.append(cells)
    return table, description_document(columns)
