"""Write chunks of a workload's table with ``goalrules.datasets.synthetic_tables``.

``run.py`` starts this file in a few processes at once, each with its own
chunk indices:

    python3 perfbench/generate.py <src dir> <workload> <seed> <out dir> <chunk index>...

Chunk ``i`` holds ``CHUNK_ROWS`` rows (fewer for the last) made with the
seed ``seed * 100 + i`` and goes to ``<out dir>/chunk<i>.csv`` without a
header. The table description goes to ``<out dir>/table.dbd.json``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from workloads import CHUNK_ROWS, WORKLOADS


def write_chunk(name: str, seed: int, i: int, directory: Path) -> None:
    from goalrules.datasets import synthetic_tables

    spec = WORKLOADS[name]
    rows, description = synthetic_tables(
        rows=min(CHUNK_ROWS, spec.rows - i * CHUNK_ROWS),
        continuous=spec.continuous,
        categorical=spec.categorical,
        seed=seed * 100 + i,
    )
    names = [c["name"] for c in description["columns"]]
    with open(directory / f"chunk{i}.csv", "w") as handle:
        handle.writelines(",".join(row[n] for n in names) + "\n" for row in rows)
    if i == 0:
        with open(directory / "table.dbd.json", "w") as handle:
            json.dump(description, handle, indent=2)


if __name__ == "__main__":
    src, name, seed, directory, *chunks = sys.argv[1:]
    sys.path.insert(0, src)
    for i in chunks:
        write_chunk(name, int(seed), int(i), Path(directory))
