"""The whole CSV -> rules path against the benchmark's independent checker.

``tests/oracle.py`` is compared with the engine on tables that are already
encoded. ``perfbench/check.py`` imports nothing from ``goalrules``: it
re-bins the raw CSV from the description and re-derives the search from
exact counts. Here it checks ``goalrules mine --negative --format json`` on
seeded ``synthetic_tables`` shapes and mining knobs.
"""

import json
import random
import sys
from pathlib import Path

import pytest

from goalrules.cli import main
from goalrules.datasets import save_tables, synthetic_tables

TABLES = 100


@pytest.fixture(scope="module")
def check():
    pytest.importorskip("numpy", exc_type=ImportError)  # the checker bins with numpy
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
    try:
        import check
    finally:
        sys.path.pop(0)
    return check


def draw(rng: random.Random) -> tuple[dict, int, bool, list[str]]:
    """A table shape, how many times its data lines are written, whether its
    lines end in a lone \\r, and the knobs of ``goalrules mine``. Premise
    lengths stay capped at 3: uncapped, 24 columns at ``--min-corr 0.1`` ran
    out of memory."""
    continuous = rng.randint(0, 24)
    shape = {
        "rows": rng.randint(20, 500),
        "continuous": continuous,
        "categorical": rng.randint(0 if continuous else 1, 3),
        "classes": rng.randint(2, 4),
        "goals": rng.randint(2, 4),
        "seed": rng.randrange(1 << 30),
    }
    knobs = [
        "--min-corr", f"{rng.uniform(0.1, 0.5):.3f}",
        "--min-freq", f"{rng.uniform(0, 0.05):.4f}",
        "--corr-stop", rng.choice(["0.9", "1.0"]),
        "--neg-corr", rng.choice(["-0.35", "-0.1"]),
        "--max-premise-len", str(rng.randint(1, 3)),
    ]
    return shape, rng.choice([1, 1, 2, 3]), rng.random() < 0.2, knobs


def test_mine_output_passes_the_checker(check, tmp_path, capsys):
    rng = random.Random(2024)
    widest, written, lone_cr_seen = 0, set(), False
    for case in range(TABLES):
        shape, copies, lone_cr, knobs = draw(rng)
        rows, description = synthetic_tables(**shape)
        db, dbd = tmp_path / f"t{case}.csv", tmp_path / f"t{case}.dbd.json"
        save_tables(rows * copies, description, db, dbd)
        if lone_cr:  # save_tables ends lines in \r\n
            db.write_bytes(db.read_bytes().replace(b"\n", b""))
        assert main(["mine", "--db", str(db), "--dbd", str(dbd), "--negative", "--format", "json",
                     *knobs]) == 0
        doc = json.loads(capsys.readouterr().out)
        table = check.load_table(db, description)
        assert check.check_output(table, doc) == [], (shape, copies, lone_cr, knobs)
        widest, lone_cr_seen = max(widest, len(table.names)), lone_cr_seen or lone_cr
        written.add(copies)
    # past one 64-bit limb, through the multiset root, and lone \r line ends
    assert widest > 64 and written == {1, 2, 3} and lone_cr_seen
