"""CSV -> rules benchmark for goalrules.

Run from the root of a source tree of the repository:

    python3 perfbench/run.py --workload tall_narrow --seed 1 --seconds 20 --trace 0

``--trace 0`` times whole ``goalrules mine --negative --format json``
processes from outside and prints the end-to-end metrics. ``--trace 1``
runs ``layers.py``, which calls each module's public functions and times
them, and prints the per-layer metrics. ``--workload all`` runs every
workload in turn. Every output is checked by ``check.py``, which shares no code with
the program. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import check
from workloads import CHUNK_ROWS, WORKLOADS, mining_config

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench-cache"
CACHE_KEEP = 12  # cached inputs kept per workload, most recently used first
GENERATORS = 2  # processes generating table chunks

# The child imports the package from this source tree and nothing else.
LAUNCH = (
    "import sys; sys.path.insert(0, sys.argv.pop(1)); "
    "from goalrules.cli import run; sys.argv[0] = 'goalrules'; run()"
)
# The program runs with Python's default, buffered stdout whatever the
# caller's environment: with PYTHONUNBUFFERED=1 every token json.dump writes
# becomes a write(2), and a many_rules_replicated round took 11.5 s, not 7 s.
CHILD_ENV = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}

# Runs one command and reports its wall time, exit code and rusage peak RSS.
# Linux carries the spawning process's peak RSS over into the child's
# ru_maxrss at exec, so the command is spawned from this small interpreter
# and not from the benchmark process, whose own peak would mask the child's.
SPAWN = """
import os, subprocess, sys, time
with open(sys.argv[1], "wb") as out, open(sys.argv[2], "wb") as err:
    started = time.perf_counter()
    child = subprocess.Popen(sys.argv[3:], stdout=out, stderr=err)
    _, status, usage = os.wait4(child.pid, 0)
    wall = time.perf_counter() - started
print(wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@dataclass
class Inputs:
    csv: Path
    dbd: Path
    base_csv: Path  # the table before replication (the same file when not replicated)


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)

    def record(self, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.failed += 1
            self.errors.extend(errors[:5])


def _log(message: str) -> None:
    print(message, file=sys.stderr, flush=True)


# ---------------------------------------------------------------- inputs


def make_inputs(name: str, seed: int) -> Inputs:
    """Generate the workload's table for ``seed``, or reuse the cached copy.

    The cache key covers the seed, the workload's shape and the generators'
    sources, so a change to ``synthetic_tables`` regenerates.
    """
    sources = (SRC / "goalrules" / "datasets.py").read_bytes() + Path(__file__).with_name("generate.py").read_bytes()
    key = hashlib.sha256(sources + repr((WORKLOADS[name], CHUNK_ROWS, seed)).encode()).hexdigest()[:16]
    entry = CACHE / f"{name}-seed{seed}-{key}"
    inputs = Inputs(entry / "table.csv", entry / "table.dbd.json", entry / "base.csv")
    if entry.is_dir():
        entry.touch()
        return inputs
    tmp = CACHE / f".tmp-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    try:
        _generate(name, seed, tmp)
        tmp.rename(entry)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    stale = sorted(CACHE.glob(f"{name}-seed*"), key=lambda p: p.stat().st_mtime, reverse=True)
    for old in stale[CACHE_KEEP:]:
        shutil.rmtree(old, ignore_errors=True)
    return inputs


def _generate(name: str, seed: int, directory: Path) -> None:
    """Run ``generate.py`` in ``GENERATORS`` processes, then join the chunks."""
    chunks = range(-(-WORKLOADS[name].rows // CHUNK_ROWS))
    script = Path(__file__).with_name("generate.py")
    procs = [
        subprocess.Popen([sys.executable, str(script), str(SRC), name, str(seed), str(directory),
                          *map(str, chunks[k::GENERATORS])], cwd=ROOT)
        for k in range(min(GENERATORS, len(chunks)))
    ]
    try:
        codes = [p.wait() for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    if any(codes):
        raise RuntimeError(f"generate.py exited with {codes}")
    with open(directory / "table.dbd.json") as handle:
        header = ",".join(c["name"] for c in json.load(handle)["columns"]) + "\n"
    body = "".join((directory / f"chunk{i}.csv").read_text() for i in chunks)
    for i in chunks:
        (directory / f"chunk{i}.csv").unlink()
    (directory / "base.csv").write_text(header + body)
    if WORKLOADS[name].replicate == 1:
        os.link(directory / "base.csv", directory / "table.csv")
    else:
        (directory / "table.csv").write_text(header + body * WORKLOADS[name].replicate)


# ---------------------------------------------------------------- checking


class Verifier:
    """Checks outputs of one workload: the first distinct output in full,
    every later one for equality with it apart from the two timing fields."""

    def __init__(self, name: str, inputs: Inputs):
        self.name = name
        self.inputs = inputs
        with open(inputs.dbd) as handle:
            self.table = check.load_table(inputs.csv, json.load(handle))
        self.reference: dict | None = None
        self.reference_errors: list[str] = []

    def __call__(self, doc: dict) -> list[str]:
        if self.reference is None:
            self.reference = doc
            spec = WORKLOADS[self.name]
            asked = {"min_corr": spec.min_corr, "max_premise_len": spec.max_premise_len}
            if any(doc["config"][k] != v for k, v in asked.items()):
                self.reference_errors = [f"config {doc['config']} is not the requested {asked}"]
            else:
                self.reference_errors = check.check_output(self.table, doc) + self._base_errors(doc)
            return self.reference_errors
        if _stable_view(doc) != _stable_view(self.reference):
            return ["output differs from the first run of the same input"]
        return self.reference_errors

    def _base_errors(self, doc: dict) -> list[str]:
        """On a replicated table: the rules equal those mined from the base
        table, with every count multiplied and bit-identical criteria."""
        factor = WORKLOADS[self.name].replicate
        if factor == 1:
            return []
        from goalrules.engine import mine, mine_negative
        from goalrules.preprocess import preprocess_csv

        pdb = preprocess_csv(self.inputs.base_csv, self.inputs.dbd)
        config = mining_config(self.name)
        rules = mine(pdb, config).all_positive()
        rules += [r for group in mine_negative(pdb, config) for r in group]
        names = pdb.catalog.names()
        want = [
            (
                [n for i, n in enumerate(names) if r.premise >> i & 1],
                pdb.goal_labels[r.goal],
                r.sup_k * factor,
                r.sup * factor,
                r.metrics.f_g,
                r.metrics.f_all,
                r.metrics.confidence,
                r.metrics.lift,
                r.metrics.correlation,
                r.metrics.quality,
                r.final,
                r.negative,
            )
            for r in rules
        ]
        keys = ("premise", "goal", "sup_k", "sup", "f_g", "f_all", "conf", "lift", "corr", "q", "final", "negative")
        got = [tuple(r[k] for k in keys) for r in doc["rules"]]
        if got == want:
            return []
        first = next((i for i, (g, w) in enumerate(zip(got, want)) if g != w), min(len(got), len(want)))
        return [f"x{factor} table: rule {first} differs from the base table's rules x{factor}"]


def _stable_view(doc: dict) -> dict:
    report = {k: v for k, v in doc["report"].items() if k not in ("preprocess_seconds", "mine_seconds")}
    return {**doc, "report": report}


# ---------------------------------------------------------------- end to end


@dataclass
class Round:
    wall_s: float
    peak_rss_mb: float
    doc: dict | None
    error: str | None


def mine_process(name: str, inputs: Inputs, out_path: Path) -> Round:
    """One fresh single-threaded ``goalrules mine`` process, output to a file,
    timed from before it starts to after it is reaped."""
    argv = [
        sys.executable, "-c", LAUNCH, str(SRC), "mine",
        "--db", str(inputs.csv), "--dbd", str(inputs.dbd),
        "--negative", "--format", "json", "--threads", "1",
        *WORKLOADS[name].mine_args(),
    ]
    err_path = out_path.with_suffix(".stderr")
    spawner = subprocess.Popen(
        [sys.executable, "-c", SPAWN, str(out_path), str(err_path), *argv],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True, env=CHILD_ENV,
    )
    try:
        wall, code, max_kib = spawner.communicate()[0].split()
    except BaseException:
        os.killpg(spawner.pid, signal.SIGKILL)
        spawner.wait()
        raise
    wall, code, rss = float(wall), int(code), int(max_kib) / 1024  # ru_maxrss is in KiB
    if code != 0:
        return Round(wall, rss, None, f"exit {code}: {err_path.read_text()[-500:]}")
    with open(out_path) as handle:
        return Round(wall, rss, json.load(handle), None)


def run_end_to_end(name: str, inputs: Inputs, seconds: float, work: Path) -> dict:
    """Mine processes one after another until ``seconds`` of them have run;
    each metric is the median over those processes. Each output is checked
    between processes, outside the timed span, and then dropped."""
    verify = Verifier(name, inputs)
    tally = Tally()
    samples: dict[str, list[float]] = {"wall_s": [], "setup_s": [], "mine_s": [], "peak_rss_mb": []}
    measured = 0.0
    while tally.attempted == 0 or measured < seconds:
        r = mine_process(name, inputs, work / "out.json")
        measured += r.wall_s
        tally.record([r.error] if r.error else verify(r.doc))
        if r.doc is None:
            continue
        samples["wall_s"].append(r.wall_s)
        samples["setup_s"].append(r.doc["report"]["preprocess_seconds"])
        samples["mine_s"].append(r.doc["report"]["mine_seconds"])
        samples["peak_rss_mb"].append(r.peak_rss_mb)
    if not samples["wall_s"]:
        raise RuntimeError("no mine process finished")
    units = {"wall_s": "s", "setup_s": "s", "mine_s": "s", "peak_rss_mb": "MB"}
    return _result(tally, {k: (statistics.median(v), units[k]) for k, v in samples.items()})


# ---------------------------------------------------------------- traced


def run_traced(name: str, inputs: Inputs, work: Path) -> dict:
    """One untraced mine process, then one fresh process running layers.py;
    both outputs are checked. The overhead compares the traced spans that
    make up a mine command with the untraced process's wall time."""
    verify = Verifier(name, inputs)
    tally = Tally()
    untraced = mine_process(name, inputs, work / "untraced.json")
    tally.record([untraced.error] if untraced.error else verify(untraced.doc))

    out_path = work / "traced.json"
    layers = subprocess.run(
        [sys.executable, str(Path(__file__).with_name("layers.py")), str(SRC), name,
         str(inputs.csv), str(inputs.dbd), str(out_path)],
        stdout=subprocess.PIPE, text=True, cwd=ROOT, check=True, env=CHILD_ENV,
    )
    m = {k: tuple(v) for k, v in json.loads(layers.stdout).items()}
    with open(out_path) as handle:
        doc = json.load(handle)
    tally.record(verify(doc))
    m["cli.output_mb"] = (out_path.stat().st_size / 1e6, "MB")
    tried = check.premises_tried(doc)
    positive_s = m["engine.positive_s"][0]
    m["engine.premises_tried"] = (tried, "count")
    m["engine.kept_ratio"] = (sum(1 for r in doc["rules"] if not r["negative"]) / tried, "ratio")
    m["engine.us_per_premise"] = (positive_s * 1e6 / tried, "us")
    spans = sum(m[k][0] for k in ("init.import_s", "preprocess.read_s", "preprocess.encode_s",
                                  "engine.positive_s", "engine.negative_s", "cli.emit_s"))
    m["trace.overhead_pct"] = (100 * (spans / untraced.wall_s - 1), "%")
    return _result(tally, m)


# ---------------------------------------------------------------- main


def _result(tally: Tally, metrics: dict[str, tuple[float, str]]) -> dict:
    for line in tally.errors:
        _log(f"check failed: {line}")
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    inputs = make_inputs(name, seed)
    _log(f"{name}: inputs ready in {time.perf_counter() - started:.1f} s")
    work = CACHE / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        if trace:
            return run_traced(name, inputs, work)
        return run_end_to_end(name, inputs, seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="mine-process time to measure per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "goalrules" / "cli.py").is_file():
        _log(f"no goalrules sources under {SRC}: run from a source tree of the repository")
        return 2
    sys.path.insert(0, str(SRC))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        for metric, v in result["metrics"].items():
            _log(f"{name}: {metric} = {v['value']:.6g} {v['unit']}")
        _log(f"{name}: attempted {result['attempted']}, failed {result['failed']}")
        if args.workload == "all":
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
