"""Per-layer spans of one CSV -> rules run, timed here around the public
functions of each goalrules module.

``run.py --trace 1`` starts this file as its own process, so that it begins
as fresh as the untraced ``goalrules mine`` process it is compared with:

    python3 perfbench/layers.py <src dir> <workload> <table.csv> <table.dbd.json> <out.json>

It writes the ``mine --format json`` output of an in-process
``goalrules.cli.main`` call to ``out.json`` and prints one JSON object,
metric name -> [value, unit].
"""

from __future__ import annotations

import contextlib
import json
import statistics
import sys
import time

SUPPORT_SAMPLE = 200  # mined premises whose support scan is timed one by one


def _timed_rows(rows, spent: list[float]):
    """Yield ``rows``, adding the time spent producing each one to spent[0]."""
    iterator = iter(rows)
    while True:
        started = time.perf_counter()
        try:
            row = next(iterator)
        except StopIteration:
            spent[0] += time.perf_counter() - started
            return
        spent[0] += time.perf_counter() - started
        yield row


def trace_layers(name: str, csv_path: str, dbd_path: str, out_path: str) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    started = time.perf_counter()
    from goalrules import cli

    m["init.import_s"] = (time.perf_counter() - started, "s")
    from goalrules.engine import create_candidates, mine, mine_negative
    from goalrules.metrics import compute_metrics, support
    from goalrules.preprocess import parse_description, preprocess, read_table
    from workloads import WORKLOADS, mining_config

    config = mining_config(name)
    with open(dbd_path) as handle:
        descriptors = parse_description(handle.read())

    # preprocess: CSV read is the time spent pulling rows out of read_table,
    # encoding and partitioning is the rest of preprocess()
    read = [0.0]
    started = time.perf_counter()
    pdb = preprocess(_timed_rows(read_table(csv_path, descriptors), read), descriptors)
    preprocess_s = time.perf_counter() - started
    encode_s = preprocess_s - read[0]
    m["preprocess.read_s"] = (read[0], "s")
    m["preprocess.encode_s"] = (encode_s, "s")
    m["preprocess.ns_per_cell"] = (encode_s * 1e9 / (pdb.total * len(descriptors)), "ns")

    # metrics: the first scan builds the lazy scan view
    started = time.perf_counter()
    support(1, pdb)
    m["metrics.first_support_s"] = (time.perf_counter() - started, "s")

    # engine
    started = time.perf_counter()
    create_candidates(pdb, config)
    m["engine.candidates_s"] = (time.perf_counter() - started, "s")
    started = time.perf_counter()
    ruleset = mine(pdb, config)
    positive_s = time.perf_counter() - started
    started = time.perf_counter()
    negative = mine_negative(pdb, config)
    negative_s = time.perf_counter() - started
    m["engine.positive_s"] = (positive_s, "s")
    m["engine.negative_s"] = (negative_s, "s")

    rules = ruleset.all_positive()
    sample = [rules[i * len(rules) // SUPPORT_SAMPLE].premise for i in range(min(SUPPORT_SAMPLE, len(rules)))]
    times = []
    for premise in sample:
        started = time.perf_counter()
        support(premise, pdb)
        times.append(time.perf_counter() - started)
    support_us = statistics.median(times) * 1e6
    m["metrics.support_us"] = (support_us, "us")
    m["metrics.scan_ns_per_record"] = (support_us * 1e3 / pdb.total, "ns")

    sizes, total, weights = pdb.partition_sizes, pdb.total, config.weights
    started = time.perf_counter()
    for r in rules:
        compute_metrics(r.sup_k, r.sup, sizes[r.goal], total, weights)
    m["metrics.criteria_us"] = ((time.perf_counter() - started) * 1e6 / max(1, len(rules)), "us")

    # cli: the JSON document alone, then the whole command minus its two
    # report spans, which leaves argument handling, the document and writing
    ruleset = ruleset.with_negative(negative)
    report = cli.RunReport(
        dataset=csv_path,
        records=pdb.total,
        partition_sizes=list(pdb.partition_sizes),
        threads=1,
        preprocess_seconds=preprocess_s,
        mine_seconds=positive_s + negative_s,
        positive_counts=ruleset.positive_counts(),
        negative_counts=ruleset.negative_counts(),
    )
    started = time.perf_counter()
    cli.mining_output_json(ruleset, pdb, config, report)
    m["cli.document_s"] = (time.perf_counter() - started, "s")
    del pdb, ruleset, negative, rules, sample

    argv = [
        "mine", "--db", csv_path, "--dbd", dbd_path,
        "--negative", "--format", "json", "--threads", "1", *WORKLOADS[name].mine_args(),
    ]
    with open(out_path, "w") as out, contextlib.redirect_stdout(out):
        started = time.perf_counter()
        code = cli.main(argv)
        main_s = time.perf_counter() - started
    if code != 0:
        raise RuntimeError(f"goalrules.cli.main returned {code}")
    with open(out_path) as handle:
        spans = json.load(handle)["report"]
    m["cli.emit_s"] = (main_s - spans["preprocess_seconds"] - spans["mine_seconds"], "s")
    return m


if __name__ == "__main__":
    src, name, csv_path, dbd_path, out_path = sys.argv[1:]
    sys.path.insert(0, src)
    print(json.dumps(trace_layers(name, csv_path, dbd_path, out_path)))
