"""Command-line interface: encode tables, mine rules, and generate synthetic
demo data.

Exit codes: 0 success, 2 usage or configuration error, or standard output
closed before the run, 3 data error, 141 standard output closed early by
its reader. With standard error closed, what would go there (an error line,
or the report of ``mine --format csv`` and of ``preprocess`` without
``--out``) is dropped and the status kept.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from typing import Iterator, Sequence, TextIO

from .datasets import save_tables, synthetic_tables
from .engine import MiningConfig, Rule, RuleSet, mine
from .errors import ConfigError, DataError
from .metrics import CriteriaWeights
from .preprocess import (
    PartitionedDatabase,
    catalog_to_list,
    database_to_dict,
    dump_database,
    preprocess_csv,
)


@dataclass
class RunReport:
    """What a mining run did and how long it took."""

    dataset: str
    records: int
    partition_sizes: list[int]
    threads: int
    preprocess_seconds: float
    mine_seconds: float
    positive_counts: list[int]
    negative_counts: list[int]


def _config_dict(config: MiningConfig) -> dict:
    return {
        "min_corr": config.min_corr,
        "corr_stop": config.corr_stop,
        "min_f_all": config.min_f_all,
        "neg_corr": config.neg_corr,
        "weights": list(config.weights.as_tuple()),
        "max_premise_len": config.max_premise_len,
    }


def _parse_weights(text: str) -> CriteriaWeights:
    parts = text.split(",")
    if len(parts) != 4:
        raise ConfigError("--weights expects four comma-separated numbers")
    try:
        values = [float(p) for p in parts]
    except ValueError as exc:
        raise ConfigError(f"--weights expects numbers, got {text!r}") from exc
    return CriteriaWeights(*values)


def _build_config(args: argparse.Namespace) -> MiningConfig:
    if args.threads < 1:  # checked before any input is read
        raise ConfigError("thread count must be >= 1")
    weights = _parse_weights(args.weights) if args.weights else CriteriaWeights()
    return MiningConfig(
        min_corr=args.min_corr,
        corr_stop=args.corr_stop,
        min_f_all=args.min_freq,
        weights=weights,
        neg_corr=args.neg_corr,
        max_premise_len=args.max_premise_len,
    )


def _add_input_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--db", required=True, help="CSV table path")
    parser.add_argument("--dbd", required=True, help="JSON description path")
    parser.add_argument(
        "--skip-missing",
        action="store_true",
        help="drop rows with missing cells instead of failing",
    )


def _spelled_rules(ruleset: RuleSet, names: Sequence[str], sep: str) -> Iterator[tuple[Rule, str]]:
    """Each rule, positive groups first, and its premise: its names in bit
    order, joined by ``sep``. A group keeps the text of each prefix (the
    premise without its top bit, each name followed by ``sep``), spelling a
    missing one from its longest prefix there and keeping those between."""
    for group in ruleset.positive + ruleset.negative:
        prefixes = {0: ""}
        for rule in group:
            if not rule.premise:
                yield rule, ""
                continue
            top = rule.premise.bit_length() - 1
            prefix = rule.premise ^ 1 << top
            if (text := prefixes.get(prefix)) is None:
                missing = []  # longest first
                while prefix not in prefixes:
                    missing.append(prefix)
                    prefix ^= 1 << prefix.bit_length() - 1
                text = prefixes[prefix]
                for prefix in reversed(missing):
                    text = prefixes[prefix] = f"{text}{names[prefix.bit_length() - 1]}{sep}"
            yield rule, text + names[top]


def format_rules_table(ruleset: RuleSet, pdb: PartitionedDatabase) -> str:
    header = (
        f"{'rule':<44} {'sup_k':>7} {'sup':>7} "
        f"{'f_g':>6} {'f_all':>6} {'conf':>6} {'lift':>6} {'corr':>7} {'q':>7} final"
    )
    lines = [header, "-" * len(header)]
    for rule, premise in _spelled_rules(ruleset, pdb.catalog.names(), ","):
        m = rule.metrics
        head = f"{premise} => {'not ' if rule.negative else ''}{pdb.goal_labels[rule.goal]}"
        lines.append(
            f"{head:<44} {rule.sup_k:>7} {rule.sup:>7} "
            f"{m.f_g:>6.3f} {m.f_all:>6.3f} {m.confidence:>6.3f} {m.lift:>6.3f} "
            f"{m.correlation:>7.3f} {m.quality:>7.3f} {'yes' if rule.final else 'no'}"
        )
    return "\n".join(lines)


def format_rules_csv(ruleset: RuleSet, pdb: PartitionedDatabase) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(
        ["premise", "goal", "premise_len", "sup_k", "sup",
         "f_g", "f_all", "conf", "lift", "corr", "q", "final", "negative"]
    )
    for rule, premise in _spelled_rules(ruleset, pdb.catalog.names(), "+"):
        m = rule.metrics
        criteria = (m.f_g, m.f_all, m.confidence, m.lift, m.correlation, m.quality)
        writer.writerow(
            [premise, pdb.goal_labels[rule.goal], rule.premise_len, rule.sup_k, rule.sup,
             *(f"{x:.6f}" for x in criteria), int(rule.final), int(rule.negative)]
        )
    return buffer.getvalue()


def write_mining_json(
    out: TextIO,
    ruleset: RuleSet,
    pdb: PartitionedDatabase,
    config: MiningConfig,
    report: RunReport,
) -> None:
    """Write the mining document to ``out``, byte for byte what
    ``json.dump(doc, out, indent=2)`` plus a newline writes, one rule at a
    time.

    The small parts go through ``json.dumps`` and are indented one level
    more by their newlines, which is exact because JSON text holds no raw
    newline. Each rule comes from one template: names and goal labels are
    escaped once, ints print as ``int`` does and floats as ``float.__repr__``
    does, which is ``json``'s spelling for every finite float (weights with
    a finite sum keep every quality finite). The criteria are a function of
    the rule's goal and counts, so their text is made once per distinct
    ``(sup_k, sup)`` in a goal's run of rules, kept until the goal changes;
    ``_spelled_rules`` spells each premise prefix once per group.
    """

    def nested(value) -> str:
        return json.dumps(value, indent=2).replace("\n", "\n  ")

    names = [json.dumps(name) for name in pdb.catalog.names()]
    goals = [json.dumps(label) for label in pdb.goal_labels]
    out.write(
        f'{{\n  "config": {nested(_config_dict(config))},'
        f'\n  "goals": {nested(list(pdb.goal_labels))},'
        f'\n  "catalog": {nested(catalog_to_list(pdb.catalog))},'
        f'\n  "rules": ['
    )
    separator, closing = "\n", "]"
    goal = None
    for rule, premise in _spelled_rules(ruleset, names, ",\n        "):
        if rule.goal != goal:  # text from "goal" to "q", by (sup_k, sup); none serves two goals
            counted, goal = {}, rule.goal
        key = (rule.sup_k, rule.sup)
        if key not in counted:
            m = rule.metrics
            counted[key] = (
                f'\n      "goal": {goals[rule.goal]},'
                f'\n      "sup_k": {rule.sup_k},'
                f'\n      "sup": {rule.sup},'
                f'\n      "f_g": {m.f_g!r},'
                f'\n      "f_all": {m.f_all!r},'
                f'\n      "conf": {m.confidence!r},'
                f'\n      "lift": {m.lift!r},'
                f'\n      "corr": {m.correlation!r},'
                f'\n      "q": {m.quality!r},'
            )
        premise = f"[\n        {premise}\n      ]" if premise else "[]"
        out.write(
            f"{separator}    {{"
            f'\n      "premise": {premise},'
            f"{counted[key]}"
            f'\n      "final": {"true" if rule.final else "false"},'
            f'\n      "negative": {"true" if rule.negative else "false"}'
            f"\n    }}"
        )
        separator, closing = ",\n", "\n  ]"
    out.write(f'{closing},\n  "report": {nested(asdict(report))}\n}}\n')


def mining_output_json(
    ruleset: RuleSet, pdb: PartitionedDatabase, config: MiningConfig, report: RunReport
) -> str:
    """The whole document ``write_mining_json`` writes, as one string."""
    buffer = io.StringIO()
    write_mining_json(buffer, ruleset, pdb, config, report)
    return buffer.getvalue()


def _report_text(report: RunReport) -> str:
    return (
        f"# dataset={report.dataset} records={report.records} "
        f"partitions={report.partition_sizes} threads={report.threads}\n"
        f"# preprocess_seconds={report.preprocess_seconds:.3f} "
        f"mine_seconds={report.mine_seconds:.3f}\n"
        f"# rules: positive={report.positive_counts} negative={report.negative_counts}"
    )


def cmd_preprocess(args: argparse.Namespace) -> int:
    for flag, path in (("--db", args.db), ("--dbd", args.dbd)):
        if args.out and os.path.realpath(args.out) == os.path.realpath(path):
            raise ConfigError(f"--out and {flag} name the same file: {args.out}")
    started = time.perf_counter()
    pdb = preprocess_csv(args.db, args.dbd, skip_missing=args.skip_missing)
    elapsed = time.perf_counter() - started
    if args.out:
        dump_database(pdb, args.out)
    # without --out the dump goes to stdout, so the report moves to stderr
    report = print if args.out else _to_stderr
    report(f"{'idx':>4} {'name':<8} {'column':<14} meaning")
    for prop in pdb.catalog:
        report(f"{prop.index:>4} {prop.name:<8} {prop.column:<14} {prop.full_name}")
    sizes = ", ".join(
        f"{label}={size}" for label, size in zip(pdb.goal_labels, pdb.partition_sizes)
    )
    report(f"partitions: {sizes} (total {pdb.total})")
    if pdb.skipped_rows:
        report(f"skipped rows: {pdb.skipped_rows}")
    report(f"preprocess_seconds={elapsed:.3f}")
    if args.out:
        report(f"encoded database written to {args.out}")
    else:
        print(json.dumps(database_to_dict(pdb), indent=2))
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    config = _build_config(args)
    started = time.perf_counter()
    pdb = preprocess_csv(args.db, args.dbd, skip_missing=args.skip_missing)
    preprocess_seconds = time.perf_counter() - started

    started = time.perf_counter()
    ruleset = mine(pdb, config)
    if not args.negative:
        ruleset = ruleset.with_negative([()] * ruleset.goal_count)
    mine_seconds = time.perf_counter() - started

    report = RunReport(
        dataset=args.db,
        records=pdb.total,
        partition_sizes=list(pdb.partition_sizes),
        threads=args.threads,
        preprocess_seconds=preprocess_seconds,
        mine_seconds=mine_seconds,
        positive_counts=ruleset.positive_counts(),
        negative_counts=ruleset.negative_counts(),
    )
    if args.format == "json":
        write_mining_json(sys.stdout, ruleset, pdb, config, report)
    elif args.format == "csv":
        sys.stdout.write(format_rules_csv(ruleset, pdb))
        _to_stderr(_report_text(report))
    else:
        print(format_rules_table(ruleset, pdb))
        print(_report_text(report))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    if os.path.realpath(args.out_db) == os.path.realpath(args.out_dbd):
        raise ConfigError(f"--out-db and --out-dbd name the same file: {args.out_db}")
    try:
        rows, description = synthetic_tables(
            rows=args.rows,
            continuous=args.continuous,
            categorical=args.categorical,
            classes=args.classes,
            goals=args.goals,
            seed=args.seed,
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    try:
        save_tables(rows, description, args.out_db, args.out_dbd)
    except OSError as exc:  # a failed write, unlike a failed open, names no file
        path = exc.filename or f"{args.out_db} or {args.out_dbd}"
        raise DataError(f"cannot write {path}: {exc.strerror}") from exc
    print(f"wrote {len(rows)} rows to {args.out_db} and description to {args.out_dbd}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="goalrules",
        description="Mine goal-directed association rules from relational tables.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("preprocess", help="encode a table and report the property catalog")
    _add_input_args(p)
    p.add_argument("--out", default=None, help="write the encoded-database JSON dump here")
    p.set_defaults(func=cmd_preprocess)

    p = sub.add_parser("mine", help="mine rules from a table")
    _add_input_args(p)
    p.add_argument("--min-corr", type=float, default=0.35)
    p.add_argument("--corr-stop", type=float, default=1.0)
    p.add_argument("--min-freq", type=float, default=0.01, help="overall frequency floor")
    p.add_argument("--neg-corr", type=float, default=-0.35)
    p.add_argument("--weights", default=None, help="four comma-separated criteria weights")
    p.add_argument("--max-premise-len", type=int, default=None)
    p.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; mining is sequential"
    )
    p.add_argument("--negative", action="store_true", help="also report negative rules")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("synth", help="generate a synthetic table and description")
    p.add_argument("--rows", type=int, default=300)
    p.add_argument("--continuous", type=int, default=3)
    p.add_argument("--categorical", type=int, default=1)
    p.add_argument("--classes", type=int, default=3)
    p.add_argument("--goals", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out-db", required=True)
    p.add_argument("--out-dbd", required=True)
    p.set_defaults(func=cmd_synth)
    return parser


def _to_stderr(text: str) -> None:
    """Print text to stderr: the one writer there, for error lines and
    reports alike. Where stderr cannot be written, as after ``2>&-``, the
    text is dropped, so that the exit status alone still tells how the run
    ended."""
    if sys.stderr is None:
        return
    try:
        print(text, file=sys.stderr, flush=True)
    except OSError:
        sys.stderr = None  # nor flushed again at exit


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _to_stderr(f"error: {exc}")
        return 2
    except DataError as exc:
        _to_stderr(f"error: {exc}")
        return 3


def run() -> None:
    for stream in (sys.stdout, sys.stderr):  # input is read as UTF-8 in any locale; so is output
        if stream is not None:  # None where the stream was closed at start, as `>&-` does
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    if sys.stdout is None:
        _to_stderr("error: standard output is closed")
        sys.exit(2)
    try:
        status = main()
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed stdout early, as `| head` does
        # stdout's buffer is flushed again at exit: send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 141  # what a shell reports for a process SIGPIPE killed
    sys.exit(status)


if __name__ == "__main__":
    run()
