"""Command-line interface: encode tables, mine rules, benchmark scaling,
and generate synthetic demo data.

Exit codes: 0 success, 1 ``bench`` invariant broken, 2 usage or configuration
error, or standard output closed before the run, 3 data error, 141 standard
output closed early by its reader. With standard error closed, an error's
line is dropped and its status kept.
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
from typing import Sequence, TextIO

from .datasets import save_tables, synthetic_tables
from .engine import MiningConfig, Rule, RuleSet, check_threads, mine
from .errors import ConfigError, DataError
from .metrics import CriteriaWeights
from .preprocess import (
    PartitionedDatabase,
    catalog_to_list,
    database_to_dict,
    dump_database,
    preprocess_csv,
    replicate,
    set_bits,
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
    check_threads(args.threads)
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


def _add_mining_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--min-corr", type=float, default=0.35)
    parser.add_argument("--corr-stop", type=float, default=1.0)
    parser.add_argument("--min-freq", type=float, default=0.01, help="overall frequency floor")
    parser.add_argument("--neg-corr", type=float, default=-0.35)
    parser.add_argument("--weights", default=None, help="four comma-separated criteria weights")
    parser.add_argument("--max-premise-len", type=int, default=None)
    parser.add_argument(
        "--threads", type=int, default=1, help="accepted for compatibility; mining is sequential"
    )


def _premise_names(code: int, names: list[str]) -> list[str]:
    """The entries of ``names`` at the premise's set bits, in bit order."""
    return [names[i] for i in set_bits(code)]


def _rule_head(rule: Rule, names: list[str], goal_labels: Sequence[str]) -> str:
    premise = ",".join(_premise_names(rule.premise, names))
    return f"{premise} => {'not ' if rule.negative else ''}{goal_labels[rule.goal]}"


def format_rules_table(ruleset: RuleSet, pdb: PartitionedDatabase) -> str:
    header = (
        f"{'rule':<44} {'sup_k':>7} {'sup':>7} "
        f"{'f_g':>6} {'f_all':>6} {'conf':>6} {'lift':>6} {'corr':>7} {'q':>7} final"
    )
    lines = [header, "-" * len(header)]
    names = pdb.catalog.names()
    for rule in ruleset.all_positive() + ruleset.all_negative():
        m = rule.metrics
        lines.append(
            f"{_rule_head(rule, names, pdb.goal_labels):<44} {rule.sup_k:>7} {rule.sup:>7} "
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
    names = pdb.catalog.names()
    for rule in ruleset.all_positive() + ruleset.all_negative():
        m = rule.metrics
        writer.writerow(
            [
                "+".join(_premise_names(rule.premise, names)),
                pdb.goal_labels[rule.goal],
                rule.premise_len,
                rule.sup_k,
                rule.sup,
                f"{m.f_g:.6f}",
                f"{m.f_all:.6f}",
                f"{m.confidence:.6f}",
                f"{m.lift:.6f}",
                f"{m.correlation:.6f}",
                f"{m.quality:.6f}",
                int(rule.final),
                int(rule.negative),
            ]
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
    ``(goal, sup_k, sup)`` in a group and reused. A premise's names are its
    prefix's (the premise without its top bit), which the search emits
    earlier in the same goal, plus one more; ``_premise_names`` spells a
    premise whose prefix was not emitted, as in a hand-built ``RuleSet``.
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
    # A group is one goal's rules of one kind, and the two kinds have no
    # correlation in common, so no criteria text serves two groups.
    for group in ruleset.positive + ruleset.negative:
        counted: dict[tuple[int, int, int], str] = {}  # text from "goal" to "q"
        listed = {0: ""}  # premise -> its names, joined
        for rule in group:
            key = (rule.goal, rule.sup_k, rule.sup)
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
            code = rule.premise
            top = code.bit_length() - 1
            prefix = listed.get(code ^ (1 << top)) if code else None
            if prefix is None:
                premise = ",\n        ".join(_premise_names(code, names))
            else:
                premise = f"{prefix},\n        {names[top]}" if prefix else names[top]
            if not rule.final and rule.premise_len != config.max_premise_len:
                listed[code] = premise  # only a premise the search grows is a prefix
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
    started = time.perf_counter()
    pdb = preprocess_csv(args.db, args.dbd, skip_missing=args.skip_missing)
    elapsed = time.perf_counter() - started
    if args.out:
        dump_database(pdb, args.out)
    # without --out the dump goes to stdout, so the report moves to stderr
    report_stream = sys.stdout if args.out else sys.stderr
    print(f"{'idx':>4} {'name':<8} {'column':<14} meaning", file=report_stream)
    for prop in pdb.catalog:
        print(
            f"{prop.index:>4} {prop.name:<8} {prop.column:<14} {prop.full_name}",
            file=report_stream,
        )
    sizes = ", ".join(
        f"{label}={size}" for label, size in zip(pdb.goal_labels, pdb.partition_sizes)
    )
    print(f"partitions: {sizes} (total {pdb.total})", file=report_stream)
    if pdb.skipped_rows:
        print(f"skipped rows: {pdb.skipped_rows}", file=report_stream)
    print(f"preprocess_seconds={elapsed:.3f}", file=report_stream)
    if args.out:
        print(f"encoded database written to {args.out}", file=report_stream)
    else:
        json.dump(database_to_dict(pdb), sys.stdout, indent=2)
        print()
    return 0


def cmd_mine(args: argparse.Namespace) -> int:
    config = _build_config(args)
    started = time.perf_counter()
    pdb = preprocess_csv(args.db, args.dbd, skip_missing=args.skip_missing)
    preprocess_seconds = time.perf_counter() - started

    started = time.perf_counter()
    ruleset = mine(pdb, config, threads=args.threads)
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
        print(_report_text(report), file=sys.stderr)
    else:
        print(format_rules_table(ruleset, pdb))
        print(_report_text(report))
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    config = _build_config(args)
    try:
        factors = [int(f) for f in args.factors.split(",")]
    except ValueError as exc:
        raise ConfigError(f"--factors expects comma-separated integers, got {args.factors!r}") from exc
    if not factors or any(f < 1 for f in factors):
        raise ConfigError("--factors expects positive integers")
    base = preprocess_csv(args.db, args.dbd, skip_missing=args.skip_missing)
    base_rules = mine(base, config, threads=args.threads)

    def criteria_view(ruleset: RuleSet) -> list[tuple]:
        return [
            (r.goal, r.premise, r.metrics, r.final) for r in ruleset.all_positive()
        ]

    base_view = criteria_view(base_rules)
    print(f"{'factor':>7} {'records':>9} {'seconds':>8} {'rules':>6} invariant")
    ok = True
    for factor in factors:
        scaled = replicate(base, factor)
        started = time.perf_counter()
        ruleset = mine(scaled, config, threads=args.threads)
        seconds = time.perf_counter() - started
        counts_scaled = all(
            r.sup_k == b.sup_k * factor and r.sup == b.sup * factor
            for r, b in zip(ruleset.all_positive(), base_rules.all_positive())
        )
        invariant = criteria_view(ruleset) == base_view and counts_scaled
        ok = ok and invariant
        print(
            f"{factor:>7} {scaled.total:>9} {seconds:>8.3f} "
            f"{len(ruleset.all_positive()):>6} {'yes' if invariant else 'NO'}"
        )
    if not ok:
        print("rule criteria changed under duplication", file=sys.stderr)
        return 1
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
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
    save_tables(rows, description, args.out_db, args.out_dbd)
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
    _add_mining_args(p)
    p.add_argument("--negative", action="store_true", help="also report negative rules")
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.set_defaults(func=cmd_mine)

    p = sub.add_parser("bench", help="duplication-scaling benchmark")
    _add_input_args(p)
    _add_mining_args(p)
    p.add_argument("--factors", default="10,100", help="comma-separated duplication factors")
    p.set_defaults(func=cmd_bench)

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


def _error(message: str) -> None:
    """Print one error line to stderr. Where stderr cannot be written, as
    after ``2>&-``, the line is dropped, so that the exit status alone still
    tells the error's kind."""
    if sys.stderr is None:
        return
    try:
        print(f"error: {message}", file=sys.stderr, flush=True)
    except OSError:
        sys.stderr = None  # nor flushed again at exit


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        _error(str(exc))
        return 2
    except DataError as exc:
        _error(str(exc))
        return 3


def run() -> None:
    for stream in (sys.stdout, sys.stderr):  # input is read as UTF-8 in any locale; so is output
        if stream is not None:  # None where the stream was closed at start, as `>&-` does
            stream.reconfigure(encoding="utf-8", errors=stream.errors)
    if sys.stdout is None:
        _error("standard output is closed")
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
