#!/bin/sh
# The three figures a change reports, from the repository root: the test
# suite, the suite with numpy blocked (see tests/without_numpy), and the
# line count of src/. Run as `sh tests/check.sh`; it exits non-zero if
# either test run does.
#
# With a revision, as in `sh tests/check.sh HEAD`, it then also runs
# `goalrules mine` from that revision's src/ and from the working tree's on
# the same small `goalrules synth` tables: every format, with and without
# --negative. One table has more than 64 properties and is mined with
# --max-premise-len 2, and one has its data lines written 3 times. It prints
# `same` or `DIFF` per output, with lines holding `_seconds` left out, and
# exits non-zero on any DIFF.
cd "$(dirname "$0")/.." || exit 1
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
with_numpy=$?
PYTHONPATH=tests/without_numpy:src python -m pytest -q --continue-on-collection-errors
without_numpy=$?
wc -l src/goalrules/*.py
[ -z "$1" ] && { [ "$with_numpy" -eq 0 ] && [ "$without_numpy" -eq 0 ]; exit; }

tmp=$(mktemp -d) || exit 1
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/rev" && git archive "$1" src | tar -x -C "$tmp/rev" || exit 1
synth() {  # synth <table> <arguments...>
    table=$1
    shift
    PYTHONPATH=src python -m goalrules.cli synth --out-db "$tmp/$table.csv" --out-dbd "$tmp/$table.dbd.json" "$@" >/dev/null
}
synth small --rows 300 --seed 1 || exit 1
synth wide --rows 400 --continuous 22 --categorical 0 --seed 2 || exit 1
synth base --rows 200 --seed 3 || exit 1
{ head -n 1 "$tmp/base.csv"; for _ in 1 2 3; do tail -n +2 "$tmp/base.csv"; done; } >"$tmp/tripled.csv"
cp "$tmp/base.dbd.json" "$tmp/tripled.dbd.json"

mine() {  # mine <src dir> <table> <output file> <arguments...>
    src=$1 table=$2 out=$3
    shift 3
    PYTHONPATH=$src python -m goalrules.cli mine --db "$tmp/$table.csv" --dbd "$tmp/$table.dbd.json" "$@" \
        >"$out" 2>"$out.err"
    echo "exit $?" >>"$out.err"
    cat "$out.err" >>"$out"
    grep -v _seconds "$out" >"$out.kept"
}
status=0
for table in small wide tripled; do
    [ "$table" = wide ] && args="--max-premise-len 2" || args=""
    for format in json csv table; do
        for negative in "" --negative; do
            # shellcheck disable=SC2086  # $args and $negative are words or nothing
            mine "$tmp/rev/src" "$table" "$tmp/before" --format "$format" $negative $args
            # shellcheck disable=SC2086
            mine src "$table" "$tmp/after" --format "$format" $negative $args
            if cmp -s "$tmp/before.kept" "$tmp/after.kept"; then verdict=same; else verdict=DIFF; status=1; fi
            echo "$verdict: mine $table --format $format $negative $args"
        done
    done
done
[ "$with_numpy" -eq 0 ] && [ "$without_numpy" -eq 0 ] && [ "$status" -eq 0 ]
