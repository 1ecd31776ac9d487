#!/bin/sh
# The three figures a change reports, from the repository root: the test
# suite, the suite with numpy blocked (see tests/without_numpy), and the
# line count of src/. Run as `sh tests/check.sh`; it exits non-zero if
# either test run does.
#
# With a revision, as in `sh tests/check.sh HEAD`, it then also prints the
# total of `wc -l src/goalrules/*.py` at that revision beside the working
# tree's, so a change's size delta is read off, not recomputed. It runs
# `goalrules synth` for three small tables from that revision's src/ and from
# the working tree's, and compares the CSV and description each writes. It
# then runs `goalrules preprocess` and `goalrules mine` from both on the
# working tree's tables.
# `preprocess` runs without --out, so the dump goes to stdout and the report
# to stderr, and with --out, whose file is compared along with the report;
# `mine` runs in every format, with and without --negative. One table has
# more than 64 properties and is mined with --max-premise-len 2, and one has
# its data lines written 3 times. The small table is also mined with
# --max-premise-len 1 --negative --format json, the single-property rules
# that `create_candidates` and `mine_negative` return, and with --threads 3
# --negative --format json, which pins `report.threads`. A copy of the small
# table with every \n deleted, so that its lines end in a lone \r (synth
# writes \r\n), runs under `preprocess` and under `mine --negative --format
# json`. The working tree runs twice, with numpy and with numpy blocked, and
# each run is compared with the revision's. It prints `same` or `DIFF` per
# comparison (the two synth files; or stdout, stderr, exit status and any
# --out file), 59 lines in all, with lines holding `_seconds` left out, and
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
echo "src/goalrules/*.py lines: $(cat "$tmp"/rev/src/goalrules/*.py | wc -l) at $1," \
    "$(cat src/goalrules/*.py | wc -l) in the working tree"
status=0
synth() {  # synth <table> <arguments...>
    table=$1
    shift
    PYTHONPATH=$tmp/rev/src python -m goalrules.cli synth --out-db "$tmp/before.csv" --out-dbd "$tmp/before.dbd.json" "$@" \
        >/dev/null || return
    PYTHONPATH=src python -m goalrules.cli synth --out-db "$tmp/$table.csv" --out-dbd "$tmp/$table.dbd.json" "$@" \
        >/dev/null || return
    if cmp -s "$tmp/before.csv" "$tmp/$table.csv" && cmp -s "$tmp/before.dbd.json" "$tmp/$table.dbd.json"; then
        verdict=same
    else
        verdict=DIFF
        status=1
    fi
    echo "$verdict: synth $table $*"
}
synth small --rows 300 --seed 1 || exit 1
synth wide --rows 400 --continuous 22 --categorical 0 --seed 2 || exit 1
synth base --rows 200 --seed 3 || exit 1
{ head -n 1 "$tmp/base.csv"; for _ in 1 2 3; do tail -n +2 "$tmp/base.csv"; done; } >"$tmp/tripled.csv"
cp "$tmp/base.dbd.json" "$tmp/tripled.dbd.json"
tr -d '\n' <"$tmp/small.csv" >"$tmp/lone_cr.csv"
cp "$tmp/small.dbd.json" "$tmp/lone_cr.dbd.json"

run() {  # run <src dir> <output file> <command> <table> <arguments...>
    src=$1 out=$2 command=$3 table=$4
    shift 4
    rm -f "$tmp/dump.json"
    PYTHONPATH=$src python -m goalrules.cli "$command" --db "$tmp/$table.csv" --dbd "$tmp/$table.dbd.json" "$@" \
        >"$out" 2>"$out.err"
    echo "exit $?" >>"$out.err"
    cat "$out.err" >>"$out"
    [ -f "$tmp/dump.json" ] && cat "$tmp/dump.json" >>"$out"
    grep -v _seconds "$out" >"$out.kept"
}
compare() {  # compare <command> <table> <arguments...>
    run "$tmp/rev/src" "$tmp/before" "$@"
    for pythonpath in src tests/without_numpy:src; do
        run "$pythonpath" "$tmp/after" "$@"
        if cmp -s "$tmp/before.kept" "$tmp/after.kept"; then verdict=same; else verdict=DIFF; status=1; fi
        [ "$pythonpath" = src ] && numpy="" || numpy=" without numpy"
        echo "$verdict$numpy: $*" | sed "s|$tmp/||"
    done
}
for table in small wide tripled; do
    compare preprocess "$table"
    compare preprocess "$table" --out "$tmp/dump.json"
    [ "$table" = wide ] && args="--max-premise-len 2" || args=""
    for format in json csv table; do
        for negative in "" --negative; do
            # shellcheck disable=SC2086  # $negative and $args are words or nothing
            compare mine "$table" --format "$format" $negative $args
        done
    done
done
compare mine small --format json --negative --max-premise-len 1
compare mine small --format json --negative --threads 3
compare preprocess lone_cr
compare mine lone_cr --format json --negative
[ "$with_numpy" -eq 0 ] && [ "$without_numpy" -eq 0 ] && [ "$status" -eq 0 ]
