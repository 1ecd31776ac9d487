#!/bin/sh
# The three figures a change reports, from the repository root: the test
# suite, the suite with numpy blocked (see tests/without_numpy), and the
# line count of src/. Run as `sh tests/check.sh`; it exits non-zero if
# either test run does.
cd "$(dirname "$0")/.." || exit 1
PYTHONPATH=src${PYTHONPATH:+:$PYTHONPATH} python -m pytest -q --continue-on-collection-errors
with_numpy=$?
PYTHONPATH=tests/without_numpy:src python -m pytest -q --continue-on-collection-errors
without_numpy=$?
wc -l src/goalrules/*.py
[ "$with_numpy" -eq 0 ] && [ "$without_numpy" -eq 0 ]
