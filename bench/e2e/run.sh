#!/usr/bin/env bash
# Build the serving binary and the end-to-end benchmark from source, then
# run the benchmark with the given arguments, e.g.
#
#   bash bench/e2e/run.sh --workload read-mix --seed 3 --seconds 20 --trace 0
#
# Run from the root of a checkout.  Build output goes to standard error, so
# standard output ends with the benchmark's one-line JSON result.
set -euo pipefail
dune build --root . --cache=disabled bench/e2e/e2e.exe 1>&2
exec ./_build/default/bench/e2e/e2e.exe "$@"
