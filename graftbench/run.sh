#!/usr/bin/env bash
# Graftbench: builds the benchmark from source with dune, then runs one
# workload. Run it from the root of the repository:
#
#   bash graftbench/run.sh --workload serve|serve-2d|tiers \
#     --seed N --seconds S --trace 0|1
#   bash graftbench/run.sh --describe        # the metric table (METRICS.md)
#   bash graftbench/run.sh --benchmark-json  # BENCHMARK.json
#
# The last line of standard output is the run's JSON result; build
# output goes to standard error.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f graftbench/bin/dune ]; then
  echo "graftbench: not the root of a graftkit source tree" >&2
  exit 2
fi

dune build --root . ./graftbench/bin/main.exe 1>&2
exec ./_build/default/graftbench/bin/main.exe "$@"
