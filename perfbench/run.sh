#!/usr/bin/env bash
# Builds the benchmark from source, then runs it with the given
# arguments, e.g.
#
#   bash perfbench/run.sh --workload paper_flow --seed 1 --seconds 30 --trace 0
#
# Run from anywhere; it works from the root of the checkout.  Build output
# goes to stderr so the last line on stdout stays the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
# keep every build artefact inside the checkout (no shared dune cache)
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
