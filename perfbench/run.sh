#!/usr/bin/env bash
# Build the benchmark and the hyperbench daemon from this checkout, then
# run one measurement:
#   bash perfbench/run.sh --workload campaign|serve-hit \
#        --seed N --seconds S --trace 0|1
# Run from the root of a checkout. Build output goes to stderr; the last
# line on stdout is the JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a full checkout (dune-project, lib/ or bin/ missing)" >&2
  exit 2
fi
# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . perfbench/hbbench.exe bin/hyperbench.exe 1>&2
exec ./_build/default/perfbench/hbbench.exe "$@"
