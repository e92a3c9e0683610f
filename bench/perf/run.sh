#!/usr/bin/env bash
# Build the benchmark from source and run it; every argument is passed to
# perf.exe (see perf.ml).  Run from anywhere inside a checkout:
#   bash bench/perf/run.sh --workload fs-stack --seed 1 --seconds 12 --trace 0
set -euo pipefail
cd "$(dirname "$0")/../.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "run.sh: $(pwd) is not a checkout of this repository" >&2
  exit 2
fi
# Keep every build artifact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./bench/perf/perf.exe >&2
exec ./_build/default/bench/perf/perf.exe "$@"
