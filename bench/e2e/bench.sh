#!/usr/bin/env bash
# Build the daemon and the harness from source, then run one workload:
#
#   bash bench/e2e/bench.sh --workload burst-n1e4 --seed 1 --seconds 15 --trace 0
#
# Run from the repository root. Build output goes to stderr; the last
# line of stdout is the run's JSON result (see README.md here).
set -euo pipefail

if [ ! -f dune-project ] || [ ! -f bin/bmp.ml ] || [ ! -d lib ]; then
  echo "bench.sh: run from the root of a bounded_multiport source tree" >&2
  exit 2
fi

# The shared dune cache lives outside the tree; build only inside it.
export DUNE_CACHE=disabled
dune build --root . bin/bmp.exe bench/e2e/bmpbench.exe >&2

exec ./_build/default/bench/e2e/bmpbench.exe measure "$@"
