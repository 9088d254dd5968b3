#!/usr/bin/env bash
# Build the benchmark from source, then run it with the given arguments:
#   bash capbench/run.sh --workload serve-durable --seed 1 --seconds 10 --trace 0
# Everything it builds or writes stays under _build/ in the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
export XDG_CACHE_HOME="$PWD/_build/.cache"
dune build --root . --display quiet capbench/main.exe
exec ./_build/default/capbench/main.exe "$@"
