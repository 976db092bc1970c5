#!/bin/sh
# Benchmark entry point, run from the repository root:
#
#   bash bench/e2e/run.sh --workload NAME --seed N --seconds T --trace 0|1
#
# Builds bin/rbcast.exe and the rbbench driver from source, then runs one
# workload; the last line of stdout is the result object.  Any other
# `rbbench run` flag may follow (see bench/e2e/README.md).
set -eu
# Keep every build product inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet bin/rbcast.exe bench/e2e/rbbench.exe 1>&2
# Not exec: a fresh process, so peak-RSS accounting of waited-for
# children starts without the build.
./_build/default/bench/e2e/rbbench.exe run "$@"
