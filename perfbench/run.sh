#!/usr/bin/env bash
# Build the rapid CLI and the benchmark program from source, then run the
# program with the given arguments (see perfbench/main.ml), e.g.
#   bash perfbench/run.sh --workload all --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --smoke      # the benchmark's own test
# Build output goes to stderr so the program's last stdout line stays its
# JSON result.
set -euo pipefail
cd "$(dirname "$0")/.."
dune build --root . --profile release ./bin/rapid.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe --rapid ./_build/default/bin/rapid.exe "$@"
