#!/usr/bin/env bash
# Build the engine benchmark from source and run it from the repository
# root:
#
#   bash perfbench/run.sh --workload churn-small --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the last line of stdout is the result
# object. Run artefacts (WAL stores, checkpoint chains, span dumps) go
# to perfbench/_run/, which git ignores.
set -euo pipefail
cd "$(dirname "$0")/.."
command -v dune >/dev/null 2>&1 || eval "$(opam env 2>/dev/null)"
export DUNE_CACHE=disabled
# The compiler's temporary files stay inside the checkout too.
mkdir -p perfbench/_run/tmp
export TMPDIR="$PWD/perfbench/_run/tmp"
build_dir=${CARGO_TARGET_DIR:-_build}
dune build --root . --build-dir "$build_dir" --display quiet ./perfbench/main.exe 1>&2
commit=none
if [ -e .git ]; then commit=$(git rev-parse HEAD 2>/dev/null || echo none); fi
PERFBENCH_COMMIT=$commit "$build_dir/default/perfbench/main.exe" "$@"
