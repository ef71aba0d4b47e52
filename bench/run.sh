#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ at the root of the
# checkout and runs it from there; every argument goes to the program.
#   bash bench/run.sh --workload churn-stream --seed 1 --seconds 20 --trace 0
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
# Everything the toolchain writes — build cache, module path, its own
# counters — stays inside the checkout too.
export GOCACHE="$build/go-cache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$here" && go build -o "$build/ppcd-e2e-bench" .)
cd "$root"
exec "$build/ppcd-e2e-bench" "$@"
