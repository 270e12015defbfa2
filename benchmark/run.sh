#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ of the checkout it
# sits in and runs it there with the arguments given. Everything the build
# writes — binary, Go build cache, Go's per-user config — stays inside the
# checkout. Run from the checkout's root: bash benchmark/run.sh --workload ...
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
build="$root/.bench_build"
mkdir -p "$build"
(
	cd "$here"
	GOCACHE="$build/gocache" XDG_CONFIG_HOME="$build/config" GOWORK=off GOTOOLCHAIN=local \
		go build -o "$build/benchmark" .
)
cd "$root"
exec "$build/benchmark" "$@"
