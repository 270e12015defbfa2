#!/usr/bin/env bash
# go test wrapper for the workflow's `-run` gates. `go test -run PATTERN`
# exits 0 when PATTERN matches nothing ("[no tests to run]"), so a renamed
# test silently turns its gate into a no-op; this fails the step instead.
set -euo pipefail
out=$(mktemp)
trap 'rm -f "$out"' EXIT
go test "$@" 2>&1 | tee "$out"
if grep -q 'no tests to run' "$out"; then
	echo "error: a -run pattern above matched no tests in some package" >&2
	exit 1
fi
