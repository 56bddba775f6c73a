#!/usr/bin/env bash
# Builds the /optimize benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash perfbench/run.sh --workload cold --seed 1 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build in the
# checkout: HOME, the Go build cache and GOPATH point there, so nothing is
# read from or written to the user's home directory.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/perfbench/go.mod" ]]; then
	echo "run.sh: run from the root of the checkout" >&2
	exit 2
fi
if [[ ! -f "$root/go.mod" ]]; then
	echo "run.sh: the program's source (go.mod at the checkout root) is missing" >&2
	exit 2
fi
out="$root/.bench_build"
mkdir -p "$out/home" "$out/gocache" "$out/gopath"
export HOME="$out/home" GOCACHE="$out/gocache" GOPATH="$out/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" "$@"
