#!/usr/bin/env bash
# Builds the serving benchmark from source and runs it from the root of
# the checkout:
#
#   bash perfbench/run.sh --workload trickle --seed 1 --seconds 10 --trace 0
#
# The Go build cache, the binary and every scratch file stay under
# .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/perfbench" ]]; then
	echo "perfbench: run from the root of the repository checkout" >&2
	exit 2
fi
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local
(cd "$root/perfbench" && go build -o "$build/perfbench" .)
exec "$build/perfbench" "$@"
