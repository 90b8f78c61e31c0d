#!/usr/bin/env bash
# Builds the SciQL benchmark from the sources of the checkout it runs
# in, then runs it with the given arguments:
#
#   bash perfbench/run.sh --workload science --seed 1 --seconds 10 --trace 0
#
# Run it from the root of the repository. Build outputs, the Go build
# cache and trace spans stay under .bench_build/ in that directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out"
export XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off

# The commit when the checkout is the top of a git work tree; otherwise
# a digest of the Go sources, so every result still names the code it
# measured.
commit=
if [ "$(git -C "$root" rev-parse --show-toplevel 2>/dev/null)" = "$root" ]; then
	commit=$(git -C "$root" rev-parse HEAD)
fi
if [ -z "$commit" ]; then
	commit="src-$(find . -path ./.bench_build -prune -o \( -name '*.go' -o -name go.mod \) -type f -print |
		LC_ALL=C sort | xargs sha256sum | sha256sum | cut -c1-16)"
fi

(cd perfbench && go build -o "$out/sciqlbench" .)
exec "$out/sciqlbench" --commit "$commit" "$@"
