#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it. Run from the
# root of a checkout of the repository:
#
#   bash e2ebench/run.sh --workload compile-corpus --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (binary, Go build cache, Go config) stays
# under .bench_build/ in the checkout.
set -euo pipefail

root="$(pwd)"
if [[ ! -f "$root/go.mod" || ! -d "$root/internal" || ! -f "$root/e2ebench/go.mod" ]]; then
	echo "e2ebench: run from the root of a repository checkout" >&2
	exit 2
fi
out="$root/.bench_build/e2ebench"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
# Stamp the commit only when the checkout is itself a git work tree; a
# checkout that merely sits inside some other repository must still build.
buildvcs=false
[[ -e "$root/.git" ]] && buildvcs=auto
(cd "$root/e2ebench" && go build -buildvcs="$buildvcs" -o "$out/e2ebench" .)
exec "$out/e2ebench" "$@"
