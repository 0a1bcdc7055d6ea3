#!/usr/bin/env bash
# Builds perfbench from this checkout's sources and runs it with the given
# arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-guarded --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (compiler cache, binary) stays under
# .bench_build/ in the working directory.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and perfbench/ must be present)" >&2
	exit 2
fi

root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath" \
	GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" XDG_CONFIG_HOME="$build/config" \
	GOENV=off GOTOOLCHAIN=local GOFLAGS= CGO_ENABLED=0

commit=unknown
if [[ -d .git ]] && command -v git >/dev/null; then
	commit=$(git rev-parse --short=12 HEAD 2>/dev/null || echo unknown)
fi
# The source digest identifies the measured code when the checkout is not
# a git repository. It is provenance only, so failing to compute it is not
# fatal.
source_digest=$(find go.mod internal perfbench -type f \( -name '*.go' -o -name go.mod \) -print0 |
	LC_ALL=C sort -z | xargs -0 sha256sum | sha256sum | cut -c1-12) || source_digest=unknown

(cd perfbench && go build -o "$build/perfbench" .)
PERFBENCH_COMMIT=$commit PERFBENCH_SOURCE=$source_digest exec "$build/perfbench" "$@"
