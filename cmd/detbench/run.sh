#!/usr/bin/env bash
# Builds detbench and detservd from this checkout and runs detbench with the
# given arguments, from the repository root:
#
#   bash cmd/detbench/run.sh --workload serve-fp --seed 1 --seconds 20 --trace 0
#   bash cmd/detbench/run.sh -seed 1 -out results.json
#
# Everything the build writes (binaries, Go build cache, temp files) stays
# under .bench_build/ at the repository root, so a run touches nothing
# outside its checkout. Without the repository's sources around this
# directory the build fails and the script exits nonzero.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/../.." && pwd)"
cd "$root"
if [[ ! -f go.mod || ! -d cmd/detservd ]]; then
	echo "run.sh: no repository sources around cmd/detbench; nothing to build" >&2
	exit 1
fi
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	XDG_CONFIG_HOME="$out/config" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOTOOLCHAIN=local GOWORK=off GOFLAGS=

# With telemetry on (the default "local" mode) the first go command under a
# fresh config directory starts a detached upload process that outlives this
# script. "go telemetry off" is the one go command that starts none, and it
# turns telemetry off for every later command under this config directory.
go telemetry off
go build -o "$out/detservd" ./cmd/detservd
(cd cmd/detbench && go build -o "$out/detbench" .)
exec "$out/detbench" -detservd "$out/detservd" "$@"
