#!/usr/bin/env bash
# The benchmark's one command (BENCHMARK.json "command"). It builds qdload
# from this checkout and hands it the arguments; qdload then builds the
# shipped binaries before any clock starts. Everything the Go toolchain
# writes — build cache, temporaries, telemetry — is kept inside the checkout,
# under .bench_build/.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
# Without the program's source there is nothing to measure: say so and leave
# before the Go toolchain is started at all.
for f in go.mod cmd/qdbuild cmd/qdserve cmd/qdrouter; do
	if [ ! -e "$f" ]; then
		echo "bench/run.sh: $PWD/$f is missing: this checkout does not hold the program" >&2
		exit 2
	fi
done
B="$PWD/.bench_build"
mkdir -p "$B/bin" "$B/tmp" "$B/home"
export HOME="$B/home" XDG_CONFIG_HOME="$B/home/.config" XDG_CACHE_HOME="$B/home/.cache"
export GOCACHE="$B/gocache" GOPATH="$B/gopath" GOMODCACHE="$B/gopath/pkg/mod"
export GOTMPDIR="$B/tmp" TMPDIR="$B/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOPROXY=off
# With a fresh HOME the go command's telemetry mode is "local", and every go
# invocation may then detach a sidecar process that outlives it. The mode is
# a file, not an environment variable; "off" starts no sidecar.
mkdir -p "$XDG_CONFIG_HOME/go/telemetry"
echo off >"$XDG_CONFIG_HOME/go/telemetry/mode"
go build -o "$B/bin/qdload" ./bench/qdload
exec "$B/bin/qdload" "$@"
