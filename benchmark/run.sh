#!/usr/bin/env bash
# The one command: build chronicled and the benchmark from this checkout's
# source into .bench_build/ (kept out of git), then run the benchmark with
# the arguments given:
#
#   bash benchmark/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Everything the build writes stays inside the checkout: the Go build cache,
# GOPATH and HOME all point into .bench_build/. The first build in a checkout
# compiles the standard library too (about half a minute on two cores); later
# ones find everything cached.
set -euo pipefail

cd "$(dirname "$0")/.."
build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/home/.config/go/telemetry"

# With a fresh HOME the go command starts its telemetry sidecar, a detached
# child that outlives the command (and this script, when the build fails at
# once). Telemetry off means no child: every process started here has ended
# when this script ends.
echo off >"$build/home/.config/go/telemetry/mode"

# The commit goes into the header of every output. It is read here and not
# by the go tool, which refuses a repository whose owner it does not trust
# once HOME (and with it git's safe.directory list) points elsewhere. It is
# this checkout's commit or none: git does not look in the directories above.
commit=$(GIT_CEILING_DIRECTORIES="$(dirname "$PWD")" git rev-parse HEAD 2>/dev/null || echo "unknown (not a git checkout)")

gobuild() {
	env -u GOFLAGS HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" GOCACHE="$build/gocache" GOPATH="$build/gopath" \
		GOTOOLCHAIN=local GOWORK=off \
		go build -buildvcs=false -ldflags "-X 'main.buildCommit=$commit'" -o "$build/bin/$1" "$2"
}
gobuild chronicled ./cmd/chronicled
gobuild benchmark ./benchmark

exec "$build/bin/benchmark" "$@"
