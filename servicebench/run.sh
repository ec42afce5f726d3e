#!/usr/bin/env bash
# Builds pilgrimd and the benchmark binary from this checkout's sources,
# then runs the benchmark from the checkout root with the given arguments:
#
#   bash servicebench/run.sh --workload predict-cold --seed 1 --seconds 25 --trace 0
#
# Build products, the Go build cache and run logs stay under
# ${CARGO_TARGET_DIR:-.bench_build} inside the checkout.
set -euo pipefail

bench="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$bench")"
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/bin" "$out/gocache" "$out/tmp" "$out/config" "$out/gopath"

# The standard install location, for environments whose PATH lacks go.
command -v go >/dev/null || PATH="$PATH:/usr/local/go/bin"

export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export XDG_CONFIG_HOME="$out/config" GOENV=off GOFLAGS= GOWORK=off
export GOPROXY=off GOSUMDB=off GOTOOLCHAIN=local GOTELEMETRY=off

cd "$bench"
go build -o "$out/bin/pilgrimd" pilgrim/cmd/pilgrimd >&2
go build -o "$out/bin/servicebench" . >&2

cd "$root"
exec "$out/bin/servicebench" -pilgrimd "$out/bin/pilgrimd" -workdir "$out/runs" "$@"
