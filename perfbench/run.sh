#!/usr/bin/env bash
# Builds the benchmark and the hamsd daemon from the checkout's source,
# then runs one benchmark invocation. Run from the repository root:
#
#   bash perfbench/run.sh --workload colocate --seed 1 --seconds 20 --trace 0
#
# Every build product and cache stays under .bench_build/ in the
# checkout (CARGO_TARGET_DIR, when set, names that directory).
set -euo pipefail

root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/perfbench" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/ not found)" >&2
	exit 2
fi
out="${CARGO_TARGET_DIR:-.bench_build}"
case "$out" in /*) ;; *) out="$root/$out" ;; esac
mkdir -p "$out/home" "$out/tmp"

export HOME="$out/home"
export XDG_CONFIG_HOME="$out/home/.config"
export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp"
export TMPDIR="$out/tmp"
export GOPROXY=off
export GOFLAGS=
export GOTOOLCHAIN=local


(cd "$root/perfbench" && go build -o "$out/perfbench" . && go build -o "$out/hamsd" hams/cmd/hamsd)

exec "$out/perfbench" -build "$out" "$@"
