#!/usr/bin/env bash
# Builds the benchmark and kampaignd from this checkout's sources, then
# runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload bitflip-inproc --seed 2003 --seconds 25 --trace 0
#
# Everything it builds or writes stays under .perfbench/ in the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal || ! -d cmd/kampaignd ]]; then
	echo "perfbench: run from the repository root (go.mod, internal/ and cmd/kampaignd not found)" >&2
	exit 2
fi

root=$(pwd)
state="$root/.perfbench"
mkdir -p "$state/bin" "$state/gocache" "$state/tmp" "$state/gopath"
export GOCACHE="$state/gocache" GOTMPDIR="$state/tmp" TMPDIR="$state/tmp" GOPATH="$state/gopath"
export GOTOOLCHAIN=local GOWORK=off GOFLAGS=

(cd perfbench && go build -o "$state/bin/perfbench" . && go build -o "$state/bin/kampaignd" repro/cmd/kampaignd) >&2

exec "$state/bin/perfbench" -kampaignd "$state/bin/kampaignd" "$@"
