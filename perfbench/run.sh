#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments
# (--workload, --seed, --seconds, --trace). Run it from the repository
# root; builds, the Go build cache and the trained-bundle cache all live
# under .bench_build/ there.
#
# The serving bundle is made by the repository's own commands, once per
# build of them: cmd/loggen writes the default fleet's trace, which is cut
# to its first two months (October and November 2016), and cmd/nfvtrain
# trains on those months. The cache key is the hash of the two binaries,
# so a change to anything they link retrains.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
# Keep every file the go command writes (build cache, module cache,
# telemetry counters under the user config dir) inside the checkout.
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/perfbench" && go build -trimpath -o "$out/perfbench" .)
go build -trimpath -o "$out/loggen" ./cmd/loggen
go build -trimpath -o "$out/nfvtrain" ./cmd/nfvtrain

cache="$out/perfbench-cache"
key=$(cat "$out/loggen" "$out/nfvtrain" | sha256sum | cut -c1-16)
bundle="$cache/fleet-$key.bundle"
train="$cache/fleet-$key.train.jsonl"
if [[ ! -f "$bundle" ]]; then
	mkdir -p "$cache"
	echo "run.sh: training the serving bundle (once per build of loggen and nfvtrain)" >&2
	tmp="$cache/tmp-$$"
	"$out/loggen" -out "$tmp.full.jsonl" -tickets "$tmp.tickets.csv" >&2
	# Messages are written in time order, each line starting with its
	# RFC 3339 time, so the first line at or past December 2016 ends the
	# training months.
	awk '$0 >= "{\"t\":\"2016-12-01" { exit } { print }' "$tmp.full.jsonl" >"$tmp.train.jsonl"
	rm "$tmp.full.jsonl"
	"$out/nfvtrain" -trace "$tmp.train.jsonl" -tickets "$tmp.tickets.csv" \
		-start 2016-10-01 -months 2 -out "$tmp.bundle" >&2
	mv "$tmp.train.jsonl" "$train"
	mv "$tmp.bundle" "$bundle"
	rm "$tmp.tickets.csv"
fi
exec "$out/perfbench" --bundle "$bundle" --train-trace "$train" "$@"
