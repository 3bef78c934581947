#!/usr/bin/env bash
# Coverage sweep: which non-test functions does nothing runnable enter?
#
# Builds the repository benchmark (bench/), cmd/msbench and every example with
# coverage instrumentation of the whole module into a temporary directory,
# runs the four benchmark workloads at seeds 1 and 2, end to end and traced,
# then every example and `msbench -repeats 1`, merges the counters with
# `go tool covdata` and prints every function none of those runs entered,
# one `file:line: name` per line. docs/COVERAGE_SWEEP.md records the decision
# for each printed function.
#
# Usage: scripts/coverage_sweep.sh [--scale full|smoke]
#   full  (default) the benchmark's own scale at --seconds 1, ~2 minutes
#   smoke the benchmark's smoke scale and a tiny SSB example; a quick check
#         that the sweep still builds and runs (its list is not the record)
# Nothing under bench/ is written: the build output, the counters and the
# benchmark's scratch files all live in the temporary directory.
set -euo pipefail

scale=full
while (($#)); do
	case $1 in
	--scale) scale=${2:?--scale needs full or smoke}; shift 2 ;;
	*) echo "usage: $0 [--scale full|smoke]" >&2; exit 2 ;;
	esac
done
case $scale in
full) ssbsf=0.01 ;;
smoke) ssbsf=0.002 ;;
*) echo "$0: --scale must be full or smoke" >&2; exit 2 ;;
esac

root=$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
bin=$tmp/bin cov=$tmp/cov
mkdir -p "$bin" "$cov" "$tmp/run"

go build -C "$root/bench" -cover -coverpkg=morphstore/... -o "$bin/bench" .
go build -C "$root" -cover -coverpkg=morphstore/... -o "$bin/msbench" ./cmd/msbench
examples=()
for dir in "$root"/examples/*/; do
	ex=$(basename "$dir")
	examples+=("$ex")
	go build -C "$root" -cover -coverpkg=morphstore/... -o "$bin/ex_$ex" "./examples/$ex"
done

# quiet runs a command with its output discarded, printing it on failure.
quiet() {
	if ! "$@" >"$tmp/out" 2>&1; then
		cat "$tmp/out" >&2
		echo "$0: failed: $*" >&2
		exit 1
	fi
}

export GOCOVERDIR=$cov
cd "$tmp/run"
for workload in ssb_seq_uncompr ssb_seq_compr ssb_par_compr ingest_query_mix; do
	for seed in 1 2; do
		for trace in 0 1; do
			quiet "$bin/bench" -workload "$workload" -seed "$seed" -trace "$trace" \
				-seconds 1 -scale "$scale"
		done
	done
done
for ex in "${examples[@]}"; do
	if [[ $ex == ssb ]]; then
		quiet "$bin/ex_$ex" -sf "$ssbsf"
	else
		quiet "$bin/ex_$ex"
	fi
done
# msbench's ceiling verdict is its own gate; here only its coverage counts.
"$bin/msbench" -repeats 1 >/dev/null 2>&1 || true

go tool covdata func -i="$cov" |
	awk '$NF == "0.0%" { sub(/^morphstore\//, "", $1); print $1, $2 }'
