#!/usr/bin/env bash
# Records one set of runs for `bench -compare`: per workload, RUNS end-to-end
# runs on seeds FIRST..FIRST+RUNS-1 and one traced run on seed FIRST, appended
# to OUT as JSON lines.
#   bench/sets.sh OUT [FIRST=1] [RUNS=10]
set -euo pipefail
out=${1:?usage: bench/sets.sh OUT [FIRST=1] [RUNS=10]}
first=${2:-1}
runs=${3:-10}
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
for w in ssb_seq_uncompr ssb_seq_compr ssb_par_compr ingest_query_mix; do
	for ((seed = first; seed < first + runs; seed++)); do
		bash "$here/run.sh" --workload "$w" --seed "$seed" --trace 0 --record "$out" >/dev/null
	done
	bash "$here/run.sh" --workload "$w" --seed "$first" --trace 1 --record "$out" >/dev/null
done
