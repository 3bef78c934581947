#!/usr/bin/env bash
# Fuzz smoke: run one fuzz target for a fixed time and prove that it fuzzed.
#
# Runs `go test -fuzz TARGET -fuzztime FUZZTIME PACKAGE` with the
# minimisation of each new input bounded to 100 executions
# (-fuzzminimizetime 100x): at the default of 60 s a worker can spend the
# whole run minimising its first interesting input and execute a few dozen
# inputs. Prints the run's final execution count and fails when the target
# fails or executed fewer than 10^4 inputs.
#
# Usage: scripts/fuzz_smoke.sh TARGET FUZZTIME PACKAGE
#   e.g. scripts/fuzz_smoke.sh FuzzGroup 20s ./internal/ops
set -euo pipefail

if (($# != 3)); then
	echo "usage: $0 TARGET FUZZTIME PACKAGE" >&2
	exit 2
fi
target=$1 fuzztime=$2 pkg=$3
min=10000

log=$(mktemp)
trap 'rm -f "$log"' EXIT
go test -fuzz "$target" -fuzztime "$fuzztime" -fuzzminimizetime 100x "$pkg" 2>&1 | tee "$log"

# The fuzzer's progress lines read "fuzz: elapsed: 20s, execs: 412345 (...)";
# the last one is the run's total.
# A run that fuzzed nothing prints no such line; `|| true` lets the check
# below say so instead of pipefail ending the script silently.
execs=$(grep -o 'execs: [0-9]*' "$log" | tail -n 1 | cut -d' ' -f2 || true)
echo "fuzz smoke $target: ${execs:-no} executions in $fuzztime (floor $min)"
if [[ -z $execs ]] || ((execs < min)); then
	echo "fuzz smoke $target: fewer than $min executions" >&2
	exit 1
fi
