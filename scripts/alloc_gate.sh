#!/usr/bin/env bash
# Allocation gate: every benchmark of <pkg> whose name matches <bench-regex>
# must report 0 allocs/op, at a fixed <benchtime> so the figure does not depend
# on how fast the runner is. Prints the benchmark output; the exit status is
# the gate (1 also when nothing matched, or the benchmark itself failed).
#
#   scripts/alloc_gate.sh ./internal/sim/ 'Engine(Schedule|Cancel|ParkedTimers|Hold)' 100x
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 <pkg> <bench-regex> <benchtime>" >&2
  exit 2
fi

cd "$(dirname "$0")/.."
out=$(go test -run '^$' -bench "$2" -benchmem -benchtime="$3" "$1") || { echo "$out"; exit 1; }
echo "$out"
# A result line ends "… <n> B/op <m> allocs/op": $(NF-1) is m.
echo "$out" | awk '
  /^Benchmark/ { seen++; if ($(NF-1) + 0 > 0) bad++ }
  END { if (!seen) print "alloc_gate: no benchmark matched"; exit !seen || bad > 0 }'
