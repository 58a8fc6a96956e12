#!/usr/bin/env bash
# End-to-end smoke test for the real proxy: two local backends, a hermes-lb
# instance with a worker-crash fault injected, live load, a backend kill and
# restart, and hermesctl assertions that failover and recovery actually show
# up through the admin API; a one-backend proxy with no prober whose circuit
# breaker alone evicts and readmits its backend; hermes-lb -demo, whose counts
# must add up and whose span dump must validate; then the five examples/
# mains, each run to exit 0, with examples/cachegroups' Fig. A6 table compared
# to its checked-in copy.
# CI runs this after the unit suites; it needs no tools beyond bash, awk, sed,
# diff and the go toolchain.
set -euo pipefail

cd "$(dirname "$0")/.."

LISTEN=127.0.0.1:18080
LISTEN1=127.0.0.1:18081 # the one-worker instance of phase 5
LISTEN2=127.0.0.1:18082 # the no-prober instance of phase 6
ADMIN=127.0.0.1:19900
B1=127.0.0.1:19001
B2=127.0.0.1:19002
B3=127.0.0.1:19003 # phase 6's only backend

WORK=$(mktemp -d)
PIDS=()
cleanup() {
  for pid in "${PIDS[@]:-}"; do kill "$pid" 2>/dev/null || true; done
  wait 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

fail() { echo "e2e: FAIL: $*" >&2; exit 1; }

echo "e2e: building hermes-lb, hermesctl"
go build -o "$WORK/" ./cmd/hermes-lb ./cmd/hermesctl

ctl() { "$WORK/hermesctl" -admin "$ADMIN" "$@"; }

# ctl_has REGEX ARGS...: does `hermesctl ARGS` print a line matching REGEX?
# The output is captured first: `ctl ... | grep -q` lets grep exit at the
# first match, and under pipefail the SIGPIPE hermesctl then takes on its
# next write fails a healthy run.
ctl_has() {
  local re=$1 out
  shift
  out=$(ctl "$@") && grep -Eq -- "$re" <<<"$out"
}

# One HTTP request through the proxy via bash's /dev/tcp (no curl needed).
# Prints the status line; fails the pipeline if the connection is refused.
req() {
  local path=${1:-/} listen=${2:-$LISTEN} out
  out=$(exec 3<>"/dev/tcp/${listen%:*}/${listen#*:}" &&
    printf 'GET %s HTTP/1.1\r\nHost: smoke\r\nConnection: close\r\n\r\n' "$path" >&3 &&
    head -n1 <&3 && exec 3<&- 3>&-)
  echo "$out"
}

# load N: issue N requests, count non-200s.
load() {
  local n=$1 bad=0 line
  for ((i = 0; i < n; i++)); do
    line=$(req "/r$i" || echo "CONNECT-FAIL")
    case $line in *" 200 "*) ;; *) bad=$((bad + 1)); echo "e2e:   request $i -> $line" ;; esac
  done
  echo "$bad"
}

start_backend() {
  "$WORK/hermes-lb" -serve-backend "$1" >"$WORK/backend-$2.log" 2>&1 &
  PIDS+=($!)
  echo $!
}

echo "e2e: starting backends on $B1 and $B2"
start_backend "$B1" b1 >/dev/null
B2_PID=$(start_backend "$B2" b2)

cat >"$WORK/config.yaml" <<EOF
server:
  listen: $LISTEN
  admin_listen: $ADMIN
  workers: 4
  drain_timeout: 5s
backends:
  - address: $B1
  - address: $B2
load_balancing:
  algorithm: round-robin
health_check:
  enabled: true
  path: /health
  interval: 300ms
  timeout: 200ms
  healthy_threshold: 2
  unhealthy_threshold: 2
circuit_breaker:
  enabled: true
  failure_threshold: 3
  success_threshold: 1
  timeout: 1s
buffer:
  retries: 2
EOF

echo "e2e: starting hermes-lb with a worker-crash fault (crash@1s:w1:restart=2s)"
"$WORK/hermes-lb" -config "$WORK/config.yaml" -faults "crash@1s:w1:restart=2s" \
  >"$WORK/proxy.log" 2>&1 &
PROXY_PID=$!
PIDS+=($PROXY_PID)

for i in $(seq 1 50); do
  ctl status >/dev/null 2>&1 && break
  [ "$i" = 50 ] && { cat "$WORK/proxy.log" >&2; fail "admin API never came up"; }
  sleep 0.1
done
echo "e2e: proxy up; admin answers"

# Phase 1: both backends healthy — load must be clean, status ok, and the
# injected worker crash+restart must not lose requests.
bad=$(load 40 | tail -n1)
[ "$bad" = 0 ] || fail "$bad/40 requests failed with both backends up"
ctl_has 'status: *ok' status || { ctl status; fail "status not ok with both backends up"; }
[ "$(ctl backends | grep -c yes)" = 2 ] || { ctl backends; fail "expected 2 healthy backends"; }
echo "e2e: phase 1 ok (40/40 served through worker crash window)"

# Phase 2: kill backend 2. Retries must cover the corpse (zero lost), the
# prober must evict it within ~3 intervals, and the breaker should trip.
kill "$B2_PID"
wait "$B2_PID" 2>/dev/null || true
bad=$(load 40 | tail -n1)
[ "$bad" = 0 ] || fail "$bad/40 requests failed during backend kill (retries should cover)"

for i in $(seq 1 50); do
  ctl_has "$B2.*NO" backends && break
  [ "$i" = 50 ] && { ctl backends; fail "dead backend never marked unhealthy"; }
  sleep 0.1
done
ctl_has 'status: *degraded' status || { ctl status; fail "status not degraded with a dead backend"; }
# Each breaker is inside its backend's /backends row; `circuits` renders them.
ctl_has "$B2" circuits || { ctl circuits; fail "circuits view missing $B2" ; }
ctl_has '"circuit"' -json backends || fail "/backends rows carry no circuit"
echo "e2e: phase 2 ok (backend death covered by retries, evicted by prober)"

# Phase 3: resurrect backend 2 on the same address; the prober must readmit
# it and status must return to ok.
start_backend "$B2" b2-again >/dev/null
for i in $(seq 1 100); do
  ctl_has 'status: *ok' status && break
  [ "$i" = 100 ] && { ctl backends; fail "backend never recovered"; }
  sleep 0.1
done
bad=$(load 20 | tail -n1)
[ "$bad" = 0 ] || fail "$bad/20 requests failed after recovery"
echo "e2e: phase 3 ok (backend readmitted, pool back to full strength)"

# Phase 4: the live metrics plane. Scrape /metrics while load is in flight
# and run it through the strict OpenMetrics conformance checker; the SLO
# endpoint and the dashboards must render off the same plane.
load 20 >/dev/null &
LOAD_PID=$!
ctl metrics >"$WORK/scrape.prom"
wait "$LOAD_PID" || true
ctl check prom "$WORK/scrape.prom" >/dev/null || fail "/metrics failed OpenMetrics conformance"
grep -q 'hermes_proxy_request_latency_ns_bucket' "$WORK/scrape.prom" ||
  fail "exposition missing the latency histogram family"
grep -q 'hermes_slo_state' "$WORK/scrape.prom" || fail "exposition missing the SLO gauges"
# The worker crash injected at start must be on record: faults.injected counts
# it by kind, so some slot reads at least 1.
grep -Eq '^hermes_faults_injected_total\{slot="[0-9]+"\} [1-9]' "$WORK/scrape.prom" ||
  { grep hermes_faults "$WORK/scrape.prom" >&2 || true; fail "the injected worker crash is not in /metrics"; }
# The acceptor steers every connection with the controller's compiled
# dispatch program, so each connection so far is one ebpf.jit.runs. awk reads
# to the end (no exit), so hermesctl never writes into a closed pipe.
runs=$(ctl -json stats | awk '
  /"name": "ebpf.jit.runs"/ { row = 1 }
  row && /"value"/ { gsub(/[^0-9]/, ""); print; row = 0 }')
[ "${runs:-0}" -gt 0 ] || fail "ebpf.jit.runs=${runs:-absent} in /stats: the acceptor ran no dispatch program"
# ok normally; warn is legitimate for a tick or two — the injected worker
# crash and the phase-2 backend kill can leave a few slow requests in the
# warn windows. page (or a missing verdict) is a real failure.
ctl_has 'state: *(ok|warn)' slo || { ctl slo; fail "slo monitor paging (or absent) under clean load"; }
ctl_has 'slo: *(ok|warn)' status || { ctl status; fail "status missing the SLO verdict"; }
ctl -interval 200ms -once top >"$WORK/top.out" || fail "hermesctl top -once failed"
grep -q 'WORKER' "$WORK/top.out" && grep -q "$B1" "$WORK/top.out" ||
  { cat "$WORK/top.out"; fail "hermesctl top frame incomplete"; }
ctl -interval 200ms -count 2 watch >"$WORK/watch.out" || fail "hermesctl watch failed"
[ "$(wc -l <"$WORK/watch.out")" -eq 3 ] || { cat "$WORK/watch.out"; fail "watch should print a header + 2 rows"; }
echo "e2e: phase 4 ok (scrape conformant, injected fault on record, $runs dispatch program runs, slo ok, dashboards render)"

# Phase 5: slow clients. A second proxy with ONE worker, so every connection
# shares it: an idle keep-alive connection and a request head dripped a byte
# at a time are both parked on that worker, and a third connection's request
# must still be answered at once, not after client_idle_timeout (5 s).
"$WORK/hermes-lb" -listen "$LISTEN1" -workers 1 -backends "$B1" >"$WORK/proxy1.log" 2>&1 &
PIDS+=($!)
for i in $(seq 1 50); do
  req /up "$LISTEN1" 2>/dev/null | grep -q ' 200 ' && break
  [ "$i" = 50 ] && { cat "$WORK/proxy1.log" >&2; fail "one-worker proxy never came up"; }
  sleep 0.1
done
exec 4<>"/dev/tcp/${LISTEN1%:*}/${LISTEN1#*:}"
printf 'GET /idle HTTP/1.1\r\nHost: smoke\r\n\r\n' >&4
head -n1 <&4 | grep -q ' 200 ' || fail "idle keep-alive connection got no reply"
exec 5<>"/dev/tcp/${LISTEN1%:*}/${LISTEN1#*:}"
(
  head='GET /drip HTTP/1.1 Host: smoke X-Pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa'
  for ((i = 0; i < ${#head}; i++)); do printf '%s' "${head:i:1}" >&5 2>/dev/null || exit 0; sleep 0.1; done
) &
DRIP_PID=$!
sleep 0.3
t0=$(date +%s%N)
line=$(req /third "$LISTEN1" || echo "CONNECT-FAIL")
ms=$(( ($(date +%s%N) - t0) / 1000000 ))
kill "$DRIP_PID" 2>/dev/null || true
exec 4<&- 4>&- 5<&- 5>&-
case $line in *" 200 "*) ;; *) fail "third connection behind slow clients -> $line" ;; esac
[ "$ms" -lt 1000 ] || fail "third connection waited ${ms}ms behind an idle and a dripping connection"
echo "e2e: phase 5 ok (request served in ${ms}ms beside an idle and a dripping connection)"

# Phase 6: recovery without a prober. A one-backend proxy with active health
# checks off has the circuit breaker as its only failure detector. Killing the
# backend must give 502 while failures accumulate, then 503 once the circuit
# is open; restarting it must bring 200s back through the half-open trials,
# circuit_breaker.timeout (1s) after the circuit opened.
B3_PID=$(start_backend "$B3" b3)
cat >"$WORK/noprobe.yaml" <<EOF
server:
  listen: $LISTEN2
  workers: 1
backends:
  - address: $B3
health_check:
  enabled: false
circuit_breaker:
  timeout: 1s
EOF
"$WORK/hermes-lb" -config "$WORK/noprobe.yaml" >"$WORK/proxy2.log" 2>&1 &
PIDS+=($!)
for i in $(seq 1 50); do
  req /up "$LISTEN2" 2>/dev/null | grep -q ' 200 ' && break
  [ "$i" = 50 ] && { cat "$WORK/proxy2.log" >&2; fail "no-prober proxy never came up"; }
  sleep 0.1
done
kill "$B3_PID"
wait "$B3_PID" 2>/dev/null || true
codes=""
for i in $(seq 1 10); do
  code=$(req /down "$LISTEN2" | awk '{print $2}')
  codes="$codes $code"
  [ "$code" = 503 ] && break
done
case $codes in " 502"*" 503") ;; *) fail "backend down: statuses$codes, want 502s then 503" ;; esac
start_backend "$B3" b3-again >/dev/null
for i in $(seq 1 60); do
  req /back "$LISTEN2" | grep -q ' 200 ' && break
  [ "$i" = 60 ] && fail "backend back for 6 s, the no-prober proxy still refuses it"
  sleep 0.1
done
for i in $(seq 1 10); do
  line=$(req "/again$i" "$LISTEN2")
  case $line in *" 200 "*) ;; *) fail "request $i after readmission -> $line" ;; esac
done
echo "e2e: phase 6 ok (statuses$codes while down, 200s again once the backend returned)"

# Final: stats must reconcile, and shutdown must drain cleanly (exit 0).
# /stats is the registry's snapshot: served is the proxy.worker.requests_served
# row, its per-worker values summed.
ctl_has '^proxy\.worker\.requests_served .*total=' stats || fail "stats rendering broken"
served=$(ctl -json stats | awk '
  /"name": "proxy.worker.requests_served"/ { row = 1 }
  row && /"values"/ { vals = 1; next }
  vals && /\]/ { print sum + 0; exit }
  vals { gsub(/[^0-9]/, ""); sum += $0 }')
[ "${served:-0}" -ge 100 ] || fail "served=$served, want >= 100"
ctl_has 'selection bitmap:' stats || fail "scheduler state missing from stats"

kill -TERM "$PROXY_PID"
if ! wait "$PROXY_PID"; then
  cat "$WORK/proxy.log" >&2
  fail "proxy exited non-zero on graceful shutdown"
fi
echo "e2e: proxy ok (served=$served, graceful drain clean)"

# The real-socket demo: hermes-lb -demo runs its own origins and a client
# fleet of 2000 requests through the one run path. Its per-worker counts are
# read after the drain, so they add up to every request the clients sent; its
# span dump is JSONL whatever the file is called.
timeout 30 "$WORK/hermes-lb" -demo -trace "$WORK/demo.json" >"$WORK/demo.log" 2>&1 ||
  { cat "$WORK/demo.log" >&2; fail "hermes-lb -demo did not exit 0 within 30 s"; }
grep -q '^requests: 2000 ok, 0 failed' "$WORK/demo.log" ||
  fail "hermes-lb -demo: $(grep '^requests:' "$WORK/demo.log"), want requests: 2000 ok, 0 failed"
handled=$(awk '/^w[0-9]+ / { sum += $2 } END { print sum + 0 }' "$WORK/demo.log")
[ "$handled" = 2000 ] || { cat "$WORK/demo.log" >&2; fail "hermes-lb -demo: workers handled $handled, want 2000"; }
"$WORK/hermesctl" check spans "$WORK/demo.json" >/dev/null || fail "hermes-lb -demo -trace demo.json: not a span dump"
echo "e2e: demo ok (2000 requests, handled sums to 2000, span dump valid)"

# The five examples/ mains are programs, not just things that compile: each
# must run to exit 0 (built, they take well under a second apiece). This is
# what evaluates the mechanisms only an example reaches — core.WithGroups /
# WithGroupKey (Fig. A6) through examples/cachegroups.
echo "e2e: building and running the examples"
mkdir "$WORK/examples"
go build -o "$WORK/examples/" ./examples/...
for ex in "$WORK"/examples/*; do
  timeout 30 "$ex" >"$ex.log" 2>&1 || { tail -n 20 "$ex.log" >&2; fail "examples/${ex##*/} did not exit 0 within 30 s"; }
done
[ "$(ls "$WORK"/examples/*.log | wc -l)" -eq 5 ] || fail "expected five examples, ran $(ls "$WORK"/examples/*.log | wc -l)"
# The Fig. A6 table is seed-deterministic: pin it, so a change that moves
# group steering (a warm-up that no longer fills a group's bitmap) fails here
# rather than printing different numbers.
sed -n '/^== Fig A6/,/^$/{/^$/d;p}' "$WORK/examples/cachegroups.log" | diff -u examples/cachegroups/figA6.txt - \
  || fail "examples/cachegroups: Fig. A6 table differs from examples/cachegroups/figA6.txt"
echo "e2e: PASS (served=$served, demo counted, five examples ran)"
