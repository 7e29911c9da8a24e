#!/usr/bin/env bash
# One-command robustness gate: build with ASan+UBSan and run the test
# suite, including the seeded fuzz corpus (ctest label "fuzz").
#
#   tools/check.sh             # full tier-1 suite under ASan+UBSan
#   tools/check.sh -L fuzz     # only the fuzz/fault-injection harness
#   tools/check.sh -L parallel # (use tools/check.sh TSAN=1 ... for TSan)
#   PERF=1 tools/check.sh      # Release build + throughput regression gate
#                              # + metrics-overhead gate (ON within 2% of OFF)
#   METRICS=0 tools/check.sh   # -DDNSBS_METRICS=OFF no-op build + full suite
#   SERVE=1 tools/check.sh     # daemon smoke: replay a generated log into
#                              # dnsbs_cli serve three times — uninterrupted,
#                              # --async-windows off, and checkpoint+kill+
#                              # restore mid-stream — and require
#                              # byte-identical window summaries across all
#                              # three; then the uninterrupted and restart
#                              # runs again on hopping windows (--hop 1200)
#   FEDERATION=1 tools/check.sh  # federation smoke: 4 export-state shards
#                              # folded by `merge` must match single-sensor
#                              # `analyze` byte-for-byte (exact and sketch
#                              # modes); mismatched configs must refuse
#   OBS=1 tools/check.sh       # observability smoke: boot the daemon, scrape
#                              # GET /metrics and require the deterministic
#                              # series to match the daemon's --metrics-out
#                              # .prom byte-for-byte, capture + validate a
#                              # Chrome trace, then re-run the metrics
#                              # overhead gate (instrumented >= 98% of no-op)
#
# Extra arguments are passed straight to ctest.  Environment knobs:
#   BUILD_DIR  build tree (default: <repo>/build-asan, build-tsan, build-perf)
#   TSAN=1     swap address,undefined for thread (the two are exclusive)
#   PERF=1     skip sanitizers: Release build, run bench_perf_pipeline (the
#              end-to-end, --features, --merge and --stream scenarios) and
#              bench_ml against the committed BENCH_perf.json /
#              BENCH_perf_features.json / BENCH_perf_merge.json /
#              BENCH_perf_stream.json / BENCH_ml.json baselines and fail on
#              a >10% throughput regression on any axis; then build with
#              -DDNSBS_METRICS=OFF and fail if the instrumented build's
#              end-to-end throughput is <98% of the no-op build's
#   METRICS=0  build with -DDNSBS_METRICS=OFF (metrics layer compiled to
#              no-ops) and run the full suite; proves call sites need no
#              #ifdefs and the observability tests degrade gracefully
#   JOBS       parallelism (default: nproc)
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
JOBS="${JOBS:-$(nproc)}"

if [[ "${PERF:-0}" == "1" ]]; then
  BUILD="${BUILD_DIR:-$ROOT/build-perf}"
  GEN=()
  command -v ninja >/dev/null 2>&1 && GEN=(-G Ninja)
  cmake -B "$BUILD" -S "$ROOT" "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release \
    -DDNSBS_METRICS=ON >/dev/null
  cmake --build "$BUILD" -j"$JOBS" --target bench_perf_pipeline --target bench_ml
  # best-of-5 rather than the default 3: the gate compares against a
  # committed baseline, so scheduler noise must shrink, not inflate
  "$BUILD/bench/bench_perf_pipeline" --check "$ROOT/BENCH_perf.json" --repeat 5 "$@"
  # Feature-extraction gate: cold extraction (one fresh sensor on an
  # empty feature cache, as the daemon closes its first window) against
  # BENCH_perf_features.json, same >10% rule.
  "$BUILD/bench/bench_perf_pipeline" --features \
    --check "$ROOT/BENCH_perf_features.json" --repeat 5 "$@"
  # ML training gate: same >10% rule against the committed training/predict
  # throughput baseline (BENCH_ml.json, written by bench_ml --json).
  "$BUILD/bench/bench_ml" --check "$ROOT/BENCH_ml.json" --repeat 5 "$@"
  # Federated-merge gate: exact + sketch self-exec children over the
  # 1M+-originator scenario, checked against BENCH_perf_merge.json (merge
  # throughput both modes, plus the >=4x sketch RSS advantage — the ratio
  # is also a hard floor inside the bench itself).
  "$BUILD/bench/bench_perf_pipeline" --merge --repeat 3 \
    --check "$ROOT/BENCH_perf_merge.json" "$@"
  # Async-window-pipeline gate: streaming-driver intake throughput (whole
  # stream + boundary region) sync vs async against BENCH_perf_stream.json;
  # the >=2x async boundary-speedup acceptance floor and the sync/async
  # per-window metric byte-identity check are hard failures inside the
  # bench itself.
  "$BUILD/bench/bench_perf_pipeline" --stream --repeat 3 \
    --check "$ROOT/BENCH_perf_stream.json" "$@"

  # Metrics-overhead gate: the instrumented build must stay within 2% of a
  # -DDNSBS_METRICS=OFF no-op build on the end-to-end axis (the budget in
  # DESIGN.md "Observability").  Interleaved best-of runs per build so a
  # noisy-neighbor window hits both sides, not just one.
  BUILD_OFF="$ROOT/build-perf-noop"
  cmake -B "$BUILD_OFF" -S "$ROOT" "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release \
    -DDNSBS_METRICS=OFF >/dev/null
  cmake --build "$BUILD_OFF" -j"$JOBS" --target bench_perf_pipeline
  rate_of() {  # rate_of BINARY JSON_PATH: end-to-end rec/s, best-of-5
    "$1" --json "$2" --repeat 5 >/dev/null
    awk -F': ' '/"end_to_end_records_per_s"/ {gsub(/,/,"",$2); print $2; exit}' "$2"
  }
  on_rate=0 off_rate=0
  for round in 1 2; do
    r=$(rate_of "$BUILD/bench/bench_perf_pipeline" "$BUILD/bench_overhead_on.json")
    on_rate=$(awk -v a="$on_rate" -v b="$r" 'BEGIN { print (b > a) ? b : a }')
    r=$(rate_of "$BUILD_OFF/bench/bench_perf_pipeline" "$BUILD_OFF/bench_overhead_off.json")
    off_rate=$(awk -v a="$off_rate" -v b="$r" 'BEGIN { print (b > a) ? b : a }')
  done
  awk -v on="$on_rate" -v off="$off_rate" 'BEGIN {
    ratio = off > 0 ? on / off : 1;
    printf "metrics overhead: ON %.0f rec/s vs OFF %.0f rec/s (%.3fx)\n", on, off, ratio;
    if (ratio < 0.98) { print "metrics overhead gate FAILED: >2% slowdown"; exit 1 }
    print "metrics overhead gate passed (<2%)";
  }'
  exit 0
fi

if [[ "${METRICS:-1}" == "0" ]]; then
  BUILD="${BUILD_DIR:-$ROOT/build-metrics-off}"
  GEN=()
  command -v ninja >/dev/null 2>&1 && GEN=(-G Ninja)
  cmake -B "$BUILD" -S "$ROOT" "${GEN[@]}" -DDNSBS_METRICS=OFF >/dev/null
  cmake --build "$BUILD" -j"$JOBS"
  exec ctest --test-dir "$BUILD" --output-on-failure -j"$JOBS" "$@"
fi

if [[ "${SERVE:-0}" == "1" ]]; then
  # Daemon smoke: the checkpoint/restart byte-identity contract, end to
  # end through real sockets.  One generated query log is replayed into
  # dnsbs_cli serve twice — run A uninterrupted, run B checkpointed,
  # SHUTDOWN mid-stream, restarted with --restore, then fed the rest —
  # and the per-window summary files must be byte-identical.  Runs D and
  # E repeat that pair on hopping windows, where the cut leaves several
  # overlapping windows open.
  BUILD="${BUILD_DIR:-$ROOT/build-serve}"
  GEN=()
  command -v ninja >/dev/null 2>&1 && GEN=(-G Ninja)
  cmake -B "$BUILD" -S "$ROOT" "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD" -j"$JOBS" --target dnsbs_cli
  CLI="$BUILD/tools/dnsbs_cli"
  WORK="$(mktemp -d)"
  # `|| true`: with set -e an empty `jobs -p` makes kill fail and abort
  # the trap, which would both skip cleanup and turn a pass into exit 2.
  trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

  WORLD=(--scenario jp --scale 0.05 --seed 7)
  SERVE_ARGS=("${WORLD[@]}" --stamped --tcp-port 0 --window 3600 --min-queriers 5)
  "$CLI" generate "${WORLD[@]}" --out "$WORK/query.log"
  half=$(( $(wc -l < "$WORK/query.log") / 2 ))
  head -n "$half" "$WORK/query.log" > "$WORK/first.log"
  tail -n "+$((half + 1))" "$WORK/query.log" > "$WORK/second.log"

  start_daemon() {  # start_daemon WINDOWS_OUT EXTRA_ARGS...
    local windows_out="$1"; shift
    rm -f "$WORK/ready"
    "$CLI" serve "${SERVE_ARGS[@]}" --windows-out "$windows_out" \
      --checkpoint "$WORK/ckpt.bin" --ready-file "$WORK/ready" "$@" &
    DAEMON_PID=$!
    for _ in $(seq 300); do [[ -s "$WORK/ready" ]] && break; sleep 0.1; done  # world build takes a while
    [[ -s "$WORK/ready" ]] || { echo "daemon did not come up"; exit 1; }
    TCP_PORT=$(sed 's/.*tcp=\([0-9]*\).*/\1/' "$WORK/ready")
    STATUS_PORT=$(sed 's/.*status=\([0-9]*\).*/\1/' "$WORK/ready")
  }
  ctl() { "$CLI" ctl --to "127.0.0.1:$STATUS_PORT" --cmd "$1" >/dev/null; }
  ctl_get() { "$CLI" ctl --to "127.0.0.1:$STATUS_PORT" --cmd "$1"; }
  # Drop the sched-shaped objects (intake queue watermarks) that may
  # legitimately differ between an uninterrupted and a restarted run.
  strip_sched() { sed 's/,"sched":{[^}]*}//g'; }

  echo "serve smoke: run A (uninterrupted)"
  start_daemon "$WORK/windows_a.txt"
  "$CLI" sendlog --log "$WORK/query.log" --to "127.0.0.1:$TCP_PORT" --tcp
  ctl flush
  ctl_get history > "$WORK/history_a.json"
  ctl shutdown; wait "$DAEMON_PID"

  echo "serve smoke: run C (--async-windows off: sync close path)"
  start_daemon "$WORK/windows_c.txt" --async-windows off
  "$CLI" sendlog --log "$WORK/query.log" --to "127.0.0.1:$TCP_PORT" --tcp
  ctl flush
  ctl_get history > "$WORK/history_c.json"
  ctl shutdown; wait "$DAEMON_PID"

  echo "serve smoke: run B (checkpoint + restart mid-stream)"
  start_daemon "$WORK/windows_b.txt"
  "$CLI" sendlog --log "$WORK/first.log" --to "127.0.0.1:$TCP_PORT" --tcp
  ctl checkpoint
  ctl_get history > "$WORK/history_prekill.json"
  ctl shutdown; wait "$DAEMON_PID"
  start_daemon "$WORK/windows_b.txt" --restore
  ctl_get history > "$WORK/history_restored.json"
  "$CLI" sendlog --log "$WORK/second.log" --to "127.0.0.1:$TCP_PORT" --tcp
  ctl flush
  ctl_get history > "$WORK/history_b.json"
  ctl shutdown; wait "$DAEMON_PID"

  HOP=(--hop 1200)
  echo "serve smoke: run D (hopping windows, uninterrupted)"
  start_daemon "$WORK/windows_d.txt" "${HOP[@]}"
  "$CLI" sendlog --log "$WORK/query.log" --to "127.0.0.1:$TCP_PORT" --tcp
  ctl flush
  ctl_get history > "$WORK/history_d.json"
  ctl shutdown; wait "$DAEMON_PID"

  echo "serve smoke: run E (hopping windows, checkpoint + restart mid-stream)"
  start_daemon "$WORK/windows_e.txt" "${HOP[@]}"
  "$CLI" sendlog --log "$WORK/first.log" --to "127.0.0.1:$TCP_PORT" --tcp
  ctl checkpoint
  ctl shutdown; wait "$DAEMON_PID"
  start_daemon "$WORK/windows_e.txt" "${HOP[@]}" --restore
  "$CLI" sendlog --log "$WORK/second.log" --to "127.0.0.1:$TCP_PORT" --tcp
  ctl flush
  ctl_get history > "$WORK/history_e.json"
  ctl shutdown; wait "$DAEMON_PID"

  diff "$WORK/windows_a.txt" "$WORK/windows_b.txt" || {
    echo "serve smoke FAILED: restarted run diverged from uninterrupted run"
    exit 1
  }
  # The async window pipeline is an execution strategy, not an output
  # change: the same replay with --async-windows off must produce the
  # byte-identical summary file and (sched stripped) HISTORY.
  diff "$WORK/windows_a.txt" "$WORK/windows_c.txt" || {
    echo "serve smoke FAILED: --async-windows off diverged from async run"
    exit 1
  }
  diff <(strip_sched < "$WORK/history_a.json") \
       <(strip_sched < "$WORK/history_c.json") || {
    echo "serve smoke FAILED: sync-mode HISTORY diverged from async run"
    exit 1
  }
  # The checkpoint carries the telemetry ring at full fidelity: a restored
  # daemon must answer HISTORY exactly (sched fields included) as the
  # killed one did.
  diff "$WORK/history_prekill.json" "$WORK/history_restored.json" || {
    echo "serve smoke FAILED: HISTORY changed across checkpoint+restore"
    exit 1
  }
  # And the completed histories agree between runs once the
  # scheduling-shaped fields are stripped.
  diff <(strip_sched < "$WORK/history_a.json") \
       <(strip_sched < "$WORK/history_b.json") || {
    echo "serve smoke FAILED: restarted HISTORY diverged from uninterrupted run"
    exit 1
  }
  # Hopping windows: each window's stats are its own, so a checkpoint
  # that lands while several overlapping windows are open changes none of
  # them.
  diff "$WORK/windows_d.txt" "$WORK/windows_e.txt" || {
    echo "serve smoke FAILED: restarted hopping run diverged from uninterrupted run"
    exit 1
  }
  diff <(strip_sched < "$WORK/history_d.json") \
       <(strip_sched < "$WORK/history_e.json") || {
    echo "serve smoke FAILED: restarted hopping HISTORY diverged from uninterrupted run"
    exit 1
  }
  echo "serve smoke passed: $(grep -c '^window ' "$WORK/windows_a.txt") tumbling + $(grep -c '^window ' "$WORK/windows_d.txt") hopping windows + HISTORY byte-identical across restart"
  exit 0
fi

if [[ "${FEDERATION:-0}" == "1" ]]; then
  # Federation smoke: the N-sensor merge contract end to end through the
  # CLI.  Four originator-disjoint export-state shards folded by `merge`
  # must reproduce the single-sensor `analyze` byte-for-byte — in exact
  # mode AND in sketch mode (disjoint shards move per-originator state
  # wholesale) — and a coordinator configured differently must refuse the
  # state files.
  BUILD="${BUILD_DIR:-$ROOT/build-federation}"
  GEN=()
  command -v ninja >/dev/null 2>&1 && GEN=(-G Ninja)
  cmake -B "$BUILD" -S "$ROOT" "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD" -j"$JOBS" --target dnsbs_cli
  CLI="$BUILD/tools/dnsbs_cli"
  WORK="$(mktemp -d)"
  trap 'rm -rf "$WORK"' EXIT

  WORLD=(--scenario jp --scale 0.05 --seed 7)
  "$CLI" generate "${WORLD[@]}" --out "$WORK/query.log"

  for MODE in exact sketch; do
    KNOBS=(--querier-state "$MODE")
    [[ "$MODE" == "sketch" ]] && KNOBS+=(--sketch-threshold 8)
    echo "federation smoke: $MODE mode, 4 shards"
    "$CLI" analyze "${WORLD[@]}" "${KNOBS[@]}" --log "$WORK/query.log" \
      --csv "$WORK/single_$MODE.csv" > "$WORK/single_$MODE.txt"
    STATES=()
    for i in 0 1 2 3; do
      "$CLI" export-state "${WORLD[@]}" "${KNOBS[@]}" --log "$WORK/query.log" \
        --shards 4 --shard-index "$i" --state-out "$WORK/shard_${MODE}_$i.state"
      STATES+=(--state "$WORK/shard_${MODE}_$i.state")
    done
    "$CLI" merge "${WORLD[@]}" "${KNOBS[@]}" "${STATES[@]}" \
      --csv "$WORK/fed_$MODE.csv" > "$WORK/fed_$MODE.txt"
    diff "$WORK/single_$MODE.txt" "$WORK/fed_$MODE.txt" || {
      echo "federation smoke FAILED: $MODE merge report diverged from single sensor"
      exit 1
    }
    diff "$WORK/single_$MODE.csv" "$WORK/fed_$MODE.csv" || {
      echo "federation smoke FAILED: $MODE merge CSV diverged from single sensor"
      exit 1
    }
  done

  # Config-mismatch refusal: an exact coordinator must reject sketch state.
  if "$CLI" merge "${WORLD[@]}" --state "$WORK/shard_sketch_0.state" \
      > /dev/null 2>&1; then
    echo "federation smoke FAILED: exact coordinator accepted sketch state"
    exit 1
  fi
  echo "federation smoke passed: exact + sketch merges byte-identical, mismatch refused"
  exit 0
fi

if [[ "${OBS:-0}" == "1" ]]; then
  # Observability smoke: the live telemetry plane end to end.
  #   1. GET /metrics on a running daemon must carry the same deterministic
  #      series (sched-marked and histogram blocks stripped) as the .prom
  #      file the same process writes via --metrics-out at exit.
  #   2. A TRACE capture dumped at shutdown must be a structurally valid
  #      Chrome trace (balanced B/E, loadable JSON when python3 exists).
  #   3. The metrics-overhead budget still holds with the telemetry plane
  #      compiled in: instrumented end-to-end throughput >= 98% of a
  #      -DDNSBS_METRICS=OFF build.
  BUILD="${BUILD_DIR:-$ROOT/build-serve}"
  GEN=()
  command -v ninja >/dev/null 2>&1 && GEN=(-G Ninja)
  cmake -B "$BUILD" -S "$ROOT" "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release >/dev/null
  cmake --build "$BUILD" -j"$JOBS" --target dnsbs_cli
  CLI="$BUILD/tools/dnsbs_cli"
  WORK="$(mktemp -d)"
  trap 'kill $(jobs -p) 2>/dev/null || true; rm -rf "$WORK"' EXIT

  WORLD=(--scenario jp --scale 0.05 --seed 7)
  "$CLI" generate "${WORLD[@]}" --out "$WORK/query.log"

  rm -f "$WORK/ready"
  "$CLI" serve "${WORLD[@]}" --stamped --tcp-port 0 --window 3600 \
    --min-queriers 5 --windows-out "$WORK/windows.txt" \
    --metrics-out "$WORK/exit.prom" --trace-out "$WORK/trace.json" \
    --ready-file "$WORK/ready" &
  DAEMON_PID=$!
  for _ in $(seq 300); do [[ -s "$WORK/ready" ]] && break; sleep 0.1; done
  [[ -s "$WORK/ready" ]] || { echo "daemon did not come up"; exit 1; }
  TCP_PORT=$(sed 's/.*tcp=\([0-9]*\).*/\1/' "$WORK/ready")
  STATUS_PORT=$(sed 's/.*status=\([0-9]*\).*/\1/' "$WORK/ready")
  ctl() { "$CLI" ctl --to "127.0.0.1:$STATUS_PORT" --cmd "$1" >/dev/null; }

  ctl "trace 3600"  # long deadline: the dump happens at SHUTDOWN
  "$CLI" sendlog --log "$WORK/query.log" --to "127.0.0.1:$TCP_PORT" --tcp
  ctl flush

  # Scrape /metrics over plain HTTP/1.1 (no curl dependency): strip the
  # response headers, normalize CRLF.
  exec 3<>"/dev/tcp/127.0.0.1/$STATUS_PORT"
  printf 'GET /metrics HTTP/1.1\r\nHost: check\r\nConnection: close\r\n\r\n' >&3
  tr -d '\r' <&3 | sed '1,/^$/d' > "$WORK/scrape.prom"
  exec 3>&- 3<&-
  grep -q '^# TYPE ' "$WORK/scrape.prom" || {
    echo "observability smoke FAILED: /metrics scrape looks empty"
    exit 1
  }

  ctl shutdown; wait "$DAEMON_PID"

  # Deterministic view: drop histogram blocks and series flagged with the
  # machine-readable "# SCHED <name>" marker (same stripping rule as
  # MetricsSnapshot::deterministic_view).
  det_view() {
    awk '
      /^# TYPE /  { held = $0; skip = ($4 == "histogram"); next }
      /^# SCHED / { skip = 1; held = ""; next }
      {
        if (skip) next
        if (held != "") { print held; held = "" }
        print
      }' "$1"
  }
  det_view "$WORK/scrape.prom" > "$WORK/scrape_det.prom"
  det_view "$WORK/exit.prom" > "$WORK/exit_det.prom"
  diff "$WORK/scrape_det.prom" "$WORK/exit_det.prom" || {
    echo "observability smoke FAILED: /metrics deterministic series diverged from --metrics-out"
    exit 1
  }

  [[ -s "$WORK/trace.json" ]] || {
    echo "observability smoke FAILED: no trace written at shutdown"
    exit 1
  }
  if command -v python3 >/dev/null 2>&1; then
    python3 - "$WORK/trace.json" <<'PY'
import collections, json, sys
with open(sys.argv[1]) as fh:
    trace = json.load(fh)
depth = collections.Counter()
for event in trace["traceEvents"]:
    if event["ph"] == "B":
        depth[event["tid"]] += 1
    elif event["ph"] == "E":
        depth[event["tid"]] -= 1
        assert depth[event["tid"]] >= 0, f"orphan E on tid {event['tid']}"
assert not any(depth.values()), f"unbalanced spans: {dict(depth)}"
assert trace["traceEvents"], "empty trace"
print(f"trace OK: {len(trace['traceEvents'])} events, "
      f"{len({e['tid'] for e in trace['traceEvents']})} threads")
PY
  else
    b=$(grep -c '"ph":"B"' "$WORK/trace.json")
    e=$(grep -c '"ph":"E"' "$WORK/trace.json")
    [[ "$b" == "$e" && "$b" -gt 0 ]] || {
      echo "observability smoke FAILED: trace B/E unbalanced ($b vs $e)"
      exit 1
    }
    echo "trace OK: $b balanced span pairs (python3 unavailable, grep check)"
  fi
  echo "observability smoke passed: scrape matched --metrics-out, trace valid"

  # Overhead budget with the telemetry plane active, same interleaved
  # best-of discipline as the PERF gate.
  BUILD_ON="$ROOT/build-perf"
  BUILD_OFF="$ROOT/build-perf-noop"
  cmake -B "$BUILD_ON" -S "$ROOT" "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release \
    -DDNSBS_METRICS=ON >/dev/null
  cmake --build "$BUILD_ON" -j"$JOBS" --target bench_perf_pipeline
  cmake -B "$BUILD_OFF" -S "$ROOT" "${GEN[@]}" -DCMAKE_BUILD_TYPE=Release \
    -DDNSBS_METRICS=OFF >/dev/null
  cmake --build "$BUILD_OFF" -j"$JOBS" --target bench_perf_pipeline
  rate_of() {
    "$1" --json "$2" --repeat 5 >/dev/null
    awk -F': ' '/"end_to_end_records_per_s"/ {gsub(/,/,"",$2); print $2; exit}' "$2"
  }
  on_rate=0 off_rate=0
  for round in 1 2; do
    r=$(rate_of "$BUILD_ON/bench/bench_perf_pipeline" "$BUILD_ON/bench_obs_on.json")
    on_rate=$(awk -v a="$on_rate" -v b="$r" 'BEGIN { print (b > a) ? b : a }')
    r=$(rate_of "$BUILD_OFF/bench/bench_perf_pipeline" "$BUILD_OFF/bench_obs_off.json")
    off_rate=$(awk -v a="$off_rate" -v b="$r" 'BEGIN { print (b > a) ? b : a }')
  done
  awk -v on="$on_rate" -v off="$off_rate" 'BEGIN {
    ratio = off > 0 ? on / off : 1;
    printf "telemetry overhead: ON %.0f rec/s vs OFF %.0f rec/s (%.3fx)\n", on, off, ratio;
    if (ratio < 0.98) { print "telemetry overhead gate FAILED: >2% slowdown"; exit 1 }
    print "telemetry overhead gate passed (<2%)";
  }'
  exit 0
fi

if [[ "${TSAN:-0}" == "1" ]]; then
  SANITIZE="thread"
  BUILD="${BUILD_DIR:-$ROOT/build-tsan}"
else
  SANITIZE="address,undefined"
  BUILD="${BUILD_DIR:-$ROOT/build-asan}"
fi

# halt_on_error so a sanitizer report fails the test instead of scrolling
# past; detect_leaks stays on by default under ASan.
export ASAN_OPTIONS="${ASAN_OPTIONS:-halt_on_error=1:strict_string_checks=1}"
export UBSAN_OPTIONS="${UBSAN_OPTIONS:-halt_on_error=1:print_stacktrace=1}"

GEN=()
command -v ninja >/dev/null 2>&1 && GEN=(-G Ninja)

cmake -B "$BUILD" -S "$ROOT" "${GEN[@]}" -DDNSBS_SANITIZE="$SANITIZE" >/dev/null
cmake --build "$BUILD" -j"$JOBS"
ctest --test-dir "$BUILD" --output-on-failure -j"$JOBS" "$@"
