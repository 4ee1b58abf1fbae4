#!/usr/bin/env bash
# Run the four job-graph table benchmarks serially (no cache) and then
# in parallel with a shared artifact cache, verify that the table
# output is byte-identical, and emit BENCH_tables.json with wall-clock
# and cache statistics per table. Also runs the interpreter microbench
# (decoded vs reference hot loop), which writes its own INTERP_JSON;
# BENCH_tables.json does not repeat it.
#
# Finally boots a `pibe serve` daemon, replays a concurrent loadgen
# mix against it, and merges its BENCH_serve.json (p50/p99 latency,
# throughput, cold vs warm cache) into the output as well.
#
# It also runs `pibe scalebench` (Linux-scale generated modules
# through core::buildImage plus one audit, on one worker and on $JOBS
# workers, with serial-vs-parallel audit identity, build-time and
# peak-RSS curves) and merges its BENCH_scale.json under the same
# provenance stamp.
#
# It also runs `pibe surface` (interprocedural target-set analysis +
# residual-attack-surface report) over a freshly built paper kernel and
# merges its BENCH_surface.json under the same provenance stamp.
#
# Usage: tools/run_all_tables.sh [BUILD_DIR] [OUT_JSON] [INTERP_JSON] [SERVE_JSON] [SCALE_JSON] [SURFACE_JSON]
#   BUILD_DIR   cmake build tree holding the bench binaries (default: build)
#   OUT_JSON    output metrics file (default: BUILD_DIR/BENCH_tables.json)
#   INTERP_JSON interpreter microbench output (default: BUILD_DIR/BENCH_interpreter.json)
#   SERVE_JSON  serve loadgen output (default: BUILD_DIR/BENCH_serve.json)
#   SCALE_JSON  scalebench output (default: BUILD_DIR/BENCH_scale.json)
#   SURFACE_JSON surface report output (default: BUILD_DIR/BENCH_surface.json)
#
# Every output defaults into the build tree, so a run leaves the
# checked-in BENCH_*.json files untouched, among them the interpreter
# and scale baselines tools/check_perf_baseline.sh gates against. Name
# a path to refresh one: `tools/run_all_tables.sh build BENCH_tables.json`.
set -euo pipefail

BUILD_DIR="${1:-build}"
OUT_JSON="${2:-$BUILD_DIR/BENCH_tables.json}"
INTERP_JSON="${3:-$BUILD_DIR/BENCH_interpreter.json}"
SERVE_JSON="${4:-$BUILD_DIR/BENCH_serve.json}"
SCALE_JSON="${5:-$BUILD_DIR/BENCH_scale.json}"
SURFACE_JSON="${6:-$BUILD_DIR/BENCH_surface.json}"
JOBS="$(nproc)"
TABLES=(table5_all_defenses table6_per_defense table3_retpolines
        table7_macrobenchmarks)

for bin in bench/table5_all_defenses bench/table6_per_defense \
           bench/table3_retpolines bench/table7_macrobenchmarks \
           tools/pibe; do
    if [[ ! -x "$BUILD_DIR/$bin" ]]; then
        echo "error: $BUILD_DIR/$bin not found;" \
             "build with: cmake -B $BUILD_DIR -S . &&" \
             "cmake --build $BUILD_DIR -j" >&2
        exit 1
    fi
done

WORK="$(mktemp -d /tmp/pibe_tables.XXXXXX)"
CACHE_DIR="$WORK/cache"
trap 'rm -rf "$WORK"' EXIT

now_ms() { date +%s%3N; }

echo "== serial reference run (--jobs 1 --no-cache) =="
serial_t0=$(now_ms)
for t in "${TABLES[@]}"; do
    t0=$(now_ms)
    "$BUILD_DIR/bench/$t" --jobs 1 --no-cache > "$WORK/$t.serial.txt"
    echo "  $t: $(( $(now_ms) - t0 )) ms"
done
serial_ms=$(( $(now_ms) - serial_t0 ))

echo "== parallel run (--jobs $JOBS, shared cache) =="
parallel_t0=$(now_ms)
for t in "${TABLES[@]}"; do
    t0=$(now_ms)
    "$BUILD_DIR/bench/$t" --jobs "$JOBS" --cache-dir "$CACHE_DIR" \
        --metrics-json "$WORK/$t.metrics.json" > "$WORK/$t.parallel.txt"
    echo "  $t: $(( $(now_ms) - t0 )) ms"
done
parallel_ms=$(( $(now_ms) - parallel_t0 ))

echo "== verifying byte-identical table output =="
for t in "${TABLES[@]}"; do
    if ! cmp -s "$WORK/$t.serial.txt" "$WORK/$t.parallel.txt"; then
        echo "FAIL: $t output differs between serial and parallel:" >&2
        diff "$WORK/$t.serial.txt" "$WORK/$t.parallel.txt" >&2 || true
        exit 1
    fi
    echo "  $t: identical"
done

speedup=$(awk -v s="$serial_ms" -v p="$parallel_ms" \
    'BEGIN { printf "%.2f", (p > 0) ? s / p : 0 }')

echo "== interpreter microbench (decoded vs reference) =="
"$BUILD_DIR/bench/microbench_interpreter" \
    --interpreter-json "$INTERP_JSON"

echo "== serve daemon loadgen (cold + warm cache) =="
SERVE_SOCK="$WORK/serve.sock"
"$BUILD_DIR/tools/pibe" serve --socket "$SERVE_SOCK" --jobs "$JOBS" \
    --drivers 64 --profile-iters 30 --cache-dir "$WORK/serve-cache" \
    > "$WORK/serve.log" 2>&1 &
SERVE_PID=$!
for _ in $(seq 1 100); do
    "$BUILD_DIR/tools/pibe" client --socket "$SERVE_SOCK" --op ping \
        > /dev/null 2>&1 && break
    sleep 0.2
done
"$BUILD_DIR/tools/pibe" loadgen --socket "$SERVE_SOCK" \
    --requests 200 --clients 8 --out "$SERVE_JSON"
"$BUILD_DIR/tools/pibe" client --socket "$SERVE_SOCK" \
    --op shutdown > /dev/null
wait "$SERVE_PID"

echo "== scalebench (generated modules, serial vs parallel audit) =="
"$BUILD_DIR/tools/pibe" scalebench --jobs "$JOBS" --out "$SCALE_JSON"

echo "== parallel check timing (pibe check --jobs --timing) =="
"$BUILD_DIR/tools/pibe" genkernel --insts 100000 --seed 42 \
    -o "$WORK/check-scale.pir" --profile "$WORK/check-scale.prof" \
    > /dev/null
"$BUILD_DIR/tools/pibe" check -m "$WORK/check-scale.pir" \
    -p "$WORK/check-scale.prof" --jobs "$JOBS" --timing --json \
    > "$WORK/check-timing.json"
echo "== residual-attack-surface report (pibe surface) =="
"$BUILD_DIR/tools/pibe" kernel -o "$WORK/surface-kernel.pir" --drivers 64
"$BUILD_DIR/tools/pibe" profile -m "$WORK/surface-kernel.pir" \
    -o "$WORK/surface-prof.txt" --iters 10
"$BUILD_DIR/tools/pibe" surface -m "$WORK/surface-kernel.pir" \
    -p "$WORK/surface-prof.txt" --json "$SURFACE_JSON" --fail-on warn

# Graft the checker timing breakdown into the scale artifact so one
# file carries the whole pipeline's perf curves, then write OUT_JSON:
# a provenance stamp (so checked-in baselines are auditable), the
# suite's wall times and every artifact above.
GIT_SHA=$(git -C "$(dirname "$0")/.." rev-parse --short HEAD \
    2>/dev/null || echo unknown)
CPU_MODEL=$(awk -F': ' '/model name/ { print $2; exit }' \
    /proc/cpuinfo 2>/dev/null || echo unknown)
CXX_ID=$("${CXX:-c++}" --version 2>/dev/null | head -1 || echo unknown)
python3 - "$OUT_JSON" "$WORK" "$SERVE_JSON" "$SCALE_JSON" \
    "$SURFACE_JSON" "$GIT_SHA" "$CXX_ID" "$CPU_MODEL" "$JOBS" \
    "$serial_ms" "$parallel_ms" "$speedup" "${TABLES[@]}" <<'EOF'
import json, sys, time

(out_path, work, serve_path, scale_path, surface_path, git_sha, cxx_id,
 cpu, jobs, serial_ms, parallel_ms, speedup, *tables) = sys.argv[1:]

def load(path):
    with open(path) as f:
        return json.load(f)

def dump(doc, path):
    with open(path, "w") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")

scale = load(scale_path)
scale["check_timing"] = load(f"{work}/check-timing.json").get("timing", {})
dump(scale, scale_path)

dump({
    "provenance": {
        "git_sha": git_sha,
        "compiler": cxx_id,
        "cpu": cpu,
        "timestamp_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                       time.gmtime()),
    },
    "jobs": int(jobs),
    "serial_wall_s": int(serial_ms) / 1000,
    "parallel_wall_s": int(parallel_ms) / 1000,
    "speedup": float(speedup),
    "output_identical": True,
    "serve": load(serve_path),
    "scale": scale,
    "surface": load(surface_path),
    "tables": [load(f"{work}/{t}.metrics.json") for t in tables],
}, out_path)
EOF

echo "== done =="
echo "serial:   ${serial_ms} ms"
echo "parallel: ${parallel_ms} ms (speedup ${speedup}x)"
echo "metrics:  $OUT_JSON (serve: $SERVE_JSON, scale: $SCALE_JSON," \
     "surface: $SURFACE_JSON)"
