#!/usr/bin/env bash
# Perf smoke gates: fail if a freshly measured benchmark regresses
# more than 10% below/above the checked-in baseline.
#
#   tools/check_perf_baseline.sh NEW.json [BASELINE.json]
#   tools/check_perf_baseline.sh --scale NEW_SCALE.json [BASELINE.json]
#
# Default mode gates BENCH_interpreter.json artifacts (written by
# `microbench_interpreter --interpreter-json`) on `speedup`: the
# peak-window throughput of the fused decoded switch loop over that of
# the reference loop, both measured in the same run on the same host.
# The ratio, unlike an absolute Minstr/s, does not move with the speed
# of the runner, so a baseline recorded on one CPU can gate another.
# It cannot see a slowdown that hits both loops equally. BASELINE
# defaults to the BENCH_interpreter.json committed at the repo root.
#
# --scale gates BENCH_scale.json artifacts (written by
# `pibe scalebench`): the serial build-and-audit time of the
# 10^5-instruction module must not exceed the baseline's by more than
# the margin (PIBE_SCALE_MARGIN, default 1.5 — wall-clock on a shared
# or cross-machine runner is far noisier than the interpreter's
# peak-window throughput, so this is a coarse guard against
# order-of-magnitude blow-ups; tighten the margin locally when
# comparing against a baseline regenerated on the same idle box), and
# every serial-vs-parallel comparison (image digest and sorted
# diagnostics) must have matched.
#
# The 10% speedup margin absorbs run-to-run noise on shared CI runners
# (the interpreter benchmark already reports a peak window, which
# removes most scheduler-induced variance); a real regression of the
# decoded loop shows up far larger than that.
set -euo pipefail

MODE=interpreter
if [ "${1:-}" = "--scale" ]; then
    MODE=scale
    shift
fi

NEW="${1:?usage: check_perf_baseline.sh [--scale] NEW.json [BASELINE.json]}"

if [ "$MODE" = "scale" ]; then
    BASELINE="${2:-$(dirname "$0")/../BENCH_scale.json}"
    MARGIN="${PIBE_SCALE_MARGIN:-1.5}"
    python3 - "$NEW" "$BASELINE" "$MARGIN" <<'EOF'
import json, sys

new_path, base_path, margin = sys.argv[1], sys.argv[2], float(sys.argv[3])

def load(path):
    with open(path) as f:
        return json.load(f)

def row_at(doc, insts):
    for row in doc["sizes"]:
        if row.get("target_insts") == insts:
            return row
    sys.exit(f"FAIL: no {insts}-inst row in scalebench artifact")

new_doc, base_doc = load(new_path), load(base_path)

if not new_doc.get("all_digests_match", False):
    print("FAIL: serial vs parallel image digests or diagnostics "
          "diverged",
          file=sys.stderr)
    sys.exit(1)

GATE_INSTS = 100000
new_ms = row_at(new_doc, GATE_INSTS)["serial_build_ms"]
base_ms = row_at(base_doc, GATE_INSTS)["serial_build_ms"]
ceiling = base_ms * margin
print(f"serial_build_ms @ 10^5: measured {new_ms:.0f}, "
      f"baseline {base_ms:.0f}, ceiling {ceiling:.0f} "
      f"({margin:.0%} of baseline)")
if new_ms > ceiling:
    print("FAIL: pipeline build time regressed "
          f"{new_ms / base_ms - 1:.1%} above the checked-in baseline",
          file=sys.stderr)
    sys.exit(1)
print("OK")
EOF
    exit 0
fi

BASELINE="${2:-$(dirname "$0")/../BENCH_interpreter.json}"
MARGIN="${PIBE_PERF_MARGIN:-0.90}"

python3 - "$NEW" "$BASELINE" "$MARGIN" <<'EOF'
import json, sys

new_path, base_path, margin = sys.argv[1], sys.argv[2], float(sys.argv[3])

def load(path):
    with open(path) as f:
        return json.load(f)

new_doc, base_doc = load(new_path), load(base_path)
new, base = new_doc["speedup"], base_doc["speedup"]
floor = base * margin
print(f"speedup (decoded / reference): measured {new:.3f} "
      f"({new_doc['decoded_minstr_per_s']:.1f} / "
      f"{new_doc['reference_minstr_per_s']:.1f} Minstr/s), "
      f"baseline {base:.3f}, floor {floor:.3f} "
      f"({margin:.0%} of baseline)")
if new < floor:
    print("FAIL: decoded interpreter speedup regressed "
          f"{(1 - new / base):.1%} below the checked-in baseline",
          file=sys.stderr)
    sys.exit(1)
print("OK")
EOF
