#!/bin/sh
# `pibe check --json --timing` must give the same diagnostics and the
# same timing phase names at --jobs 1 and --jobs 4, on a small example
# module and on a generated 10^4-instruction kernel audited with its
# profile.
#
# Usage: tools/check_jobs_identical.sh path/to/pibe module.pir
set -u
PIBE=$1
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
"$PIBE" genkernel -o "$dir/gen.pir" --insts 10000 \
    --profile "$dir/gen.prof" > /dev/null || exit 1

# compare NAME CHECK-ARGS...: audit at both job counts and compare.
compare() {
    name=$1
    shift
    for jobs in 1 4; do
        "$PIBE" check "$@" --json --timing --jobs "$jobs" \
            > "$dir/$name.$jobs.json"
        [ $? -le 1 ] || { echo "$name: check --jobs $jobs died"; exit 1; }
    done
    python3 - "$name" "$dir/$name.1.json" "$dir/$name.4.json" <<'EOF' ||
import json, sys

name, one, four = sys.argv[1], *(json.load(open(p)) for p in sys.argv[2:])
groups = [[g["name"] for g in d["timing"]["groups"]] for d in (one, four)]
if not groups[0]:
    sys.exit(f"{name}: no timing groups")
if one["diagnostics"] != four["diagnostics"]:
    sys.exit(f"{name}: diagnostics differ between --jobs 1 and 4")
if groups[0] != groups[1]:
    sys.exit(f"{name}: timing groups differ between --jobs 1 and 4")
EOF
        exit 1
}

compare example -m "$2"
compare genkernel -m "$dir/gen.pir" -p "$dir/gen.prof"
