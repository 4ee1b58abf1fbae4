#!/bin/sh
# `pibe check --json --timing` must print byte-identical diagnostics
# and the same timing phase names at --jobs 1 and --jobs 4, on a small
# example module and on a generated 10^4-instruction kernel audited
# with its profile.
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
        # The diagnostics array is the last field, from line 1 on.
        sed '1s/.*"diagnostics"://' "$dir/$name.$jobs.json" \
            > "$dir/$name.$jobs.diags"
        head -n 1 "$dir/$name.$jobs.json" |
            sed 's/.*"groups":\[\([^]]*\)\].*/\1/' |
            grep -o '"name":"[^"]*"' > "$dir/$name.$jobs.groups"
    done
    [ -s "$dir/$name.1.groups" ] || { echo "$name: no timing groups"; exit 1; }
    cmp "$dir/$name.1.diags" "$dir/$name.4.diags" ||
        { echo "$name: diagnostics differ between --jobs 1 and 4"; exit 1; }
    cmp "$dir/$name.1.groups" "$dir/$name.4.groups" ||
        { echo "$name: timing groups differ between --jobs 1 and 4"; exit 1; }
}

compare example -m "$2"
compare genkernel -m "$dir/gen.pir" -p "$dir/gen.prof"
