#!/bin/sh
# `pibe check --json` on a module whose path holds a double quote and
# a backslash must print that path JSON-escaped in its "module" field.
#
# Usage: tools/check_json_path.sh path/to/pibe module.pir
set -u
PIBE=$1
dir=$(mktemp -d) || exit 1
trap 'rm -rf "$dir"' EXIT
mod="$dir/q\"a\\b.pir"
cp "$2" "$mod" || exit 1
"$PIBE" check -m "$mod" --json > "$dir/out.json"
[ $? -le 1 ] || exit 1
grep -qF "\"module\":\"$dir/q\\\"a\\\\b.pir\"" "$dir/out.json"
