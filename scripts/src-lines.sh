#!/usr/bin/env bash
# Non-test source lines: for every product source file, the lines before
# its first top-level (unindented) `#[cfg(test)]` — the test module —
# summed per crate; the figure the simplicity PRs in CHANGES.md report.
# An indented `#[cfg(test)]` on an item inside an `impl` does not end the
# count. Integration tests, benches and examples are not product source
# and are not counted.
#
#   scripts/src-lines.sh              every file, per-crate totals, then
#                                     `== product` and `== vendored`
#   scripts/src-lines.sh FILE...      just these files and their total
set -euo pipefail
cd "$(dirname "$0")/.."

count() { awk '/^#\[cfg\(test\)\]/ { exit } { n++ } END { print n + 0 }' "$1"; }

if [ "$#" -gt 0 ]; then
    total=0
    for f in "$@"; do
        n=$(count "$f")
        printf '%6d  %s\n' "$n" "$f"
        total=$((total + n))
    done
    printf '%6d  total\n' "$total"
    exit
fi

# `== product` is this repository's own source (crates + the root facade);
# `== vendored` the offline stand-ins for published crates under vendor/.
report() {
    local label=$1 total=0 dir subtotal f n
    shift
    for dir in "$@"; do
        [ -d "$dir" ] || continue
        subtotal=0
        while IFS= read -r f; do
            n=$(count "$f")
            printf '%6d  %s\n' "$n" "$f"
            subtotal=$((subtotal + n))
        done < <(find "$dir" -name '*.rs' | sort)
        printf '%6d  == %s\n' "$subtotal" "${dir%/src}"
        total=$((total + subtotal))
    done
    printf '%6d  == %s\n' "$total" "$label"
}
report product crates/*/src src
report vendored vendor/*/src
