#!/usr/bin/env bash
# Public functions that nothing outside their crate names: every `pub fn`
# (free function or method) in the non-test source of the six product
# crates — the lines before a file's first unindented `#[cfg(test)]`, as
# in src-lines.sh — whose name appears as a word in no other Rust file of
# the repository: the other crates, every crate's `tests/` and benches,
# `examples/`, the root facade and its `tests/`, `benchmark/`. Comments
# are dropped first. Each such function prints as `FILE:LINE NAME`, and
# the exit status is 1 when anything printed, so CI fails on it.
#
# Matching by word is a lower bound: a name used elsewhere for something
# else (`new`, `len`, `test`) hides a function nothing calls. The
# documented entry points README.md's "Public surface" section lists as
# bullets are kept without a caller and skipped.
#
#   scripts/pub-callers.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# The last path segment of every `name` on a bullet of that section.
skip=$(awk '/^## / { on = ($0 == "## Public surface") } on && /^- /' README.md |
    grep -oE '`[A-Za-z_][A-Za-z0-9_:]*`' | tr -d '`' | sed 's/.*:://' | sort -u || true)

# `FILE:LINE NAME` of every pub fn in crate $1's non-test source.
pub_fns() {
    find "crates/$1/src" -name '*.rs' | sort | while IFS= read -r f; do
        awk '/^#\[cfg\(test\)\]/ { exit }
             match($0, /^[ \t]*pub (const )?fn [A-Za-z_][A-Za-z0-9_]*/) {
                 n = split(substr($0, RSTART, RLENGTH), w, " ")
                 print FILENAME ":" FNR " " w[n]
             }' "$f"
    done
}

# Every word of the Rust files outside crate $1's source, comments dropped.
words_outside() {
    find crates examples benchmark tests src -name '*.rs' \
        -not -path "crates/$1/src/*" -not -path '*/target/*' -print0 |
        xargs -0 sed 's#//.*##' | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u
}

unnamed=$(for crate in geom raster index filters datagen core; do
    pub_fns "$crate" |
        awk 'NR == FNR { known[$0]; next } !($2 in known)' \
            <(words_outside "$crate"; printf '%s\n' "$skip") -
done)
[ -z "$unnamed" ] && exit 0
printf '%s\n' "$unnamed"
exit 1
