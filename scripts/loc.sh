#!/usr/bin/env bash
# Lines of Rust (`wc -l` over every .rs file), the size the project tracks
# like a benchmark: one line per crate under crates/, the total over
# `crates src tests examples`, and the standalone ledger/ benchmark on its
# own. The `lib` column counts non-test library lines: the lines of each
# .rs file under a `src/` directory before the file's first top-level
# `#[cfg(test)]`, so a deletion shows library code removed apart from tests
# removed. Build output under any target/ directory is skipped. It only
# prints; it is not a gate.
#
#   scripts/loc.sh        (or `just loc`)
set -euo pipefail
cd "$(dirname "$0")/.."

# Total lines of the .rs files under the given directories.
lines() {
    find "$@" -name target -prune -o -name '*.rs' -print0 | xargs -0 cat | wc -l
}

# Non-test library lines of the .rs files under the given src/ directories.
lib_lines() {
    find "$@" -name '*.rs' -print0 |
        xargs -0 awk '/^#\[cfg\(test\)\]/ { nextfile } { n++ } END { print n + 0 }' |
        awk '{ n += $1 } END { print n + 0 }'
}

printf '%-26s %6s %6s\n' "" "lines" "lib"
for crate in crates/*/; do
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$crate/Cargo.toml" | head -n 1)
    printf '%-26s %6d %6d\n' "$name" "$(lines "$crate")" "$(lib_lines "$crate/src")"
done
printf '%-26s %6d %6d\n' "crates src tests examples" "$(lines crates src tests examples)" \
    "$(lib_lines crates/*/src src)"
printf '%-26s %6d %6d\n' "ledger" "$(lines ledger)" "$(lib_lines ledger/src)"
