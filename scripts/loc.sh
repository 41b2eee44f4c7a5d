#!/usr/bin/env bash
# Lines of Rust (`wc -l` over every .rs file), the size the project tracks
# like a benchmark: one line per crate under crates/, the total over
# `crates src tests examples`, and the standalone ledger/ benchmark on its
# own. Build output under any target/ directory is skipped. It only prints;
# it is not a gate.
#
#   scripts/loc.sh        (or `just loc`)
set -euo pipefail
cd "$(dirname "$0")/.."

# Total lines of the .rs files under the given directories.
lines() {
    find "$@" -name target -prune -o -name '*.rs' -print0 | xargs -0 cat | wc -l
}

for crate in crates/*/; do
    name=$(sed -n 's/^name = "\(.*\)"$/\1/p' "$crate/Cargo.toml" | head -n 1)
    printf '%-26s %6d\n' "$name" "$(lines "$crate")"
done
printf '%-26s %6d\n' "crates src tests examples" "$(lines crates src tests examples)"
printf '%-26s %6d\n' "ledger" "$(lines ledger)"
