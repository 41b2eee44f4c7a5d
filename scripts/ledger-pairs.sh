#!/usr/bin/env bash
# Compare the ledger benchmark between a base commit and the working tree.
#
#   scripts/ledger-pairs.sh BASE [PAIRS] [SECONDS]
#
# Builds the ledger of BASE (any commit-ish) and of the working tree, each
# into its own CARGO_TARGET_DIR. Then it runs PAIRS (default 10) pairs per
# workload: both sides on one fresh --seed per pair, at equal --seconds
# (default 3), with the side that runs first alternating from pair to pair.
# For each workload and each end-to-end metric of BENCHMARK.json it prints
# both medians and quartiles, the change's wins and ties over the pairs, and
# a verdict by the two-commit rule of ledger/README.md:
#
#   identical   every pair read the same value (a modeled metric, equal seeds)
#   gain        the change wins at least 9 of 10 pairs, and its median is
#               better than the base's by more than the base's interquartile
#               range
#   flat        the change's median is within the metric's bound of the base's
#   worse       the change's median is worse than the base's by more than the
#               bound
#   unresolved  the base's own spread (interquartile range over median) is
#               wider than the bound
#
# Under a metric it calls worse or unresolved, it prints both sides' values
# pair by pair, so a bimodal reading shows as two clusters rather than as a
# jump in the median.
#
# The quartiles follow the ledger's own (Python's `statistics.quantiles`,
# exclusive method). BASE is extracted with `git archive`, so nothing is
# registered in the repository and an interrupted run leaves no worktree
# behind.
#
# With TRACE=1 it then runs PAIRS more alternating pairs per workload with
# `--trace 1` (the same seeds) and prints, per layer, both sides' median
# `ns_per_call`, their ratio and the change's wins (step 7 of the README's
# "Comparing two commits": which layer's time moved). Traced runs pay the
# tracer's overhead, so their end-to-end metrics are not compared. Under
# each workload's layers it prints both sides' median
# `trace.overhead_frac`: a traced run whose wrappers send it down another
# path than the untraced run takes shows there as a jump.
#
# Environment:
#   WORKLOADS         space-separated workloads (default: every workload in
#                     BENCHMARK.json)
#   SEED              the first pair's seed (default 1); pair i uses SEED + i
#   TRACE             1 adds the traced pairs and the per-layer table
#   LEDGER_PAIRS_DIR  builds and raw result lines
#                     (default: ${TMPDIR:-/tmp}/ledger-pairs)
set -euo pipefail

usage() {
    echo "usage: scripts/ledger-pairs.sh BASE [PAIRS] [SECONDS]" >&2
    exit 2
}

[[ $# -ge 1 && $# -le 3 ]] || usage
base_ref=$1
pairs=${2:-10}
seconds=${3:-3}
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
[[ $seconds =~ ^[0-9]+(\.[0-9]+)?$ ]] || usage

repo=$(git rev-parse --show-toplevel)
base_sha=$(git -C "$repo" rev-parse --verify "$base_ref^{commit}")
work=${LEDGER_PAIRS_DIR:-${TMPDIR:-/tmp}/ledger-pairs}
first_seed=${SEED:-1}
benchmark=$repo/BENCHMARK.json
if [[ -z ${WORKLOADS:-} ]]; then
    WORKLOADS=$(sed -n '/"workloads"/,/\]/p' "$benchmark" | sed -n 's/.*{"name": "\([^"]*\)".*/\1/p')
fi
# One "name better bound" line per end-to-end metric.
metrics=$(sed -n '/"end_to_end"/,/\]/p' "$benchmark" |
    sed -n 's/.*"name": "\([^"]*\)".*"better": "\([a-z]*\)", "bound": \([0-9.]*\).*/\1 \2 \3/p')
# Every layer with a per-call time, in BENCHMARK.json order.
layers=$(sed -n '/"per_layer"/,/\]/p' "$benchmark" |
    sed -n 's/.*"name": "\([^"]*\)\.ns_per_call".*/\1/p')

# The base tree and its target directory are keyed by commit, so a
# different BASE never reuses a binary built from other sources.
base_tree=$work/base-$base_sha
base_target=$work/target-$base_sha
change_target=$work/target-change
mkdir -p "$work/results"
if [[ ! -d $base_tree ]]; then
    mkdir -p "$base_tree.partial"
    git -C "$repo" archive "$base_sha" | tar -x -C "$base_tree.partial"
    mv "$base_tree.partial" "$base_tree"
fi
echo "building base ${base_sha:0:12} and the working tree" >&2
CARGO_TARGET_DIR=$base_target cargo build --release -q --offline \
    --manifest-path "$base_tree/ledger/Cargo.toml"
CARGO_TARGET_DIR=$change_target cargo build --release -q --offline \
    --manifest-path "$repo/ledger/Cargo.toml"

# run SIDE WORKLOAD SEED PAIR KIND: one ledger run, traced when KIND is
# "trace"; keeps its JSON result line.
run() {
    local side=$1 workload=$2 seed=$3 pair=$4 kind=$5 target
    if [[ $side == base ]]; then target=$base_target; else target=$change_target; fi
    local out=$work/results/$workload.$side.$kind.$pair.json trace=()
    if [[ $kind == trace ]]; then trace=(--trace 1); fi
    if ! CARGO_TARGET_DIR=$target "$target/release/ledger" --workload "$workload" \
        --seed "$seed" --seconds "$seconds" "${trace[@]}" 2>/dev/null | tail -n 1 >"$out"; then
        echo "warning: $side $workload seed $seed exited non-zero" >&2
    fi
    if ! grep -q '^{"correct": true, "attempted": [0-9]*, "failed": 0,' "$out"; then
        echo "warning: $side $workload seed $seed reported failed checks" >&2
    fi
}

# run_pairs WORKLOAD KIND: PAIRS alternating pairs, one fresh seed each.
run_pairs() {
    local workload=$1 kind=$2 pair seed
    for ((pair = 0; pair < pairs; pair++)); do
        seed=$((first_seed + pair))
        echo "$workload $kind pair $((pair + 1))/$pairs (seed $seed)" >&2
        if ((pair % 2 == 0)); then
            run base "$workload" "$seed" "$pair" "$kind"
            run change "$workload" "$seed" "$pair" "$kind"
        else
            run change "$workload" "$seed" "$pair" "$kind"
            run base "$workload" "$seed" "$pair" "$kind"
        fi
    done
}

# values SIDE WORKLOAD KIND METRIC: the metric's value in each pair's line.
values() {
    local pair out=()
    for ((pair = 0; pair < pairs; pair++)); do
        out+=("$(value "$work/results/$2.$1.$3.$pair.json" "$4")")
    done
    echo "${out[*]}"
}

# value FILE METRIC: the metric's value in a result line.
value() {
    sed -n "s/.*\"$2\": {\"value\": \([^,]*\),.*/\1/p" "$1"
}

printf '%-14s %-19s %35s %35s %7s %5s  %s\n' workload metric \
    "base median [q1, q3]" "change median [q1, q3]" wins ties verdict
for workload in $WORKLOADS; do
    run_pairs "$workload" plain
    while read -r metric better bound; do
        awk -v workload="$workload" -v metric="$metric" -v better="$better" -v bound="$bound" \
            -v base="$(values base "$workload" plain "$metric")" \
            -v change="$(values change "$workload" plain "$metric")" '
            # Median and quartiles as the ledger computes them (Python
            # statistics.quantiles, exclusive method).
            function summarize(values, n, out,    sorted, i, j, k, t, m, q, d) {
                for (i = 1; i <= n; i++) sorted[i] = values[i]
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && sorted[j - 1] > sorted[j]; j--) {
                        t = sorted[j]; sorted[j] = sorted[j - 1]; sorted[j - 1] = t
                    }
                out["median"] = n % 2 ? sorted[(n + 1) / 2] : (sorted[n / 2] + sorted[n / 2 + 1]) / 2
                if (n == 1) { out["q1"] = out["q3"] = out["median"]; return }
                m = n + 1
                for (q = 1; q <= 3; q += 2) {
                    k = int(q * m / 4)
                    if (k < 1) k = 1
                    if (k > n - 1) k = n - 1
                    d = q * m - k * 4
                    out["q" q] = (sorted[k] * (4 - d) + sorted[k + 1] * d) / 4
                }
            }
            # The values in pair order.
            function listed(values, n,    i, out) {
                for (i = 1; i <= n; i++) out = out sprintf(" %.4g", values[i])
                return out
            }
            BEGIN {
                n = split(base, b, " ")
                if (split(change, c, " ") != n || n == 0) {
                    printf "%-14s %-19s missing values\n", workload, metric
                    exit
                }
                sign = better == "higher" ? 1 : -1
                wins = ties = 0
                for (i = 1; i <= n; i++) {
                    if (c[i] == b[i]) ties++
                    else if (sign * (c[i] - b[i]) > 0) wins++
                }
                summarize(b, n, bs)
                summarize(c, n, cs)
                iqr = bs["q3"] - bs["q1"]
                gain = sign * (cs["median"] - bs["median"])
                scale = bs["median"] < 0 ? -bs["median"] : bs["median"]
                if (ties == n) verdict = "identical"
                else if (wins * 10 >= 9 * n && gain > iqr) verdict = "gain"
                else if (scale > 0 && iqr / scale > bound) verdict = "unresolved"
                else if (-gain <= bound * scale) verdict = "flat"
                else verdict = "worse"
                printf "%-14s %-19s %12.6g [%9.4g, %9.4g] %12.6g [%9.4g, %9.4g] %3d/%-3d %5d  %s\n",
                    workload, metric, bs["median"], bs["q1"], bs["q3"],
                    cs["median"], cs["q1"], cs["q3"], wins, n, ties, verdict
                if (verdict == "worse" || verdict == "unresolved") {
                    printf "%-34s base pairs:  %s\n", "", listed(b, n)
                    printf "%-34s change pairs:%s\n", "", listed(c, n)
                }
            }'
    done <<<"$metrics"
done

[[ ${TRACE:-} == 1 ]] || exit 0
printf '\n%-14s %-19s %15s %15s %12s %6s\n' workload "layer ns_per_call" \
    "base median" "change median" change/base wins
for workload in $WORKLOADS; do
    run_pairs "$workload" trace
    for metric in $(printf '%s.ns_per_call ' $layers) trace.overhead_frac; do
        layer=${metric%.ns_per_call}
        awk -v workload="$workload" -v layer="$layer" \
            -v base="$(values base "$workload" trace "$metric")" \
            -v change="$(values change "$workload" trace "$metric")" '
            function median(values, n,    sorted, i, j, t) {
                for (i = 1; i <= n; i++) sorted[i] = values[i]
                for (i = 2; i <= n; i++)
                    for (j = i; j > 1 && sorted[j - 1] > sorted[j]; j--) {
                        t = sorted[j]; sorted[j] = sorted[j - 1]; sorted[j - 1] = t
                    }
                return n % 2 ? sorted[(n + 1) / 2] : (sorted[n / 2] + sorted[n / 2 + 1]) / 2
            }
            BEGIN {
                n = split(base, b, " ")
                if (split(change, c, " ") != n || n == 0) {
                    printf "%-14s %-19s missing values\n", workload, layer
                    exit
                }
                bm = median(b, n)
                cm = median(c, n)
                if (bm == 0 && cm == 0) exit  # the workload never enters this layer
                wins = 0
                for (i = 1; i <= n; i++) if (c[i] < b[i]) wins++
                ratio = bm > 0 ? sprintf("%.3f", cm / bm) : "-"
                printf "%-14s %-19s %15.6g %15.6g %12s %3d/%-3d\n", workload, layer, bm, cm,
                    ratio, wins, n
            }'
    done
done
