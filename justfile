# Developer workflow; `just ci` mirrors .github/workflows/ci.yml.

# List available recipes.
default:
    @just --list

# Formatting gate.
fmt:
    cargo fmt --all -- --check

# Lint gate (matches CI: warnings are errors).
clippy:
    cargo clippy --workspace --all-targets -- -D warnings

# Tier-1: the check the repo is graded on.
tier1:
    cargo build --release
    cargo test -q

# Full test suite including every crate.
test:
    cargo test --workspace -q

# Compile every bench target without running it.
bench-build:
    cargo bench --workspace --no-run

# Fast-vs-cycle calibration gate: the smoke matrix must stay inside the
# recorded tolerance envelope (see crates/serve/src/calibrate.rs).
calibration-gate:
    cargo test -p fafnir-serve --test calibration -q -- calibration_smoke_matrix_is_within_the_recorded_envelope

# Docs gate (matches CI: rustdoc warnings are errors).
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The ledger benchmark is its own Cargo workspace: build and test it.
ledger-check:
    cargo test --release --offline --manifest-path ledger/Cargo.toml -q

# Everything CI runs.
ci: fmt clippy tier1 docs test ledger-check bench-build calibration-gate

# Regenerate the parallel-driver measurement (BENCH_parallel_driver.json).
bench-driver:
    cargo bench -p fafnir-bench --bench parallel_driver

# Regenerate the fast-forward measurement (BENCH_cycle_fastforward.json).
# The bench refuses to overwrite a recorded result with a regressed speedup;
# pass --force to accept one anyway: `just bench-fastforward --force`.
bench-fastforward *ARGS:
    cargo bench -p fafnir-bench --bench cycle_fastforward -- {{ARGS}}

# Regenerate the serving measurement (BENCH_serving.json). Same guard as
# bench-fastforward: `just bench-serving --force` accepts a regression.
bench-serving *ARGS:
    cargo bench -p fafnir-bench --bench serving -- {{ARGS}}

# Regenerate the fault-resilience measurement (BENCH_fault_resilience.json):
# hedged dispatch vs DRAM reads under a straggler plan, plus crash/retry
# churn. Same guard: `just bench-resilience --force` accepts a regression.
bench-resilience *ARGS:
    cargo bench -p fafnir-bench --bench fault_resilience -- {{ARGS}}

# Regenerate the Top-K similarity measurement (BENCH_topk.json): recall@k and
# batch latency vs k for near-memory re-ranking over a proxy shortlist. Same
# guard: `just bench-topk --force` accepts a regression.
bench-topk *ARGS:
    cargo bench -p fafnir-bench --bench topk -- {{ARGS}}

# Regenerate the fast-functional memory measurement (BENCH_fast_memory.json):
# simulator throughput under the cycle-accurate vs fast memory model, plus
# the smoke calibration matrix gated against the recorded tolerance
# envelope. Same guard: `just bench-fastmem --force` accepts a regression.
bench-fastmem *ARGS:
    cargo bench -p fafnir-bench --bench fast_memory -- {{ARGS}}

# Regenerate the sharded-cluster measurement (BENCH_cluster.json): throughput,
# per-shard imbalance, and cross-shard traffic vs shard count at two Zipf
# skews, plus hot-row replication relief. Same guard: `just bench-cluster
# --force` accepts a regression.
bench-cluster *ARGS:
    cargo bench -p fafnir-bench --bench cluster -- {{ARGS}}

# Regenerate the partitioned-SpMV measurement (BENCH_spmv.json): nnz/time
# imbalance, sync volume, and modeled speedup for 1D row / nnz-balanced /
# column and 2D grid partitions over R-MAT and banded matrices at four rank
# counts. Same guard: `just bench-spmv --force` accepts a regression.
bench-spmv *ARGS:
    cargo bench -p fafnir-bench --bench spmv_partition -- {{ARGS}}

# Run the full (24-scenario) cross-mode calibration matrix and check it
# against the recorded envelope; exits non-zero on a violation.
calibrate:
    cargo run --release -p fafnir-serve --example calibrate

# Criterion micro-bench of the reduction kernels (combine_into per
# operator x accumulator width). No JSON artifact: criterion keeps its own
# baselines under target/criterion.
bench-kernels *ARGS:
    cargo bench -p fafnir-bench --bench reduce_kernels -- {{ARGS}}

# Profile the serving data plane with gprofng (binutils). Samples the
# ledger benchmark running one serving workload and prints the hottest
# functions. Relative percentages are trustworthy even where the absolute
# totals undersample; compare profiles at the same SECONDS. Requires
# `gprofng` on PATH. `workload` is `serve_cycle` or `serve_fast` (the fast
# memory model); `ledger --trace 1` gives the per-layer split instead.
profile workload="serve_cycle" seconds="10":
    cargo build --release --offline --manifest-path ledger/Cargo.toml
    rm -rf /tmp/fafnir-profile.er
    gprofng collect app -o /tmp/fafnir-profile.er ledger/target/release/ledger \
        --workload {{workload}} --seed 1 --seconds {{seconds}}
    gprofng display text -functions /tmp/fafnir-profile.er | head -40

# A quick look at the resilience layer: a straggler replica with hedging.
serve-faults-demo:
    cargo run --release -p fafnir-cli -- serve --rate 2e6 --policy deadline \
        --max-wait-ns 20000 --workers 2 --faults slow:8:1 --hedge-ns 3000 --seed 7

# A quick look at the serving simulator: deadline batching at 2 Mqps.
serve-demo:
    cargo run --release -p fafnir-cli -- serve --rate 2e6 --policy deadline \
        --max-wait-ns 500000 --workers 4 --seed 7
