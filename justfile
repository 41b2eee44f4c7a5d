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

# Run every root example. `cargo test` builds them but never runs them, so
# one that panics at run time would otherwise go unnoticed.
examples:
    cargo run --release --example design_space
    cargo run --release --example dlrm_inference
    cargo run --release --example mtx_workflow
    cargo run --release --example quickstart
    cargo run --release --example recommendation_inference
    cargo run --release --example spmv_graph
    cargo run --release --example tree_anatomy

# The SpMV digest and partitioned-driver tests pinned to one core.
# `execute_partitioned` runs one row band per available core; pinned,
# `available_parallelism()` is 1, so these check the one-worker path against
# the same recorded digests the unpinned `cargo test` checks the threaded
# path against.
spmv-one-core:
    taskset -c 0 cargo test -q --test spmv_digests
    taskset -c 0 cargo test -q -p fafnir-sparse --test partitioned_spmv

# Compile every bench target without running it.
bench-build:
    cargo bench --workspace --no-run

# Regenerate every table and figure of the paper. The twelve targets print
# to stdout only and write no file, unlike `cargo bench --workspace`, which
# also re-records the BENCH_*.json trajectories.
figures:
    cargo bench -p fafnir-bench --bench fig03_unique_indices --bench table01_buffers \
        --bench table04_latency --bench fig09_spmv_iterations --bench fig11_single_query \
        --bench fig12_end_to_end --bench fig13_batch_scalability --bench fig14_spmv_speedup \
        --bench fig15_memory_accesses --bench fig16_power_area --bench ablations \
        --bench extensions

# Fast-vs-cycle calibration gate: the smoke matrix must stay inside the
# recorded tolerance envelope (see crates/serve/src/calibrate.rs).
calibration-gate:
    cargo test -p fafnir-serve --test calibration -q -- calibration_smoke_matrix_is_within_the_recorded_envelope

# Docs gate (matches CI: rustdoc warnings are errors).
docs:
    RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps

# The ledger benchmark is its own Cargo workspace: build and test it.
# `--locked` fails instead of rewriting ledger/Cargo.lock when a path
# dependency's manifest changes.
ledger-check:
    cargo test --release --offline --locked --manifest-path ledger/Cargo.toml -q

# Lines of Rust per crate, for `crates src tests examples` together, and for
# `ledger/` on its own. Prints only; not a gate.
loc:
    scripts/loc.sh

# Everything CI runs.
ci: fmt clippy tier1 spmv-one-core examples docs test ledger-check bench-build figures calibration-gate

# Regenerate the parallel-lookup measurement (BENCH_parallel_driver.json):
# independent lookups on `map_ordered` vs one shared-queue `lookup_stream`.
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

# Compare the ledger benchmark between BASE and the working tree: PAIRS
# alternating pairs per workload at equal SECONDS with a fresh seed per pair,
# then both medians and quartiles, wins, ties and a verdict per end-to-end
# metric (ledger/README.md, "Comparing two commits"). `WORKLOADS=serve_fast
# just ledger-pairs HEAD~1` narrows the run to one workload. `TRACE=1` adds
# as many `--trace 1` pairs and a per-layer table of both sides' median
# ns_per_call, to show which layer moved.
ledger-pairs BASE PAIRS="10" SECONDS="3":
    scripts/ledger-pairs.sh {{BASE}} {{PAIRS}} {{SECONDS}}

# Run the full (24-scenario) cross-mode calibration matrix and check it
# against the recorded envelope; exits non-zero on a violation.
calibrate:
    cargo run --release -p fafnir-serve --example calibrate

# Criterion micro-bench of the reduction kernels (combine_into per
# operator x accumulator width). No JSON artifact: criterion keeps its own
# baselines under target/criterion.
bench-kernels *ARGS:
    cargo bench -p fafnir-bench --bench reduce_kernels -- {{ARGS}}

# Profile the simulator with gprofng (binutils). Samples the ledger
# benchmark running one workload and prints the hottest functions.
# Relative percentages are trustworthy even where the absolute totals
# undersample; compare profiles at the same SECONDS. Requires `gprofng` on
# PATH. `workload` is any ledger workload: `serve_cycle`, `serve_fast` (the
# fast memory model) or `spmv_rmat` (the partitioned SpMV tree) among
# them; `ledger --trace 1` gives the per-layer split instead.
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
