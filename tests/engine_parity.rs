//! Cross-engine parity: every [`GatherEngine`] implementation — FAFNIR on
//! both tree backends and all three baselines — must produce the *same
//! functional answer* for the same batch and operator, and the full-NDP
//! engines must move exactly `n × v` bytes to the host. The engines
//! disagree on timing (that is the paper's whole point); they may never
//! disagree on the outputs.

use fafnir_baselines::{CoreModel, NoNdpEngine, RecNmpEngine, TensorDimmEngine};
use fafnir_core::{
    Batch, FafnirConfig, FafnirEngine, GatherEngine, LookupResult, PeTiming, ReduceOp,
    StripedSource, TreeBackend,
};
use fafnir_mem::MemoryConfig;
use fafnir_workloads::query::{BatchGenerator, Popularity};

const DIM: usize = 128;

fn batches() -> Vec<Batch> {
    let mut generator = BatchGenerator::new(Popularity::Zipf { exponent: 1.15 }, 2_000, 16, 4242);
    (0..3).map(|_| generator.batch(16)).collect()
}

fn assert_same_outputs(name: &str, got: &LookupResult, want: &LookupResult) {
    assert_eq!(got.outputs.len(), want.outputs.len(), "{name}: output count");
    for ((qa, a), (qb, b)) in got.outputs.iter().zip(&want.outputs) {
        assert_eq!(qa, qb, "{name}: query order");
        assert_eq!(a.len(), b.len(), "{name}: query {qa} dimension");
        for (position, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= 1e-3_f32.max(y.abs() * 1e-4),
                "{name}: query {qa} element {position}: {x} vs {y}"
            );
        }
    }
}

/// Every engine, configured for `op`, answers each batch like FAFNIR.
fn assert_all_engines_agree(op: ReduceOp) {
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, DIM);
    let fafnir =
        FafnirEngine::new(FafnirConfig { op, ..FafnirConfig::paper_default() }, mem).unwrap();
    let fafnir_cycle = fafnir.clone().with_backend(TreeBackend::CycleStepped { fifo_capacity: 64 });
    let (core, pe) = (CoreModel::server_cpu(), PeTiming::fpga_200mhz());
    let tensordimm = TensorDimmEngine::new(mem, pe, op);
    let recnmp = RecNmpEngine::new(mem, core, pe, op);
    let no_ndp = NoNdpEngine::new(mem, core, op);

    for batch in batches() {
        let reference = fafnir.lookup(&batch, &source).unwrap();
        assert_same_outputs(
            &format!("fafnir/cycle {op}"),
            &fafnir_cycle.lookup(&batch, &source).unwrap(),
            &reference,
        );
        for (name, result) in [
            ("tensordimm", tensordimm.lookup(&batch, &source).unwrap()),
            ("recnmp", recnmp.lookup(&batch, &source).unwrap()),
            ("no-ndp", no_ndp.lookup(&batch, &source).unwrap()),
        ] {
            assert_same_outputs(&format!("{name} {op}"), &result, &reference);
        }
    }
}

#[test]
fn all_engines_agree_on_the_sums() {
    assert_all_engines_agree(ReduceOp::Sum);
}

#[test]
fn all_engines_agree_for_lifted_operators() {
    // Operators whose accumulators carry more than the vector: Mean's
    // count, ArgMax's indices, TopK's (score, index) pairs.
    for op in [ReduceOp::Mean, ReduceOp::ArgMax, ReduceOp::TopK { k: 2 }] {
        assert_all_engines_agree(op);
    }
}

#[test]
fn full_ndp_engines_move_exactly_n_times_v_bytes() {
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, DIM);
    let fafnir = FafnirEngine::paper_default(mem).unwrap();
    let fafnir_cycle = FafnirEngine::paper_default(mem)
        .unwrap()
        .with_backend(TreeBackend::CycleStepped { fifo_capacity: 64 });
    let tensordimm = TensorDimmEngine::paper_default(mem);
    let recnmp = RecNmpEngine::paper_default(mem);
    let no_ndp = NoNdpEngine::paper_default(mem);

    for batch in batches() {
        let n_times_v = (batch.len() * DIM * 4) as u64;
        for (name, engine) in [("fafnir", &fafnir), ("fafnir/cycle", &fafnir_cycle)] {
            let result = engine.lookup(&batch, &source).unwrap();
            assert_eq!(result.traffic.bytes_to_host, n_times_v, "{name}");
        }
        let td = tensordimm.lookup(&batch, &source).unwrap();
        assert_eq!(td.traffic.bytes_to_host, n_times_v, "tensordimm");
        // The partial-forwarding organizations can only do worse.
        for (name, result) in [
            ("recnmp", recnmp.lookup(&batch, &source).unwrap()),
            ("no-ndp", no_ndp.lookup(&batch, &source).unwrap()),
        ] {
            assert!(result.traffic.bytes_to_host >= n_times_v, "{name}");
        }
    }
}

#[test]
fn backends_agree_on_traffic_and_read_counts() {
    // The tree backend changes *timing fidelity*, never what is read or
    // shipped: both backends see the same plans.
    let mem = MemoryConfig::ddr4_2400_4ch();
    let source = StripedSource::new(mem.topology, DIM);
    let event = FafnirEngine::paper_default(mem).unwrap();
    let cycle = FafnirEngine::paper_default(mem)
        .unwrap()
        .with_backend(TreeBackend::CycleStepped { fifo_capacity: 64 });
    for batch in batches() {
        let a = event.lookup(&batch, &source).unwrap();
        let b = cycle.lookup(&batch, &source).unwrap();
        assert_eq!(a.traffic, b.traffic);
        assert_eq!(a.memory, b.memory);
        assert_eq!(a.latency.memory_ns, b.latency.memory_ns);
    }
}
