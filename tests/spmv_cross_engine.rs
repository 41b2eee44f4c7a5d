//! Cross-crate integration of the SpMV side: formats, generators, the
//! FAFNIR engine, the Two-Step baseline, applications, and the physical
//! bounds the SpMV timing constants must respect.

use fafnir_core::PeTiming;
use fafnir_mem::{Location, MemoryConfig, MemorySystem};
use fafnir_sparse::{
    fafnir_spmv, gen, two_step, CooMatrix, CsrMatrix, LilMatrix, SpmvPlan, SpmvTiming,
};

fn assert_close(a: &[f64], b: &[f64]) {
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(b) {
        assert!((x - y).abs() < 1e-8_f64.max(y.abs() * 1e-10), "{x} vs {y}");
    }
}

fn suite() -> Vec<CooMatrix> {
    vec![
        gen::uniform(200, 300, 0.03, 1),
        gen::rmat(8, 4_000, 2),
        gen::banded(500, 5, 3),
        CooMatrix::from_triplets(3, 3, [(0, 0, 1.0)]), // nearly empty
    ]
}

#[test]
fn formats_agree_on_spmv() {
    for coo in suite() {
        let csr = CsrMatrix::from(&coo);
        let lil = LilMatrix::from(&coo);
        let x: Vec<f64> = (0..coo.cols()).map(|i| ((i % 11) as f64) - 5.0).collect();
        let dense = coo.multiply_dense(&x);
        assert_close(&csr.multiply(&x), &dense);
        assert_close(&lil.multiply(&x), &dense);
        assert_eq!(csr.nnz(), coo.nnz());
        assert_eq!(lil.nnz(), coo.nnz());
    }
}

#[test]
fn engines_agree_across_the_suite_and_vector_sizes() {
    for coo in suite() {
        let lil = LilMatrix::from(&coo);
        let x: Vec<f64> = (0..coo.cols()).map(|i| 1.0 + (i as f64) * 0.01).collect();
        let dense = coo.multiply_dense(&x);
        for vector_size in [2usize, 16, 2048] {
            let fafnir = fafnir_spmv::execute(&lil, &x, vector_size);
            let baseline = two_step::execute(&lil, &x, vector_size);
            assert_close(&fafnir.y, &dense);
            assert_close(&baseline.y, &dense);
            assert_eq!(fafnir.ops.multiplies, coo.nnz() as u64);
            assert_eq!(baseline.ops.multiplies, coo.nnz() as u64);
        }
    }
}

#[test]
fn plans_match_executed_iterations() {
    let coo = gen::rmat(9, 20_000, 4);
    let lil = LilMatrix::from(&coo);
    let x = vec![1.0; coo.cols()];
    for vector_size in [4usize, 32, 512] {
        let plan = SpmvPlan::new(coo.cols(), vector_size);
        let run = fafnir_spmv::execute(&lil, &x, vector_size);
        assert_eq!(run.plan, plan);
        assert_eq!(run.volumes.len(), plan.iterations());
    }
}

#[test]
fn speedup_envelope_matches_fig14() {
    let timing = SpmvTiming::paper();
    let mut speedups = Vec::new();
    for (coo, vector_size) in [
        (gen::uniform(512, 512, 0.01, 5), 2048usize),
        (gen::rmat(11, 80_000, 6), 128),
        (gen::rmat(12, 200_000, 7), 32),
    ] {
        let lil = LilMatrix::from(&coo);
        let x = vec![1.0; coo.cols()];
        let fafnir = fafnir_spmv::execute(&lil, &x, vector_size);
        let baseline = two_step::execute(&lil, &x, vector_size);
        speedups.push(two_step::speedup(&timing, &fafnir, &baseline));
    }
    for &speedup in &speedups {
        assert!((1.0..=4.6).contains(&speedup), "outside Fig. 14 envelope: {speedup}");
    }
    // Smaller/merge-free beats merge-heavy.
    assert!(speedups[0] > speedups[2], "{speedups:?}");
}

#[test]
fn transpose_spmv_consistency() {
    // (Aᵀ·x)[j] computed through the engines equals the column sums.
    let coo = gen::uniform(50, 70, 0.1, 8);
    let csr = CsrMatrix::from(&coo).transpose();
    let lil_t = {
        let mut t = CooMatrix::new(coo.cols(), coo.rows());
        for &(r, c, v) in coo.entries() {
            t.push(c, r, v);
        }
        t.sum_duplicates();
        LilMatrix::from(&t)
    };
    let x: Vec<f64> = (0..coo.rows()).map(|i| (i as f64).sin()).collect();
    let run = fafnir_spmv::execute(&lil_t, &x, 64);
    assert_close(&run.y, &csr.multiply(&x));
}

/// Bytes per streamed LIL entry: an f64 value plus a u32 row index.
const ENTRY_BYTES: usize = 12;

/// The DRAM streaming bound in ns per LIL entry, measured on the
/// cycle-accurate memory system: every rank reads `blocks_per_rank` 512 B
/// blocks over its own NDP port, banks round-robin and rows in order (the
/// layout a chunked LIL occupies).
fn dram_stream_ns_per_entry(mem_config: MemoryConfig, blocks_per_rank: usize) -> f64 {
    let mut config = mem_config;
    config.ndp_data_path = true;
    let topology = config.topology;
    let banks = topology.banks_per_rank();
    let blocks_per_row = (topology.row_bytes() / 512).max(1);
    let mut memory = MemorySystem::new(config);
    for channel in 0..topology.channels {
        for rank in 0..topology.ranks_per_channel() {
            for block in 0..blocks_per_rank {
                let (flat_bank, slot) = (block % banks, block / banks);
                let location = Location {
                    channel,
                    rank,
                    bank_group: flat_bank / topology.banks_per_group,
                    bank: flat_bank % topology.banks_per_group,
                    row: (slot / blocks_per_row) % topology.rows,
                    column: (slot % blocks_per_row) * (512 / topology.burst_bytes),
                };
                memory.submit_read_at(location, 512, 0);
            }
        }
    }
    let total_ns = config.timing.cycles_to_ns(memory.run_until_idle());
    total_ns / (topology.total_ranks() * blocks_per_rank * 512 / ENTRY_BYTES) as f64
}

/// The tree-ingestion bound in ns per entry: `leaves` leaf PEs each take
/// `lanes` entries per NDP cycle (Fig. 7c's vectorization).
fn tree_ingest_ns_per_entry(leaves: usize, lanes: usize) -> f64 {
    PeTiming::fpga_200mhz().cycle_ns() / (leaves * lanes) as f64
}

/// `SpmvTiming`'s multiply constant is calibrated to Fig. 14's ratios. It
/// must also be physically realizable: no faster than the DRAM stream or
/// the leaves' ingestion rate, and within 20x of the binding one.
#[test]
fn spmv_multiply_constant_is_physically_realizable() {
    // 32 ranks streaming on their own ports, bounded by the shared
    // per-channel command bus: about 0.14 ns per 12 B entry.
    let wide = dram_stream_ns_per_entry(MemoryConfig::ddr4_2400_4ch(), 32);
    assert!(wide > 0.05 && wide < 0.2, "bound {wide} ns/entry");
    let narrow = dram_stream_ns_per_entry(MemoryConfig::with_total_ranks(2), 32);
    assert!(narrow > 4.0 * wide, "2 ranks {narrow} vs 32 ranks {wide}");
    let lanes_ratio = tree_ingest_ns_per_entry(4, 1) / tree_ingest_ns_per_entry(16, 16);
    assert!((lanes_ratio - 64.0).abs() < 1e-9);

    // The paper system: 16 leaf PEs at 1PE:2R, 16-lane entry ingestion.
    let dram = dram_stream_ns_per_entry(MemoryConfig::ddr4_2400_4ch(), 64);
    let tree = tree_ingest_ns_per_entry(16, 16);
    let binding = dram.max(tree);
    let calibrated = SpmvTiming::paper().fafnir_multiply_ns;
    assert!(calibrated >= binding * 0.99, "calibrated {calibrated} vs dram {dram} / tree {tree}");
    assert!(calibrated < 20.0 * binding, "calibrated {calibrated} vs binding {binding}");
}
