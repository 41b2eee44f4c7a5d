//! Criterion micro-benchmarks of the reduction kernels: one `combine_into`
//! call per operator across the accumulator widths a lookup with values
//! sees. These are the innermost loops of the walk that computes outputs
//! (`fafnir_core::fastpath`), so a change to a kernel in
//! `fafnir_core::reduce` is timed here (`just bench reduce_kernels`);
//! `tests/output_bits.rs` pins the results bitwise.

use std::sync::Arc;

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use fafnir_core::{
    ArgMaxOperator, MaxOperator, MeanOperator, MinOperator, ReduceOperator, SumOperator,
    TopKOperator, VectorIndex,
};

/// Element vector dimensions to sweep (the paper uses 128-wide embeddings).
const DIMS: [usize; 4] = [32, 64, 128, 256];

/// A deterministic value vector: varied magnitudes, both signs, repeated
/// values so Max/Min/ArgMax ties are exercised.
fn values(dim: usize, salt: u32) -> Vec<f32> {
    (0..dim).map(|i| ((i as u32 * 37 + salt * 13) % 101) as f32 - 50.0).collect()
}

/// Builds a representative accumulator by folding 64 lifted vectors — for
/// Top-K this fills all `k` slots instead of benchmarking merges against a
/// mostly-empty pair list.
fn fill(op: &dyn ReduceOperator, dim: usize, start: u32) -> Vec<f32> {
    let mut acc = op.lift(VectorIndex(start), &values(dim, start));
    for i in 1..64 {
        let other = op.lift(VectorIndex(start + i), &values(dim, start + i));
        op.combine_into(&mut acc, &other);
    }
    acc
}

fn bench_combine_into(c: &mut Criterion) {
    let operators: Vec<Arc<dyn ReduceOperator>> = vec![
        Arc::new(SumOperator),
        Arc::new(MeanOperator),
        Arc::new(MaxOperator),
        Arc::new(MinOperator),
        Arc::new(ArgMaxOperator),
        Arc::new(TopKOperator::new(8)),
        Arc::new(TopKOperator::new(32)),
        Arc::new(TopKOperator::new(64)),
    ];
    for dim in DIMS {
        for op in &operators {
            let acc = fill(op.as_ref(), dim, 1);
            let other = fill(op.as_ref(), dim, 1_000);
            c.bench_function(&format!("combine_into/{}/dim{dim}", op.name()), |b| {
                b.iter_batched(
                    || acc.clone(),
                    |mut acc: Vec<f32>| {
                        op.combine_into(&mut acc, &other);
                        black_box(acc)
                    },
                    BatchSize::SmallInput,
                );
            });
        }
    }
}

criterion_group!(
    name = kernels;
    config = Criterion::default().sample_size(30);
    targets = bench_combine_into
);
criterion_main!(kernels);
