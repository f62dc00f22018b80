//! Real wall-clock costs of the three increment disciplines as
//! `formad-runtime` primitives, without a generated kernel around them:
//! the floor under the measured `repro bench-kernels` cells.
//!
//! Expected ordering (matching the paper's single-thread observations):
//! plain ≪ reduction-with-merge < atomic-CAS-loop.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use formad_runtime::{AtomicF64Slice, ReductionBuffers};

const N: usize = 1 << 14;

fn bench_increments(c: &mut Criterion) {
    let mut group = c.benchmark_group("increment_discipline");
    let src: Vec<f64> = (0..N).map(|k| (k as f64 * 0.001).sin()).collect();

    group.bench_function(BenchmarkId::new("plain", N), |b| {
        let mut target = vec![0.0f64; N];
        b.iter(|| {
            for i in 0..N {
                target[i] += black_box(src[i]);
            }
            black_box(&target);
        });
    });

    group.bench_function(BenchmarkId::new("atomic_cas", N), |b| {
        let target = AtomicF64Slice::zeros(N);
        b.iter(|| {
            for (i, &v) in src.iter().enumerate() {
                target.add(i, black_box(v));
            }
            black_box(target.get(0));
        });
    });

    group.bench_function(BenchmarkId::new("reduction_privatize_merge", N), |b| {
        b.iter(|| {
            // One region's worth: allocate private copy, increment, merge.
            let red = ReductionBuffers::new(1, N);
            let buf = red.slice_mut(0);
            for i in 0..N {
                buf[i] += black_box(src[i]);
            }
            let mut target = vec![0.0f64; N];
            red.merge_into(&mut target);
            black_box(&target);
        });
    });

    group.finish();
}

criterion_group!(benches, bench_increments);
criterion_main!(benches);
