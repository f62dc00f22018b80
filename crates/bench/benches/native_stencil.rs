//! Native stencil kernels on the host CPU: one real-hardware data point
//! per program version of Figures 3/4 at one thread — the paper's
//! 1-thread column, where atomics are already ~10–25× slower and
//! reductions ~2×.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use formad_kernels::NativeStencil;
use formad_runtime::AtomicF64Slice;

const N: usize = 1 << 15;

fn stencil(radius: usize) -> (NativeStencil, Vec<f64>, Vec<f64>) {
    let w: Vec<f64> = (0..2 * radius + 1).map(|k| 0.1 + 0.01 * k as f64).collect();
    let st = NativeStencil::new(radius, w);
    let uold: Vec<f64> = (0..N).map(|k| (k as f64 * 0.37).sin()).collect();
    let unewb: Vec<f64> = (0..N).map(|k| (k as f64 * 0.73).cos()).collect();
    (st, uold, unewb)
}

fn bench_stencil(c: &mut Criterion) {
    for radius in [1usize, 8] {
        let label = if radius == 1 { "small" } else { "large" };
        let mut group = c.benchmark_group(format!("native_stencil_{label}"));
        let (st, uold, unewb) = stencil(radius);

        group.bench_function(BenchmarkId::new("primal", N), |b| {
            let mut unew = vec![0.0f64; N];
            b.iter(|| {
                st.primal_sweep(1, black_box(&uold), &mut unew);
                black_box(&unew);
            });
        });

        group.bench_function(BenchmarkId::new("adjoint_plain_formad", N), |b| {
            let mut uoldb = vec![0.0f64; N];
            b.iter(|| {
                st.adjoint_sweep_plain(1, black_box(&unewb), &mut uoldb);
                black_box(&uoldb);
            });
        });

        group.bench_function(BenchmarkId::new("adjoint_atomic", N), |b| {
            let uoldb = AtomicF64Slice::zeros(N);
            b.iter(|| {
                st.adjoint_sweep_atomic(1, black_box(&unewb), &uoldb);
                black_box(uoldb.get(0));
            });
        });

        group.bench_function(BenchmarkId::new("adjoint_reduction", N), |b| {
            let mut uoldb = vec![0.0f64; N];
            b.iter(|| {
                st.adjoint_sweep_reduction(1, black_box(&unewb), &mut uoldb);
                black_box(&uoldb);
            });
        });

        group.finish();
    }
}

criterion_group!(benches, bench_stencil);
criterion_main!(benches);
