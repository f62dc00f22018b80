//! Native (real-hardware) stencil kernels.
//!
//! Hand-lowered Rust equivalents of the generated stencil programs, used
//! by the criterion benches and the `exec_adjoint` benchmark to measure
//! wall-clock cost ratios of the three increment disciplines on the host
//! CPU next to the generated kernels. The math mirrors the generated
//! adjoint exactly (the stencil is linear, so its adjoint needs no tape).

use formad_runtime::{parallel_for, AtomicF64Slice, ReductionBuffers};

/// Native compact-stencil workspace.
#[derive(Debug, Clone)]
pub struct NativeStencil {
    /// Radius (1 = small, 8 = large).
    pub radius: usize,
    /// Weights, `2r+1` of them.
    pub w: Vec<f64>,
}

impl NativeStencil {
    /// Same weights layout as [`crate::StencilCase`].
    pub fn new(radius: usize, w: Vec<f64>) -> NativeStencil {
        assert_eq!(w.len(), 2 * radius + 1);
        NativeStencil { radius, w }
    }

    /// One primal sweep: `unew(i-k) += w·uold(...)` over the compact
    /// strided passes.
    pub fn primal_sweep(&self, threads: usize, uold: &[f64], unew: &mut [f64]) {
        let n = unew.len();
        let r = self.radius;
        let stride = r + 1;
        // Interior iterations i ∈ [stride+offset .. n-r) stepping by
        // stride (1-based in the IR; 0-based here).
        let unew_cell = std::sync::atomic::AtomicPtr::new(unew.as_mut_ptr());
        for offset in 0..stride {
            let start = stride + offset;
            let count = iter_count(start, n - r, stride);
            let ptr = unew_cell.load(std::sync::atomic::Ordering::Relaxed) as usize;
            parallel_for(threads, count, |_, k| {
                let i = start + k * stride - 1; // 0-based
                                                // Safety: iterations of one pass write disjoint index sets
                                                // {i-r..i} by construction (stride = r+1), which is
                                                // exactly what FormAD proves for the IR version.
                let unew = unsafe { std::slice::from_raw_parts_mut(ptr as *mut f64, n) };
                for k2 in 0..=self.radius {
                    unew[i - k2] += self.w[k2] * uold[i - k2];
                }
                for k2 in 0..self.radius {
                    unew[i - k2] += self.w[self.radius + 1 + k2] * uold[i - k2 - 1];
                }
            });
        }
    }

    /// Adjoint sweep, plain shared increments (the FormAD version).
    pub fn adjoint_sweep_plain(&self, threads: usize, unewb: &[f64], uoldb: &mut [f64]) {
        let n = uoldb.len();
        let r = self.radius;
        let stride = r + 1;
        let uoldb_cell = std::sync::atomic::AtomicPtr::new(uoldb.as_mut_ptr());
        for offset in (0..stride).rev() {
            let start = stride + offset;
            let count = iter_count(start, n - r, stride);
            let ptr = uoldb_cell.load(std::sync::atomic::Ordering::Relaxed) as usize;
            parallel_for(threads, count, |_, k| {
                let i = start + k * stride - 1;
                // Safety: adjoint increments target uoldb{i-r-1..i}, whose
                // disjointness across iterations is the FormAD theorem for
                // this kernel (reads share the write-set index structure).
                let uoldb = unsafe { std::slice::from_raw_parts_mut(ptr as *mut f64, n) };
                for k2 in 0..=self.radius {
                    uoldb[i - k2] += self.w[k2] * unewb[i - k2];
                }
                for k2 in 0..self.radius {
                    uoldb[i - k2 - 1] += self.w[self.radius + 1 + k2] * unewb[i - k2];
                }
            });
        }
    }

    /// Adjoint sweep with atomics on every increment.
    pub fn adjoint_sweep_atomic(&self, threads: usize, unewb: &[f64], uoldb: &AtomicF64Slice) {
        let n = uoldb.len();
        let r = self.radius;
        let stride = r + 1;
        for offset in (0..stride).rev() {
            let start = stride + offset;
            let count = iter_count(start, n - r, stride);
            parallel_for(threads, count, |_, k| {
                let i = start + k * stride - 1;
                for k2 in 0..=self.radius {
                    uoldb.add(i - k2, self.w[k2] * unewb[i - k2]);
                }
                for k2 in 0..self.radius {
                    uoldb.add(i - k2 - 1, self.w[self.radius + 1 + k2] * unewb[i - k2]);
                }
            });
        }
    }

    /// Adjoint sweep with a privatized reduction on `uoldb`.
    pub fn adjoint_sweep_reduction(&self, threads: usize, unewb: &[f64], uoldb: &mut [f64]) {
        let n = uoldb.len();
        let r = self.radius;
        let stride = r + 1;
        for offset in (0..stride).rev() {
            let start = stride + offset;
            let count = iter_count(start, n - r, stride);
            let red = ReductionBuffers::new(threads, n);
            parallel_for(threads, count, |t, k| {
                let i = start + k * stride - 1;
                let buf = red.slice_mut(t);
                for k2 in 0..=self.radius {
                    buf[i - k2] += self.w[k2] * unewb[i - k2];
                }
                for k2 in 0..self.radius {
                    buf[i - k2 - 1] += self.w[self.radius + 1 + k2] * unewb[i - k2];
                }
            });
            red.merge_into(uoldb);
        }
    }
}

/// Iterations of the 1-based inclusive loop `do i = start, hi, stride`.
fn iter_count(start: usize, hi: usize, stride: usize) -> usize {
    if start > hi {
        0
    } else {
        (hi - start) / stride + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup(r: usize, n: usize) -> (NativeStencil, Vec<f64>, Vec<f64>) {
        let w: Vec<f64> = (0..2 * r + 1).map(|k| 0.1 + 0.05 * k as f64).collect();
        let st = NativeStencil::new(r, w);
        let uold: Vec<f64> = (0..n).map(|k| (k as f64 * 0.37).sin()).collect();
        let unewb: Vec<f64> = (0..n).map(|k| (k as f64 * 0.73).cos()).collect();
        (st, uold, unewb)
    }

    #[test]
    fn all_adjoint_disciplines_agree() {
        let (st, _uold, unewb) = setup(1, 101);
        let n = unewb.len();
        let mut plain = vec![0.0; n];
        st.adjoint_sweep_plain(1, &unewb, &mut plain);
        let atomic = AtomicF64Slice::zeros(n);
        st.adjoint_sweep_atomic(1, &unewb, &atomic);
        let mut red = vec![0.0; n];
        st.adjoint_sweep_reduction(2, &unewb, &mut red);
        let atomic = atomic.into_vec();
        for i in 0..n {
            assert!((plain[i] - atomic[i]).abs() < 1e-12);
            assert!((plain[i] - red[i]).abs() < 1e-12);
        }
    }

    #[test]
    fn primal_matches_interpreter() {
        use formad_machine::{run, Bindings, Machine};
        let r = 1;
        let n = 64;
        let (st, uold, _) = setup(r, n);
        let mut unew_native = vec![0.0; n];
        st.primal_sweep(1, &uold, &mut unew_native);

        let case = crate::StencilCase {
            n,
            sweeps: 1,
            radius: r,
        };
        let p = case.ir();
        let mut b = Bindings::new()
            .int("n", n as i64)
            .int("nsweep", 1)
            .real_array("w", st.w.clone())
            .real_array("uold", uold.clone())
            .real_array("unew", vec![0.0; n]);
        run(&p, &mut b, &Machine::serial()).unwrap();
        let unew_interp = b.get_real_array("unew").unwrap();
        for i in 0..n {
            assert!(
                (unew_native[i] - unew_interp[i]).abs() < 1e-12,
                "i={i}: {} vs {}",
                unew_native[i],
                unew_interp[i]
            );
        }
    }

    #[test]
    fn dot_product_consistency_native() {
        // ⟨unewb, primal(v)⟩ == ⟨adjoint(unewb), v⟩ for the linear stencil.
        let (st, v, unewb) = setup(2, 97);
        let n = v.len();
        let mut jv = vec![0.0; n];
        st.primal_sweep(1, &v, &mut jv);
        let lhs: f64 = unewb.iter().zip(&jv).map(|(a, b)| a * b).sum();
        let mut jt = vec![0.0; n];
        st.adjoint_sweep_plain(1, &unewb, &mut jt);
        let rhs: f64 = jt.iter().zip(&v).map(|(a, b)| a * b).sum();
        assert!(
            (lhs - rhs).abs() < 1e-9 * lhs.abs().max(1.0),
            "{lhs} vs {rhs}"
        );
    }
}
