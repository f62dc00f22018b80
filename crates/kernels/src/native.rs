//! The hand-written stencil primal.
//!
//! A plain-slice Rust loop doing what the generated stencil primal does,
//! with the same arithmetic in the same order. The `exec_adjoint`
//! benchmark times the AOT kernel of the r = 8 primal against it
//! (`machine.aot_over_handwritten`).

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

    /// One primal sweep, `unew(i-k) += w·uold(...)` over the compact
    /// strided passes, on the calling thread: `threads` must be 1.
    pub fn primal_sweep(&self, threads: usize, uold: &[f64], unew: &mut [f64]) {
        assert_eq!(threads, 1, "the hand-written stencil is serial");
        let r = self.radius;
        let stride = r + 1;
        for offset in 0..stride {
            // `do i = stride + offset, n - r, stride`, 0-based.
            for i in (stride + offset - 1..unew.len() - r).step_by(stride) {
                for k in 0..=r {
                    unew[i - k] += self.w[k] * uold[i - k];
                }
                for k in 0..r {
                    unew[i - k] += self.w[r + 1 + k] * uold[i - k - 1];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primal_matches_interpreter() {
        use formad_machine::{run, Bindings, Machine};
        for (r, n) in [(1, 64), (8, 101)] {
            let w: Vec<f64> = (0..2 * r + 1).map(|k| 0.1 + 0.05 * k as f64).collect();
            let st = NativeStencil::new(r, w);
            let uold: Vec<f64> = (0..n).map(|k| (k as f64 * 0.37).sin()).collect();
            let mut unew_native = vec![0.0; n];
            st.primal_sweep(1, &uold, &mut unew_native);

            let case = crate::StencilCase {
                n,
                sweeps: 1,
                radius: r,
            };
            let mut b = Bindings::new()
                .int("n", n as i64)
                .int("nsweep", 1)
                .real_array("w", st.w.clone())
                .real_array("uold", uold)
                .real_array("unew", vec![0.0; n]);
            run(&case.ir(), &mut b, &Machine::serial()).unwrap();
            let unew_interp = b.get_real_array("unew").unwrap();
            for i in 0..n {
                assert_eq!(
                    unew_native[i].to_bits(),
                    unew_interp[i].to_bits(),
                    "r={r} i={i}: {} vs {}",
                    unew_native[i],
                    unew_interp[i]
                );
            }
        }
    }
}
