//! The program versions of the paper's evaluation protocol (§7):
//! *Primal* (parallel + serial baseline), *Adjoint Serial*, *Adjoint
//! FormAD*, *Adjoint Atomic*, *Adjoint Reduction* — plus *Adjoint
//! Transposed*, the scatter-to-gather discipline of Hückelheim et al.
//! (arXiv 1907.02818), present whenever the kernel's scatter map is
//! invertible.

use std::collections::HashMap;

use formad::{Formad, FormadOptions, IncMode, ParallelTreatment};
use formad_ir::{program_to_string, Program};

/// The adjoint seeding every suite shares; kept at this path because the
/// frozen benchmark package imports it from here.
pub use formad_machine::adjoint_bindings;

/// All program versions generated from one primal.
#[derive(Debug)]
pub struct ProgramVersions {
    /// Original parallel primal.
    pub primal: Program,
    /// Primal with pragmas stripped (speedup baseline).
    pub primal_serial: Program,
    /// Reverse-mode adjoint, no pragmas.
    pub adj_serial: Program,
    /// Adjoint with FormAD's per-array plan.
    pub adj_formad: Program,
    /// Adjoint with atomics on every shared increment.
    pub adj_atomic: Program,
    /// Adjoint with reduction privatization on every shared incremented
    /// array (mixed-access arrays fall back to atomics, see `formad-ad`).
    pub adj_reduction: Program,
    /// Adjoint with the transposed gather everywhere it can be justified:
    /// transpositions the analysis *proved* are taken per-array, and when
    /// it proved none, every array goes through uniform mode's structural
    /// forced-safe gate instead. `None` when the result degrades to the
    /// atomic version everywhere (non-invertible scatter maps) — there is
    /// no distinct transposed program to measure then.
    pub adj_transposed: Option<Program>,
    /// The analysis that produced the FormAD plan.
    pub analysis: formad::FormadAnalysis,
}

impl ProgramVersions {
    /// Generate every version.
    pub fn generate(primal: &Program, indep: &[&str], dep: &[&str]) -> ProgramVersions {
        let tool = Formad::new(FormadOptions::new(indep, dep));
        let diff = tool.differentiate(primal).expect("formad pipeline");
        let adj_atomic = tool
            .adjoint_with(primal, ParallelTreatment::Uniform(IncMode::Atomic))
            .expect("atomic adjoint");
        // The transposed treatment: where the analysis *proved* a gather
        // safe, replay exactly that per-array verdict (the PerArray
        // contract — only proved transpositions may ride it); otherwise
        // request the gather uniformly, which the transform only grants
        // under its structural forced-safe criterion. Either way atomic
        // is the fallback, so a kernel with no invertible scatter ends up
        // textually identical to the atomic version and carries no
        // separate transposed row.
        let disciplines = diff.analysis.discipline_map();
        let treatment = if disciplines
            .iter()
            .any(|(_, _, m)| *m == IncMode::Transposed)
        {
            let regions = disciplines.iter().map(|(r, _, _)| r + 1).max().unwrap_or(0);
            let mut maps: Vec<HashMap<String, IncMode>> = vec![HashMap::new(); regions];
            for (r, a, m) in &disciplines {
                let mode = if *m == IncMode::Transposed {
                    IncMode::Transposed
                } else {
                    IncMode::Atomic
                };
                maps[*r].insert(a.clone(), mode);
            }
            ParallelTreatment::PerArray(maps)
        } else {
            ParallelTreatment::Uniform(IncMode::Transposed)
        };
        let transposed = tool
            .adjoint_with(primal, treatment)
            .expect("transposed adjoint");
        let adj_transposed = (program_to_string(&transposed) != program_to_string(&adj_atomic))
            .then_some(transposed);
        ProgramVersions {
            primal: primal.clone(),
            primal_serial: primal.strip_parallel(),
            adj_serial: tool
                .adjoint_with(primal, ParallelTreatment::Serial)
                .expect("serial adjoint"),
            adj_formad: diff.adjoint,
            adj_atomic,
            adj_reduction: tool
                .adjoint_with(primal, ParallelTreatment::Uniform(IncMode::Reduction))
                .expect("reduction adjoint"),
            adj_transposed,
            analysis: diff.analysis,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use formad_kernels::StencilCase;

    #[test]
    fn versions_differ_as_expected() {
        let c = StencilCase::small(32, 1);
        let v = ProgramVersions::generate(
            &c.ir(),
            StencilCase::independents(),
            StencilCase::dependents(),
        );
        let formad_txt = formad_ir::program_to_string(&v.adj_formad);
        let atomic_txt = formad_ir::program_to_string(&v.adj_atomic);
        let red_txt = formad_ir::program_to_string(&v.adj_reduction);
        let serial_txt = formad_ir::program_to_string(&v.adj_serial);
        assert!(!formad_txt.contains("atomic"));
        assert!(atomic_txt.contains("!$omp atomic"));
        assert!(red_txt.contains("reduction(+: uoldb)"));
        assert!(!serial_txt.contains("!$omp"));
        assert!(v.analysis.all_safe());
        // The stencil's scatter map is invertible and structurally safe,
        // so a distinct transposed version exists and needs no atomics.
        let tr_txt = formad_ir::program_to_string(v.adj_transposed.as_ref().unwrap());
        assert!(!tr_txt.contains("atomic"), "{tr_txt}");
        assert_ne!(tr_txt, atomic_txt);
    }

    #[test]
    fn lbm_exec_transposed_comes_from_the_proof() {
        let c = formad_kernels::LbmExecCase::smoke();
        let v = ProgramVersions::generate(
            &c.ir(),
            formad_kernels::LbmExecCase::independents(),
            formad_kernels::LbmExecCase::dependents(),
        );
        // The analysis proves the gather safe (Conflict → transposed), so
        // the FormAD plan and the transposed version agree: a gather with
        // no atomics, distinct from the atomic version.
        assert!(v.analysis.all_safe());
        assert!(v
            .analysis
            .discipline_map()
            .iter()
            .any(|(_, a, m)| a == "srcgrid" && *m == IncMode::Transposed));
        let tr_txt = formad_ir::program_to_string(v.adj_transposed.as_ref().unwrap());
        assert!(!tr_txt.contains("atomic"), "{tr_txt}");
        let at_txt = formad_ir::program_to_string(&v.adj_atomic);
        assert!(at_txt.contains("!$omp atomic"), "{at_txt}");
    }

    #[test]
    fn non_invertible_scatter_has_no_transposed_version() {
        // Green-Gauss gathers through mesh indirection: the scatter map
        // is not invertible, the transposed request degrades to atomic
        // everywhere, and no separate version is reported.
        let c = formad_kernels::GreenGaussCase::linear(32, 1);
        let v = ProgramVersions::generate(
            &c.ir(),
            formad_kernels::GreenGaussCase::independents(),
            formad_kernels::GreenGaussCase::dependents(),
        );
        assert!(v.adj_transposed.is_none());
    }
}
