//! What the generated adjoint keeps of the primal, and that keeping less
//! changed no derivative.
//!
//! `formad-ad` decides from three data-flow facts (recompute set,
//! per-site to-be-recorded, adjoint liveness — `crates/ad/src/dataflow.rs`)
//! which primal statements the forward sweep re-executes and which values
//! go on the tape. This suite pins those decisions for the paper's
//! kernels, pins the derivative values bit for bit against the adjoints
//! generated before the analyses existed (which re-executed the whole
//! primal and taped by name), checks 500 fuzz-grammar programs against
//! finite differences, and shows the cases where recomputation must not
//! fire.

use std::collections::BTreeMap;

use formad::{Formad, FormadOptions};
use formad_ad::{differentiate, AdjointOptions, AdjointStats, ParallelTreatment};
use formad_bench::versions::ProgramVersions;
use formad_fuzz::harness::campaign_case;
use formad_fuzz::GenConfig;
use formad_ir::{parse_program, program_to_string, Program};
use formad_kernels::{lbm, GfmcCase, GreenGaussCase, LbmExecCase, StencilCase};
use formad_machine::{dot_product_test, fill_real, run, Bindings, Machine};

fn own(xs: &[&str]) -> Vec<String> {
    xs.iter().map(|s| s.to_string()).collect()
}

/// The FormAD adjoint of `primal` with its statistics.
fn formad_adjoint(primal: &Program, indep: &[&str], dep: &[&str]) -> (String, AdjointStats) {
    let r = Formad::new(FormadOptions::new(indep, dep))
        .differentiate(primal)
        .unwrap_or_else(|e| panic!("{}: {e}", primal.name));
    let stats = r.analysis.adjoint.expect("differentiate records the stats");
    (program_to_string(&r.adjoint), stats)
}

// ---------------------------------------------------------------------
// (a) Structure, kernel by kernel.
// ---------------------------------------------------------------------

/// A kernel that is linear in its active data: no adjoint statement
/// reads a value the primal computes, so none of its `stmts` statements
/// survive in the forward sweep and nothing is taped.
fn assert_keeps_nothing(
    primal: &Program,
    indep: &[&str],
    dep: &[&str],
    stmts: usize,
    recomputed: &[&str],
    branches: usize,
) {
    let (text, stats) = formad_adjoint(primal, indep, dep);
    assert_eq!(
        stats,
        AdjointStats {
            fwd_kept: 0,
            fwd_dropped: stmts,
            push_sites: 0,
            recomputed: own(recomputed),
            branches_reevaluated: branches,
        },
        "{}\n{text}",
        primal.name
    );
    assert!(!text.contains("push") && !text.contains("pop"), "{text}");
    assert!(!text.contains("ad_branch"), "{text}");
    // No statement writes a primal output.
    for d in dep {
        let write = format!("{d}(");
        assert!(
            !text.lines().any(|l| l.trim_start().starts_with(&write)),
            "{text}"
        );
    }
}

#[test]
fn linear_kernels_keep_nothing_of_the_primal() {
    let (st_in, st_out) = (StencilCase::independents(), StencilCase::dependents());
    assert_keeps_nothing(
        &StencilCase::small(64, 2).ir(),
        st_in,
        st_out,
        7,
        &["from"],
        0,
    );
    assert_keeps_nothing(
        &StencilCase::large(64, 2).ir(),
        st_in,
        st_out,
        21,
        &["from"],
        0,
    );
    assert_keeps_nothing(
        &GreenGaussCase::linear(32, 2).ir(),
        GreenGaussCase::independents(),
        GreenGaussCase::dependents(),
        9,
        &["i", "j"],
        1,
    );
    let (lbm_in, lbm_out) = (lbm::independents(), lbm::dependents());
    assert_keeps_nothing(&LbmExecCase::smoke().ir(), lbm_in, lbm_out, 20, &[], 0);
    // The Table-1 LBM: its nineteen offset scalars are constants.
    let offsets: Vec<&str> = formad_kernels::LBM_OFFSETS
        .iter()
        .map(|(n, _)| *n)
        .collect();
    assert_keeps_nothing(&formad_kernels::lbm_ir(), lbm_in, lbm_out, 39, &offsets, 0);
}

#[test]
fn green_gauss_recomputes_its_gather_indices_in_the_reversed_edge_loop() {
    let (text, _) = formad_adjoint(
        &GreenGaussCase::linear(32, 1).ir(),
        GreenGaussCase::independents(),
        GreenGaussCase::dependents(),
    );
    let at = |needle: &str| {
        text.find(needle)
            .unwrap_or_else(|| panic!("`{needle}` missing\n{text}"))
    };
    // After the loop header, before the branch that reads them.
    let head = at("do ie = color_ia(ic + 1) - 1, color_ia(ic), -1");
    assert!(head < at("i = e2n(1, ie)"), "{text}");
    assert!(at("i = e2n(1, ie)") < at("j = e2n(2, ie)"), "{text}");
    assert!(at("j = e2n(2, ie)") < at("if (i .ne. j) then"), "{text}");
    // The adjoint region reads the mesh and owns its indices.
    let pragma = text
        .lines()
        .find(|l| l.contains("!$omp parallel do"))
        .expect("parallel adjoint loop");
    assert!(pragma.contains("e2n"), "{pragma}");
    assert!(pragma.contains("private(dvfaceb, i, j)"), "{pragma}");
}

#[test]
fn gfmc_star_keeps_what_tanh_needs() {
    // The fused variant: one region, `cr` overwritten by `tanh(cr)` in
    // four statements of the same loop.
    let primal = GfmcCase::new(8, 1).ir_star();
    let (text, stats) = formad_adjoint(&primal, GfmcCase::independents(), GfmcCase::dependents());
    assert_eq!(stats.fwd_dropped, 0, "{text}");
    assert_eq!(stats.fwd_kept, 17, "{text}");
    assert_eq!(stats.push_sites, 4, "{text}");
    assert_eq!(
        stats.recomputed,
        own(&["idd", "iud", "idu", "iuu", "kk"]),
        "{text}"
    );
    assert_eq!(text.matches("call push(cr(").count(), 4, "{text}");
    assert_eq!(text.matches("call pop(cr(").count(), 4, "{text}");
    assert_eq!(text.matches("call push(").count(), 4, "{text}");
}

// ---------------------------------------------------------------------
// (b) Derivative values, bit for bit.
// ---------------------------------------------------------------------

/// FNV-1a over the bit patterns.
fn checksum(values: &[f64]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325_u64;
    for v in values {
        for b in v.to_bits().to_le_bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// `kernel/version/array → checksum` of every adjoint array after one
/// run of each of the five executable kernels' three parallel adjoints
/// on the simulated machine at one thread. Dependents' adjoints are
/// seeded from `fill_real`, all other adjoints start at zero.
fn adjoint_checksums() -> BTreeMap<String, String> {
    const SEED: u64 = 11;
    let st1 = StencilCase::small(200, 2);
    let st8 = StencilCase::large(200, 2);
    let gf = GfmcCase::new(16, 2);
    let gg = GreenGaussCase::linear(120, 2);
    let lb = LbmExecCase::smoke();
    type Io = &'static [&'static str];
    let kernels: Vec<(&str, Program, Bindings, Io, Io)> = vec![
        (
            "stencil1",
            st1.ir(),
            st1.bindings(SEED),
            StencilCase::independents(),
            StencilCase::dependents(),
        ),
        (
            "stencil8",
            st8.ir(),
            st8.bindings(SEED),
            StencilCase::independents(),
            StencilCase::dependents(),
        ),
        (
            "gfmc",
            gf.ir(),
            gf.bindings_split(SEED),
            GfmcCase::independents(),
            GfmcCase::dependents(),
        ),
        (
            "green_gauss",
            gg.ir(),
            gg.bindings(SEED),
            GreenGaussCase::independents(),
            GreenGaussCase::dependents(),
        ),
        (
            "lbm_exec",
            lb.ir(),
            lb.bindings(SEED),
            LbmExecCase::independents(),
            LbmExecCase::dependents(),
        ),
    ];
    let mut out = BTreeMap::new();
    for (name, primal, base, indep, dep) in kernels {
        let v = ProgramVersions::generate(&primal, indep, dep);
        let mut bind = base.clone();
        for n in indep {
            let len = base.real_arrays[*n].len();
            bind.real_arrays.insert(format!("{n}b"), vec![0.0; len]);
        }
        for n in dep {
            let len = base.real_arrays[*n].len();
            bind.real_arrays
                .insert(format!("{n}b"), fill_real(&format!("{n}b"), SEED, len));
        }
        for (version, adjoint) in [
            ("formad", &v.adj_formad),
            ("atomic", &v.adj_atomic),
            ("reduction", &v.adj_reduction),
        ] {
            let mut b = bind.clone();
            run(adjoint, &mut b, &Machine::with_threads(1))
                .unwrap_or_else(|e| panic!("{name}/{version}: {e}"));
            for (array, values) in &b.real_arrays {
                if !base.real_arrays.contains_key(array) {
                    out.insert(
                        format!("{name}/{version}/{array}"),
                        format!("{:016x}", checksum(values)),
                    );
                }
            }
        }
    }
    out
}

#[test]
fn adjoint_values_are_bitwise_those_of_the_store_all_adjoints() {
    // Recorded at the parent commit (0cb5442) by this same function, when
    // every adjoint re-executed the whole primal and taped by name. The
    // reverse arithmetic is untouched, so not one bit may differ.
    let recorded = include_str!("fixtures/adjoint_checksums.txt");
    let now: String = adjoint_checksums()
        .iter()
        .map(|(k, v)| format!("{k} {v}\n"))
        .collect();
    assert_eq!(
        recorded.lines().count(),
        30,
        "five kernels x three versions x two adjoint arrays"
    );
    assert_eq!(recorded, now, "now:\n{now}");
}

// ---------------------------------------------------------------------
// (c) Finite differences on the fuzz grammar.
// ---------------------------------------------------------------------

#[test]
fn fuzz_grammar_adjoints_pass_the_dot_test() {
    let gen = GenConfig::default();
    let mut slimmed = 0;
    for id in 0..500u64 {
        let case = campaign_case(15, id, &gen);
        let wrt: Vec<&str> = case.wrt.iter().map(String::as_str).collect();
        let of: Vec<&str> = case.of.iter().map(String::as_str).collect();
        let r = Formad::new(FormadOptions::new(&wrt, &of))
            .differentiate(&case.program)
            .unwrap_or_else(|e| panic!("case {id}: {e}\n{}", case.source()));
        let stats = r.analysis.adjoint.as_ref().expect("stats");
        slimmed += usize::from(stats.fwd_dropped > 0);
        let base = case.bindings().expect("bindings");
        let dirs: Vec<(&str, Vec<f64>)> = wrt
            .iter()
            .map(|n| (*n, fill_real(n, id ^ 1, base.real_arrays[*n].len())))
            .collect();
        let weights: Vec<(&str, Vec<f64>)> = of
            .iter()
            .map(|n| (*n, fill_real(n, id ^ 2, base.real_arrays[*n].len())))
            .collect();
        let dot = dot_product_test(
            &case.program,
            &r.adjoint,
            &base,
            &dirs,
            &weights,
            &Machine::with_threads(2),
            1e-6,
            "b",
        )
        .unwrap_or_else(|e| panic!("case {id}: {e}\n{}", program_to_string(&r.adjoint)));
        assert!(
            dot.passes(1e-4),
            "case {id}: fd {} vs adjoint {} (rel {})\n{}\n{}",
            dot.fd_value,
            dot.adjoint_value,
            dot.rel_error,
            case.source(),
            program_to_string(&r.adjoint)
        );
    }
    assert!(
        slimmed > 250,
        "only {slimmed} of 500 adjoints dropped anything"
    );
}

// ---------------------------------------------------------------------
// (d) Where recomputation must not fire.
// ---------------------------------------------------------------------

/// The serial and the parallel adjoint of `src`, both checked against
/// finite differences at `n = 12`; returns the parallel one.
fn checked_adjoint(src: &str, int_arrays: &[(&str, Vec<i64>)]) -> (String, AdjointStats) {
    let primal = parse_program(src).unwrap();
    let n = 12usize;
    let mut base = Bindings::new().int("n", n as i64);
    for (name, values) in int_arrays {
        base = base.int_array(name, values.clone());
    }
    for d in &primal.params {
        if d.ty == formad_ir::Ty::Real && d.is_array() {
            base = base.real_array(&d.name, fill_real(&d.name, 3, n));
        }
    }
    let mut out = None;
    for treatment in [
        ParallelTreatment::Serial,
        ParallelTreatment::Uniform(formad_ad::IncMode::Atomic),
    ] {
        let adj = differentiate(&primal, &AdjointOptions::new(&["x"], &["y"], treatment))
            .unwrap_or_else(|e| panic!("{e}"));
        let text = program_to_string(&adj.program);
        for threads in [1, 3] {
            let dot = dot_product_test(
                &primal,
                &adj.program,
                &base,
                &[("x", fill_real("dx", 4, n))],
                &[("y", fill_real("wy", 5, n))],
                &Machine::with_threads(threads),
                1e-6,
                "b",
            )
            .unwrap_or_else(|e| panic!("{e}\n{text}"));
            assert!(
                dot.passes(1e-6),
                "rel {} at T={threads}\n{text}",
                dot.rel_error
            );
        }
        out = Some((text, adj.stats));
    }
    out.expect("two treatments")
}

fn identity(n: i64) -> Vec<i64> {
    (1..=n).collect()
}

#[test]
fn index_read_from_an_array_the_program_writes_stays_on_the_tape() {
    // `c` is rotated after the gather loop: its values when the backward
    // sweep reaches that loop are not the ones `t` was read from.
    let (text, stats) = checked_adjoint(
        r#"
subroutine neg1(n, c, x, y)
  integer, intent(in) :: n
  integer, intent(inout) :: c(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i, t
  !$omp parallel do shared(c, x, y) private(t)
  do i = 1, n
    t = c(i)
    y(i) = y(i) + x(t) * x(t)
  end do
  !$omp parallel do shared(c)
  do i = 1, n
    c(i) = n + 1 - c(i)
  end do
end subroutine
"#,
        &[("c", identity(12))],
    );
    assert!(stats.recomputed.is_empty(), "{text}");
    assert!(text.contains("call push(t)"), "{text}");
    assert!(text.contains("call pop(t)"), "{text}");
    // One value per iteration: `t` is undefined when an iteration starts,
    // so the assignment overwrites nothing worth keeping.
    assert_eq!(text.matches("call push(t)").count(), 1, "{text}");
}

#[test]
fn index_defined_under_an_if_stays_on_the_tape() {
    let (text, stats) = checked_adjoint(
        r#"
subroutine neg2(n, c, x, y)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i, t
  !$omp parallel do shared(c, x, y) private(t)
  do i = 1, n
    if (c(i) .gt. 4) then
      t = c(i)
    else
      t = 1
    end if
    y(i) = y(i) + x(t) * x(t)
  end do
end subroutine
"#,
        &[("c", identity(12))],
    );
    assert!(stats.recomputed.is_empty(), "{text}");
    assert_eq!(text.matches("call push(t)").count(), 1, "{text}");
    // The branch itself is decided by unwritten data and holds no
    // adjoint work: no flag, and nothing to evaluate again.
    assert!(!text.contains("ad_branch"), "{text}");
    assert_eq!(stats.branches_reevaluated, 0, "{text}");
}

#[test]
fn index_used_before_its_definition_stays_on_the_tape() {
    // Sequential loop: iteration `i` gathers through the `t` iteration
    // `i - 1` left behind.
    let (text, stats) = checked_adjoint(
        r#"
subroutine neg3(n, c, x, y)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i, t
  t = 1
  do i = 1, n
    y(i) = y(i) + x(t) * x(t)
    t = c(i)
  end do
end subroutine
"#,
        &[("c", identity(12))],
    );
    assert!(stats.recomputed.is_empty(), "{text}");
    assert!(text.contains("call push(t)"), "{text}");
    assert!(text.contains("call pop(t)"), "{text}");
    assert!(text.contains("t = c(i)"), "{text}");
}

#[test]
fn index_assigned_at_two_sites_stays_on_the_tape() {
    let (text, stats) = checked_adjoint(
        r#"
subroutine neg4(n, c, x, y)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i, t
  !$omp parallel do shared(c, x, y) private(t)
  do i = 1, n
    t = c(i)
    y(i) = y(i) + x(t) * x(t)
    t = c(n + 1 - i)
    y(i) = y(i) + x(t) * x(i)
  end do
end subroutine
"#,
        &[("c", identity(12))],
    );
    assert!(stats.recomputed.is_empty(), "{text}");
    // The first value where the second assignment overwrites it, the
    // second where the iteration ends.
    assert_eq!(text.matches("call push(t)").count(), 2, "{text}");
    assert_eq!(text.matches("call pop(t)").count(), 2, "{text}");
}

#[test]
fn branch_on_an_operand_overwritten_inside_it_keeps_its_flag() {
    let (text, stats) = checked_adjoint(
        r#"
subroutine neg5(n, c, x, y)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i, t
  !$omp parallel do shared(c, x, y) private(t)
  do i = 1, n
    t = c(i)
    if (t .gt. 4) then
      y(i) = y(i) + x(t) * x(t)
      t = 1
    end if
    y(i) = y(i) + x(t) * x(i)
  end do
end subroutine
"#,
        &[("c", identity(12))],
    );
    assert_eq!(stats.branches_reevaluated, 0, "{text}");
    assert!(text.contains("call pop(ad_branch0)"), "{text}");
    assert!(stats.recomputed.is_empty(), "{text}");
}

#[test]
fn the_positive_twin_of_the_negative_cases_recomputes() {
    // Same shape as the cases above with every obstacle removed.
    let (text, stats) = checked_adjoint(
        r#"
subroutine pos(n, c, x, y)
  integer, intent(in) :: n
  integer, intent(in) :: c(n)
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i, t
  !$omp parallel do shared(c, x, y) private(t)
  do i = 1, n
    t = c(i)
    if (t .gt. 4) then
      y(i) = y(i) + x(t) * x(t)
    end if
  end do
end subroutine
"#,
        &[("c", identity(12))],
    );
    assert_eq!(stats.recomputed, own(&["t"]), "{text}");
    assert_eq!(stats.branches_reevaluated, 1, "{text}");
    assert_eq!((stats.fwd_kept, stats.push_sites), (0, 0), "{text}");
}
