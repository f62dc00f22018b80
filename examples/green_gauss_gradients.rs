//! Green-Gauss gradients on an unstructured mesh (paper §7.4): a colored
//! edge loop with data-dependent node indices and an `if` guard. FormAD
//! proves the adjoint of `dv` safe using knowledge extracted from the
//! `grad` increments — the cross-array knowledge transfer at the heart of
//! the paper — and the four adjoint program versions are run on the
//! reference interpreter, which counts the atomic updates each executes.
//!
//! ```sh
//! cargo run --release --example green_gauss_gradients
//! ```

use formad::{Formad, FormadOptions, IncMode, ParallelTreatment};
use formad_bench::adjoint_bindings;
use formad_kernels::GreenGaussCase;
use formad_machine::{run, Machine};

fn main() {
    let case = GreenGaussCase::linear(5_000, 1);
    let primal = case.ir();
    println!(
        "mesh: {} nodes, {} edges, {} colors",
        case.mesh.nodes,
        case.mesh.num_edges(),
        case.mesh.num_colors()
    );
    assert!(case.mesh.verify(), "coloring invariant");

    let tool = Formad::new(FormadOptions::new(
        GreenGaussCase::independents(),
        GreenGaussCase::dependents(),
    ));
    let result = tool.differentiate(&primal).expect("differentiate");
    print!("{}", formad::full_report(&primal.name, &result.analysis));
    assert!(result.analysis.all_safe());

    // Run the adjoint versions on 18 logical threads.
    let base = case.bindings(42);
    let adj_base = adjoint_bindings(
        &primal,
        &base,
        GreenGaussCase::independents(),
        GreenGaussCase::dependents(),
    );
    let atomic = tool
        .adjoint_with(&primal, ParallelTreatment::Uniform(IncMode::Atomic))
        .unwrap();
    let reduction = tool
        .adjoint_with(&primal, ParallelTreatment::Uniform(IncMode::Reduction))
        .unwrap();
    let serial = tool
        .adjoint_with(&primal, ParallelTreatment::Serial)
        .unwrap();

    println!("\natomic updates per adjoint run, 18 threads:");
    let m18 = Machine::with_threads(18);
    for (name, prog) in [
        ("serial", &serial),
        ("FormAD", &result.adjoint),
        ("atomic", &atomic),
        ("reduction", &reduction),
    ] {
        let mut b = adj_base.clone();
        let stats = run(prog, &mut b, &m18).expect("run").stats;
        println!("  {name:<10}: {}", stats.atomic_ops);
    }

    // And gradient values are identical regardless of version.
    let mut b_formad = adj_base.clone();
    run(&result.adjoint, &mut b_formad, &m18).unwrap();
    let mut b_atomic = adj_base.clone();
    run(&atomic, &mut b_atomic, &m18).unwrap();
    assert_eq!(
        b_formad.get_real_array("dvb"),
        b_atomic.get_real_array("dvb")
    );
    println!("\nadjoint values identical across versions ✓");
}
