//! Finite-difference validation of generated derivatives.
//!
//! The standard dot-product test: for the primal map `y = F(x)`, reverse
//! mode computes `x̄ = Jᵀ ȳ`. Central finite differences approximate the
//! directional derivative `J·v`. Correctness requires
//! `⟨ȳ, J·v⟩ = ⟨x̄, v⟩` for random `ȳ`, `v` — checked here to a relative
//! tolerance. The tangent-mode variant checks `⟨w, ẏ⟩` for `ẏ = J·ẋ`
//! against the same finite-difference value directly.

use formad_ir::Program;

use crate::bindings::{Bindings, ExecError};
use crate::interp::{run, Machine};

/// Outcome of one dot-product test.
#[derive(Debug, Clone)]
pub struct DotTest {
    /// ⟨ȳ, J·v⟩ from central finite differences on the primal.
    pub fd_value: f64,
    /// ⟨x̄, v⟩ from the adjoint program (or ⟨w, ẏ⟩ from the tangent
    /// program in [`tangent_dot_test`]).
    pub adjoint_value: f64,
    /// |fd − adj| / max(|fd|, |adj|, 1e-12).
    pub rel_error: f64,
}

impl DotTest {
    /// Does the test pass at tolerance `tol`?
    pub fn passes(&self, tol: f64) -> bool {
        self.rel_error <= tol
    }
}

/// Run the dot-product test.
///
/// * `primal` — the original subroutine; `adjoint` — its reverse-mode
///   transformation (parameters: primal's plus `xb`-style adjoints).
/// * `base` — bindings for all primal parameters.
/// * `independents` / `dependents` — real *array* parameter names being
///   differentiated (scalar in/outputs can be modeled as 1-element
///   arrays).
/// * `v` — direction per independent (same length as the array);
///   `ybar` — weights per dependent.
/// * `machine` — thread count/cost model (results must not depend on it).
#[allow(clippy::too_many_arguments)]
pub fn dot_product_test(
    primal: &Program,
    adjoint: &Program,
    base: &Bindings,
    independents: &[(&str, Vec<f64>)],
    dependents: &[(&str, Vec<f64>)],
    machine: &Machine,
    h: f64,
    suffix: &str,
) -> Result<DotTest, ExecError> {
    dot_product_test_with(
        primal,
        adjoint,
        base,
        independents,
        dependents,
        h,
        suffix,
        |p, b| run(p, b, machine).map(|_| ()),
    )
}

/// [`dot_product_test`] with a caller-supplied runner, so adjoints can be
/// validated under *any* execution backend (e.g. the native bytecode
/// executor via [`crate::exec::run_native`]) — the runner executes a
/// program against bindings, writing parameter results back.
#[allow(clippy::too_many_arguments)]
pub fn dot_product_test_with<R>(
    primal: &Program,
    adjoint: &Program,
    base: &Bindings,
    independents: &[(&str, Vec<f64>)],
    dependents: &[(&str, Vec<f64>)],
    h: f64,
    suffix: &str,
    mut runner: R,
) -> Result<DotTest, ExecError>
where
    R: FnMut(&Program, &mut Bindings) -> Result<(), ExecError>,
{
    // --- finite differences: g(s) = ⟨ȳ, F(x + s·v)⟩ -----------------------
    let mut eval_g = |s: f64| -> Result<f64, ExecError> {
        let mut b = base.clone();
        for (name, v) in independents {
            let arr = b
                .real_arrays
                .get_mut(*name)
                .ok_or_else(|| ExecError::new(format!("independent `{name}` unbound")))?;
            for (a, d) in arr.iter_mut().zip(v) {
                *a += s * d;
            }
        }
        runner(primal, &mut b)?;
        let mut g = 0.0;
        for (name, w) in dependents {
            let arr = b
                .get_real_array(name)
                .ok_or_else(|| ExecError::new(format!("dependent `{name}` unbound")))?;
            for (y, wy) in arr.iter().zip(w) {
                g += y * wy;
            }
        }
        Ok(g)
    };
    let fd_value = (eval_g(h)? - eval_g(-h)?) / (2.0 * h);

    // --- adjoint: x̄ = Jᵀ ȳ, then ⟨x̄, v⟩ ---------------------------------
    let mut b = base.clone();
    for (name, w) in dependents {
        let arr_len = base
            .get_real_array(name)
            .ok_or_else(|| ExecError::new(format!("dependent `{name}` unbound")))?
            .len();
        assert_eq!(arr_len, w.len(), "seed length mismatch for {name}");
        b.real_arrays.insert(format!("{name}{suffix}"), w.clone());
    }
    for (name, v) in independents {
        // Zero-initialized adjoint accumulators (unless the variable is
        // also a dependent and already seeded).
        let key = format!("{name}{suffix}");
        b.real_arrays
            .entry(key)
            .or_insert_with(|| vec![0.0; v.len()]);
    }
    // Any other active adjoint parameters default to zero.
    for d in &adjoint.params {
        if d.is_array()
            && !b.real_arrays.contains_key(d.name.as_str())
            && d.ty == formad_ir::Ty::Real
        {
            if let Some(stem) = d.name.strip_suffix(suffix) {
                if let Some(primal_arr) = base.get_real_array(stem) {
                    b.real_arrays
                        .insert(d.name.to_string(), vec![0.0; primal_arr.len()]);
                }
            }
        }
    }
    runner(adjoint, &mut b)?;
    let mut adjoint_value = 0.0;
    for (name, v) in independents {
        let xb = b
            .get_real_array(&format!("{name}{suffix}"))
            .ok_or_else(|| ExecError::new(format!("adjoint of `{name}` missing")))?;
        for (g, d) in xb.iter().zip(v) {
            adjoint_value += g * d;
        }
    }

    let denom = fd_value.abs().max(adjoint_value.abs()).max(1e-12);
    Ok(DotTest {
        fd_value,
        adjoint_value,
        rel_error: (fd_value - adjoint_value).abs() / denom,
    })
}

/// Run the tangent-mode dot-product test.
///
/// For `ẏ = J·ẋ` the directional derivative `⟨w, J·ẋ⟩` is approximated
/// with central finite differences on the primal and compared against
/// `⟨w, ẏ⟩` from one tangent run seeded with `ẋ`.
///
/// * `tangent` — the forward-mode transformation of `primal` (parameters:
///   primal's plus `xd`-style tangents).
/// * `independents` — per array, the seed direction `ẋ`;
///   `dependents` — per array, the weight vector `w`.
/// * `suffix` — the tangent-variable suffix (`"d"` for `differentiate_tangent`).
#[allow(clippy::too_many_arguments)]
pub fn tangent_dot_test(
    primal: &Program,
    tangent: &Program,
    base: &Bindings,
    independents: &[(&str, Vec<f64>)],
    dependents: &[(&str, Vec<f64>)],
    machine: &Machine,
    h: f64,
    suffix: &str,
) -> Result<DotTest, ExecError> {
    // --- finite differences: g(s) = ⟨w, F(x + s·ẋ)⟩ -----------------------
    let eval_g = |s: f64| -> Result<f64, ExecError> {
        let mut b = base.clone();
        for (name, v) in independents {
            let arr = b
                .real_arrays
                .get_mut(*name)
                .ok_or_else(|| ExecError::new(format!("independent `{name}` unbound")))?;
            for (a, d) in arr.iter_mut().zip(v) {
                *a += s * d;
            }
        }
        run(primal, &mut b, machine)?;
        let mut g = 0.0;
        for (name, w) in dependents {
            let arr = b
                .get_real_array(name)
                .ok_or_else(|| ExecError::new(format!("dependent `{name}` unbound")))?;
            for (y, wy) in arr.iter().zip(w) {
                g += y * wy;
            }
        }
        Ok(g)
    };
    let fd_value = (eval_g(h)? - eval_g(-h)?) / (2.0 * h);

    // --- tangent: ẏ = J·ẋ, then ⟨w, ẏ⟩ -----------------------------------
    let mut b = base.clone();
    for (name, v) in independents {
        let arr_len = base
            .get_real_array(name)
            .ok_or_else(|| ExecError::new(format!("independent `{name}` unbound")))?
            .len();
        assert_eq!(arr_len, v.len(), "seed length mismatch for {name}");
        b.real_arrays.insert(format!("{name}{suffix}"), v.clone());
    }
    for (name, w) in dependents {
        // Zero-initialized tangent outputs (unless the variable is also
        // an independent and already seeded).
        let key = format!("{name}{suffix}");
        b.real_arrays
            .entry(key)
            .or_insert_with(|| vec![0.0; w.len()]);
    }
    // Any other active tangent parameters default to zero.
    for d in &tangent.params {
        if d.is_array()
            && !b.real_arrays.contains_key(d.name.as_str())
            && d.ty == formad_ir::Ty::Real
        {
            if let Some(stem) = d.name.strip_suffix(suffix) {
                if let Some(primal_arr) = base.get_real_array(stem) {
                    b.real_arrays
                        .insert(d.name.to_string(), vec![0.0; primal_arr.len()]);
                }
            }
        }
    }
    run(tangent, &mut b, machine)?;
    let mut tangent_value = 0.0;
    for (name, w) in dependents {
        let yd = b
            .get_real_array(&format!("{name}{suffix}"))
            .ok_or_else(|| ExecError::new(format!("tangent of `{name}` missing")))?;
        for (g, wy) in yd.iter().zip(w) {
            tangent_value += g * wy;
        }
    }

    let denom = fd_value.abs().max(tangent_value.abs()).max(1e-12);
    Ok(DotTest {
        fd_value,
        adjoint_value: tangent_value,
        rel_error: (fd_value - tangent_value).abs() / denom,
    })
}
