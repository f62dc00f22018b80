//! Finite-difference validation of generated derivatives.
//!
//! The standard dot-product test: for the primal map `y = F(x)`, reverse
//! mode computes `x̄ = Jᵀ ȳ`. Central finite differences approximate the
//! directional derivative `J·v`. Correctness requires
//! `⟨ȳ, J·v⟩ = ⟨x̄, v⟩` for random `ȳ`, `v` — checked here to a relative
//! tolerance. The tangent-mode variant checks `⟨w, ẏ⟩` for `ẏ = J·ẋ`
//! against the same finite-difference value directly.

use std::collections::HashMap;

use formad_ir::{Program, Ty};

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
/// * `machine` — thread count (results must not depend on it).
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
/// validated under *any* execution backend (e.g. an AOT kernel via
/// [`crate::aot::run_aot`]) — the runner executes a program against
/// bindings, writing parameter results back.
#[allow(clippy::too_many_arguments)]
pub fn dot_product_test_with<R>(
    primal: &Program,
    adjoint: &Program,
    base: &Bindings,
    independents: &[(&str, Vec<f64>)],
    dependents: &[(&str, Vec<f64>)],
    h: f64,
    suffix: &str,
    runner: R,
) -> Result<DotTest, ExecError>
where
    R: FnMut(&Program, &mut Bindings) -> Result<(), ExecError>,
{
    dot_test(
        primal,
        adjoint,
        base,
        independents,
        dependents,
        h,
        suffix,
        true,
        runner,
    )
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
    dot_test(
        primal,
        tangent,
        base,
        independents,
        dependents,
        h,
        suffix,
        false,
        |p, b| run(p, b, machine).map(|_| ()),
    )
}

/// The test both modes share: `⟨w, J·v⟩` by [`central_difference`]
/// against one run of `derived`. Reverse mode seeds the dependents' bars
/// with `w` and reads `⟨x̄, v⟩`; forward mode seeds the independents'
/// tangents with `v` and reads `⟨w, ẏ⟩`. The read arrays accumulate
/// from zero unless also seeded, and so does every other derivative
/// array `derived` declares ([`zero_unbound_shadows`]).
#[allow(clippy::too_many_arguments)]
fn dot_test<R>(
    primal: &Program,
    derived: &Program,
    base: &Bindings,
    independents: &[(&str, Vec<f64>)],
    dependents: &[(&str, Vec<f64>)],
    h: f64,
    suffix: &str,
    reverse: bool,
    mut runner: R,
) -> Result<DotTest, ExecError>
where
    R: FnMut(&Program, &mut Bindings) -> Result<(), ExecError>,
{
    // The one copy of `base` the test makes; each run starts from it
    // refreshed in place.
    let mut b = base.clone();
    let fd_value = central_difference(
        primal,
        base,
        &mut b,
        independents,
        dependents,
        h,
        &mut runner,
    )?;
    let (seeds, reads, seed_role, read_role) = if reverse {
        (dependents, independents, "dependent", "adjoint")
    } else {
        (independents, dependents, "independent", "tangent")
    };
    refresh(&mut b, base);
    for (name, seed) in seeds {
        let arr_len = base
            .get_real_array(name)
            .ok_or_else(|| ExecError::new(format!("{seed_role} `{name}` unbound")))?
            .len();
        assert_eq!(arr_len, seed.len(), "seed length mismatch for {name}");
        b.real_arrays
            .insert(format!("{name}{suffix}"), seed.clone());
    }
    for (name, weights) in reads {
        b.real_arrays
            .entry(format!("{name}{suffix}"))
            .or_insert_with(|| vec![0.0; weights.len()]);
    }
    zero_unbound_shadows(derived, base, &mut b, suffix);
    runner(derived, &mut b)?;
    let mut derived_value = 0.0;
    for (name, weights) in reads {
        let d = b
            .get_real_array(&format!("{name}{suffix}"))
            .ok_or_else(|| ExecError::new(format!("{read_role} of `{name}` missing")))?;
        for (g, w) in d.iter().zip(weights) {
            derived_value += g * w;
        }
    }
    let denom = fd_value.abs().max(derived_value.abs()).max(1e-12);
    Ok(DotTest {
        fd_value,
        adjoint_value: derived_value,
        rel_error: (fd_value - derived_value).abs() / denom,
    })
}

/// `⟨w, J·v⟩` by central differences on the primal:
/// `(g(h) − g(−h)) / 2h` with `g(s) = ⟨w, F(x + s·v)⟩`, for directions
/// `v` per independent and weights `w` per dependent. Each evaluation
/// runs on `work`, refreshed from `base` first.
fn central_difference<R>(
    primal: &Program,
    base: &Bindings,
    work: &mut Bindings,
    independents: &[(&str, Vec<f64>)],
    dependents: &[(&str, Vec<f64>)],
    h: f64,
    runner: &mut R,
) -> Result<f64, ExecError>
where
    R: FnMut(&Program, &mut Bindings) -> Result<(), ExecError>,
{
    let mut eval_g = |s: f64| -> Result<f64, ExecError> {
        let b = &mut *work;
        refresh(b, base);
        for (name, v) in independents {
            let arr = b
                .real_arrays
                .get_mut(*name)
                .ok_or_else(|| ExecError::new(format!("independent `{name}` unbound")))?;
            for (a, d) in arr.iter_mut().zip(v) {
                *a += s * d;
            }
        }
        runner(primal, b)?;
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
    Ok((eval_g(h)? - eval_g(-h)?) / (2.0 * h))
}

/// Make `work` equal to `base` again, reusing its vectors' storage: a
/// run may change the values under `base`'s names, and the caller may
/// have bound names `base` does not have.
fn refresh(work: &mut Bindings, base: &Bindings) {
    fn copy<T: Clone>(work: &mut HashMap<String, T>, base: &HashMap<String, T>) {
        work.retain(|k, _| base.contains_key(k));
        for (k, v) in base {
            match work.get_mut(k) {
                Some(w) => w.clone_from(v),
                None => {
                    work.insert(k.clone(), v.clone());
                }
            }
        }
    }
    copy(&mut work.real_scalars, &base.real_scalars);
    copy(&mut work.int_scalars, &base.int_scalars);
    copy(&mut work.real_arrays, &base.real_arrays);
    copy(&mut work.int_arrays, &base.int_arrays);
}

/// Bind every real array parameter of `prog` that `b` does not bind yet
/// and that shadows an array of `base` (its name is that array's plus
/// `suffix`) to zeros of the shadowed array's length: the derivative
/// arrays a seeding left out start from zero.
pub(crate) fn zero_unbound_shadows(
    prog: &Program,
    base: &Bindings,
    b: &mut Bindings,
    suffix: &str,
) {
    for d in &prog.params {
        if d.is_array() && d.ty == Ty::Real && !b.real_arrays.contains_key(d.name.as_str()) {
            let shadowed = d
                .name
                .strip_suffix(suffix)
                .and_then(|stem| base.get_real_array(stem));
            if let Some(arr) = shadowed {
                b.real_arrays
                    .insert(d.name.to_string(), vec![0.0; arr.len()]);
            }
        }
    }
}
