//! Shared execution-driver plumbing: parameter binding and output
//! rendering used identically by `formad exec` and the resident service,
//! and the adjoint seeding every differential suite shares.
//!
//! Both front ends take the same inputs — scalar `k=v` assignments plus a
//! fill seed — and must produce bitwise-identical runs, so the binding
//! rules live here once: every integer parameter must be set explicitly
//! (array extents depend on them), real scalars default to zero, real
//! array parameters are filled from a deterministic per-name splitmix64
//! stream, and integer arrays are filled `1, 2, 3, …` so index arrays
//! stay within the 1-based bounds of same-extent arrays.

use std::fmt;

use formad_ir::{Intent, Program, Ty};

use crate::bindings::Bindings;
use crate::lower::lower;

/// Why a parameter binding could not be built. Front ends map these to
/// usage errors (CLI exit 2, HTTP 400) — the program itself is fine, the
/// caller's inputs are not.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BindError {
    /// `name` is not a parameter of the program.
    NotAParameter { name: String, program: String },
    /// Arrays are filled deterministically and cannot be set.
    ArrayParameter { name: String },
    /// An integer parameter got a non-integer value.
    BadInt { name: String, raw: String },
    /// A real parameter got a non-numeric value.
    BadReal { name: String, raw: String },
    /// An integer parameter was never assigned.
    MissingInt { name: String },
    /// Lowering the declared extents failed (e.g. a negative extent).
    Lower(String),
}

impl fmt::Display for BindError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BindError::NotAParameter { name, program } => {
                write!(f, "`{name}` is not a parameter of `{program}`")
            }
            BindError::ArrayParameter { name } => {
                write!(f, "`{name}` is an array (only scalars can be set)")
            }
            BindError::BadInt { name, raw } => {
                write!(f, "integer `{name}` got non-integer `{raw}`")
            }
            BindError::BadReal { name, raw } => {
                write!(f, "real `{name}` got non-numeric `{raw}`")
            }
            BindError::MissingInt { name } => {
                write!(
                    f,
                    "integer parameter `{name}` needs a value: --set {name}=N"
                )
            }
            BindError::Lower(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for BindError {}

/// Deterministic fill for a real array parameter: a splitmix64 stream
/// keyed by the seed and the array name, mapped into (-1, 1). Keyed per
/// name so reordering assignments or declarations never changes data.
pub fn fill_real(name: &str, seed: u64, len: usize) -> Vec<f64> {
    let mut h = 0xcbf2_9ce4_8422_2325_u64; // FNV-1a over the name
    for b in name.bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
    }
    let mut s = seed ^ h;
    (0..len)
        .map(|_| {
            s = s.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^= z >> 31;
            (z >> 11) as f64 / (1u64 << 53) as f64 * 2.0 - 1.0
        })
        .collect()
}

/// Build complete [`Bindings`] for `prog` from scalar assignments and a
/// fill seed: scalars are parsed and defaulted, the declared extents are
/// evaluated (via [`lower`]) to size the array parameters, and the
/// arrays are filled deterministically.
pub fn bind_params(
    prog: &Program,
    sets: &[(String, String)],
    seed: u64,
) -> Result<Bindings, BindError> {
    let mut bind = Bindings::new();
    for (name, raw) in sets {
        let Some(d) = prog.params.iter().find(|d| d.name == *name) else {
            return Err(BindError::NotAParameter {
                name: name.clone(),
                program: prog.name.clone(),
            });
        };
        if d.is_array() {
            return Err(BindError::ArrayParameter { name: name.clone() });
        }
        match d.ty {
            Ty::Int => match raw.parse::<i64>() {
                Ok(v) => {
                    bind.int_scalars.insert(name.clone(), v);
                }
                Err(_) => {
                    return Err(BindError::BadInt {
                        name: name.clone(),
                        raw: raw.clone(),
                    })
                }
            },
            Ty::Real => match raw.parse::<f64>() {
                Ok(v) => {
                    bind.real_scalars.insert(name.clone(), v);
                }
                Err(_) => {
                    return Err(BindError::BadReal {
                        name: name.clone(),
                        raw: raw.clone(),
                    })
                }
            },
        }
    }
    for d in &prog.params {
        if d.is_array() {
            continue;
        }
        match d.ty {
            // Array extents are expressions over the integer parameters,
            // so a missing one cannot be defaulted meaningfully.
            Ty::Int if !bind.int_scalars.contains_key(d.name.as_str()) => {
                return Err(BindError::MissingInt {
                    name: d.name.to_string(),
                });
            }
            Ty::Real => {
                bind.real_scalars.entry(d.name.to_string()).or_insert(0.0);
            }
            _ => {}
        }
    }
    // Lowering evaluates the declared extents against the scalar
    // bindings — reuse it to size the array parameters.
    let lp = lower(prog, &bind).map_err(|e| BindError::Lower(e.to_string()))?;
    for d in &prog.params {
        if !d.is_array() {
            continue;
        }
        let len = lp.arrays[lp.array_ids[d.name.as_str()] as usize].len;
        match d.ty {
            Ty::Real => {
                bind.real_arrays
                    .insert(d.name.to_string(), fill_real(&d.name, seed, len));
            }
            // 1, 2, 3, … so integer arrays used as subscripts stay within
            // the 1-based bounds of same-extent arrays.
            Ty::Int => {
                bind.int_arrays
                    .insert(d.name.to_string(), (1..=len as i64).collect());
            }
        }
    }
    Ok(bind)
}

/// Extend primal bindings with adjoint seeds, the way every differential
/// suite and `fd::dot_product_test` seed a full backpropagation pass:
/// dependents' bars at 1.0, independents' bars accumulated from zero
/// (names that bind no real array are skipped), and every other real
/// parameter `prog` declares that is still unbound zeroed — a bar array
/// to the length of the array it shadows. Handed the primal, whose
/// parameters `base` already binds, the last step adds nothing.
pub fn adjoint_bindings<S: AsRef<str>>(
    prog: &Program,
    base: &Bindings,
    indep: &[S],
    dep: &[S],
) -> Bindings {
    let mut b = base.clone();
    for name in dep {
        if let Some(arr) = base.get_real_array(name.as_ref()) {
            b.real_arrays
                .insert(format!("{}b", name.as_ref()), vec![1.0; arr.len()]);
        }
    }
    for name in indep {
        if let Some(arr) = base.get_real_array(name.as_ref()) {
            b.real_arrays
                .entry(format!("{}b", name.as_ref()))
                .or_insert_with(|| vec![0.0; arr.len()]);
        }
    }
    for d in prog.params.iter().filter(|d| d.ty == Ty::Real) {
        if !d.is_array() {
            b.real_scalars.entry(d.name.to_string()).or_insert(0.0);
        } else if !b.real_arrays.contains_key(d.name.as_str()) {
            let shadowed = d
                .name
                .strip_suffix('b')
                .and_then(|s| base.get_real_array(s));
            if let Some(arr) = shadowed {
                b.real_arrays
                    .insert(d.name.to_string(), vec![0.0; arr.len()]);
            }
        }
    }
    b
}

/// Render the `intent(out)` / `intent(inout)` results of a finished run,
/// one line per parameter in declaration order — the exact lines
/// `formad exec` prints, so service responses diff cleanly against CLI
/// output.
pub fn output_lines(prog: &Program, bind: &Bindings) -> Vec<String> {
    let mut out = Vec::new();
    for d in &prog.params {
        if !matches!(d.intent, Intent::Out | Intent::InOut) {
            continue;
        }
        match (d.is_array(), d.ty) {
            (false, Ty::Real) => {
                out.push(format!(
                    "{} = {:.17e}",
                    d.name,
                    bind.real_scalars[d.name.as_str()]
                ));
            }
            (false, Ty::Int) => out.push(format!(
                "{} = {}",
                d.name,
                bind.int_scalars[d.name.as_str()]
            )),
            (true, Ty::Real) => {
                let a = &bind.real_arrays[d.name.as_str()];
                let sum: f64 = a.iter().sum();
                out.push(format!("{}: len={} sum={:.17e}", d.name, a.len(), sum));
            }
            (true, Ty::Int) => {
                let a = &bind.int_arrays[d.name.as_str()];
                let sum: i64 = a.iter().sum();
                out.push(format!("{}: len={} sum={}", d.name, a.len(), sum));
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use formad_ir::parse_program;

    const AXPY: &str = r#"
subroutine axpy(n, a, x, y)
  integer, intent(in) :: n
  real, intent(in) :: a
  real, intent(in) :: x(n)
  real, intent(inout) :: y(n)
  integer :: i
  !$omp parallel do shared(x, y)
  do i = 1, n
    y(i) = y(i) + a * x(i)
  end do
end subroutine
"#;

    #[test]
    fn binds_fill_and_render_deterministically() {
        let prog = parse_program(AXPY).unwrap();
        let sets = vec![("n".to_string(), "8".to_string()), ("a".into(), "2".into())];
        let bind = bind_params(&prog, &sets, 42).unwrap();
        assert_eq!(bind.real_arrays["x"].len(), 8);
        assert_eq!(bind.int_scalars["n"], 8);
        // Same seed, same data; different seed, different data.
        let again = bind_params(&prog, &sets, 42).unwrap();
        assert_eq!(bind.real_arrays["x"], again.real_arrays["x"]);
        let other = bind_params(&prog, &sets, 43).unwrap();
        assert_ne!(bind.real_arrays["x"], other.real_arrays["x"]);
        let lines = output_lines(&prog, &bind);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("y: len=8 sum="), "{}", lines[0]);
    }

    #[test]
    fn adjoint_seeds_cover_every_bar_the_adjoint_declares() {
        let prog = parse_program(AXPY).unwrap();
        let sets = vec![("n".to_string(), "4".to_string()), ("a".into(), "2".into())];
        let base = bind_params(&prog, &sets, 42).unwrap();
        // Handed the primal: the seeds, and nothing else.
        let seeded = adjoint_bindings(&prog, &base, &["x", "nope"], &["y"]);
        assert_eq!(seeded.real_arrays["yb"], vec![1.0; 4]);
        assert_eq!(seeded.real_arrays["xb"], vec![0.0; 4]);
        assert_eq!(seeded.real_arrays.len(), base.real_arrays.len() + 2);
        assert_eq!(seeded.real_scalars, base.real_scalars);
        // Handed an adjoint that declares more bars than were asked for
        // (an active scalar, an array neither independent nor dependent):
        // they start from zero, sized by what they shadow.
        let adjoint = parse_program(
            &AXPY
                .replace("axpy(n, a, x, y)", "axpy_b(n, a, ab, x, xb, y, yb)")
                .replace(
                    "  integer :: i\n",
                    "  real, intent(inout) :: ab\n  real, intent(inout) :: xb(n)\n  \
                     real, intent(inout) :: yb(n)\n  integer :: i\n",
                ),
        )
        .unwrap();
        let none: [&str; 0] = [];
        let seeded = adjoint_bindings(&adjoint, &base, &none, &["y"]);
        assert_eq!(seeded.real_scalars["ab"], 0.0);
        assert_eq!(seeded.real_arrays["xb"], vec![0.0; 4]);
        assert_eq!(seeded.real_arrays["yb"], vec![1.0; 4]);
    }

    #[test]
    fn binding_errors_name_the_offender() {
        let prog = parse_program(AXPY).unwrap();
        let err = bind_params(&prog, &[("zz".into(), "1".into())], 42).unwrap_err();
        assert_eq!(err.to_string(), "`zz` is not a parameter of `axpy`");
        let err = bind_params(&prog, &[("x".into(), "1".into())], 42).unwrap_err();
        assert!(matches!(err, BindError::ArrayParameter { .. }));
        let err = bind_params(&prog, &[], 42).unwrap_err();
        assert_eq!(
            err.to_string(),
            "integer parameter `n` needs a value: --set n=N"
        );
        let err = bind_params(&prog, &[("n".into(), "x".into())], 42).unwrap_err();
        assert!(matches!(err, BindError::BadInt { .. }));
    }
}
