//! One request model for both transports: `formad VERB FILE …` and
//! `POST /v1/{analyze,prove,exec}` decode into the same [`Request`],
//! through one field validator, and run through the same builders.
//!
//! Verbs: `analyze` / `prove` (the analysis report), `explain` (the
//! proof narrative), `adjoint` (one adjoint version), `versions` (all of
//! them), `exec` (run the program) and `compile` (build its AOT kernel).
//! The service answers `analyze`, `prove` and `exec`; the rest are the
//! CLI's.
//!
//! Fields, with the flag the CLI reads and the JSON key the service
//! reads (`-` where that transport does not read the field):
//!
//! | field | flag | key |
//! |---|---|---|
//! | program | `FILE` (read from disk) | `program` (source text) |
//! | independents | `--wrt a,b` | `wrt` (`"a,b"` or `["a","b"]`) |
//! | dependents | `--of c,d` | `of` |
//! | adjoint version | `--mode` (see [`ADJOINT_MODES`]) | - |
//! | output dialect | `--emit` | `emit` |
//! | ablations | `--no-stride`, `--no-contexts`, `--no-increment` | - |
//! | per-query prover allowance | `--prover-timeout-ms` | `prover_timeout_ms` |
//! | whole-request deadline | `--deadline-ms` | `deadline_ms` |
//! | durable cache directory | `--cache-dir` | - (the daemon's own) |
//! | trace file | `--trace` | - |
//! | Table-1 row name | `--table1` | - |
//! | array to narrate | `explain FILE ARRAY` | - |
//! | exec backend | `--backend` (see [`Backend`]) | `backend` |
//! | exec threads | `--threads` | `threads` |
//! | scalar parameters | `--set k=v,…` | `sets` (`{"k": v}`) |
//! | fill seed | `--seed` | `seed` |
//! | adjoint in the reply | - | `adjoint` |
//! | fault injection | - | `chaos`, `poison` |
//!
//! The one transport difference in defaults: `/v1/prove` replies with
//! the adjoint unless `adjoint` is `false`, while `formad prove` is an
//! alias of `formad analyze` and prints no adjoint. A field that is
//! present but of the wrong type or out of range is a [`Failure::Usage`]
//! naming the field, whichever transport carried it. `--jobs` is read
//! and discarded.
//!
//! A [`Failure`] is the one error of every stage; the CLI maps it to an
//! exit code and stderr text, the service to an HTTP status and `kind`.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use formad::{
    Deadline, FormadError, FormadErrorKind, FormadOptions, ParallelTreatment, TraceSink,
    ADJOINT_MODES,
};
use formad_ir::{parse_any, Program, SourceFlavor};
use formad_machine::{bind_params, BindError, Bindings, Machine, NativeEngine, NativeProgram};
use formad_smt::ChaosConfig;

use crate::json::Json;

/// What a request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verb {
    Analyze,
    Prove,
    Explain,
    Adjoint,
    Versions,
    Exec,
    Compile,
}

const VERBS: [(&str, Verb); 7] = [
    ("analyze", Verb::Analyze),
    ("prove", Verb::Prove),
    ("explain", Verb::Explain),
    ("adjoint", Verb::Adjoint),
    ("versions", Verb::Versions),
    ("exec", Verb::Exec),
    ("compile", Verb::Compile),
];

/// Where `exec` runs the program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// The reference interpreter.
    Sim,
    /// Register bytecode on real OS threads.
    Native,
    /// Parallel regions compiled to a native kernel, bytecode elsewhere.
    Aot,
}

const BACKENDS: [(&str, Backend); 3] = [
    ("sim", Backend::Sim),
    ("native", Backend::Native),
    ("aot", Backend::Aot),
];

impl Backend {
    pub fn name(self) -> &'static str {
        BACKENDS
            .iter()
            .find(|(_, b)| *b == self)
            .map_or("", |(n, _)| n)
    }
}

/// Why a request failed. The CLI prints it and exits with its code; the
/// service answers it with an HTTP status and `kind`.
#[derive(Debug)]
pub enum Failure {
    /// A flag or field the caller got wrong (message may be empty): exit
    /// 2 with the usage text, HTTP 400 `validate`.
    Usage(String),
    /// Other input the caller got wrong — an unreadable file, an unknown
    /// mode, a parameter that cannot be bound: exit 2, HTTP 400 `validate`.
    Input(String),
    /// The program does not parse: exit 3, HTTP 400 `parse`.
    Parse(String),
    /// The program parses but fails validation: exit 4, HTTP 400
    /// `validate`.
    Invalid(Vec<String>),
    /// The program cannot be laid out with these parameters: exit 4,
    /// HTTP 400 `validate`.
    Lower(String),
    /// The run itself failed: exit 4, HTTP 400 `exec`.
    Exec(String),
    /// The pipeline failed: exit 3–7 by kind; HTTP 400 by kind, a
    /// deadline 408.
    Pipeline(FormadError),
}

impl From<FormadError> for Failure {
    fn from(e: FormadError) -> Failure {
        Failure::Pipeline(e)
    }
}

/// The JSON keys a request body may carry; [`Request::set`] reads each
/// under the same arm as its flag.
const KEYS: &str = "wrt of emit prover_timeout_ms deadline_ms backend threads sets seed adjoint \
                    chaos poison";

/// One field's value as its transport delivered it.
#[derive(Clone, Copy)]
enum Raw<'a> {
    Arg(&'a str),
    Json(&'a Json),
    /// A flag that ends argv where its value should be.
    Missing,
}

impl<'a> Raw<'a> {
    fn text(self) -> Option<&'a str> {
        match self {
            Raw::Arg(s) => Some(s),
            Raw::Json(v) => v.as_str(),
            Raw::Missing => None,
        }
    }

    fn int(self) -> Option<u64> {
        match self {
            Raw::Arg(s) => s.parse().ok(),
            Raw::Json(v) => v.as_u64(),
            Raw::Missing => None,
        }
    }

    fn shown(self) -> String {
        match self {
            Raw::Json(v) => v.render(),
            _ => self.text().unwrap_or_default().to_string(),
        }
    }
}

/// One `formad` argv word.
pub enum Word<'a> {
    /// A flag with its value; `None` for a switch, or when argv ends where
    /// the value should be.
    Flag(&'a str, Option<&'a str>),
    /// A word that does not start with `-`.
    Positional(&'a str),
}

/// The one argv reader of every `formad` verb: a word starting with `-`
/// is a flag that takes the next word as its value, unless `switch` says
/// it takes none.
pub fn read_argv<'a>(
    words: &'a [String],
    switch: impl Fn(&str) -> bool,
) -> impl Iterator<Item = Word<'a>> {
    let mut it = words.iter().map(String::as_str);
    std::iter::from_fn(move || {
        let w = it.next()?;
        Some(match w.starts_with('-') {
            false => Word::Positional(w),
            true if switch(w) => Word::Flag(w, None),
            true => Word::Flag(w, it.next()),
        })
    })
}

/// The environment variable naming the default durable cache directory.
pub const CACHE_DIR_ENV: &str = "FORMAD_CACHE_DIR";

/// The durable cache directory the environment names, if any.
pub fn cache_dir_from_env() -> Option<PathBuf> {
    std::env::var_os(CACHE_DIR_ENV).map(PathBuf::from)
}

/// Parked native engines, one per logical thread count, so repeated runs
/// reuse their worker pools.
#[derive(Default)]
pub struct Engines(Mutex<HashMap<usize, NativeEngine>>);

/// One decoded request (see the module docs for the fields).
#[derive(Debug, Clone)]
pub struct Request {
    pub verb: Verb,
    /// Decoded from argv: messages name flags, not JSON keys.
    cli: bool,
    /// Source text of the program.
    program: String,
    pub array: Option<String>,
    /// The pipeline options the fields build (see [`Request::options`]).
    opts: FormadOptions,
    mode: String,
    pub emit: SourceFlavor,
    pub table1: Option<String>,
    pub cache_dir: Option<PathBuf>,
    pub trace: Option<String>,
    pub backend: Backend,
    pub threads: usize,
    sets: Vec<(String, String)>,
    seed: u64,
    /// The service replies with the FormAD adjoint too.
    pub adjoint: bool,
    /// Panic inside the pipeline (a service test hook).
    pub poison: bool,
}

impl Request {
    fn new(verb: Verb, cli: bool, program: String) -> Request {
        Request {
            verb,
            cli,
            program,
            array: None,
            opts: FormadOptions::new(&[], &[]),
            mode: "formad".into(),
            emit: SourceFlavor::Fortran,
            table1: None,
            cache_dir: None,
            trace: None,
            backend: Backend::Sim,
            threads: 1,
            sets: Vec::new(),
            seed: 42,
            adjoint: false,
            poison: false,
        }
    }

    /// Decode `VERB FILE [ARRAY] [flags]` (argv after the binary name)
    /// and read FILE. `cache_dir` applies unless `--cache-dir` is given.
    pub fn from_args(argv: &[String], cache_dir: Option<PathBuf>) -> Result<Request, Failure> {
        let (Some(verb), Some(file)) = (argv.first(), argv.get(1)) else {
            return Err(Failure::Usage(String::new()));
        };
        let Some(&(_, verb)) = VERBS.iter().find(|(n, _)| n == verb) else {
            return Err(Failure::Usage(format!("unknown command `{verb}`")));
        };
        let mut req = Request::new(verb, true, String::new());
        req.cache_dir = cache_dir;
        let switch = |w: &str| w.starts_with("--no-");
        for word in read_argv(&argv[2..], switch) {
            match word {
                Word::Positional(a) if verb == Verb::Explain && req.array.is_none() => {
                    req.array = Some(a.to_string());
                }
                Word::Positional(a) => {
                    return Err(Failure::Usage(format!("unexpected argument `{a}`")));
                }
                Word::Flag(flag, Some(v)) => req.set(flag, Raw::Arg(v))?,
                Word::Flag(flag, None) if switch(flag) => req.set(flag, Raw::Arg(""))?,
                Word::Flag(flag, None) => req.set(flag, Raw::Missing)?,
            }
        }
        req.require_sets()?;
        req.program = std::fs::read_to_string(file)
            .map_err(|e| Failure::Input(format!("cannot read {file}: {e}")))?;
        Ok(req)
    }

    /// Decode the JSON body of a `verb` request. `deadline_ms` applies
    /// unless the body carries its own.
    pub fn from_json(verb: Verb, body: &str, deadline_ms: Option<u64>) -> Result<Request, Failure> {
        let json = Json::parse(body).map_err(|e| Failure::Parse(format!("bad JSON: {e}")))?;
        let Some(program) = json.get("program").and_then(Json::as_str) else {
            return Err(Failure::Parse("`program` (string) is required".into()));
        };
        let mut req = Request::new(verb, false, program.to_string());
        req.adjoint = verb == Verb::Prove;
        req.opts.region.deadline = deadline_ms.map(Deadline::in_ms);
        for key in KEYS.split_whitespace() {
            if let Some(v) = json.get(key) {
                req.set(key, Raw::Json(v))?;
            }
        }
        req.require_sets()?;
        Ok(req)
    }

    /// The field validator: one arm per field, under its flag and its
    /// JSON key.
    fn set(&mut self, name: &str, raw: Raw) -> Result<(), Failure> {
        let field = match self.cli {
            true => name.to_string(),
            false => format!("`{name}`"),
        };
        let bad = |what: &str| match raw {
            Raw::Missing => Failure::Usage(String::new()),
            _ => Failure::Usage(format!("{field} expects {what}, got `{}`", raw.shown())),
        };
        let text = || raw.text().map(str::to_string).ok_or_else(|| bad("a value"));
        let int = || raw.int().ok_or_else(|| bad("an integer"));
        let flag = || match raw {
            Raw::Json(v) => v.as_bool().ok_or_else(|| bad("true or false")),
            _ => Ok(true),
        };
        let o = &mut self.opts;
        match name {
            "--wrt" | "wrt" | "--of" | "of" => {
                let names = match raw {
                    Raw::Json(Json::Arr(items)) => items
                        .iter()
                        .map(|v| v.as_str().map(str::to_string))
                        .collect::<Option<Vec<_>>>(),
                    _ => raw.text().map(|s| {
                        let names = s.split(',').map(|p| p.trim().to_string());
                        names.filter(|p| !p.is_empty()).collect()
                    }),
                };
                let names = names.ok_or_else(|| bad("a list of names"))?;
                match name.ends_with("wrt") {
                    true => o.independents = names,
                    false => o.dependents = names,
                }
            }
            "--mode" => self.mode = text()?,
            "--emit" | "emit" => {
                let flavor = raw.text().and_then(SourceFlavor::from_name);
                let known = SourceFlavor::ALL.map(|f| format!("`{}`", f.name()));
                self.emit = flavor.ok_or_else(|| match raw {
                    Raw::Arg(a) => Failure::Usage(format!("unknown emit dialect `{a}`")),
                    _ => bad(&known.join(" or ")),
                })?;
            }
            "--table1" => self.table1 = Some(text()?),
            "--prover-timeout-ms" | "prover_timeout_ms" => {
                o.region.prover_timeout = Some(Duration::from_millis(int()?));
            }
            "--deadline-ms" | "deadline_ms" => o.region.deadline = Some(Deadline::in_ms(int()?)),
            "--trace" => self.trace = Some(text()?),
            "--jobs" => {
                int()?;
            }
            "--backend" | "backend" => {
                let found = BACKENDS.iter().find(|(n, _)| Some(*n) == raw.text());
                let known = BACKENDS.map(|(n, _)| format!("`{n}`"));
                let (last, rest) = known.split_last().expect("a backend");
                self.backend = found
                    .ok_or_else(|| bad(&format!("{} or {last}", rest.join(", "))))?
                    .1;
            }
            "--threads" | "threads" => {
                let n = raw.int().filter(|n| *n >= 1);
                self.threads = n.ok_or_else(|| bad("a positive integer"))? as usize;
            }
            "--set" | "sets" => match raw {
                Raw::Arg(s) => {
                    for pair in s.split(',') {
                        let (k, v) = pair.split_once('=').ok_or_else(|| {
                            Failure::Usage(format!("{field} expects k=v pairs, got `{pair}`"))
                        })?;
                        self.sets.push((k.trim().to_string(), v.trim().to_string()));
                    }
                }
                Raw::Json(Json::Obj(fields)) => {
                    for (k, v) in fields {
                        let v = match v {
                            Json::Str(s) => s.clone(),
                            Json::Num(_) => v.render(),
                            _ => {
                                return Err(Failure::Usage(format!("`sets.{k}` must be a scalar")))
                            }
                        };
                        self.sets.push((k.clone(), v));
                    }
                }
                _ => return Err(bad("an object")),
            },
            "--seed" | "seed" => self.seed = int()?,
            "--cache-dir" => self.cache_dir = Some(PathBuf::from(text()?)),
            "--no-stride" => o.region.stride_constraints = false,
            "--no-contexts" => o.region.use_contexts = false,
            "--no-increment" => o.region.use_increment_detection = false,
            "adjoint" => self.adjoint = flag()?,
            "poison" => self.poison = flag()?,
            "chaos" => {
                let Raw::Json(v @ Json::Obj(_)) = raw else {
                    return Err(bad("an object"));
                };
                let get = |key: &str, default: u64| match v.get(key) {
                    None => Ok(default),
                    Some(n) => n.as_u64().ok_or_else(|| {
                        let n = n.render();
                        Failure::Usage(format!("`chaos.{key}` expects an integer, got `{n}`"))
                    }),
                };
                let per_mille = |key: &str| match get(key, 0)? {
                    n @ 0..=1000 => Ok(n as u16),
                    _ => Err(Failure::Usage(format!("`chaos.{key}` must be 0..=1000"))),
                };
                o.region.chaos = Some(ChaosConfig {
                    seed: get("seed", 1)?,
                    panic_per_mille: per_mille("panic_per_mille")?,
                    unknown_per_mille: per_mille("unknown_per_mille")?,
                    delay_per_mille: per_mille("delay_per_mille")?,
                    delay: Duration::from_millis(get("delay_ms", 1)?),
                });
            }
            _ => return Err(Failure::Usage(format!("unknown option `{name}`"))),
        }
        Ok(())
    }

    /// Every verb but `exec` and `compile` differentiates, so it needs
    /// the independent and dependent sets.
    fn require_sets(&self) -> Result<(), Failure> {
        let o = &self.opts;
        if matches!(self.verb, Verb::Exec | Verb::Compile)
            || !(o.independents.is_empty() || o.dependents.is_empty())
        {
            return Ok(());
        }
        Err(Failure::Usage(match self.cli {
            true => "--wrt and --of are required".into(),
            false => "`wrt` and `of` are required".into(),
        }))
    }

    /// The program, parsed (either dialect) and validated.
    pub fn primal(&self) -> Result<Program, Failure> {
        let primal = parse_any(&self.program).map_err(|e| Failure::Parse(e.to_string()))?;
        let errs = formad_ir::validate(&primal);
        if !errs.is_empty() {
            return Err(Failure::Invalid(
                errs.iter().map(ToString::to_string).collect(),
            ));
        }
        Ok(primal)
    }

    /// The pipeline options: the sets, the ablations, the prover
    /// allowance, the deadline, fault injection, and a trace sink when
    /// `--trace` or `explain` needs the event stream.
    pub fn options(&self) -> FormadOptions {
        let mut opts = self.opts.clone();
        opts.region.trace =
            (self.trace.is_some() || self.verb == Verb::Explain).then(TraceSink::new);
        opts
    }

    /// The `--mode` adjoint treatment; `None` is FormAD's per-array plan.
    pub fn treatment(&self) -> Result<Option<ParallelTreatment>, Failure> {
        match ADJOINT_MODES.iter().find(|(name, _)| *name == self.mode) {
            Some((_, t)) => Ok(t.clone()),
            None => Err(Failure::Input(format!("unknown mode `{}`", self.mode))),
        }
    }

    /// Bind the `sets` and the seeded array fill for `exec` / `compile`.
    pub fn bindings(&self, primal: &Program) -> Result<Bindings, Failure> {
        bind_params(primal, &self.sets, self.seed).map_err(|e| match e {
            BindError::Lower(_) => Failure::Lower(e.to_string()),
            BindError::MissingInt { .. } => Failure::Input(e.to_string()),
            _ if self.cli => Failure::Input(format!("--set: {e}")),
            _ => Failure::Input(format!("`sets`: {e}")),
        })
    }

    /// Run `primal` on the request's backend and thread count, native
    /// backends on a parked engine of `engines`. `Ok(Some(reason))` is an
    /// AOT kernel that could not be built: the run degraded to bytecode.
    /// The deadline is checked before and after the run.
    pub fn exec(
        &self,
        primal: &Program,
        bind: &mut Bindings,
        engines: &Engines,
    ) -> Result<Option<String>, Failure> {
        self.check_deadline("execution started")?;
        let ran = match self.backend {
            Backend::Sim => formad_machine::run(primal, bind, &Machine::with_threads(self.threads))
                .map(|_| None),
            Backend::Native | Backend::Aot => {
                NativeProgram::compile(primal, bind, self.backend == Backend::Aot).and_then(|np| {
                    let mut parked = engines.0.lock().unwrap_or_else(|e| e.into_inner());
                    let engine = parked
                        .entry(self.threads)
                        .or_insert_with(|| NativeEngine::new(self.threads));
                    engine.run_program(&np, bind)?;
                    Ok(np.aot_fallback)
                })
            }
        };
        let fallback = ran.map_err(|e| Failure::Exec(e.to_string()))?;
        self.check_deadline("execution finished")?;
        Ok(fallback)
    }

    fn check_deadline(&self, stage: &str) -> Result<(), Failure> {
        match self.opts.region.deadline {
            Some(d) if d.expired() => Err(Failure::Pipeline(FormadError::new(
                FormadErrorKind::Deadline,
                format!("global deadline expired before {stage}"),
            ))),
            _ => Ok(()),
        }
    }
}
