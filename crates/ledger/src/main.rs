//! `ledger` — one benchmark for the DES and `prorp-server`, end to end
//! and layer by layer.
//!
//! ```text
//! ledger [--seed N] [--out PATH] [--only WORKLOAD] [--check]
//! ledger --workload NAME --seed N --seconds S --trace 0|1 [--check]
//! ledger --compare A.json B.json
//! ```
//!
//! The first form is the whole ledger: it spawns one child of itself per
//! workload and tracing mode (a process per cell, because allocator
//! history from one workload measurably changes the next), checks every
//! output, prints every metric by name with its unit, and writes the run
//! with its metadata to `--out` (default `target/ledger/run.json`).
//!
//! The second form is one such child, and also the command the
//! benchmark contract in `BENCHMARK.json` runs: it measures one workload
//! for `--seconds` seconds and prints, as the last line of its standard
//! output, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics` — the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`.
//!
//! The third form compares two `run.json` files metric by metric against
//! each metric's own bound.
//!
//! See `README.md` beside this crate for the glossary.

#![deny(unsafe_code)]
#![warn(missing_docs)]

mod compare;
mod des;
mod layers;
mod measure;
mod outcome;
mod parent;
mod probe;
mod serve;
mod span;
mod spec;
mod stats;
mod sys;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// How much one child measures.
#[derive(Clone, Copy, Debug)]
pub struct Budget {
    /// Set-ups per untraced child.
    pub setups: usize,
    /// Seconds the timed repeats run for (never fewer than
    /// [`spec::MIN_REPEATS`] repeats).
    pub seconds: f64,
    /// Fewest untraced/traced pairs (DES) or traced replays (serve) of a
    /// traced child.
    pub pairs: usize,
    /// `--check`: tiny sizes, shortest budget — for tests.
    pub check: bool,
}

impl Budget {
    fn new(seconds: f64, check: bool) -> Budget {
        if check {
            Budget {
                setups: 1,
                seconds: 0.0,
                pairs: 1,
                check,
            }
        } else {
            Budget {
                setups: spec::SETUPS,
                seconds,
                pairs: spec::MIN_REPEATS,
                check,
            }
        }
    }
}

/// The parsed command line.
#[derive(Default)]
struct Args {
    seed: Option<u64>,
    out: Option<PathBuf>,
    only: Option<String>,
    check: bool,
    compare: Option<(PathBuf, PathBuf)>,
    workload: Option<String>,
    seconds: Option<u64>,
    trace: Option<bool>,
    /// Internal, parent to child: where to leave the detail record.
    detail: Option<PathBuf>,
    /// Internal, parent to child: where to leave the span file.
    trace_out: Option<PathBuf>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} requires a value"))
        };
        match flag.as_str() {
            "--seed" => args.seed = Some(value()?.parse().map_err(|_| "bad --seed")?),
            "--out" => args.out = Some(value()?.into()),
            "--only" => args.only = Some(value()?),
            "--check" => args.check = true,
            "--compare" => args.compare = Some((value()?.into(), value()?.into())),
            "--workload" => args.workload = Some(value()?),
            "--seconds" => args.seconds = Some(value()?.parse().map_err(|_| "bad --seconds")?),
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                })
            }
            "--detail" => args.detail = Some(value()?.into()),
            "--trace-out" => args.trace_out = Some(value()?.into()),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    for name in args.workload.iter().chain(&args.only) {
        if spec::workload(name).is_none() {
            let known: Vec<_> = spec::WORKLOADS.iter().map(|w| w.name).collect();
            return Err(format!(
                "unknown workload {name:?} (known: {})",
                known.join(", ")
            ));
        }
    }
    Ok(args)
}

/// One child: measure one workload in one tracing mode.
fn run_child(args: &Args, name: &str, born: Instant) -> ExitCode {
    let w = spec::workload(name).expect("validated by parse_args");
    let traced = args.trace.unwrap_or(false);
    let seed = args.seed.unwrap_or(42);
    let sizes = w.sizes(args.check);
    let budget = Budget::new(
        args.seconds.unwrap_or(spec::DEFAULT_SECONDS) as f64,
        args.check,
    );
    let trace_out = args.trace_out.as_deref();
    // Every workload is confined to as many CPUs as it has busy threads
    // (see `sys`): client and server of a serve workload share one, and
    // the probe of an untraced child sits on exactly those CPUs.
    let cpus = sys::confine_to(w.cpus());
    // The fleet the seed stands for, found once: every set-up after this
    // builds it straight from its own seed.
    let (fleet_seed, fleet_note) = w.fleet_seed(sizes, seed);
    let mut out = match (w.kind.is_serve(), traced) {
        (false, false) => des::run_untraced(w, sizes, fleet_seed, budget, born, &cpus),
        (false, true) => des::run_traced(w, sizes, fleet_seed, budget, trace_out),
        (true, false) => serve::run_untraced(w, sizes, fleet_seed, budget, born, &cpus),
        (true, true) => serve::run_traced(w, sizes, fleet_seed, budget, trace_out),
    };
    out.notes.extend(fleet_note);
    out.notes.push(if cpus.is_empty() {
        "pinning unavailable: the workload and its probe float".into()
    } else {
        format!("confined to cpu {cpus:?}")
    });
    for note in &out.notes {
        println!("{}: {note}", w.name);
    }
    if let Some(path) = &args.detail {
        let detail = out.detail(w, sizes, seed, traced).render();
        if let Err(e) = std::fs::write(path, detail) {
            eprintln!("ledger: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    // The result line carries `correct`; a child that measured and
    // reported has done its job, whatever it found.
    println!("{}", out.driver_line(traced));
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let born = Instant::now();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ledger: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some((a, b)) = &args.compare {
        return compare::run(a, b);
    }
    if let Some(name) = &args.workload {
        return run_child(&args, name, born);
    }
    parent::run(
        args.seed.unwrap_or(42),
        args.seconds.unwrap_or(spec::DEFAULT_SECONDS),
        args.check,
        args.only.as_deref(),
        args.out
            .unwrap_or_else(|| PathBuf::from("target/ledger/run.json")),
    )
}
