//! The DES workloads: `Simulation::run_streamed` timed end to end, and
//! the same run driven through `ShardDriver` + `merge_outcomes` by the
//! ledger itself with a span around every call into a layer.

use crate::layers;
use crate::measure::{self, Cell};
use crate::outcome::{fingerprint, peak_rss_bytes, Outcome, Samples};
use crate::span::{self_time_by_name, self_times_ns, Tracer};
use crate::spec::{self, Sizes, Workload};
use crate::stats::{self, Permille, Stat};
use crate::Budget;
use prorp_sim::{merge_outcomes, ShardDriver, ShardOutcome, SimConfig, SimReport, Simulation};
use prorp_types::{DatabaseId, ProrpError};
use prorp_workload::{LazyFleet, Trace, TraceSource};
use std::collections::HashMap;
use std::path::Path;
use std::time::Instant;

/// Input login+logout events inside `[start, end)` — what the event
/// loop is fed, counted from the inputs so that a change in the
/// simulator's internal event count cannot inflate a throughput.
pub fn activity_events(cfg: &SimConfig, traces: impl Iterator<Item = Trace>) -> u64 {
    let inside = |ts| ts >= cfg.start && ts < cfg.end;
    traces
        .flat_map(|t| t.sessions)
        .map(|s| u64::from(inside(s.start)) + u64::from(inside(s.end)))
        .sum()
}

/// One timed `run_streamed` call.
fn timed_run(cfg: &SimConfig, fleet: &LazyFleet) -> Result<(SimReport, f64), ProrpError> {
    let t0 = Instant::now();
    let report = Simulation::run_streamed(cfg.clone(), fleet)?;
    Ok((report, t0.elapsed().as_secs_f64()))
}

/// Check a run against the reference fingerprint and return its wall
/// seconds; an error or a divergence is a failed repeat.
fn checked(
    out: &mut Outcome,
    what: &str,
    run: Result<(SimReport, f64), ProrpError>,
) -> Option<f64> {
    match run {
        Ok((report, wall)) => {
            if fingerprint(&report) != out.fingerprint {
                out.fail(format!("{what}: simulated statistics diverged"));
            }
            Some(wall)
        }
        Err(e) => {
            out.fail(format!("{what}: {e}"));
            None
        }
    }
}

/// A DES workload under the untraced protocol: every set-up builds the
/// lazy fleet, counts its events and runs the simulation once; every
/// repeat times one `run_streamed` and checks it simulated the same
/// world as the first.
struct DesCell<'a> {
    w: &'a Workload,
    sizes: Sizes,
    seed: u64,
    cfg: SimConfig,
    fleet: LazyFleet,
}

impl Cell for DesCell<'_> {
    fn set_up(&mut self, out: &mut Outcome) {
        self.fleet = self.w.fleet(self.sizes, self.seed);
        out.activity_events = activity_events(&self.cfg, self.fleet.iter());
        match timed_run(&self.cfg, &self.fleet) {
            Ok((report, _)) if out.fingerprint.is_empty() => {
                out.fingerprint = fingerprint(&report);
            }
            run => {
                checked(out, "warm-up", run);
            }
        }
    }

    fn repeat(&mut self, out: &mut Outcome) -> bool {
        out.attempted += 1;
        checked(out, "repeat", timed_run(&self.cfg, &self.fleet)).is_some()
    }
}

/// The untraced child: set up several times, then time `run_streamed`
/// until the budget is spent.  Wall-clock throughput is the traced
/// child's to report: here the probe shares the CPU.
pub fn run_untraced(
    w: &Workload,
    sizes: Sizes,
    seed: u64,
    budget: Budget,
    born: Instant,
    cpus: &[usize],
) -> Outcome {
    let mut cell = DesCell {
        w,
        sizes,
        seed,
        cfg: w.config(sizes),
        fleet: w.fleet(sizes, seed),
    };
    measure::run_untraced(&mut cell, sizes.dbs, budget, born, cpus)
}

/// Drive one shard exactly as `run_shard` does — new, register, start,
/// step to the end, finish — with a span around each call.  The horizon
/// advances one [`spec::WINDOW`] per `step_until`.
fn drive_shard(
    cfg: &SimConfig,
    shard: usize,
    expected: usize,
    fleet: &LazyFleet,
    tr: &mut Tracer,
) -> Result<ShardOutcome, ProrpError> {
    let whole = tr.enter("sim.shard");
    let mut driver = tr.scope("sim.new", || ShardDriver::new(cfg, shard, expected))?;
    for i in 0..fleet.len() {
        if fleet.db_id(i).shard_of(cfg.shards) != shard {
            continue;
        }
        let trace = tr.scope("workload.trace_gen", || fleet.trace(i));
        tr.scope("sim.register", || driver.register(&trace))?;
    }
    tr.scope("sim.start", || driver.start());
    let mut horizon = cfg.start;
    while horizon < cfg.end {
        horizon = (horizon + spec::WINDOW).min(cfg.end);
        tr.scope("sim.step", || driver.step_until(horizon))?;
    }
    let outcome = tr.scope("sim.finish", || driver.finish())?;
    tr.exit(whole);
    Ok(outcome)
}

/// The ledger-driven equivalent of `Simulation::run_streamed`.
pub fn traced_run(
    cfg: &SimConfig,
    fleet: &LazyFleet,
) -> Result<(SimReport, Tracer, f64), ProrpError> {
    let mut tr = Tracer::new(Instant::now());
    let root = tr.enter("des.run");
    cfg.check()?;
    let n = fleet.len();

    let partition = tr.enter("sim.partition");
    let mut shard_sizes = vec![0usize; cfg.shards];
    let mut order: HashMap<DatabaseId, usize> = HashMap::with_capacity(n);
    for i in 0..n {
        let id = fleet.db_id(i);
        shard_sizes[id.shard_of(cfg.shards)] += 1;
        order.insert(id, i);
    }
    tr.exit(partition);

    let fork_join = tr.enter("sim.fork_join");
    let outcomes: Vec<ShardOutcome> = if cfg.shards == 1 {
        vec![drive_shard(cfg, 0, n, fleet, &mut tr)?]
    } else {
        let origin = tr.origin();
        let joined: Vec<Result<(ShardOutcome, Tracer), ProrpError>> = std::thread::scope(|s| {
            let workers: Vec<_> = shard_sizes
                .iter()
                .enumerate()
                .map(|(shard, &size)| {
                    s.spawn(move || {
                        let mut local = Tracer::new(origin);
                        drive_shard(cfg, shard, size, fleet, &mut local).map(|o| (o, local))
                    })
                })
                .collect();
            workers
                .into_iter()
                .map(|h| {
                    h.join().unwrap_or_else(|_| {
                        Err(ProrpError::Simulation("shard worker panicked".into()))
                    })
                })
                .collect()
        });
        let mut outcomes = Vec::with_capacity(joined.len());
        for worker in joined {
            let (outcome, local) = worker?;
            tr.adopt(local);
            outcomes.push(outcome);
        }
        outcomes
    };
    tr.exit(fork_join);

    let report = tr.scope("sim.merge", || merge_outcomes(cfg, &order, n, outcomes))?;
    tr.exit(root);
    let wall = tr.spans()[root].duration_ns() as f64 / 1e9;
    Ok((report, tr, wall))
}

/// Per-layer figures one traced run's spans give.
fn span_metrics(tr: &Tracer, dbs: usize, events: u64) -> Vec<(&'static str, f64)> {
    let per_db = |name| tr.total_ns(name) as f64 / dbs as f64;
    let mut rows = vec![
        ("workload.trace_gen_ns_per_db", per_db("workload.trace_gen")),
        ("sim.register_ns_per_db", per_db("sim.register")),
        (
            "sim.step_ns_per_activity_event",
            tr.total_ns("sim.step") as f64 / events.max(1) as f64,
        ),
        ("sim.finish_ns_per_db", per_db("sim.finish")),
        ("sim.merge_ns_per_db", per_db("sim.merge")),
    ];
    let windows: Vec<f64> = tr
        .durations_ns("sim.step")
        .iter()
        .map(|&ns| ns as f64 / 1e3)
        .collect();
    let windows = stats::sorted(&windows);
    for (name, p) in [
        ("sim.step_window_us_p50", Permille::P50),
        ("sim.step_window_us_p99", Permille::P99),
    ] {
        if let Some(v) = stats::percentile(&windows, p) {
            rows.push((name, v));
        }
    }
    let spans = tr.spans();
    let covered: u64 = self_times_ns(spans).iter().sum();
    // With one shard the spans nest sequentially and the self times add
    // up to the root by construction; with workers in parallel they add
    // up to more, which is the point of reporting the ratio.
    rows.push((
        "ledger.span_self_time_coverage",
        covered as f64 / spans[0].duration_ns().max(1) as f64,
    ));
    rows
}

/// Figures any finished report gives, whichever driver produced it.
pub fn report_metrics(out: &mut Outcome, report: &SimReport, dbs: usize, wall_s: f64) {
    let loop_events: u64 = report
        .shard_counters
        .iter()
        .map(|c| c.events_processed)
        .sum();
    out.put_one("sim.loop_events", loop_events as f64);
    out.put_one("sim.loop_events_per_s", loop_events as f64 / wall_s);
    let scans: u64 = report.shard_counters.iter().map(|c| c.resume_scans).sum();
    out.put_one("sim.resume_scans", scans as f64);

    let sum =
        |f: fn(&prorp_core::EngineCounters) -> u64| -> u64 { report.counters.iter().map(f).sum() };
    let predictions = sum(|c| c.predictions);
    let cache_hits = sum(|c| c.prediction_cache_hits);
    let prediction_ns = sum(|c| c.prediction_ns_sum);
    out.put_one("core.predictions", predictions as f64);
    out.put_one(
        "core.proactive_resumes",
        sum(|c| c.proactive_resumes) as f64,
    );
    out.put_one("core.physical_pauses", sum(|c| c.physical_pauses) as f64);
    if predictions + cache_hits > 0 {
        out.put_one(
            "core.prediction_cache_hit_frac",
            cache_hits as f64 / (predictions + cache_hits) as f64,
        );
    }
    if predictions > 0 {
        out.put_one(
            "forecast.in_run_predict_ns_mean",
            prediction_ns as f64 / predictions as f64,
        );
        out.put_one("forecast.in_run_share", prediction_ns as f64 / 1e9 / wall_s);
    }

    let tuples: usize = report.history_stats.iter().map(|s| s.tuples).sum();
    let page_bytes: usize = report.history_stats.iter().map(|s| s.page_bytes).sum();
    out.put_one("storage.tuples_per_db", tuples as f64 / dbs as f64);
    out.put_one("storage.page_bytes_per_db", page_bytes as f64 / dbs as f64);
    let stall: u64 = report
        .shard_counters
        .iter()
        .map(|c| c.compaction_stall_micros)
        .sum();
    let offloaded: u64 = report
        .shard_counters
        .iter()
        .map(|c| c.offloaded_compaction_micros)
        .sum();
    out.put_one("storage.compaction_stall_us", stall as f64);
    out.put_one("storage.offloaded_compaction_us", offloaded as f64);
    out.put_one("telemetry.events", report.telemetry_summary.total() as f64);
    if let Some(obs) = &report.obs {
        out.put_one("obs.span_records", obs.trace.len() as f64);
    }
}

/// The traced child: alternate untraced and ledger-driven runs, then
/// replay the first databases through each layer on its own.
pub fn run_traced(
    w: &Workload,
    sizes: Sizes,
    seed: u64,
    budget: Budget,
    trace_out: Option<&Path>,
) -> Outcome {
    let mut out = Outcome::default();
    let cfg = w.config(sizes);
    let fleet = w.fleet(sizes, seed);
    out.activity_events = activity_events(&cfg, fleet.iter());
    out.put_one("workload.activity_events", out.activity_events as f64);

    // Warm-up; its wall is what a cold process pays for the same run.
    out.attempted += 1;
    match timed_run(&cfg, &fleet) {
        Ok((report, wall)) => {
            out.fingerprint = fingerprint(&report);
            out.put_one("sim.cold_run_s", wall);
        }
        Err(e) => {
            out.fail(format!("warm-up: {e}"));
            return out;
        }
    }

    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut per_run = Samples::default();
    let mut last: Option<(SimReport, Tracer, f64)> = None;
    let started = Instant::now();
    while traced_walls.len() < budget.pairs
        || started.elapsed().as_secs_f64() < budget.seconds * 0.6
    {
        out.attempted += 2;
        if let Some(wall) = checked(&mut out, "untraced run", timed_run(&cfg, &fleet)) {
            untraced_walls.push(wall);
        }
        match traced_run(&cfg, &fleet) {
            Ok((report, tracer, wall)) => {
                // The ledger-driven path must be the same simulation.
                if fingerprint(&report) != out.fingerprint {
                    out.fail("ShardDriver path diverged from run_streamed".into());
                }
                traced_walls.push(wall);
                for (name, v) in span_metrics(&tracer, sizes.dbs, out.activity_events) {
                    per_run.push(name, v);
                }
                last = Some((report, tracer, wall));
            }
            Err(e) => out.fail(format!("traced run: {e}")),
        }
        if out.failed as usize >= budget.pairs {
            break;
        }
    }
    let Some((report, tracer, wall)) = last else {
        return out;
    };
    per_run.report(&mut out);
    if !untraced_walls.is_empty() {
        let untraced = Stat::of(&untraced_walls);
        out.put_one(
            "ledger.trace_overhead_frac",
            stats::median(&traced_walls) / untraced.value - 1.0,
        );
        out.put_one("ledger.run_spread_frac", untraced.spread());
        let rates: Vec<f64> = untraced_walls
            .iter()
            .map(|w| out.activity_events as f64 / w)
            .collect();
        out.put("activity_events_per_s", Stat::of(&rates));
    }
    out.put_one(
        "peak_rss_bytes_per_db",
        peak_rss_bytes() as f64 / sizes.dbs as f64,
    );
    out.put_one("ledger.repeats", traced_walls.len() as f64);
    out.put_one("failed_frac", out.failed as f64 / out.attempted as f64);

    report_metrics(&mut out, &report, sizes.dbs, wall);
    if cfg.shards > 1 {
        let slowest = report
            .shard_counters
            .iter()
            .map(|c| c.wall_clock_micros)
            .max()
            .unwrap_or(0) as f64
            / 1e6;
        out.put_one("sim.fork_join_overhead_frac", (wall - slowest) / wall);
        let runs: Vec<f64> = report
            .shard_counters
            .iter()
            .map(|c| c.run_micros as f64)
            .collect();
        let mean = runs.iter().sum::<f64>() / runs.len() as f64;
        let max = runs.iter().copied().fold(0.0, f64::max);
        out.put_one("sim.shard_imbalance", max / mean.max(1.0));
    }
    if w.kind == spec::Kind::DesShardedFull {
        // Shard, backend and obs invariance: the 1-shard B+Tree obs-off
        // cell over the same fleet must simulate the same world.
        let base = spec::workload("des_proactive").expect("declared workload");
        match Simulation::run_streamed(base.config(sizes), &fleet) {
            Ok(reference) if fingerprint(&reference) == out.fingerprint => {}
            Ok(_) => out.fail("simulated statistics differ from des_proactive's".into()),
            Err(e) => out.fail(format!("des_proactive reference run: {e}")),
        }
    }

    let top: Vec<String> = self_time_by_name(tracer.spans())
        .iter()
        .take(5)
        .map(|(name, ns)| format!("{name} {:.1}%", *ns as f64 / (wall * 1e9) * 100.0))
        .collect();
    out.notes
        .push(format!("self time by span: {}", top.join(", ")));

    layers::des_replays(&mut out, &cfg, &fleet, &report, sizes);

    if let Some(path) = trace_out {
        if let Err(e) = tracer.write_jsonl(path, w.name) {
            out.fail(format!("cannot write {}: {e}", path.display()));
        }
    }
    out
}
