//! Million-database scaling sweep — the PR 6 tentpole measurement.
//!
//! Runs the proactive policy over lazily generated fleets of increasing
//! size and over increasing shard counts, recording wall time,
//! events/second, the event queue's high-water mark and peak resident
//! memory per `(fleet size × shard count)` cell into
//! `results/BENCH_scale.json`.  Two event counts are recorded:
//! `activity_events` is defined by the input (recorded logins + logouts
//! inside the simulated span), so `activity_events_per_sec` compares
//! like with like across shard counts; `events` is what the shards'
//! loops popped, which grows with the shard count because every shard
//! runs its own Algorithm 5 tick.  The fleet is never
//! materialised: each shard worker pulls its own id-hash partition from
//! a [`LazyFleet`] via [`Simulation::run_streamed`], and telemetry runs
//! in the default `TelemetryMode::Summary`, so the report holds counts
//! instead of tens of millions of events.
//!
//! Before timing each fleet size, the harness re-proves the shard
//! determinism contract at scale: every shard count must produce
//! bit-identical KPIs (and, at the smallest size, bit-identical KPIs to
//! the fully materialised [`Simulation::run`] path).  Every cell must
//! also keep the queue's run-time lane — what the loop schedules for
//! itself — at or below two entries per database (`queue_peak`): queue
//! memory is O(databases), not O(sessions).  The smallest size
//! also carries the observability overhead gate: an interleaved A/B of
//! obs-off vs rollup-only obs (sketches + SLO series, no span trace)
//! asserting identical KPIs and < 2 % wall-time overhead.
//!
//! Flags:
//!
//! * `--dbs 10k,100k,1m` — fleet sizes (k/m suffixes);
//! * `--shards 1,4,16` — shard counts per fleet size;
//! * `--days 8` — simulated days (KPIs measured over the last 2);
//! * `--json <path>` — machine-readable output
//!   (`results/BENCH_scale.json` by convention);
//! * `--smoke` — tiny sweep for CI (`scripts/check.sh`).
//!
//! Each timed cell runs in a child process of the harness: the binary
//! re-run with the internal `--cell DBS,SHARDS,DAYS` argument.  The child runs the one cell, reads its own peak
//! RSS from `/proc/self/status` (`VmHWM`; zero where procfs is absent),
//! prints the cell's rows and then its record and KPIs as one JSON line.
//! So a cell's peak is its own, with nothing written under `/proc`, and
//! the harness still compares the cells' KPIs.

use prorp_bench::{arg_value, json_path_from_args, run_meta, write_json, ExperimentScale, Json};
use prorp_obs::SloConfig;
use prorp_sim::{ObsConfig, SimConfig, SimPolicy, SimReport, Simulation};
use prorp_types::{PolicyConfig, Seconds, Timestamp};
use prorp_workload::{LazyFleet, RegionName, RegionProfile, TraceSource};
use std::process::{Command, Stdio};
use std::time::Instant;

/// Parse one fleet-size token: `500`, `10k`, `1m`.
fn parse_size(tok: &str) -> usize {
    let t = tok.trim().to_ascii_lowercase();
    let (digits, mult) = match t.strip_suffix('m') {
        Some(d) => (d.to_string(), 1_000_000),
        None => match t.strip_suffix('k') {
            Some(d) => (d.to_string(), 1_000),
            None => (t.clone(), 1),
        },
    };
    let base: usize = digits
        .parse()
        .unwrap_or_else(|_| panic!("bad fleet size {tok:?} (want e.g. 500, 10k, 1m)"));
    base * mult
}

/// Parse a comma-separated list with `parse_size` semantics.
fn parse_list(spec: &str) -> Vec<usize> {
    spec.split(',')
        .filter(|s| !s.trim().is_empty())
        .map(parse_size)
        .collect()
}

/// This process's peak RSS in bytes from `VmHWM` (0 where procfs is
/// absent).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            let kb: u64 = rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
            return kb * 1024;
        }
    }
    0
}

/// The proactive-policy config for one cell of the sweep.
fn config_for(dbs: usize, shards: usize, days: i64, observe: ObsConfig) -> SimConfig {
    let scale = ExperimentScale {
        fleet: dbs,
        days,
        warmup_days: (days - 2).max(1),
        seed: 42,
    };
    scale
        .config_builder(SimPolicy::Proactive(PolicyConfig::default()))
        .shards(shards)
        .observe(observe)
        .build()
        .expect("scale-sweep defaults are valid")
}

/// One timed cell: stream `fleet` through `shards` workers.
fn run_cell(
    fleet: &LazyFleet,
    dbs: usize,
    shards: usize,
    days: i64,
    observe: ObsConfig,
) -> (SimReport, f64) {
    let cfg = config_for(dbs, shards, days, observe);
    let t0 = Instant::now();
    let report = Simulation::run_streamed(cfg, fleet).expect("scale-sweep run completes");
    (report, t0.elapsed().as_secs_f64())
}

/// The rollup-only observability config the overhead gate measures:
/// quantile sketches and SLO series on, the per-event span trace off —
/// the shape a million-database fleet would actually run with.
fn rollup_obs() -> ObsConfig {
    ObsConfig::on()
        .with_slo(SloConfig::default())
        .without_trace()
}

/// A/B the smallest cell with observability off vs rollup-only, best of
/// `rounds` per arm (interleaved, so drift hits both arms alike).
/// Asserts the KPIs are bit-identical and the rollup overhead stays
/// under 2 % of wall time (plus a 0.2 s absolute floor so sub-second
/// smoke cells don't trip on scheduler jitter).
fn obs_overhead_gate(fleet: &LazyFleet, dbs: usize, shards: usize, days: i64) -> Json {
    let rounds = 3;
    let mut best = [f64::INFINITY; 2];
    let mut kpis = Vec::new();
    for round in 0..rounds {
        for (arm, observe) in [ObsConfig::off(), rollup_obs()].into_iter().enumerate() {
            let (report, wall_s) = run_cell(fleet, dbs, shards, days, observe);
            best[arm] = best[arm].min(wall_s);
            if round == 0 {
                if arm == 1 {
                    let rows = report
                        .obs
                        .as_ref()
                        .and_then(|o| o.slo.as_ref())
                        .expect("rollup arm produces an SLO series")
                        .rows();
                    assert!(!rows.is_empty(), "the overhead gate measured no rollups");
                }
                kpis.push(report.kpi);
            }
        }
    }
    assert_eq!(
        kpis[0], kpis[1],
        "observability must not change a single decision"
    );
    let (off_s, on_s) = (best[0], best[1]);
    let overhead_pct = (on_s / off_s - 1.0) * 100.0;
    assert!(
        on_s <= off_s * 1.02 + 0.2,
        "rollup observability overhead {overhead_pct:.2}% exceeds the 2% budget \
         (off {off_s:.3}s, on {on_s:.3}s)"
    );
    println!(
        "obs A/B @ {dbs} dbs x {shards} shard(s): off {off_s:.3}s, rollup-on {on_s:.3}s \
         ({overhead_pct:+.2}%)"
    );
    Json::object(vec![
        ("databases", Json::from(dbs as u64)),
        ("shards", Json::from(shards as u64)),
        ("rounds", Json::from(rounds as u64)),
        ("off_best_s", Json::Float(off_s)),
        ("rollup_best_s", Json::Float(on_s)),
        ("overhead_pct", Json::Float(overhead_pct)),
    ])
}

/// The sweep's fleet of `dbs` databases over `days` days.
fn fleet_for(dbs: usize, days: i64) -> LazyFleet {
    let start = Timestamp(0);
    let profile = RegionProfile::for_region(RegionName::Eu1);
    LazyFleet::new(profile, dbs, start, start + Seconds::days(days), 42)
}

/// The child side of one timed cell: run it with observability off,
/// print its rows, then one JSON line holding its record (`entry`) and
/// its KPIs' `Debug` rendering (`kpi`), which equal KPIs and only equal
/// KPIs share.
fn run_child_cell(dbs: usize, shards: usize, days: i64) {
    let fleet = fleet_for(dbs, days);
    let cfg = config_for(dbs, shards, days, ObsConfig::off());
    // Input-defined work: recorded logins + logouts inside the span.
    let inside = |ts| ts >= cfg.start && ts < cfg.end;
    let activity_events: u64 = fleet
        .iter()
        .flat_map(|t| t.sessions)
        .map(|s| u64::from(inside(s.start)) + u64::from(inside(s.end)))
        .sum();
    let (report, wall_s) = run_cell(&fleet, dbs, shards, days, ObsConfig::off());
    let rss = peak_rss_bytes();
    let events: u64 = report
        .shard_counters
        .iter()
        .map(|c| c.events_processed)
        .sum();
    let events_per_sec = events as f64 / wall_s.max(1e-9);
    let activity_events_per_sec = activity_events as f64 / wall_s.max(1e-9);
    // Each shard has its own queue: the cell's figure is the sum
    // of their high-water marks.
    let queue_peak: usize = report.shard_counters.iter().map(|c| c.queue_peak).sum();
    assert!(
        queue_peak <= 2 * dbs,
        "queue memory must be O(databases): run-time lane peaked at {queue_peak} \
         entries for {dbs} databases on {shards} shard(s)"
    );
    println!(
        "{:>10} {:>7} {:>9.2} {:>12} {:>13.0} {:>12} {:>11} {:>12.1} {:>7.2}",
        dbs,
        shards,
        wall_s,
        activity_events,
        activity_events_per_sec,
        events,
        queue_peak,
        rss as f64 / (1024.0 * 1024.0),
        report.kpi.qos_pct()
    );
    // Per-shard wall-time breakdown: where each worker's time
    // went (registration, event loop, close-out).
    // Diagnoses multi-shard scaling losses — a shard whose
    // register phase dominates is starved by setup, not by the
    // event loop.
    let mut shard_rows = Vec::with_capacity(report.shard_counters.len());
    for c in &report.shard_counters {
        if shards > 1 {
            println!(
                "            shard {}: {} dbs, {} events | register {:.3}s, \
                 run {:.3}s, finish {:.3}s",
                c.shard,
                c.databases,
                c.events_processed,
                c.register_micros as f64 / 1e6,
                c.run_micros as f64 / 1e6,
                c.finish_micros as f64 / 1e6,
            );
        }
        shard_rows.push(Json::object(vec![
            ("shard", Json::from(c.shard as u64)),
            ("databases", Json::from(c.databases as u64)),
            ("events", Json::from(c.events_processed)),
            ("queue_peak", Json::from(c.queue_peak as u64)),
            ("wall_micros", Json::from(c.wall_clock_micros)),
            ("register_micros", Json::from(c.register_micros)),
            ("run_micros", Json::from(c.run_micros)),
            ("finish_micros", Json::from(c.finish_micros)),
        ]));
    }
    let entry = Json::object(vec![
        ("databases", Json::from(dbs as u64)),
        ("shards", Json::from(shards as u64)),
        ("days", Json::Int(days)),
        (
            "storage_backend",
            Json::Str(cfg.storage_backend.label().into()),
        ),
        ("wall_s", Json::Float(wall_s)),
        ("activity_events", Json::from(activity_events)),
        (
            "activity_events_per_sec",
            Json::Float(activity_events_per_sec),
        ),
        ("events", Json::from(events)),
        ("events_per_sec", Json::Float(events_per_sec)),
        ("queue_peak", Json::from(queue_peak as u64)),
        ("peak_rss_bytes", Json::from(rss)),
        ("qos_pct", Json::Float(report.kpi.qos_pct())),
        (
            "telemetry_events",
            Json::from(report.telemetry_summary.total()),
        ),
        ("shard_breakdown", Json::Array(shard_rows)),
    ]);
    let line = Json::object(vec![
        ("entry", entry),
        ("kpi", Json::Str(format!("{:?}", report.kpi))),
    ]);
    println!("{}", line.render());
}

/// The harness side of one timed cell: run it in a child process, pass
/// its rows through, and return its record and KPIs.
fn run_cell_in_child(dbs: usize, shards: usize, days: i64) -> (Json, Json) {
    let exe = std::env::current_exe().expect("the harness finds its own executable");
    let output = Command::new(exe)
        .args(["--cell", &format!("{dbs},{shards},{days}")])
        .stderr(Stdio::inherit())
        .output()
        .expect("the harness spawns a cell");
    let text = String::from_utf8_lossy(&output.stdout);
    let Some((rows, last)) = text.trim_end().rsplit_once('\n') else {
        panic!("cell {dbs} x {shards} ({}) printed {text:?}", output.status);
    };
    println!("{rows}");
    let line = prorp_obs::json::parse(last).unwrap_or(Json::Null);
    let field = |key| {
        line.get(key)
            .cloned()
            .expect("a cell reports its record and KPIs")
    };
    (field("entry"), field("kpi"))
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let json_path = json_path_from_args();
    if let Some(cell) = arg_value(&args, "--cell") {
        let [dbs, shards, days] = parse_list(&cell)[..] else {
            panic!("--cell wants DBS,SHARDS,DAYS, got {cell:?}");
        };
        return run_child_cell(dbs, shards, days as i64);
    }

    let (default_dbs, default_shards) = if smoke {
        ("500,2k", "1,2")
    } else {
        ("10k,100k,1m", "1,4,16")
    };
    let mut sizes = parse_list(&arg_value(&args, "--dbs").unwrap_or_else(|| default_dbs.into()));
    let shard_counts =
        parse_list(&arg_value(&args, "--shards").unwrap_or_else(|| default_shards.into()));
    let days: i64 = arg_value(&args, "--days")
        .map(|v| v.parse().expect("--days wants an integer"))
        .unwrap_or(8);
    assert!(
        days >= 3,
        "--days must be at least 3 (2 measured + warm-up)"
    );
    assert!(!sizes.is_empty() && !shard_counts.is_empty());
    // Smallest first: cheap cells validate the sweep before the big ones
    // spend minutes, and RSS grows monotonically within the sweep.
    sizes.sort_unstable();

    println!(
        "Scale sweep ({} mode): {} days, fleets {:?}, shards {:?}",
        if smoke { "smoke" } else { "full" },
        days,
        sizes,
        shard_counts
    );
    println!();
    println!(
        "{:>10} {:>7} {:>9} {:>12} {:>13} {:>12} {:>11} {:>12} {:>7}",
        "databases",
        "shards",
        "wall s",
        "activity ev",
        "activity ev/s",
        "loop events",
        "queue peak",
        "peak RSS MB",
        "QoS %"
    );

    let mut entries = Vec::new();
    let mut obs_ab = None;
    for &dbs in &sizes {
        let fleet = fleet_for(dbs, days);

        // Determinism gate: at the smallest size, the streamed path (the
        // first shard count's cell) must match the materialised path bit
        // for bit.
        let materialised_kpi = (dbs == sizes[0] && dbs <= 10_000).then(|| {
            let eager: Vec<_> = fleet.iter().collect();
            let materialised = Simulation::new(
                config_for(dbs, shard_counts[0], days, ObsConfig::off()),
                eager,
            )
            .expect("config valid")
            .run()
            .expect("materialised run completes");
            Json::Str(format!("{:?}", materialised.kpi))
        });

        // Observability overhead gate at the smallest size: rollup-only
        // obs must not move the KPIs or cost more than 2% wall time.
        if dbs == sizes[0] {
            obs_ab = Some(obs_overhead_gate(&fleet, dbs, shard_counts[0], days));
        }

        let mut baseline_kpi = None;
        for &shards in &shard_counts {
            let (entry, kpi) = run_cell_in_child(dbs, shards, days);
            if let (Some(eager), true) = (&materialised_kpi, shards == shard_counts[0]) {
                assert_eq!(
                    *eager, kpi,
                    "run_streamed diverged from run at {dbs} databases"
                );
            }
            // Shard-invariance gate at every scale: KPIs must not depend
            // on the shard count.
            match &baseline_kpi {
                None => baseline_kpi = Some(kpi),
                Some(first) => assert_eq!(
                    *first, kpi,
                    "KPIs diverged between shard counts at {dbs} databases"
                ),
            }
            entries.push(entry);
        }
        // The lazy source stays O(1) memory, so confirm nothing pinned
        // the fleet: len is parameters-only.
        assert_eq!(TraceSource::len(&fleet), dbs);
    }

    if let Some(path) = json_path {
        let mode = if smoke { "smoke" } else { "full" };
        let mut fields = vec![
            ("meta", run_meta(mode)),
            ("mode", Json::Str(mode.into())),
            ("days", Json::Int(days)),
            ("entries", Json::Array(entries)),
        ];
        if let Some(ab) = obs_ab {
            fields.push(("obs_ab", ab));
        }
        write_json(&path, &Json::object(fields));
    }
}
