//! Observability-layer throughput bench — the cost model behind the
//! SLO rollup design.
//!
//! Three phases, each with a correctness gate before any timing:
//!
//! 1. **Sketch inserts** — observations/second into one
//!    [`QuantileSketch`] over a value stream spanning seconds-to-days
//!    magnitudes (the latency range the fleet actually produces).
//! 2. **Sketch merges** — k-way merge throughput over per-shard
//!    sketches, gated on the merged sketch being bit-identical to
//!    observing the pooled stream (the shard-layout-invariance law).
//! 3. **Rollup ingest** — events/second into an [`SloSeries`] for a
//!    million-database fleet's synthetic event stream (logins, resume
//!    completions, proactive resumes, breaker opens), gated on an
//!    8-way shard split merging to the bit-identical series.
//!
//! Flags:
//!
//! * `--json <path>` — machine-readable output
//!   (`results/BENCH_obs.json` by convention, via `scripts/bless.sh`);
//! * `--smoke` — small sizes for CI (`scripts/check.sh`); only the
//!   gates matter there, the timings are scratch.
//!
//! Timings are machine-dependent snapshots; the committed JSON
//! documents a representative run, the determinism gates are the
//! guarantees.

use prorp_bench::{json_path_from_args, write_json, Json};
use prorp_obs::{evaluate_alerts, QuantileSketch, SloConfig, SloSeries};
use prorp_types::{DatabaseId, Seconds, Timestamp};
use std::time::Instant;

/// Deterministic splitmix64 stream (no `rand` in the hot loop).
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// A latency-shaped value: mostly seconds-to-minutes, a heavy tail up
/// to a day — the same magnitude spread resume stages produce.
fn latency_value(rng: &mut Rng) -> i64 {
    let r = rng.next();
    let magnitude = 1i64 << (r % 17); // 1s .. ~36h octaves
    magnitude + (rng.next() % magnitude.max(1) as u64) as i64
}

/// Phase 1+2: sketch insert and k-way merge throughput.
fn sketch_phases(inserts: usize, shard_count: usize, per_shard: usize) -> Vec<(String, Json)> {
    // Inserts.
    let mut rng = Rng(7);
    let values: Vec<i64> = (0..inserts).map(|_| latency_value(&mut rng)).collect();
    let t0 = Instant::now();
    let mut sketch = QuantileSketch::new();
    for &v in &values {
        sketch.observe(v);
    }
    let insert_s = t0.elapsed().as_secs_f64();
    assert_eq!(sketch.count(), inserts as u64);
    let inserts_per_sec = inserts as f64 / insert_s.max(1e-9);

    // Merges, gated on merge == pooled observation.
    let mut rng = Rng(11);
    let shards: Vec<QuantileSketch> = (0..shard_count)
        .map(|_| {
            let mut s = QuantileSketch::new();
            for _ in 0..per_shard {
                s.observe(latency_value(&mut rng));
            }
            s
        })
        .collect();
    let mut rng = Rng(11);
    let mut pooled = QuantileSketch::new();
    for _ in 0..shard_count * per_shard {
        pooled.observe(latency_value(&mut rng));
    }
    let t0 = Instant::now();
    let mut merged = QuantileSketch::new();
    for s in &shards {
        merged.merge_from(s);
    }
    let merge_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        merged, pooled,
        "k-way sketch merge diverged from pooled observation"
    );
    let merges_per_sec = shard_count as f64 / merge_s.max(1e-9);

    println!(
        "sketch: {inserts} inserts in {insert_s:.3}s ({inserts_per_sec:.0}/s); \
         {shard_count}-way merge of {per_shard}-obs shards in {merge_s:.4}s \
         ({merges_per_sec:.0} merges/s)"
    );
    vec![
        ("sketch_inserts".into(), Json::from(inserts as u64)),
        ("sketch_insert_s".into(), Json::Float(insert_s)),
        (
            "sketch_inserts_per_sec".into(),
            Json::Float(inserts_per_sec),
        ),
        ("merge_shards".into(), Json::from(shard_count as u64)),
        ("merge_s".into(), Json::Float(merge_s)),
        ("merges_per_sec".into(), Json::Float(merges_per_sec)),
    ]
}

/// One synthetic fleet event fed into a rollup series.
#[derive(Clone, Copy)]
enum Ev {
    Login(bool),
    ResumeDone(Seconds),
    Proactive,
    BreakerOpen,
}

/// Phase 3: rollup ingest throughput at fleet scale.
fn rollup_phase(dbs: u64, events: usize) -> Vec<(String, Json)> {
    let cfg = SloConfig::default();
    let week = Seconds::days(7).as_secs();
    let mut rng = Rng(23);
    let stream: Vec<(Timestamp, DatabaseId, Ev)> = (0..events)
        .map(|_| {
            let at = Timestamp((rng.next() % week as u64) as i64);
            let db = DatabaseId(rng.next() % dbs);
            let ev = match rng.next() % 10 {
                0 => Ev::ResumeDone(Seconds((rng.next() % 600) as i64)),
                1 => Ev::Proactive,
                2 => Ev::BreakerOpen,
                n => Ev::Login(n > 3), // ~1 in 7 logins misses
            };
            (at, db, ev)
        })
        .collect();
    let feed = |series: &mut SloSeries, (at, db, ev): &(Timestamp, DatabaseId, Ev)| match *ev {
        Ev::Login(available) => series.on_login(*at, *db, available),
        Ev::ResumeDone(d) => series.on_resume_completed(*at, *db, d),
        Ev::Proactive => series.on_proactive_resume(*at, *db),
        Ev::BreakerOpen => series.on_breaker_open(*at, *db),
    };

    // Gate: an 8-way split by database hash merges to the bit-identical
    // series (the same invariance the DES shard merge relies on).
    let mut parts: Vec<SloSeries> = (0..8).map(|_| SloSeries::new(cfg)).collect();
    for ev in &stream {
        feed(&mut parts[(ev.1.raw() % 8) as usize], ev);
    }
    let merged = SloSeries::merge(parts)
        .expect("same-config merge succeeds")
        .expect("eight parts merge to a series");

    let t0 = Instant::now();
    let mut series = SloSeries::new(cfg);
    for ev in &stream {
        feed(&mut series, ev);
    }
    let ingest_s = t0.elapsed().as_secs_f64();
    assert_eq!(
        merged, series,
        "8-way rollup shard split diverged from single-series ingest"
    );
    let events_per_sec = events as f64 / ingest_s.max(1e-9);
    let rows = series.rows();
    let alerts = evaluate_alerts(&series);

    println!(
        "rollup: {events} events over {dbs} dbs in {ingest_s:.3}s \
         ({events_per_sec:.0} events/s, {} rows, {} alerts)",
        rows.len(),
        alerts.len()
    );
    vec![
        ("rollup_dbs".into(), Json::from(dbs)),
        ("rollup_events".into(), Json::from(events as u64)),
        ("rollup_ingest_s".into(), Json::Float(ingest_s)),
        ("rollup_events_per_sec".into(), Json::Float(events_per_sec)),
        ("rollup_rows".into(), Json::from(rows.len() as u64)),
        ("rollup_alerts".into(), Json::from(alerts.len() as u64)),
    ]
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json_path = json_path_from_args();
    println!(
        "Observability throughput ({} mode)",
        if smoke { "smoke" } else { "full" }
    );

    let (inserts, merge_shards, per_shard, dbs, events) = if smoke {
        (200_000, 32, 1_000, 10_000u64, 100_000)
    } else {
        (20_000_000, 1_024, 10_000, 1_000_000u64, 4_000_000)
    };

    let mut fields: Vec<(String, Json)> = vec![(
        "mode".into(),
        Json::Str(if smoke { "smoke" } else { "full" }.into()),
    )];
    fields.extend(sketch_phases(inserts, merge_shards, per_shard));
    fields.extend(rollup_phase(dbs, events));

    if let Some(path) = json_path {
        let value = Json::Object(fields);
        write_json(&path, &value);
    }
}
