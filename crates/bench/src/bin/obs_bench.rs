//! Observability-layer throughput bench — the cost model behind the
//! SLO rollup design.
//!
//! Four phases, each with a correctness gate:
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
//! 4. **Span trace** — nanoseconds per record to emit a synthetic span
//!    stream (bursts per event, ties at one `start` across databases, a
//!    backdated share) into per-shard [`TraceBuffer`]s, to put their
//!    lanes in canonical order, and to merge them, at 1, 2 and 8
//!    shards; gated on every layout's merged trace being the one buffer
//!    sorted whole (the path the lanes replaced, timed beside them).
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

use prorp_bench::{json_path_from_args, run_meta, write_json, Json};
use prorp_obs::{
    evaluate_alerts, QuantileSketch, SloConfig, SloSeries, SpanKind, TraceBuffer, TraceRecord,
    TraceSink,
};
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

/// One synthetic span: `(start, end, db)`.
type Span = (Timestamp, Timestamp, DatabaseId);

/// A span stream shaped like the event loop's: simulated time only moves
/// forward, an event emits a burst of one to four spans for its database
/// at the current instant, one event in eight shares its instant with
/// the next (ties across databases), and about three percent of spans
/// are reported at their end and start up to ten minutes back.
fn span_stream(events: usize, dbs: u64) -> Vec<Span> {
    let mut rng = Rng(31);
    let mut now = 0i64;
    let mut spans = Vec::with_capacity(events * 3);
    for _ in 0..events {
        if rng.next() % 8 != 0 {
            now += 1 + (rng.next() % 5) as i64;
        }
        let db = DatabaseId(rng.next() % dbs);
        for _ in 0..1 + rng.next() % 4 {
            let back = if rng.next() % 100 < 3 {
                1 + (rng.next() % 600) as i64
            } else {
                0
            };
            spans.push((Timestamp(now - back), Timestamp(now), db));
        }
    }
    spans
}

/// Phase 4: span-trace emit, order and merge cost per record.  `merge`
/// consumes the lanes, so freeing them is in its figure, as it is in the
/// simulator's.
fn trace_phase(events: usize, dbs: u64) -> Vec<(String, Json)> {
    const KIND: SpanKind = SpanKind::ProactiveResume;
    let spans = span_stream(events, dbs);
    let per_record = |t0: Instant| t0.elapsed().as_nanos() as f64 / spans.len() as f64;

    // The oracle, and the path the lanes replaced: one buffer in
    // emission order, sorted whole.
    let mut next_seq = std::collections::HashMap::new();
    let mut oracle: Vec<TraceRecord> = spans
        .iter()
        .map(|&(start, end, db)| {
            let seq = next_seq.entry(db).or_insert(0u64);
            *seq += 1;
            TraceRecord {
                start,
                end,
                db,
                seq: *seq - 1,
                kind: KIND,
            }
        })
        .collect();
    let backdated = oracle.windows(2).filter(|w| w[1].start < w[0].start);
    let backdated_share = backdated.count() as f64 / spans.len() as f64;
    let t0 = Instant::now();
    oracle.sort_by_key(TraceRecord::sort_key);
    let sort_ns = per_record(t0);

    let mut rows = Vec::new();
    let mut fields = vec![
        ("trace_records".to_string(), Json::from(spans.len() as u64)),
        ("trace_dbs".into(), Json::from(dbs)),
        ("trace_backdated_share".into(), Json::Float(backdated_share)),
        (
            "trace_sort_whole_ns_per_record".into(),
            Json::Float(sort_ns),
        ),
    ];
    for shards in [1usize, 2, 8] {
        // Best of three: a first pass pays the page faults of buffers
        // the allocator then keeps, which is not what is being sized.
        let (mut emit_ns, mut order_ns, mut merge_ns) = (f64::MAX, f64::MAX, f64::MAX);
        for _ in 0..3 {
            let mut buffers: Vec<TraceBuffer> = (0..shards).map(|_| TraceBuffer::new()).collect();
            let t0 = Instant::now();
            for &(start, end, db) in &spans {
                buffers[db.shard_of(shards)].span(start, end, db, KIND);
            }
            emit_ns = emit_ns.min(per_record(t0));
            let t0 = Instant::now();
            let lanes: Vec<Vec<TraceRecord>> = buffers
                .into_iter()
                .flat_map(TraceBuffer::into_lanes)
                .collect();
            order_ns = order_ns.min(per_record(t0));
            let t0 = Instant::now();
            let merged = TraceBuffer::merge(lanes);
            merge_ns = merge_ns.min(per_record(t0));
            assert!(
                merged == oracle,
                "{shards}-shard lanes + merge diverged from the buffer sorted whole"
            );
        }
        println!(
            "trace: {} spans, {shards} shard(s): emit {emit_ns:.1} + order {order_ns:.1} + \
             merge {merge_ns:.1} ns/record (sorting it whole: {sort_ns:.1})",
            spans.len()
        );
        if shards == 2 {
            // The ledger's `des_sharded_full` layout names the headline.
            fields.extend([
                ("trace_emit_ns_per_record".to_string(), Json::Float(emit_ns)),
                ("trace_order_ns_per_record".into(), Json::Float(order_ns)),
                ("trace_merge_ns_per_record".into(), Json::Float(merge_ns)),
            ]);
        }
        rows.push(Json::object(vec![
            ("shards", Json::from(shards as u64)),
            ("emit_ns_per_record", Json::Float(emit_ns)),
            ("order_ns_per_record", Json::Float(order_ns)),
            ("merge_ns_per_record", Json::Float(merge_ns)),
        ]));
    }
    fields.push(("trace_by_shards".into(), Json::Array(rows)));
    fields
}

fn main() {
    let smoke = std::env::args().any(|a| a == "--smoke");
    let json_path = json_path_from_args();
    println!(
        "Observability throughput ({} mode)",
        if smoke { "smoke" } else { "full" }
    );

    let (inserts, merge_shards, per_shard, dbs, events, trace_events) = if smoke {
        (200_000, 32, 1_000, 10_000u64, 100_000, 20_000)
    } else {
        (20_000_000, 1_024, 10_000, 1_000_000u64, 4_000_000, 190_000)
    };

    let mode = if smoke { "smoke" } else { "full" };
    let mut fields: Vec<(String, Json)> = vec![
        ("meta".into(), run_meta(mode)),
        ("mode".into(), Json::Str(mode.into())),
    ];
    fields.extend(sketch_phases(inserts, merge_shards, per_shard));
    fields.extend(rollup_phase(dbs, events));
    fields.extend(trace_phase(trace_events, dbs.min(10_000)));

    if let Some(path) = json_path {
        let value = Json::Object(fields);
        write_json(&path, &value);
    }
}
