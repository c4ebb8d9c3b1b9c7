//! Exporters: JSONL trace streams and Prometheus text format.
//!
//! The writers here ([`record_json`], [`snapshots_jsonl`], [`slo_jsonl`],
//! [`prometheus_text`]) are plain `format!` templates — fixed key order,
//! no whitespace, one record per line — because their bytes are the
//! golden surface: the determinism promise ("identical bytes for
//! identical `(seed, config)`") is asserted with `assert_eq!` on strings,
//! and the pinned files under `tests/goldens/` are what the [`json`]
//! codec is checked against.  Everything that *reads* JSON, and the
//! alert rows the HTTP API also serves, goes through that one codec.
//!
//! * [`trace_jsonl`] / [`parse_trace_jsonl`] — the trace stream, one span
//!   per line, losslessly round-trippable (the `prorp-trace` CLI reads
//!   this format);
//! * [`snapshots_jsonl`] — the metrics-snapshot series, **deterministic
//!   metrics only** (volatile `sim_self_*` readings are dropped so the
//!   stream is shard-layout invariant);
//! * [`prometheus_text`] — one snapshot in Prometheus exposition format,
//!   **including** the volatile `sim_self_*` self-observations, which is
//!   what an operator scraping a live fleet wants to see.

use crate::json::{self, Json};
use crate::metrics::{is_volatile, MetricValue, MetricsSnapshot, HISTOGRAM_BUCKETS};
use crate::slo::{Alert, SloSeries};
use crate::span::{
    BreakerTransition, DecisionAction, DecisionExplain, PredictOutcome, SpanKind, StageResult,
    TraceRecord, WorkflowOutcome,
};
use prorp_types::{DatabaseId, DbState, ProrpError, Result, Timestamp, WorkflowStage};
use std::fmt::Write as _;

/// Render one trace record as a single JSON line (no trailing newline).
///
/// Key order is fixed: `start`, `end`, `db`, `seq`, `kind`, then the
/// kind-specific fields in declaration order.
pub fn record_json(r: &TraceRecord) -> String {
    let mut out = String::with_capacity(96);
    let _ = write!(
        out,
        "{{\"start\":{},\"end\":{},\"db\":{},\"seq\":{},\"kind\":\"{}\"",
        r.start.as_secs(),
        r.end.as_secs(),
        r.db.raw(),
        r.seq,
        r.kind.label()
    );
    match r.kind {
        SpanKind::Lifecycle { from, to } => {
            let _ = write!(out, ",\"from\":\"{from}\",\"to\":\"{to}\"");
        }
        SpanKind::Login { available } => {
            let _ = write!(out, ",\"available\":{available}");
        }
        SpanKind::Predict { outcome } => {
            let _ = write!(out, ",\"outcome\":\"{}\"", outcome.label());
        }
        SpanKind::Breaker { transition } => {
            let _ = write!(out, ",\"transition\":\"{}\"", transition.label());
        }
        SpanKind::WorkflowStage {
            stage,
            attempt,
            result,
        } => {
            let _ = write!(
                out,
                ",\"stage\":\"{}\",\"attempt\":{attempt},\"result\":\"{}\"",
                stage.label(),
                result.label()
            );
        }
        SpanKind::Workflow { outcome } => {
            let _ = write!(out, ",\"outcome\":\"{}\"", outcome.label());
        }
        SpanKind::ProactiveResume => {}
        SpanKind::Mitigation { escalated } => {
            let _ = write!(out, ",\"escalated\":{escalated}");
        }
        SpanKind::Checkpoint { bytes } => {
            let _ = write!(out, ",\"bytes\":{bytes}");
        }
        SpanKind::Recover { bytes } => {
            let _ = write!(out, ",\"bytes\":{bytes}");
        }
        SpanKind::Decision { explain } => {
            let _ = write!(out, ",\"action\":\"{}\"", explain.action.label());
            if let Some(predicted) = explain.predicted {
                let _ = write!(out, ",\"predicted\":{}", predicted.as_secs());
            }
            let _ = write!(
                out,
                ",\"history_len\":{},\"hits\":{},\"basis\":{},\"breaker_open\":{}",
                explain.history_len,
                explain.confidence_hits,
                explain.confidence_total,
                explain.breaker_open
            );
        }
    }
    out.push('}');
    out
}

/// Render a whole trace as JSONL (one record per line, trailing newline
/// after every line).
pub fn trace_jsonl(records: &[TraceRecord]) -> String {
    let mut out = String::with_capacity(records.len() * 96);
    for r in records {
        out.push_str(&record_json(r));
        out.push('\n');
    }
    out
}

/// Render a metrics-snapshot series as JSONL, deterministic metrics only.
///
/// Each line is `{"at":T,"metrics":{...}}` with metric names in sorted
/// order; counters and gauges render as bare integers, histograms as
/// `{"count":..,"sum":..,"buckets":[..]}`.
pub fn snapshots_jsonl(snaps: &[MetricsSnapshot]) -> String {
    let mut out = String::new();
    for snap in snaps {
        let _ = write!(out, "{{\"at\":{},\"metrics\":{{", snap.at.as_secs());
        let mut first = true;
        for entry in snap.entries.iter().filter(|e| !is_volatile(e.name)) {
            if !first {
                out.push(',');
            }
            first = false;
            let _ = write!(out, "\"{}\":", entry.name);
            match &entry.value {
                MetricValue::Counter(v) => {
                    let _ = write!(out, "{v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = write!(out, "{v}");
                }
                MetricValue::Histogram {
                    buckets,
                    count,
                    sum,
                } => {
                    let _ = write!(out, "{{\"count\":{count},\"sum\":{sum},\"buckets\":[");
                    for (i, b) in buckets.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "{b}");
                    }
                    out.push_str("]}");
                }
                MetricValue::Sketch(sketch) => {
                    let _ = write!(
                        out,
                        "{{\"count\":{},\"sum\":{},\"sketch\":[",
                        sketch.count(),
                        sketch.sum()
                    );
                    for (i, (bucket, n)) in sketch.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        let _ = write!(out, "[{bucket},{n}]");
                    }
                    out.push_str("]}");
                }
            }
        }
        out.push_str("}}\n");
    }
    out
}

/// Render one snapshot in Prometheus text exposition format.
///
/// Volatile `sim_self_*` metrics are included — this is the operator-facing
/// export.  Histograms emit cumulative `_bucket{le="..."}` series with
/// upper bounds `2^i - 1` (observations are whole seconds, so bucket `i`'s
/// half-open `[2^(i-1), 2^i)` range is exactly "≤ 2^i − 1"), plus `_sum`
/// and `_count`.
pub fn prometheus_text(snap: &MetricsSnapshot) -> String {
    let mut out = String::new();
    for entry in &snap.entries {
        let name = entry.name;
        let _ = writeln!(out, "# TYPE {name} {}", entry.value.kind());
        match &entry.value {
            MetricValue::Counter(v) => {
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Gauge(v) => {
                let _ = writeln!(out, "{name} {v}");
            }
            MetricValue::Histogram {
                buckets,
                count,
                sum,
            } => {
                let mut cumulative = 0u64;
                for (i, b) in buckets.iter().enumerate() {
                    cumulative += b;
                    if i + 1 == HISTOGRAM_BUCKETS {
                        let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {cumulative}");
                    } else {
                        let le = (1u64 << i) - 1;
                        let _ = writeln!(out, "{name}_bucket{{le=\"{le}\"}} {cumulative}");
                    }
                }
                let _ = writeln!(out, "{name}_sum {sum}");
                let _ = writeln!(out, "{name}_count {count}");
            }
            MetricValue::Sketch(sketch) => {
                for (q_num, q_label) in [(50u64, "0.5"), (95, "0.95"), (99, "0.99")] {
                    if let Some(v) = sketch.quantile(q_num, 100) {
                        let _ = writeln!(out, "{name}{{quantile=\"{q_label}\"}} {v}");
                    }
                }
                let _ = writeln!(out, "{name}_sum {}", sketch.sum());
                let _ = writeln!(out, "{name}_count {}", sketch.count());
            }
        }
    }
    out
}

/// Render a merged [`SloSeries`] as JSONL, one `(region, window)` row per
/// line in `(window, region)` order — the golden/report surface of the
/// rollup.  Empty quantiles (no completed resumes in the window) omit
/// their keys, matching the trace format's no-null convention.
pub fn slo_jsonl(series: &SloSeries) -> String {
    let mut out = String::new();
    for row in series.rows() {
        let _ = write!(
            out,
            "{{\"window\":{},\"region\":{},\"start\":{},\"logins\":{},\"misses\":{},\
             \"availability_ppm\":{},\"miss_ppm\":{}",
            row.window,
            row.region,
            row.window_start.as_secs(),
            row.logins,
            row.misses,
            row.availability_ppm,
            row.miss_ppm
        );
        for (key, value) in [
            ("resume_p50", row.resume_p50),
            ("resume_p95", row.resume_p95),
            ("resume_p99", row.resume_p99),
        ] {
            if let Some(v) = value {
                let _ = write!(out, ",\"{key}\":{v}");
            }
        }
        let _ = writeln!(
            out,
            ",\"resumes\":{},\"proactive_resumes\":{},\"breaker_opens\":{}}}",
            row.resumes, row.proactive_resumes, row.breaker_opens
        );
    }
    out
}

/// One alert as a JSON object — the row schema shared by
/// [`alerts_jsonl`] and the `alerts` array of `GET /v1/slo`.
pub fn alert_json(a: &Alert) -> Json {
    Json::object(vec![
        ("window", Json::Int(a.window)),
        ("region", Json::Int(i64::from(a.region))),
        ("at", Json::Int(a.at.as_secs())),
        ("kind", Json::Str(a.kind.label().into())),
        ("fast_ppm", Json::from(a.fast_ppm)),
        ("slow_ppm", Json::from(a.slow_ppm)),
        ("threshold", Json::from(a.threshold)),
    ])
}

/// Render an alert log as JSONL, one alert per line in the deterministic
/// `(window, region, kind)` order produced by
/// [`evaluate_alerts`](crate::slo::evaluate_alerts).
pub fn alerts_jsonl(alerts: &[Alert]) -> String {
    let mut out = String::new();
    for a in alerts {
        out.push_str(&alert_json(a).render());
        out.push('\n');
    }
    out
}

/// Typed access to the fields of one parsed trace line.
struct Fields {
    object: Json,
    line: usize,
}

impl Fields {
    fn err(&self, what: &str) -> ProrpError {
        ProrpError::Observability(format!("trace line {}: {what}", self.line))
    }

    /// Field `key` read through `read`; absent and mistyped fields are
    /// both errors naming the line.
    fn typed<'a, T>(
        &'a self,
        key: &str,
        ty: &str,
        read: impl FnOnce(&'a Json) -> Option<T>,
    ) -> Result<T> {
        let value = self
            .object
            .get(key)
            .ok_or_else(|| self.err(&format!("missing field {key:?}")))?;
        read(value).ok_or_else(|| self.err(&format!("field {key:?} is not {ty}")))
    }

    fn int(&self, key: &str) -> Result<i64> {
        self.typed(key, "an integer", Json::as_int)
    }

    fn uint(&self, key: &str) -> Result<u64> {
        self.typed(key, "an unsigned integer", Json::as_u64)
    }

    fn uint32(&self, key: &str) -> Result<u32> {
        self.typed(key, "an unsigned 32-bit integer", |v| {
            v.as_u64().and_then(|v| u32::try_from(v).ok())
        })
    }

    /// An integer field that may be absent (the format omits optional
    /// fields instead of writing `null`).
    fn opt_int(&self, key: &str) -> Result<Option<i64>> {
        match self.object.get(key) {
            Some(_) => self.int(key).map(Some),
            None => Ok(None),
        }
    }

    fn boolean(&self, key: &str) -> Result<bool> {
        self.typed(key, "a boolean", |v| match v {
            Json::Bool(b) => Some(*b),
            _ => None,
        })
    }

    fn str(&self, key: &str) -> Result<&str> {
        self.typed(key, "a string", Json::as_str)
    }

    /// The value among `all` whose `label` is the string at `key`.
    fn labelled<T: Copy, L: AsRef<str>>(
        &self,
        key: &str,
        all: &[T],
        label: impl Fn(T) -> L,
    ) -> Result<T> {
        let text = self.str(key)?;
        all.iter()
            .copied()
            .find(|value| label(*value).as_ref() == text)
            .ok_or_else(|| self.err(&format!("unknown {key} label {text:?}")))
    }
}

fn db_state(fields: &Fields, key: &str) -> Result<DbState> {
    fields.labelled(key, &DbState::ALL, |state| state.to_string())
}

fn span_kind(fields: &Fields) -> Result<SpanKind> {
    Ok(match fields.str("kind")? {
        "lifecycle" => SpanKind::Lifecycle {
            from: db_state(fields, "from")?,
            to: db_state(fields, "to")?,
        },
        "login" => SpanKind::Login {
            available: fields.boolean("available")?,
        },
        "predict" => SpanKind::Predict {
            outcome: fields.labelled("outcome", &PredictOutcome::ALL, PredictOutcome::label)?,
        },
        "breaker" => SpanKind::Breaker {
            transition: fields.labelled(
                "transition",
                &BreakerTransition::ALL,
                BreakerTransition::label,
            )?,
        },
        "workflow-stage" => SpanKind::WorkflowStage {
            stage: fields.labelled("stage", &WorkflowStage::ALL, WorkflowStage::label)?,
            attempt: fields.uint32("attempt")?,
            result: fields.labelled("result", &StageResult::ALL, StageResult::label)?,
        },
        "workflow" => SpanKind::Workflow {
            outcome: fields.labelled("outcome", &WorkflowOutcome::ALL, WorkflowOutcome::label)?,
        },
        "proactive-resume" => SpanKind::ProactiveResume,
        "mitigation" => SpanKind::Mitigation {
            escalated: fields.boolean("escalated")?,
        },
        "checkpoint" => SpanKind::Checkpoint {
            bytes: fields.uint("bytes")?,
        },
        "recover" => SpanKind::Recover {
            bytes: fields.uint("bytes")?,
        },
        "decision" => SpanKind::Decision {
            explain: DecisionExplain {
                action: fields.labelled("action", &DecisionAction::ALL, DecisionAction::label)?,
                predicted: fields.opt_int("predicted")?.map(Timestamp),
                history_len: fields.uint32("history_len")?,
                confidence_hits: fields.uint32("hits")?,
                confidence_total: fields.uint32("basis")?,
                breaker_open: fields.boolean("breaker_open")?,
            },
        },
        other => return Err(fields.err(&format!("unknown span kind {other:?}"))),
    })
}

/// Parse a JSONL trace produced by [`trace_jsonl`] (blank lines are
/// skipped, so concatenated or hand-edited streams still load).
///
/// # Errors
///
/// Returns [`ProrpError::Observability`] naming the offending line for any
/// malformed record.
pub fn parse_trace_jsonl(input: &str) -> Result<Vec<TraceRecord>> {
    let mut records = Vec::new();
    for (idx, line) in input.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let line_no = idx + 1;
        let fields = Fields {
            object: json::parse(line)
                .map_err(|e| ProrpError::Observability(format!("trace line {line_no}: {e}")))?,
            line: line_no,
        };
        records.push(TraceRecord {
            start: Timestamp(fields.int("start")?),
            end: Timestamp(fields.int("end")?),
            db: DatabaseId(fields.uint("db")?),
            seq: fields.uint("seq")?,
            kind: span_kind(&fields)?,
        });
    }
    Ok(records)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::tests::{histogram, sketch, snapshot};

    fn sample_records() -> Vec<TraceRecord> {
        let mut seq = 0..;
        let mut mk = |start: i64, end: i64, kind: SpanKind| TraceRecord {
            start: Timestamp(start),
            end: Timestamp(end),
            db: DatabaseId(7),
            seq: seq.next().unwrap(),
            kind,
        };
        vec![
            mk(
                0,
                0,
                SpanKind::Lifecycle {
                    from: DbState::Resumed,
                    to: DbState::LogicallyPaused,
                },
            ),
            mk(5, 5, SpanKind::Login { available: false }),
            mk(
                6,
                6,
                SpanKind::Predict {
                    outcome: PredictOutcome::Failed,
                },
            ),
            mk(
                7,
                7,
                SpanKind::Breaker {
                    transition: BreakerTransition::Opened,
                },
            ),
            mk(
                10,
                40,
                SpanKind::WorkflowStage {
                    stage: WorkflowStage::AttachStorage,
                    attempt: 2,
                    result: StageResult::Retry,
                },
            ),
            mk(
                10,
                90,
                SpanKind::Workflow {
                    outcome: WorkflowOutcome::Completed,
                },
            ),
            mk(95, 95, SpanKind::ProactiveResume),
            mk(99, 99, SpanKind::Mitigation { escalated: true }),
            mk(100, 103, SpanKind::Checkpoint { bytes: 4096 }),
            mk(104, 106, SpanKind::Recover { bytes: 4096 }),
            mk(
                110,
                110,
                SpanKind::Decision {
                    explain: DecisionExplain {
                        action: DecisionAction::ProactiveResume,
                        predicted: Some(Timestamp(470_400)),
                        history_len: 12,
                        confidence_hits: 3,
                        confidence_total: 4,
                        breaker_open: false,
                    },
                },
            ),
            mk(
                115,
                115,
                SpanKind::Decision {
                    explain: DecisionExplain {
                        action: DecisionAction::PhysicalPause,
                        predicted: None,
                        history_len: 1,
                        confidence_hits: 0,
                        confidence_total: 0,
                        breaker_open: true,
                    },
                },
            ),
        ]
    }

    #[test]
    fn jsonl_roundtrips_every_kind() {
        let mut records = sample_records();
        // Ids are 64-bit unsigned: one above `i64::MAX` must survive too.
        records.push(TraceRecord {
            db: DatabaseId(u64::MAX - 3),
            ..records[6]
        });
        // Every value of every labelled field.
        let SpanKind::Decision { explain } = records[10].kind else {
            unreachable!("the sample's eleventh record is a decision")
        };
        let mut kinds = Vec::new();
        for from in DbState::ALL {
            kinds.extend(DbState::ALL.map(|to| SpanKind::Lifecycle { from, to }));
        }
        kinds.extend(PredictOutcome::ALL.map(|outcome| SpanKind::Predict { outcome }));
        kinds.extend(BreakerTransition::ALL.map(|transition| SpanKind::Breaker { transition }));
        for stage in WorkflowStage::ALL {
            kinds.extend(StageResult::ALL.map(|result| SpanKind::WorkflowStage {
                stage,
                attempt: 1,
                result,
            }));
        }
        kinds.extend(WorkflowOutcome::ALL.map(|outcome| SpanKind::Workflow { outcome }));
        kinds.extend(DecisionAction::ALL.map(|action| SpanKind::Decision {
            explain: DecisionExplain { action, ..explain },
        }));
        for kind in kinds {
            let seq = records.len() as u64;
            records.push(TraceRecord {
                seq,
                kind,
                ..records[0]
            });
        }
        let text = trace_jsonl(&records);
        assert_eq!(text.lines().count(), records.len());
        assert!(text.contains("\"db\":18446744073709551612,"));
        let parsed = parse_trace_jsonl(&text).unwrap();
        assert_eq!(parsed, records);
    }

    #[test]
    fn record_json_has_fixed_key_order() {
        let r = sample_records().remove(4);
        assert_eq!(
            record_json(&r),
            "{\"start\":10,\"end\":40,\"db\":7,\"seq\":4,\"kind\":\"workflow-stage\",\
             \"stage\":\"attach-storage\",\"attempt\":2,\"result\":\"retry\"}"
        );
    }

    #[test]
    fn decision_json_omits_absent_prediction() {
        let records = sample_records();
        let with_prediction = record_json(&records[10]);
        assert_eq!(
            with_prediction,
            "{\"start\":110,\"end\":110,\"db\":7,\"seq\":10,\"kind\":\"decision\",\
             \"action\":\"proactive-resume\",\"predicted\":470400,\"history_len\":12,\
             \"hits\":3,\"basis\":4,\"breaker_open\":false}"
        );
        // Keys are read by name: a trace written when decisions still
        // carried `cache_hit` parses to the same record.
        let older = with_prediction.replace('}', ",\"cache_hit\":true}");
        assert_eq!(parse_trace_jsonl(&older).unwrap(), [records[10]]);
        let without = record_json(&records[11]);
        assert!(!without.contains("predicted"));
        assert!(without.contains("\"action\":\"physical-pause\""));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        for bad in [
            "not json",
            "{\"start\":1}",
            "{\"start\":1,\"end\":1,\"db\":1,\"seq\":0,\"kind\":\"nope\"}",
            "{\"start\":1,\"end\":1,\"db\":-1,\"seq\":0,\"kind\":\"proactive-resume\"}",
            "{\"start\":1,\"end\":1,\"db\":1,\"seq\":0,\"kind\":\"login\",\"available\":7}",
            "{\"start\":1,\"end\":1,\"db\":1,\"seq\":0,\"kind\":\"proactive-resume\"} extra",
        ] {
            let err = parse_trace_jsonl(bad).unwrap_err();
            assert_eq!(err.category(), "observability", "input: {bad}");
            assert!(err.to_string().contains("line 1"), "input: {bad}");
        }
    }

    #[test]
    fn parser_skips_blank_lines() {
        let text = format!("\n{}\n\n", record_json(&sample_records()[6]));
        assert_eq!(parse_trace_jsonl(&text).unwrap().len(), 1);
    }

    #[test]
    fn snapshots_jsonl_drops_volatile_metrics() {
        let snap = snapshot(
            3600,
            vec![
                ("prorp_c", MetricValue::Counter(3)),
                ("prorp_g", MetricValue::Gauge(-2)),
                ("sim_self_events_processed_total", MetricValue::Counter(99)),
                ("prorp_h_seconds", histogram(&[1])),
            ],
        );
        let text = snapshots_jsonl(&[snap]);
        assert!(text.starts_with("{\"at\":3600,\"metrics\":{"));
        assert!(text.contains("\"prorp_c\":3"));
        assert!(text.contains("\"prorp_g\":-2"));
        assert!(text.contains("\"prorp_h_seconds\":{\"count\":1,\"sum\":1,\"buckets\":[0,1,0"));
        assert!(!text.contains("sim_self"), "volatile metrics excluded");
    }

    #[test]
    fn prometheus_text_includes_volatile_and_histogram_series() {
        let snap = snapshot(
            0,
            vec![
                ("prorp_logins_available_total", MetricValue::Counter(5)),
                ("sim_self_databases", MetricValue::Gauge(64)),
                ("prorp_workflow_seconds", histogram(&[0, 3, 1 << 30])),
            ],
        );
        let text = prometheus_text(&snap);
        assert!(text.contains("# TYPE prorp_logins_available_total counter"));
        assert!(text.contains("prorp_logins_available_total 5"));
        assert!(text.contains("# TYPE sim_self_databases gauge"));
        assert!(text.contains("sim_self_databases 64"));
        assert!(text.contains("prorp_workflow_seconds_bucket{le=\"0\"} 1"));
        assert!(text.contains("prorp_workflow_seconds_bucket{le=\"3\"} 2"));
        assert!(text.contains("prorp_workflow_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains(&format!("prorp_workflow_seconds_sum {}", 3 + (1 << 30))));
        assert!(text.contains("prorp_workflow_seconds_count 3"));
    }

    #[test]
    fn sketches_render_as_summaries_in_both_exports() {
        let snap = snapshot(
            60,
            vec![(
                "prorp_resume_latency_seconds",
                sketch(&[10, 20, 30, 40, 1000]),
            )],
        );
        let jsonl = snapshots_jsonl(std::slice::from_ref(&snap));
        assert!(jsonl
            .contains("\"prorp_resume_latency_seconds\":{\"count\":5,\"sum\":1100,\"sketch\":[["));
        let prom = prometheus_text(&snap);
        assert!(prom.contains("# TYPE prorp_resume_latency_seconds summary"));
        assert!(prom.contains("prorp_resume_latency_seconds{quantile=\"0.5\"} "));
        assert!(prom.contains("prorp_resume_latency_seconds{quantile=\"0.99\"} "));
        assert!(prom.contains("prorp_resume_latency_seconds_sum 1100"));
        assert!(prom.contains("prorp_resume_latency_seconds_count 5"));

        // An empty sketch still exports _sum/_count but no quantiles.
        let prom = prometheus_text(&snapshot(0, vec![("prorp_empty_seconds", sketch(&[]))]));
        assert!(!prom.contains("quantile"));
        assert!(prom.contains("prorp_empty_seconds_count 0"));
    }

    #[test]
    fn slo_and_alert_jsonl_render_rows_in_order() {
        use crate::slo::{evaluate_alerts, SloConfig, SloSeries};
        use prorp_types::Seconds;
        let mut series = SloSeries::new(SloConfig {
            window: Seconds(100),
            regions: 2,
            slow_windows: 2,
            objective_ppm: 10_000,
            fast_burn: 10,
            slow_burn: 2,
            breaker_storm_opens: 2,
        });
        series.on_login(Timestamp(10), DatabaseId(0), true);
        series.on_login(Timestamp(20), DatabaseId(0), false);
        series.on_login(Timestamp(30), DatabaseId(1), true);
        series.on_resume_completed(Timestamp(40), DatabaseId(0), Seconds(25));
        series.on_breaker_open(Timestamp(50), DatabaseId(1));
        series.on_breaker_open(Timestamp(60), DatabaseId(3));
        let text = slo_jsonl(&series);
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with(
            "{\"window\":0,\"region\":0,\"start\":0,\"logins\":2,\"misses\":1,\
             \"availability_ppm\":500000,\"miss_ppm\":500000,\"resume_p50\":"
        ));
        assert!(lines[1].contains("\"region\":1"));
        assert!(
            !lines[1].contains("resume_p50"),
            "no resumes -> quantile keys omitted"
        );
        let alerts = evaluate_alerts(&series);
        let log = alerts_jsonl(&alerts);
        assert!(log.contains("\"kind\":\"qos-burn-rate\""));
        assert!(log.contains("\"kind\":\"breaker-storm\""));
        assert_eq!(log.lines().count(), alerts.len());
    }
}
