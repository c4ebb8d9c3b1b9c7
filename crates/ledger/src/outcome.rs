//! What one child measured, and the two forms it leaves the process in:
//! the one-line result the benchmark driver reads, and the detail file
//! the parent assembles `run.json` from.

use crate::spec::{self, Sizes, Workload};
use crate::stats::Stat;
use prorp_server::json::Json;
use prorp_sim::SimReport;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Everything one child run produced.
#[derive(Default)]
pub struct Outcome {
    /// Measured metrics by name; a layer the workload does not cross is
    /// simply absent.
    pub metrics: BTreeMap<&'static str, Stat>,
    /// Operations attempted: timed repeats (DES) or HTTP requests (serve).
    pub attempted: u64,
    /// Operations that errored, plus correctness checks that failed.
    pub failed: u64,
    /// Hash of the run's simulated statistics (see [`fingerprint`]).
    pub fingerprint: String,
    /// Input login+logout events inside the simulated window.
    pub activity_events: u64,
    /// Findings worth a line in the output: failed checks, refused
    /// percentiles, interaction predictions.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric.
    ///
    /// # Panics
    ///
    /// Panics on a name missing from [`spec::METRICS`] — every reported
    /// name must be declared.
    pub fn put(&mut self, name: &'static str, stat: Stat) {
        assert!(spec::metric(name).is_some(), "undeclared metric {name}");
        self.metrics.insert(name, stat);
    }

    /// Record a metric measured once.
    pub fn put_one(&mut self, name: &'static str, value: f64) {
        self.put(name, Stat::one(value));
    }

    /// A correctness check failed: it counts against `failed_frac`.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.notes.push(format!("FAILED: {why}"));
    }

    /// Whether every operation and every check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    /// Value of a metric, if measured.
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics.get(name).map(|s| s.value)
    }

    /// The result line of the benchmark contract: exactly `correct`,
    /// `attempted`, `failed` and `metrics`, the latter holding every
    /// end-to-end metric (`traced == false`) or every per-layer metric
    /// (`traced == true`).  A per-layer metric of a layer this workload
    /// does not cross reads 0.
    pub fn driver_line(&self, traced: bool) -> String {
        let names: Vec<&spec::Metric> = if traced {
            spec::per_layer().collect()
        } else {
            spec::end_to_end().collect()
        };
        let metrics = names
            .into_iter()
            .map(|m| {
                let value = self.value(m.name).unwrap_or(0.0);
                (
                    m.name,
                    Json::object(vec![
                        ("value", Json::Float(value)),
                        ("unit", Json::Str(m.unit.into())),
                    ]),
                )
            })
            .collect();
        Json::object(vec![
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted.max(1) as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("metrics", Json::object(metrics)),
        ])
        .render()
    }

    /// The detail record the parent merges into `run.json`.
    pub fn detail(&self, w: &Workload, sizes: Sizes, seed: u64, traced: bool) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|(name, s)| {
                let unit = spec::metric(name).expect("checked by put").unit;
                (
                    *name,
                    Json::object(vec![
                        ("value", Json::Float(s.value)),
                        ("unit", Json::Str(unit.into())),
                        ("q1", Json::Float(s.q1)),
                        ("q3", Json::Float(s.q3)),
                        ("n", Json::Int(s.n as i64)),
                    ]),
                )
            })
            .collect();
        Json::object(vec![
            ("workload", Json::Str(w.name.into())),
            ("traced", Json::Bool(traced)),
            ("seed", Json::Int(seed as i64)),
            ("dbs", Json::Int(sizes.dbs as i64)),
            ("days", Json::Int(sizes.days)),
            ("activity_events", Json::Int(self.activity_events as i64)),
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::Int(self.attempted as i64)),
            ("failed", Json::Int(self.failed as i64)),
            ("kpi_fingerprint", Json::Str(self.fingerprint.clone())),
            ("metrics", Json::object(metrics)),
            (
                "notes",
                Json::Array(self.notes.iter().cloned().map(Json::Str).collect()),
            ),
        ])
    }
}

/// Per-run samples of several metrics, reported as median + quartiles.
#[derive(Default)]
pub struct Samples(BTreeMap<&'static str, Vec<f64>>);

impl Samples {
    /// Add one run's value of `name`.
    pub fn push(&mut self, name: &'static str, value: f64) {
        self.0.entry(name).or_default().push(value);
    }

    /// Record every metric's [`Stat`] in `out`.
    pub fn report(self, out: &mut Outcome) {
        for (name, samples) in self.0 {
            out.put(name, Stat::of(&samples));
        }
    }
}

/// FNV-1a over everything formatted into it, so a report is hashed
/// without first being rendered into one large string.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
        Ok(())
    }
}

/// A short hash of everything deterministic and decision-relevant in a
/// report: KPIs, the per-label telemetry summary, every database's
/// engine counters (wall-clock fields zeroed), the Algorithm 5 batch
/// series and the cluster/fault totals.  Two runs with the same
/// fingerprint simulated the same world; `--compare` shouts when it
/// changes, because then a throughput difference is not a speed-up.
pub fn fingerprint(r: &SimReport) -> String {
    let mut h = Fnv(0xcbf2_9ce4_8422_2325);
    let _ = write!(h, "{:?}|", r.kpi);
    for (label, count) in r.telemetry_summary.iter() {
        let _ = write!(h, "{label}={count},");
    }
    for c in &r.counters {
        let mut c = *c;
        c.prediction_ns_sum = 0;
        c.prediction_ns_max = 0;
        let _ = write!(h, "{c:?}");
    }
    let _ = write!(
        h,
        "|{:?}|{} {} {} {} {} {}",
        r.resume_batches,
        r.spill_moves,
        r.balance_moves,
        r.oversubscriptions,
        r.mitigations,
        r.incidents,
        r.giveups
    );
    format!("{:016x}", h.0)
}

/// Peak resident set of this process in bytes (`VmHWM`; 0 without procfs).
pub fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<u64>()
                .ok()
        })
        .map_or(0, |kb| kb * 1024)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::workload;

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut o = Outcome {
            attempted: 5,
            ..Outcome::default()
        };
        o.put_one("setup_s", 1.25);
        o.put_one("activity_events_per_ref_s", 1000.5);
        o.put_one("peak_rss_bytes_per_db", 4096.0);
        o.put_one("sim.loop_events", 7.0);
        let untraced = prorp_server::json::parse(&o.driver_line(false)).unwrap();
        let Json::Object(pairs) = &untraced else {
            panic!("not an object")
        };
        let keys: Vec<&str> = pairs.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let Some(Json::Object(metrics)) = untraced.get("metrics") else {
            panic!("no metrics")
        };
        let names: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(names, ["setup_s", "activity_events_per_ref_s"]);
        let traced = prorp_server::json::parse(&o.driver_line(true)).unwrap();
        let Some(Json::Object(metrics)) = traced.get("metrics") else {
            panic!("no metrics")
        };
        assert_eq!(metrics.len(), spec::per_layer().count());
        assert!(metrics.iter().all(|(k, _)| k != "setup_s"));
    }

    #[test]
    fn a_failed_check_makes_the_run_incorrect() {
        let mut o = Outcome {
            attempted: 3,
            ..Outcome::default()
        };
        assert!(o.correct());
        o.fail("kpis diverged".into());
        assert!(!o.correct());
        assert_eq!(o.failed, 1);
        let w = workload("des_reactive").unwrap();
        let detail = o.detail(w, w.sizes(true), 9, false);
        assert_eq!(detail.get("correct"), Some(&Json::Bool(false)));
        assert_eq!(detail.get("seed").and_then(Json::as_int), Some(9));
    }

    #[test]
    #[should_panic(expected = "undeclared metric")]
    fn undeclared_names_are_rejected() {
        Outcome::default().put_one("made.up", 1.0);
    }
}
