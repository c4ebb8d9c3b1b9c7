//! Quickstart: one serverless database, three policies, one picture.
//!
//! Reproduces the intuition of Figure 2: the same daily workload run
//! under the reactive, proactive, and optimal policies, rendered as an
//! hour-by-hour timeline plus the §8 KPIs.
//!
//! ```text
//! cargo run --release -p prorp-bench --example quickstart
//! ```

use prorp_sim::{SimConfig, SimPolicy, Simulation};
use prorp_telemetry::{SegmentKind, TelemetryKind};
use prorp_types::{DatabaseId, PolicyConfig, Seconds, Session, Timestamp};
use prorp_workload::Trace;

const DAY: i64 = 86_400;
const HOUR: i64 = 3_600;

fn main() {
    // A database used 09:00–17:00 every day for 35 days.
    let sessions: Vec<Session> = (0..35)
        .map(|d| {
            Session::new(
                Timestamp(d * DAY + 9 * HOUR),
                Timestamp(d * DAY + 17 * HOUR),
            )
            .expect("well-formed session")
        })
        .collect();
    let trace = Trace::new(DatabaseId(0), "daily", sessions).expect("ordered sessions");

    println!("ProRP quickstart: a 09:00-17:00 daily database, 35 days,");
    println!("policies compared on the final 7 days (28-day warm-up).\n");

    for policy in [
        SimPolicy::Reactive,
        SimPolicy::Proactive(PolicyConfig::default()),
        SimPolicy::Optimal,
    ] {
        let label = policy.label();
        let config = SimConfig::builder(
            policy,
            Timestamp(0),
            Timestamp(35 * DAY),
            Timestamp(28 * DAY),
        )
        .build()
        .expect("valid config");
        let report = Simulation::new(config, vec![trace.clone()])
            .expect("valid config")
            .run()
            .expect("simulation completes");

        // Timeline of day 30, one character per 30 minutes:
        //   # active   = logically-paused idle   + pre-warmed   . saved
        //   ! customer waiting on a reactive resume
        let day = 30;
        let mut line = String::new();
        for slot in 0..48 {
            let t = Timestamp(day * DAY + slot * 1_800 + 900);
            line.push(classify_instant(&report, t));
        }
        println!("{label:<10} day {day}  |{line}|");
        println!(
            "{:<10} QoS {:5.1}%  idle {:5.2}%  saved {:5.1}%  proactive resumes {}",
            "",
            report.kpi.qos_pct(),
            report.kpi.idle_pct(),
            100.0 * report.kpi.saved_frac,
            report.kpi.proactive_resumes
        );
        println!();
    }
    println!("legend: '#' active, '=' idle-but-allocated, '+' pre-warmed, '.' paused, '!' waiting");
    println!("        (each character is 30 minutes of day 30; midnight at the left)");
}

/// Rough instant classification for the ASCII art: derived from the
/// telemetry events nearest to `t`.
fn classify_instant(report: &prorp_sim::SimReport, t: Timestamp) -> char {
    // Replay the day's telemetry to find the database's condition at t.
    let mut state = '.';
    let mut since = Timestamp(0);
    for e in report.telemetry.events() {
        if e.ts > t {
            break;
        }
        since = e.ts;
        state = match e.kind {
            TelemetryKind::Login { available: true } => '#',
            TelemetryKind::Login { available: false } => '!',
            TelemetryKind::LogicalPause => '=',
            TelemetryKind::PhysicalPause => '.',
            TelemetryKind::ProactiveResume => '+',
            TelemetryKind::Move | TelemetryKind::Maintenance { .. } => state,
        };
    }
    // A '!' resolves into '#' once the resume workflow (~60 s) completes;
    // keep '!' visible only in the slot containing the login itself.
    if state == '!' && (t - since) > Seconds(1_800) {
        state = '#';
    }
    let _ = SegmentKind::Active;
    state
}
