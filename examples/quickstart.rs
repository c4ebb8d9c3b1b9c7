//! Quickstart: one serverless database, three policies, one picture.
//!
//! Reproduces the intuition of Figure 2: the same daily workload run
//! under the reactive, proactive, and optimal policies, rendered as an
//! hour-by-hour timeline plus the §8 KPIs.
//!
//! ```text
//! cargo run --release -p prorp-bench --example quickstart
//! ```

use prorp_obs::SpanKind;
use prorp_sim::{ObsConfig, SimConfig, SimPolicy, Simulation};
use prorp_types::{DatabaseId, DbState, PolicyConfig, Seconds, Session, Timestamp};
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
        .observe(ObsConfig::on())
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
/// trace spans nearest to `t`.
fn classify_instant(report: &prorp_sim::SimReport, t: Timestamp) -> char {
    // Replay the trace to find the database's condition at t.
    let trace = &report.obs.as_ref().expect("observability on").trace;
    let mut state = '.';
    let mut since = Timestamp(0);
    for r in trace {
        if r.start > t {
            break;
        }
        state = match r.kind {
            SpanKind::Login { available: true } => '#',
            SpanKind::Login { available: false } => '!',
            SpanKind::Lifecycle { to, .. } => match to {
                DbState::LogicallyPaused => '=',
                DbState::PhysicallyPaused => '.',
                DbState::Resumed => continue,
            },
            SpanKind::ProactiveResume => '+',
            _ => continue,
        };
        since = r.start;
    }
    // A '!' resolves into '#' once the resume workflow (~60 s) completes;
    // keep '!' visible only in the slot containing the login itself.
    if state == '!' && (t - since) > Seconds(1_800) {
        state = '#';
    }
    state
}
