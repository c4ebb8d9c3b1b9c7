//! Golden KPI snapshots.
//!
//! A golden file pins the *exact* deterministic KPI surface of one
//! simulated scenario: every [`KpiReport`] field, the derived QoS and
//! idle percentages, the fleet-wide workflow/fault counters, and the
//! cluster-churn totals.  The suite fails if any of them drifts by a
//! single bit — which is the point: the simulator promises bit-stable
//! results for a fixed seed, so any drift is either a deliberate
//! semantic change (re-bless with `scripts/bless.sh`) or a regression.
//!
//! Rendering is a hand-built canonical JSON string — fixed key order,
//! two-space indent, `f64` written with Rust's shortest-round-trip
//! formatting — so files are diffable and byte-comparable without a JSON
//! parser or serde dependency.
//!
//! Files live in the workspace-level `tests/goldens/` directory next to
//! the cross-crate integration tests.  To re-record after an intentional
//! KPI change, run `scripts/bless.sh` (or `BLESS=1 cargo test -p testkit
//! --test golden_kpis`) and review the resulting diff like any other
//! code change.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use prorp_core::EngineCounters;
use prorp_sim::SimReport;
use prorp_telemetry::KpiReport;

/// The workspace-level golden directory (`tests/goldens/`).
pub fn goldens_dir() -> PathBuf {
    PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/goldens"))
}

fn render_kpi(out: &mut String, kpi: &KpiReport) {
    let _ = writeln!(out, "  \"kpi\": {{");
    let _ = writeln!(out, "    \"logins_available\": {},", kpi.logins_available);
    let _ = writeln!(
        out,
        "    \"logins_unavailable\": {},",
        kpi.logins_unavailable
    );
    let _ = writeln!(out, "    \"qos_pct\": {},", kpi.qos_pct());
    let _ = writeln!(out, "    \"active_frac\": {},", kpi.active_frac);
    let _ = writeln!(out, "    \"idle_logical_frac\": {},", kpi.idle_logical_frac);
    let _ = writeln!(
        out,
        "    \"idle_proactive_correct_frac\": {},",
        kpi.idle_proactive_correct_frac
    );
    let _ = writeln!(
        out,
        "    \"idle_proactive_wrong_frac\": {},",
        kpi.idle_proactive_wrong_frac
    );
    let _ = writeln!(out, "    \"saved_frac\": {},", kpi.saved_frac);
    let _ = writeln!(out, "    \"unavailable_frac\": {},", kpi.unavailable_frac);
    let _ = writeln!(out, "    \"idle_pct\": {},", kpi.idle_pct());
    let _ = writeln!(out, "    \"proactive_resumes\": {},", kpi.proactive_resumes);
    let _ = writeln!(out, "    \"physical_pauses\": {},", kpi.physical_pauses);
    let _ = writeln!(out, "    \"forecast_failures\": {}", kpi.forecast_failures);
    let _ = writeln!(out, "  }},");
}

/// Render the deterministic KPI surface of a report as canonical JSON.
///
/// Besides the fleet KPIs this includes the workflow/fault counters and
/// the cluster-churn totals, widening the net a drift must slip through;
/// wall-clock quantities (shard timings, prediction latencies) are
/// deliberately excluded.
pub fn render_report(report: &SimReport) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(out, "  \"policy\": \"{}\",", report.policy_label);
    render_kpi(&mut out, &report.kpi);
    let _ = writeln!(out, "  \"workflow\": {{");
    let _ = writeln!(out, "    \"retries\": {},", report.workflow.retries);
    let _ = writeln!(out, "    \"giveups\": {},", report.workflow.giveups);
    let engine_sum = |f: fn(&EngineCounters) -> u64| report.counters.iter().map(f).sum::<u64>();
    let _ = writeln!(
        out,
        "    \"breaker_opens\": {},",
        engine_sum(|c| c.breaker_opens)
    );
    let _ = writeln!(
        out,
        "    \"breaker_fallbacks\": {},",
        engine_sum(|c| c.breaker_fallbacks)
    );
    let _ = writeln!(
        out,
        "    \"stage_completions\": [{}]",
        report
            .workflow
            .stage_completions
            .iter()
            .map(|c| c.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(out, "  \"fleet\": {{");
    let _ = writeln!(out, "    \"spill_moves\": {},", report.spill_moves);
    let _ = writeln!(out, "    \"balance_moves\": {},", report.balance_moves);
    let _ = writeln!(
        out,
        "    \"oversubscriptions\": {},",
        report.oversubscriptions
    );
    let _ = writeln!(out, "    \"mitigations\": {},", report.mitigations);
    let _ = writeln!(out, "    \"incidents\": {},", report.incidents);
    let _ = writeln!(
        out,
        "    \"resume_scans\": {},",
        report.resume_batches.len()
    );
    let _ = writeln!(
        out,
        "    \"resumes_scheduled\": {},",
        report.resume_batches.iter().sum::<usize>()
    );
    let events = report.telemetry_summary.total();
    let _ = writeln!(out, "    \"telemetry_events\": {events}");
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}

/// Compare a rendered report against the golden file `<name>.json`.
///
/// With `BLESS=1` in the environment the golden is (re)written and the
/// check passes.  Otherwise a missing or differing golden produces an
/// `Err` whose message carries both versions and the re-blessing
/// instructions.
///
/// # Errors
///
/// Returns a human-readable description of the drift (or of the missing
/// file) suitable for a test panic message.
pub fn check_golden(name: &str, rendered: &str) -> Result<(), String> {
    check_golden_file(&format!("{name}.json"), rendered)
}

/// Compare rendered text against the golden file `file_name` (with its
/// extension spelled out — `.jsonl` traces and `.prom` metric exports
/// use this directly; [`check_golden`] appends `.json` for KPI
/// snapshots).  Blessing and drift reporting behave exactly like
/// [`check_golden`].
///
/// # Errors
///
/// Returns a human-readable description of the drift (or of the missing
/// file) suitable for a test panic message.
pub fn check_golden_file(file_name: &str, rendered: &str) -> Result<(), String> {
    let path = goldens_dir().join(file_name);
    if std::env::var("BLESS").as_deref() == Ok("1") {
        fs::create_dir_all(goldens_dir())
            .map_err(|e| format!("cannot create {}: {e}", goldens_dir().display()))?;
        fs::write(&path, rendered).map_err(|e| format!("cannot bless {}: {e}", path.display()))?;
        return Ok(());
    }
    let expected = fs::read_to_string(&path).map_err(|e| {
        format!(
            "golden {} is unreadable ({e}); record it with scripts/bless.sh",
            path.display()
        )
    })?;
    if expected != rendered {
        return Err(format!(
            "drift against golden {file_name}.\n\
             If this change is intentional, re-bless with scripts/bless.sh \
             and review the diff.\n\
             --- expected ---\n{expected}\n--- actual ---\n{rendered}"
        ));
    }
    Ok(())
}
