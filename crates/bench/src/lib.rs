//! Shared harness for the experiment binaries.
//!
//! Every figure of the paper's evaluation (§9) has a binary in
//! `src/bin/` that regenerates it; this module supplies the common
//! plumbing: fleet construction, policy comparison, and environment-knob
//! parsing so larger runs can be requested without recompiling
//! (`PRORP_FLEET=2000 PRORP_DAYS=60 cargo run -p prorp-bench --bin …`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

pub use json::{arg_value, json_path_from_args, write_json, Json};

use prorp_sim::{SimConfig, SimConfigBuilder, SimPolicy, SimReport, Simulation};
use prorp_types::{PolicyConfig, Seconds, Timestamp};
use prorp_workload::{RegionName, RegionProfile, Trace};

/// Read a `usize` knob from the environment.
pub fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Read an `i64` knob from the environment.
pub fn env_i64(name: &str, default: i64) -> i64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Where a benchmark record came from: the `"meta"` object of a
/// `results/BENCH_*.json` file.  `mode` is the bench's own run mode
/// (`"full"` or `"smoke"`); `commit` is the `HEAD` of the git tree the
/// running executable sits in — the tree it was built from, whatever the
/// current directory — with `+dirty` when that tree differs from it;
/// `profile` is `"debug"` when the simulator's per-event lifecycle checks
/// were compiled in, which no timing should be; anything the host will
/// not tell reads `"unknown"`.
pub fn run_meta(mode: &str) -> Json {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            let line = info.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        });
    let text = |value: Option<String>| Json::Str(value.unwrap_or_else(|| "unknown".into()));
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::object(vec![
        ("commit", text(build_tree_commit())),
        ("nproc", Json::from(nproc as u64)),
        ("cpu", text(cpu)),
        ("rustc", text(stdout_of("rustc", &["--version"]))),
        ("profile", Json::Str(profile.into())),
        ("mode", Json::Str(mode.into())),
    ])
}

/// The trimmed standard output of `program args`, if it ran and
/// succeeded.
fn stdout_of(program: &str, args: &[&str]) -> Option<String> {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|text| text.trim().to_string())
}

/// The commit of the git tree the running executable sits in
/// (`target/release/BIN` under the tree it was built from), with
/// `+dirty` when that tree's files differ from it; `None` for an
/// executable outside any git tree.
///
/// The tree is found from [`std::env::current_exe`], never from the
/// current directory: a binary built in one checkout and run from
/// another must not stamp the other's commit.  A record is usually
/// written before its own commit exists, so `+dirty` says so rather
/// than pass the parent's hash off as the source.
fn build_tree_commit() -> Option<String> {
    let exe = std::env::current_exe().ok()?;
    let dir = exe.parent()?.to_str()?;
    let head = stdout_of("git", &["-C", dir, "rev-parse", "HEAD"])?;
    Some(
        match stdout_of("git", &["-C", dir, "status", "--porcelain"]) {
            Some(changes) if changes.is_empty() => head,
            _ => head + "+dirty",
        },
    )
}

/// Standard experiment setup: fleet size, horizon, and split points.
#[derive(Clone, Copy, Debug)]
pub struct ExperimentScale {
    /// Databases in the fleet.
    pub fleet: usize,
    /// Total simulated days.
    pub days: i64,
    /// Warm-up days before KPI measurement starts.
    pub warmup_days: i64,
    /// RNG seed.
    pub seed: u64,
}

impl ExperimentScale {
    /// Defaults overridable via `PRORP_FLEET`, `PRORP_DAYS`,
    /// `PRORP_WARMUP`, `PRORP_SEED`.
    pub fn from_env() -> Self {
        ExperimentScale {
            fleet: env_usize("PRORP_FLEET", 150),
            days: env_i64("PRORP_DAYS", 32),
            warmup_days: env_i64("PRORP_WARMUP", 28),
            seed: env_usize("PRORP_SEED", 42) as u64,
        }
    }

    /// The bench fleets' config builder: `policy` over this scale's
    /// window on a cluster sized to the fleet with ~25 % headroom (five
    /// nodes of a quarter of the fleet each, at least eight).
    pub fn config_builder(&self, policy: SimPolicy) -> SimConfigBuilder {
        SimConfig::builder(policy, self.start(), self.end(), self.measure_from())
            .node_capacity((self.fleet / 4).max(8))
            .nodes(5)
    }

    /// Simulation start.
    pub fn start(&self) -> Timestamp {
        Timestamp(0)
    }

    /// Simulation end.
    pub fn end(&self) -> Timestamp {
        self.start() + Seconds::days(self.days)
    }

    /// Measurement-window start.
    pub fn measure_from(&self) -> Timestamp {
        self.start() + Seconds::days(self.warmup_days)
    }

    /// Generate the region's fleet at this scale.
    pub fn fleet_for(&self, region: RegionName) -> Vec<Trace> {
        RegionProfile::for_region(region).generate_fleet(
            self.fleet,
            self.start(),
            self.end(),
            self.seed,
        )
    }

    /// A simulation config template for this scale.
    pub fn sim_config(&self, policy: SimPolicy) -> SimConfig {
        self.config_builder(policy)
            .build()
            .expect("experiment defaults are valid")
    }
}

/// Run one policy over the traces at this scale.
pub fn run_policy(scale: &ExperimentScale, policy: SimPolicy, traces: &[Trace]) -> SimReport {
    Simulation::new(scale.sim_config(policy), traces.to_vec())
        .expect("experiment config is valid")
        .run()
        .expect("simulation completes")
}

/// Run the reactive baseline and a proactive configuration on identical
/// traces (the Figure 6/7 comparison).
pub fn compare_policies(
    scale: &ExperimentScale,
    config: PolicyConfig,
    traces: &[Trace],
) -> (SimReport, SimReport) {
    let reactive = run_policy(scale, SimPolicy::Reactive, traces);
    let proactive = run_policy(scale, SimPolicy::Proactive(config), traces);
    (reactive, proactive)
}

/// Print the standard two-policy comparison block.
pub fn print_comparison(label: &str, reactive: &SimReport, proactive: &SimReport) {
    println!("── {label} ──");
    println!(
        "  reactive : QoS {:5.1}%   idle {:5.2}% (logical {:.2}%)",
        reactive.kpi.qos_pct(),
        reactive.kpi.idle_pct(),
        100.0 * reactive.kpi.idle_logical_frac,
    );
    println!(
        "  proactive: QoS {:5.1}%   idle {:5.2}% (logical {:.2}% + correct {:.2}% + wrong {:.2}%)",
        proactive.kpi.qos_pct(),
        proactive.kpi.idle_pct(),
        100.0 * proactive.kpi.idle_logical_frac,
        100.0 * proactive.kpi.idle_proactive_correct_frac,
        100.0 * proactive.kpi.idle_proactive_wrong_frac,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn env_parsing_falls_back_to_defaults() {
        assert_eq!(env_usize("PRORP_DOES_NOT_EXIST", 7), 7);
        assert_eq!(env_i64("PRORP_DOES_NOT_EXIST", -3), -3);
    }

    #[test]
    fn run_meta_names_every_field() {
        let meta = run_meta("smoke");
        for key in ["commit", "cpu", "rustc", "profile"] {
            assert!(meta.get(key).and_then(Json::as_str).is_some(), "{key}");
        }
        assert_eq!(meta.get("mode").and_then(Json::as_str), Some("smoke"));
        assert!(meta.get("nproc").and_then(Json::as_u64).is_some());
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        assert_eq!(meta.get("profile").and_then(Json::as_str), Some(profile));
        // `profile` is the one build stamp: no other field names the build.
        let Json::Object(fields) = &meta else {
            panic!("meta is an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["commit", "nproc", "cpu", "rustc", "profile", "mode"]);
    }

    #[test]
    fn scale_windows_are_consistent() {
        let scale = ExperimentScale {
            fleet: 10,
            days: 32,
            warmup_days: 28,
            seed: 1,
        };
        assert!(scale.start() < scale.measure_from());
        assert!(scale.measure_from() < scale.end());
        let cfg = scale.sim_config(SimPolicy::Reactive);
        assert_eq!(cfg.nodes, 5);
        assert!(!cfg.fault().injects_stage_faults());
    }
}
