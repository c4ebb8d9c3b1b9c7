//! The measuring skeleton every untraced child shares: set up several
//! times, then repeat the timed call until the budget is spent, with the
//! host-speed probe running beside it all.
//!
//! Three clocks are kept.  Wall time is what a user waits for, but on a
//! shared host it also counts the time the hypervisor ran someone else
//! (steal swung between 0 and 88 % of a core while this was sized).
//! Process CPU time leaves stolen time out but still stretches by up to
//! 1.75x when a neighbour is busy on the core's other hardware thread.
//! *Reference seconds* — CPU seconds divided by the host factor the probe
//! measured over the very same stretch (see [`crate::probe`]) — leave
//! that out too, and are what the bounded figures are stated in.  The
//! other two are reported beside them.

use crate::outcome::Outcome;
use crate::probe::{self, Probe, Readings};
use crate::spec;
use crate::stats::Stat;
use crate::sys;
use crate::Budget;
use std::time::Instant;

/// One workload, as the skeleton drives it.
pub trait Cell {
    /// One complete set-up: build the inputs from the seed, boot what
    /// needs booting, and run the warm-up.
    fn set_up(&mut self, out: &mut Outcome);

    /// Work that belongs neither to set-up nor to the timed phase (the
    /// oracle a serve workload is checked against).
    fn prepare(&mut self, _out: &mut Outcome) {}

    /// One timed repeat.  Returns `false` when the repeat errored (it has
    /// then already been counted as failed).
    fn repeat(&mut self, out: &mut Outcome) -> bool;
}

/// Linux reports process times in ticks of 1/100 s on every mainstream
/// architecture (`USER_HZ`).
const TICKS_PER_SECOND: f64 = 100.0;

/// CPU seconds this process has used so far — `(user, system)`, all
/// threads, ended ones included; zeros without procfs.  Coarse (10 ms
/// ticks): only the user/system split is taken from here.
pub fn cpu_seconds() -> (f64, f64) {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return (0.0, 0.0);
    };
    // The command name may hold spaces; fields are counted after it.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return (0.0, 0.0);
    };
    // State is field 3; utime and stime are fields 14 and 15.
    let mut ticks = rest
        .split_whitespace()
        .skip(11)
        .map(|f| f.parse::<f64>().unwrap_or(0.0) / TICKS_PER_SECOND);
    (ticks.next().unwrap_or(0.0), ticks.next().unwrap_or(0.0))
}

/// One stretch of the run — a set-up or a repeat — with the clocks read
/// at both ends.
#[derive(Clone, Copy, Debug)]
struct Phase {
    from: Instant,
    to: Instant,
    /// Process CPU seconds inside, the probe's own included.
    cpu_s: f64,
}

/// A phase that has started.
struct Mark {
    from: Instant,
    cpu_ns: u64,
}

impl Mark {
    fn now() -> Mark {
        Mark {
            from: Instant::now(),
            cpu_ns: sys::process_cpu_ns(),
        }
    }

    /// The phase that began with the process.
    fn birth(born: Instant) -> Mark {
        Mark {
            from: born,
            cpu_ns: 0,
        }
    }

    fn close(self) -> Phase {
        Phase {
            from: self.from,
            to: Instant::now(),
            cpu_s: (sys::process_cpu_ns() - self.cpu_ns) as f64 / 1e9,
        }
    }
}

impl Phase {
    fn wall_s(&self) -> f64 {
        self.to.duration_since(self.from).as_secs_f64()
    }

    /// `(workload CPU seconds, reference seconds)`: the probe's own CPU
    /// taken out, then divided by the host factor over this very stretch
    /// — or over `whole` when the stretch is shorter than the probe's
    /// period (`--check` sizes), or by 1 when the probe saw nothing.
    fn seconds(&self, readings: &Readings, whole: Option<probe::Window>) -> (f64, f64) {
        let window = readings.window(self.from, self.to);
        let probe_cpu = window.map_or(0.0, |w| w.probe_cpu_s);
        let factor = window.or(whole).map_or(1.0, |w| w.host_factor());
        // Never less than a microsecond, so a rate stays finite.
        let cpu = (self.cpu_s - probe_cpu).max(1e-6);
        (cpu, cpu / factor)
    }
}

/// Drive `cell` through the untraced protocol and report the
/// end-to-end figures.  The cell's set-up leaves the number of input
/// events one repeat processes in [`Outcome::activity_events`]; `born`
/// is when the process started; `cpus` are the CPUs the process is
/// confined to, each of which gets a probe thread.
pub fn run_untraced(
    cell: &mut impl Cell,
    dbs: usize,
    budget: Budget,
    born: Instant,
    cpus: &[usize],
) -> Outcome {
    let mut out = Outcome::default();
    let probe = Probe::start(cpus);
    let probe_bytes = probe::BYTES_PER_THREAD * cpus.len().max(1) as u64;

    // The first set-up is measured from process start and carries the
    // cold page faults.
    let mut setups = Vec::new();
    for i in 0..budget.setups {
        let mark = if i == 0 {
            Mark::birth(born)
        } else {
            Mark::now()
        };
        cell.set_up(&mut out);
        setups.push(mark.close());
    }
    cell.prepare(&mut out);

    let mut repeats: Vec<Phase> = Vec::new();
    let mut attempts = 0usize;
    let ticks_start = cpu_seconds();
    let started = Instant::now();
    while repeats.len() < spec::MIN_REPEATS || started.elapsed().as_secs_f64() < budget.seconds {
        attempts += 1;
        let mark = Mark::now();
        if cell.repeat(&mut out) {
            repeats.push(mark.close());
        }
        if attempts - repeats.len() >= spec::MIN_REPEATS {
            break; // repeats keep erroring; do not spin for the whole budget
        }
        if attempts == spec::MIN_REPEATS {
            // Always after the same number of runs, so the allocator has
            // the same history whatever the host's speed today.
            out.put_one(
                "peak_rss_bytes_per_db",
                crate::outcome::peak_rss_bytes().saturating_sub(probe_bytes) as f64 / dbs as f64,
            );
        }
    }
    let ticks_end = cpu_seconds();
    let ended = Instant::now();
    let readings = probe.finish();
    let whole = readings.window(born, ended);

    let (setup_cpu, setup_ref): (Vec<f64>, Vec<f64>) =
        setups.iter().map(|p| p.seconds(&readings, whole)).unzip();
    let setup_walls: Vec<f64> = setups.iter().map(Phase::wall_s).collect();
    out.put("setup_s", Stat::of(&setup_ref));
    out.put("setup_cpu_s", Stat::of(&setup_cpu));
    out.put("setup_wall_s", Stat::of(&setup_walls));

    if !repeats.is_empty() {
        let events = out.activity_events as f64;
        let (cpu, reference): (Vec<f64>, Vec<f64>) =
            repeats.iter().map(|p| p.seconds(&readings, whole)).unzip();
        let per = |seconds: &[f64]| -> Vec<f64> { seconds.iter().map(|s| events / s).collect() };
        out.put("activity_events_per_ref_s", Stat::of(&per(&reference)));
        out.put("activity_events_per_cpu_s", Stat::of(&per(&cpu)));
        out.put_one("ledger.ref_spread_frac", Stat::of(&reference).spread());

        let timed = readings.window(started, ended);
        let probe_cpu = timed.map_or(0.0, |w| w.probe_cpu_s);
        let process_cpu: f64 = repeats.iter().map(|p| p.cpu_s).sum();
        let wall: f64 = repeats.iter().map(Phase::wall_s).sum();
        out.put_one(
            "ledger.host_factor",
            timed.or(whole).map_or(1.0, |w| w.host_factor()),
        );
        out.put_one("ledger.probe_slices", timed.map_or(0, |w| w.slices) as f64);
        out.put_one("ledger.probe_cpu_frac", probe_cpu / process_cpu.max(1e-6));
        out.put_one("ledger.cpu_per_wall", process_cpu / wall.max(1e-6));
        // The probe runs in user mode; what is left is the workload's.
        let user = ticks_end.0 - ticks_start.0 - probe_cpu;
        let system = ticks_end.1 - ticks_start.1;
        if user + system > 0.0 {
            out.put_one(
                "ledger.cpu_user_frac",
                (user / (user + system)).clamp(0.0, 1.0),
            );
        }
    }
    if readings.len() == 0 {
        out.notes.push(
            "the host-speed probe took no sample: reference seconds are plain CPU seconds".into(),
        );
    }
    out.put_one(
        "failed_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );
    out.put_one("ledger.repeats", repeats.len() as f64);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_tick_clock_never_runs_backwards() {
        let before = cpu_seconds();
        let t0 = sys::thread_cpu_ns();
        let mut x = 1u64;
        while sys::thread_cpu_ns() - t0 < 40_000_000 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        let after = cpu_seconds();
        assert!(after.0 >= before.0 && after.1 >= before.1);
        if std::path::Path::new("/proc/self/stat").exists() {
            // 40 ms of spinning is at least two 10 ms ticks.
            assert!(after.0 + after.1 - before.0 - before.1 >= 0.02);
        }
    }

    struct Flaky {
        calls: usize,
    }

    impl Cell for Flaky {
        fn set_up(&mut self, out: &mut Outcome) {
            out.activity_events = 100;
        }
        fn repeat(&mut self, out: &mut Outcome) -> bool {
            self.calls += 1;
            out.attempted += 1;
            // Long enough for the probe to sample inside.
            let t0 = sys::thread_cpu_ns();
            let mut x = 1u64;
            while sys::thread_cpu_ns() - t0 < 5_000_000 {
                x = std::hint::black_box(x.wrapping_mul(3).wrapping_add(1));
            }
            if self.calls % 2 == 0 {
                out.fail("every other repeat breaks".into());
            }
            self.calls % 2 == 1
        }
    }

    #[test]
    fn failed_repeats_are_counted_and_do_not_spin_forever() {
        let budget = Budget {
            setups: 2,
            seconds: 0.0,
            pairs: 1,
            check: true,
        };
        let mut cell = Flaky { calls: 0 };
        let out = run_untraced(&mut cell, 10, budget, Instant::now(), &[]);
        // Three good repeats need five attempts; two of them failed.
        assert_eq!((cell.calls, out.attempted, out.failed), (5, 5, 2));
        assert_eq!(out.value("failed_frac"), Some(0.4));
        assert_eq!(out.value("ledger.repeats"), Some(3.0));
        assert!(out.value("setup_s").unwrap() > 0.0);
        assert!(out.value("peak_rss_bytes_per_db").is_some());
        assert!(!out.correct());
        // 100 events in at least 5 ms of CPU: at most 20 000 a CPU second,
        // and the reference rate is that times the host factor.
        let cpu_rate = out.value("activity_events_per_cpu_s").unwrap();
        assert!(cpu_rate > 0.0 && cpu_rate <= 20_000.0, "{cpu_rate}");
        let factor = out.value("ledger.host_factor").unwrap();
        let ref_rate = out.value("activity_events_per_ref_s").unwrap();
        assert!(factor > 0.05 && factor < 20.0, "{factor}");
        assert!(ref_rate > cpu_rate * 0.05 && ref_rate < cpu_rate * 20.0);
    }

    #[test]
    fn a_phase_without_samples_borrows_the_whole_runs_factor() {
        let t = Instant::now();
        let phase = Phase {
            from: t,
            to: t,
            cpu_s: 2.0,
        };
        let whole = probe::Window {
            slices: 10,
            core: 2.0,
            mem: 2.0,
            probe_cpu_s: 0.5,
        };
        let none = Readings::default();
        let (cpu, reference) = phase.seconds(&none, Some(whole));
        assert_eq!((cpu, reference), (2.0, 2.0 / whole.host_factor()));
        assert!(whole.host_factor() > 2.0, "both kernels at half speed");
        assert_eq!(phase.seconds(&none, None), (2.0, 2.0));
    }
}
