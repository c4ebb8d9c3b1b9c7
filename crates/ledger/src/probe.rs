//! The host-speed probe: how fast *this* CPU is *right now*.
//!
//! The sizing host is a small VM on a shared machine, and the speed of
//! one of its CPUs is not a constant.  A fixed 0.6 ms integer loop,
//! timed in CPU time (so stolen time is already out), took anything from
//! 0.55 to 1.23 ms, flipping between its fast and slow state every few
//! milliseconds to every few seconds — a neighbour coming and going on
//! the other hardware thread of the core — with the share of time spent
//! slow drifting between about 0 and 0.9 over minutes.  CPU seconds of an
//! unchanged `des_proactive` moved by 1.75x with it, and ten runs of one
//! commit spread (interquartile range over median) by 0.05-0.20 of their
//! CPU-second throughput on a calm hour and 0.27-0.35 on a busy one.  No
//! statistic over the repeats of one run removes that: a whole run can
//! sit in either state.
//!
//! What removes it is measuring the state while the workload runs.  A
//! probe thread, pinned to the very CPU the workload is confined to,
//! wakes every ~2 ms, runs two fixed kernels of ~0.1 ms each — one
//! core-bound, one cache-missing — times each on its own thread's CPU
//! clock, and goes back to sleep.  The scheduler interleaves it with the
//! workload, so its samples are spread evenly over exactly the time the
//! workload was on the CPU.  From the samples inside a phase the ledger
//! takes the *host factor*: how many times slower than the reference
//! host the kernels ran, averaged the way a program's run time averages
//! (harmonic mean of slice times — time-averaged speed).  CPU seconds
//! divided by the host factor are *reference seconds*, and the bounded
//! figures are stated in those: ten runs of one commit then spread by
//! 0.01-0.06.  (Timing a reference kernel between repeats, instead of
//! during them, only got to 0.04-0.09: with flips every few milliseconds
//! a dozen samples a run say too little about the share of time spent
//! slow.)
//!
//! The probe costs about a tenth of the CPU and its own CPU time is
//! subtracted from the process's; it disturbs the caches a little, the
//! same way in every run.  Wall-clock figures of a child that carries a
//! probe are inflated by its share, so wall-clock throughput and the
//! latency percentiles come from the traced child, which carries none.

use crate::sys;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Words of the core kernel's buffer: 16 KiB, resident in L1.
const CORE_WORDS: usize = 2_048;
/// Passes of the core kernel over its buffer per slice.
const CORE_PASSES: usize = 30;
/// Words of the memory kernel's sorted array: 8 MiB, larger than L2.
const MEM_WORDS: usize = 1 << 20;
/// Binary searches per slice of the memory kernel.
const MEM_SEARCHES: usize = 300;
/// Sleep between two samples.
const PAUSE: Duration = Duration::from_micros(1_500);

/// CPU nanoseconds one core slice takes on the reference host: the
/// sizing host (Xeon @ 2.1 GHz guest) with the core to itself.
pub const CORE_REFERENCE_NS: f64 = 85_000.0;
/// CPU nanoseconds one memory slice takes on the reference host.
pub const MEM_REFERENCE_NS: f64 = 68_000.0;
/// Exponents of the two kernels in the host factor (a geometric mix, so
/// the reference constants only scale the result).  Fitted on the sizing
/// host: log CPU seconds of ~1 900 repeats of the five workloads, taken
/// in three rounds over twenty minutes of a host that moved between 1.0
/// and 1.8, regressed on the log slowness of the two kernels.  The
/// per-workload fits were (core, mem) = (0.76, 0.0) `des_proactive`,
/// (0.31, 1.17) `des_reactive`, (0.61, 0.59) `des_sharded_full`,
/// (0.60, 0.57) `serve_single`, (0.53, 0.95) `serve_bulk`; of the common
/// pairs tried, (0.6, 0.5) left the least spread over all five (worst
/// 0.05, mean 0.03, against 0.20-0.24 uncorrected).  They sum to more
/// than 1: a workload feels a busy neighbour a little more than either
/// kernel does (it shares L1, L2 and the TLBs with it too).  A third,
/// DRAM-latency kernel (a dependent chain through 64 MiB) was tried and
/// earned a weight of zero.
pub const CORE_WEIGHT: f64 = 0.6;
/// See [`CORE_WEIGHT`].
pub const MEM_WEIGHT: f64 = 0.5;

/// Bytes one probe thread keeps resident.
pub const BYTES_PER_THREAD: u64 = ((CORE_WORDS + MEM_WORDS) * 8) as u64;

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Core-bound: hash every word of an L1-resident buffer in place, with a
/// data-dependent branch — independent chains, so it fills the execution
/// ports and feels a busy sibling thread in full.
fn core_kernel(buf: &mut [u64]) -> u64 {
    let mut acc = 0u64;
    for pass in 0..CORE_PASSES {
        for (i, word) in buf.iter_mut().enumerate() {
            let mut s = *word ^ pass as u64;
            let h = splitmix(&mut s);
            if h & 3 == 0 {
                acc = acc.wrapping_add(h);
            } else {
                acc ^= h.rotate_left((i & 31) as u32);
            }
            *word = h;
        }
    }
    black_box(acc)
}

/// Cache-missing and branchy: binary searches for random keys in a
/// sorted array that does not fit L2 — the shape of a B+Tree descent.
fn mem_kernel(sorted: &[u64], state: &mut u64) -> usize {
    let top = sorted[sorted.len() - 1];
    let mut hits = 0usize;
    for _ in 0..MEM_SEARCHES {
        let key = splitmix(state) % top;
        hits += sorted.partition_point(|&v| v < key) & 1;
    }
    black_box(hits)
}

/// One sample: both kernels once.
#[derive(Clone, Copy, Debug)]
pub struct Slice {
    /// When the sample ended.
    pub at: Instant,
    /// CPU nanoseconds of the core kernel.
    pub core_ns: u64,
    /// CPU nanoseconds of the memory kernel.
    pub mem_ns: u64,
    /// The probe thread's CPU clock when the sample ended: everything
    /// the thread has cost so far, bookkeeping and wake-ups included.
    pub thread_cpu_ns: u64,
}

fn sample_until(stop: &AtomicBool, cpu: Option<usize>) -> Vec<Slice> {
    if let Some(cpu) = cpu {
        sys::pin_thread_to(cpu);
    }
    let mut buf = vec![0u64; CORE_WORDS];
    let mut state = 0x5EED_u64;
    // Sorted by construction: running sum of random gaps below 2^43.
    let mut last = 0u64;
    let sorted: Vec<u64> = (0..MEM_WORDS)
        .map(|_| {
            last += 1 + (splitmix(&mut state) >> 21);
            last
        })
        .collect();
    let mut slices = Vec::new();
    while !stop.load(Ordering::Relaxed) {
        let c0 = sys::thread_cpu_ns();
        core_kernel(&mut buf);
        let c1 = sys::thread_cpu_ns();
        mem_kernel(&sorted, &mut state);
        let c2 = sys::thread_cpu_ns();
        slices.push(Slice {
            at: Instant::now(),
            core_ns: (c1 - c0).max(1),
            mem_ns: (c2 - c1).max(1),
            thread_cpu_ns: c2,
        });
        std::thread::sleep(PAUSE);
    }
    slices
}

/// The running probe: one sampling thread per CPU it was started on.
pub struct Probe {
    stop: Arc<AtomicBool>,
    threads: Vec<JoinHandle<Vec<Slice>>>,
}

impl Probe {
    /// Start sampling on each of `cpus` (the CPUs the workload is
    /// confined to); with none — pinning was refused — one thread that
    /// floats with the workload.
    pub fn start(cpus: &[usize]) -> Probe {
        let stop = Arc::new(AtomicBool::new(false));
        let places: Vec<Option<usize>> = if cpus.is_empty() {
            vec![None]
        } else {
            cpus.iter().copied().map(Some).collect()
        };
        let threads = places
            .into_iter()
            .map(|cpu| {
                let stop = Arc::clone(&stop);
                std::thread::spawn(move || sample_until(&stop, cpu))
            })
            .collect();
        Probe { stop, threads }
    }

    /// Stop sampling, wait for the threads, and hand over what they saw.
    pub fn finish(self) -> Readings {
        self.stop.store(true, Ordering::Relaxed);
        Readings {
            tracks: self
                .threads
                .into_iter()
                // A probe that died leaves an empty track; the caller
                // then says that it measured in plain CPU seconds.
                .map(|t| t.join().unwrap_or_default())
                .collect(),
        }
    }
}

/// Everything the probe sampled, one track per thread, in time order.
#[derive(Default)]
pub struct Readings {
    tracks: Vec<Vec<Slice>>,
}

/// What the probe says about one stretch of time.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Window {
    /// Samples inside the stretch.
    pub slices: usize,
    /// Core kernel: time-averaged slowness against the reference host.
    pub core: f64,
    /// Memory kernel: the same.
    pub mem: f64,
    /// CPU seconds the probe threads themselves used inside the stretch.
    pub probe_cpu_s: f64,
}

impl Window {
    /// How many times slower than the reference host this stretch ran:
    /// divide CPU seconds by it to get reference seconds.
    pub fn host_factor(&self) -> f64 {
        self.core.powf(CORE_WEIGHT) * self.mem.powf(MEM_WEIGHT)
    }
}

/// Harmonic mean of slice times over the reference time: the reciprocal
/// of the time-averaged speed, which is what stretches a program's run.
fn slowness(times_ns: impl Iterator<Item = u64>, reference_ns: f64) -> f64 {
    let (n, inv) = times_ns.fold((0usize, 0.0), |(n, inv), t| (n + 1, inv + 1.0 / t as f64));
    n as f64 / inv / reference_ns
}

impl Readings {
    /// Total number of samples.
    pub fn len(&self) -> usize {
        self.tracks.iter().map(Vec::len).sum()
    }

    /// The samples that ended in `[from, to)`; `None` when there are
    /// none (a stretch shorter than the probe's period).
    pub fn window(&self, from: Instant, to: Instant) -> Option<Window> {
        let mut inside: Vec<&Slice> = Vec::new();
        let mut probe_cpu_ns = 0u64;
        for track in &self.tracks {
            // A thread's CPU clock starts at 0 with the thread.
            let before = track.partition_point(|s| s.at < from);
            let upto = track.partition_point(|s| s.at < to);
            inside.extend(&track[before..upto]);
            let clock = |end: usize| end.checked_sub(1).map_or(0, |i| track[i].thread_cpu_ns);
            probe_cpu_ns += clock(upto) - clock(before);
        }
        if inside.is_empty() {
            return None;
        }
        Some(Window {
            slices: inside.len(),
            core: slowness(inside.iter().map(|s| s.core_ns), CORE_REFERENCE_NS),
            mem: slowness(inside.iter().map(|s| s.mem_ns), MEM_REFERENCE_NS),
            probe_cpu_s: probe_cpu_ns as f64 / 1e9,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slice(origin: Instant, at_ms: u64, core_ns: u64, mem_ns: u64, clock: u64) -> Slice {
        Slice {
            at: origin + Duration::from_millis(at_ms),
            core_ns,
            mem_ns,
            thread_cpu_ns: clock,
        }
    }

    #[test]
    fn a_window_averages_speed_not_time_and_charges_the_probe_its_own_cpu() {
        let t = Instant::now();
        let at = |ms| t + Duration::from_millis(ms);
        let (c, m) = (CORE_REFERENCE_NS as u64, MEM_REFERENCE_NS as u64);
        let readings = Readings {
            tracks: vec![
                vec![
                    slice(t, 1, c, m, 200_000),
                    slice(t, 3, c, m, 400_000),
                    slice(t, 5, 2 * c, m, 700_000),
                    slice(t, 7, c, m, 900_000),
                ],
                vec![slice(t, 4, 2 * c, m, 300_000)],
            ],
        };
        assert_eq!(readings.len(), 5);
        // [2 ms, 6 ms): two samples of the first track, one of the second.
        let w = readings.window(at(2), at(6)).unwrap();
        assert_eq!(w.slices, 3);
        // Half speed for two samples of three: mean speed 2/3, slowness 1.5
        // (the arithmetic mean of the times would say 1.67).
        assert!((w.core - 1.5).abs() < 1e-9, "{}", w.core);
        assert!((w.mem - 1.0).abs() < 1e-9);
        assert!((w.host_factor() - 1.5f64.powf(CORE_WEIGHT)).abs() < 1e-9);
        // First track: 700 µs - 200 µs; second: all of its 300 µs.
        assert!((w.probe_cpu_s - 800e-6).abs() < 1e-12);
        // An undisturbed reference host reads exactly 1.
        let calm = readings.window(at(0), at(4)).unwrap();
        assert_eq!((calm.slices, calm.host_factor()), (2, 1.0));
        // A stretch between two samples has nothing to say.
        assert_eq!(readings.window(at(8), at(9)), None);
    }

    #[test]
    fn a_live_probe_samples_while_the_caller_works_and_stops_when_told() {
        let from = Instant::now();
        let probe = Probe::start(&[]);
        // Long enough for an unoptimised build to fill the probe's tables
        // while the other tests keep both CPUs busy.
        let t0 = sys::thread_cpu_ns();
        let mut x = 1u64;
        while sys::thread_cpu_ns() - t0 < 300_000_000 && from.elapsed() < Duration::from_secs(20) {
            x = black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        let readings = probe.finish();
        let w = readings
            .window(from, Instant::now())
            .expect("samples in 0.3 s of work");
        assert_eq!(w.slices, readings.len());
        // Any host this runs on is within 20x of the reference one.
        assert!(w.host_factor() > 0.05 && w.host_factor() < 20.0, "{w:?}");
        assert!(w.probe_cpu_s > 0.0);
    }
}
