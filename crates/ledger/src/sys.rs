//! The crate's foreign calls: CPU affinity and the CPU-time clocks.
//!
//! **Affinity.**  The serve workloads are a ping-pong between the client
//! thread and the server's accept, connection and driver threads.  On the
//! two-vCPU VM this benchmark was sized on, a wake-up that crosses vCPUs
//! costs 60-80 µs against ~20 µs on one vCPU, the scheduler moves between
//! the two placements a second or two into a process, and when the
//! hypervisor is stealing time the waiting side spins: the same replay
//! was measured at 0.6 s, 1.6 s and 13 s.  With every thread on one CPU
//! none of that happens.  Every workload is also confined to as many CPUs
//! as it has busy threads so that the host-speed probe (see `probe`) can
//! sit on exactly the CPUs the workload runs on.
//!
//! **Clocks.**  `/proc/self/stat` counts CPU time in 10 ms ticks; the
//! probe times slices of ~0.1 ms, so it reads the POSIX CPU-time clocks.
//!
//! The standard library has neither call, so these are the crate's
//! foreign calls; everything else stays `unsafe`-free.

/// glibc's `cpu_set_t`: 1024 bits.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod ffi {
    use super::CpuSet;

    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
    }

    pub fn get_affinity() -> Option<CpuSet> {
        let mut set: CpuSet = [0; 16];
        // SAFETY: `set` is a live, writable buffer of exactly the size
        // passed, which is all `sched_getaffinity` requires; pid 0 names
        // the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&set), set.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }

    pub fn set_affinity(set: &CpuSet) -> bool {
        // SAFETY: `set` is a live buffer of the size passed that the call
        // only reads; pid 0 names the calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(set), set.as_ptr()) == 0 }
    }

    pub fn clock_ns(clock: i32) -> u64 {
        let mut ts = Timespec { sec: 0, nsec: 0 };
        // SAFETY: `ts` is a live, writable `timespec` (two 64-bit fields
        // on every 64-bit Linux), which is all the call requires.
        if unsafe { clock_gettime(clock, &mut ts) } != 0 {
            return 0;
        }
        ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
    }
}

#[cfg(not(target_os = "linux"))]
mod ffi {
    use super::CpuSet;

    pub fn get_affinity() -> Option<CpuSet> {
        None
    }
    pub fn set_affinity(_: &CpuSet) -> bool {
        false
    }
    pub fn clock_ns(_: i32) -> u64 {
        0
    }
}

fn only(cpus: &[usize]) -> CpuSet {
    let mut set: CpuSet = [0; 16];
    for &cpu in cpus {
        set[cpu / 64] |= 1 << (cpu % 64);
    }
    set
}

/// Restrict this thread — and every thread it starts from now on — to
/// the `n` highest-numbered CPUs it is currently allowed on (CPU 0 tends
/// to take the interrupts), fewer if fewer are allowed.  Returns those
/// CPUs, highest first; empty where pinning is unavailable or refused —
/// the caller then runs unpinned and says so.
pub fn confine_to(n: usize) -> Vec<usize> {
    let Some(allowed) = ffi::get_affinity() else {
        return Vec::new();
    };
    let cpus: Vec<usize> = (0..allowed.len() * 64)
        .rev()
        .filter(|cpu| allowed[cpu / 64] >> (cpu % 64) & 1 == 1)
        .take(n)
        .collect();
    if cpus.is_empty() || !ffi::set_affinity(&only(&cpus)) {
        return Vec::new();
    }
    cpus
}

/// Restrict the calling thread to one CPU; `false` if refused.
pub fn pin_thread_to(cpu: usize) -> bool {
    ffi::set_affinity(&only(&[cpu]))
}

/// CPU nanoseconds (user + system) of the whole process, every thread
/// that has ended included; 0 where the clock is unavailable.
pub fn process_cpu_ns() -> u64 {
    ffi::clock_ns(2) // CLOCK_PROCESS_CPUTIME_ID
}

/// CPU nanoseconds of the calling thread.
pub fn thread_cpu_ns() -> u64 {
    ffi::clock_ns(3) // CLOCK_THREAD_CPUTIME_ID
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn confinement_sticks_and_is_inherited() {
        // On a fresh thread, so the test harness's own threads stay free.
        std::thread::spawn(|| {
            let cpus = confine_to(1);
            let [cpu] = cpus[..] else {
                return; // refused (restricted sandbox): nothing to check
            };
            // Confining again finds exactly that one CPU allowed, however
            // many are asked for.
            assert_eq!(confine_to(2), [cpu]);
            let inherited = std::thread::spawn(|| confine_to(1)).join().unwrap();
            assert_eq!(inherited, [cpu]);
            assert!(pin_thread_to(cpu));
        })
        .join()
        .unwrap();
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (p0, t0) = (process_cpu_ns(), thread_cpu_ns());
        assert!(p0 > 0 && t0 > 0, "the CPU-time clocks are there on Linux");
        // Spin until the thread has *used* 20 ms, however much of the
        // wall clock the host gives to someone else meanwhile.
        let mut x = 1u64;
        while thread_cpu_ns() - t0 < 20_000_000 {
            x = std::hint::black_box(x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1));
        }
        // The process clock counts this thread's time too.
        assert!(process_cpu_ns() - p0 >= 19_000_000);
    }
}
