//! Host-side clocks and memory counters of the benchmark process.
//!
//! `host_cpu_s` is **user** CPU time: kernel time spent in page-fault
//! handling swings by 2× between identical runs while user time repeats
//! to a few percent, so the kernel-side cost is gated through peak RSS
//! and the minor-fault count instead (both repeat to <1 %). The user/sys
//! split is tick-sampled by the kernel, which makes it useless for
//! millisecond-sized intervals; short phases (`setup_s`, spans, probes)
//! use the precise process/thread CPU clocks (user + sys).

use std::time::Instant;

#[repr(C)]
#[derive(Default, Clone, Copy)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    /// maxrss, ixrss, idrss, isrss, minflt, majflt, nswap, inblock,
    /// oublock, msgsnd, msgrcv, nsignals, nvcsw, nivcsw
    rest: [i64; 14],
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    sec: i64,
    nsec: i64,
}

const RUSAGE_SELF: i32 = 0;
const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

/// One reading of the process's resource usage.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User CPU seconds since process start.
    pub user_s: f64,
    /// System CPU seconds since process start.
    pub sys_s: f64,
    /// Minor page faults since process start.
    pub minflt: u64,
}

/// Read `getrusage(RUSAGE_SELF)`.
pub fn usage() -> Usage {
    let mut ru = Rusage::default();
    // SAFETY: `ru` is a valid, writable `struct rusage` (layout above
    // matches 64-bit Linux) that outlives the call; RUSAGE_SELF is a
    // valid `who`.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    assert_eq!(rc, 0, "getrusage failed");
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 * 1e-6;
    Usage {
        user_s: secs(ru.utime),
        sys_s: secs(ru.stime),
        minflt: ru.rest[4] as u64,
    }
}

fn cpu_clock_ns(clock: i32) -> u64 {
    let mut ts = Timespec::default();
    // SAFETY: `ts` is a valid, writable `struct timespec`; both clock ids
    // used by this module exist on every Linux the benchmark supports.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime failed");
    ts.sec as u64 * 1_000_000_000 + ts.nsec as u64
}

/// Precise CPU time (user + sys) consumed by the process, nanoseconds.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// Precise CPU time (user + sys) consumed by the calling thread,
/// nanoseconds — the span clock (the benchmark is single-threaded).
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// Peak resident set (`VmHWM`) of the process in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// A host-side stopwatch over one phase: user/sys CPU from `getrusage`
/// plus wall clock.
pub struct PhaseClock {
    u0: Usage,
    t0: Instant,
}

/// What a [`PhaseClock`] measured.
#[derive(Debug, Clone, Copy, Default)]
pub struct PhaseCost {
    /// User CPU seconds.
    pub user_s: f64,
    /// System CPU seconds.
    pub sys_s: f64,
    /// Wall-clock seconds.
    pub wall_s: f64,
}

impl PhaseClock {
    /// Start timing.
    pub fn start() -> PhaseClock {
        PhaseClock {
            u0: usage(),
            t0: Instant::now(),
        }
    }

    /// Cost since [`PhaseClock::start`].
    pub fn stop(&self) -> PhaseCost {
        let u1 = usage();
        PhaseCost {
            user_s: u1.user_s - self.u0.user_s,
            sys_s: u1.sys_s - self.u0.sys_s,
            wall_s: self.t0.elapsed().as_secs_f64(),
        }
    }
}
