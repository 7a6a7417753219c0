//! A `SIGPROF` stack sampler for one single-threaded Linux x86-64 process,
//! with no dependencies: `setitimer(ITIMER_PROF)` interrupts the process on
//! its own CPU time, and the handler walks the frame-pointer chain.
//!
//! Use it on a throwaway copy of a binary (the yardstick, an example),
//! never in committed code:
//!
//! ```text
//! cp tools/profile/sigprof.rs <copy>/benchmark/src/sigprof.rs
//! // main.rs, at the top:           mod sigprof;
//! // main.rs, first line of main:   let _prof = sigprof::start("prof.samples");
//! RUSTFLAGS="-C force-frame-pointers=yes" CARGO_PROFILE_RELEASE_DEBUG=2 \
//!     cargo build --release --offline --manifest-path <copy>/benchmark/Cargo.toml
//! python3 tools/profile/tally.py <binary> prof.samples --repo <copy>
//! ```
//!
//! The guard `start` returns stops the timer when it drops (the end of
//! `main`) and writes the samples: one line per sample, hex addresses —
//! the interrupted `rip`, the word at `rsp` (the return address when the
//! interrupted function is a frameless leaf such as libc `memcpy`), then
//! each return address up the `rbp` chain — after the binary's path
//! (`exe <path>`) and the process's file mappings (`map <lo> <hi> <file
//! offset> <perms> <path>`).
//!
//! The timer asks for 1 ms; the kernel's tick sets the real rate (one
//! sample per 4 ms of CPU at 250 Hz). Samples cover the whole process:
//! setup, every rep and the process's exit path up to the guard's drop.

use std::ffi::c_void;
use std::fs;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

const SIGPROF: i32 = 27;
const ITIMER_PROF: i32 = 2;
const SA_SIGINFO: i32 = 4;
const SA_RESTART: i32 = 0x1000_0000;
/// Words kept per sample: a count, `rip`, `*rsp` and up to 61 frames.
const WORDS: usize = 64;
/// Samples kept at most (≈ 80 s of CPU at the 4 ms tick; 8 MiB of `.bss`).
const SAMPLES: usize = 16_384;

/// glibc's x86-64 `struct sigaction`.
#[repr(C)]
struct SigAction {
    handler: usize,
    mask: [u64; 16],
    flags: i32,
    restorer: usize,
}

#[repr(C)]
#[derive(Clone, Copy)]
struct TimeVal {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct ITimerVal {
    interval: TimeVal,
    value: TimeVal,
}

extern "C" {
    fn sigaction(sig: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    fn setitimer(which: i32, new: *const ITimerVal, old: *mut ITimerVal) -> i32;
}

static mut BUF: [[u64; WORDS]; SAMPLES] = [[0; WORDS]; SAMPLES];
static TAKEN: AtomicUsize = AtomicUsize::new(0);
/// The top of the main thread's stack: a frame lies between `rsp` and it.
static STACK_HI: AtomicUsize = AtomicUsize::new(0);

/// Stops the timer and writes the samples when dropped.
pub struct Profile {
    out: String,
}

/// Start sampling; the samples go to `out` when the guard drops.
pub fn start(out: &str) -> Profile {
    let maps = fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
    let stack = maps
        .lines()
        .find(|l| l.ends_with("[stack]"))
        .expect("a [stack] mapping");
    STACK_HI.store(range(stack).1, Relaxed);
    let act = SigAction {
        handler: on_sigprof as *const () as usize,
        mask: [0; 16],
        flags: SA_SIGINFO | SA_RESTART,
        restorer: 0,
    };
    let tick = TimeVal { sec: 0, usec: 1000 };
    let timer = ITimerVal {
        interval: tick,
        value: tick,
    };
    // SAFETY: `act` and `timer` are valid for the calls; the handler only
    // reads the interrupted context and writes slots no one else touches.
    unsafe {
        assert_eq!(sigaction(SIGPROF, &act, std::ptr::null_mut()), 0);
        assert_eq!(setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()), 0);
    }
    Profile { out: out.into() }
}

fn range(line: &str) -> (usize, usize) {
    let span = line.split_whitespace().next().expect("a range");
    let (lo, hi) = span.split_once('-').expect("lo-hi");
    (
        usize::from_str_radix(lo, 16).expect("hex"),
        usize::from_str_radix(hi, 16).expect("hex"),
    )
}

extern "C" fn on_sigprof(_sig: i32, _info: *mut c_void, ctx: *mut c_void) {
    let at = TAKEN.fetch_add(1, Relaxed);
    if at >= SAMPLES {
        return;
    }
    // SAFETY: `ctx` is the kernel's `ucontext_t`, whose `gregs` begin at
    // byte 40 (REG_RBP 10, REG_RSP 15, REG_RIP 16); every stack word read
    // lies between the interrupted `rsp` and the stack's top, which is
    // mapped; `BUF[at]` belongs to this sample alone (SIGPROF is blocked
    // while its handler runs).
    unsafe {
        let gregs = (ctx as *const u8).add(40) as *const u64;
        let (mut rbp, rsp, rip) = (
            *gregs.add(10) as usize,
            *gregs.add(15) as usize,
            *gregs.add(16),
        );
        let hi = STACK_HI.load(Relaxed);
        let in_stack = |p: usize| p >= rsp && p + 16 <= hi && p % 8 == 0;
        let slot = &mut *std::ptr::addr_of_mut!(BUF[at]);
        slot[1] = rip;
        slot[2] = if in_stack(rsp) { *(rsp as *const u64) } else { 0 };
        let mut n = 3;
        while n < WORDS && in_stack(rbp) {
            slot[n] = *((rbp + 8) as *const u64);
            n += 1;
            let next = *(rbp as *const usize);
            if next <= rbp {
                break;
            }
            rbp = next;
        }
        slot[0] = n as u64;
    }
}

impl Drop for Profile {
    fn drop(&mut self) {
        let off = ITimerVal {
            interval: TimeVal { sec: 0, usec: 0 },
            value: TimeVal { sec: 0, usec: 0 },
        };
        // SAFETY: as in `start`; a zero value disarms the timer.
        unsafe { setitimer(ITIMER_PROF, &off, std::ptr::null_mut()) };
        let exe = fs::read_link("/proc/self/exe").expect("read /proc/self/exe");
        let exe = exe.to_string_lossy();
        let maps = fs::read_to_string("/proc/self/maps").expect("read /proc/self/maps");
        let mut text = format!("exe {exe}\n");
        for l in maps.lines() {
            let f: Vec<&str> = l.split_whitespace().collect();
            if let Some(path) = f.get(5) {
                let (lo, hi) = range(l);
                text += &format!("map {lo:x} {hi:x} {} {} {path}\n", f[2], f[1]);
            }
        }
        let taken = TAKEN.load(Relaxed).min(SAMPLES);
        // SAFETY: the timer is off, so no handler writes `BUF` any more.
        let buf = unsafe { &*std::ptr::addr_of!(BUF) };
        for s in &buf[..taken] {
            let words = &s[1..s[0] as usize];
            let line: Vec<String> = words.iter().map(|w| format!("{w:x}")).collect();
            text += &line.join(" ");
            text.push('\n');
        }
        fs::write(&self.out, text).expect("write the samples");
        eprintln!("sigprof: {taken} samples to {}", self.out);
    }
}
