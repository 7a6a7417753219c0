//! The benchmark's own span recorder for the traced pass.
//!
//! Spans are recorded from the benchmark's files, around the calls it
//! makes into each layer (`bb-core` create/append/close/open/read_at/
//! wait_flushed, `rkv` get/set, `mapred` `MrEngine::run`, the fault
//! plan); spans *inside* the program are the program's own `optrace` and
//! `Tracer`. Each span carries two clocks: virtual start/end (the
//! modelled cluster) and host thread-CPU start/end (the simulator). The
//! host interval of a span that awaits includes whatever other simulated
//! tasks the executor ran meanwhile — self time is meaningful on the
//! virtual clock, attribution of host time is per phase, not per span.
//!
//! Spans live in memory and are written once, at exit. The recorder is
//! off in the untraced pass: `begin` is then one branch and returns the
//! null id.

use std::cell::RefCell;
use std::fmt::Write as _;

use simkit::Sim;

use crate::host;

/// Bound on recorded spans (the open-loop workload issues ~10^5 calls
/// per cell); past it spans are counted as dropped.
const MAX_SPANS: usize = 200_000;

/// Handle of a recorded span; `SpanId::NONE` when the recorder is off,
/// the buffer is full, or a span has no parent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

impl SpanId {
    /// "No span".
    pub const NONE: SpanId = SpanId(0);
}

struct Rec {
    name: &'static str,
    /// Index + 1 of the causing span, 0 for a root.
    parent: u32,
    /// Request identifier shared by every span of one request.
    op: u64,
    v0: u64,
    v1: u64,
    h0: u64,
    h1: u64,
}

#[derive(Default)]
struct Inner {
    recs: Vec<Rec>,
    dropped: u64,
}

/// In-memory span buffer. Cheap to clone-share through `Rc`.
pub struct Spans {
    inner: Option<RefCell<Inner>>,
}

impl Spans {
    /// A recorder that records (the traced pass) or one that records
    /// nothing (the untraced pass).
    pub fn new(recording: bool) -> Spans {
        Spans {
            inner: recording.then(|| RefCell::new(Inner::default())),
        }
    }

    /// Open a span named `name`, caused by `parent`, belonging to request
    /// `op`.
    pub fn begin(&self, sim: &Sim, name: &'static str, parent: SpanId, op: u64) -> SpanId {
        let Some(inner) = &self.inner else {
            return SpanId::NONE;
        };
        let mut inner = inner.borrow_mut();
        if inner.recs.len() >= MAX_SPANS {
            inner.dropped += 1;
            return SpanId::NONE;
        }
        let v0 = sim.now().as_nanos();
        let h0 = host::thread_cpu_ns();
        inner.recs.push(Rec {
            name,
            parent: parent.0,
            op,
            v0,
            v1: v0,
            h0,
            h1: h0,
        });
        SpanId(inner.recs.len() as u32)
    }

    /// Close a span opened by [`Spans::begin`].
    pub fn end(&self, sim: &Sim, id: SpanId) {
        let (Some(inner), true) = (&self.inner, id != SpanId::NONE) else {
            return;
        };
        let mut inner = inner.borrow_mut();
        let rec = &mut inner.recs[id.0 as usize - 1];
        rec.v1 = sim.now().as_nanos();
        rec.h1 = host::thread_cpu_ns();
    }

    /// Number of spans recorded and dropped.
    pub fn counts(&self) -> (usize, u64) {
        match &self.inner {
            Some(i) => {
                let i = i.borrow();
                (i.recs.len(), i.dropped)
            }
            None => (0, 0),
        }
    }

    /// Serialise the buffer: a header, a per-name summary (count, total
    /// virtual ns, total host ns) and the span rows
    /// `[name, id, parent, op, virt_start_ns, virt_end_ns, host_start_ns, host_end_ns]`.
    pub fn to_json(&self, workload: &str, seed: u64, extra: &[(&str, String)]) -> String {
        let empty = RefCell::new(Inner::default());
        let inner = self.inner.as_ref().unwrap_or(&empty).borrow();
        let mut names: Vec<&'static str> = Vec::new();
        let mut summary: Vec<(u64, u64, u64)> = Vec::new();
        let mut rows = String::new();
        for (i, r) in inner.recs.iter().enumerate() {
            let n = match names.iter().position(|&n| n == r.name) {
                Some(n) => n,
                None => {
                    names.push(r.name);
                    summary.push((0, 0, 0));
                    names.len() - 1
                }
            };
            summary[n].0 += 1;
            summary[n].1 += r.v1 - r.v0;
            summary[n].2 += r.h1 - r.h0;
            let _ = write!(
                rows,
                "{}[{},{},{},{},{},{},{},{}]",
                if i == 0 { "\n" } else { ",\n" },
                n,
                i + 1,
                r.parent,
                r.op,
                r.v0,
                r.v1,
                r.h0,
                r.h1
            );
        }
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"schema\":\"rdma-bb.benchmark.spans.v1\",\"workload\":\"{workload}\",\"seed\":{seed},\
             \"spans_recorded\":{},\"spans_dropped\":{}",
            inner.recs.len(),
            inner.dropped
        );
        for (k, v) in extra {
            let _ = write!(out, ",\"{k}\":{v}");
        }
        out.push_str(",\n\"names\":[");
        for (i, n) in names.iter().enumerate() {
            let _ = write!(out, "{}\"{n}\"", if i == 0 { "" } else { "," });
        }
        out.push_str("],\n\"summary\":{");
        for (i, (n, s)) in names.iter().zip(&summary).enumerate() {
            let _ = write!(
                out,
                "{}\"{n}\":{{\"count\":{},\"virt_ns\":{},\"host_ns\":{}}}",
                if i == 0 { "" } else { "," },
                s.0,
                s.1,
                s.2
            );
        }
        out.push_str(
            "},\n\"columns\":[\"name\",\"id\",\"parent\",\"op\",\"virt_start_ns\",\"virt_end_ns\",\
             \"host_start_ns\",\"host_end_ns\"],\n\"spans\":[",
        );
        out.push_str(&rows);
        out.push_str("\n]}\n");
        out
    }
}
