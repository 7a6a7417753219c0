//! Unified virtual-time telemetry: a per-[`Sim`](crate::Sim) metrics
//! registry and a span tracer with Chrome-trace export.
//!
//! Every component registers its metrics at spawn time under a dotted,
//! instance-labelled name (`rkv.server17.get_ns`, `netsim.link3.tx_bytes`,
//! `bb.read.tier_buffer`, …) and keeps the returned handle; updates are a
//! `Cell` bump, never a map lookup. [`Registry::snapshot`] freezes every
//! metric into a [`Snapshot`] — plain `Send` data that merges across
//! simulations and serialises to *deterministic* JSON (sorted keys, integer
//! values, no wall-clock anywhere), so two same-seed runs emit byte-identical
//! files.
//!
//! The [`Tracer`] records `(name, cat, pid, tid, begin, end)` spans on the
//! virtual clock. It is disabled by default and costs one `Cell` read per
//! span when off; when on, [`Tracer::export_chrome`] emits the Chrome
//! trace-event JSON array (`chrome://tracing` / Perfetto-loadable) with
//! timestamps in virtual microseconds. Recording a span never sleeps and
//! never perturbs virtual time: a traced run and an untraced run of the same
//! program reach the same final clock.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Duration;

use crate::stats::Histogram;
use crate::time::Time;

// ---------------------------------------------------------------------------
// JSON helpers (no serde in the offline build: the format is hand-rolled,
// which also pins byte-exact determinism)
// ---------------------------------------------------------------------------

/// Escape `s` for inclusion in a JSON string literal.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Metric handles
// ---------------------------------------------------------------------------

/// Monotone counter handle. Cheap to clone; all clones share the cell.
#[derive(Clone)]
pub struct Counter(Rc<Cell<u64>>);

impl Counter {
    /// Add `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.set(self.0.get() + n);
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.0.get()
    }

    /// Zero the counter (per-phase accounting in experiments).
    #[inline]
    pub fn reset(&self) {
        self.0.set(0);
    }
}

/// Signed gauge handle (e.g. a queue depth). Cheap to clone.
#[derive(Clone)]
pub struct Gauge(Rc<Cell<i64>>);

impl Gauge {
    /// Set the value.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.set(v);
    }

    /// Add `n` (may be negative).
    #[inline]
    pub fn add(&self, n: i64) {
        self.0.set(self.0.get() + n);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> i64 {
        self.0.get()
    }
}

/// Histogram handle over nanosecond samples (shares the log-bucket
/// [`Histogram`] used across the simulators). Cheap to clone.
#[derive(Clone)]
pub struct HistogramMetric(Rc<RefCell<Histogram>>);

impl HistogramMetric {
    /// Record a duration sample.
    #[inline]
    pub fn record(&self, d: Duration) {
        self.0.borrow_mut().record(d);
    }

    /// Record a raw nanosecond sample.
    #[inline]
    pub fn record_ns(&self, ns: u64) {
        self.0.borrow_mut().record_ns(ns);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.0.borrow().count()
    }
}

// ---------------------------------------------------------------------------
// Snapshot: frozen, Send, mergeable, deterministic JSON
// ---------------------------------------------------------------------------

/// One metric's frozen value.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Full histogram state (boxed — it dwarfs the scalar variants —
    /// and kept whole so merges stay exact).
    Histogram(Box<Histogram>),
}

impl MetricValue {
    fn merge(&mut self, other: &MetricValue) {
        match (self, other) {
            (MetricValue::Counter(a), MetricValue::Counter(b)) => *a += b,
            (MetricValue::Gauge(a), MetricValue::Gauge(b)) => *a += b,
            (MetricValue::Histogram(a), MetricValue::Histogram(b)) => a.merge(b),
            // kind mismatch across runs would be a naming bug; keep self
            _ => {}
        }
    }

    fn to_json(&self) -> String {
        match self {
            MetricValue::Counter(v) => format!("{{\"type\": \"counter\", \"value\": {v}}}"),
            MetricValue::Gauge(v) => format!("{{\"type\": \"gauge\", \"value\": {v}}}"),
            MetricValue::Histogram(h) => format!(
                "{{\"type\": \"histogram\", \"count\": {}, \"mean_ns\": {}, \"min_ns\": {}, \
                 \"max_ns\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \"p999_ns\": {}}}",
                h.count(),
                h.mean().as_nanos(),
                h.min().as_nanos(),
                h.max().as_nanos(),
                h.percentile(50.0).as_nanos(),
                h.percentile(99.0).as_nanos(),
                h.percentile(99.9).as_nanos(),
            ),
        }
    }
}

/// A frozen registry: plain data, `Send`, mergeable across simulations
/// (experiment sweeps run one `Sim` per cell on worker threads).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Snapshot {
    metrics: BTreeMap<String, MetricValue>,
}

impl Snapshot {
    /// Number of metrics.
    pub fn len(&self) -> usize {
        self.metrics.len()
    }

    /// Whether the snapshot holds no metrics.
    pub fn is_empty(&self) -> bool {
        self.metrics.is_empty()
    }

    /// Value of a named metric.
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.metrics.get(name)
    }

    /// Counter value of `name` (0 when absent or not a counter).
    pub fn counter(&self, name: &str) -> u64 {
        match self.metrics.get(name) {
            Some(MetricValue::Counter(v)) => *v,
            _ => 0,
        }
    }

    /// Gauge value of `name` (0 when absent or not a gauge).
    pub fn gauge(&self, name: &str) -> i64 {
        match self.metrics.get(name) {
            Some(MetricValue::Gauge(v)) => *v,
            _ => 0,
        }
    }

    /// Sum of every counter *and* gauge whose name starts with `prefix` and
    /// ends with `suffix` — the idiom for instance-labelled families, e.g.
    /// `sum_matching("rkv.server", ".gets")` over all KV servers.
    pub fn sum_matching(&self, prefix: &str, suffix: &str) -> u64 {
        self.metrics
            .iter()
            .filter(|(k, _)| k.starts_with(prefix) && k.ends_with(suffix))
            .map(|(_, v)| match v {
                MetricValue::Counter(c) => *c,
                MetricValue::Gauge(g) => (*g).max(0) as u64,
                MetricValue::Histogram(_) => 0,
            })
            .sum()
    }

    /// Iterate metric names in sorted order.
    pub fn names(&self) -> impl Iterator<Item = &str> {
        self.metrics.keys().map(String::as_str)
    }

    /// Fold `other` into this snapshot: counters/gauges add, histograms
    /// merge, new names are inserted.
    pub fn merge(&mut self, other: &Snapshot) {
        for (k, v) in &other.metrics {
            match self.metrics.get_mut(k) {
                Some(mine) => mine.merge(v),
                None => {
                    self.metrics.insert(k.clone(), v.clone());
                }
            }
        }
    }

    /// Deterministic JSON: sorted keys, integer values, stable layout.
    /// Two same-seed runs serialise byte-identically. Schema `v2` extends
    /// `v1` with full percentile fields (`p50/p99/p999/max`) on every
    /// histogram; consumers accept both.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n  \"schema\": \"rdma-bb.metrics.v2\",\n  \"metrics\": {\n");
        let n = self.metrics.len();
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            out.push_str(&format!(
                "    \"{}\": {}{}\n",
                json_escape(k),
                v.to_json(),
                if i + 1 < n { "," } else { "" }
            ));
        }
        out.push_str("  }\n}\n");
        out
    }
}

// Snapshot is plain owned data.
// (Histogram is Clone + contains only arrays/ints.)

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

enum Slot {
    Counter(Rc<Cell<u64>>),
    Gauge(Rc<Cell<i64>>),
    Histogram(Rc<RefCell<Histogram>>),
    /// Evaluated lazily at snapshot time (components that already keep
    /// internal stats publish them without double bookkeeping). Closures
    /// must capture weak references to anything that owns a `Sim` clone,
    /// or the registry would cycle with the executor.
    Sampled(Box<dyn Fn() -> MetricValue>),
}

/// Named-metric registry owned by a [`Sim`](crate::Sim). Components
/// register at spawn (`counter` / `gauge` / `histogram` are get-or-create,
/// so re-deploys on one simulation share the instance) and bump the
/// returned handles on the hot path.
#[derive(Default)]
pub struct Registry {
    slots: RefCell<BTreeMap<String, Slot>>,
}

impl Registry {
    /// Get or register a counter.
    pub fn counter(&self, name: impl Into<String>) -> Counter {
        let name = name.into();
        let mut slots = self.slots.borrow_mut();
        match slots
            .entry(name.clone())
            .or_insert_with(|| Slot::Counter(Rc::new(Cell::new(0))))
        {
            Slot::Counter(c) => Counter(Rc::clone(c)),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or register a gauge.
    pub fn gauge(&self, name: impl Into<String>) -> Gauge {
        let name = name.into();
        let mut slots = self.slots.borrow_mut();
        match slots
            .entry(name.clone())
            .or_insert_with(|| Slot::Gauge(Rc::new(Cell::new(0))))
        {
            Slot::Gauge(g) => Gauge(Rc::clone(g)),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Get or register a histogram.
    pub fn histogram(&self, name: impl Into<String>) -> HistogramMetric {
        let name = name.into();
        let mut slots = self.slots.borrow_mut();
        match slots
            .entry(name.clone())
            .or_insert_with(|| Slot::Histogram(Rc::new(RefCell::new(Histogram::new()))))
        {
            Slot::Histogram(h) => HistogramMetric(Rc::clone(h)),
            _ => panic!("metric {name:?} already registered with a different kind"),
        }
    }

    /// Register a sampled metric: `f` is evaluated at every snapshot.
    /// Replaces any previous registration under `name`. Capture only weak
    /// references to objects that hold `Sim`/fabric handles.
    pub fn sampled(&self, name: impl Into<String>, f: impl Fn() -> MetricValue + 'static) {
        self.slots
            .borrow_mut()
            .insert(name.into(), Slot::Sampled(Box::new(f)));
    }

    /// Number of registered metrics.
    pub fn len(&self) -> usize {
        self.slots.borrow().len()
    }

    /// Whether nothing is registered.
    pub fn is_empty(&self) -> bool {
        self.slots.borrow().is_empty()
    }

    /// Freeze every metric into a [`Snapshot`].
    pub fn snapshot(&self) -> Snapshot {
        let slots = self.slots.borrow();
        let metrics = slots
            .iter()
            .map(|(k, s)| {
                let v = match s {
                    Slot::Counter(c) => MetricValue::Counter(c.get()),
                    Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                    Slot::Histogram(h) => MetricValue::Histogram(Box::new(h.borrow().clone())),
                    Slot::Sampled(f) => f(),
                };
                (k.clone(), v)
            })
            .collect();
        Snapshot { metrics }
    }
}

// ---------------------------------------------------------------------------
// Tracer
// ---------------------------------------------------------------------------

/// One completed span on the virtual clock.
#[derive(Debug, Clone)]
pub struct TraceEvent {
    /// Span name (`kv.get`, `bb.read.group`, …).
    pub name: &'static str,
    /// Category (crate/layer: `rkv`, `lustre`, `bb`, …).
    pub cat: &'static str,
    /// Process lane in the trace viewer — the fabric node id.
    pub pid: u32,
    /// Thread lane within the process (0 unless the caller distinguishes
    /// flows, e.g. a chunk seq or QP id).
    pub tid: u64,
    /// Begin, virtual nanoseconds.
    pub ts_ns: u64,
    /// Duration, virtual nanoseconds.
    pub dur_ns: u64,
}

/// Upper bound on buffered events — a runaway-trace backstop far above any
/// quick-run trace; past it events are counted but dropped.
const MAX_EVENTS: usize = 1 << 22;

/// Virtual-time span recorder. Disabled by default; when disabled a span
/// costs one boolean read and records nothing. Recording never advances or
/// perturbs the virtual clock.
#[derive(Default)]
pub struct Tracer {
    enabled: Cell<bool>,
    events: RefCell<Vec<TraceEvent>>,
    dropped: Cell<u64>,
}

impl Tracer {
    /// Start recording spans.
    pub fn enable(&self) {
        self.enabled.set(true);
    }

    /// Stop recording spans (already-recorded events are kept).
    pub fn disable(&self) {
        self.enabled.set(false);
    }

    /// Whether spans are being recorded.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.get()
    }

    /// Events recorded so far.
    pub fn event_count(&self) -> usize {
        self.events.borrow().len()
    }

    /// Events dropped at the `MAX_EVENTS` cap.
    pub fn dropped(&self) -> u64 {
        self.dropped.get()
    }

    pub(crate) fn record(&self, ev: TraceEvent) {
        let mut events = self.events.borrow_mut();
        if events.len() >= MAX_EVENTS {
            self.dropped.set(self.dropped.get() + 1);
            return;
        }
        events.push(ev);
    }

    /// Run `f` over every recorded event (analysis without export).
    pub fn for_each_event(&self, mut f: impl FnMut(&TraceEvent)) {
        for ev in self.events.borrow().iter() {
            f(ev);
        }
    }

    /// Export Chrome trace-event JSON (the `chrome://tracing` / Perfetto
    /// format): an object with a `traceEvents` array of complete (`"X"`)
    /// events, `ts`/`dur` in virtual microseconds, sorted by `ts` so the
    /// stream is monotone. Deterministic for same-seed runs.
    pub fn export_chrome(&self) -> String {
        let events = self.events.borrow();
        let mut order: Vec<usize> = (0..events.len()).collect();
        // stable sort: equal timestamps keep recording order
        order.sort_by_key(|&i| events[i].ts_ns);
        let us = |ns: u64| format!("{}.{:03}", ns / 1000, ns % 1000);
        let mut out = String::from("{\"traceEvents\":[\n");
        for (n, &i) in order.iter().enumerate() {
            let e = &events[i];
            out.push_str(&format!(
                "{{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\"pid\":{},\"tid\":{}}}{}\n",
                json_escape(e.name),
                json_escape(e.cat),
                us(e.ts_ns),
                us(e.dur_ns),
                e.pid,
                e.tid,
                if n + 1 < order.len() { "," } else { "" }
            ));
        }
        out.push_str("],\"displayTimeUnit\":\"ms\"}\n");
        out
    }
}

/// RAII span: created by [`Sim::span`](crate::Sim::span); records one
/// [`TraceEvent`] from creation to drop. A `None` inner means the tracer
/// was disabled at creation — drop is a no-op.
pub struct Span {
    pub(crate) inner: Option<SpanInner>,
}

pub(crate) struct SpanInner {
    pub(crate) sim: crate::Sim,
    pub(crate) name: &'static str,
    pub(crate) cat: &'static str,
    pub(crate) pid: u32,
    pub(crate) tid: u64,
    pub(crate) start: Time,
}

impl Span {
    /// A span that records nothing (the disabled-tracer fast path).
    pub fn disabled() -> Span {
        Span { inner: None }
    }

    /// Whether this span will record an event on drop.
    pub fn is_recording(&self) -> bool {
        self.inner.is_some()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some(i) = self.inner.take() {
            let end = i.sim.now();
            i.sim.tracer().record(TraceEvent {
                name: i.name,
                cat: i.cat,
                pid: i.pid,
                tid: i.tid,
                ts_ns: i.start.as_nanos(),
                dur_ns: end.as_nanos().saturating_sub(i.start.as_nanos()),
            });
        }
    }
}

/// The telemetry bundle each [`Sim`](crate::Sim) owns.
#[derive(Default)]
pub struct Telemetry {
    /// The metrics registry.
    pub registry: Registry,
    /// The span tracer.
    pub tracer: Tracer,
    /// The per-operation request tracer (latency decomposition).
    pub optrace: crate::optrace::OpTracer,
    /// The crash flight recorder.
    pub flight: crate::flight::FlightRecorder,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::dur;
    use crate::Sim;

    #[test]
    fn counter_gauge_histogram_roundtrip() {
        let r = Registry::default();
        let c = r.counter("a.count");
        c.add(3);
        c.inc();
        let g = r.gauge("a.gauge");
        g.set(7);
        g.add(-2);
        let h = r.histogram("a.lat_ns");
        h.record_ns(100);
        h.record_ns(300);
        let snap = r.snapshot();
        assert_eq!(snap.counter("a.count"), 4);
        assert_eq!(snap.gauge("a.gauge"), 5);
        match snap.get("a.lat_ns") {
            Some(MetricValue::Histogram(h)) => assert_eq!(h.count(), 2),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn get_or_create_shares_the_instance() {
        let r = Registry::default();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        b.inc();
        assert_eq!(r.snapshot().counter("x"), 2);
        assert_eq!(r.len(), 1);
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        let r = Registry::default();
        r.counter("x");
        r.gauge("x");
    }

    #[test]
    fn sampled_metric_evaluated_at_snapshot() {
        let r = Registry::default();
        let v = Rc::new(Cell::new(0u64));
        let vv = Rc::clone(&v);
        r.sampled("s", move || MetricValue::Counter(vv.get()));
        v.set(41);
        assert_eq!(r.snapshot().counter("s"), 41);
        v.set(42);
        assert_eq!(r.snapshot().counter("s"), 42);
    }

    #[test]
    fn snapshot_json_is_sorted_and_stable() {
        let r = Registry::default();
        r.counter("z.last").add(1);
        r.counter("a.first").add(2);
        let j1 = r.snapshot().to_json();
        let j2 = r.snapshot().to_json();
        assert_eq!(j1, j2);
        let a = j1.find("a.first").unwrap();
        let z = j1.find("z.last").unwrap();
        assert!(a < z, "keys must serialise sorted");
        assert!(j1.starts_with('{') && j1.trim_end().ends_with('}'));
    }

    #[test]
    fn snapshot_merge_adds_counters_and_merges_histograms() {
        let r1 = Registry::default();
        r1.counter("c").add(2);
        r1.histogram("h").record_ns(10);
        let r2 = Registry::default();
        r2.counter("c").add(5);
        r2.counter("only2").add(1);
        r2.histogram("h").record_ns(1000);
        let mut s = r1.snapshot();
        s.merge(&r2.snapshot());
        assert_eq!(s.counter("c"), 7);
        assert_eq!(s.counter("only2"), 1);
        match s.get("h") {
            Some(MetricValue::Histogram(h)) => {
                assert_eq!(h.count(), 2);
                assert_eq!(h.min(), Duration::from_nanos(10));
                assert_eq!(h.max(), Duration::from_nanos(1000));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn sum_matching_spans_instances() {
        let r = Registry::default();
        r.counter("rkv.server0.gets").add(3);
        r.counter("rkv.server1.gets").add(4);
        r.counter("rkv.server1.hits").add(9);
        let s = r.snapshot();
        assert_eq!(s.sum_matching("rkv.server", ".gets"), 7);
        assert_eq!(s.sum_matching("rkv.server", ".hits"), 9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let sim = Sim::new();
        let s = sim.clone();
        sim.block_on(async move {
            let sp = s.span("op", "test", 0, 0);
            assert!(!sp.is_recording());
            s.sleep(dur::us(5)).await;
            drop(sp);
        });
        assert_eq!(sim.tracer().event_count(), 0);
    }

    #[test]
    fn span_records_virtual_time_bounds() {
        let sim = Sim::new();
        sim.tracer().enable();
        let s = sim.clone();
        sim.block_on(async move {
            s.sleep(dur::us(3)).await;
            let sp = s.span("op", "test", 7, 42);
            s.sleep(dur::us(10)).await;
            drop(sp);
        });
        assert_eq!(sim.tracer().event_count(), 1);
        sim.tracer().for_each_event(|e| {
            assert_eq!(e.name, "op");
            assert_eq!(e.pid, 7);
            assert_eq!(e.tid, 42);
            assert_eq!(e.ts_ns, 3_000);
            assert_eq!(e.dur_ns, 10_000);
        });
    }

    #[test]
    fn chrome_export_is_monotone_and_valid_shape() {
        let sim = Sim::new();
        sim.tracer().enable();
        // record out of order on purpose: a later-started span can drop first
        let s = sim.clone();
        sim.block_on(async move {
            let a = s.span("outer", "test", 0, 0);
            s.sleep(dur::us(2)).await;
            let b = s.span("inner", "test", 0, 1);
            s.sleep(dur::us(1)).await;
            drop(b);
            drop(a);
        });
        let j = sim.tracer().export_chrome();
        assert!(j.contains("\"traceEvents\":["));
        assert!(j.contains("\"ph\":\"X\""));
        // inner was recorded first (dropped first) but must export after
        // outer (ts 2.0 vs 0.0)
        let outer = j.find("\"outer\"").unwrap();
        let inner = j.find("\"inner\"").unwrap();
        assert!(outer < inner, "events must be sorted by ts");
    }

    #[test]
    fn tracing_does_not_perturb_virtual_time() {
        let run = |traced: bool| {
            let sim = Sim::new();
            if traced {
                sim.tracer().enable();
            }
            let s = sim.clone();
            sim.block_on(async move {
                for i in 0..50u64 {
                    let _sp = s.span("step", "test", 0, i);
                    s.sleep(dur::us(i)).await;
                }
                s.now()
            })
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
    }
}
