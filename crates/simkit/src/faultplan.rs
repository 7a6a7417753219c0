//! Deterministic fault injection: scripted, seeded failure scenarios.
//!
//! A [`FaultPlan`] is a virtual-time-scheduled script of fault events —
//! node crash/restart, link down/up/flap, per-edge RPC loss and delay,
//! per-node slowdown — built once and installed on a [`Sim`](crate::Sim) with
//! [`Sim::install_faults`](crate::Sim::install_faults). The plan drives a
//! single spawned task that applies each event at its scheduled instant;
//! components observe faults through the [`FaultInjector`] the simulation
//! owns:
//!
//! - **Node events** (crash/restart/link transitions) are fanned out to
//!   hooks registered with [`FaultInjector::on_node_event`]. The network
//!   fabric maps them to port up/down; a KV server maps `Crash` to "wipe
//!   the in-memory store" (a restarted memcached comes back empty).
//! - **Edge rules** (loss probability, extra delay) and **node slowdown
//!   factors** are polled by the fabric on every transfer through
//!   [`FaultInjector::transfer_fault`].
//!
//! Determinism: the injector owns a [`SimRng`] seeded from the plan, so
//! probabilistic drops are a pure function of (plan, seed, traffic order).
//! Every applied event is recorded in a timeline
//! ([`FaultInjector::timeline`]) that tests compare across same-seed runs.
//!
//! Hooks registered by components must capture [`std::rc::Weak`] handles —
//! the injector lives as long as the simulation, and strong captures would
//! leak the component (same rule as sampled metrics closures).

use std::cell::RefCell;
use std::time::Duration;

use crate::rng::SimRng;
use crate::time::Time;

/// What happened to a node, as delivered to [`FaultInjector::on_node_event`]
/// hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeEventKind {
    /// Process died: volatile state is lost and the node's ports go down.
    Crash,
    /// Process restarted (empty-state) and the node's ports come back up.
    Restart,
    /// Network link lost; the process keeps running (state survives).
    LinkDown,
    /// Network link restored.
    LinkUp,
}

/// A node-scoped fault delivery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NodeEvent {
    /// Index of the affected fabric node.
    pub node: u32,
    /// What happened.
    pub kind: NodeEventKind,
}

/// One scripted fault, scheduled at an offset from plan installation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultEvent {
    /// Kill a node: hooks see [`NodeEventKind::Crash`].
    Crash {
        /// Target fabric node index.
        node: u32,
    },
    /// Bring a crashed node back: hooks see [`NodeEventKind::Restart`].
    Restart {
        /// Target fabric node index.
        node: u32,
    },
    /// Take a node's link down without killing the process.
    LinkDown {
        /// Target fabric node index.
        node: u32,
    },
    /// Restore a node's link.
    LinkUp {
        /// Target fabric node index.
        node: u32,
    },
    /// `count` down/up cycles: down for `down`, then up for the rest of
    /// `period`. Expanded into [`FaultEvent::LinkDown`]/[`FaultEvent::LinkUp`]
    /// pairs at install time.
    LinkFlap {
        /// Target fabric node index.
        node: u32,
        /// Number of down/up cycles.
        count: u32,
        /// How long the link stays down each cycle.
        down: Duration,
        /// Full cycle length (must be ≥ `down`).
        period: Duration,
    },
    /// Multiply a node's effective transfer bandwidth by `factor`
    /// (e.g. `0.1` = an OSS served at a tenth of its rate). `1.0` clears.
    Degrade {
        /// Target fabric node index.
        node: u32,
        /// Bandwidth multiplier in `(0, 1]`.
        factor: f64,
    },
    /// Add fixed latency to transfers matching the edge filter.
    Delay {
        /// Source node filter (`None` = any source).
        src: Option<u32>,
        /// Destination node filter (`None` = any destination).
        dst: Option<u32>,
        /// Extra one-way latency per transfer.
        extra: Duration,
    },
    /// Drop transfers matching the edge filter with probability `p`.
    Loss {
        /// Source node filter (`None` = any source).
        src: Option<u32>,
        /// Destination node filter (`None` = any destination).
        dst: Option<u32>,
        /// Per-transfer drop probability in `[0, 1]`.
        p: f64,
    },
    /// Flip one byte in each value resident on `node` with probability
    /// `p` — a one-shot at-rest corruption sweep (bit rot, a DMA stray
    /// write) delivered to [`FaultInjector::on_corrupt_sweep`] hooks.
    /// Per-value selection and byte/bit choice draw from the plan's
    /// seeded RNG, so the damaged set is a pure function of (plan, seed,
    /// resident keys).
    CorruptValue {
        /// Target fabric node index.
        node: u32,
        /// Per-resident-value corruption probability in `[0, 1]`.
        p: f64,
    },
    /// From now on, flip one byte of payloads moved over matching edges
    /// with probability `p` per transfer (in-transit corruption; polled
    /// by the RDMA layer via [`FaultInjector::corrupt_transfer`]).
    CorruptTransfer {
        /// Source node filter (`None` = any source).
        src: Option<u32>,
        /// Destination node filter (`None` = any destination).
        dst: Option<u32>,
        /// Per-transfer corruption probability in `[0, 1]`.
        p: f64,
    },
    /// From now on, flip one byte of each object commit on storage node
    /// `node` with probability `p` — at-commit damage (a torn or stray
    /// DMA write as the server persists), polled by the storage layer via
    /// [`FaultInjector::corrupt_commit`]. Distinct from
    /// [`FaultEvent::CorruptTransfer`] (in-transit, RDMA layer) and
    /// [`FaultEvent::CorruptValue`] (at-rest, after a clean commit).
    CorruptCommit {
        /// Target fabric node index (the storage server).
        node: u32,
        /// Per-commit corruption probability in `[0, 1]`.
        p: f64,
    },
    /// Remove all edge rules (loss + delay + transfer corruption), commit
    /// corruption rules, and slowdown factors.
    ClearEdges,
    /// Admit a standby KV server on `node` to the membership ring
    /// (delivered to [`FaultInjector::on_membership`] hooks; the burst
    /// buffer maps it to an epoch bump plus background rebalancing).
    AddServer {
        /// Fabric node index of the joining server.
        node: u32,
    },
    /// Take the KV server on `node` off the membership ring. The process
    /// keeps running and keeps serving index-addressed reads while its
    /// chunks migrate away (delivered to [`FaultInjector::on_membership`]
    /// hooks).
    DrainServer {
        /// Fabric node index of the draining server.
        node: u32,
    },
}

/// How a [`MembershipEvent`] changes the ring.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MembershipChange {
    /// The node's server joins the ring.
    Join,
    /// The node's server leaves the ring (but stays up for migration).
    Drain,
}

/// A membership-scoped fault delivery, fanned out to
/// [`FaultInjector::on_membership`] hooks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MembershipEvent {
    /// Fabric node index of the affected server.
    pub node: u32,
    /// Whether the server joins or drains.
    pub change: MembershipChange,
}

impl FaultEvent {
    /// The node-hook delivery this event maps to, if any.
    fn node_event(&self) -> Option<NodeEvent> {
        let (node, kind) = match *self {
            FaultEvent::Crash { node } => (node, NodeEventKind::Crash),
            FaultEvent::Restart { node } => (node, NodeEventKind::Restart),
            FaultEvent::LinkDown { node } => (node, NodeEventKind::LinkDown),
            FaultEvent::LinkUp { node } => (node, NodeEventKind::LinkUp),
            _ => return None,
        };
        Some(NodeEvent { node, kind })
    }

    /// The membership-hook delivery this event maps to, if any.
    fn membership_event(&self) -> Option<MembershipEvent> {
        let (node, change) = match *self {
            FaultEvent::AddServer { node } => (node, MembershipChange::Join),
            FaultEvent::DrainServer { node } => (node, MembershipChange::Drain),
            _ => return None,
        };
        Some(MembershipEvent { node, change })
    }
}

/// A seeded, ordered script of [`FaultEvent`]s at virtual-time offsets.
///
/// Build with [`FaultPlan::new`] + [`FaultPlan::at`], then install via
/// [`Sim::install_faults`](crate::Sim::install_faults). Offsets are
/// relative to the installation instant. Events at equal offsets apply in
/// insertion order.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    events: Vec<(Duration, FaultEvent)>,
}

impl FaultPlan {
    /// Empty plan with the RNG seed probabilistic events will draw from.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            events: Vec::new(),
        }
    }

    /// Schedule `event` at `offset` after installation (builder-style).
    pub fn at(mut self, offset: Duration, event: FaultEvent) -> Self {
        self.events.push((offset, event));
        self
    }

    /// RNG seed for probabilistic events.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of scripted events (before flap expansion).
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan scripts no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Expand flaps and stable-sort by offset (ties keep insertion order).
    pub(crate) fn expand(&self) -> Vec<(Duration, FaultEvent)> {
        let mut out = Vec::with_capacity(self.events.len());
        for &(offset, ev) in &self.events {
            if let FaultEvent::LinkFlap {
                node,
                count,
                down,
                period,
            } = ev
            {
                let period = period.max(down);
                for i in 0..count {
                    let base = offset + period * i;
                    out.push((base, FaultEvent::LinkDown { node }));
                    out.push((base + down, FaultEvent::LinkUp { node }));
                }
            } else {
                out.push((offset, ev));
            }
        }
        out.sort_by_key(|&(offset, _)| offset);
        out
    }
}

/// One applied event in the injector's timeline (for determinism checks
/// and recovery reports).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AppliedEvent {
    /// Virtual instant the event was applied.
    pub at: Time,
    /// The (flap-expanded) event.
    pub event: FaultEvent,
}

/// An active per-edge rule: drop with probability `p`, delay by `extra`.
#[derive(Debug, Clone, Copy)]
struct EdgeRule {
    src: Option<u32>,
    dst: Option<u32>,
    p: f64,
    extra: Duration,
}

impl EdgeRule {
    fn matches(&self, src: u32, dst: u32) -> bool {
        self.src.is_none_or(|s| s == src) && self.dst.is_none_or(|d| d == dst)
    }
}

/// What the fabric must do to one transfer, combined over all active rules.
#[derive(Debug, Clone, Copy, Default)]
pub struct TransferFault {
    /// Drop the transfer (after charging overhead + latency).
    pub drop: bool,
    /// Additional one-way latency.
    pub extra_delay: Duration,
    /// Bandwidth multiplier in `(0, 1]` (`1.0` = unimpaired).
    pub bandwidth_factor: f64,
}

/// An active edge-corruption rule installed by
/// [`FaultEvent::CorruptTransfer`].
#[derive(Debug, Clone, Copy)]
struct CorruptRule {
    src: Option<u32>,
    dst: Option<u32>,
    p: f64,
}

impl CorruptRule {
    fn matches(&self, src: u32, dst: u32) -> bool {
        self.src.is_none_or(|s| s == src) && self.dst.is_none_or(|d| d == dst)
    }
}

type NodeEventHook = Box<dyn Fn(NodeEvent)>;
type CorruptSweepHook = Box<dyn Fn(u32, f64, &SimRng)>;
type MembershipHook = Box<dyn Fn(MembershipEvent)>;

/// Per-simulation fault state: hooks, active rules, RNG, and the applied
/// timeline. Owned by the [`Sim`](crate::Sim); components reach it through
/// [`Sim::faults`](crate::Sim::faults).
#[derive(Default)]
pub struct FaultInjector {
    rng: RefCell<Option<SimRng>>,
    hooks: RefCell<Vec<NodeEventHook>>,
    corrupt_hooks: RefCell<Vec<CorruptSweepHook>>,
    membership_hooks: RefCell<Vec<MembershipHook>>,
    rules: RefCell<Vec<EdgeRule>>,
    corrupt_rules: RefCell<Vec<CorruptRule>>,
    /// Active [`FaultEvent::CorruptCommit`] rules: `(node, p)`.
    commit_rules: RefCell<Vec<(u32, f64)>>,
    slow: RefCell<Vec<(u32, f64)>>,
    timeline: RefCell<Vec<AppliedEvent>>,
}

impl FaultInjector {
    /// Register a node-event hook. Called synchronously for every
    /// crash/restart/link event, in registration order. The closure must
    /// capture only `Weak` handles (see module docs).
    pub fn on_node_event(&self, hook: impl Fn(NodeEvent) + 'static) {
        self.hooks.borrow_mut().push(Box::new(hook));
    }

    /// Register an at-rest corruption hook, called synchronously for every
    /// applied [`FaultEvent::CorruptValue`] with `(node, p, rng)`. The
    /// component owning state on `node` walks its resident values in a
    /// deterministic order, drawing selection and byte/bit choices from
    /// `rng` (a shared-stream clone of the plan RNG). The closure must
    /// capture only `Weak` handles (see module docs).
    pub fn on_corrupt_sweep(&self, hook: impl Fn(u32, f64, &SimRng) + 'static) {
        self.corrupt_hooks.borrow_mut().push(Box::new(hook));
    }

    /// Register a membership hook, called synchronously for every applied
    /// [`FaultEvent::AddServer`] / [`FaultEvent::DrainServer`], in
    /// registration order. The closure must capture only `Weak` handles
    /// (see module docs).
    pub fn on_membership(&self, hook: impl Fn(MembershipEvent) + 'static) {
        self.membership_hooks.borrow_mut().push(Box::new(hook));
    }

    /// Reseed the RNG and clear rules + timeline (called on plan install).
    pub(crate) fn arm(&self, seed: u64) {
        *self.rng.borrow_mut() = Some(SimRng::seed_from(seed));
        self.rules.borrow_mut().clear();
        self.corrupt_rules.borrow_mut().clear();
        self.commit_rules.borrow_mut().clear();
        self.slow.borrow_mut().clear();
        self.timeline.borrow_mut().clear();
    }

    /// Apply one event now: update rules/slowdowns and fan out node events.
    pub(crate) fn apply(&self, at: Time, event: FaultEvent) {
        self.timeline.borrow_mut().push(AppliedEvent { at, event });
        match event {
            FaultEvent::Degrade { node, factor } => {
                let mut slow = self.slow.borrow_mut();
                slow.retain(|&(n, _)| n != node);
                if factor < 1.0 {
                    slow.push((node, factor.max(1e-6)));
                }
            }
            FaultEvent::Delay { src, dst, extra } => {
                self.rules.borrow_mut().push(EdgeRule {
                    src,
                    dst,
                    p: 0.0,
                    extra,
                });
            }
            FaultEvent::Loss { src, dst, p } => {
                self.rules.borrow_mut().push(EdgeRule {
                    src,
                    dst,
                    p: p.clamp(0.0, 1.0),
                    extra: Duration::ZERO,
                });
            }
            FaultEvent::CorruptTransfer { src, dst, p } => {
                self.corrupt_rules.borrow_mut().push(CorruptRule {
                    src,
                    dst,
                    p: p.clamp(0.0, 1.0),
                });
            }
            FaultEvent::CorruptValue { node, p } => {
                let rng = self.rng.borrow().clone();
                if let Some(rng) = rng {
                    let p = p.clamp(0.0, 1.0);
                    // same borrow-across-delivery rule as node-event hooks
                    for hook in self.corrupt_hooks.borrow().iter() {
                        hook(node, p, &rng);
                    }
                }
            }
            FaultEvent::CorruptCommit { node, p } => {
                self.commit_rules
                    .borrow_mut()
                    .push((node, p.clamp(0.0, 1.0)));
            }
            FaultEvent::ClearEdges => {
                self.rules.borrow_mut().clear();
                self.corrupt_rules.borrow_mut().clear();
                self.commit_rules.borrow_mut().clear();
                self.slow.borrow_mut().clear();
            }
            FaultEvent::AddServer { .. } | FaultEvent::DrainServer { .. } => {
                if let Some(ev) = event.membership_event() {
                    // same borrow-across-delivery rule as node-event hooks
                    for hook in self.membership_hooks.borrow().iter() {
                        hook(ev);
                    }
                }
            }
            _ => {
                if let Some(ev) = event.node_event() {
                    // the borrow is held across delivery: hooks must not
                    // register hooks (RefCell turns that into a panic, not
                    // a silent miss)
                    for hook in self.hooks.borrow().iter() {
                        hook(ev);
                    }
                }
            }
        }
    }

    /// Combined fault decision for one `src → dst` transfer. Probabilistic
    /// drops draw from the plan's seeded RNG; without an installed plan
    /// this is a cheap no-fault constant.
    pub fn transfer_fault(&self, src: u32, dst: u32) -> TransferFault {
        let mut out = TransferFault {
            drop: false,
            extra_delay: Duration::ZERO,
            bandwidth_factor: 1.0,
        };
        let rules = self.rules.borrow();
        if !rules.is_empty() {
            for r in rules.iter() {
                if !r.matches(src, dst) {
                    continue;
                }
                out.extra_delay += r.extra;
                if r.p > 0.0 && !out.drop {
                    if let Some(rng) = self.rng.borrow().as_ref() {
                        out.drop = rng.chance(r.p);
                    }
                }
            }
        }
        for &(n, f) in self.slow.borrow().iter() {
            if n == src || n == dst {
                out.bandwidth_factor *= f;
            }
        }
        out
    }

    /// In-transit corruption decision for one `src → dst` payload of
    /// `len` bytes: `Some((offset, xor_mask))` when an active
    /// [`FaultEvent::CorruptTransfer`] rule fires, telling the transport
    /// which byte to damage and how (the mask is a single set bit, so the
    /// payload always really changes). Without corruption rules this is a
    /// cheap no-fault constant and draws nothing from the RNG, preserving
    /// the byte-identical determinism of plans that never corrupt.
    pub fn corrupt_transfer(&self, src: u32, dst: u32, len: u64) -> Option<(u64, u8)> {
        if len == 0 {
            return None;
        }
        let rules = self.corrupt_rules.borrow();
        if rules.is_empty() {
            return None;
        }
        let rng = self.rng.borrow();
        let rng = rng.as_ref()?;
        let mut hit = false;
        for r in rules.iter() {
            if r.matches(src, dst) && r.p > 0.0 && rng.chance(r.p) {
                hit = true;
            }
        }
        if !hit {
            return None;
        }
        let offset = rng.index(len as usize) as u64;
        let mask = 1u8 << rng.index(8);
        Some((offset, mask))
    }

    /// At-commit corruption decision for one object commit of `len` bytes
    /// on storage node `node`: `Some((offset, xor_mask))` when an active
    /// [`FaultEvent::CorruptCommit`] rule fires, telling the storage layer
    /// which byte to damage before persisting (the mask is a single set
    /// bit, so the committed bytes always really change). Without commit
    /// rules this is a cheap no-fault constant that draws nothing from the
    /// RNG, preserving the byte-identical determinism of plans that never
    /// corrupt.
    pub fn corrupt_commit(&self, node: u32, len: u64) -> Option<(u64, u8)> {
        if len == 0 {
            return None;
        }
        let rules = self.commit_rules.borrow();
        if rules.is_empty() {
            return None;
        }
        let rng = self.rng.borrow();
        let rng = rng.as_ref()?;
        let mut hit = false;
        for &(n, p) in rules.iter() {
            if n == node && p > 0.0 && rng.chance(p) {
                hit = true;
            }
        }
        if !hit {
            return None;
        }
        let offset = rng.index(len as usize) as u64;
        let mask = 1u8 << rng.index(8);
        Some((offset, mask))
    }

    /// Seeded RNG for jitter (retry backoff etc.); `None` before any plan
    /// is installed. Callers needing jitter without a plan fall back to
    /// their own forked stream.
    pub fn rng(&self) -> Option<SimRng> {
        self.rng.borrow().clone()
    }

    /// Copy of the applied-event timeline, in application order.
    pub fn timeline(&self) -> Vec<AppliedEvent> {
        self.timeline.borrow().clone()
    }

    /// Render the timeline as one line per event (`"12.000ms Crash node 3"`
    /// style) — the recovery-trace artifact format.
    pub fn timeline_text(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        for ae in self.timeline.borrow().iter() {
            let _ = writeln!(s, "{} {:?}", crate::time::format_time(ae.at), ae.event);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::dur;
    use crate::Sim;
    use std::cell::RefCell;
    use std::rc::Rc;

    #[test]
    fn plan_expansion_sorts_and_expands_flaps() {
        let plan = FaultPlan::new(7)
            .at(dur::ms(50), FaultEvent::Crash { node: 2 })
            .at(
                dur::ms(10),
                FaultEvent::LinkFlap {
                    node: 1,
                    count: 2,
                    down: dur::ms(5),
                    period: dur::ms(20),
                },
            );
        let ev = plan.expand();
        assert_eq!(ev.len(), 5);
        assert_eq!(ev[0], (dur::ms(10), FaultEvent::LinkDown { node: 1 }));
        assert_eq!(ev[1], (dur::ms(15), FaultEvent::LinkUp { node: 1 }));
        assert_eq!(ev[2], (dur::ms(30), FaultEvent::LinkDown { node: 1 }));
        assert_eq!(ev[3], (dur::ms(35), FaultEvent::LinkUp { node: 1 }));
        assert_eq!(ev[4], (dur::ms(50), FaultEvent::Crash { node: 2 }));
    }

    #[test]
    fn install_drives_events_at_scheduled_times() {
        let sim = Sim::new();
        let seen: Rc<RefCell<Vec<(u64, NodeEvent)>>> = Rc::default();
        let log = Rc::clone(&seen);
        let s = sim.clone();
        sim.faults().on_node_event(move |ev| {
            log.borrow_mut().push((s.now().as_nanos(), ev));
        });
        sim.install_faults(
            FaultPlan::new(1)
                .at(dur::ms(5), FaultEvent::Crash { node: 3 })
                .at(dur::ms(9), FaultEvent::Restart { node: 3 }),
        );
        sim.run();
        let seen = seen.borrow();
        assert_eq!(seen.len(), 2);
        assert_eq!(
            seen[0],
            (
                5_000_000,
                NodeEvent {
                    node: 3,
                    kind: NodeEventKind::Crash
                }
            )
        );
        assert_eq!(seen[1].1.kind, NodeEventKind::Restart);
        assert_eq!(sim.faults().timeline().len(), 2);
    }

    #[test]
    fn loss_rule_is_seed_deterministic() {
        let decide = |seed: u64| {
            let inj = FaultInjector::default();
            inj.arm(seed);
            inj.apply(
                Time::ZERO,
                FaultEvent::Loss {
                    src: None,
                    dst: Some(4),
                    p: 0.5,
                },
            );
            (0..64)
                .map(|_| inj.transfer_fault(0, 4).drop)
                .collect::<Vec<_>>()
        };
        assert_eq!(decide(42), decide(42));
        assert_ne!(decide(42), decide(43));
        // the rule only matches dst 4
        let inj = FaultInjector::default();
        inj.arm(9);
        inj.apply(
            Time::ZERO,
            FaultEvent::Loss {
                src: None,
                dst: Some(4),
                p: 1.0,
            },
        );
        assert!(!inj.transfer_fault(0, 5).drop);
        assert!(inj.transfer_fault(2, 4).drop);
    }

    #[test]
    fn degrade_delay_and_clear() {
        let inj = FaultInjector::default();
        inj.arm(0);
        inj.apply(
            Time::ZERO,
            FaultEvent::Degrade {
                node: 2,
                factor: 0.25,
            },
        );
        inj.apply(
            Time::ZERO,
            FaultEvent::Delay {
                src: Some(1),
                dst: None,
                extra: dur::us(30),
            },
        );
        let f = inj.transfer_fault(1, 2);
        assert_eq!(f.bandwidth_factor, 0.25);
        assert_eq!(f.extra_delay, dur::us(30));
        assert!(!f.drop);
        // replacing a degrade overrides, 1.0 clears
        inj.apply(
            Time::ZERO,
            FaultEvent::Degrade {
                node: 2,
                factor: 1.0,
            },
        );
        assert_eq!(inj.transfer_fault(1, 2).bandwidth_factor, 1.0);
        inj.apply(Time::ZERO, FaultEvent::ClearEdges);
        assert_eq!(inj.transfer_fault(1, 2).extra_delay, Duration::ZERO);
    }

    #[test]
    fn corrupt_transfer_is_seed_deterministic_and_edge_scoped() {
        let decide = |seed: u64| {
            let inj = FaultInjector::default();
            inj.arm(seed);
            inj.apply(
                Time::ZERO,
                FaultEvent::CorruptTransfer {
                    src: None,
                    dst: Some(4),
                    p: 0.5,
                },
            );
            (0..64)
                .map(|_| inj.corrupt_transfer(0, 4, 4096))
                .collect::<Vec<_>>()
        };
        let a = decide(42);
        assert_eq!(a, decide(42));
        assert_ne!(a, decide(43));
        assert!(a.iter().any(|d| d.is_some()));
        assert!(a.iter().any(|d| d.is_none()));
        for (off, mask) in a.iter().flatten() {
            assert!(*off < 4096);
            assert_eq!(mask.count_ones(), 1, "mask must flip exactly one bit");
        }
        // edge filter + empty payloads + ClearEdges
        let inj = FaultInjector::default();
        inj.arm(9);
        inj.apply(
            Time::ZERO,
            FaultEvent::CorruptTransfer {
                src: Some(1),
                dst: None,
                p: 1.0,
            },
        );
        assert!(inj.corrupt_transfer(2, 3, 100).is_none());
        assert!(inj.corrupt_transfer(1, 3, 0).is_none());
        assert!(inj.corrupt_transfer(1, 3, 100).is_some());
        inj.apply(Time::ZERO, FaultEvent::ClearEdges);
        assert!(inj.corrupt_transfer(1, 3, 100).is_none());
    }

    #[test]
    fn membership_events_fan_out_and_land_in_the_timeline() {
        let sim = Sim::new();
        let seen: Rc<RefCell<Vec<(u64, MembershipEvent)>>> = Rc::default();
        let log = Rc::clone(&seen);
        let s = sim.clone();
        sim.faults().on_membership(move |ev| {
            log.borrow_mut().push((s.now().as_nanos(), ev));
        });
        sim.install_faults(
            FaultPlan::new(1)
                .at(dur::ms(3), FaultEvent::AddServer { node: 7 })
                .at(dur::ms(8), FaultEvent::DrainServer { node: 2 }),
        );
        sim.run();
        let seen = seen.borrow();
        assert_eq!(
            *seen,
            vec![
                (
                    3_000_000,
                    MembershipEvent {
                        node: 7,
                        change: MembershipChange::Join
                    }
                ),
                (
                    8_000_000,
                    MembershipEvent {
                        node: 2,
                        change: MembershipChange::Drain
                    }
                ),
            ]
        );
        assert_eq!(sim.faults().timeline().len(), 2);
        assert!(sim.faults().timeline_text().contains("AddServer"));
    }

    #[test]
    fn corrupt_sweep_fans_out_with_shared_rng() {
        let inj = FaultInjector::default();
        inj.arm(7);
        let seen: Rc<RefCell<Vec<(u32, u64)>>> = Rc::default();
        let log = Rc::clone(&seen);
        inj.on_corrupt_sweep(move |node, p, rng| {
            assert_eq!(p, 0.25);
            // hooks draw from the plan stream deterministically
            log.borrow_mut().push((node, rng.range(0, 1 << 20)));
        });
        inj.apply(Time::ZERO, FaultEvent::CorruptValue { node: 3, p: 0.25 });
        inj.apply(Time::ZERO, FaultEvent::CorruptValue { node: 5, p: 0.25 });
        let seen = seen.borrow();
        assert_eq!(seen.len(), 2);
        assert_eq!(seen[0].0, 3);
        assert_eq!(seen[1].0, 5);
        // both sweeps landed in the applied timeline
        assert_eq!(inj.timeline().len(), 2);
        // replaying the same seed yields the same draws
        let inj2 = FaultInjector::default();
        inj2.arm(7);
        let seen2: Rc<RefCell<Vec<(u32, u64)>>> = Rc::default();
        let log2 = Rc::clone(&seen2);
        inj2.on_corrupt_sweep(move |node, _, rng| {
            log2.borrow_mut().push((node, rng.range(0, 1 << 20)));
        });
        inj2.apply(Time::ZERO, FaultEvent::CorruptValue { node: 3, p: 0.25 });
        inj2.apply(Time::ZERO, FaultEvent::CorruptValue { node: 5, p: 0.25 });
        assert_eq!(*seen, *seen2.borrow());
    }
}
