//! Topology-aware chunk placement: policy knob and the latency cost
//! model the background optimizer in `crate::movers` minimizes (the
//! per-chunk reader telemetry it feeds on lives in the chunk table).
//!
//! Everything here is defaults-off: with [`crate::BbConfig::bb_place_policy`]
//! at [`PlacementPolicy::Hash`] and [`crate::BbConfig::bb_place_interval`]
//! at zero, no reader telemetry is kept, no `bb.place.*` metric is
//! registered, and chunk routing is the seed consistent-hash ring
//! bit-for-bit.

use netsim::{Fabric, NodeId};
use rkv::Membership;

/// How replica targets are chosen for buffered chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlacementPolicy {
    /// Pure consistent-hash ring placement — the seed behaviour and the
    /// default. No override is ever installed.
    Hash,
    /// Locality-preferring placement: a new chunk's replicas are the
    /// topologically nearest ring servers to the writer (ring order
    /// breaks ties), installed as a routing override in the shared
    /// membership view. The background optimizer (when
    /// [`crate::BbConfig::bb_place_interval`] > 0) then migrates chunks
    /// toward their observed readers.
    Locality,
}

impl PlacementPolicy {
    /// Short label used in experiment tables and knob docs.
    pub fn label(&self) -> &'static str {
        match self {
            PlacementPolicy::Hash => "hash",
            PlacementPolicy::Locality => "locality",
        }
    }
}

/// Placement-engine counters (`bb.place.*`) — registered only when
/// placement is enabled, so the names stay out of default snapshots.
pub(crate) struct PlaceCounters {
    /// Chunks the optimizer decided to move (cost strictly improves).
    pub(crate) decisions: simkit::telemetry::Counter,
    /// Placement migrations completed (copy verified, override installed).
    pub(crate) migrations: simkit::telemetry::Counter,
    /// Payload bytes copied by placement migrations.
    pub(crate) bytes: simkit::telemetry::Counter,
    /// Estimated read cost (reader-weighted topology nanoseconds) of the
    /// layouts being replaced, summed over decisions.
    pub(crate) cost_before: simkit::telemetry::Counter,
    /// Estimated read cost of the chosen layouts, summed over decisions.
    pub(crate) cost_after: simkit::telemetry::Counter,
}

impl PlaceCounters {
    pub(crate) fn register(m: &simkit::telemetry::Registry) -> PlaceCounters {
        PlaceCounters {
            decisions: m.counter("bb.place.decisions"),
            migrations: m.counter("bb.place.migrations"),
            bytes: m.counter("bb.place.bytes"),
            cost_before: m.counter("bb.place.cost_before"),
            cost_after: m.counter("bb.place.cost_after"),
        }
    }
}

/// Nanoseconds of extra topology latency a reader on `from` pays to the
/// nearest node of `replicas`. The transfer model charges
/// [`Fabric::topo_latency`] each way, but the relative ordering is all
/// the optimizer needs, so one-way cost is used throughout.
fn nearest_ns(fabric: &Fabric, from: NodeId, replicas: &[NodeId]) -> u64 {
    replicas
        .iter()
        .map(|&n| fabric.topo_latency(from, n).as_nanos() as u64)
        .min()
        .unwrap_or(0)
}

/// The optimizer's objective for one chunk: each reader's fetch count
/// weighted by the topology distance to its nearest replica, summed.
pub(crate) fn read_cost(fabric: &Fabric, readers: &[(u32, u64)], replicas: &[NodeId]) -> u64 {
    readers
        .iter()
        .map(|&(node, count)| count.saturating_mul(nearest_ns(fabric, NodeId(node), replicas)))
        .fold(0u64, u64::saturating_add)
}

/// Active ring servers in the key's ring preference order — the
/// deterministic candidate list every placement choice ranks over.
pub(crate) fn ring_order(view: &Membership, key: &[u8]) -> Vec<usize> {
    let ring = view.ring_snapshot();
    if ring.is_empty() {
        return Vec::new();
    }
    ring.route_n(key, view.active_len())
        .into_iter()
        .copied()
        .collect()
}

/// Rank `candidates` (roster indices) by a per-server cost, stable so the
/// incoming ring order breaks ties, and keep the first `r`.
pub(crate) fn rank_by_cost(
    candidates: &[usize],
    r: usize,
    mut cost: impl FnMut(usize) -> u64,
) -> Vec<usize> {
    let mut ranked: Vec<usize> = candidates.to_vec();
    ranked.sort_by_key(|&idx| cost(idx));
    ranked.truncate(r.max(1).min(candidates.len().max(1)));
    ranked
}

/// Write-time locality selection: the `r` active servers topologically
/// nearest to the writer, ring order breaking ties. `None` when the
/// choice coincides with the plain hash owners (no override needed) or
/// the ring is empty.
pub(crate) fn locality_targets(
    fabric: &Fabric,
    view: &Membership,
    from: NodeId,
    key: &[u8],
    r: usize,
) -> Option<Vec<usize>> {
    let order = ring_order(view, key);
    if order.is_empty() {
        return None;
    }
    let ranked = rank_by_cost(&order, r, |idx| {
        fabric
            .topo_latency(from, view.server(idx).node())
            .as_nanos() as u64
    });
    let hash: Vec<usize> = order.iter().take(ranked.len()).copied().collect();
    (ranked != hash).then_some(ranked)
}
