//! Epoch-versioned membership for the KV tier.
//!
//! A [`Membership`] is the single shared source of truth for which KV
//! servers are on the consistent-hash ring. Clients route through it on
//! every operation, so a server joining or draining takes effect
//! immediately — no client rebuild, no restart. Each change bumps a
//! monotonically increasing *epoch*; callers that resolved a replica set
//! under an older epoch can detect the bump (the burst buffer's lookup
//! widens to the whole roster once it has moved).
//!
//! Two index spaces matter:
//!
//! * the **roster** is append-only: every server ever admitted keeps its
//!   index for the lifetime of the view, so connections, direct reads
//!   ([`crate::KvClient::get_from`]) and repair writes addressed by index
//!   stay valid while a drained server still holds data awaiting
//!   migration;
//! * the **active set** is the subset of roster indices currently on the
//!   ring — only these receive routed traffic.
//!
//! Ring identity comes from the label `kv-server-{node}` (as in
//! [`crate::KvClient::new`]), so a view over the same servers produces
//! byte-identical placement to a frozen client, and re-admitting a
//! drained server restores its old ring points exactly.

use std::cell::{Cell, RefCell};
use std::collections::BTreeMap;
use std::rc::Rc;

use netsim::NodeId;

use crate::client::VNODES;
use crate::hash::HashRing;
use crate::server::KvServer;

/// Shared, epoch-versioned view of the KV server ring.
pub struct Membership {
    epoch: Cell<u64>,
    roster: RefCell<Vec<Rc<KvServer>>>,
    active: RefCell<Vec<usize>>,
    ring: RefCell<HashRing<usize>>,
    // Per-key placement overrides (primary first), installed by a
    // placement policy. BTreeMap: deterministic iteration for replay.
    overrides: RefCell<BTreeMap<Vec<u8>, Vec<usize>>>,
}

impl Membership {
    /// Build a view with every server active, at epoch 0. Placement is
    /// identical to a frozen [`crate::KvClient`] over the same servers.
    pub fn new(servers: Vec<Rc<KvServer>>) -> Rc<Membership> {
        assert!(!servers.is_empty(), "membership needs at least one server");
        let active: Vec<usize> = (0..servers.len()).collect();
        let ring = Self::build_ring(&servers, &active);
        Rc::new(Membership {
            epoch: Cell::new(0),
            roster: RefCell::new(servers),
            active: RefCell::new(active),
            ring: RefCell::new(ring),
            overrides: RefCell::new(BTreeMap::new()),
        })
    }

    fn build_ring(roster: &[Rc<KvServer>], active: &[usize]) -> HashRing<usize> {
        let labels: Vec<String> = active
            .iter()
            .map(|&i| format!("kv-server-{}", roster[i].node().0))
            .collect();
        HashRing::new(active.to_vec(), &labels, VNODES)
    }

    fn rebuild(&self) {
        let roster = self.roster.borrow();
        let active = self.active.borrow();
        *self.ring.borrow_mut() = Self::build_ring(&roster, &active);
        drop(active);
        drop(roster);
        self.epoch.set(self.epoch.get() + 1);
    }

    /// Current epoch; bumped by every successful join or drain.
    pub fn epoch(&self) -> u64 {
        self.epoch.get()
    }

    /// Every server ever admitted (drained ones included), by stable index.
    pub fn roster_len(&self) -> usize {
        self.roster.borrow().len()
    }

    /// Servers currently on the ring.
    pub fn active_len(&self) -> usize {
        self.active.borrow().len()
    }

    /// The server at roster index `idx`.
    pub fn server(&self, idx: usize) -> Rc<KvServer> {
        Rc::clone(&self.roster.borrow()[idx])
    }

    /// Whether roster index `idx` is on the ring.
    pub fn is_active(&self, idx: usize) -> bool {
        self.active.borrow().contains(&idx)
    }

    /// Roster index of the server on fabric node `node`, if admitted.
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        self.roster.borrow().iter().position(|s| s.node() == node)
    }

    /// Admit `server` to the ring. A re-admitted drained server regains
    /// its old roster index (and, via its label, its old ring points).
    /// Returns the roster index; bumps the epoch unless the server was
    /// already active.
    pub fn add_server(&self, server: Rc<KvServer>) -> usize {
        let idx = match self.index_of(server.node()) {
            Some(i) => i,
            None => {
                let mut roster = self.roster.borrow_mut();
                roster.push(server);
                roster.len() - 1
            }
        };
        {
            let mut active = self.active.borrow_mut();
            if active.contains(&idx) {
                return idx;
            }
            active.push(idx);
            active.sort_unstable();
        }
        self.rebuild();
        idx
    }

    /// Take the server on `node` off the ring. It stays in the roster —
    /// index-addressed reads keep working while its chunks migrate.
    /// Returns `false` (view unchanged) if the node is not active or is
    /// the last active server.
    pub fn drain_server(&self, node: NodeId) -> bool {
        let Some(idx) = self.index_of(node) else {
            return false;
        };
        {
            let mut active = self.active.borrow_mut();
            if active.len() <= 1 {
                return false;
            }
            let Some(pos) = active.iter().position(|&i| i == idx) else {
                return false;
            };
            active.remove(pos);
        }
        self.rebuild();
        true
    }

    /// Roster index of the active server owning `key`, or `None` on an
    /// empty ring. A live placement override wins over the hash ring.
    pub fn route(&self, key: &[u8]) -> Option<usize> {
        if let Some(primary) = self.override_live(key).and_then(|v| v.first().copied()) {
            return Some(primary);
        }
        let ring = self.ring.borrow();
        if ring.is_empty() {
            return None;
        }
        Some(*ring.route(key))
    }

    /// The first `n` distinct active servers clockwise from `key`'s ring
    /// position (capped at the active count). A live placement override
    /// wins over the hash ring (capped at `n`).
    pub fn route_n(&self, key: &[u8], n: usize) -> Vec<usize> {
        if let Some(mut ovr) = self.override_live(key) {
            ovr.truncate(n);
            if !ovr.is_empty() {
                return ovr;
            }
        }
        self.hash_owners(key, n)
    }

    /// `key`'s hash owners: the first `n` distinct active servers
    /// clockwise from its ring position (capped at the active count),
    /// whatever override is installed.
    pub fn hash_owners(&self, key: &[u8], n: usize) -> Vec<usize> {
        let ring = self.ring.borrow();
        if ring.is_empty() {
            return Vec::new();
        }
        ring.route_n(key, n).into_iter().copied().collect()
    }

    /// Install a placement override: `key` routes to `targets` (primary
    /// first) instead of its hash owners until cleared. Targets must be
    /// roster indices; an override only takes routing effect while every
    /// target is active, so a drain can never strand traffic on a dead
    /// ring position.
    pub fn set_override(&self, key: &[u8], targets: Vec<usize>) {
        assert!(!targets.is_empty(), "placement override needs a target");
        let roster_len = self.roster.borrow().len();
        assert!(
            targets.iter().all(|&i| i < roster_len),
            "override target outside roster"
        );
        self.overrides.borrow_mut().insert(key.to_vec(), targets);
    }

    /// Remove `key`'s placement override (no-op when absent).
    pub fn clear_override(&self, key: &[u8]) {
        self.overrides.borrow_mut().remove(key);
    }

    /// The installed override for `key`, live or not.
    pub fn override_of(&self, key: &[u8]) -> Option<Vec<usize>> {
        self.overrides.borrow().get(key).cloned()
    }

    /// Installed overrides (live or not).
    pub fn overrides_len(&self) -> usize {
        self.overrides.borrow().len()
    }

    /// The override for `key` if every target is currently active.
    fn override_live(&self, key: &[u8]) -> Option<Vec<usize>> {
        let overrides = self.overrides.borrow();
        let targets = overrides.get(key)?;
        let active = self.active.borrow();
        targets
            .iter()
            .all(|i| active.contains(i))
            .then(|| targets.clone())
    }

    /// Clone of the current ring (roster indices as members) — the
    /// reconciler's epoch trigger diffs this against the ring it last
    /// processed to find the keys whose owners changed.
    pub fn ring_snapshot(&self) -> HashRing<usize> {
        self.ring.borrow().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::KvServerConfig;
    use netsim::{Fabric, NetConfig};
    use rdmasim::RdmaStack;
    use simkit::Sim;

    fn servers(n: usize) -> Vec<Rc<KvServer>> {
        let sim = Sim::new();
        let fabric = Fabric::new(sim, n, NetConfig::default());
        let stack = RdmaStack::new(fabric);
        (0..n)
            .map(|i| {
                KvServer::new(
                    Rc::clone(&stack),
                    NodeId(i as u32),
                    KvServerConfig::default(),
                )
            })
            .collect()
    }

    #[test]
    fn matches_frozen_placement_at_epoch_zero() {
        let srv = servers(4);
        let view = Membership::new(srv.clone());
        let labels: Vec<String> = srv
            .iter()
            .map(|s| format!("kv-server-{}", s.node().0))
            .collect();
        let frozen = HashRing::new((0..srv.len()).collect(), &labels, VNODES);
        for i in 0..500u32 {
            let k = format!("f1:{i}");
            assert_eq!(view.route(k.as_bytes()), Some(*frozen.route(k.as_bytes())));
        }
        assert_eq!(view.epoch(), 0);
    }

    #[test]
    fn join_bumps_epoch_and_remaps_about_one_nth() {
        let mut srv = servers(9);
        let extra = srv.pop().unwrap();
        let view = Membership::new(srv);
        let before: Vec<usize> = (0..4000u32)
            .map(|i| view.route(format!("k{i}").as_bytes()).unwrap())
            .collect();
        let idx = view.add_server(extra);
        assert_eq!(idx, 8);
        assert_eq!(view.epoch(), 1);
        assert_eq!(view.active_len(), 9);
        let moved = (0..4000u32)
            .filter(|&i| view.route(format!("k{i}").as_bytes()).unwrap() != before[i as usize])
            .count();
        let frac = moved as f64 / 4000.0;
        assert!(frac < 0.2, "remap fraction {frac}");
        assert!(frac > 0.03, "suspiciously little movement: {frac}");
    }

    #[test]
    fn drain_keeps_roster_index_and_rejoin_restores_placement() {
        let srv = servers(4);
        let view = Membership::new(srv);
        let before: Vec<usize> = (0..1000u32)
            .map(|i| view.route(format!("k{i}").as_bytes()).unwrap())
            .collect();
        assert!(view.drain_server(NodeId(2)));
        assert_eq!(view.epoch(), 1);
        assert_eq!(view.active_len(), 3);
        assert_eq!(view.roster_len(), 4, "drained server stays addressable");
        assert!(!view.is_active(2));
        for i in 0..1000u32 {
            assert_ne!(view.route(format!("k{i}").as_bytes()), Some(2));
        }
        // re-admit: same roster index, placement identical to the start
        let s2 = view.server(2);
        assert_eq!(view.add_server(s2), 2);
        assert_eq!(view.epoch(), 2);
        for i in 0..1000u32 {
            assert_eq!(
                view.route(format!("k{i}").as_bytes()),
                Some(before[i as usize])
            );
        }
    }

    #[test]
    fn drain_refuses_last_server_and_unknown_nodes() {
        let srv = servers(2);
        let view = Membership::new(srv);
        assert!(!view.drain_server(NodeId(9)), "unknown node");
        assert!(view.drain_server(NodeId(0)));
        assert!(!view.drain_server(NodeId(1)), "last active server");
        assert_eq!(view.active_len(), 1);
        assert!(!view.drain_server(NodeId(0)), "already drained");
    }

    #[test]
    fn overrides_win_over_the_ring_only_while_live() {
        let srv = servers(4);
        let view = Membership::new(srv);
        let hash_owners = view.route_n(b"k", 2);
        let desired: Vec<usize> = (0..4).filter(|i| !hash_owners.contains(i)).collect();
        view.set_override(b"k", desired.clone());
        assert_eq!(view.route_n(b"k", 2), desired);
        assert_eq!(view.route(b"k"), Some(desired[0]));
        assert_eq!(view.route_n(b"k", 1), vec![desired[0]], "capped at n");
        // other keys are untouched
        assert_eq!(view.route_n(b"other", 2).len(), 2);
        assert_eq!(view.overrides_len(), 1);
        // drain a target: the override goes dormant, hash placement rules
        let node = view.server(desired[0]).node();
        assert!(view.drain_server(node));
        assert_ne!(view.route(b"k"), Some(desired[0]));
        assert_eq!(view.override_of(b"k"), Some(desired), "still installed");
        // re-admit: the override resumes
        let s = view.server(view.index_of(node).unwrap());
        view.add_server(s);
        assert_eq!(view.route(b"k"), view.override_of(b"k").map(|v| v[0]));
        view.clear_override(b"k");
        assert_eq!(view.route_n(b"k", 2), hash_owners);
        assert_eq!(view.overrides_len(), 0);
    }

    #[test]
    fn route_n_follows_the_live_active_count() {
        let mut srv = servers(4);
        let extra = srv.pop().unwrap();
        let view = Membership::new(srv);
        assert_eq!(view.route_n(b"k", 4).len(), 3, "capped at active count");
        view.add_server(extra);
        assert_eq!(view.route_n(b"k", 4).len(), 4, "cap grows with a join");
        let reps = view.route_n(b"k", 2);
        assert_eq!(reps[0], view.route(b"k").unwrap());
    }
}
