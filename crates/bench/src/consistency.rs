//! Test-only consistency checking for the KV chunk tier.
//!
//! A [`History`] collects one [`rkv::OpRecord`] per logical client
//! operation (installed via [`KvClient::set_observer`]); [`History::check`]
//! then decides whether the per-key histories are explainable by *some*
//! sequential order of the operations. The chunk tier's discipline is
//! simple — each chunk key is written with one immutable payload, read
//! back, and eventually deleted — so the checker needs only three rules:
//!
//! 1. **No invented values.** A get returning value-hash `h` must be
//!    covered by a set of `h` on the same key that *started* before the
//!    get *ended* (values cannot arrive from the future or from nowhere).
//!    Failed sets count as covering — an errored set may have landed on
//!    its server anyway, so its value is allowed (not required) to be
//!    visible.
//! 2. **No resurrection.** After a successful delete completes, a get
//!    that starts later must not return a value unless some set started
//!    after the delete began (concurrent ops may legally interleave
//!    either way; strictly-ordered ones may not).
//! 3. **No lost values** (optional, [`Checker::forbid_miss`]): a get
//!    returning `None` when a successful set completed strictly before it
//!    started and no delete or failure has intervened. Legal in suites
//!    that crash servers (a restarted server loses its memory) or run the
//!    buffer at eviction pressure; a hard violation in membership-change
//!    suites, where rebalancing must never drop an acknowledged chunk.
//!
//! All comparisons use virtual time, so verdicts are deterministic.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

use rkv::{KvClient, OpKind, OpRecord};

/// A shared recorder of logical KV operations. Clone the `Rc` and attach
/// it to as many clients as the scenario uses — records land in one log.
#[derive(Default)]
pub struct History {
    ops: RefCell<Vec<OpRecord>>,
}

impl History {
    pub fn new() -> Rc<History> {
        Rc::new(History::default())
    }

    /// Install this history as `client`'s observer.
    pub fn attach(self: &Rc<Self>, client: &KvClient) {
        let h = Rc::clone(self);
        client.set_observer(Rc::new(move |rec| h.ops.borrow_mut().push(rec)));
    }

    /// Number of operations recorded so far.
    pub fn len(&self) -> usize {
        self.ops.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.borrow().is_empty()
    }

    /// Run the checker over everything recorded so far.
    pub fn check(&self, checker: Checker) -> Verdict {
        checker.run(&self.ops.borrow())
    }
}

/// Checker policy knobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct Checker {
    /// Treat an unexplained `get -> None` as a violation (rule 3). Enable
    /// only when the scenario neither crashes servers nor evicts chunks.
    pub forbid_miss: bool,
}

/// Checker outcome: the rule-by-rule violation lists.
#[derive(Debug, Default)]
pub struct Verdict {
    /// Total operations inspected.
    pub ops: usize,
    /// Distinct keys inspected.
    pub keys: usize,
    /// Human-readable violation descriptions (empty = history explainable).
    pub violations: Vec<String>,
}

impl Verdict {
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

fn fmt_key(key: &[u8]) -> String {
    match std::str::from_utf8(key) {
        Ok(s) => s.to_string(),
        Err(_) => format!("{key:02x?}"),
    }
}

impl Checker {
    fn run(&self, ops: &[OpRecord]) -> Verdict {
        let mut by_key: BTreeMap<&[u8], Vec<&OpRecord>> = BTreeMap::new();
        for op in ops {
            by_key.entry(&op.key).or_default().push(op);
        }
        let mut v = Verdict {
            ops: ops.len(),
            keys: by_key.len(),
            violations: Vec::new(),
        };
        for (key, ops) in &by_key {
            self.check_key(key, ops, &mut v.violations);
        }
        v
    }

    fn check_key(&self, key: &[u8], ops: &[&OpRecord], out: &mut Vec<String>) {
        for op in ops {
            let OpKind::Get { hash } = op.kind else {
                continue;
            };
            if !op.ok {
                continue; // an errored get asserts nothing
            }
            match hash {
                Some(h) => {
                    // rule 1: some set of h must have started before this
                    // get ended (ok or not — failed sets are indeterminate
                    // and thus allowed to be visible)
                    let covered = ops.iter().any(|o| {
                        matches!(o.kind, OpKind::Set { hash } if hash == h) && o.start <= op.end
                    });
                    if !covered {
                        out.push(format!(
                            "key {}: get at {:?} returned value {h:#x} never written",
                            fmt_key(key),
                            op.end,
                        ));
                        continue;
                    }
                    // rule 2: no resurrection across a strictly-earlier
                    // successful delete, unless a set started after it
                    let resurrected = ops.iter().any(|d| {
                        matches!(d.kind, OpKind::Delete { .. })
                            && d.ok
                            && d.end < op.start
                            && !ops
                                .iter()
                                .any(|s| matches!(s.kind, OpKind::Set { .. }) && s.start >= d.start)
                    });
                    if resurrected {
                        out.push(format!(
                            "key {}: get at {:?} resurrected a deleted value",
                            fmt_key(key),
                            op.end,
                        ));
                    }
                }
                None => {
                    if !self.forbid_miss {
                        continue;
                    }
                    // rule 3: a successful set completed strictly before
                    // this get started, with no delete and no failed op
                    // anywhere on the key — the value must be visible
                    let established = ops
                        .iter()
                        .any(|s| matches!(s.kind, OpKind::Set { .. }) && s.ok && s.end < op.start);
                    let excusable = ops
                        .iter()
                        .any(|o| matches!(o.kind, OpKind::Delete { .. }) || !o.ok);
                    if established && !excusable {
                        out.push(format!(
                            "key {}: get at {:?} lost an acknowledged value",
                            fmt_key(key),
                            op.end,
                        ));
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use simkit::Time;

    fn rec(key: &str, kind: OpKind, start_us: u64, end_us: u64, ok: bool) -> OpRecord {
        OpRecord {
            key: Bytes::copy_from_slice(key.as_bytes()),
            kind,
            start: Time::from_micros(start_us),
            end: Time::from_micros(end_us),
            ok,
        }
    }

    #[test]
    fn clean_history_passes() {
        let ops = vec![
            rec("k", OpKind::Set { hash: 7 }, 0, 10, true),
            rec("k", OpKind::Get { hash: Some(7) }, 20, 30, true),
            rec("k", OpKind::Delete { found: true }, 40, 50, true),
            rec("k", OpKind::Get { hash: None }, 60, 70, true),
        ];
        let v = Checker { forbid_miss: true }.run(&ops);
        assert!(v.ok(), "{:?}", v.violations);
        assert_eq!((v.ops, v.keys), (4, 1));
    }

    #[test]
    fn invented_value_is_flagged() {
        let ops = vec![
            rec("k", OpKind::Set { hash: 7 }, 0, 10, true),
            rec("k", OpKind::Get { hash: Some(9) }, 20, 30, true),
        ];
        let v = Checker::default().run(&ops);
        assert_eq!(v.violations.len(), 1);
        assert!(v.violations[0].contains("never written"));
    }

    #[test]
    fn resurrection_is_flagged() {
        let ops = vec![
            rec("k", OpKind::Set { hash: 7 }, 0, 10, true),
            rec("k", OpKind::Delete { found: true }, 20, 30, true),
            rec("k", OpKind::Get { hash: Some(7) }, 40, 50, true),
        ];
        let v = Checker::default().run(&ops);
        assert_eq!(v.violations.len(), 1);
        assert!(v.violations[0].contains("resurrected"));
    }

    #[test]
    fn concurrent_delete_and_get_may_interleave() {
        // get overlaps the delete: either order is a legal explanation
        let ops = vec![
            rec("k", OpKind::Set { hash: 7 }, 0, 10, true),
            rec("k", OpKind::Delete { found: true }, 20, 40, true),
            rec("k", OpKind::Get { hash: Some(7) }, 30, 50, true),
        ];
        assert!(Checker::default().run(&ops).ok());
    }

    #[test]
    fn lost_value_only_flagged_when_miss_forbidden() {
        let ops = vec![
            rec("k", OpKind::Set { hash: 7 }, 0, 10, true),
            rec("k", OpKind::Get { hash: None }, 20, 30, true),
        ];
        assert!(Checker::default().run(&ops).ok());
        let v = Checker { forbid_miss: true }.run(&ops);
        assert_eq!(v.violations.len(), 1);
        assert!(v.violations[0].contains("lost"));
    }

    #[test]
    fn failed_set_is_indeterminate_both_ways() {
        // its value may be visible...
        let visible = vec![
            rec("k", OpKind::Set { hash: 7 }, 0, 10, false),
            rec("k", OpKind::Get { hash: Some(7) }, 20, 30, true),
        ];
        assert!(Checker { forbid_miss: true }.run(&visible).ok());
        // ...or absent, even with forbid_miss
        let absent = vec![
            rec("k", OpKind::Set { hash: 7 }, 0, 10, false),
            rec("k", OpKind::Get { hash: None }, 20, 30, true),
        ];
        assert!(Checker { forbid_miss: true }.run(&absent).ok());
    }
}
