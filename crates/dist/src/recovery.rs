//! Failover bookkeeping: the standby address pool a coordinator promotes
//! from when a slot's retry budget runs dry, and the report of what
//! recovery work a coordinator has done.
//!
//! ## Why promotion preserves bit-identity
//!
//! Workers hold nothing per plan beyond their running `world_block` job,
//! and that job is a pure function of its request: the batch seed, the
//! block geometry and the slot.  A promoted standby is validated (graph
//! fingerprint + fleet slot) and sent the same job, which replays the
//! **identical world stream from world 0** and reproduces every block of
//! the slot bit for bit.  The coordinator keeps what it already has — the
//! blocks it folded and the statistics it recorded — and takes from the
//! standby only what is still missing, at the same offsets.  An adaptive
//! job is resubmitted with the epoch target the plan has reached, so the
//! standby replays every epoch already decided and pauses at the current
//! checkpoint; the stopping rule, which lives coordinator-side, never sees
//! a difference.

/// One completed failover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Failover {
    /// The fleet slot whose worker was replaced.
    pub shard: usize,
    /// Address of the worker that was lost.
    pub(crate) from: String,
    /// Standby address that took the slot over.
    pub to: String,
}

/// Cumulative recovery activity of one coordinator (across plans): how
/// often an exchange failed and burned a retry, and every standby
/// promotion that kept a plan alive.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Failed exchanges absorbed by the per-worker retry budgets.
    pub retries_burned: usize,
    /// Standby promotions, in the order they happened.
    pub failovers: Vec<Failover>,
}

impl RecoveryReport {
    /// Whether any recovery work happened at all.
    pub fn is_clean(&self) -> bool {
        self.retries_burned == 0 && self.failovers.is_empty()
    }
}

/// The pool of standby worker addresses a coordinator may promote.  Any
/// standby must serve the **same graph** (checked by fingerprint at
/// promotion) and be started with the fleet slot it is meant to cover —
/// promotion validates the slot, so a pool can mix standbys pre-armed for
/// different slots and each loss consumes the first candidate that
/// validates.
#[derive(Debug, Clone, Default)]
pub(crate) struct StandbyPool {
    addrs: Vec<String>,
}

impl StandbyPool {
    pub(crate) fn new(addrs: Vec<String>) -> StandbyPool {
        StandbyPool { addrs }
    }

    /// Number of unconsumed standby addresses.
    pub(crate) fn len(&self) -> usize {
        self.addrs.len()
    }

    /// The candidate addresses, in promotion order.
    pub(crate) fn candidates(&self) -> Vec<String> {
        self.addrs.clone()
    }

    /// Consumes a promoted (or invalidated) address: a standby serves at
    /// most one slot, and one that failed validation is not offered again.
    pub(crate) fn remove(&mut self, addr: &str) {
        self.addrs.retain(|candidate| candidate != addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_pool_consumes_promoted_addresses() {
        let mut pool = StandbyPool::new(vec!["a:1".to_string(), "b:2".to_string()]);
        assert_eq!(pool.len(), 2);
        assert_eq!(pool.candidates(), vec!["a:1", "b:2"]);
        pool.remove("a:1");
        assert_eq!(pool.candidates(), vec!["b:2"]);
        pool.remove("missing:9");
        assert_eq!(pool.len(), 1);
    }

    #[test]
    fn a_fresh_report_is_clean() {
        let mut report = RecoveryReport::default();
        assert!(report.is_clean());
        report.retries_burned += 1;
        assert!(!report.is_clean());
    }
}
