//! Topology events: how a tool learns that part of its tree died.
//!
//! MRNet delivers failures as *events*, not errors: the front-end (and
//! each back-end) owns an event queue that the node loops feed as
//! rank-death reports propagate through the tree. Tools poll or block
//! on the queue ([`crate::Network::next_event_timeout`],
//! [`crate::Backend::try_next_event`]) and adapt — typically by
//! noting which streams shrank and continuing with the survivors.

use std::collections::BTreeSet;
use std::sync::Mutex;

use mrnet_obs::Unpoisoned;
use mrnet_packet::Rank;
use mrnet_transport::chan::{unbounded, Receiver, Sender};

/// A change in the shape of the overlay tree, observed from one
/// process's vantage point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyEvent {
    /// A tree node died. `rank` is the process whose connection was
    /// lost; `subtree` is every back-end end-point that became
    /// unreachable as a result (for a back-end death, just itself; for
    /// an internal node, its whole leaf set). Sorted, deduplicated.
    RankFailed {
        /// The rank whose connection died.
        rank: Rank,
        /// Every back-end rank lost with it (including `rank` itself
        /// when it is a back-end).
        subtree: Vec<Rank>,
    },
}

/// A tool's record of confirmed failures: an event queue the tool
/// consumes plus the cumulative set of failed ranks (so late readers
/// see deaths that happened before they first asked). The root node
/// loop fills the one it shares with the [`crate::Network`] handle; a
/// [`crate::Backend`] fills its own from the reports relayed down to
/// it.
#[derive(Debug)]
pub struct FailureLedger {
    tx: Sender<TopologyEvent>,
    rx: Receiver<TopologyEvent>,
    failed: Mutex<BTreeSet<Rank>>,
}

impl Default for FailureLedger {
    fn default() -> FailureLedger {
        FailureLedger::new()
    }
}

impl FailureLedger {
    /// An empty ledger.
    pub fn new() -> FailureLedger {
        let (tx, rx) = unbounded();
        FailureLedger {
            tx,
            rx,
            failed: Mutex::new(BTreeSet::new()),
        }
    }

    /// Records a confirmed failure and queues the event for the tool.
    /// Ranks already recorded are still re-announced (the event carries
    /// the reporter's view); the cumulative set deduplicates.
    pub fn report(&self, rank: Rank, subtree: Vec<Rank>) {
        {
            let mut failed = self.failed.lock().unpoisoned();
            failed.insert(rank);
            failed.extend(subtree.iter().copied());
        }
        // Send can only fail if the receiver half is gone, which cannot
        // happen while `self` holds it.
        let _ = self.tx.send(TopologyEvent::RankFailed { rank, subtree });
    }

    /// The event queue's receiving half, for blocking/timeout reads.
    pub fn events(&self) -> &Receiver<TopologyEvent> {
        &self.rx
    }

    /// Every rank ever reported failed, sorted.
    pub fn failed_ranks(&self) -> Vec<Rank> {
        self.failed.lock().unpoisoned().iter().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn report_queues_event_and_accumulates() {
        let ledger = FailureLedger::new();
        assert!(ledger.failed_ranks().is_empty());
        ledger.report(3, vec![5, 6]);
        ledger.report(7, vec![7]);
        assert_eq!(ledger.failed_ranks(), vec![3, 5, 6, 7]);
        let ev = ledger.events().try_recv().unwrap();
        assert_eq!(
            ev,
            TopologyEvent::RankFailed {
                rank: 3,
                subtree: vec![5, 6]
            }
        );
        assert!(ledger.events().try_recv().is_ok());
        assert!(ledger.events().try_recv().is_err());
    }

    #[test]
    fn events_support_timeout_reads() {
        let ledger = FailureLedger::new();
        assert!(ledger
            .events()
            .recv_timeout(Duration::from_millis(10))
            .is_err());
        ledger.report(1, vec![1]);
        assert!(ledger
            .events()
            .recv_timeout(Duration::from_millis(10))
            .is_ok());
    }
}
