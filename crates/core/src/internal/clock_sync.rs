//! The connect-time clock handshake between a parent and one child
//! (DESIGN §11 "Clock-skew estimation"), as a plain state machine: the
//! node loop feeds it pongs and subtree tables, and sends or applies
//! what it returns.

use mrnet_packet::Rank;
use mrnet_transport::ClockEstimate;

use crate::proto::Control;

/// Ping exchanges each parent runs per child connection before
/// resolving the clock estimate (minimum-RTT sample wins). Pings are
/// sequential — the next fires as the previous pong lands — so queuing
/// behind one exchange never inflates the next one's RTT.
const CLOCK_PINGS: u8 = 4;

/// One rank's clock, `(rank, offset_us, rtt_us)`, relative to the clock
/// of the node that holds the entry.
pub(crate) type ClockEntry = (Rank, i64, u64);

/// What one pong asks of the node loop.
#[derive(Debug, PartialEq, Eq)]
pub(crate) enum PongStep {
    /// Send the next ping.
    Ping,
    /// The estimate is final. The entries (the child, then the subtree
    /// entries buffered so far, chained through it) are relative to
    /// this node's clock.
    Resolved(Vec<ClockEntry>),
    /// A pong after resolution: ignore it.
    Stray,
}

/// One child's side of the handshake.
#[derive(Debug, Default)]
pub(crate) struct ChildClock {
    /// Best (minimum-RTT) estimate so far; meaningless before the
    /// first exchange.
    best: ClockEstimate,
    /// Completed ping exchanges; the estimate is final at
    /// [`CLOCK_PINGS`].
    exchanged: u8,
    /// `ClockInfo` entries from this child's subtree, relative to the
    /// child's clock, held until the child's own estimate resolves
    /// (chaining needs it).
    buffered: Vec<ClockEntry>,
}

impl ChildClock {
    fn resolved(&self) -> bool {
        self.exchanged >= CLOCK_PINGS
    }

    /// Folds in one completed exchange with the child of rank `rank`.
    pub(crate) fn on_pong(&mut self, rank: Rank, est: ClockEstimate) -> PongStep {
        if self.resolved() {
            return PongStep::Stray;
        }
        if self.exchanged == 0 || est.better_than(&self.best) {
            self.best = est;
        }
        self.exchanged += 1;
        if !self.resolved() {
            return PongStep::Ping;
        }
        let best = self.best;
        let mut entries = vec![(rank, best.offset_us, best.rtt_us)];
        entries.extend(self.buffered.drain(..).map(|e| chain(best, e)));
        PongStep::Resolved(entries)
    }

    /// A subtree table from the child, relative to the child's clock:
    /// returns it chained through the child's estimate, or buffers it
    /// and returns nothing while that estimate is unresolved (clock
    /// sync runs bottom-up, so a table can arrive first).
    pub(crate) fn on_info(
        &mut self,
        ranks: Vec<Rank>,
        offsets_us: Vec<i64>,
        rtts_us: Vec<u64>,
    ) -> Vec<ClockEntry> {
        let entries = (ranks.into_iter().zip(offsets_us).zip(rtts_us))
            .map(|((rank, offset_us), rtt_us)| (rank, offset_us, rtt_us));
        if !self.resolved() {
            self.buffered.extend(entries);
            return Vec::new();
        }
        entries.map(|e| chain(self.best, e)).collect()
    }

    /// The child died: its buffered table can never resolve.
    pub(crate) fn forget(&mut self) {
        self.buffered.clear();
    }
}

/// `entry`, relative to a child whose clock is `est` relative to ours,
/// made relative to ours: offsets and RTTs add.
fn chain(est: ClockEstimate, (rank, offset_us, rtt_us): ClockEntry) -> ClockEntry {
    let chained = est.chain(&ClockEstimate { offset_us, rtt_us });
    (rank, chained.offset_us, chained.rtt_us)
}

/// The `ClockInfo` control that carries `entries` to the parent.
pub(crate) fn clock_info(entries: Vec<ClockEntry>) -> Control {
    let mut ranks = Vec::with_capacity(entries.len());
    let mut offsets_us = Vec::with_capacity(entries.len());
    let mut rtts_us = Vec::with_capacity(entries.len());
    for (rank, offset_us, rtt_us) in entries {
        ranks.push(rank);
        offsets_us.push(offset_us);
        rtts_us.push(rtt_us);
    }
    Control::ClockInfo {
        ranks,
        offsets_us,
        rtts_us,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const CHILD: Rank = 3;

    fn est(offset_us: i64, rtt_us: u64) -> ClockEstimate {
        ClockEstimate { offset_us, rtt_us }
    }

    /// Runs the handshake's pongs, the best (lowest-RTT) estimate
    /// `est(40, 10)` third, and returns the final step.
    fn resolve(clock: &mut ChildClock) -> PongStep {
        for e in [est(50, 30), est(45, 20), est(40, 10)] {
            assert_eq!(clock.on_pong(CHILD, e), PongStep::Ping);
        }
        clock.on_pong(CHILD, est(60, 25))
    }

    #[test]
    fn early_subtree_table_is_buffered_then_chained_through_the_estimate() {
        let mut clock = ChildClock::default();
        let early = clock.on_info(vec![7, 8], vec![-100, 5], vec![4, 6]);
        assert!(early.is_empty(), "no estimate yet: {early:?}");
        assert_eq!(
            resolve(&mut clock),
            PongStep::Resolved(vec![(CHILD, 40, 10), (7, -60, 14), (8, 45, 16)])
        );
        // Once resolved, a table is chained at once.
        assert_eq!(clock.on_info(vec![9], vec![1], vec![1]), vec![(9, 41, 11)]);
    }

    #[test]
    fn a_pong_after_resolution_is_ignored() {
        let mut clock = ChildClock::default();
        assert!(matches!(resolve(&mut clock), PongStep::Resolved(_)));
        assert_eq!(clock.on_pong(CHILD, est(0, 0)), PongStep::Stray);
        assert_eq!(
            clock.on_info(vec![9], vec![0], vec![0]),
            vec![(9, 40, 10)],
            "the stray pong changed the estimate"
        );
    }

    #[test]
    fn a_dead_childs_buffer_is_dropped() {
        let mut clock = ChildClock::default();
        assert!(clock.on_info(vec![7], vec![1], vec![1]).is_empty());
        clock.forget();
        assert_eq!(
            resolve(&mut clock),
            PongStep::Resolved(vec![(CHILD, 40, 10)])
        );
    }
}
