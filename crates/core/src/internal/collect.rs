//! In-band metrics collections at one node (DESIGN §8 "In-band
//! introspection stream"), as a plain state machine: the node loop
//! starts them, feeds them child replies, deaths and the clock, and
//! delivers each collection it gets back finished.

use std::collections::HashMap;

use mrnet_obs::{MetricsSection, NetworkSnapshot};
use mrnet_transport::chan::Sender;

/// One collection: the sections gathered so far and which children
/// still owe a reply.
pub(crate) struct Collect {
    /// This node's own section, then child replies in arrival order.
    pub(crate) sections: Vec<MetricsSection>,
    /// Child indices whose replies are still outstanding.
    pub(crate) outstanding: Vec<usize>,
    /// Epoch-relative time after which the collection completes with
    /// the sections it has.
    deadline: f64,
    /// Where the result goes: the blocked front-end caller at the root,
    /// `None` at interior nodes, which reply to their parent.
    pub(crate) reply: Option<Sender<NetworkSnapshot>>,
}

/// A finished (or expired) collection and its request id.
pub(crate) type Finished = (u32, Collect);

/// The collections in flight at one node, keyed by request id.
#[derive(Default)]
pub(crate) struct Collects(HashMap<u32, Collect>);

impl Collects {
    /// Starts collection `req_id` with this node's own section, waiting
    /// on the `outstanding` children until `deadline`. Returns it
    /// finished at once when no child owes a reply.
    pub(crate) fn start(
        &mut self,
        req_id: u32,
        own: MetricsSection,
        outstanding: Vec<usize>,
        deadline: f64,
        reply: Option<Sender<NetworkSnapshot>>,
    ) -> Option<Finished> {
        let collect = Collect {
            sections: vec![own],
            outstanding,
            deadline,
            reply,
        };
        if collect.outstanding.is_empty() {
            return Some((req_id, collect));
        }
        self.0.insert(req_id, collect);
        None
    }

    /// Merges `child`'s reply into collection `req_id`, and returns the
    /// collection if that was the last one owed. A reply for an unknown
    /// id (a straggler past the deadline) is dropped.
    pub(crate) fn on_reply(
        &mut self,
        req_id: u32,
        child: usize,
        sections: Vec<MetricsSection>,
    ) -> Option<Finished> {
        let collect = self.0.get_mut(&req_id)?;
        collect.outstanding.retain(|&i| i != child);
        collect.sections.extend(sections);
        if !collect.outstanding.is_empty() {
            return None;
        }
        self.0.remove_entry(&req_id)
    }

    /// `child` died: no collection waits for it any longer. Returns the
    /// collections that were waiting only for it.
    pub(crate) fn forget_child(&mut self, child: usize) -> Vec<Finished> {
        for collect in self.0.values_mut() {
            collect.outstanding.retain(|&i| i != child);
        }
        self.take(|c| c.outstanding.is_empty())
    }

    /// Returns every collection whose deadline has passed, with the
    /// sections it has.
    pub(crate) fn expire(&mut self, now: f64) -> Vec<Finished> {
        self.take(|c| now >= c.deadline)
    }

    /// The deadlines of the collections in flight.
    pub(crate) fn deadlines(&self) -> impl Iterator<Item = f64> + '_ {
        self.0.values().map(|c| c.deadline)
    }

    fn take(&mut self, done: impl Fn(&Collect) -> bool) -> Vec<Finished> {
        if self.0.is_empty() {
            return Vec::new();
        }
        let ids: Vec<u32> = self
            .0
            .iter()
            .filter(|(_, c)| done(c))
            .map(|(&id, _)| id)
            .collect();
        ids.iter()
            .filter_map(|id| self.0.remove_entry(id))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ranks(collect: &Collect) -> Vec<u32> {
        collect.sections.iter().map(|s| s.rank).collect()
    }

    #[test]
    fn a_dead_child_stops_being_awaited() {
        let mut collects = Collects::default();
        assert!(collects
            .start(1, MetricsSection::new(0), vec![0, 1], 10.0, None)
            .is_none());
        assert!(collects
            .start(2, MetricsSection::new(0), vec![0], 10.0, None)
            .is_none());
        assert!(collects
            .on_reply(1, 0, vec![MetricsSection::new(4)])
            .is_none());
        let done = collects.forget_child(1);
        assert_eq!(done.len(), 1, "only collection 1 waited on child 1 alone");
        let (req_id, collect) = &done[0];
        assert_eq!(*req_id, 1);
        assert_eq!(ranks(collect), vec![0, 4]);
        assert!(collect.outstanding.is_empty());
        // Collection 2 still waits on child 0.
        assert_eq!(collects.deadlines().count(), 1);
    }

    #[test]
    fn an_expired_collection_answers_with_the_sections_it_has() {
        let mut collects = Collects::default();
        assert!(collects
            .start(7, MetricsSection::new(0), vec![0, 1], 5.0, None)
            .is_none());
        assert!(collects
            .on_reply(7, 1, vec![MetricsSection::new(9), MetricsSection::new(10)])
            .is_none());
        assert!(collects.expire(4.9).is_empty());
        let done = collects.expire(5.0);
        assert_eq!(done.len(), 1);
        let (req_id, collect) = &done[0];
        assert_eq!(*req_id, 7);
        assert_eq!(ranks(collect), vec![0, 9, 10]);
        assert_eq!(collect.outstanding, vec![0]);
        // The straggler's reply finds nothing to join.
        assert!(collects
            .on_reply(7, 0, vec![MetricsSection::new(3)])
            .is_none());
        assert_eq!(collects.deadlines().count(), 0);
    }

    #[test]
    fn a_collection_with_no_children_finishes_at_once() {
        let mut collects = Collects::default();
        let (req_id, collect) = collects
            .start(3, MetricsSection::new(2), Vec::new(), 1.0, None)
            .expect("nothing to wait for");
        assert_eq!((req_id, ranks(&collect)), (3, vec![2]));
        assert_eq!(collects.deadlines().count(), 0);
    }
}
