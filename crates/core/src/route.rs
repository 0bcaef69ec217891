//! Packet routing: which child leads to which end-points.
//!
//! During instantiation every process learns, per direct child, the
//! set of back-end ranks reachable through that child (the §2.5
//! subtree reports). [`RoutingTable`] answers the question the data
//! path asks: *which children does this stream involve, and which of
//! its end-points does each lead to?*

use std::collections::HashSet;

use mrnet_packet::Rank;

/// Per-child reachability, indexed by local child position.
#[derive(Debug, Clone, Default)]
pub struct RoutingTable {
    reachable: Vec<HashSet<Rank>>,
}

impl RoutingTable {
    /// An empty table (a back-end has no children).
    pub fn new() -> RoutingTable {
        RoutingTable::default()
    }

    /// Adds a child with the given reachable end-point set; returns its
    /// local child index.
    pub fn add_child(&mut self, reachable: impl IntoIterator<Item = Rank>) -> usize {
        self.reachable.push(reachable.into_iter().collect());
        self.reachable.len() - 1
    }

    /// Number of direct children.
    pub fn num_children(&self) -> usize {
        self.reachable.len()
    }

    /// True when there are no children.
    pub fn is_empty(&self) -> bool {
        self.reachable.is_empty()
    }

    /// All end-points reachable through any child, sorted.
    pub fn all_endpoints(&self) -> Vec<Rank> {
        let mut v: Vec<Rank> = self
            .reachable
            .iter()
            .flat_map(|s| s.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Each child that leads to at least one of `endpoints`, paired with
    /// the end-points it reaches ([`RoutingTable::targets_via`]), in
    /// child order.
    pub fn children_with_targets(&self, endpoints: &[Rank]) -> Vec<(usize, Vec<Rank>)> {
        (0..self.reachable.len())
            .filter_map(|c| {
                let targets = self.targets_via(c, endpoints);
                (!targets.is_empty()).then_some((c, targets))
            })
            .collect()
    }

    /// The end-points of `endpoints` reachable via `child`.
    pub fn targets_via(&self, child: usize, endpoints: &[Rank]) -> Vec<Rank> {
        endpoints
            .iter()
            .copied()
            .filter(|r| self.reachable[child].contains(r))
            .collect()
    }

    /// All end-points reachable via `child`, sorted — the subtree that
    /// is lost when the child's connection dies.
    pub fn reachable_via(&self, child: usize) -> Vec<Rank> {
        let mut v: Vec<Rank> = self.reachable[child].iter().copied().collect();
        v.sort_unstable();
        v
    }

    /// Removes failed end-points from every child's reachable set.
    /// Child indices stay stable (an emptied child keeps its slot), so
    /// routing indices held elsewhere remain valid after a failure.
    pub fn remove_endpoints(&mut self, dead: &[Rank]) {
        for set in &mut self.reachable {
            for r in dead {
                set.remove(r);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table() -> RoutingTable {
        let mut t = RoutingTable::new();
        t.add_child([1, 2]);
        t.add_child([3]);
        t.add_child([4, 5, 6]);
        t
    }

    #[test]
    fn all_endpoints_sorted_deduped() {
        assert_eq!(table().all_endpoints(), vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn children_for_selects_overlapping() {
        let t = table();
        assert_eq!(t.children_with_targets(&[3]), vec![(1, vec![3])]);
        assert!(t.children_with_targets(&[99]).is_empty());
        let all = t.children_with_targets(&[1, 3, 5]);
        assert_eq!(all, vec![(0, vec![1]), (1, vec![3]), (2, vec![5])]);
    }

    #[test]
    fn children_with_targets_pairs_children_and_ranks() {
        let t = table();
        assert_eq!(
            t.children_with_targets(&[2, 4, 6]),
            vec![(0, vec![2]), (2, vec![4, 6])]
        );
        assert!(t.children_with_targets(&[99]).is_empty());
    }

    #[test]
    fn targets_via_projects() {
        let t = table();
        assert_eq!(t.targets_via(2, &[5, 1, 6]), vec![5, 6]);
        assert!(t.targets_via(1, &[5]).is_empty());
    }

    #[test]
    fn child_serves() {
        let t = table();
        assert_eq!(t.targets_via(0, &[2]), vec![2]);
        assert!(t.targets_via(0, &[3]).is_empty());
    }

    #[test]
    fn reachable_via_is_sorted_subtree() {
        let t = table();
        assert_eq!(t.reachable_via(2), vec![4, 5, 6]);
        assert_eq!(t.reachable_via(1), vec![3]);
    }

    #[test]
    fn remove_endpoints_keeps_child_indices_stable() {
        let mut t = table();
        t.remove_endpoints(&[3, 5]);
        assert_eq!(t.num_children(), 3);
        assert_eq!(t.reachable_via(1), Vec::<Rank>::new());
        assert_eq!(t.reachable_via(2), vec![4, 6]);
        assert_eq!(t.all_endpoints(), vec![1, 2, 4, 6]);
        // Routing queries now skip the dead ranks.
        assert!(t.children_with_targets(&[3]).is_empty());
        assert_eq!(t.children_with_targets(&[5, 6]), vec![(2, vec![6])]);
    }

    #[test]
    fn empty_table() {
        let t = RoutingTable::new();
        assert!(t.is_empty());
        assert_eq!(t.num_children(), 0);
        assert!(t.all_endpoints().is_empty());
    }
}
