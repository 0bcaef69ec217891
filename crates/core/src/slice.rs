//! Subtree configuration slices for process instantiation.
//!
//! §2.5: during recursive instantiation, "the first activity on this
//! connection is a message from parent to child containing the portion
//! of the configuration relevant to that child. The child then uses
//! this information to begin instantiation of the sub-tree rooted at
//! that child." A [`SubtreeSlice`] is that portion: the child's
//! subtree as parallel `(ranks, parents)` arrays carried by the
//! `Launch` control message.

use mrnet_packet::Rank;
use mrnet_topology::{NodeId, Placement, Topology};

use crate::error::{MrnetError, Result};

/// The configuration slice for one subtree, in BFS order with
/// `ranks[0]` being the subtree root and `parents[i]` the index (into
/// `ranks`) of node `i`'s parent (`u32::MAX` for the root).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubtreeSlice {
    /// Global ranks, BFS order.
    pub ranks: Vec<Rank>,
    /// Parent indices into `ranks`.
    pub parents: Vec<u32>,
}

impl SubtreeSlice {
    /// Extracts the slice for the subtree of `topology` rooted at
    /// `node`, using node indices as global ranks (the convention of
    /// this implementation's instantiation).
    pub fn of(topology: &Topology, node: NodeId) -> SubtreeSlice {
        let (sub, mapping) = topology.subtree(node);
        let ranks: Vec<Rank> = mapping.iter().map(|id| id.0 as Rank).collect();
        let parents: Vec<u32> = (0..sub.len())
            .map(|i| match sub.parent(NodeId(i)) {
                Some(p) => p.0 as u32,
                None => u32::MAX,
            })
            .collect();
        SubtreeSlice { ranks, parents }
    }

    /// Reconstructs the slice received in a `Launch` message into a
    /// navigable view.
    pub fn from_wire(ranks: Vec<Rank>, parents: Vec<u32>) -> Result<SubtreeView> {
        if ranks.is_empty() || ranks.len() != parents.len() || parents[0] != u32::MAX {
            return Err(MrnetError::Protocol("malformed subtree slice".into()));
        }
        let placements: Vec<Placement> = ranks
            .iter()
            .map(|r| Placement::new(format!("proc-{r}"), 0))
            .collect();
        let parent_opts: Vec<Option<usize>> = parents
            .iter()
            .map(|&p| {
                if p == u32::MAX {
                    None
                } else {
                    Some(p as usize)
                }
            })
            .collect();
        let topology = Topology::from_parts(placements, parent_opts)
            .map_err(|e| MrnetError::Protocol(format!("invalid subtree slice: {e}")))?;
        Ok(SubtreeView { topology, ranks })
    }

    /// This slice's view (convenience for locally built slices).
    pub fn view(&self) -> Result<SubtreeView> {
        SubtreeSlice::from_wire(self.ranks.clone(), self.parents.clone())
    }
}

/// A navigable reconstruction of a received subtree slice.
#[derive(Debug, Clone)]
pub struct SubtreeView {
    topology: Topology,
    ranks: Vec<Rank>,
}

impl SubtreeView {
    /// The rank of this subtree's root (the receiving process).
    pub fn my_rank(&self) -> Rank {
        self.ranks[0]
    }

    /// Total nodes in the subtree.
    pub fn len(&self) -> usize {
        self.ranks.len()
    }

    /// True for a single-node subtree (a back-end slice).
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Direct children of the root: `(global rank, is_backend)` in
    /// configuration order.
    pub fn children(&self) -> Vec<(Rank, bool)> {
        self.topology
            .children(self.topology.root())
            .iter()
            .map(|&c| (self.ranks[c.0], self.topology.children(c).is_empty()))
            .collect()
    }

    /// The slice to forward to the direct child with global rank
    /// `child_rank`.
    pub fn slice_for(&self, child_rank: Rank) -> Result<SubtreeSlice> {
        let child = self
            .topology
            .children(self.topology.root())
            .iter()
            .copied()
            .find(|c| self.ranks[c.0] == child_rank)
            .ok_or_else(|| {
                MrnetError::Protocol(format!("rank {child_rank} is not a direct child"))
            })?;
        let (sub, mapping) = self.topology.subtree(child);
        let ranks: Vec<Rank> = mapping.iter().map(|id| self.ranks[id.0]).collect();
        let parents: Vec<u32> = (0..sub.len())
            .map(|i| match sub.parent(NodeId(i)) {
                Some(p) => p.0 as u32,
                None => u32::MAX,
            })
            .collect();
        Ok(SubtreeSlice { ranks, parents })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrnet_topology::{generator, HostPool};

    fn topo() -> Topology {
        generator::balanced(2, 2, &mut HostPool::synthetic(16)).unwrap()
    }

    #[test]
    fn slice_of_root_covers_everything() {
        let t = topo();
        let slice = SubtreeSlice::of(&t, t.root());
        assert_eq!(slice.ranks.len(), 7);
        assert_eq!(slice.ranks[0], 0);
        assert_eq!(slice.parents[0], u32::MAX);
        let view = slice.view().unwrap();
        assert_eq!(view.my_rank(), 0);
        assert_eq!(view.topology.backends().len(), 4);
        let kids = view.children();
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|&(_, leaf)| !leaf));
    }

    #[test]
    fn slice_of_internal_child() {
        let t = topo();
        let first_internal = t.children(t.root())[0];
        let slice = SubtreeSlice::of(&t, first_internal);
        assert_eq!(slice.ranks.len(), 3);
        let view = slice.view().unwrap();
        assert_eq!(view.my_rank(), first_internal.0 as u32);
        let kids = view.children();
        assert_eq!(kids.len(), 2);
        assert!(kids.iter().all(|&(_, leaf)| leaf));
        assert_eq!(view.topology.backends().len(), 2);
    }

    #[test]
    fn recursive_slicing_matches_direct_extraction() {
        let t = generator::balanced(2, 3, &mut HostPool::synthetic(32)).unwrap();
        let root_slice = SubtreeSlice::of(&t, t.root());
        let view = root_slice.view().unwrap();
        for (child_rank, is_leaf) in view.children() {
            assert!(!is_leaf);
            let forwarded = view.slice_for(child_rank).unwrap();
            let direct = SubtreeSlice::of(&t, NodeId(child_rank as usize));
            assert_eq!(forwarded, direct);
            // And one level deeper.
            let child_view = forwarded.view().unwrap();
            for (grand_rank, _) in child_view.children() {
                let fwd2 = child_view.slice_for(grand_rank).unwrap();
                let dir2 = SubtreeSlice::of(&t, NodeId(grand_rank as usize));
                assert_eq!(fwd2, dir2);
            }
        }
    }

    #[test]
    fn slice_for_rejects_non_children() {
        let t = topo();
        let view = SubtreeSlice::of(&t, t.root()).view().unwrap();
        assert!(view.slice_for(999).is_err());
        // A grandchild is not a direct child.
        let grandchild = t.backends()[0];
        assert!(view.slice_for(grandchild.0 as u32).is_err());
    }

    #[test]
    fn from_wire_validates() {
        assert!(SubtreeSlice::from_wire(vec![], vec![]).is_err());
        assert!(SubtreeSlice::from_wire(vec![1], vec![0]).is_err()); // root parent must be MAX
        assert!(SubtreeSlice::from_wire(vec![1, 2], vec![u32::MAX]).is_err());
        // Cycle / bad parent index.
        assert!(SubtreeSlice::from_wire(vec![1, 2], vec![u32::MAX, 5]).is_err());
        assert!(SubtreeSlice::from_wire(vec![1, 2], vec![u32::MAX, 0]).is_ok());
    }
}
