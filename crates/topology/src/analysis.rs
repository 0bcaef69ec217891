//! LogP cost analysis of MRNet topologies.
//!
//! §2.6 analyzes topology trade-offs under the LogP model: "Assuming a
//! LogP model with a minimum gap g between successive send operations
//! in a process, an overhead o for each send and receive, and a message
//! transfer latency L, the time required to complete a broadcast
//! operation to all sixteen back-ends using the balanced tree topology
//! … is 8g + 4o + 2L, but the tool can start a new broadcast each 4g
//! cycles."
//!
//! Under that accounting a node with `k` children spends `k·g` issuing
//! sends, the last message costs one send overhead `o`, travels for
//! `L`, and costs one receive overhead `o` — so the per-level cost is
//! `k·g + 2o + L`, and a child in send position `i` (1-based) receives
//! at `i·g + 2o + L` after its parent starts. This module evaluates
//! that model on arbitrary trees, giving single-operation latency and
//! the pipelined inter-operation interval used to compare Figure 4's
//! balanced and unbalanced topologies.

use mrnet_sim::LogGpParams;

use crate::spec::{NodeId, Topology};

/// Structural statistics of a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TreeStats {
    /// Total processes.
    pub processes: usize,
    /// Back-end (leaf) count.
    pub backends: usize,
    /// Internal (non-root, non-leaf) count.
    pub internals: usize,
    /// Tree depth (flat topology = 1).
    pub depth: usize,
    /// Maximum fan-out over all nodes.
    pub max_fanout: usize,
    /// Fan-out at the root.
    pub root_fanout: usize,
}

impl TreeStats {
    /// Computes statistics for a topology.
    pub fn of(topology: &Topology) -> TreeStats {
        TreeStats {
            processes: topology.len(),
            backends: topology.num_backends(),
            internals: topology.num_internals(),
            depth: topology.depth(),
            max_fanout: topology.max_fanout(),
            root_fanout: topology.root_fanout(),
        }
    }
}

/// Per-node completion times for one collective operation.
fn downstream_arrival_times(topology: &Topology, params: &LogGpParams) -> Vec<f64> {
    // arrival[i] = time node i has fully received the broadcast message
    // (root at t=0 by definition).
    let mut arrival = vec![0.0f64; topology.len()];
    for id in topology.bfs() {
        let start = arrival[id.0];
        for (i, &child) in topology.children(id).iter().enumerate() {
            let position = (i + 1) as f64;
            arrival[child.0] =
                start + position * params.gap + 2.0 * params.overhead + params.latency;
        }
    }
    arrival
}

/// Latency of a single broadcast from the front-end to the last
/// back-end, under the paper's LogP accounting.
pub fn broadcast_latency(topology: &Topology, params: &LogGpParams) -> f64 {
    let arrival = downstream_arrival_times(topology, params);
    topology
        .backends()
        .into_iter()
        .map(|id| arrival[id.0])
        .fold(0.0, f64::max)
}

/// Latency of a single reduction from all back-ends to the front-end.
///
/// The model is the mirror image of broadcast: a parent with `k`
/// children spends `k·g` draining its inbound connections, pays `2o +
/// L` for the last message, and cannot forward upstream until its
/// slowest child has forwarded. All back-ends start at t = 0.
pub fn reduction_latency(topology: &Topology, params: &LogGpParams) -> f64 {
    fn done(topology: &Topology, id: NodeId, params: &LogGpParams) -> f64 {
        let children = topology.children(id);
        if children.is_empty() {
            return 0.0;
        }
        let slowest = children
            .iter()
            .map(|&c| done(topology, c, params))
            .fold(0.0, f64::max);
        slowest + children.len() as f64 * params.gap + 2.0 * params.overhead + params.latency
    }
    done(topology, topology.root(), params)
}

/// Latency of one broadcast immediately followed by one reduction (the
/// Figure 7b micro-benchmark's round trip).
pub fn roundtrip_latency(topology: &Topology, params: &LogGpParams) -> f64 {
    broadcast_latency(topology, params) + reduction_latency(topology, params)
}

/// Minimum interval between successive collective operations when they
/// are pipelined through the tree.
///
/// Each node needs `k·g` per operation to service its `k` connections;
/// the busiest node is the pipeline bottleneck. For Figure 4a (4-way
/// balanced) this is `4g`; for Figure 4b's six-way root it is `6g`.
pub fn pipeline_interval(topology: &Topology, params: &LogGpParams) -> f64 {
    let max_fanout = topology.max_fanout() as f64;
    max_fanout * params.gap
}

/// Sustained throughput (operations/second) of pipelined collective
/// operations: the reciprocal of [`pipeline_interval`].
pub fn pipeline_throughput(topology: &Topology, params: &LogGpParams) -> f64 {
    1.0 / pipeline_interval(topology, params)
}

/// The Figure 4 comparison for a pair of topologies: single-operation
/// latency and pipelined interval for each.
#[derive(Debug, Clone, Copy)]
pub struct Fig4Row {
    /// Broadcast latency of the balanced topology.
    pub balanced_latency: f64,
    /// Pipelined interval of the balanced topology.
    pub balanced_interval: f64,
    /// Broadcast latency of the unbalanced topology.
    pub unbalanced_latency: f64,
    /// Pipelined interval of the unbalanced topology.
    pub unbalanced_interval: f64,
}

/// Evaluates both Figure 4 topologies under the given parameters.
pub fn fig4_comparison(params: &LogGpParams) -> Fig4Row {
    let mut pool_a = crate::hosts::HostPool::synthetic(32);
    let mut pool_b = crate::hosts::HostPool::synthetic(32);
    let balanced = crate::generator::fig4_balanced(&mut pool_a).expect("static shape");
    let unbalanced = crate::generator::fig4_unbalanced(&mut pool_b).expect("static shape");
    Fig4Row {
        balanced_latency: broadcast_latency(&balanced, params),
        balanced_interval: pipeline_interval(&balanced, params),
        unbalanced_latency: broadcast_latency(&unbalanced, params),
        unbalanced_interval: pipeline_interval(&unbalanced, params),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{balanced, fig4_balanced, fig4_unbalanced, flat};
    use crate::hosts::HostPool;

    fn pool() -> HostPool {
        HostPool::synthetic(64)
    }

    #[test]
    fn paper_expression_for_balanced_fig4a() {
        // 8g + 4o + 2L for the 4-ary depth-2 tree.
        let t = fig4_balanced(&mut pool()).unwrap();
        let p = LogGpParams {
            latency: 13.0,
            overhead: 3.0,
            gap: 5.0,
            big_gap: 0.0,
        };
        let expected = 8.0 * p.gap + 4.0 * p.overhead + 2.0 * p.latency;
        assert!((broadcast_latency(&t, &p) - expected).abs() < 1e-9);
        // "the tool can start a new broadcast each 4g cycles"
        assert!((pipeline_interval(&t, &p) - 4.0 * p.gap).abs() < 1e-9);
    }

    #[test]
    fn unbalanced_root_needs_6g() {
        let t = fig4_unbalanced(&mut pool()).unwrap();
        let p = LogGpParams::unit();
        assert!((pipeline_interval(&t, &p) - 6.0).abs() < 1e-9);
    }

    #[test]
    fn unbalanced_single_broadcast_can_beat_balanced() {
        // "Depending on the relative values of g, o, and L, a single
        // broadcast operation using this topology may complete before
        // the balanced tree's broadcast" — true when g dominates L,
        // because the binomial shape amortizes send serialization.
        let p = LogGpParams {
            latency: 1.0,
            overhead: 1.0,
            gap: 100.0,
            big_gap: 0.0,
        };
        let row = fig4_comparison(&p);
        assert!(
            row.unbalanced_latency < row.balanced_latency,
            "unbalanced {} vs balanced {}",
            row.unbalanced_latency,
            row.balanced_latency
        );
        // But its pipelined interval is worse.
        assert!(row.unbalanced_interval > row.balanced_interval);
    }

    #[test]
    fn flat_latency_grows_linearly() {
        let p = LogGpParams::unit();
        let l64 = broadcast_latency(&flat(64, &mut pool()).unwrap(), &p);
        let l128 = broadcast_latency(&flat(128, &mut HostPool::synthetic(256)).unwrap(), &p);
        // Dominated by N·g serialization.
        assert!(l128 > 1.9 * l64 - 10.0);
    }

    #[test]
    fn tree_latency_grows_logarithmically() {
        let p = LogGpParams::unit();
        let mut pool = HostPool::synthetic(2048);
        let d2 = broadcast_latency(&balanced(8, 2, &mut pool).unwrap(), &p); // 64 BEs
        let d3 = broadcast_latency(&balanced(8, 3, &mut pool).unwrap(), &p); // 512 BEs
                                                                             // One extra level adds one level cost, not 8x.
        let level_cost = 8.0 * p.gap + 2.0 * p.overhead + p.latency;
        assert!((d3 - d2 - level_cost).abs() < 1e-9);
    }

    #[test]
    fn reduction_mirrors_broadcast_on_symmetric_trees() {
        let p = LogGpParams {
            latency: 2.0,
            overhead: 0.5,
            gap: 1.5,
            big_gap: 0.0,
        };
        let t = balanced(4, 3, &mut HostPool::synthetic(256)).unwrap();
        let b = broadcast_latency(&t, &p);
        let r = reduction_latency(&t, &p);
        assert!((b - r).abs() < 1e-9, "broadcast {b} vs reduction {r}");
    }

    #[test]
    fn roundtrip_is_sum() {
        let p = LogGpParams::unit();
        let t = balanced(4, 2, &mut pool()).unwrap();
        assert!(
            (roundtrip_latency(&t, &p) - broadcast_latency(&t, &p) - reduction_latency(&t, &p))
                .abs()
                < 1e-12
        );
    }

    #[test]
    fn throughput_is_reciprocal_interval() {
        let p = LogGpParams {
            latency: 1.0,
            overhead: 1.0,
            gap: 0.25,
            big_gap: 0.0,
        };
        let t = balanced(8, 2, &mut pool()).unwrap();
        let thr = pipeline_throughput(&t, &p);
        assert!((thr - 1.0 / (8.0 * 0.25)).abs() < 1e-9);
    }

    #[test]
    fn flat_throughput_collapses_with_scale() {
        let p = LogGpParams::unit();
        let flat512 = flat(512, &mut HostPool::synthetic(600)).unwrap();
        let tree512 = balanced(8, 3, &mut HostPool::synthetic(600)).unwrap();
        assert!(pipeline_throughput(&tree512, &p) > 50.0 * pipeline_throughput(&flat512, &p));
    }

    #[test]
    fn loggp_message_time() {
        let p = LogGpParams {
            latency: 10.0,
            overhead: 1.0,
            gap: 1.0,
            big_gap: 0.5,
        };
        assert!((p.wire_time(1) - 12.0).abs() < 1e-9);
        assert!((p.wire_time(101) - 62.0).abs() < 1e-9);
    }

    #[test]
    fn tree_stats() {
        let t = balanced(4, 2, &mut pool()).unwrap();
        let s = TreeStats::of(&t);
        assert_eq!(s.processes, 21);
        assert_eq!(s.backends, 16);
        assert_eq!(s.internals, 4);
        assert_eq!(s.depth, 2);
        assert_eq!(s.max_fanout, 4);
        assert_eq!(s.root_fanout, 4);
    }
}
