//! Property-based tests for topology generation, parsing, and the
//! LogP analysis.

use mrnet_sim::check::{check, vec_of};
use mrnet_sim::{LogGpParams, SplitMix64};
use mrnet_topology::{
    broadcast_latency, generator, parse_config, pipeline_interval, reduction_latency, write_config,
    HostPool, Placement, Topology, TreeStats,
};

const SEED: u64 = 0x70B0_1061;
const CASES: usize = 64;

fn arb_logp(rng: &mut SplitMix64) -> LogGpParams {
    LogGpParams {
        latency: rng.gen_range(0.01..10.0),
        overhead: rng.gen_range(0.01..10.0),
        gap: rng.gen_range(0.01..10.0),
        big_gap: 0.0,
    }
}

fn arb_tree(rng: &mut SplitMix64) -> Topology {
    match rng.gen_range(0..4u32) {
        0 => generator::flat(rng.gen_range(1..200), &mut HostPool::synthetic(512)).unwrap(),
        1 => {
            let (f, d) = (rng.gen_range(2..9), rng.gen_range(1..4));
            generator::balanced(f, d, &mut HostPool::synthetic(2048)).unwrap()
        }
        2 => {
            let (f, n) = (rng.gen_range(2..9), rng.gen_range(2..300));
            generator::balanced_for(f, n, &mut HostPool::synthetic(2048)).unwrap()
        }
        _ => {
            let fanouts = vec_of(rng, 1..4, |r| r.gen_range(1..5));
            generator::from_level_fanouts(&fanouts, &mut HostPool::synthetic(2048)).unwrap()
        }
    }
}

fn arb_tree_and_logp(rng: &mut SplitMix64) -> (Topology, LogGpParams) {
    (arb_tree(rng), arb_logp(rng))
}

#[test]
fn generated_topologies_are_structurally_sound() {
    check(SEED, CASES, arb_tree, |topo| {
        let stats = TreeStats::of(topo);
        // Node accounting: front-end + internals + back-ends.
        assert_eq!(stats.processes, 1 + stats.internals + stats.backends);
        assert!(stats.backends >= 1);
        // BFS covers every node exactly once.
        let bfs = topo.bfs();
        assert_eq!(bfs.len(), topo.len());
        // Every non-root has its parent before it in BFS order.
        for (i, &id) in bfs.iter().enumerate() {
            if let Some(parent) = topo.parent(id) {
                let pos = bfs.iter().position(|&x| x == parent).unwrap();
                assert!(pos < i);
            }
        }
        // reachable_backends at the root equals the backend set.
        assert_eq!(
            topo.reachable_backends(topo.root()),
            topo.backends()
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
    });
}

#[test]
fn config_round_trip_preserves_structure() {
    check(SEED, CASES, arb_tree, |topo| {
        let text = write_config(topo);
        let reparsed = parse_config(&text).unwrap();
        assert_eq!(reparsed.len(), topo.len());
        assert_eq!(reparsed.num_backends(), topo.num_backends());
        assert_eq!(reparsed.depth(), topo.depth());
        assert_eq!(reparsed.max_fanout(), topo.max_fanout());
        // Labels match in BFS order (structure-preserving renumbering).
        let a: Vec<String> = topo.bfs().into_iter().map(|i| topo.label(i)).collect();
        let b: Vec<String> = reparsed
            .bfs()
            .into_iter()
            .map(|i| reparsed.label(i))
            .collect();
        assert_eq!(a, b);
    });
}

#[test]
fn subtree_extraction_conserves_backends() {
    check(SEED, CASES, arb_tree, |topo| {
        let kids = topo.children(topo.root()).to_vec();
        let total: usize = kids
            .iter()
            .map(|&c| {
                topo.subtree(c).0.num_backends().max(
                    // A leaf child extracts as a single-node topology
                    // with zero "backends" (its root is the front-end
                    // of the slice), so count it as one end-point.
                    usize::from(topo.children(c).is_empty()),
                )
            })
            .sum();
        assert_eq!(total, topo.num_backends());
    });
}

fn assert_logp_latencies_positive_and_monotone((topo, p): &(Topology, LogGpParams)) {
    let b = broadcast_latency(topo, p);
    let r = reduction_latency(topo, p);
    assert!(b > 0.0 && r > 0.0);
    // Scaling every parameter up scales latency up.
    let p2 = LogGpParams {
        latency: p.latency * 2.0,
        overhead: p.overhead * 2.0,
        gap: p.gap * 2.0,
        big_gap: 0.0,
    };
    assert!(broadcast_latency(topo, &p2) > b);
    // Doubling all parameters exactly doubles both (the model is
    // homogeneous of degree 1 in (L, o, g)).
    assert!((broadcast_latency(topo, &p2) - 2.0 * b).abs() < 1e-6 * b.max(1.0));
    assert!((reduction_latency(topo, &p2) - 2.0 * r).abs() < 1e-6 * r.max(1.0));
    // Reduction never beats the cost of the single deepest path.
    let floor = topo.depth() as f64 * (2.0 * p.overhead + p.latency + p.gap);
    assert!(r >= floor - 1e-9);
}

fn assert_pipeline_interval_bounded((topo, p): &(Topology, LogGpParams)) {
    let interval = pipeline_interval(topo, p);
    let max_fanout = topo.max_fanout() as f64;
    assert!((interval - max_fanout * p.gap).abs() < 1e-9);
    assert!(interval >= topo.root_fanout() as f64 * p.gap - 1e-9);
}

#[test]
fn logp_latencies_positive_and_monotone_in_params() {
    check(
        SEED,
        CASES,
        arb_tree_and_logp,
        assert_logp_latencies_positive_and_monotone,
    );
}

#[test]
fn pipeline_interval_bounded_by_root_and_max_fanout() {
    check(
        SEED,
        CASES,
        arb_tree_and_logp,
        assert_pipeline_interval_bounded,
    );
}

/// A case that once failed the two LogP properties above: an uneven
/// 37-node binary tree with 17 back-ends, at the smallest parameters
/// the generator draws (L = o = g = 0.01).
#[test]
fn logp_properties_hold_on_saved_uneven_binary_tree() {
    const PARENTS: [Option<usize>; 37] = [
        None,
        Some(0),
        Some(1),
        Some(2),
        Some(3),
        Some(4),
        Some(4),
        Some(3),
        Some(7),
        Some(2),
        Some(9),
        Some(10),
        Some(10),
        Some(1),
        Some(13),
        Some(14),
        Some(15),
        Some(15),
        Some(14),
        Some(18),
        Some(18),
        Some(0),
        Some(21),
        Some(22),
        Some(23),
        Some(24),
        Some(24),
        Some(23),
        Some(27),
        Some(27),
        Some(22),
        Some(30),
        Some(31),
        Some(31),
        Some(30),
        Some(34),
        Some(34),
    ];
    let placements = (0..PARENTS.len())
        .map(|i| Placement::new(format!("node{i:03}"), 0))
        .collect();
    let topo = Topology::from_parts(placements, PARENTS.to_vec()).unwrap();
    assert_eq!((topo.len(), topo.num_backends()), (37, 17));
    let case = (
        topo,
        LogGpParams {
            latency: 0.01,
            overhead: 0.01,
            gap: 0.01,
            big_gap: 0.0,
        },
    );
    assert_logp_latencies_positive_and_monotone(&case);
    assert_pipeline_interval_bounded(&case);
}

#[test]
fn deeper_trees_trade_latency_for_throughput() {
    check(
        SEED,
        CASES,
        |rng| rng.gen_range(64usize..256),
        |&n| {
            // For a fixed back-end count, a flat topology has minimal
            // depth but its pipeline interval dwarfs any tree's.
            let p = LogGpParams {
                latency: 1.0,
                overhead: 1.0,
                gap: 1.0,
                big_gap: 0.0,
            };
            let flat = generator::flat(n, &mut HostPool::synthetic(1024)).unwrap();
            let tree = generator::balanced_for(4, n, &mut HostPool::synthetic(1024)).unwrap();
            assert!(pipeline_interval(&flat, &p) > pipeline_interval(&tree, &p));
        },
    );
}
