//! The paper's quantitative claims, asserted as tests.
//!
//! Each test reproduces one claim from the SC'03 evaluation at full
//! paper scale on the simulated substrate (absolute calibration) or
//! checks the structural property behind it. These are the
//! "EXPERIMENTS.md in executable form".

use mrnet_repro::mrnet::simulate;
use mrnet_repro::paradyn::model::{startup_total, LoadModel, StartupModel};
use mrnet_repro::paradyn::skew::{direct_skew, mrnet_skew, SkewParams};
use mrnet_repro::sim::{LaunchParams, LogGpParams};
use mrnet_repro::topology::{fig4_comparison, generator, HostPool, Topology};

fn flat(n: usize) -> Topology {
    generator::flat(n, &mut HostPool::synthetic(2048)).unwrap()
}

fn tree(f: usize, n: usize) -> Topology {
    generator::balanced_for(f, n, &mut HostPool::synthetic(2048)).unwrap()
}

#[test]
fn claim_fig4_balanced_broadcast_is_8g_4o_2l_with_4g_interval() {
    let row = fig4_comparison(&LogGpParams {
        latency: 7.0,
        overhead: 3.0,
        gap: 2.0,
        big_gap: 0.0,
    });
    assert!((row.balanced_latency - (8.0 * 2.0 + 4.0 * 3.0 + 2.0 * 7.0)).abs() < 1e-9);
    assert!((row.balanced_interval - 4.0 * 2.0).abs() < 1e-9);
    assert!((row.unbalanced_interval - 6.0 * 2.0).abs() < 1e-9);
}

#[test]
fn claim_fig7a_flat_instantiation_800s_trees_flat() {
    let params = LaunchParams::blue_pacific();
    let logp = LogGpParams::blue_pacific();
    let f = simulate::instantiation_latency(&flat(512), params, logp, 0);
    assert!((650.0..950.0).contains(&f), "flat-512: {f} (paper ~800 s)");
    for fanout in [4, 8] {
        let t = simulate::instantiation_latency(&tree(fanout, 512), params, logp, 0);
        assert!(t < 60.0, "{fanout}-way-512: {t} (paper: tens of seconds)");
    }
}

#[test]
fn claim_fig7b_flat_roundtrip_1_4s_trees_far_below() {
    let logp = LogGpParams::blue_pacific();
    let f = simulate::roundtrip_latency(&flat(512), logp, simulate::SMALL_PACKET);
    assert!(
        (1.0..1.8).contains(&f),
        "flat-512 round trip {f} (paper ~1.4 s)"
    );
    let t = simulate::roundtrip_latency(&tree(8, 512), logp, simulate::SMALL_PACKET);
    assert!(f > 10.0 * t, "trees must be an order faster ({f} vs {t})");
}

#[test]
fn claim_fig7c_tree_throughput_tens_of_ops_flat_collapses() {
    let logp = LogGpParams::blue_pacific();
    let t8 = simulate::reduction_throughput(&tree(8, 512), logp, simulate::SMALL_PACKET, 40);
    assert!(
        (40.0..160.0).contains(&t8),
        "8-way-512 throughput {t8} (paper ~70)"
    );
    let f = simulate::reduction_throughput(&flat(512), logp, simulate::SMALL_PACKET, 40);
    assert!(f < 5.0, "flat-512 throughput {f} (paper: single digits)");
    // Throughput of trees stays roughly constant with scale.
    let t8_64 = simulate::reduction_throughput(&tree(8, 64), logp, simulate::SMALL_PACKET, 40);
    assert!((t8 - t8_64).abs() / t8_64 < 0.5);
}

#[test]
fn claim_fig8a_startup_3_4x_faster_with_8way_at_512() {
    let model = StartupModel::default();
    let no = startup_total(&flat(512), &model);
    let yes = startup_total(&tree(8, 512), &model);
    let speedup = no / yes;
    assert!(
        (2.8..4.2).contains(&speedup),
        "start-up speedup {speedup} (paper: 3.4x)"
    );
    assert!(
        (55.0..95.0).contains(&no),
        "no-MRNet total {no} (paper ~70 s)"
    );
}

#[test]
fn claim_fig8b_aggregation_activities_improve_others_do_not() {
    use mrnet_repro::paradyn::model::startup_latencies;
    use mrnet_repro::paradyn::Activity;
    let model = StartupModel::default();
    let no: std::collections::HashMap<_, _> =
        startup_latencies(&flat(512), &model).into_iter().collect();
    let yes: std::collections::HashMap<_, _> = startup_latencies(&tree(8, 512), &model)
        .into_iter()
        .collect();
    for act in Activity::ALL {
        if act.uses_aggregation() {
            assert!(yes[&act] < no[&act] / 2.0, "{}", act.name());
        } else {
            assert!((yes[&act] - no[&act]).abs() < 0.5, "{}", act.name());
        }
    }
}

#[test]
fn claim_skew_mrnet_10_5_percent_and_beats_direct() {
    let topo = generator::balanced(4, 3, &mut HostPool::synthetic(256)).unwrap();
    let mut mrnet_avg = 0.0;
    let mut direct_avg = 0.0;
    const SEEDS: u64 = 5;
    for seed in 0..SEEDS {
        let params = SkewParams {
            seed,
            ..SkewParams::default()
        };
        mrnet_avg += mrnet_skew(&topo, &params).average_error_percent() / SEEDS as f64;
        direct_avg += direct_skew(&topo, &params).average_error_percent() / SEEDS as f64;
    }
    // Paper: 10.5% (MRNet) vs 17.5% (direct).
    assert!(
        (5.0..20.0).contains(&mrnet_avg),
        "MRNet skew error {mrnet_avg}% (paper 10.5%)"
    );
    assert!(
        mrnet_avg < direct_avg,
        "MRNet ({mrnet_avg}%) must be at least as accurate as direct ({direct_avg}%)"
    );
}

#[test]
fn claim_fig9_checkpoints() {
    let m = LoadModel::default();
    // "when collecting data from only 64 daemons for 32 metrics per
    // daemon without MRNet, the Paradyn front-end processed the data
    // at only about 60% of the rate at which it was generated".
    let f = m.fraction_of_offered_load(64, 32, None);
    assert!((0.45..0.7).contains(&f), "64x32 flat {f} (paper ~0.6)");
    // "With 256 daemons and 32 metrics, the front-end processed data
    // at a rate of less than 5% of the offered load."
    let f = m.fraction_of_offered_load(256, 32, None);
    assert!(f < 0.05 + 0.01, "256x32 flat {f} (paper <5%)");
    // "With four-, eight-, and sixteen-way MRNet fan-outs, the
    // front-end was able to process the entire offered load for all
    // configurations we tested."
    for fanout in [4, 8, 16] {
        for d in [4, 16, 64, 128, 256] {
            for metrics in [1, 8, 16, 32] {
                assert_eq!(m.fraction_of_offered_load(d, metrics, Some(fanout)), 1.0);
            }
        }
    }
}
