//! Workspace-level integration tests: pipelines that span every crate
//! through the facade — configuration text to live tree to custom
//! filters, and consistency between the analytical model, the
//! simulator, and the real threaded implementation.

use std::time::Duration;

use mrnet_repro::mrnet::{self, simulate, NetworkBuilder, SyncMode, Value};
use mrnet_repro::packet::{decode_packet, encode_packet, PacketBuilder};
use mrnet_repro::paradyn::{self, paradyn_registry, run_sampling, run_startup, Daemon};
use mrnet_repro::sim::{LaunchParams, LogGpParams};
use mrnet_repro::topology::{self, generator, parse_config, write_config, HostPool};

#[test]
fn config_text_to_live_network_to_result() {
    // A user-authored configuration file drives a real tree.
    let cfg = "\
        fe:0 => a:0 b:0 ;\n\
        a:0 => a:1 a:2 a:3 ;\n\
        b:0 => b:1 b:2 b:3 ;\n";
    let topo = parse_config(cfg).unwrap();
    // Round-trips through the writer too.
    let topo = parse_config(&write_config(&topo)).unwrap();
    assert_eq!(topo.num_backends(), 6);

    let dep = NetworkBuilder::new(topo).launch().unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("uld_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(1, "%d", vec![Value::Int32(0)]).unwrap();
    let threads: Vec<_> = dep
        .backends
        .into_iter()
        .map(|be| {
            std::thread::spawn(move || {
                let (_, sid) = be.recv().unwrap();
                be.send(sid, 1, "%uld", vec![Value::UInt64(10)]).unwrap();
            })
        })
        .collect();
    let result = stream.recv_timeout(Duration::from_secs(20)).unwrap();
    assert_eq!(result.get(0).unwrap().as_u64(), Some(60));
    net.shutdown();
    for t in threads {
        t.join().unwrap();
    }
}

#[test]
fn analytical_model_and_simulator_agree_symbolically() {
    // The topology crate's closed-form LogP analysis and the
    // simulator's per-interface occupancy model must agree on
    // single-operation broadcast latency when G = 0 and jitter = 0.
    let mut pool = HostPool::synthetic(256);
    let topo = generator::balanced(4, 2, &mut pool).unwrap();
    let params = LogGpParams {
        latency: 2.0,
        overhead: 0.5,
        gap: 1.0,
        big_gap: 0.0,
    };
    let analytic = topology::broadcast_latency(&topo, &params);
    let simulated = simulate::broadcast_latency(&topo, params, 1);
    // The closed form charges k·g per level before the last child's
    // message; the simulator schedules sends at 0, g, 2g, … — one gap
    // less per level. Both grow identically with scale; check they are
    // within one gap per level of each other.
    let depth = topo.depth() as f64;
    assert!(
        (analytic - simulated).abs() <= depth * 1.0 + 1e-9,
        "analytic {analytic} vs simulated {simulated}"
    );
}

#[test]
fn simulated_instantiation_ordering_matches_threaded_reality() {
    // The simulator says trees instantiate faster than flat at scale;
    // verify the real threaded implementation agrees in ordering at a
    // laptop-friendly size.
    let params = LaunchParams::blue_pacific();
    let logp = LogGpParams::blue_pacific();
    let flat = generator::flat(64, &mut HostPool::synthetic(256)).unwrap();
    let tree = generator::balanced_for(4, 64, &mut HostPool::synthetic(256)).unwrap();
    let sim_flat = simulate::instantiation_latency(&flat, params, logp, 1);
    let sim_tree = simulate::instantiation_latency(&tree, params, logp, 1);
    assert!(sim_flat > sim_tree);

    // Threaded: both instantiate fine; measure wall-clock to confirm
    // neither blows up (ordering at this scale is noise-dominated, so
    // only sanity is asserted).
    let t0 = std::time::Instant::now();
    let dep = mrnet::launch_local(flat).unwrap();
    let flat_elapsed = t0.elapsed();
    dep.network.shutdown();
    let t0 = std::time::Instant::now();
    let dep = mrnet::launch_local(tree).unwrap();
    let tree_elapsed = t0.elapsed();
    dep.network.shutdown();
    assert!(flat_elapsed < Duration::from_secs(30));
    assert!(tree_elapsed < Duration::from_secs(30));
}

#[test]
fn packet_layer_is_usable_through_facade() {
    let pkt = PacketBuilder::new(3, 9).push(1.5f64).push("x").build();
    let decoded = decode_packet(encode_packet(&pkt)).unwrap();
    assert_eq!(decoded, pkt);
}

#[test]
fn paradyn_tool_runs_against_custom_topology_text() {
    // Whole-stack: config text -> tree -> Paradyn start-up + sampling.
    let cfg = "fe:0 => i:0 i:1 ;\ni:0 => d:0 d:1 ;\ni:1 => d:2 d:3 ;\n";
    let topo = parse_config(cfg).unwrap();
    let dep = NetworkBuilder::new(topo)
        .registry(paradyn_registry())
        .launch()
        .unwrap();
    let net = dep.network.clone();
    let exe = paradyn::app::Executable::synthetic("mini", 20, 2, 3);
    let daemons: Vec<_> = dep
        .backends
        .into_iter()
        .enumerate()
        .map(|(i, be)| {
            let exe = exe.clone();
            std::thread::spawn(move || {
                let d = Daemon::new(be, exe, format!("d{i}"), i as u32);
                d.serve(2, 5.0, Duration::from_millis(1500))
            })
        })
        .collect();
    let mdl_doc = paradyn::mdl::to_mdl(&paradyn::mdl::standard_metrics(2));
    let outcome = run_startup(&net, &mdl_doc, 2).unwrap();
    assert_eq!(outcome.code_classes.len(), 1);
    assert_eq!(outcome.code_resources.len(), 22);
    let (stats, _s) = run_sampling(&net, 2, Duration::from_millis(1500)).unwrap();
    assert!(stats.received > 0);
    net.shutdown();
    for d in daemons {
        let _ = d.join().unwrap();
    }
}

#[test]
fn filters_compose_identically_offline_and_online() {
    // The same histogram-style aggregation done (a) directly on the
    // filter object and (b) through a live tree must agree.
    use mrnet_repro::filters::{FilterContext, ScalarFilter, ScalarOp, Transform};
    use mrnet_repro::packet::TypeCode;

    let values: Vec<i32> = (0..9).map(|i| i * 3 % 7).collect();

    // Offline: one flat fold.
    let mut offline = ScalarFilter::new(ScalarOp::Max, TypeCode::Int32).unwrap();
    let wave: Vec<_> = values
        .iter()
        .map(|&v| PacketBuilder::new(1, 0).push(v).build())
        .collect();
    let expected = offline
        .transform(wave, &FilterContext::new(1, 0, 9))
        .unwrap()[0]
        .get(0)
        .unwrap()
        .as_i32()
        .unwrap();

    // Online: 3x3 tree.
    let topo = generator::balanced(3, 2, &mut HostPool::synthetic(64)).unwrap();
    let dep = mrnet::launch_local(topo).unwrap();
    let net = dep.network.clone();
    let comm = net.broadcast_communicator();
    let max = net.registry().id_of("d_max").unwrap();
    let stream = net.new_stream(&comm, max, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    let threads: Vec<_> = dep
        .backends
        .into_iter()
        .zip(values)
        .map(|(be, v)| {
            std::thread::spawn(move || {
                let (_, sid) = be.recv().unwrap();
                be.send(sid, 0, "%d", vec![Value::Int32(v)]).unwrap();
            })
        })
        .collect();
    let online = stream
        .recv_timeout(Duration::from_secs(20))
        .unwrap()
        .get(0)
        .unwrap()
        .as_i32()
        .unwrap();
    assert_eq!(online, expected);
    net.shutdown();
    for t in threads {
        t.join().unwrap();
    }
}
