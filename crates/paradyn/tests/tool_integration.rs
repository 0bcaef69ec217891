//! End-to-end Paradyn-over-MRNet tests: the complete §3.1 start-up
//! protocol and the §3.2/§4.2.2 performance-data pipeline running on a
//! live tree of threads.

use std::time::Duration;

use mrnet::{NetworkBuilder, SyncMode, Value};
use mrnet_topology::{generator, HostPool};
use paradyn::{
    app::Executable, mdl, paradyn_registry, proto::tags, run_sampling, run_startup, Activity,
    Daemon,
};

fn launch_tool(
    fanout: usize,
    depth: usize,
) -> (mrnet::Network, Vec<std::thread::JoinHandle<usize>>, usize) {
    let topo = generator::balanced(fanout, depth, &mut HostPool::synthetic(512)).unwrap();
    let n = topo.num_backends();
    let dep = NetworkBuilder::new(topo)
        .registry(paradyn_registry())
        .launch()
        .unwrap();
    let exe = Executable::synthetic_smg2000(42);
    let daemons: Vec<_> = dep
        .backends
        .into_iter()
        .enumerate()
        .map(|(i, be)| {
            let exe = exe.clone();
            std::thread::spawn(move || {
                let daemon = Daemon::new(be, exe, format!("node{i:03}"), 4000 + i as u32);
                daemon
                    .serve(4, 5.0, Duration::from_secs(2))
                    .unwrap_or(usize::MAX)
            })
        })
        .collect();
    (dep.network, daemons, n)
}

#[test]
fn full_startup_protocol_over_live_tree() {
    let (net, daemons, n) = launch_tool(4, 2); // 16 daemons
    let doc = mdl::to_mdl(&mdl::standard_metrics(8));
    let outcome = run_startup(&net, &doc, 5).unwrap();

    // Every activity timed, in order.
    assert_eq!(outcome.timings.len(), Activity::ALL.len());
    for ((a, _), expected) in outcome.timings.iter().zip(Activity::ALL) {
        assert_eq!(*a, expected);
    }

    // Report Self: one line per daemon.
    assert_eq!(outcome.daemon_info.len(), n);
    assert!(outcome.daemon_info.iter().any(|s| s.contains("node")));

    // Homogeneous metric sets: one equivalence class with all daemons.
    assert_eq!(outcome.metric_classes.len(), 1);
    assert_eq!(outcome.metric_classes[0].members.len(), n);

    // Clock skews estimated for every daemon; same-process clocks are
    // nearly aligned, so estimates must be small.
    assert_eq!(outcome.skews.len(), n);
    for (&rank, &skew) in &outcome.skews {
        assert!(
            skew.abs() < 0.5,
            "daemon {rank} skew {skew} unexpectedly large"
        );
    }

    // Process and machine reports from every daemon.
    assert_eq!(outcome.process_info.len(), n);
    assert_eq!(outcome.machine_resources.len(), 3 * n);

    // Identical executables: one code class; full resources requested
    // only from the representative (434 functions + 12 modules).
    assert_eq!(outcome.code_classes.len(), 1);
    assert_eq!(outcome.code_classes[0].members.len(), n);
    assert_eq!(outcome.code_resources.len(), 434 + 12);

    // One call-graph class; edges received from the representative.
    assert_eq!(outcome.callgraph_classes.len(), 1);
    assert!(outcome.callgraph_edges > 100);

    assert!(outcome.total() > Duration::ZERO);

    // Sampling phase: 4 metrics at 5 samples/s for ~2 s.
    let (stats, _streams) = run_sampling(&net, 4, Duration::from_secs(2)).unwrap();
    assert!(
        stats.received > 10,
        "front-end should receive aggregated samples, got {}",
        stats.received
    );

    net.shutdown();
    let sent: Vec<usize> = daemons.into_iter().map(|d| d.join().unwrap()).collect();
    // Every daemon completed start-up and sent samples.
    for s in &sent {
        assert_ne!(*s, usize::MAX, "daemon failed");
        assert!(*s > 0, "daemon sent no samples");
    }
}

#[test]
fn startup_with_heterogeneous_executables_yields_two_classes() {
    let topo = generator::balanced(2, 2, &mut HostPool::synthetic(64)).unwrap();
    let dep = NetworkBuilder::new(topo)
        .registry(paradyn_registry())
        .launch()
        .unwrap();
    let net = dep.network.clone();
    let daemons: Vec<_> = dep
        .backends
        .into_iter()
        .enumerate()
        .map(|(i, be)| {
            // Two different executables across the daemons.
            let exe = Executable::synthetic("app", 50, 4, (i % 2) as u64);
            std::thread::spawn(move || {
                let daemon = Daemon::new(be, exe, format!("host{i}"), 100 + i as u32);
                daemon.serve_startup()
            })
        })
        .collect();
    let doc = mdl::to_mdl(&mdl::standard_metrics(4));
    let outcome = run_startup(&net, &doc, 2).unwrap();
    assert_eq!(outcome.code_classes.len(), 2);
    let total_members: usize = outcome.code_classes.iter().map(|c| c.members.len()).sum();
    assert_eq!(total_members, 4);
    // Full code resources fetched once per class: 2 × (50 + 4).
    assert_eq!(outcome.code_resources.len(), 2 * 54);
    net.shutdown();
    for d in daemons {
        d.join().unwrap().unwrap();
    }
}

#[test]
fn sampling_aggregates_sum_across_daemons() {
    // 4 daemons, 1 metric: the front-end's aggregated samples should
    // sum ~4 value-units per 0.2 s interval (each daemon contributes
    // level 1.0 ⇒ ~1.0 per interval).
    let topo = generator::flat(4, &mut HostPool::synthetic(16)).unwrap();
    let dep = NetworkBuilder::new(topo)
        .registry(paradyn_registry())
        .launch()
        .unwrap();
    let net = dep.network.clone();
    let exe = Executable::synthetic("tiny", 10, 2, 0);
    let daemons: Vec<_> = dep
        .backends
        .into_iter()
        .enumerate()
        .map(|(i, be)| {
            let exe = exe.clone();
            std::thread::spawn(move || {
                let daemon = Daemon::new(be, exe, format!("h{i}"), i as u32);
                daemon.serve_startup()?;
                daemon.serve_sampling(1, 5.0, Duration::from_secs(2))
            })
        })
        .collect();
    let doc = mdl::to_mdl(&mdl::standard_metrics(1));
    run_startup(&net, &doc, 2).unwrap();
    let (stats, _streams) = run_sampling(&net, 1, Duration::from_secs(2)).unwrap();
    assert!(stats.received >= 5, "received {}", stats.received);
    let mean = stats.value_sum / stats.received as f64;
    assert!(
        (mean - 4.0).abs() < 1.0,
        "mean aggregated value {mean}, expected ~4.0"
    );
    net.shutdown();
    for d in daemons {
        let _ = d.join().unwrap();
    }
}

/// A sampling daemon polls for `STOP_SAMPLING` between samples with a
/// zero-timeout receive, and stops within 2 s of one sent on its
/// metric stream, long before its 30 s budget runs out.
#[test]
fn sampling_stops_soon_after_stop_sampling() {
    let topo = generator::flat(1, &mut HostPool::synthetic(4)).unwrap();
    let dep = NetworkBuilder::new(topo)
        .registry(paradyn_registry())
        .launch()
        .unwrap();
    let net = dep.network.clone();
    let be = dep.backends.into_iter().next().unwrap();
    let (done_tx, done) = std::sync::mpsc::channel();
    let h = std::thread::spawn(move || {
        let daemon = Daemon::new(be, Executable::synthetic("tiny", 10, 2, 0), "h0", 0);
        let _ = done_tx.send(daemon.serve_sampling(1, 5.0, Duration::from_secs(30)));
    });
    let comm = net.broadcast_communicator();
    let null = net.registry().id_of("null").unwrap();
    let stream = net.new_stream(&comm, null, SyncMode::DoNotWait).unwrap();
    stream
        .send(tags::SAMPLE_DATA, "%ud", vec![Value::UInt32(0)])
        .unwrap();
    // The first sample: the daemon is in its sampling loop.
    stream.recv_timeout(Duration::from_secs(10)).unwrap();
    stream
        .send(tags::STOP_SAMPLING, "%ud", vec![Value::UInt32(0)])
        .unwrap();
    let sent = done
        .recv_timeout(Duration::from_secs(2))
        .expect("sampling did not stop within 2 s")
        .unwrap();
    assert!(sent >= 1);
    h.join().unwrap();
    net.shutdown();
}
