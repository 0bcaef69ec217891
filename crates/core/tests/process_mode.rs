//! Multi-process instantiation tests: real `mrnet_commnode` OS
//! processes connected over TCP, created recursively per §2.5, with
//! back-ends attaching at dynamically advertised rendezvous points.

use std::path::PathBuf;
use std::time::Duration;

use mrnet::{launch_processes, Backend, SyncMode, Value};
use mrnet_topology::{generator, HostPool, Topology};

fn commnode_exe() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_mrnet_commnode"))
}

const TIMEOUT: Duration = Duration::from_secs(30);

fn run_tree(topology: Topology) {
    let n = topology.num_backends();
    let pending = launch_processes(topology, &commnode_exe()).unwrap();
    let points = pending.collect_attach_points(TIMEOUT).unwrap();
    assert_eq!(points.len(), n);

    // "Job-manager-created" back-ends attach over TCP.
    let backend_threads: Vec<_> = points
        .into_iter()
        .map(|ap| {
            std::thread::spawn(move || {
                let be = Backend::attach_tcp(&ap.endpoint, ap.rank).unwrap();
                let (pkt, sid) = be.recv().unwrap();
                let base = pkt.get(0).and_then(Value::as_i32).unwrap();
                be.send(
                    sid,
                    0,
                    "%d",
                    vec![Value::Int32(base + i32::try_from(ap.rank).unwrap())],
                )
                .unwrap();
                // Stay alive until shutdown so the tree drains cleanly.
                let _ = be.recv();
            })
        })
        .collect();

    let net = pending.wait(TIMEOUT).unwrap();
    assert_eq!(net.num_backends(), n);

    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(100)]).unwrap();
    let result = stream.recv_timeout(TIMEOUT).unwrap();
    let expected: i32 = net
        .endpoints()
        .iter()
        .map(|&r| 100 + i32::try_from(r).unwrap())
        .sum();
    assert_eq!(result.get(0).unwrap().as_i32(), Some(expected));

    net.shutdown();
    for t in backend_threads {
        t.join().unwrap();
    }
}

#[test]
fn two_level_tree_of_real_processes() {
    // FE (this process) -> 2 commnode processes -> 4 back-ends.
    run_tree(generator::balanced(2, 2, &mut HostPool::synthetic(16)).unwrap());
}

#[test]
fn three_level_tree_recursive_spawning() {
    // FE -> 2 commnodes -> 4 commnodes -> 8 back-ends: commnodes must
    // recursively launch their own children.
    run_tree(generator::balanced(2, 3, &mut HostPool::synthetic(32)).unwrap());
}

#[test]
fn flat_topology_attaches_directly_to_front_end() {
    // No internal processes at all: attach points are the front-end's
    // own listener.
    run_tree(generator::flat(3, &mut HostPool::synthetic(8)).unwrap());
}

#[test]
fn mixed_node_unbalanced_topology() {
    // Figure 4b's shape: the root has both commnode children and
    // directly attached back-ends. Advertisements for deeper back-ends
    // can only flow once the root's own back-ends have attached, so
    // this deployment must consume attach events incrementally.
    let topology = generator::fig4_unbalanced(&mut HostPool::synthetic(64)).unwrap();
    let n = topology.num_backends();
    let pending = launch_processes(topology, &commnode_exe()).unwrap();
    let events = pending.attach_events();

    let backend_threads: Vec<_> = (0..n)
        .map(|_| {
            let (rank, endpoint) = events.recv_timeout(TIMEOUT).expect("advertisement");
            std::thread::spawn(move || {
                let be = Backend::attach_tcp(&endpoint, rank).unwrap();
                let (pkt, sid) = be.recv().unwrap();
                let base = pkt.get(0).and_then(Value::as_i32).unwrap();
                be.send(sid, 0, "%d", vec![Value::Int32(base + rank as i32)])
                    .unwrap();
                let _ = be.recv();
            })
        })
        .collect();

    let net = pending.wait(TIMEOUT).unwrap();
    assert_eq!(net.num_backends(), n);
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(7)]).unwrap();
    let result = stream.recv_timeout(TIMEOUT).unwrap();
    let expected: i32 = net.endpoints().iter().map(|&r| 7 + r as i32).sum();
    assert_eq!(result.get(0).unwrap().as_i32(), Some(expected));
    net.shutdown();
    for t in backend_threads {
        t.join().unwrap();
    }
}

#[test]
fn introspection_covers_every_process_in_the_tree() {
    // FE (this process) -> 2 commnode OS processes -> 4 back-ends. The
    // in-band metrics request must cross real TCP hops and come back
    // with one section per node: 1 front-end + 2 commnodes + 4
    // back-ends. Back-ends blocked in `recv` answer automatically.
    let topology = generator::balanced(2, 2, &mut HostPool::synthetic(16)).unwrap();
    let n = topology.num_backends();
    let pending = launch_processes(topology, &commnode_exe()).unwrap();
    let points = pending.collect_attach_points(TIMEOUT).unwrap();

    let backend_threads: Vec<_> = points
        .into_iter()
        .map(|ap| {
            std::thread::spawn(move || {
                let be = Backend::attach_tcp(&ap.endpoint, ap.rank).unwrap();
                let (pkt, sid) = be.recv().unwrap();
                let base = pkt.get(0).and_then(Value::as_i32).unwrap();
                be.send(sid, 0, "%d", vec![Value::Int32(base)]).unwrap();
                let _ = be.recv();
            })
        })
        .collect();

    let net = pending.wait(TIMEOUT).unwrap();
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();
    stream.send(0, "%d", vec![Value::Int32(1)]).unwrap();
    stream.recv_timeout(TIMEOUT).unwrap();

    let snap = net.metrics_snapshot(Duration::from_secs(10)).unwrap();
    assert_eq!(
        snap.nodes.len(),
        n + 3,
        "one merged section per process, got ranks {:?}",
        snap.ranks()
    );
    let mut ranks = snap.ranks();
    ranks.dedup();
    assert_eq!(ranks.len(), n + 3, "sections must have distinct ranks");
    // Data flowed through every back-end and was counted there.
    for &be in net.endpoints() {
        let node = snap.node(be).expect("back-end section");
        assert_eq!(node.get("up.pkts.sent"), Some(1));
        assert_eq!(node.get("down.pkts.recv"), Some(1));
    }

    net.shutdown();
    for t in backend_threads {
        t.join().unwrap();
    }
}

#[test]
fn sigkilled_commnode_fails_whole_subtree_but_tree_survives() {
    // FE -> 2 commnode processes -> 4 back-ends. SIGKILL one commnode
    // mid-run: the front-end must observe a RankFailed event covering
    // that commnode's entire subtree, and the broadcast WaitForAll
    // stream must keep completing waves from the surviving half.
    use mrnet::TopologyEvent;

    let topology = generator::balanced(2, 2, &mut HostPool::synthetic(16)).unwrap();
    let n = topology.num_backends();
    let pending = launch_processes(topology, &commnode_exe()).unwrap();
    let pids = pending.commnode_pids().to_vec();
    assert_eq!(pids.len(), 2, "root spawns two commnode processes");
    let points = pending.collect_attach_points(TIMEOUT).unwrap();

    // Back-ends echo their rank on every wave until their link dies.
    let backend_threads: Vec<_> = points
        .into_iter()
        .map(|ap| {
            std::thread::spawn(move || {
                let be = Backend::attach_tcp(&ap.endpoint, ap.rank).unwrap();
                while let Ok((_pkt, sid)) = be.recv() {
                    let _ = be.send(
                        sid,
                        0,
                        "%d",
                        vec![Value::Int32(i32::try_from(ap.rank).unwrap())],
                    );
                }
            })
        })
        .collect();

    let net = pending.wait(TIMEOUT).unwrap();
    let comm = net.broadcast_communicator();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net.new_stream(&comm, sum, SyncMode::WaitForAll).unwrap();

    // Wave 1: everyone alive, full aggregate.
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    let full: i32 = net.endpoints().iter().map(|&r| r as i32).sum();
    let result = stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(result.get(0).unwrap().as_i32(), Some(full));

    // Hard-kill one commnode process.
    let status = std::process::Command::new("kill")
        .args(["-9", &pids[0].to_string()])
        .status()
        .expect("kill runs");
    assert!(status.success());

    // The front-end learns the whole subtree is gone in one event.
    let TopologyEvent::RankFailed { rank, subtree } = net.next_event_timeout(TIMEOUT).unwrap();
    assert_eq!(subtree.len(), n / 2, "half the back-ends died: {subtree:?}");
    assert!(subtree.iter().all(|r| net.endpoints().contains(r)));
    assert!(
        !net.endpoints().contains(&rank),
        "the failed node itself is a commnode, not a back-end"
    );
    let failed = net.failed_ranks();
    assert!(failed.contains(&rank));
    assert!(subtree.iter().all(|r| failed.contains(r)));

    // Wave 2: the pruned stream completes from the survivors alone.
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    let survivors: i32 = net
        .endpoints()
        .iter()
        .filter(|r| !subtree.contains(r))
        .map(|&r| r as i32)
        .sum();
    let result = stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(result.get(0).unwrap().as_i32(), Some(survivors));

    net.shutdown();
    for t in backend_threads {
        t.join().unwrap();
    }
}

#[test]
fn missing_commnode_binary_fails_cleanly() {
    let topo = generator::balanced(2, 2, &mut HostPool::synthetic(16)).unwrap();
    let err = launch_processes(topo, std::path::Path::new("/nonexistent/commnode"))
        .err()
        .expect("spawn must fail");
    assert!(matches!(err, mrnet::MrnetError::Instantiation(_)));
}
