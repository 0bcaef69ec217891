//! Hand-off by execution on a live in-process tree: a node's turn may
//! run on the thread of the neighbour whose turn made it ready. The
//! node's owner thread still fires its timers and still runs its
//! shutdown cleanup.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use mrnet::{launch_local, Backend, MrnetError, Rank, SyncMode, Value};
use mrnet_topology::{generator, HostPool};

const TIMEOUT: Duration = Duration::from_secs(20);

/// Answers every broadcast with `value` until the network shuts down,
/// or, with `None`, stays silent.
fn serve(be: Backend, value: Option<i32>) {
    loop {
        match be.recv_timeout(Duration::from_millis(50)) {
            Ok(Some((_, sid))) => {
                if let Some(v) = value {
                    be.send(sid, 0, "%d", vec![Value::Int32(v)]).unwrap();
                }
            }
            Ok(None) => {}
            Err(MrnetError::Shutdown) => return,
            Err(e) => panic!("back-end failed: {e}"),
        }
    }
}

/// A `TimeOut` stream over a 2-way tree where one interior's back-ends
/// answer and the other's stay silent. The answering interior's turn
/// hands its wave to the root, whose turn runs on that interior's
/// thread and opens the root's partial wave, with its deadline. The
/// root's owner sleeps with no timer until then: the adopted turn has
/// to wake it for the wave to be released on time.
#[test]
fn root_timeout_set_by_an_adopted_turn_fires_on_time() {
    let topo = generator::balanced(2, 2, &mut HostPool::synthetic(16)).unwrap();
    let leaves = topo.backends();
    let answering: Vec<Rank> = leaves
        .iter()
        .filter(|&&b| topo.parent(b) == topo.parent(leaves[0]))
        .map(|b| b.0 as Rank)
        .collect();
    assert_eq!(answering.len(), 2);
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net
        .new_stream(&net.broadcast_communicator(), sum, SyncMode::TimeOut(0.2))
        .unwrap();
    let handles: Vec<_> = dep
        .backends
        .into_iter()
        .map(|be| {
            let value = answering.contains(&be.rank()).then_some(1);
            std::thread::spawn(move || serve(be, value))
        })
        .collect();

    let sent = Instant::now();
    stream.send(0, "%d", vec![Value::Int32(0)]).unwrap();
    // The root's deadline is 0.2 s after the interior's wave reaches
    // it; allow generous slack for a loaded machine, far short of the
    // hang a missed wake-up leaves.
    let partial = stream.recv_timeout(Duration::from_secs(2));
    let took = sent.elapsed();
    let root = net
        .metrics_snapshot(Duration::from_secs(5))
        .unwrap()
        .node(0)
        .cloned()
        .expect("root section");
    net.shutdown();
    for h in handles {
        h.join().unwrap();
    }
    let partial = partial.expect("the root's timed-out wave was released");
    assert_eq!(partial.get(0).unwrap().as_i32(), Some(2));
    assert!(
        took >= Duration::from_millis(200),
        "released after {took:?}"
    );
    assert!(root.get("loop.turns_adopted").unwrap() > 0);
}

/// After turns of every node have run on other nodes' threads, the
/// front-end's shutdown still reaches every node, each owner runs its
/// cleanup (which tells the back-ends), and `Network::shutdown` joins
/// every node thread.
#[test]
fn shutdown_joins_every_node_thread_after_adopted_turns() {
    let topo = generator::balanced(2, 2, &mut HostPool::synthetic(16)).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let sum = net.registry().id_of("d_sum").unwrap();
    let stream = net
        .new_stream(&net.broadcast_communicator(), sum, SyncMode::WaitForAll)
        .unwrap();
    let handles: Vec<_> = dep
        .backends
        .into_iter()
        .map(|be| std::thread::spawn(move || serve(be, Some(1))))
        .collect();
    for i in 0..20 {
        stream.send(0, "%d", vec![Value::Int32(i)]).unwrap();
        let wave = stream.recv_timeout(TIMEOUT).unwrap();
        assert_eq!(wave.get(0).unwrap().as_i32(), Some(4));
    }
    let snap = net.metrics_snapshot(Duration::from_secs(5)).unwrap();
    let adopted: u64 = snap
        .nodes
        .iter()
        .filter_map(|s| s.get("loop.turns_adopted"))
        .sum();
    assert!(adopted > 0);

    let (done_tx, done) = mpsc::channel();
    let closer = {
        let net = net.clone();
        std::thread::spawn(move || {
            net.shutdown();
            done_tx.send(()).unwrap();
        })
    };
    done.recv_timeout(TIMEOUT)
        .expect("Network::shutdown joined every node thread");
    closer.join().unwrap();
    // Each back-end saw its interior's `Shutdown`, sent by that
    // interior's owner during its cleanup.
    for h in handles {
        h.join().unwrap();
    }
}
