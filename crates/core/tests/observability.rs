//! End-to-end tests of the observability layer: per-node packet
//! counters that reconcile across the tree, the in-band introspection
//! stream that collects them, and the metric catalogue that names them.

use std::sync::{PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use mrnet::obs::metrics::{lookup, MetricKind};
use mrnet::obs::{trace, tracectx};
use mrnet::{
    launch_local, Backend, MetricsExport, MetricsSection, Network, NetworkSnapshot, SyncMode, Value,
};
use mrnet_topology::{generator, HostPool};

/// The trace gate is process-global: the traced test holds it
/// exclusively, the untraced tests share it (poisoned or not).
static TRACE_GATE: RwLock<()> = RwLock::new(());

fn pool() -> HostPool {
    HostPool::synthetic(64)
}

const TIMEOUT: Duration = Duration::from_secs(20);

/// Launches a `balanced(2, 2)` tree and reduces one wave over a `d_sum`
/// stream to all four back-ends, whose threads return them: dropping a
/// back-end declares its rank failed.
fn one_sum_wave() -> (Network, Vec<JoinHandle<Backend>>) {
    let dep = launch_local(generator::balanced(2, 2, &mut pool()).unwrap()).unwrap();
    let net = dep.network.clone();
    let dsum = net.registry().id_of("d_sum").unwrap();
    let comm = net.broadcast_communicator();
    let stream = net.new_stream(&comm, dsum, SyncMode::WaitForAll).unwrap();
    stream.send(2, "%d", vec![Value::Int32(0)]).unwrap();
    let handles = dep.backends.into_iter().map(|be| {
        std::thread::spawn(move || {
            let (_, sid) = be.recv().unwrap();
            be.send(sid, 2, "%d", vec![Value::Int32(3)]).unwrap();
            be
        })
    });
    let handles = handles.collect();
    let result = stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(result.get(0).unwrap().as_i32(), Some(12));
    (net, handles)
}

/// Sections for ranks in `ranks`, in snapshot order.
fn sections_for<'a>(
    snap: &'a NetworkSnapshot,
    ranks: &'a [u32],
) -> impl Iterator<Item = &'a MetricsSection> {
    snap.nodes.iter().filter(|s| ranks.contains(&s.rank))
}

#[test]
fn counters_reconcile_and_introspection_covers_every_node() {
    let _untraced = TRACE_GATE.read();
    // 2-level binary tree: front-end, 2 internal processes, 4 back-ends.
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let backend_ranks: Vec<u32> = net.endpoints().to_vec();
    assert_eq!(backend_ranks.len(), 4);

    // Null filter + DoNotWait: every back-end packet reaches the root
    // unmerged, so packet counts are conserved hop by hop.
    let comm = net.broadcast_communicator();
    let null = net.registry().id_of("null").unwrap();
    let stream = net.new_stream(&comm, null, SyncMode::DoNotWait).unwrap();

    const WAVES: u64 = 5;
    stream
        .send(1, "%d", vec![Value::Int32(WAVES as i32)])
        .unwrap();

    // Back-ends answer the broadcast with WAVES packets each; their
    // sinks answer introspection requests.
    let handles: Vec<_> = dep
        .backends
        .into_iter()
        .map(|be| {
            std::thread::spawn(move || {
                let (_, sid) = be.recv().unwrap();
                for w in 0..WAVES {
                    be.send(sid, 1, "%d", vec![Value::Int32(w as i32)]).unwrap();
                }
                be
            })
        })
        .collect();

    // Drain all packets so every hop has fully forwarded before the
    // snapshot is taken.
    let expected = WAVES * backend_ranks.len() as u64;
    for _ in 0..expected {
        stream.recv_timeout(TIMEOUT).unwrap();
    }

    let snap = net.metrics_snapshot(Duration::from_secs(5)).unwrap();

    // One section per node: front-end + 2 internal + 4 back-ends.
    assert_eq!(snap.nodes.len(), 7, "ranks seen: {:?}", snap.ranks());
    let mut ranks = snap.ranks();
    ranks.dedup();
    assert_eq!(ranks.len(), 7, "sections must have distinct ranks");
    for be in &backend_ranks {
        assert!(snap.node(*be).is_some(), "missing back-end rank {be}");
    }

    // Identify roles. The front-end is the one node that never
    // receives from above; back-ends are known by rank.
    let interior: Vec<&MetricsSection> = snap
        .nodes
        .iter()
        .filter(|s| !backend_ranks.contains(&s.rank))
        .collect();
    assert_eq!(interior.len(), 3);
    let root = interior
        .iter()
        .find(|s| s.get("down.pkts.recv") == Some(0))
        .expect("exactly one node has no parent");
    let internals: Vec<&&MetricsSection> = interior
        .iter()
        .filter(|s| s.get("down.pkts.recv") != Some(0))
        .collect();
    assert_eq!(internals.len(), 2);

    // Reconciliation: with no filter merging or drops, the sum of the
    // leaves' upstream sends equals the root's upstream receives.
    let leaf_sent: u64 = sections_for(&snap, &backend_ranks)
        .map(|s| s.get("up.pkts.sent").unwrap_or(0))
        .sum();
    assert_eq!(leaf_sent, expected);
    assert_eq!(root.get("up.pkts.recv"), Some(expected));
    // ... and every delivered packet was counted out of the root.
    assert_eq!(root.get("up.pkts.sent"), Some(expected));
    assert!(root.get("up.bytes.local").unwrap_or(0) > 0);

    // Each internal node carried its half of the traffic, both ways.
    for mid in &internals {
        assert_eq!(mid.get("up.pkts.recv"), Some(expected / 2));
        assert_eq!(mid.get("up.pkts.sent"), Some(expected / 2));
        assert_eq!(mid.get("down.pkts.recv"), Some(1));
        assert_eq!(mid.get("down.pkts.sent"), Some(2));
    }
    // The root multicast one packet to its two children; each back-end
    // received exactly one.
    assert_eq!(root.get("down.pkts.sent"), Some(2));
    for be in sections_for(&snap, &backend_ranks) {
        assert_eq!(be.get("down.pkts.recv"), Some(1));
        assert_eq!(be.get("up.pkts.sent"), Some(WAVES));
    }

    // Byte counters moved at the edges.
    let leaf_bytes: u64 = sections_for(&snap, &backend_ranks)
        .map(|s| s.get("up.bytes.local").unwrap_or(0))
        .sum();
    assert!(leaf_bytes > 0);

    // Turn counters reconcile at every node.
    for node in &interior {
        let turns = node.get("loop.turns").unwrap();
        assert!(turns > 0);
        assert!(node.get("loop.turns_adopted").unwrap() <= turns);
        // Each owner wake hands over exactly one turn.
        assert!(node.get("loop.owner_wakes").unwrap() <= turns);
    }
    // Back-ends run no node loop.
    for be in sections_for(&snap, &backend_ranks) {
        assert_eq!(be.get("loop.turns"), Some(0));
        assert_eq!(be.get("loop.turns_adopted"), Some(0));
        assert_eq!(be.get("loop.owner_wakes"), Some(0));
    }

    // Hand-off by execution: a turn that makes an in-process neighbour
    // ready runs the neighbour's turn on its own thread. Which turns a
    // thread takes over depends on what is running at that moment (a
    // busy interior runs its own next turn), so collect again until
    // each interior has shown one. A collection that finds the tree
    // idle runs on the root's owner and takes over both interiors'
    // turns.
    let mid_ranks: Vec<u32> = internals.iter().map(|s| s.rank).collect();
    let adopted = |snap: &NetworkSnapshot| {
        sections_for(snap, &mid_ranks).all(|s| s.get("loop.turns_adopted").unwrap() > 0)
    };
    let mut seen = adopted(&snap);
    for _ in 0..100 {
        if seen {
            break;
        }
        seen = adopted(&net.metrics_snapshot(Duration::from_secs(5)).unwrap());
    }
    assert!(seen, "both interiors ran turns on another node's thread");

    net.shutdown();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn filter_timings_populated_and_introspection_repeats() {
    let _untraced = TRACE_GATE.read();
    let (net, handles) = one_sum_wave();

    // Every interior node synchronized and executed the sum filter at
    // least once; the WaitForAll alignment also records wait time.
    let backend_ranks: Vec<u32> = net.endpoints().to_vec();
    let snap = net.metrics_snapshot(Duration::from_secs(5)).unwrap();
    assert_eq!(snap.nodes.len(), 7);
    for node in snap
        .nodes
        .iter()
        .filter(|s| !backend_ranks.contains(&s.rank))
    {
        assert!(
            node.get("filter.d_sum.waves").unwrap_or(0) >= 1,
            "rank {} never ran the filter",
            node.rank
        );
        assert!(
            node.get("filter.d_sum.exec_us.count").unwrap_or(0) >= 1,
            "rank {} has no exec samples",
            node.rank
        );
        assert!(
            node.get("filter.d_sum.wait_us.count").unwrap_or(0) >= 1,
            "rank {} has no sync-wait samples",
            node.rank
        );
    }

    // Introspection is repeatable: a second request gets fresh,
    // monotonically non-decreasing counters.
    let again = net.metrics_snapshot(Duration::from_secs(5)).unwrap();
    assert_eq!(again.nodes.len(), 7);
    assert!(again.total("up.pkts.sent") >= snap.total("up.pkts.sent"));

    net.shutdown();
    for h in handles {
        h.join().unwrap();
    }
}

#[test]
fn stream_stats_track_queue_and_close() {
    let _untraced = TRACE_GATE.read();
    let topo = generator::flat(2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();

    let comm = net.broadcast_communicator();
    let null = net.registry().id_of("null").unwrap();
    let stream = net.new_stream(&comm, null, SyncMode::DoNotWait).unwrap();

    // Nothing has moved: stats are all-default, not "closed".
    let stats = stream.stats();
    assert_eq!(stats, mrnet::StreamStats::default());

    stream.send(3, "%d", vec![Value::Int32(0)]).unwrap();
    let handles: Vec<_> = dep
        .backends
        .into_iter()
        .map(|be| {
            std::thread::spawn(move || {
                let (_, sid) = be.recv().unwrap();
                be.send(sid, 3, "%d", vec![Value::Int32(1)]).unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    // Both replies delivered but not consumed: they show as queued.
    let deadline = std::time::Instant::now() + TIMEOUT;
    while stream.stats().received < 2 {
        assert!(
            std::time::Instant::now() < deadline,
            "replies never arrived"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let stats = stream.stats();
    assert_eq!(stats.sent, 1);
    assert_eq!(stats.received, 2);
    assert_eq!(stats.queued, 2);
    assert!(!stats.closed);

    stream.recv_timeout(TIMEOUT).unwrap();
    assert_eq!(stream.stats().queued, 1);

    net.shutdown();
    let stats = stream.stats();
    assert!(stats.closed);
    // Undrained data remains visible (and receivable) after close.
    assert_eq!(stats.queued, 1);
    assert_eq!(stats.received, 2);
}

/// `up.bytes.local` is the wire size of the packets a back-end sent,
/// and at the root the wire size of the packets it delivered. On a
/// relay stream (null filter, `DoNotWait`) nothing merges or drops a
/// packet, so the back-ends' sum equals the root's, byte for byte. The
/// relay path counts each packet as a `filter.null` wave and records
/// no sync-wait or exec time for it.
#[test]
fn backend_and_root_byte_counts_agree_on_a_relay_stream() {
    let _untraced = TRACE_GATE.read();
    let topo = generator::balanced(2, 2, &mut pool()).unwrap();
    let dep = launch_local(topo).unwrap();
    let net = dep.network.clone();
    let backend_ranks: Vec<u32> = net.endpoints().to_vec();
    let comm = net.broadcast_communicator();
    let null = net.registry().id_of("null").unwrap();
    let stream = net.new_stream(&comm, null, SyncMode::DoNotWait).unwrap();
    stream.send(1, "%d", vec![Value::Int32(0)]).unwrap();

    const PER_BACKEND: u64 = 6;
    let handles: Vec<_> = dep
        .backends
        .into_iter()
        .map(|be| {
            std::thread::spawn(move || {
                let (_, sid) = be.recv().unwrap();
                for i in 0..PER_BACKEND as i32 {
                    // Payloads of every shape: the hint must match the
                    // wire for each.
                    be.send(sid, 1, "%d", vec![Value::Int32(i)]).unwrap();
                    be.send(
                        sid,
                        2,
                        "%s %alf",
                        vec![
                            Value::Str("x".repeat(i as usize)),
                            Value::DoubleArray(vec![0.5; i as usize]),
                        ],
                    )
                    .unwrap();
                }
                be
            })
        })
        .collect();

    let expected = 2 * PER_BACKEND * backend_ranks.len() as u64;
    for _ in 0..expected {
        stream.recv_timeout(TIMEOUT).unwrap();
    }
    let snap = net.metrics_snapshot(Duration::from_secs(5)).unwrap();
    let leaf_bytes: u64 = sections_for(&snap, &backend_ranks)
        .map(|s| s.get("up.bytes.local").unwrap_or(0))
        .sum();
    let root = snap
        .nodes
        .iter()
        .filter(|s| !backend_ranks.contains(&s.rank))
        .find(|s| s.get("down.pkts.recv") == Some(0))
        .expect("exactly one node has no parent");
    assert!(leaf_bytes > 0);
    assert_eq!(root.get("up.bytes.local"), Some(leaf_bytes));
    assert_eq!(root.get("filter.null.waves"), Some(expected));
    assert_eq!(root.get("filter.null.wait_us.count"), Some(0));
    assert_eq!(root.get("filter.null.exec_us.count"), Some(0));

    net.shutdown();
    for h in handles {
        h.join().unwrap();
    }
}

/// Snapshot sections come in rank order, whichever subtree answered
/// first, so two exports of one idle tree list the ranks, and so place
/// each metric's `# HELP`/`# TYPE` lines, the same way.
#[test]
fn exports_list_ranks_in_ascending_order() {
    let _untraced = TRACE_GATE.read();
    let dep = launch_local(generator::balanced(2, 2, &mut pool()).unwrap()).unwrap();
    let net = dep.network.clone();
    let _backends = dep.backends;
    let mut orders = Vec::new();
    for _ in 0..2 {
        let export = net.export_metrics(TIMEOUT).unwrap();
        let nodes: Vec<u32> = export.snapshot.nodes.iter().map(|s| s.rank).collect();
        let mut ascending = nodes.clone();
        ascending.sort_unstable();
        assert_eq!(nodes, ascending);
        assert_eq!(nodes.len(), 7, "every node answered");
        // Series in the order the export renders them, one entry per
        // run of one rank; the front-end's trace section (rank 0)
        // renders after the nodes.
        let mut series: Vec<u32> = (export.prometheus.lines())
            .filter_map(|line| {
                line.split_once("rank=\"")?
                    .1
                    .split('"')
                    .next()?
                    .parse()
                    .ok()
            })
            .collect();
        series.dedup();
        assert!(series.starts_with(&nodes), "{series:?}");
        assert!(series[nodes.len()..].iter().all(|&r| r == 0), "{series:?}");
        orders.push(nodes);
    }
    assert_eq!(orders[0], orders[1]);
    net.shutdown();
}

/// Back-ends answer introspection as the request is delivered: an idle
/// tree whose back-end threads never receive reports every node.
#[test]
fn backends_that_never_receive_answer_introspection() {
    let _untraced = TRACE_GATE.read();
    let dep = launch_local(generator::balanced(2, 2, &mut pool()).unwrap()).unwrap();
    let snap = dep
        .network
        .metrics_snapshot(Duration::from_secs(5))
        .unwrap();
    assert_eq!(snap.nodes.len(), 7, "ranks seen: {:?}", snap.ranks());
    dep.network.shutdown();
}

/// A timeout too long for `Duration` to add the reply's slack to is no
/// deadline: a snapshot and an export wait for every node's section
/// instead of panicking.
#[test]
fn snapshots_with_an_unrepresentable_timeout_wait_without_one() {
    let _untraced = TRACE_GATE.read();
    let dep = launch_local(generator::balanced(2, 1, &mut pool()).unwrap()).unwrap();
    let net = dep.network.clone();
    let _backends = dep.backends;
    let snap = net.metrics_snapshot(Duration::MAX).unwrap();
    assert_eq!(snap.nodes.len(), 3, "the root and both back-ends answered");
    let export = net.export_metrics(Duration::MAX).unwrap();
    assert_eq!(export.snapshot.nodes.len(), 3);
    net.shutdown();
}

/// Every name a traced tree reports, in its snapshot and in both export
/// renderings, belongs to the catalogue (`mrnet_obs::metrics::METRICS`);
/// a histogram's entries belong to their base name.
#[test]
fn every_reported_name_is_catalogued() {
    let _traced = TRACE_GATE.write().unwrap_or_else(PoisonError::into_inner);
    trace::set_enabled(true);
    tracectx::set_sample_every(1);

    let (net, handles) = one_sum_wave();

    // Clock estimates arrive as the connect-time pings complete; wait
    // until the export carries every trace family.
    let traced = |e: &MetricsExport| {
        let has = |prefix| e.trace.names.iter().any(|n| n.starts_with(prefix));
        has("trace.clock.") && has("trace.hop.") && has("trace.edge.")
    };
    let deadline = Instant::now() + TIMEOUT;
    let mut export = net.export_metrics(TIMEOUT).unwrap();
    while !traced(&export) {
        assert!(Instant::now() < deadline, "{:?}", export.trace.names);
        std::thread::sleep(Duration::from_millis(10));
        export = net.export_metrics(TIMEOUT).unwrap();
    }
    let snap = net.metrics_snapshot(TIMEOUT).unwrap();
    let sections = [&snap.nodes[..], &export.snapshot.nodes, &[export.trace]].concat();
    let names: Vec<&String> = sections.iter().flat_map(|s| &s.names).collect();
    for family in ["stream.", "filter.d_sum.wait_us.", "conn.", "trace.waves."] {
        assert!(names.iter().any(|n| n.starts_with(family)), "no {family}*");
    }
    for name in &names {
        let def = lookup(name).or_else(|| {
            let (base, suffix) = name.rsplit_once('.')?;
            let hist = suffix == "count" || suffix == "sum_us" || suffix.starts_with("le_");
            lookup(base).filter(|d| hist && d.kind == MetricKind::Histogram)
        });
        assert!(def.is_some(), "{name} is not catalogued");
    }
    // So the export types every metric it renders.
    assert!(!export.prometheus.contains(" untyped\n"));

    trace::set_enabled(false);
    net.shutdown();
    for h in handles {
        h.join().unwrap();
    }
}
