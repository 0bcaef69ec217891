//! Shared machinery for the figure generators.
//!
//! The generator binaries (`src/bin/fig*.rs`) regenerate every table
//! and figure of the paper's evaluation section on the simulated Blue
//! Pacific substrate, printing the same series the paper plots.
//!
//! [`BenchTree`] stands up a live tree whose back-ends answer
//! reduction requests on demand, the workload shape of the Figure 7
//! micro-benchmarks; fig7b/fig7c use it for their live traced
//! cross-checks.

#![forbid(unsafe_code)]

use std::time::Duration;

use mrnet::{Deployment, Network, NetworkBuilder, Stream, SyncMode, Value};
use mrnet_topology::{generator, HostPool, Topology};

/// Builds the standard experiment topologies: `None` = flat,
/// `Some(k)` = balanced k-way tree, both with exactly `backends`
/// leaves.
pub fn experiment_topology(fanout: Option<usize>, backends: usize) -> Topology {
    let mut pool = HostPool::synthetic((backends * 3).max(64));
    match fanout {
        None => generator::flat(backends, &mut pool).expect("flat topology"),
        Some(k) => generator::balanced_for(k, backends, &mut pool).expect("balanced topology"),
    }
}

/// Label used in tables for a topology choice.
pub fn fanout_label(fanout: Option<usize>) -> String {
    match fanout {
        None => "flat".to_owned(),
        Some(k) => format!("{k}-way"),
    }
}

/// Tag understood by [`BenchTree`] back-end threads: reply with
/// `payload` waves of one `%d` packet each.
const GO: i32 = 900;

/// A live MRNet tree whose back-ends answer reduction requests; the
/// fig7b/fig7c generators drive round trips and reduction waves
/// through it.
pub struct BenchTree {
    /// The front-end handle.
    pub net: Network,
    stream: Stream,
    threads: Vec<std::thread::JoinHandle<()>>,
}

impl BenchTree {
    /// Stands up the tree with an integer-sum reduction stream.
    pub fn new(topology: Topology) -> BenchTree {
        let Deployment { network, backends } = NetworkBuilder::new(topology)
            .launch()
            .expect("instantiate bench tree");
        let threads: Vec<_> = backends
            .into_iter()
            .map(|be| {
                std::thread::spawn(move || loop {
                    match be.recv() {
                        Ok((pkt, sid)) => {
                            if pkt.tag() == GO {
                                let waves = pkt.get(0).and_then(Value::as_i32).unwrap_or(1);
                                for w in 0..waves {
                                    if be.send(sid, GO, "%d", vec![Value::Int32(w)]).is_err() {
                                        return;
                                    }
                                }
                            }
                        }
                        Err(_) => return,
                    }
                })
            })
            .collect();
        let comm = network.broadcast_communicator();
        let sum = network.registry().id_of("d_sum").expect("built-in");
        let stream = network
            .new_stream(&comm, sum, SyncMode::WaitForAll)
            .expect("bench stream");
        BenchTree {
            net: network,
            stream,
            threads,
        }
    }

    /// One broadcast + one reduction (the Figure 7b operation).
    pub fn roundtrip(&self) {
        self.stream
            .send(GO, "%d", vec![Value::Int32(1)])
            .expect("broadcast");
        self.stream
            .recv_timeout(Duration::from_secs(60))
            .expect("reduction");
    }

    /// One broadcast triggering `waves` pipelined reductions; blocks
    /// until all have arrived (the Figure 7c workload).
    pub fn reduction_waves(&self, waves: usize) {
        self.stream
            .send(GO, "%d", vec![Value::Int32(waves as i32)])
            .expect("broadcast");
        for _ in 0..waves {
            self.stream
                .recv_timeout(Duration::from_secs(60))
                .expect("reduction wave");
        }
    }

    /// Tears the tree down.
    pub fn shutdown(self) {
        self.net.shutdown();
        for t in self.threads {
            let _ = t.join();
        }
    }
}

/// Collects an in-band metrics snapshot from a live tree and prints
/// the internal per-node breakdown: packets moved in each direction,
/// plus per-filter synchronization-wait and execution times (the
/// paper's §3.2 internal costs). Per-hop latencies come from
/// [`print_trace_latency_table`].
pub fn print_hop_breakdown(net: &Network) {
    let snap = match net.metrics_snapshot(Duration::from_secs(5)) {
        Ok(s) => s,
        Err(e) => {
            println!("(metrics snapshot unavailable: {e})");
            return;
        }
    };
    println!(
        "{:>6} {:>10} {:>10} {:>10} {:>10}",
        "rank", "up.recv", "up.sent", "down.recv", "down.sent"
    );
    for rank in snap.ranks() {
        let Some(node) = snap.node(rank) else {
            continue;
        };
        let count = |name: &str| node.get(name).unwrap_or(0);
        println!(
            "{:>6} {:>10} {:>10} {:>10} {:>10}",
            rank,
            count("up.pkts.recv"),
            count("up.pkts.sent"),
            count("down.pkts.recv"),
            count("down.pkts.sent"),
        );
    }
    for rank in snap.ranks() {
        let Some(node) = snap.node(rank) else {
            continue;
        };
        for (name, waves) in node
            .entries()
            .filter(|(n, _)| n.starts_with("filter.") && n.ends_with(".waves"))
            .map(|(n, v)| (n.to_owned(), v))
            .collect::<Vec<_>>()
        {
            let base = name.trim_end_matches(".waves");
            let wait = node.hist_mean_us(&format!("{base}.wait_us")).unwrap_or(0.0);
            let exec = node.hist_mean_us(&format!("{base}.exec_us")).unwrap_or(0.0);
            println!(
                "  node {rank}: {base}: {waves} waves, mean wait {wait:.1} us, mean exec {exec:.1} us"
            );
        }
    }
}

/// Renders a bucketed quantile for display: the catch-all bucket has
/// no finite upper bound.
fn fmt_quantile(us: u64) -> String {
    if us == u64::MAX {
        ">max".to_owned()
    } else {
        us.to_string()
    }
}

/// Prints the per-hop latency table reconstructed by the front-end's
/// [`mrnet::TraceAssembler`] from sampled trace envelopes: per-rank dwell and
/// per-edge transit percentiles (skew-corrected), plus the clock
/// offset/RTT estimates behind the correction. This is the
/// trace-driven replacement for the ad-hoc per-node breakdown — it
/// answers "which hop made this wave slow?" directly. Requires
/// tracing on (`MRNET_TRACE=1` or `trace::set_enabled(true)`) while
/// the waves ran.
pub fn print_trace_latency_table(net: &Network) {
    let asm = net.trace_assembler();
    let hops = asm.hop_histograms();
    if hops.is_empty() {
        println!("(no traced waves assembled — enable tracing with MRNET_TRACE=1)");
        return;
    }
    println!(
        "{:>6} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "rank", "waves", "p50(us)", "p95(us)", "p99(us)", "mean(us)"
    );
    for (rank, h) in hops {
        let s = h.snapshot();
        println!(
            "{:>6} {:>8} {:>10} {:>10} {:>10} {:>10.1}",
            rank,
            s.count,
            fmt_quantile(s.quantile_le_us(0.50)),
            fmt_quantile(s.quantile_le_us(0.95)),
            fmt_quantile(s.quantile_le_us(0.99)),
            s.mean_us(),
        );
    }
    println!("\nper-edge transit latency (skew-corrected):");
    println!(
        "{:>12} {:>8} {:>10} {:>10} {:>10}",
        "edge", "waves", "p50(us)", "p95(us)", "p99(us)"
    );
    for ((from, to), h) in asm.edge_histograms() {
        let s = h.snapshot();
        println!(
            "{:>12} {:>8} {:>10} {:>10} {:>10}",
            format!("{from}->{to}"),
            s.count,
            fmt_quantile(s.quantile_le_us(0.50)),
            fmt_quantile(s.quantile_le_us(0.95)),
            fmt_quantile(s.quantile_le_us(0.99)),
        );
    }
    let synced = asm.synced_ranks();
    if !synced.is_empty() {
        println!("\nclock estimates (vs front-end):");
        for rank in synced {
            let c = asm.clock_of(rank);
            println!(
                "  rank {rank}: offset {:+} us, ping rtt {} us",
                c.offset_us, c.rtt_us
            );
        }
    }
}

/// Prints a table header: first column plus one column per series.
pub fn print_header(xlabel: &str, series: &[String]) {
    print!("{xlabel:>10}");
    for s in series {
        print!(" {s:>14}");
    }
    println!();
}

/// Prints one table row.
pub fn print_row(x: impl std::fmt::Display, values: &[f64]) {
    print!("{x:>10}");
    for v in values {
        print!(" {v:>14.4}");
    }
    println!();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn topologies_have_requested_backends() {
        assert_eq!(experiment_topology(None, 10).num_backends(), 10);
        assert_eq!(experiment_topology(Some(4), 64).num_backends(), 64);
        assert_eq!(experiment_topology(Some(8), 512).num_backends(), 512);
    }

    #[test]
    fn labels() {
        assert_eq!(fanout_label(None), "flat");
        assert_eq!(fanout_label(Some(8)), "8-way");
    }

    #[test]
    fn bench_tree_round_trips() {
        let tree = BenchTree::new(experiment_topology(Some(2), 4));
        tree.roundtrip();
        tree.reduction_waves(5);
        tree.shutdown();
    }
}
