//! Figure 7c: sustained data-reduction throughput (operations/second)
//! vs number of back-ends.
//!
//! Paper series: flat, 4-way, 8-way; moderate fan-outs let reductions
//! pipeline through the tree ("keeping reduction throughput high as
//! application size increases") at ~70 ops/s, while the flat topology
//! collapses to single digits.
//!
//! Run with: `cargo run -p mrnet-bench --release --bin fig7c_throughput`

use mrnet::obs::{trace, tracectx};
use mrnet::simulate::{reduction_throughput, SMALL_PACKET};
use mrnet_bench::{
    experiment_topology, fanout_label, print_header, print_hop_breakdown, print_row,
    print_trace_latency_table, BenchTree,
};
use mrnet_sim::LogGpParams;

fn main() {
    println!("Figure 7c: pipelined reduction throughput (ops/second) vs back-ends\n");
    let fanouts = [None, Some(4), Some(8)];
    print_header(
        "backends",
        &fanouts.iter().map(|&f| fanout_label(f)).collect::<Vec<_>>(),
    );
    for backends in [4usize, 8, 16, 32, 64, 128, 256, 384, 512] {
        let row: Vec<f64> = fanouts
            .iter()
            .map(|&fanout| {
                let topo = experiment_topology(fanout, backends);
                reduction_throughput(&topo, LogGpParams::blue_pacific(), SMALL_PACKET, 50)
            })
            .collect();
        print_row(backends, &row);
    }
    println!("\npaper shape: trees sustain ~70 ops/s out to 512 back-ends; flat collapses");

    // Live-tree cross-check: pipeline reduction waves through a real
    // threaded tree with tracing on and report the internal hop and
    // filter costs via the in-band introspection stream.
    println!("\ninternal per-hop breakdown, live 2-way tree with 4 back-ends (traced):\n");
    trace::set_enabled(true);
    tracectx::set_sample_every(1);
    let tree = BenchTree::new(experiment_topology(Some(2), 4));
    tree.reduction_waves(200);
    print_hop_breakdown(&tree.net);
    println!("\nassembled per-hop latency (from sampled trace envelopes):\n");
    std::thread::sleep(std::time::Duration::from_millis(200));
    print_trace_latency_table(&tree.net);
    tree.shutdown();
}
