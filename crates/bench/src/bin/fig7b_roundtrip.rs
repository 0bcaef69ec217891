//! Figure 7b: round-trip latency of one broadcast followed by one
//! reduction, vs number of back-ends.
//!
//! Paper series: flat, 4-way, 8-way; the flat topology's serialized
//! point-to-point transfers reach ~1.4 s at 512 back-ends while the
//! trees stay near-constant.
//!
//! Run with: `cargo run -p mrnet-bench --release --bin fig7b_roundtrip`

use mrnet::obs::{trace, tracectx};
use mrnet::simulate::{roundtrip_latency, SMALL_PACKET};
use mrnet_bench::{
    experiment_topology, fanout_label, print_header, print_row, print_trace_latency_table,
    BenchTree,
};
use mrnet_sim::LogGpParams;

fn main() {
    println!("Figure 7b: broadcast+reduction round-trip latency (seconds) vs back-ends\n");
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
                roundtrip_latency(&topo, LogGpParams::blue_pacific(), SMALL_PACKET)
            })
            .collect();
        print_row(backends, &row);
    }
    println!("\npaper shape: flat ≈ 1.4 s at 512 back-ends; trees well under 0.2 s");

    // Live-tree cross-check: run the same operation on a real threaded
    // tree with distributed tracing on (every wave sampled), then print
    // the per-hop latency table the front-end assembled from the trace
    // envelopes the waves carried.
    println!("\nper-hop latency, live 2-way tree with 4 back-ends (every wave traced):\n");
    trace::set_enabled(true);
    tracectx::set_sample_every(1);
    let tree = BenchTree::new(experiment_topology(Some(2), 4));
    for _ in 0..50 {
        tree.roundtrip();
    }
    // Let straggler down-wave TRACE_REPORTs drain before reading.
    std::thread::sleep(std::time::Duration::from_millis(200));
    print_trace_latency_table(&tree.net);
    tree.shutdown();
}
