//! Figure 4: balanced vs unbalanced topologies under LogP.
//!
//! Reproduces the §2.6 analysis: for sixteen back-ends, the balanced
//! 4-ary tree (Figure 4a) completes one broadcast in `8g + 4o + 2L`
//! and can start a new operation every `4g`, while the binomial-rooted
//! unbalanced tree (Figure 4b) may finish a single broadcast sooner
//! but needs `6g` between operations. The table sweeps the g/L ratio
//! and prints latency and pipelined-interval for both topologies,
//! showing the crossover.
//!
//! Run with: `cargo run -p mrnet-bench --release --bin fig4_logp`

use mrnet_bench::{print_header, print_row};
use mrnet_sim::LogGpParams;
use mrnet_topology::fig4_comparison;

fn main() {
    println!("Figure 4: balanced (4a) vs unbalanced (4b) topologies, 16 back-ends");
    println!("LogP units: o = 1, L and g swept; latencies in model cycles\n");
    print_header(
        "g/L",
        &[
            "bal.latency".into(),
            "unb.latency".into(),
            "bal.interval".into(),
            "unb.interval".into(),
            "latency win".into(),
        ],
    );
    for (gap, latency) in [
        (0.1, 10.0),
        (0.25, 4.0),
        (0.5, 2.0),
        (1.0, 1.0),
        (2.0, 0.5),
        (4.0, 0.25),
        (10.0, 0.1),
    ] {
        let params = LogGpParams {
            latency,
            overhead: 1.0,
            gap,
            big_gap: 0.0,
        };
        let row = fig4_comparison(&params);
        let winner = if row.balanced_latency <= row.unbalanced_latency {
            1.0 // balanced
        } else {
            -1.0 // unbalanced
        };
        print_row(
            format!("{:.2}", gap / latency),
            &[
                row.balanced_latency,
                row.unbalanced_latency,
                row.balanced_interval,
                row.unbalanced_interval,
                winner,
            ],
        );
    }
    println!("\n(latency win: 1 = balanced finishes a single broadcast first, -1 = unbalanced)");
    println!("The balanced tree's pipelined interval (4g) always beats the");
    println!("unbalanced tree's (6g): better throughput for pipelined operations,");
    println!("which is why the paper's experiments use balanced trees.");

    // The paper's symbolic check.
    let row = fig4_comparison(&LogGpParams::unit());
    assert!((row.balanced_latency - (8.0 + 4.0 + 2.0)).abs() < 1e-9);
    assert!((row.balanced_interval - 4.0).abs() < 1e-9);
    assert!((row.unbalanced_interval - 6.0).abs() < 1e-9);
    println!("\nsymbolic check passed: balanced latency = 8g+4o+2L, intervals 4g vs 6g");
}
