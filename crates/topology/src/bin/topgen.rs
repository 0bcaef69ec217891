//! `topgen` — the automatic topology configuration generator.
//!
//! §4.1: "we determined the partition nodes' host names and used an
//! automatic configuration generator program to build an MRNet
//! configuration file with the desired topology within the partition."
//!
//! Usage:
//! ```text
//! topgen --backends N [--fanout K | --flat | --shape AxBxC]
//!        [--hosts h1,h2,... | --synthetic-hosts M]
//!        [--stats]
//! ```
//!
//! Prints the configuration file on stdout; `--stats` adds a `#`
//! commented summary (depth, internal processes, LogP latency under
//! Blue-Pacific-like parameters).

use std::process::ExitCode;

use mrnet_obs::log_error;
use mrnet_sim::LogGpParams;
use mrnet_topology::{
    broadcast_latency, generator, pipeline_throughput, write_config, HostPool, Topology, TreeStats,
};

struct Args {
    backends: usize,
    mode: Mode,
    hosts: Option<Vec<String>>,
    synthetic_hosts: usize,
    stats: bool,
}

enum Mode {
    Flat,
    Fanout(usize),
    Shape(String),
}

fn parse_args() -> Result<Args, String> {
    let mut backends = None;
    let mut mode = None;
    let mut hosts = None;
    let mut synthetic_hosts = 0usize;
    let mut stats = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--backends" => {
                backends = Some(
                    args.next()
                        .ok_or("--backends needs a value")?
                        .parse::<usize>()
                        .map_err(|e| format!("bad --backends: {e}"))?,
                )
            }
            "--fanout" => {
                mode = Some(Mode::Fanout(
                    args.next()
                        .ok_or("--fanout needs a value")?
                        .parse::<usize>()
                        .map_err(|e| format!("bad --fanout: {e}"))?,
                ))
            }
            "--flat" => mode = Some(Mode::Flat),
            "--shape" => mode = Some(Mode::Shape(args.next().ok_or("--shape needs AxBxC")?)),
            "--hosts" => {
                hosts = Some(
                    args.next()
                        .ok_or("--hosts needs h1,h2,...")?
                        .split(',')
                        .map(str::trim)
                        .filter(|s| !s.is_empty())
                        .map(str::to_owned)
                        .collect::<Vec<_>>(),
                )
            }
            "--synthetic-hosts" => {
                synthetic_hosts = args
                    .next()
                    .ok_or("--synthetic-hosts needs a value")?
                    .parse::<usize>()
                    .map_err(|e| format!("bad --synthetic-hosts: {e}"))?
            }
            "--stats" => stats = true,
            "--help" | "-h" => {
                return Err(
                    "usage: topgen --backends N [--fanout K | --flat | --shape AxBxC] \
                            [--hosts h1,h2,... | --synthetic-hosts M] [--stats]"
                        .into(),
                )
            }
            other => return Err(format!("unknown flag `{other}` (try --help)")),
        }
    }
    Ok(Args {
        backends: backends.ok_or("missing --backends N")?,
        mode: mode.unwrap_or(Mode::Fanout(8)),
        hosts,
        synthetic_hosts,
        stats,
    })
}

fn build(args: &Args) -> Result<Topology, String> {
    let mut pool = match (&args.hosts, args.synthetic_hosts) {
        (Some(hosts), _) if !hosts.is_empty() => HostPool::named(hosts.clone()),
        (_, n) if n > 0 => HostPool::synthetic(n),
        _ => HostPool::synthetic((args.backends * 2).max(8)),
    };
    let topo = match &args.mode {
        Mode::Flat => generator::flat(args.backends, &mut pool),
        Mode::Fanout(k) => generator::balanced_for(*k, args.backends, &mut pool),
        Mode::Shape(shape) => generator::from_shorthand(shape, &mut pool),
    }
    .map_err(|e| e.to_string())?;
    if matches!(args.mode, Mode::Shape(_)) && topo.num_backends() != args.backends {
        return Err(format!(
            "shape produces {} back-ends but --backends {} was requested",
            topo.num_backends(),
            args.backends
        ));
    }
    Ok(topo)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            log_error!("topgen", "{msg}");
            return ExitCode::FAILURE;
        }
    };
    let topo = match build(&args) {
        Ok(t) => t,
        Err(msg) => {
            log_error!("topgen", "{msg}");
            return ExitCode::FAILURE;
        }
    };
    if args.stats {
        let s = TreeStats::of(&topo);
        // `G` does not enter the broadcast or pipeline formulas.
        let logp = LogGpParams::blue_pacific();
        println!("# back-ends: {}", s.backends);
        println!("# internal processes: {}", s.internals);
        println!("# depth: {}  max fan-out: {}", s.depth, s.max_fanout);
        println!(
            "# modeled broadcast latency: {:.4} s; pipelined throughput: {:.1} ops/s",
            broadcast_latency(&topo, &logp),
            pipeline_throughput(&topo, &logp)
        );
    }
    print!("{}", write_config(&topo));
    ExitCode::SUCCESS
}
