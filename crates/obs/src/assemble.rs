//! Skew-corrected wave reconstruction.
//!
//! The front-end holds one [`TraceAssembler`]. Completed
//! [`TraceEnvelope`]s arrive there — up-wave envelopes directly (the
//! wave terminates at the root), down-wave envelopes relayed upstream
//! by the back-end that terminated them — and the assembler rebuilds
//! each into a [`WaveTimeline`]: the ordered hop sequence with every
//! timestamp mapped into the front-end's clock domain.
//!
//! Skew correction uses the per-rank clock offsets estimated by the
//! connect-time ping handshake (NTP-style,
//! `offset = ((t1 - t0) + (t2 - t3)) / 2`, accumulated hop by hop so
//! each entry is "that rank's clock minus the front-end's clock").
//! Correcting a stamp is therefore one subtraction. Per-hop dwell
//! times (`send - recv` at one node) need no correction at all — both
//! stamps come from the same clock — while per-edge wire+queue times
//! (`recv` at the next hop minus `send` at the previous) are computed
//! from corrected stamps.
//!
//! Each assembled wave feeds two histogram families using the existing
//! bucket scheme (p50/p95/p99 via `HistogramSnapshot::quantile_le_us`):
//! `trace.hop.<rank>.us` (dwell inside one node) and
//! `trace.edge.<from>_<to>.us` (one tree edge, direction implied by
//! the rank pair).

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Mutex};

use crate::metrics::{Counter, Histogram};
use crate::snapshot::MetricsSection;
use crate::trace::TraceDir;
use crate::tracectx::TraceEnvelope;
use crate::Unpoisoned;

/// How many assembled timelines the assembler retains for inspection.
pub const DEFAULT_TIMELINE_CAPACITY: usize = 256;

/// One rank's clock, relative to the front-end's.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClockEntry {
    /// That rank's clock minus the front-end's clock, microseconds.
    /// Subtracting it from a local stamp yields front-end time.
    pub offset_us: i64,
    /// Round-trip time of the winning (minimum-RTT) ping, µs — the
    /// estimate's uncertainty is on the order of `rtt_us / 2`.
    pub rtt_us: u64,
}

/// One hop of an assembled timeline, in the front-end's clock domain.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorrectedHop {
    /// The observing node's rank.
    pub rank: u32,
    /// Corrected arrival time at this node, µs.
    pub recv_us: u64,
    /// Corrected forward time from this node, µs.
    pub send_us: u64,
}

/// A reconstructed wave: its id, stream, direction, and the ordered,
/// skew-corrected hop sequence (origin first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WaveTimeline {
    /// The envelope's trace id.
    pub trace_id: u64,
    /// Stream the wave rode.
    pub stream: u32,
    /// Direction of travel.
    pub dir: TraceDir,
    /// Hops in travel order, all stamps in the front-end clock.
    pub hops: Vec<CorrectedHop>,
}

#[derive(Debug, Default)]
struct HistFamilies {
    hops: BTreeMap<u32, Arc<Histogram>>,
    edges: BTreeMap<(u32, u32), Arc<Histogram>>,
}

/// Reassembles completed trace envelopes into skew-corrected
/// timelines and aggregates per-hop / per-edge latency histograms.
///
/// Shared (`Arc`) between the front-end node loop, which feeds it, and
/// the `Network` export API, which renders it.
#[derive(Debug)]
pub struct TraceAssembler {
    clocks: Mutex<BTreeMap<u32, ClockEntry>>,
    hists: Mutex<HistFamilies>,
    timelines: Mutex<VecDeque<WaveTimeline>>,
    capacity: usize,
    /// Envelopes successfully assembled.
    pub assembled: Counter,
    /// Envelopes dropped as malformed (no hops).
    pub dropped: Counter,
}

impl Default for TraceAssembler {
    fn default() -> TraceAssembler {
        TraceAssembler::new()
    }
}

impl TraceAssembler {
    /// Creates an assembler retaining [`DEFAULT_TIMELINE_CAPACITY`]
    /// timelines.
    pub fn new() -> TraceAssembler {
        TraceAssembler::with_capacity(DEFAULT_TIMELINE_CAPACITY)
    }

    /// Creates an assembler retaining at most `capacity` timelines
    /// (minimum 1).
    pub fn with_capacity(capacity: usize) -> TraceAssembler {
        TraceAssembler {
            clocks: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(HistFamilies::default()),
            timelines: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
            assembled: Counter::new(),
            dropped: Counter::new(),
        }
    }

    /// Records `rank`'s estimated clock offset (relative to the
    /// front-end) and ping RTT. Later estimates replace earlier ones
    /// only when their RTT is no worse (minimum-RTT filtering).
    pub fn set_clock(&self, rank: u32, offset_us: i64, rtt_us: u64) {
        let mut clocks = self.clocks.lock().unpoisoned();
        match clocks.get(&rank) {
            Some(old) if old.rtt_us <= rtt_us => {}
            _ => {
                clocks.insert(rank, ClockEntry { offset_us, rtt_us });
            }
        }
    }

    /// The clock entry for `rank`; unknown ranks read as offset 0
    /// (same clock as the front-end — exact in thread mode).
    pub fn clock_of(&self, rank: u32) -> ClockEntry {
        self.clocks
            .lock()
            .unpoisoned()
            .get(&rank)
            .copied()
            .unwrap_or_default()
    }

    /// Ranks with a resolved clock estimate, sorted ascending.
    pub fn synced_ranks(&self) -> Vec<u32> {
        self.clocks.lock().unpoisoned().keys().copied().collect()
    }

    /// Ingests one completed envelope: corrects its stamps into the
    /// front-end clock, records per-hop dwell and per-edge latencies,
    /// and retains the timeline. Returns the timeline, or `None` for a
    /// hopless (malformed) envelope.
    pub fn ingest(&self, env: &TraceEnvelope, dir: TraceDir) -> Option<WaveTimeline> {
        if env.hops.is_empty() {
            self.dropped.inc();
            return None;
        }
        let hops: Vec<CorrectedHop> = env
            .hops
            .iter()
            .map(|h| {
                let off = self.clock_of(h.rank).offset_us;
                CorrectedHop {
                    rank: h.rank,
                    recv_us: correct(h.recv_us, off),
                    send_us: correct(h.send_us, off),
                }
            })
            .collect();
        {
            let mut hists = self.hists.lock().unpoisoned();
            for (i, h) in hops.iter().enumerate() {
                // Dwell uses the raw same-clock stamps, so take it
                // from the uncorrected envelope to dodge rounding.
                let raw = &env.hops[i];
                Arc::clone(
                    hists
                        .hops
                        .entry(h.rank)
                        .or_insert_with(|| Arc::new(Histogram::new())),
                )
                .record_us(raw.send_us.saturating_sub(raw.recv_us));
                if let Some(next) = hops.get(i + 1) {
                    Arc::clone(
                        hists
                            .edges
                            .entry((h.rank, next.rank))
                            .or_insert_with(|| Arc::new(Histogram::new())),
                    )
                    .record_us(next.recv_us.saturating_sub(h.send_us));
                }
            }
        }
        let timeline = WaveTimeline {
            trace_id: env.trace_id,
            stream: env.stream,
            dir,
            hops,
        };
        {
            let mut ring = self.timelines.lock().unpoisoned();
            if ring.len() == self.capacity {
                ring.pop_front();
            }
            ring.push_back(timeline.clone());
        }
        self.assembled.inc();
        Some(timeline)
    }

    /// Copies out the retained timelines, oldest first.
    pub fn timelines(&self) -> Vec<WaveTimeline> {
        self.timelines.lock().unpoisoned().iter().cloned().collect()
    }

    /// Per-rank dwell histograms, sorted by rank.
    pub fn hop_histograms(&self) -> Vec<(u32, Arc<Histogram>)> {
        self.hists
            .lock()
            .unpoisoned()
            .hops
            .iter()
            .map(|(r, h)| (*r, Arc::clone(h)))
            .collect()
    }

    /// Per-edge latency histograms, sorted by `(from, to)` rank pair.
    pub fn edge_histograms(&self) -> Vec<((u32, u32), Arc<Histogram>)> {
        self.hists
            .lock()
            .unpoisoned()
            .edges
            .iter()
            .map(|(e, h)| (*e, Arc::clone(h)))
            .collect()
    }

    /// Flattens the assembler's aggregates into `section` using the
    /// snapshot naming scheme, for export alongside node metrics.
    pub fn section_into(&self, section: &mut MetricsSection) {
        section.push("trace.waves.assembled", self.assembled.get());
        section.push("trace.waves.dropped", self.dropped.get());
        for (rank, entry) in self.clocks.lock().unpoisoned().iter() {
            // Sections carry unsigned values; split the signed offset
            // into its two readable halves (one is always zero).
            section.push(
                &format!("trace.clock.{rank}.ahead_us"),
                entry.offset_us.max(0) as u64,
            );
            section.push(
                &format!("trace.clock.{rank}.behind_us"),
                (-entry.offset_us).max(0) as u64,
            );
            section.push(&format!("trace.clock.{rank}.rtt_us"), entry.rtt_us);
        }
        for (rank, h) in self.hop_histograms() {
            section.push_histogram(&format!("trace.hop.{rank}.us"), &h.snapshot());
        }
        for ((from, to), h) in self.edge_histograms() {
            section.push_histogram(&format!("trace.edge.{from}_{to}.us"), &h.snapshot());
        }
    }
}

/// Maps a local stamp into the front-end clock: subtract the rank's
/// offset, saturating at zero (sections carry unsigned values).
fn correct(us: u64, offset_us: i64) -> u64 {
    let v = us as i64 - offset_us;
    v.max(0) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tracectx::HopRecord;

    fn env(trace_id: u64, stream: u32, hops: &[(u32, u64, u64)]) -> TraceEnvelope {
        TraceEnvelope {
            trace_id,
            stream,
            hops: hops
                .iter()
                .map(|&(rank, recv_us, send_us)| HopRecord {
                    rank,
                    recv_us,
                    send_us,
                })
                .collect(),
        }
    }

    #[test]
    fn corrects_skew_and_orders_hops() {
        let asm = TraceAssembler::new();
        // Rank 2's clock runs 1000 µs ahead of the front-end's.
        asm.set_clock(1, 0, 10);
        asm.set_clock(2, 1000, 20);
        // Raw stamps look non-causal (hop 2 "before" hop 1 sent).
        let e = env(42, 7, &[(2, 2000, 2100), (1, 1150, 1200), (0, 1250, 1300)]);
        let tl = asm.ingest(&e, TraceDir::Up).unwrap();
        assert_eq!(tl.trace_id, 42);
        assert_eq!(tl.stream, 7);
        assert_eq!(tl.hops.len(), 3);
        // Corrected: rank 2 at 1000..1100, rank 1 at 1150..1200, root
        // at 1250..1300 — causal after correction.
        assert_eq!(tl.hops[0].recv_us, 1000);
        assert_eq!(tl.hops[0].send_us, 1100);
        for w in tl.hops.windows(2) {
            assert!(w[0].send_us <= w[1].recv_us);
        }
        assert_eq!(asm.assembled.get(), 1);
    }

    #[test]
    fn feeds_hop_and_edge_histograms() {
        let asm = TraceAssembler::new();
        let e = env(1, 3, &[(4, 100, 150), (1, 160, 180), (0, 200, 205)]);
        asm.ingest(&e, TraceDir::Up).unwrap();
        let hops = asm.hop_histograms();
        assert_eq!(hops.len(), 3);
        let by_rank: BTreeMap<u32, u64> = hops
            .iter()
            .map(|(r, h)| (*r, h.snapshot().sum_us))
            .collect();
        assert_eq!(by_rank[&4], 50);
        assert_eq!(by_rank[&1], 20);
        assert_eq!(by_rank[&0], 5);
        let edges = asm.edge_histograms();
        assert_eq!(edges.len(), 2);
        assert_eq!(edges[0].0, (1, 0));
        assert_eq!(edges[0].1.snapshot().sum_us, 20); // 200 - 180
        assert_eq!(edges[1].0, (4, 1));
        assert_eq!(edges[1].1.snapshot().sum_us, 10); // 160 - 150
    }

    #[test]
    fn min_rtt_wins_clock_updates() {
        let asm = TraceAssembler::new();
        asm.set_clock(5, 400, 100);
        asm.set_clock(5, 900, 300); // worse RTT: ignored
        assert_eq!(asm.clock_of(5).offset_us, 400);
        asm.set_clock(5, 50, 40); // better RTT: replaces
        assert_eq!(
            asm.clock_of(5),
            ClockEntry {
                offset_us: 50,
                rtt_us: 40
            }
        );
        assert_eq!(asm.clock_of(99), ClockEntry::default());
        assert_eq!(asm.synced_ranks(), vec![5]);
    }

    #[test]
    fn drops_empty_envelopes_and_bounds_ring() {
        let asm = TraceAssembler::with_capacity(2);
        assert!(asm.ingest(&env(9, 0, &[]), TraceDir::Down).is_none());
        assert_eq!(asm.dropped.get(), 1);
        for i in 0..5u64 {
            asm.ingest(&env(i, 0, &[(0, 1, 2)]), TraceDir::Down);
        }
        let kept = asm.timelines();
        assert_eq!(kept.len(), 2);
        assert_eq!(kept[0].trace_id, 3);
        assert_eq!(kept[1].trace_id, 4);
        assert_eq!(asm.assembled.get(), 5);
    }

    #[test]
    fn section_export_names_hops_edges_and_clocks() {
        let asm = TraceAssembler::new();
        asm.set_clock(2, -40, 15);
        asm.ingest(&env(1, 1, &[(2, 10, 30), (0, 50, 60)]), TraceDir::Up);
        let mut s = MetricsSection::new(0);
        asm.section_into(&mut s);
        assert_eq!(s.get("trace.waves.assembled"), Some(1));
        assert_eq!(s.get("trace.waves.dropped"), Some(0));
        assert_eq!(s.get("trace.clock.2.ahead_us"), Some(0));
        assert_eq!(s.get("trace.clock.2.behind_us"), Some(40));
        assert_eq!(s.get("trace.clock.2.rtt_us"), Some(15));
        assert_eq!(s.get("trace.hop.2.us.count"), Some(1));
        assert_eq!(s.get("trace.hop.0.us.count"), Some(1));
        assert_eq!(s.get("trace.edge.2_0.us.count"), Some(1));
    }
}
