//! In-band trace context: the envelope a sampled wave carries across
//! the tree.
//!
//! When tracing is on, a sampled fraction of waves (1 in
//! `MRNET_TRACE_SAMPLE`, default 1 in [`DEFAULT_SAMPLE_EVERY`]) carry a
//! compact [`TraceEnvelope`] — a trace id plus one [`HopRecord`] per
//! node the wave has visited, appended in travel order. The envelope
//! rides the frame as an optional trailer (encoded by the `packet`
//! crate), so untraced frames pay zero bytes and the per-packet hot
//! path keeps its single relaxed atomic load.
//!
//! Hop timestamps are wall-clock microseconds ([`wall_us`]) in the
//! *recording node's* clock domain; the assembler maps them into the
//! front-end's domain using the per-rank offsets estimated by the
//! clock-sync ping handshake (see `assemble`).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{SystemTime, UNIX_EPOCH};

use crate::trace;

/// Default sampling period: one traced wave per this many candidates.
pub const DEFAULT_SAMPLE_EVERY: u64 = 64;

/// Hard ceiling on hops an envelope may accumulate; a decoder that
/// sees more is looking at a corrupt or hostile trailer.
pub const MAX_TRACE_HOPS: usize = 256;

/// Current wall-clock time in microseconds since the UNIX epoch.
///
/// All hop stamps and ping timestamps use this domain so that
/// same-host processes (and threads of one process) agree trivially
/// and cross-host skew is a per-rank constant the assembler can
/// subtract.
pub fn wall_us() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_micros() as u64)
        .unwrap_or(0)
}

/// One node's observation of a traced wave: when the wave reached the
/// node and when the node forwarded it, both in the node's own clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HopRecord {
    /// The observing node's rank.
    pub rank: u32,
    /// When the wave arrived at (or originated from) this node, µs.
    pub recv_us: u64,
    /// When this node forwarded the wave onward, µs.
    pub send_us: u64,
}

/// The trace context a sampled wave carries: a process-unique id, the
/// stream the wave rides, and the hop records accumulated so far, in
/// travel order (origin first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEnvelope {
    /// Unique id: origin rank in the high 32 bits, a per-origin
    /// counter in the low 32.
    pub trace_id: u64,
    /// Stream the traced wave belongs to.
    pub stream: u32,
    /// Hop records in travel order; the first entry is the origin.
    pub hops: Vec<HopRecord>,
}

impl TraceEnvelope {
    /// Creates an envelope at its origin node with a single hop record
    /// stamped `now` for both receive and send.
    pub fn originate(rank: u32, stream: u32) -> TraceEnvelope {
        let now = wall_us();
        TraceEnvelope {
            trace_id: next_trace_id(rank),
            stream,
            hops: vec![HopRecord {
                rank,
                recv_us: now,
                send_us: now,
            }],
        }
    }

    /// Appends this node's hop record (capped at [`MAX_TRACE_HOPS`];
    /// further hops are dropped rather than growing without bound).
    pub fn add_hop(&mut self, rank: u32, recv_us: u64, send_us: u64) {
        if self.hops.len() < MAX_TRACE_HOPS {
            self.hops.push(HopRecord {
                rank,
                recv_us,
                send_us,
            });
        }
    }
}

static TRACE_SEQ: AtomicU64 = AtomicU64::new(1);

/// Allocates a process-unique trace id for an envelope originating at
/// `rank`: rank in the high 32 bits, a wrapping counter in the low 32,
/// so concurrent origins never collide without coordination.
pub fn next_trace_id(rank: u32) -> u64 {
    let seq = TRACE_SEQ.fetch_add(1, Ordering::Relaxed) & 0xffff_ffff;
    (u64::from(rank) << 32) | seq
}

/// Parses an `MRNET_TRACE_SAMPLE` value: the sampling period `N`
/// meaning "trace 1 in N waves". Missing, empty, or unparsable values
/// fall back to [`DEFAULT_SAMPLE_EVERY`]; `0` is clamped to 1 (trace
/// everything).
pub fn parse_sample_every(raw: Option<&str>) -> u64 {
    raw.and_then(|v| v.trim().parse::<u64>().ok())
        .map(|n| n.max(1))
        .unwrap_or(DEFAULT_SAMPLE_EVERY)
}

static SAMPLE_OVERRIDE: AtomicU64 = AtomicU64::new(0);
static SAMPLE_FROM_ENV: OnceLock<u64> = OnceLock::new();

/// The process-wide sampling period: the [`set_sample_every`] override
/// when set, otherwise `MRNET_TRACE_SAMPLE` (read once), otherwise
/// [`DEFAULT_SAMPLE_EVERY`].
pub fn sample_every() -> u64 {
    match SAMPLE_OVERRIDE.load(Ordering::Relaxed) {
        0 => *SAMPLE_FROM_ENV.get_or_init(|| {
            parse_sample_every(std::env::var("MRNET_TRACE_SAMPLE").ok().as_deref())
        }),
        n => n,
    }
}

/// Forces the sampling period for this process (tests, benches),
/// overriding `MRNET_TRACE_SAMPLE`. `0` is clamped to 1.
pub fn set_sample_every(every: u64) {
    SAMPLE_OVERRIDE.store(every.max(1), Ordering::Relaxed);
}

/// A wave-sampling decision maker for one origin node: every
/// [`sample_every`]-th candidate is traced, and only while tracing is
/// enabled. The counter advances only when tracing is on, so the first
/// wave after enabling is always sampled (deterministic tests).
#[derive(Debug, Default)]
pub struct TraceSampler {
    seen: AtomicU64,
}

impl TraceSampler {
    /// Creates a sampler whose first candidate (with tracing on) is
    /// sampled.
    pub fn new() -> TraceSampler {
        TraceSampler::default()
    }

    /// True when the current wave should carry a trace envelope.
    pub fn sample(&self) -> bool {
        if !trace::enabled() {
            return false;
        }
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        n.is_multiple_of(sample_every())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_sample_every_defaults_and_clamps() {
        assert_eq!(parse_sample_every(None), DEFAULT_SAMPLE_EVERY);
        assert_eq!(parse_sample_every(Some("")), DEFAULT_SAMPLE_EVERY);
        assert_eq!(parse_sample_every(Some("garbage")), DEFAULT_SAMPLE_EVERY);
        assert_eq!(parse_sample_every(Some("-3")), DEFAULT_SAMPLE_EVERY);
        assert_eq!(parse_sample_every(Some("0")), 1);
        assert_eq!(parse_sample_every(Some("1")), 1);
        assert_eq!(parse_sample_every(Some(" 128 ")), 128);
    }

    #[test]
    fn trace_ids_embed_rank_and_never_repeat() {
        let a = next_trace_id(7);
        let b = next_trace_id(7);
        assert_ne!(a, b);
        assert_eq!(a >> 32, 7);
        assert_eq!(next_trace_id(3) >> 32, 3);
    }

    #[test]
    fn envelope_originates_and_caps_hops() {
        let mut env = TraceEnvelope::originate(4, 9);
        assert_eq!(env.stream, 9);
        assert_eq!(env.hops.len(), 1);
        assert_eq!(env.hops[0].rank, 4);
        assert_eq!(env.hops[0].recv_us, env.hops[0].send_us);
        for i in 0..2 * MAX_TRACE_HOPS as u64 {
            env.add_hop(i as u32, i, i + 1);
        }
        assert_eq!(env.hops.len(), MAX_TRACE_HOPS);
    }

    #[test]
    fn sampler_respects_enable_gate_and_period() {
        // Overrides are process-global; use distinct values and restore.
        trace::set_enabled(false);
        let s = TraceSampler::new();
        assert!(!s.sample());
        trace::set_enabled(true);
        set_sample_every(3);
        assert!(s.sample()); // candidate 0
        assert!(!s.sample()); // 1
        assert!(!s.sample()); // 2
        assert!(s.sample()); // 3
        set_sample_every(1);
        assert!(s.sample());
        assert!(s.sample());
        trace::set_enabled(false);
    }

    #[test]
    fn wall_us_is_sane_and_monotonic_enough() {
        let a = wall_us();
        let b = wall_us();
        assert!(a > 1_000_000_000); // after 1970 by a wide margin
        assert!(b >= a || a - b < 1_000_000); // tolerate clock steps
    }
}
