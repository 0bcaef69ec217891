//! Lock-cheap metric instruments and the per-node registry.
//!
//! Three primitive instruments — [`Counter`], [`Gauge`], and
//! [`Histogram`] — all built on relaxed atomics so recording on the
//! packet hot path costs a single `fetch_add`. [`NodeMetrics`] bundles
//! the fixed per-node instruments (packets and bytes, up and down,
//! sent and received) with lazily-created per-stream and per-filter
//! instrument groups; lookups lock a mutex once and the
//! returned `Arc` handles are cached by their users, keeping the maps
//! off the hot path.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::snapshot::MetricsSection;
use crate::Unpoisoned;

/// Number of exponential histogram buckets: bucket `i` counts samples
/// with value `<= 2^i` microseconds (the last bucket is a catch-all),
/// spanning 1 µs to ~33 s.
pub const HIST_BUCKETS: usize = 26;

/// A monotonically increasing event count.
///
/// Increments are relaxed and wrapping: under pathological overflow the
/// count wraps rather than panicking or stalling the packet path.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Counter {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` (wrapping on overflow).
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// An instantaneous signed level, e.g. a queue depth.
#[derive(Debug, Default)]
pub struct Gauge(AtomicI64);

impl Gauge {
    /// Creates a gauge at zero.
    pub fn new() -> Gauge {
        Gauge(AtomicI64::new(0))
    }

    /// Sets the level.
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adds `d` (may be negative).
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// The current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Maps a microsecond value to its bucket: bucket `i` holds samples
/// `<= 2^i` µs, with the final bucket catching everything larger.
fn bucket_index(us: u64) -> usize {
    if us <= 1 {
        0
    } else {
        (64 - (us - 1).leading_zeros() as usize).min(HIST_BUCKETS - 1)
    }
}

/// A fixed-bucket exponential latency histogram (microsecond domain).
///
/// Recording is two relaxed adds (bucket + running sum); there is no
/// allocation and no locking, so it is safe on the per-packet path.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }

    /// Records one sample measured in microseconds.
    pub fn record_us(&self, us: u64) {
        self.buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Records one sample given in seconds (the node loop's clock
    /// domain); negative or non-finite values are clamped to zero.
    pub fn record_secs(&self, secs: f64) {
        let us = if secs.is_finite() && secs > 0.0 {
            (secs * 1e6) as u64
        } else {
            0
        };
        self.record_us(us);
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram.
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum_us: self.sum_us.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; bucket `i` holds samples `<= 2^i` µs.
    pub buckets: [u64; HIST_BUCKETS],
    /// Total samples.
    pub count: u64,
    /// Sum of all samples, in microseconds.
    pub sum_us: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot::empty()
    }
}

impl HistogramSnapshot {
    /// An empty snapshot (no samples).
    pub fn empty() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; HIST_BUCKETS],
            count: 0,
            sum_us: 0,
        }
    }

    /// Folds `other` into `self` bucket-by-bucket — the reduction two
    /// node snapshots undergo when aggregating histograms across the
    /// tree. Counts and sums add with wrapping, matching [`Counter`]'s
    /// overflow posture.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        for (mine, theirs) in self.buckets.iter_mut().zip(other.buckets.iter()) {
            *mine = mine.wrapping_add(*theirs);
        }
        self.count = self.count.wrapping_add(other.count);
        self.sum_us = self.sum_us.wrapping_add(other.sum_us);
    }

    /// Mean sample value in microseconds (zero when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// The upper bound (µs) of the smallest bucket whose cumulative
    /// count reaches quantile `q` in `0.0..=1.0`; zero when empty. The
    /// last bucket is unbounded, reported as `u64::MAX`.
    pub fn quantile_le_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = (q.clamp(0.0, 1.0) * self.count as f64).ceil() as u64;
        let mut cum = 0u64;
        for (i, b) in self.buckets.iter().enumerate() {
            cum += b;
            if cum >= target.max(1) {
                return if i == HIST_BUCKETS - 1 {
                    u64::MAX
                } else {
                    1u64 << i
                };
            }
        }
        u64::MAX
    }
}

/// Point-in-time send-side stats for one downstream connection,
/// recorded per child rank at snapshot time so a slow child is
/// identifiable from the metrics snapshot alone.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConnSendStats {
    /// Frames queued behind this connection's writer.
    pub queue_depth: u64,
    /// Frames that shared a transmit syscall with another frame.
    pub coalesced: u64,
    /// Sends that found this connection's outbound queue at capacity.
    pub stalls: u64,
}

/// Per-stream packet counters, handed out by
/// [`NodeMetrics::stream_counters`] and cached by the stream manager.
#[derive(Debug, Default)]
pub struct StreamCounters {
    /// Upstream packets this node forwarded (or delivered, at the
    /// root) on this stream.
    pub up_pkts: Counter,
    /// Downstream packets this node forwarded (or delivered, at a
    /// leaf) on this stream.
    pub down_pkts: Counter,
}

/// Per-filter timing, handed out by [`NodeMetrics::filter_stats`].
#[derive(Debug, Default)]
pub struct FilterStats {
    /// Synchronization waves released through this filter.
    pub waves: Counter,
    /// Time from a wave's first packet arrival until the wave was
    /// released by the synchronization filter (the paper's §3.2
    /// "synchronization delay").
    pub wait_us: Histogram,
    /// Wall-clock time spent inside the transformation filter itself.
    pub exec_us: Histogram,
}

/// The per-node metrics registry: one per overlay process (front-end,
/// internal, or back-end), shared via `Arc` between the node loop,
/// stream managers, and the public API.
#[derive(Debug, Default)]
pub struct NodeMetrics {
    /// Packets this node sent toward the root (to its parent, or into
    /// local delivery at the root itself).
    pub up_pkts_sent: Counter,
    /// Packets this node received from below (from its children).
    pub up_pkts_recv: Counter,
    /// Packets this node sent away from the root (to its children, or
    /// into local delivery at a back-end).
    pub down_pkts_sent: Counter,
    /// Packets this node received from above (from its parent).
    pub down_pkts_recv: Counter,
    /// Encoded bytes of upstream packets delivered locally at the
    /// root, which has no parent connection to count them on.
    pub local_up_bytes: Counter,
    /// Messages (commands + frames) in the inbox batch this node's
    /// loop drained last.
    pub queue_depth: Gauge,
    /// Packets per flushed batch frame (batching amortizes the §4
    /// per-frame cost).
    pub batch_pkts: Histogram,
    /// Directly-connected peers this node confirmed dead (EOF,
    /// mid-frame loss, missed heartbeats, or garbage frames).
    pub peer_deaths: Counter,
    /// Connection attempts that needed at least one retry to succeed
    /// (the process-mode connect-back race; sums retries, not sockets).
    pub connect_retries: Counter,
    /// Stream-prune operations: streams whose membership shrank at
    /// this node because an end-point failed.
    pub pruned_streams: Counter,
    /// Topology events (rank failures) this node delivered to its
    /// local tool thread.
    pub events_delivered: Counter,
    /// Frames queued behind this node's per-connection writer threads,
    /// summed across connections at the last refresh.
    pub send_queue_depth: Gauge,
    /// Frames that shared a transmit syscall with at least one other
    /// frame (vectored-write coalescing), summed across connections.
    pub send_coalesced: Gauge,
    /// Sends that found an outbound queue at capacity, summed across
    /// connections — sustained growth means a peer reads slower than
    /// this node produces.
    pub send_stalls: Gauge,
    /// Batched data frames this node encoded when flushing toward its
    /// parent or children (introspection frames are not counted).
    pub frames_encoded: Counter,
    /// Child sends satisfied by a frame another child's flush already
    /// encoded (encode-once multicast): `frames_encoded +
    /// frames_shared` = data frames actually sent downstream.
    pub frames_shared: Counter,
    /// Data frames this node sent carrying a trace-envelope trailer.
    /// Stays at zero for untraced runs — the wire carries zero trailer
    /// bytes.
    pub trace_frames: Counter,
    /// Hop records this node stamped into passing trace envelopes.
    pub trace_hops: Counter,
    /// Packets this node forwarded (or delivered) still in their raw
    /// wire form — no payload decode, no re-encode, the outbound bytes
    /// are the inbound bytes (the lazy relay fast path).
    pub pkts_lazy_relayed: Counter,
    /// Wire-arrived packets whose payload a transformation filter on
    /// this node materialized (decoded). A pure relay keeps this at
    /// zero.
    pub pkts_decoded: Counter,
    /// Turns this node's loop ran: inbox drains, each followed by due
    /// timers and one flush.
    pub loop_turns: Counter,
    /// Turns of this node run by another node's thread, which made the
    /// node ready during its own turn (hand-off by execution).
    pub loop_turns_adopted: Counter,
    /// Times a thread that runs no turns (a tool thread, a TCP reader,
    /// the front-end API) made this node ready and unparked its owner
    /// thread to run the turn.
    pub loop_owner_wakes: Counter,
    streams: Mutex<BTreeMap<u32, Arc<StreamCounters>>>,
    filters: Mutex<BTreeMap<String, Arc<FilterStats>>>,
    conns: Mutex<BTreeMap<u32, ConnSendStats>>,
}

impl NodeMetrics {
    /// Creates an empty registry.
    pub fn new() -> NodeMetrics {
        NodeMetrics::default()
    }

    /// The counters for stream `id`, created on first use. Callers
    /// cache the returned handle; only the first lookup locks.
    pub fn stream_counters(&self, id: u32) -> Arc<StreamCounters> {
        Arc::clone(
            self.streams
                .lock()
                .unpoisoned()
                .entry(id)
                .or_insert_with(|| Arc::new(StreamCounters::default())),
        )
    }

    /// The timing stats for filter `name`, created on first use.
    pub fn filter_stats(&self, name: &str) -> Arc<FilterStats> {
        Arc::clone(
            self.filters
                .lock()
                .unpoisoned()
                .entry(name.to_string())
                .or_insert_with(|| Arc::new(FilterStats::default())),
        )
    }

    /// Records send-side connection stats for the child at `rank`,
    /// replacing the previous sample. Called at snapshot time, not on
    /// the packet path.
    pub fn set_conn_send_stats(&self, rank: u32, stats: ConnSendStats) {
        self.conns.lock().unpoisoned().insert(rank, stats);
    }

    /// Flattens every instrument into a wire-ready [`MetricsSection`]
    /// for `rank`.
    pub fn snapshot(&self, rank: u32) -> MetricsSection {
        let mut s = MetricsSection::new(rank);
        s.push("up.pkts.sent", self.up_pkts_sent.get());
        s.push("up.pkts.recv", self.up_pkts_recv.get());
        s.push("down.pkts.sent", self.down_pkts_sent.get());
        s.push("down.pkts.recv", self.down_pkts_recv.get());
        s.push("up.bytes.local", self.local_up_bytes.get());
        s.push("queue.depth", self.queue_depth.get().max(0) as u64);
        s.push("peer.deaths", self.peer_deaths.get());
        s.push("connect.retries", self.connect_retries.get());
        s.push("streams.pruned", self.pruned_streams.get());
        s.push("events.delivered", self.events_delivered.get());
        s.push(
            "send.queue_depth",
            self.send_queue_depth.get().max(0) as u64,
        );
        s.push(
            "send.coalesced_frames",
            self.send_coalesced.get().max(0) as u64,
        );
        s.push("send.enqueue_stalls", self.send_stalls.get().max(0) as u64);
        s.push("frames.encoded", self.frames_encoded.get());
        s.push("frames.shared", self.frames_shared.get());
        s.push("trace.frames", self.trace_frames.get());
        s.push("trace.hops", self.trace_hops.get());
        s.push("pkts.lazy_relayed", self.pkts_lazy_relayed.get());
        s.push("pkts.decoded", self.pkts_decoded.get());
        s.push("loop.turns", self.loop_turns.get());
        s.push("loop.turns_adopted", self.loop_turns_adopted.get());
        s.push("loop.owner_wakes", self.loop_owner_wakes.get());
        s.push_histogram("batch.pkts", &self.batch_pkts.snapshot());
        for (id, c) in self.streams.lock().unpoisoned().iter() {
            s.push(&format!("stream.{id}.up.pkts"), c.up_pkts.get());
            s.push(&format!("stream.{id}.down.pkts"), c.down_pkts.get());
        }
        for (name, f) in self.filters.lock().unpoisoned().iter() {
            s.push(&format!("filter.{name}.waves"), f.waves.get());
            s.push_histogram(&format!("filter.{name}.wait_us"), &f.wait_us.snapshot());
            s.push_histogram(&format!("filter.{name}.exec_us"), &f.exec_us.snapshot());
        }
        for (rank, c) in self.conns.lock().unpoisoned().iter() {
            s.push(&format!("conn.{rank}.send.queue_depth"), c.queue_depth);
            s.push(&format!("conn.{rank}.send.coalesced_frames"), c.coalesced);
            s.push(&format!("conn.{rank}.send.enqueue_stalls"), c.stalls);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 0);
        assert_eq!(bucket_index(2), 1);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 2);
        assert_eq!(bucket_index(5), 3);
        assert_eq!(bucket_index(1024), 10);
        assert_eq!(bucket_index(1025), 11);
        // Anything above 2^24 µs lands in the catch-all last bucket.
        assert_eq!(bucket_index(1 << 25), HIST_BUCKETS - 1);
        assert_eq!(bucket_index(u64::MAX), HIST_BUCKETS - 1);
    }

    #[test]
    fn histogram_records_and_snapshots() {
        let h = Histogram::new();
        h.record_us(1);
        h.record_us(3);
        h.record_us(3);
        h.record_us(1 << 30);
        let snap = h.snapshot();
        assert_eq!(snap.count, 4);
        assert_eq!(snap.sum_us, 1 + 3 + 3 + (1 << 30));
        assert_eq!(snap.buckets[0], 1);
        assert_eq!(snap.buckets[2], 2);
        assert_eq!(snap.buckets[HIST_BUCKETS - 1], 1);
        assert!((snap.mean_us() - snap.sum_us as f64 / 4.0).abs() < 1e-9);
    }

    #[test]
    fn histogram_record_secs_clamps() {
        let h = Histogram::new();
        h.record_secs(-1.0);
        h.record_secs(f64::NAN);
        h.record_secs(0.001); // 1 ms = 1000 µs
        let snap = h.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.buckets[0], 2); // the two clamped zeros
        assert_eq!(snap.buckets[10], 1); // 1000 µs <= 1024
    }

    #[test]
    fn histogram_quantiles() {
        let h = Histogram::new();
        for _ in 0..9 {
            h.record_us(2); // bucket 1 (<= 2 µs)
        }
        h.record_us(1 << 20); // bucket 20
        let snap = h.snapshot();
        assert_eq!(snap.quantile_le_us(0.5), 2);
        assert_eq!(snap.quantile_le_us(1.0), 1 << 20);
        assert_eq!(HistogramSnapshot::empty().quantile_le_us(0.5), 0);
    }

    #[test]
    fn empty_histogram_edge_cases() {
        let snap = HistogramSnapshot::empty();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.mean_us(), 0.0);
        assert_eq!(snap.quantile_le_us(0.0), 0);
        assert_eq!(snap.quantile_le_us(0.99), 0);
        assert_eq!(snap.quantile_le_us(1.0), 0);
    }

    #[test]
    fn single_bucket_histogram_quantiles() {
        let h = Histogram::new();
        for _ in 0..100 {
            h.record_us(7); // all land in bucket 3 (<= 8 µs)
        }
        let snap = h.snapshot();
        assert_eq!(snap.buckets[3], 100);
        // Every quantile resolves to the one occupied bucket.
        assert_eq!(snap.quantile_le_us(0.0), 8);
        assert_eq!(snap.quantile_le_us(0.5), 8);
        assert_eq!(snap.quantile_le_us(0.95), 8);
        assert_eq!(snap.quantile_le_us(1.0), 8);
    }

    #[test]
    fn catchall_bucket_quantiles_are_unbounded() {
        let h = Histogram::new();
        h.record_us(1);
        h.record_us(u64::MAX); // catch-all
        h.record_us(1 << 40); // catch-all
        let snap = h.snapshot();
        assert_eq!(snap.buckets[HIST_BUCKETS - 1], 2);
        assert_eq!(snap.quantile_le_us(0.33), 1);
        // The upper quantiles live in the unbounded last bucket.
        assert_eq!(snap.quantile_le_us(0.95), u64::MAX);
        assert_eq!(snap.quantile_le_us(1.0), u64::MAX);
    }

    #[test]
    fn merge_is_bucketwise_addition() {
        let a = Histogram::new();
        a.record_us(2);
        a.record_us(1000);
        let b = Histogram::new();
        b.record_us(2);
        b.record_us(u64::MAX);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count, 4);
        assert_eq!(merged.buckets[1], 2); // both 2 µs samples
        assert_eq!(merged.buckets[10], 1);
        assert_eq!(merged.buckets[HIST_BUCKETS - 1], 1);
        assert_eq!(merged.sum_us, 1004u64.wrapping_add(u64::MAX));
        // Quantiles reflect the combined population.
        assert_eq!(merged.quantile_le_us(0.5), 2);
        assert_eq!(merged.quantile_le_us(1.0), u64::MAX);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let h = Histogram::new();
        h.record_us(5);
        let orig = h.snapshot();
        let mut merged = orig.clone();
        merged.merge(&HistogramSnapshot::empty());
        assert_eq!(merged, orig);
        let mut empty = HistogramSnapshot::empty();
        empty.merge(&orig);
        assert_eq!(empty, orig);
    }

    #[test]
    fn merging_two_node_snapshots() {
        // Two nodes report the same histogram name; the tree-level
        // aggregate is their bucketwise merge.
        let node_a = NodeMetrics::new();
        node_a.batch_pkts.record_us(3);
        node_a.batch_pkts.record_us(100);
        let node_b = NodeMetrics::new();
        node_b.batch_pkts.record_us(3);
        let mut merged = node_a.batch_pkts.snapshot();
        merged.merge(&node_b.batch_pkts.snapshot());
        assert_eq!(merged.count, 3);
        assert_eq!(merged.buckets[2], 2);
        assert_eq!(merged.sum_us, 106);
        // A section built from the merge is self-consistent.
        let mut s = MetricsSection::new(0);
        s.push_histogram("batch.pkts", &merged);
        assert_eq!(s.get("batch.pkts.count"), Some(3));
        assert_eq!(s.get("batch.pkts.le_4"), Some(2));
    }

    #[test]
    fn counter_wraps_on_overflow() {
        let c = Counter::new();
        c.add(u64::MAX);
        assert_eq!(c.get(), u64::MAX);
        c.add(3);
        assert_eq!(c.get(), 2); // wrapped, not panicked
    }

    #[test]
    fn gauge_tracks_level() {
        let g = Gauge::new();
        g.add(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.set(-7);
        assert_eq!(g.get(), -7);
    }

    #[test]
    fn node_metrics_snapshot_flattens_everything() {
        let m = NodeMetrics::new();
        m.up_pkts_sent.add(4);
        m.down_pkts_recv.add(2);
        let sc = m.stream_counters(1);
        sc.up_pkts.add(4);
        // Second lookup returns the same instrument.
        assert_eq!(m.stream_counters(1).up_pkts.get(), 4);
        let fs = m.filter_stats("sum_u32");
        fs.waves.inc();
        fs.exec_us.record_us(10);
        m.peer_deaths.inc();
        m.pruned_streams.add(2);
        m.send_coalesced.set(5);
        m.frames_encoded.add(7);
        m.frames_shared.add(3);
        m.trace_frames.add(2);
        m.trace_hops.add(6);
        m.pkts_lazy_relayed.add(40);
        m.pkts_decoded.add(9);
        m.loop_turns.add(12);
        m.loop_turns_adopted.add(5);
        m.loop_owner_wakes.add(6);
        m.set_conn_send_stats(
            9,
            ConnSendStats {
                queue_depth: 11,
                coalesced: 4,
                stalls: 1,
            },
        );
        let s = m.snapshot(3);
        assert_eq!(s.rank, 3);
        assert_eq!(s.get("send.queue_depth"), Some(0));
        assert_eq!(s.get("send.coalesced_frames"), Some(5));
        assert_eq!(s.get("send.enqueue_stalls"), Some(0));
        assert_eq!(s.get("frames.encoded"), Some(7));
        assert_eq!(s.get("frames.shared"), Some(3));
        assert_eq!(s.get("trace.frames"), Some(2));
        assert_eq!(s.get("trace.hops"), Some(6));
        assert_eq!(s.get("conn.9.send.queue_depth"), Some(11));
        assert_eq!(s.get("conn.9.send.coalesced_frames"), Some(4));
        assert_eq!(s.get("conn.9.send.enqueue_stalls"), Some(1));
        assert_eq!(s.get("peer.deaths"), Some(1));
        assert_eq!(s.get("connect.retries"), Some(0));
        assert_eq!(s.get("streams.pruned"), Some(2));
        assert_eq!(s.get("events.delivered"), Some(0));
        assert_eq!(s.get("up.pkts.sent"), Some(4));
        assert_eq!(s.get("down.pkts.recv"), Some(2));
        assert_eq!(s.get("stream.1.up.pkts"), Some(4));
        assert_eq!(s.get("stream.1.down.pkts"), Some(0));
        assert_eq!(s.get("filter.sum_u32.waves"), Some(1));
        assert_eq!(s.get("filter.sum_u32.exec_us.count"), Some(1));
        assert_eq!(s.get("pkts.lazy_relayed"), Some(40));
        assert_eq!(s.get("pkts.decoded"), Some(9));
        assert_eq!(s.get("loop.turns"), Some(12));
        assert_eq!(s.get("loop.turns_adopted"), Some(5));
        assert_eq!(s.get("loop.owner_wakes"), Some(6));
        assert_eq!(s.get("no.such.metric"), None);
    }
}
