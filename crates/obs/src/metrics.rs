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

/// The instrument behind a metric, which its Prometheus `# TYPE` names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MetricKind {
    /// A [`Counter`].
    Counter,
    /// A [`Gauge`]; snapshots report a level below zero as 0.
    Gauge,
    /// A [`Histogram`], carried as `<name>.count`, `.sum_us` and `.le_*`.
    Histogram,
}

impl MetricKind {
    /// The Prometheus type name.
    pub fn prometheus_type(self) -> &'static str {
        match self {
            MetricKind::Counter => "counter",
            MetricKind::Gauge => "gauge",
            MetricKind::Histogram => "histogram",
        }
    }
}

/// One entry of the metric catalogue [`METRICS`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MetricDef {
    /// The dotted name snapshots carry, or a template for a family:
    /// `stream.<id>.up.pkts` covers `stream.7.up.pkts`.
    pub name: &'static str,
    /// The instrument kind.
    pub kind: MetricKind,
    /// One line on what the metric counts; the Prometheus `# HELP` text.
    pub help: &'static str,
}

/// The catalogue entry whose name or template `name` fits, if any; a
/// placeholder stands for one or more characters. A histogram is found
/// by its base name, without the `.count`/`.sum_us`/`.le_*` suffixes.
pub fn lookup(name: &str) -> Option<&'static MetricDef> {
    METRICS.iter().find(|d| fits(d.name, name))
}

fn fits(template: &str, name: &str) -> bool {
    let Some(open) = template.find('<') else {
        return template == name;
    };
    let Some(rest) = name.strip_prefix(&template[..open]) else {
        return false;
    };
    let tail = template[open..]
        .find('>')
        .map_or("", |close| &template[open + close + 1..]);
    (1..=rest.len()).any(|i| rest.is_char_boundary(i) && fits(tail, &rest[i..]))
}

/// Declares every metric once. A `field: Kind, "name", "help";` row
/// under `fields` makes a `NodeMetrics` field of the instrument type
/// `Kind` (the help is its doc), its snapshot entry and its [`METRICS`]
/// entry; a `Kind, "template", "help";` row under `families` catalogues
/// names that code pushes by hand.
macro_rules! metrics {
    // How a snapshot flattens each instrument type: the scalars in one
    // pass, the histograms in a second.
    (@scalar $s:ident, Counter, $v:expr, $name:literal) => { $s.push($name, $v.get()) };
    (@scalar $s:ident, Gauge, $v:expr, $name:literal) => { $s.push($name, $v.get().max(0) as u64) };
    (@scalar $($histogram:tt)*) => {};
    (@histogram $s:ident, Histogram, $v:expr, $name:literal) => {
        $s.push_histogram($name, &$v.snapshot())
    };
    (@histogram $($scalar:tt)*) => {};
    (
        fields { $($field:ident: $ty:ident, $name:literal, $help:literal;)* }
        families { $($kind:ident, $template:literal, $fhelp:literal;)* }
    ) => {
        /// The per-node metrics registry: one per overlay process
        /// (front-end, internal, or back-end), shared via `Arc` between
        /// the node loop, stream managers, and the public API.
        #[derive(Debug, Default)]
        pub struct NodeMetrics {
            $(#[doc = $help] pub $field: $ty,)*
            streams: Mutex<BTreeMap<u32, Arc<StreamCounters>>>,
            filters: Mutex<BTreeMap<String, Arc<FilterStats>>>,
            conns: Mutex<BTreeMap<u32, ConnSendStats>>,
        }

        /// Every metric a snapshot or an export carries: the [`NodeMetrics`]
        /// fields, then the families pushed by hand (per stream, filter and
        /// connection, and by the front-end's trace assembler). DESIGN.md
        /// §8 has one row per entry.
        pub const METRICS: &[MetricDef] = &[
            $(MetricDef { name: $name, kind: MetricKind::$ty, help: $help },)*
            $(MetricDef { name: $template, kind: MetricKind::$kind, help: $fhelp },)*
        ];

        impl NodeMetrics {
            /// Pushes every field: scalars in table order, then histograms.
            fn push_fields(&self, s: &mut MetricsSection) {
                $(metrics!(@scalar s, $ty, self.$field, $name);)*
                $(metrics!(@histogram s, $ty, self.$field, $name);)*
            }
        }
    };
}

metrics! {
    fields {
        up_pkts_sent: Counter, "up.pkts.sent",
            "Packets sent toward the root: to the parent, or into local delivery at the root.";
        up_pkts_recv: Counter, "up.pkts.recv",
            "Packets received from the children.";
        down_pkts_sent: Counter, "down.pkts.sent",
            "Packets sent away from the root: to the children, or delivered at a back-end.";
        down_pkts_recv: Counter, "down.pkts.recv",
            "Packets received from the parent.";
        local_up_bytes: Counter, "up.bytes.local",
            "Encoded bytes of the upstream packets a back-end sent or the root delivered.";
        queue_depth: Gauge, "queue.depth",
            "Messages (commands and frames) in the inbox batch the loop drained last.";
        batch_pkts: Histogram, "batch.pkts",
            "Packets per flushed batch frame (batching amortizes the per-frame cost).";
        peer_deaths: Counter, "peer.deaths",
            "Directly connected peers declared dead: EOF, lost frame, silence or garbage.";
        connect_retries: Counter, "connect.retries",
            "Extra connect attempts needed before a connection succeeded.";
        pruned_streams: Counter, "streams.pruned",
            "Streams whose membership shrank here because an end-point failed.";
        events_delivered: Counter, "events.delivered",
            "Topology events (rank failures) delivered to the local tool thread.";
        send_queue_depth: Gauge, "send.queue_depth",
            "Frames queued behind the writer threads of the live children's connections.";
        send_coalesced: Gauge, "send.coalesced_frames",
            "Frames that shared a write syscall with another frame, over the live children.";
        send_stalls: Gauge, "send.enqueue_stalls",
            "Sends that found an outbound queue full, over the live children.";
        frames_encoded: Counter, "frames.encoded",
            "Batched data frames encoded when flushing toward the parent or children.";
        frames_shared: Counter, "frames.shared",
            "Child sends that reused a frame another child's flush encoded (encode once).";
        trace_frames: Counter, "trace.frames",
            "Data frames sent with a trace-envelope trailer; zero when untraced.";
        trace_hops: Counter, "trace.hops",
            "Hop records stamped into passing trace envelopes.";
        pkts_lazy_relayed: Counter, "pkts.lazy_relayed",
            "Packets forwarded or delivered still in their raw wire form (lazy relay).";
        pkts_decoded: Counter, "pkts.decoded",
            "Wire-arrived packets whose payload a transformation filter here decoded.";
        loop_turns: Counter, "loop.turns",
            "Turns of the node loop: one inbox drain, the due timers and one flush each.";
        loop_turns_adopted: Counter, "loop.turns_adopted",
            "Turns run by another node's thread whose own turn made this node ready.";
        loop_panics: Counter, "loop.panics",
            "Turns that panicked; a panicking turn stops its node, as one that returns false does.";
        loop_owner_wakes: Counter, "loop.owner_wakes",
            "Times a thread that runs no turns made the node ready and woke its owner.";
    }
    families {
        Counter, "stream.<id>.up.pkts",
            "Upstream packets forwarded (delivered, at the root) on stream <id>.";
        Counter, "stream.<id>.down.pkts",
            "Downstream packets forwarded (delivered, at a back-end) on stream <id>.";
        Counter, "filter.<name>.waves",
            "Synchronization waves released through filter <name>.";
        Histogram, "filter.<name>.wait_us",
            "Microseconds from a wave's first packet to its release by the sync filter.";
        Histogram, "filter.<name>.exec_us",
            "Microseconds spent inside transformation filter <name>.";
        Gauge, "conn.<rank>.send.queue_depth",
            "Frames queued behind the writer of the connection to child <rank>.";
        Counter, "conn.<rank>.send.coalesced_frames",
            "Frames to child <rank> that shared a write syscall with another frame.";
        Counter, "conn.<rank>.send.enqueue_stalls",
            "Sends to child <rank> that found its outbound queue full.";
        Counter, "trace.waves.assembled",
            "Trace envelopes the front-end assembled into wave timelines.";
        Counter, "trace.waves.dropped",
            "Trace envelopes the front-end dropped as malformed (no hops).";
        Gauge, "trace.clock.<rank>.ahead_us",
            "Microseconds rank <rank>'s clock runs ahead of the front-end's.";
        Gauge, "trace.clock.<rank>.behind_us",
            "Microseconds rank <rank>'s clock runs behind the front-end's.";
        Gauge, "trace.clock.<rank>.rtt_us",
            "Round trip (µs) of the ping behind rank <rank>'s clock estimate.";
        Histogram, "trace.hop.<rank>.us",
            "Microseconds traced waves dwelled inside rank <rank>.";
        Histogram, "trace.edge.<from>_<to>.us",
            "Microseconds traced waves took from rank <from> to rank <to>.";
    }
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
        self.push_fields(&mut s);
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
        m.send_queue_depth.set(-3);
        m.stream_counters(1).up_pkts.add(4);
        // Second lookup returns the same instrument.
        assert_eq!(m.stream_counters(1).up_pkts.get(), 4);
        m.filter_stats("sum_u32").exec_us.record_us(10);
        let conn = ConnSendStats {
            queue_depth: 11,
            coalesced: 4,
            stalls: 1,
        };
        m.set_conn_send_stats(9, conn);
        let s = m.snapshot(3);
        assert_eq!(s.rank, 3);
        // Every field's entry, under its catalogue name and kind.
        for def in METRICS.iter().filter(|d| !d.name.contains('<')) {
            let entry = match def.kind {
                MetricKind::Histogram => format!("{}.count", def.name),
                _ => def.name.to_string(),
            };
            let field = !def.name.starts_with("trace.waves.");
            assert_eq!(s.get(&entry).is_some(), field, "{entry}");
            assert_eq!(lookup(&entry).is_some(), def.kind != MetricKind::Histogram);
        }
        assert_eq!(s.get("up.pkts.sent"), Some(4));
        // A gauge below zero reads 0.
        assert_eq!(s.get("send.queue_depth"), Some(0));
        assert_eq!(s.get("stream.1.up.pkts"), Some(4));
        assert_eq!(s.get("stream.1.down.pkts"), Some(0));
        assert_eq!(s.get("filter.sum_u32.waves"), Some(0));
        assert_eq!(s.get("filter.sum_u32.exec_us.count"), Some(1));
        assert_eq!(s.get("conn.9.send.queue_depth"), Some(11));
        assert_eq!(s.get("conn.9.send.coalesced_frames"), Some(4));
        assert_eq!(s.get("conn.9.send.enqueue_stalls"), Some(1));
        // Scalars first, then histograms; the families last.
        let hist = s.names.iter().position(|n| n == "batch.pkts.count");
        let hist = hist.unwrap();
        assert_eq!(s.names[hist - 1], "loop.owner_wakes");
        assert_eq!(s.names[hist + 2], "stream.1.up.pkts");
    }

    #[test]
    fn lookup_fits_templates_and_names_are_unique() {
        assert!(fits("trace.edge.<from>_<to>.us", "trace.edge.12_3.us"));
        assert!(!fits("trace.edge.<from>_<to>.us", "trace.edge._3.us"));
        assert!(!fits("stream.<id>.up.pkts", "stream.1.up.pkts.count"));
        assert!(fits("filter.<name>.waves", "filter.my.tool.waves"));
        assert!(!fits("filter.<name>.waves", "filter..waves"));
        let kind = |name| lookup(name).map(|d| d.kind);
        assert_eq!(kind("conn.3.send.queue_depth"), Some(MetricKind::Gauge));
        assert_eq!(kind("send.queue_depth"), Some(MetricKind::Gauge));
        assert_eq!(kind("up.pkts"), None);
        for (i, d) in METRICS.iter().enumerate() {
            assert!(METRICS[..i].iter().all(|e| e.name != d.name), "{}", d.name);
            assert!(!d.help.is_empty() && !d.help.contains(['\n', '\\']));
        }
    }

    /// DESIGN.md §8 documents the catalogue in one table, one
    /// `` | `name` | kind | meaning | `` row per [`METRICS`] entry.
    #[test]
    fn design_table_lists_the_catalogue() {
        let design = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../../DESIGN.md"));
        let (_, section) = design.split_once("\n## 8. ").unwrap();
        let (section, _) = section.split_once("\n## ").unwrap();
        let (_, table) = section.split_once("\n| name | kind | meaning |\n").unwrap();
        let row = |line: &'static str| {
            let mut cells = line.split('|').skip(1).map(str::trim);
            let name = cells.next().unwrap_or("").trim_matches('`');
            (name, cells.next().unwrap_or(""))
        };
        let mut rows: Vec<_> = table
            .lines()
            .skip(1)
            .take_while(|l| l.starts_with('|'))
            .map(row)
            .collect();
        let mut want: Vec<_> = METRICS
            .iter()
            .map(|d| (d.name, d.kind.prometheus_type()))
            .collect();
        rows.sort_unstable();
        want.sort_unstable();
        let missing: Vec<_> = want.iter().filter(|w| !rows.contains(w)).collect();
        let extra: Vec<_> = rows.iter().filter(|r| !want.contains(r)).collect();
        assert!(missing.is_empty(), "DESIGN §8 lacks {missing:?}");
        assert!(
            extra.is_empty(),
            "DESIGN §8 has {extra:?}, which METRICS lacks"
        );
        assert_eq!(rows, want, "a DESIGN §8 row appears twice");
    }
}
