//! Delivery of upstream packets to the front-end's user threads.
//!
//! The root node loop pushes fully-aggregated packets here; user
//! threads block in [`Delivery::recv_on`] (per-stream receive, the
//! paper's `stream->recv`) or [`Delivery::recv_any`] (stream-anonymous
//! receive). Supports multiple concurrent receivers via condvar
//! wake-ups; a deposit with no receiver parked notifies nobody.

use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mrnet_obs::Unpoisoned;
use mrnet_packet::{Packet, StreamId};
use mrnet_transport::chan::CountedCondvar;

use crate::error::{MrnetError, Result};
use crate::intmap::{IntMap, IntSet};

#[derive(Default)]
struct State {
    /// Queued packets per stream, each tagged with its arrival number.
    /// The packet an any-stream receive takes is the queue front with
    /// the lowest number, so arrival order costs no bookkeeping beyond
    /// the queued packets themselves.
    per_stream: IntMap<StreamId, VecDeque<(u64, Packet)>>,
    /// The next arrival number.
    next_seq: u64,
    /// Lifetime count of packets delivered per stream (not reduced by
    /// consumption) — the front-end's receive counters.
    received: IntMap<StreamId, u64>,
    /// Streams whose every end-point has failed: once drained, receives
    /// on them return [`MrnetError::AllEndpointsFailed`] instead of
    /// blocking forever for packets that can never come.
    failed: IntSet<StreamId>,
    closed: bool,
}

/// Thread-safe packet mailbox for the front-end.
#[derive(Default)]
pub struct Delivery {
    state: Mutex<State>,
    cv: CountedCondvar,
}

/// A point-in-time view of one stream's standing in the mailbox,
/// letting callers distinguish "no packet yet" from "this stream has
/// never delivered anything" and from "the network is down".
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeliveryStreamStats {
    /// Packets currently queued (deposited but not yet consumed).
    pub queued: usize,
    /// Lifetime packets delivered, including consumed ones.
    pub received: u64,
    /// True once at least one packet has ever arrived on the stream.
    pub seen: bool,
    /// True once the mailbox has been closed by shutdown. Queued
    /// packets remain receivable after close.
    pub closed: bool,
}

impl Delivery {
    /// Creates an empty mailbox.
    pub fn new() -> Delivery {
        Delivery::default()
    }

    /// Deposits a packet (called by the root node loop).
    pub fn push(&self, packet: Packet) {
        self.push_many([packet]);
    }

    /// Deposits a whole wave of packets under one lock acquisition and
    /// one receiver wake-up — the root's counterpart of a batched
    /// frame. FIFO order within the wave is preserved. A run of
    /// consecutive packets on one stream finds its queue once and adds
    /// to its count once; each packet still gets its own arrival
    /// number.
    pub fn push_many(&self, packets: impl IntoIterator<Item = Packet>) {
        let mut guard = self.state.lock().unpoisoned();
        let st = &mut *guard;
        let mut packets = packets.into_iter().peekable();
        let first_seq = st.next_seq;
        while let Some(first) = packets.next() {
            let sid = first.stream_id();
            let queue = st.per_stream.entry(sid).or_default();
            let start = st.next_seq;
            let rest = std::iter::from_fn(|| packets.next_if(|p| p.stream_id() == sid));
            for packet in std::iter::once(first).chain(rest) {
                queue.push_back((st.next_seq, packet));
                st.next_seq += 1;
            }
            *st.received.entry(sid).or_insert(0) += st.next_seq - start;
        }
        if st.next_seq != first_seq {
            self.cv.notify_all();
        }
    }

    /// Marks the network as shut down; blocked receivers return
    /// [`MrnetError::Shutdown`] once drained.
    pub fn close(&self) {
        let mut st = self.state.lock().unpoisoned();
        st.closed = true;
        self.cv.notify_all();
    }

    /// Marks `stream` as having lost its every end-point. Queued
    /// packets remain receivable; once the queue drains, blocked and
    /// future receives on the stream return
    /// [`MrnetError::AllEndpointsFailed`].
    pub fn fail_stream(&self, stream: StreamId) {
        let mut st = self.state.lock().unpoisoned();
        st.failed.insert(stream);
        self.cv.notify_all();
    }

    /// One stream's mailbox standing. An all-default result with
    /// `seen == false` means the stream has never delivered a packet —
    /// distinct from a drained stream (`seen`, zero `queued`) and from
    /// a shut-down mailbox (`closed`).
    pub fn stream_stats(&self, stream: StreamId) -> DeliveryStreamStats {
        let st = self.state.lock().unpoisoned();
        let received = st.received.get(&stream).copied().unwrap_or(0);
        DeliveryStreamStats {
            queued: st.per_stream.get(&stream).map_or(0, VecDeque::len),
            received,
            // `per_stream` keeps a (possibly empty) queue for every
            // stream that ever delivered, so either signal implies
            // the stream has been seen.
            seen: received > 0 || st.per_stream.contains_key(&stream),
            closed: st.closed,
        }
    }

    /// Waits for a wake-up, or until the receive's deadline. The clock
    /// is read only here: `deadline` starts as `None` and is fixed from
    /// `timeout` before the first wait, so a receive that finds its
    /// packet queued never reads it. `None` once the deadline has
    /// passed.
    fn wait<'a>(
        &self,
        st: MutexGuard<'a, State>,
        timeout: Option<Duration>,
        deadline: &mut Option<Instant>,
    ) -> Option<MutexGuard<'a, State>> {
        let Some(timeout) = timeout else {
            return Some(self.cv.wait(st, None));
        };
        let now = Instant::now();
        // A deadline past what `Instant` can hold is no deadline.
        let Some(due) = deadline.or_else(|| now.checked_add(timeout)) else {
            return Some(self.cv.wait(st, None));
        };
        *deadline = Some(due);
        if now >= due {
            return None;
        }
        Some(self.cv.wait(st, Some(due)))
    }

    /// Receives the next packet on `stream`, blocking up to `timeout`
    /// (forever if `None`).
    pub fn recv_on(&self, stream: StreamId, timeout: Option<Duration>) -> Result<Packet> {
        let mut deadline = None;
        let mut st = self.state.lock().unpoisoned();
        loop {
            if let Some((_, p)) = st.per_stream.get_mut(&stream).and_then(VecDeque::pop_front) {
                return Ok(p);
            }
            if st.failed.contains(&stream) {
                return Err(MrnetError::AllEndpointsFailed);
            }
            if st.closed {
                return Err(MrnetError::Shutdown);
            }
            st = self
                .wait(st, timeout, &mut deadline)
                .ok_or(MrnetError::Timeout)?;
        }
    }

    /// Receives the next packet on any stream (arrival order),
    /// blocking up to `timeout` (forever if `None`).
    pub fn recv_any(&self, timeout: Option<Duration>) -> Result<Packet> {
        let mut deadline = None;
        let mut st = self.state.lock().unpoisoned();
        loop {
            let oldest = st
                .per_stream
                .iter()
                .filter_map(|(&sid, q)| q.front().map(|&(seq, _)| (seq, sid)))
                .min();
            if let Some((_, sid)) = oldest {
                let q = st.per_stream.get_mut(&sid).expect("stream just seen");
                let (_, p) = q.pop_front().expect("front just seen");
                return Ok(p);
            }
            if st.closed {
                return Err(MrnetError::Shutdown);
            }
            st = self
                .wait(st, timeout, &mut deadline)
                .ok_or(MrnetError::Timeout)?;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrnet_packet::PacketBuilder;
    use std::sync::Arc;

    fn pkt(sid: StreamId, v: i32) -> Packet {
        PacketBuilder::new(sid, 0).push(v).build()
    }

    #[test]
    fn per_stream_fifo() {
        let d = Delivery::new();
        d.push(pkt(1, 10));
        d.push(pkt(1, 11));
        d.push(pkt(2, 20));
        assert_eq!(
            d.recv_on(1, None).unwrap().get(0).unwrap().as_i32(),
            Some(10)
        );
        assert_eq!(
            d.recv_on(1, None).unwrap().get(0).unwrap().as_i32(),
            Some(11)
        );
        assert_eq!(
            d.recv_on(2, None).unwrap().get(0).unwrap().as_i32(),
            Some(20)
        );
    }

    #[test]
    fn push_many_preserves_order_and_counts() {
        let d = Delivery::new();
        d.push_many([pkt(1, 10), pkt(2, 20), pkt(1, 11)]);
        d.push_many(std::iter::empty()); // no-op, no spurious wake-up
        assert_eq!(d.stream_stats(1).queued, 2);
        assert_eq!(d.stream_stats(2).queued, 1);
        assert_eq!(d.recv_any(None).unwrap().stream_id(), 1);
        assert_eq!(d.recv_any(None).unwrap().stream_id(), 2);
        assert_eq!(
            d.recv_on(1, None).unwrap().get(0).unwrap().as_i32(),
            Some(11)
        );
    }

    /// Runs of one stream within a wave, and across two waves, each
    /// find their queue once; every packet keeps its own place in the
    /// stream's FIFO and in the arrival order, and every one counts.
    #[test]
    fn push_many_runs_keep_fifo_arrival_order_and_counts() {
        let d = Delivery::new();
        let first = [(1, 0), (1, 1), (2, 2), (2, 3), (2, 4), (1, 5), (3, 6)];
        let second = [(3, 7), (1, 8), (1, 9), (2, 10)];
        d.push_many(first.map(|(sid, v)| pkt(sid, v)));
        d.push_many(second.map(|(sid, v)| pkt(sid, v)));
        let counts: Vec<_> = (1..=3).map(|sid| d.stream_stats(sid).received).collect();
        assert_eq!(counts, [5, 4, 2]);
        let value = |p: Packet| p.get(0).unwrap().as_i32().unwrap();
        let two: Vec<_> = (0..4).map(|_| value(d.recv_on(2, None).unwrap())).collect();
        assert_eq!(two, [2, 3, 4, 10]);
        let rest: Vec<_> = (0..7).map(|_| value(d.recv_any(None).unwrap())).collect();
        assert_eq!(rest, [0, 1, 5, 6, 7, 8, 9]);
        assert_eq!(d.stream_stats(1).received, 5);
    }

    #[test]
    fn any_receives_in_arrival_order() {
        let d = Delivery::new();
        d.push(pkt(2, 20));
        d.push(pkt(1, 10));
        assert_eq!(d.recv_any(None).unwrap().stream_id(), 2);
        assert_eq!(d.recv_any(None).unwrap().stream_id(), 1);
    }

    #[test]
    fn any_skips_entries_taken_by_stream_recv() {
        let d = Delivery::new();
        d.push(pkt(1, 10));
        d.push(pkt(2, 20));
        assert_eq!(
            d.recv_on(1, None).unwrap().get(0).unwrap().as_i32(),
            Some(10)
        );
        // Stream 1's packet is gone; recv_any must deliver stream 2's.
        assert_eq!(d.recv_any(None).unwrap().stream_id(), 2);
    }

    #[test]
    fn stream_receives_leave_no_bookkeeping_behind() {
        let d = Delivery::new();
        const N: i32 = 1000;
        for v in 0..N {
            d.push(pkt(1, v));
        }
        assert_eq!(d.stream_stats(1).queued, N as usize);
        for v in 0..N {
            assert_eq!(
                d.recv_on(1, None).unwrap().get(0).unwrap().as_i32(),
                Some(v)
            );
        }
        assert_eq!(d.stream_stats(1).queued, 0);
        assert_eq!(d.stream_stats(1).received, N as u64);
        assert!(d
            .state
            .lock()
            .unpoisoned()
            .per_stream
            .values()
            .all(VecDeque::is_empty));
    }

    #[test]
    fn any_keeps_arrival_order_around_stream_receives() {
        let d = Delivery::new();
        d.push_many([pkt(1, 10), pkt(2, 20), pkt(1, 11), pkt(3, 30), pkt(2, 21)]);
        // Taking from the middle of the arrival order...
        assert_eq!(
            d.recv_on(2, None).unwrap().get(0).unwrap().as_i32(),
            Some(20)
        );
        // ...leaves the rest in arrival order for recv_any.
        let rest: Vec<i32> = (0..4)
            .map(|_| d.recv_any(None).unwrap().get(0).unwrap().as_i32().unwrap())
            .collect();
        assert_eq!(rest, vec![10, 11, 30, 21]);
        assert!((1..=3).all(|sid| d.stream_stats(sid).queued == 0));
    }

    #[test]
    fn timeout_when_empty() {
        let d = Delivery::new();
        let r = d.recv_on(1, Some(Duration::from_millis(10)));
        assert_eq!(r, Err(MrnetError::Timeout));
        let r = d.recv_any(Some(Duration::from_millis(10)));
        assert_eq!(r, Err(MrnetError::Timeout));
    }

    #[test]
    fn close_wakes_blockers() {
        let d = Arc::new(Delivery::new());
        let d2 = d.clone();
        let h = std::thread::spawn(move || d2.recv_on(1, None));
        std::thread::sleep(Duration::from_millis(20));
        d.close();
        assert_eq!(h.join().unwrap(), Err(MrnetError::Shutdown));
        assert!(d.stream_stats(1).closed);
    }

    #[test]
    fn drain_after_close() {
        let d = Delivery::new();
        d.push(pkt(1, 5));
        d.close();
        assert!(d.recv_on(1, None).is_ok());
        assert_eq!(d.recv_on(1, None), Err(MrnetError::Shutdown));
    }

    #[test]
    fn blocked_receiver_wakes_on_push() {
        let d = Arc::new(Delivery::new());
        let d2 = d.clone();
        let h = std::thread::spawn(move || d2.recv_any(Some(Duration::from_secs(5))));
        std::thread::sleep(Duration::from_millis(20));
        d.push(pkt(3, 1));
        let got = h.join().unwrap().unwrap();
        assert_eq!(got.stream_id(), 3);
    }

    #[test]
    fn pending_count() {
        let d = Delivery::new();
        assert_eq!(d.stream_stats(1).queued, 0);
        d.push(pkt(1, 0));
        d.push(pkt(1, 1));
        assert_eq!(d.stream_stats(1).queued, 2);
    }

    #[test]
    fn received_counter_survives_consumption() {
        let d = Delivery::new();
        assert_eq!(d.stream_stats(1).received, 0);
        d.push(pkt(1, 0));
        d.push(pkt(1, 1));
        d.recv_on(1, None).unwrap();
        assert_eq!(d.stream_stats(1).received, 2);
        assert_eq!(d.stream_stats(1).queued, 1);
        assert_eq!(d.stream_stats(9).received, 0);
    }

    #[test]
    fn stream_stats_distinguish_unseen_from_drained() {
        let d = Delivery::new();
        // Never-seen stream: all-default, not merely "empty".
        assert_eq!(d.stream_stats(7), DeliveryStreamStats::default());
        d.push(pkt(7, 0));
        let st = d.stream_stats(7);
        assert!(st.seen);
        assert_eq!(st.queued, 1);
        assert_eq!(st.received, 1);
        assert!(!st.closed);
        d.recv_on(7, None).unwrap();
        // Drained: still seen, nothing queued, lifetime count intact.
        let st = d.stream_stats(7);
        assert!(st.seen);
        assert_eq!(st.queued, 0);
        assert_eq!(st.received, 1);
    }

    #[test]
    fn stream_stats_report_pending_after_close() {
        let d = Delivery::new();
        d.push(pkt(3, 1));
        d.close();
        let st = d.stream_stats(3);
        assert!(st.closed);
        assert_eq!(st.queued, 1);
        // The queued packet is still receivable despite the close...
        assert!(d.recv_on(3, None).is_ok());
        // ...and an unseen stream reports closed-but-unseen, so a
        // caller can tell "shut down" from "no data yet".
        let st = d.stream_stats(4);
        assert!(st.closed);
        assert!(!st.seen);
    }

    #[test]
    fn failed_stream_drains_then_errors() {
        let d = Delivery::new();
        d.push(pkt(1, 5));
        d.fail_stream(1);
        // The survivor-produced packet is still receivable...
        assert!(d.recv_on(1, None).is_ok());
        // ...then the failure surfaces, distinct from Shutdown/Timeout.
        assert_eq!(d.recv_on(1, None), Err(MrnetError::AllEndpointsFailed));
        // Other streams are unaffected.
        d.push(pkt(2, 1));
        assert!(d.recv_on(2, None).is_ok());
    }

    #[test]
    fn fail_stream_wakes_blocked_receiver() {
        let d = Arc::new(Delivery::new());
        let d2 = d.clone();
        let h = std::thread::spawn(move || d2.recv_on(9, None));
        std::thread::sleep(Duration::from_millis(20));
        d.fail_stream(9);
        assert_eq!(h.join().unwrap(), Err(MrnetError::AllEndpointsFailed));
    }

    #[test]
    fn stream_stats_count_each_stream_apart() {
        let d = Delivery::new();
        d.push(pkt(1, 0));
        d.push(pkt(2, 0));
        d.push(pkt(2, 1));
        d.recv_on(2, None).unwrap();
        let (one, two) = (d.stream_stats(1), d.stream_stats(2));
        assert_eq!((one.queued, one.received), (1, 1));
        assert_eq!((two.queued, two.received), (1, 2));
    }

    /// Runs a receive that waits up to 10 s and fails if it returned
    /// only because that wait ran out: a lost wake-up shows up as a
    /// receiver that finds its packet only on its timeout re-check.
    fn woken_by_send<T>(recv: impl FnOnce(Duration) -> Option<T>) -> Option<T> {
        const WAIT: Duration = Duration::from_secs(10);
        let deadline = Instant::now() + WAIT;
        let got = recv(WAIT);
        assert!(
            Instant::now() < deadline,
            "woken by the timeout, not the push"
        );
        got
    }

    /// A timeout too long for `Instant` to add is no deadline: both
    /// receives wait for a packet pushed later instead of panicking.
    #[test]
    fn receives_with_an_unrepresentable_timeout_wait_without_one() {
        let d = Arc::new(Delivery::new());
        let pusher = {
            let d = d.clone();
            std::thread::spawn(move || {
                for sid in [1, 2] {
                    std::thread::sleep(Duration::from_millis(50));
                    d.push(pkt(sid, 7));
                }
            })
        };
        let on = d.recv_on(1, Some(Duration::MAX)).unwrap();
        assert_eq!(on.stream_id(), 1);
        let any = d.recv_any(Some(Duration::MAX)).unwrap();
        assert_eq!(any.stream_id(), 2);
        pusher.join().unwrap();
    }

    /// Four depositors push bursts and wait for the receiver's ack, so
    /// the receiver parks between bursts and every burst has to wake
    /// it.
    #[test]
    fn recv_on_loses_no_wakeup() {
        use mrnet_transport::chan::bounded;
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: i32 = 25_000;
        let d = Arc::new(Delivery::new());
        let mut acks = Vec::new();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let d = d.clone();
                let (ack_tx, ack_rx) = bounded(1);
                acks.push(ack_tx);
                std::thread::spawn(move || {
                    let mut i = 0;
                    while i < PER_PRODUCER {
                        let end = (i + i % 7 + 1).min(PER_PRODUCER);
                        while i < end {
                            let last = i32::from(i + 1 == end);
                            d.push(PacketBuilder::new(1, p as i32).push(i).push(last).build());
                            i += 1;
                        }
                        woken_by_send(|t| ack_rx.recv_timeout(t).ok()).expect("ack");
                    }
                })
            })
            .collect();
        let mut next = [0i32; PRODUCERS];
        for _ in 0..PRODUCERS as i32 * PER_PRODUCER {
            let pkt = woken_by_send(|t| d.recv_on(1, Some(t)).ok()).expect("packet");
            let p = pkt.tag() as usize;
            let i = pkt.get(0).unwrap().as_i32().unwrap();
            assert_eq!(i, next[p], "per-depositor FIFO");
            next[p] += 1;
            if pkt.get(1).unwrap().as_i32() == Some(1) {
                acks[p].send(()).unwrap();
            }
        }
        for h in producers {
            h.join().unwrap();
        }
        let st = d.stream_stats(1);
        assert_eq!(st.queued, 0);
        assert_eq!(st.received, PRODUCERS as u64 * PER_PRODUCER as u64);
    }
}
