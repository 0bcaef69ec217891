//! The receive half both transports share.
//!
//! Frames queue here until a caller receives them with
//! [`crate::Connection::recv`]. Once a [`FrameSink`] is installed they
//! skip the queue: the producing thread (the sending thread for the
//! in-process transport, the reader thread for TCP) hands each frame
//! straight to the sink.
//!
//! Lock order: a sink is only ever called with this queue's lock held,
//! and it may take its receiver's lock (a node inbox, a back-end
//! mailbox). So the order is connection lock, then receiver lock, never
//! the reverse. A sink waits only on a TCP reader (a back-end's full
//! mailbox, emptied without this lock), so a producer always finishes.
//!
//! Its condvar is a [`CountedCondvar`], so a push or a take notifies
//! only while a receiver (empty queue) or a producer (full queue) is
//! parked.

use std::collections::VecDeque;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use mrnet_obs::Unpoisoned;
use mrnet_packet::bytes::Bytes;
use mrnet_packet::Packet;

use crate::chan::CountedCondvar;
use crate::connection::{ConnCounters, FrameSink, PacketFrame, Took};

/// The producer ended and every queued frame has been received.
#[derive(Debug)]
pub(crate) struct Ended;

struct State {
    queue: VecDeque<Bytes>,
    sink: Option<Box<dyn FrameSink>>,
    /// The producer has delivered its last frame.
    ended: bool,
    /// Nobody will receive again: the endpoint dropped, or its sink
    /// refused a frame. Pushes fail from then on.
    abandoned: bool,
}

/// One endpoint's inbound frames: a queue until a sink is installed,
/// then a direct path into the sink.
pub(crate) struct Incoming {
    state: Mutex<State>,
    /// Signalled when a frame is queued or taken, the producer ends, a
    /// sink is installed, or the endpoint is abandoned.
    cv: CountedCondvar,
    /// Queued frames at which a producer waits (`None`: unbounded).
    cap: Option<usize>,
    /// The receiving endpoint's counters; every accepted frame counts
    /// as received.
    counters: Arc<ConnCounters>,
}

impl Incoming {
    pub(crate) fn new(cap: Option<usize>, counters: Arc<ConnCounters>) -> Incoming {
        Incoming {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                sink: None,
                ended: false,
                abandoned: false,
            }),
            cv: CountedCondvar::new(),
            cap,
            counters,
        }
    }

    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unpoisoned()
    }

    /// Producer side: delivers one frame to the sink, or queues it,
    /// waiting while a bounded queue is full and no sink is installed.
    /// False once nobody will receive it.
    pub(crate) fn push(&self, frame: Bytes) -> bool {
        let len = frame.len();
        let mut st = self.lock();
        loop {
            if st.abandoned {
                return false;
            }
            if let Some(sink) = &st.sink {
                if !sink.frame(frame) {
                    Self::refuse(&mut st);
                    return false;
                }
                break;
            }
            match self.cap {
                Some(cap) if st.queue.len() >= cap => st = self.cv.wait(st, None),
                _ => {
                    st.queue.push_back(frame);
                    self.cv.notify_all();
                    break;
                }
            }
        }
        self.counters.note_recv(len);
        true
    }

    /// Producer side: hands one data packet to the sink, which may
    /// merge it into a frame it holds; without a sink, queues the
    /// packet as the frame `frame` encodes. `None` once nobody will
    /// receive it.
    pub(crate) fn push_packet(&self, packet: &Packet, frame: PacketFrame) -> Option<Took> {
        let mut st = self.lock();
        if st.abandoned {
            return None;
        }
        let Some(sink) = &st.sink else {
            drop(st);
            let frame = frame(packet);
            let len = frame.len();
            return self.push(frame).then_some(Took::Frame(len));
        };
        let Some(took) = sink.packet(packet, frame) else {
            Self::refuse(&mut st);
            return None;
        };
        self.counters.note_recv_packet(took);
        Some(took)
    }

    /// The sink refused a delivery: nobody will receive again.
    fn refuse(st: &mut State) {
        st.abandoned = true;
        if let Some(sink) = st.sink.take() {
            sink.closed();
        }
    }

    /// Producer side: no frame follows. An installed sink is closed now;
    /// otherwise receivers drain the queue and then see [`Ended`].
    pub(crate) fn end(&self) {
        let mut st = self.lock();
        st.ended = true;
        if let Some(sink) = st.sink.take() {
            sink.closed();
        }
        self.cv.notify_all();
    }

    /// Consumer side: the endpoint is gone. Queued frames are dropped,
    /// an installed sink is closed, and later pushes fail.
    pub(crate) fn abandon(&self) {
        let mut st = self.lock();
        st.abandoned = true;
        st.queue.clear();
        if let Some(sink) = st.sink.take() {
            sink.closed();
        }
        self.cv.notify_all();
    }

    /// Consumer side: hands every queued frame to `sink`, in order, then
    /// routes later frames there directly. If the producer has already
    /// ended, `sink` is closed right after the queued frames. A producer
    /// waiting on a full queue wakes and delivers through the sink, so
    /// its frame follows the queued ones.
    pub(crate) fn set_sink(&self, sink: Box<dyn FrameSink>) {
        let mut st = self.lock();
        while let Some(frame) = st.queue.pop_front() {
            if !sink.frame(frame) {
                st.abandoned = true;
                st.queue.clear();
                break;
            }
        }
        if st.ended || st.abandoned {
            sink.closed();
        } else {
            st.sink = Some(sink);
        }
        self.cv.notify_all();
    }

    /// Consumer side: takes the next queued frame, waiting until
    /// `deadline` (forever if `None`). `Ok(None)` when the deadline
    /// passed first.
    pub(crate) fn recv(&self, deadline: Option<Instant>) -> Result<Option<Bytes>, Ended> {
        let mut st = self.lock();
        loop {
            if let Some(frame) = st.queue.pop_front() {
                self.cv.notify_all(); // room for a waiting producer
                return Ok(Some(frame));
            }
            if st.ended {
                return Err(Ended);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Ok(None);
            }
            st = self.cv.wait(st, deadline);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chan::bounded;
    use crate::chan::tests::woken_by_send;
    use std::thread;

    /// Queue mode, bounded so that producers park on a full queue too:
    /// four producers push bursts and wait for the receiver's ack, so
    /// every burst must wake the parked receiver and every take must
    /// wake a parked producer.
    #[test]
    fn queue_mode_loses_no_wakeup() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: u32 = 25_000;
        let incoming = Arc::new(Incoming::new(Some(4), Arc::default()));
        let mut acks = Vec::new();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let incoming = incoming.clone();
                let (ack_tx, ack_rx) = bounded(1);
                acks.push(ack_tx);
                thread::spawn(move || {
                    let mut i = 0;
                    while i < PER_PRODUCER {
                        let end = (i + i % 7 + 1).min(PER_PRODUCER);
                        while i < end {
                            let mut frame = vec![p as u8, u8::from(i + 1 == end)];
                            frame.extend_from_slice(&i.to_le_bytes());
                            assert!(incoming.push(Bytes::from(frame)));
                            i += 1;
                        }
                        woken_by_send(|t| ack_rx.recv_timeout(t).ok()).expect("ack");
                    }
                })
            })
            .collect();
        let mut next = [0u32; PRODUCERS];
        for _ in 0..PRODUCERS as u32 * PER_PRODUCER {
            let frame = woken_by_send(|t| incoming.recv(Instant::now().checked_add(t)).unwrap())
                .expect("frame");
            let p = frame[0] as usize;
            let i = u32::from_le_bytes(frame[2..6].try_into().unwrap());
            assert_eq!(i, next[p], "per-producer FIFO");
            next[p] += 1;
            if frame[1] == 1 {
                acks[p].send(()).unwrap();
            }
        }
        for h in producers {
            h.join().unwrap();
        }
        incoming.end();
        assert!(incoming.recv(None).is_err());
    }
}
