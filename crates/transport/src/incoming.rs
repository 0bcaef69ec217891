//! The receive half both transports share.
//!
//! Frames queue here until a caller receives them with
//! [`crate::Connection::recv`]. Once a [`FrameSink`] is installed they
//! skip the queue: the producing thread (the sending thread for the
//! in-process transport, the reader thread for TCP) hands each frame
//! straight to the sink.
//!
//! Lock order: a sink is only ever called with this queue's lock held,
//! and it may take its receiver's lock (the node inbox). So the order
//! is connection lock, then inbox lock, never the reverse. A sink never
//! blocks, so a producer holding this lock always finishes.

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Instant;

use mrnet_obs::Unpoisoned;
use mrnet_packet::bytes::Bytes;

use crate::connection::{ConnCounters, FrameSink};

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
    cv: Condvar,
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
            cv: Condvar::new(),
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
                    st.abandoned = true;
                    if let Some(sink) = st.sink.take() {
                        sink.closed();
                    }
                    return false;
                }
                break;
            }
            match self.cap {
                Some(cap) if st.queue.len() >= cap => st = self.cv.wait(st).unpoisoned(),
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
                if self.cap.is_some() {
                    self.cv.notify_all(); // room for a waiting producer
                }
                return Ok(Some(frame));
            }
            if st.ended {
                return Err(Ended);
            }
            st = match deadline {
                None => self.cv.wait(st).unpoisoned(),
                Some(deadline) => {
                    let now = Instant::now();
                    if now >= deadline {
                        return Ok(None);
                    }
                    self.cv.wait_timeout(st, deadline - now).unpoisoned().0
                }
            };
        }
    }
}
