//! Multi-producer multi-consumer channels: a `VecDeque` behind one
//! `Mutex` and one `Condvar`, optionally bounded.
//!
//! `std::sync::mpsc` does not fit the uses here: its `Receiver` is not
//! `Sync` (the core's failure ledger is shared and owns one), and no half
//! of it reports how many messages are queued (the node inbox gauge
//! reads [`Receiver::len`], the TCP writer queue gauge
//! [`Sender::len`]).

use std::collections::VecDeque;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mrnet_obs::Unpoisoned;

struct State<T> {
    queue: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receivers: usize,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    cv: Condvar,
}

impl<T> Inner<T> {
    fn lock(&self) -> MutexGuard<'_, State<T>> {
        self.state.lock().unpoisoned()
    }
}

/// The sending half of a channel.
pub struct Sender<T> {
    inner: Arc<Inner<T>>,
}

/// The receiving half of a channel.
pub struct Receiver<T> {
    inner: Arc<Inner<T>>,
}

impl<T> std::fmt::Debug for Sender<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Sender { .. }")
    }
}

impl<T> std::fmt::Debug for Receiver<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Receiver { .. }")
    }
}

/// Error returned when sending on a channel with no receivers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendError<T>(pub T);

/// Error returned by [`Sender::try_send`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrySendError<T> {
    /// The bounded channel is at capacity; the message is returned.
    Full(T),
    /// All receivers dropped; the message is returned.
    Disconnected(T),
}

/// Error returned when receiving on a channel with no senders.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

/// Error returned by [`Receiver::try_recv`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    /// The channel is currently empty.
    Empty,
    /// All senders dropped and the queue is drained.
    Disconnected,
}

/// Error returned by [`Receiver::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// Nothing arrived before the deadline.
    Timeout,
    /// All senders dropped and the queue is drained.
    Disconnected,
}

fn new_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    let inner = Arc::new(Inner {
        state: Mutex::new(State {
            queue: VecDeque::new(),
            cap,
            senders: 1,
            receivers: 1,
        }),
        cv: Condvar::new(),
    });
    (
        Sender {
            inner: inner.clone(),
        },
        Receiver { inner },
    )
}

/// Creates a channel with unbounded capacity.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    new_channel(None)
}

/// Creates a channel holding at most `cap` messages (at least one).
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    new_channel(Some(cap.max(1)))
}

impl<T> Sender<T> {
    /// Sends a message, blocking while a bounded channel is full.
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut st = self.inner.lock();
        loop {
            if st.receivers == 0 {
                return Err(SendError(msg));
            }
            match st.cap {
                Some(cap) if st.queue.len() >= cap => {
                    st = self.inner.cv.wait(st).unpoisoned();
                }
                _ => {
                    st.queue.push_back(msg);
                    self.inner.cv.notify_all();
                    return Ok(());
                }
            }
        }
    }

    /// Sends without blocking: fails with [`TrySendError::Full`]
    /// when a bounded channel is at capacity.
    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        let mut st = self.inner.lock();
        if st.receivers == 0 {
            return Err(TrySendError::Disconnected(msg));
        }
        match st.cap {
            Some(cap) if st.queue.len() >= cap => Err(TrySendError::Full(msg)),
            _ => {
                st.queue.push_back(msg);
                self.inner.cv.notify_all();
                Ok(())
            }
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Sender<T> {
        self.inner.lock().senders += 1;
        Sender {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        self.inner.lock().senders -= 1;
        self.inner.cv.notify_all();
    }
}

impl<T> Receiver<T> {
    /// Receives a message, blocking until one arrives or every
    /// sender disconnects.
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut st = self.inner.lock();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                self.inner.cv.notify_all();
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvError);
            }
            st = self.inner.cv.wait(st).unpoisoned();
        }
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut st = self.inner.lock();
        if let Some(msg) = st.queue.pop_front() {
            self.inner.cv.notify_all();
            return Ok(msg);
        }
        if st.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    /// Receives, giving up after `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.lock();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                self.inner.cv.notify_all();
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            st = self
                .inner
                .cv
                .wait_timeout(st, deadline - now)
                .unpoisoned()
                .0;
        }
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Whether the queue is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Receiver<T> {
        self.inner.lock().receivers += 1;
        Receiver {
            inner: self.inner.clone(),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        self.inner.lock().receivers -= 1;
        self.inner.cv.notify_all();
    }
}
