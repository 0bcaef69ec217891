//! Multi-producer multi-consumer channels: a `VecDeque` behind one
//! `Mutex` and one `Condvar`, optionally bounded.
//!
//! The condvar is a [`CountedCondvar`]: it notifies only while a thread
//! is parked on it. Receivers park only on an empty queue and senders
//! only on a full one, so the two never wait at the same time and one
//! condvar serves both. [`Receiver::recv_all`] takes the whole queue
//! under one lock, for a consumer that handles messages in batches.
//!
//! `std::sync::mpsc` does not fit the uses here: its `Receiver` is not
//! `Sync` (the core's failure ledger is shared and owns one), it cannot
//! take its whole queue at once, and no half of it reports how many
//! messages are queued (the TCP writer queue gauge reads
//! [`Sender::len`]).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mrnet_obs::Unpoisoned;

/// A condvar that counts the threads parked on it, so that a notify
/// with nobody waiting costs nothing: std's futex condvar makes a
/// syscall on every notify, parked thread or not.
///
/// Both methods must be called with the mutex that guards the waited-on
/// state held. A thread counts itself before [`CountedCondvar::wait`]
/// releases that mutex and uncounts itself after reacquiring it, so a
/// notifier holding the mutex that reads a count of zero knows no
/// thread is waiting.
#[derive(Debug, Default)]
pub struct CountedCondvar {
    cv: Condvar,
    /// Parked threads. `Relaxed` suffices: every access happens with
    /// the guarding mutex held, whose unlock/lock pairs order them.
    parked: AtomicUsize,
}

impl CountedCondvar {
    /// Creates a condvar with nobody parked.
    pub fn new() -> CountedCondvar {
        CountedCondvar::default()
    }

    /// Releases `guard` and parks until notified or until `deadline`
    /// (forever if `None`), then reacquires it. May wake spuriously:
    /// callers re-check their condition and their deadline.
    pub fn wait<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        deadline: Option<Instant>,
    ) -> MutexGuard<'a, T> {
        self.parked.fetch_add(1, Ordering::Relaxed);
        let guard = match deadline {
            None => self.cv.wait(guard).unpoisoned(),
            Some(d) => {
                let left = d.saturating_duration_since(Instant::now());
                self.cv.wait_timeout(guard, left).unpoisoned().0
            }
        };
        self.parked.fetch_sub(1, Ordering::Relaxed);
        guard
    }

    /// Wakes every parked thread, if there is one.
    pub fn notify_all(&self) {
        if self.parked.load(Ordering::Relaxed) > 0 {
            self.cv.notify_all();
        }
    }

    /// Threads parked right now.
    #[cfg(test)]
    fn parked(&self) -> usize {
        self.parked.load(Ordering::Relaxed)
    }
}

struct State<T> {
    queue: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receivers: usize,
}

struct Inner<T> {
    state: Mutex<State<T>>,
    cv: CountedCondvar,
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
        cv: CountedCondvar::new(),
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
                Some(cap) if st.queue.len() >= cap => st = self.inner.cv.wait(st, None),
                _ => {
                    st.queue.push_back(msg);
                    self.inner.cv.notify_all();
                    return Ok(());
                }
            }
        }
    }

    /// Offers a message to the one at the back of the queue first:
    /// `merge` gets that tail and returns true if it took the message
    /// in. Otherwise `msg` builds the message, which is queued as
    /// [`Sender::send`] queues it. One lock either way. A merge wakes
    /// nobody: a queue with a tail has no receiver parked on it, and it
    /// is no fuller than before.
    pub fn merge_or_send(
        &self,
        merge: impl FnOnce(&mut T) -> bool,
        msg: impl FnOnce() -> T,
    ) -> Result<(), SendError<()>> {
        let mut st = self.inner.lock();
        if st.receivers > 0 && st.queue.back_mut().is_some_and(merge) {
            return Ok(());
        }
        loop {
            if st.receivers == 0 {
                return Err(SendError(()));
            }
            match st.cap {
                Some(cap) if st.queue.len() >= cap => st = self.inner.cv.wait(st, None),
                _ => {
                    st.queue.push_back(msg());
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
        let mut st = self.inner.lock();
        st.senders -= 1;
        self.inner.cv.notify_all();
    }
}

impl<T> Receiver<T> {
    /// Takes the front message, waiting for one until `deadline`
    /// (forever if `None`).
    fn recv_until(&self, deadline: Option<Instant>) -> Result<T, RecvTimeoutError> {
        let mut st = self.inner.lock();
        loop {
            if let Some(msg) = st.queue.pop_front() {
                self.inner.cv.notify_all();
                return Ok(msg);
            }
            if st.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(RecvTimeoutError::Timeout);
            }
            st = self.inner.cv.wait(st, deadline);
        }
    }

    /// Receives a message, blocking until one arrives or every
    /// sender disconnects.
    pub fn recv(&self) -> Result<T, RecvError> {
        self.recv_until(None).map_err(|_| RecvError)
    }

    /// Receives without blocking.
    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        match self.recv_until(Some(Instant::now())) {
            Ok(msg) => Ok(msg),
            Err(RecvTimeoutError::Timeout) => Err(TryRecvError::Empty),
            Err(RecvTimeoutError::Disconnected) => Err(TryRecvError::Disconnected),
        }
    }

    /// Receives, giving up after `timeout`.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        self.recv_until(Instant::now().checked_add(timeout))
    }

    /// Moves every queued message to the back of `out`, in order, under
    /// one lock, without waiting: an empty queue moves nothing. An empty
    /// `out` trades buffers with the channel, so a consumer that empties
    /// `out` before each call moves no message and allocates nothing.
    /// `Err` only once every sender is gone and the queue is drained.
    pub fn recv_all(&self, out: &mut VecDeque<T>) -> Result<(), RecvError> {
        let mut st = self.inner.lock();
        if st.queue.is_empty() {
            return if st.senders == 0 {
                Err(RecvError)
            } else {
                Ok(())
            };
        }
        if out.is_empty() {
            std::mem::swap(&mut st.queue, out);
        } else {
            out.append(&mut st.queue);
        }
        self.inner.cv.notify_all();
        Ok(())
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
        let mut st = self.inner.lock();
        st.receivers -= 1;
        self.inner.cv.notify_all();
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn recv_all_takes_everything_in_order() {
        let (tx, rx) = unbounded();
        for i in 0..5 {
            tx.send(i).unwrap();
        }
        let mut out = VecDeque::new();
        rx.recv_all(&mut out).unwrap();
        assert_eq!(out, [0, 1, 2, 3, 4]);
        assert_eq!(rx.try_recv(), Err(TryRecvError::Empty));
        // A non-empty `out` keeps its contents; new messages go behind.
        tx.send(5).unwrap();
        tx.send(6).unwrap();
        rx.recv_all(&mut out).unwrap();
        assert_eq!(out, [0, 1, 2, 3, 4, 5, 6]);
        // An empty queue returns at once and moves nothing.
        rx.recv_all(&mut out).unwrap();
        assert_eq!(out, [0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn recv_all_reports_disconnected_only_once_drained() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        drop(tx);
        let mut out = VecDeque::new();
        rx.recv_all(&mut out).unwrap();
        assert_eq!(out, [1, 2]);
        out.clear();
        assert_eq!(rx.recv_all(&mut out), Err(RecvError));
        assert!(out.is_empty());
    }

    #[test]
    fn producer_parked_on_full_channel_wakes_after_recv_all() {
        let (tx, rx) = bounded(2);
        tx.send(0).unwrap();
        tx.send(1).unwrap();
        let (done_tx, done_rx) = unbounded();
        thread::spawn(move || done_tx.send(tx.send(2)));
        // Wait until the producer is parked on the full queue.
        while rx.inner.cv.parked() == 0 {
            thread::sleep(Duration::from_millis(1));
        }
        let mut out = VecDeque::new();
        rx.recv_all(&mut out).unwrap();
        assert_eq!(out, [0, 1]);
        let sent = done_rx.recv_timeout(Duration::from_secs(5));
        assert_eq!(sent, Ok(Ok(())), "the parked producer never woke");
        out.clear();
        rx.recv_all(&mut out).unwrap();
        assert_eq!(out, [2]);
    }

    /// Runs a receive that waits up to 10 s and fails if it returned
    /// only because that wait ran out: a lost wake-up shows up as a
    /// receiver that finds its message only on its timeout re-check.
    pub(crate) fn woken_by_send<T>(recv: impl FnOnce(Duration) -> Option<T>) -> Option<T> {
        const WAIT: Duration = Duration::from_secs(10);
        let deadline = Instant::now() + WAIT;
        let got = recv(WAIT);
        assert!(
            Instant::now() < deadline,
            "woken by the timeout, not the send"
        );
        got
    }

    #[test]
    fn no_wakeup_is_lost_under_waiter_counting() {
        const PRODUCERS: usize = 4;
        const PER_PRODUCER: u64 = 25_000;
        let (tx, rx) = unbounded();
        let mut acks = Vec::new();
        let producers: Vec<_> = (0..PRODUCERS)
            .map(|p| {
                let tx = tx.clone();
                let (ack_tx, ack_rx) = bounded(1);
                acks.push(ack_tx);
                thread::spawn(move || {
                    // Bursts of 1–7 messages, each ended by waiting for
                    // the consumer's ack: the consumer parks between
                    // bursts, so every burst's first send has to wake
                    // it, and every ack has to wake this producer.
                    let mut i = 0;
                    while i < PER_PRODUCER {
                        let end = (i + i % 7 + 1).min(PER_PRODUCER);
                        while i < end {
                            tx.send((p, i, i + 1 == end)).unwrap();
                            i += 1;
                        }
                        woken_by_send(|t| ack_rx.recv_timeout(t).ok()).expect("ack");
                    }
                })
            })
            .collect();
        drop(tx);
        let mut next = [0u64; PRODUCERS];
        for _ in 0..PRODUCERS as u64 * PER_PRODUCER {
            let (p, i, burst_end) = woken_by_send(|t| rx.recv_timeout(t).ok()).expect("message");
            assert_eq!(i, next[p], "per-producer FIFO");
            next[p] += 1;
            if burst_end {
                acks[p].send(()).unwrap();
            }
        }
        for h in producers {
            h.join().unwrap();
        }
        assert_eq!(rx.recv(), Err(RecvError));
        assert_eq!(rx.inner.cv.parked(), 0);
    }
}
