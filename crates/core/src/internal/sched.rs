//! Hand-off by execution: which thread runs a node's next turn.
//!
//! A turn (`Turns::turn`) drains a node's inbox without blocking,
//! dispatches what it took, fires the timers that are due and flushes.
//! Any thread may run a turn, one thread at a time: the node sits behind
//! its own lock in a `Slot`, next to one atomic schedule state. The
//! node's owner thread sets it up, sleeps until its timers are due, and
//! cleans up after its last turn.
//!
//! Every push into an [`Inbox`] calls `Slot::schedule`, and only the
//! push that moves the node from idle to scheduled acts:
//! - on a thread that is running turns (an owner thread, its own node's
//!   or adopted ones), the node joins that thread's FIFO run queue and
//!   its turn runs there once the current turn ends. So an in-process
//!   edge between two nodes costs no thread wake-up;
//! - on any other thread (the front-end API, a back-end's tool thread,
//!   a TCP reader), the push unparks the node's owner, which runs the
//!   turn. Such a thread never runs a turn itself.
//!
//! A push into a node whose turn is running sets its rescheduled state
//! instead, and the runner queues one more turn when its turn ends. So
//! every message is followed by a turn that drains it.
//!
//! No thread ever holds two nodes' locks: a turn only queues the nodes
//! it makes ready, and they run after its lock is released. A schedule
//! takes no lock, so the sink lock order (connection, then inbox) is
//! unchanged.
//!
//! Orderings: every state change is an `AcqRel` compare-exchange (or a
//! `Release` store by the one thread that may make it) on the single
//! `state` atomic, and every read of it is `Acquire`. A pusher queues its
//! message before it schedules, so the runner whose `SCHEDULED` to
//! `RUNNING` exchange reads that push's state change sees the message
//! in the inbox. `wake_at` publishes only a number; it is `AcqRel` so
//! that the owner's claim of a due timer and a runner's new deadline
//! are ordered with the state changes around them.

use std::cell::RefCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::Ordering::{AcqRel, Acquire, Release};
use std::sync::atomic::{AtomicU64, AtomicU8};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::{self, Thread};
use std::time::{Duration, Instant};

use mrnet_obs::{NodeMetrics, Unpoisoned};
use mrnet_transport::chan::{unbounded, Receiver, SendError, Sender};

/// No turn is due and none is running.
const IDLE: u8 = 0;
/// A turn is due: a thread has queued the node or unparked its owner.
const SCHEDULED: u8 = 1;
/// A thread is running a turn.
const RUNNING: u8 = 2;
/// A thread is running a turn, and a message arrived during it.
const RESCHEDULED: u8 = 3;
/// The node's last turn has run.
const STOPPED: u8 = 4;

/// `Slot::wake_at` of a node without a timer.
const NEVER: u64 = u64::MAX;

/// What a [`Slot`] runs.
pub(crate) trait Turns: Send {
    /// Runs one turn. False once the node has stopped: no turn follows.
    /// A turn that panics counts as one that returned false.
    fn turn(&mut self) -> bool;

    /// When the node's earliest timer is due, if it has one.
    fn wake_at(&self) -> Option<Instant>;

    /// Cleans up after the last turn. Runs once, on the owner thread.
    fn stop(&mut self);
}

/// One node: its lock, its schedule state and its owner thread.
pub(crate) struct Slot {
    state: AtomicU8,
    /// `None` until [`Slot::drive`] installs the node, and again once
    /// it has stopped.
    node: Mutex<Option<Box<dyn Turns>>>,
    /// Set by [`Slot::drive`], after the node is installed.
    owner: OnceLock<Thread>,
    /// The node's next timer in nanoseconds since `epoch`, or
    /// [`NEVER`]. The owner sleeps until the value it read last.
    wake_at: AtomicU64,
    epoch: Instant,
    metrics: Arc<NodeMetrics>,
}

/// The nodes made ready by the turns this thread runs, in order.
struct RunQueue {
    /// True while the thread is inside [`Slot::run_ready`].
    active: bool,
    ready: VecDeque<Arc<Slot>>,
}

thread_local! {
    static RUN_QUEUE: RefCell<RunQueue> = const {
        RefCell::new(RunQueue {
            active: false,
            ready: VecDeque::new(),
        })
    };
}

impl Slot {
    /// The node's metrics instruments, created with the slot.
    pub(crate) fn metrics(&self) -> &Arc<NodeMetrics> {
        &self.metrics
    }

    /// Makes sure a turn runs after the caller's last push.
    fn schedule(self: &Arc<Self>) {
        if self.mark() {
            self.hand_off();
        }
    }

    /// Moves the state on for one push. True when the caller moved the
    /// node from idle to scheduled, and so must see the turn run.
    fn mark(&self) -> bool {
        let mut state = self.state.load(Acquire);
        loop {
            let next = match state {
                IDLE => SCHEDULED,
                RUNNING => RESCHEDULED,
                _ => return false,
            };
            match self
                .state
                .compare_exchange_weak(state, next, AcqRel, Acquire)
            {
                Ok(_) => return state == IDLE,
                Err(now) => state = now,
            }
        }
    }

    /// Gets a scheduled turn run: on this thread if it runs turns, by
    /// the owner otherwise. Before the owner has installed the node
    /// there is nobody to wake; [`Slot::drive`] runs the turn then.
    fn hand_off(self: &Arc<Self>) {
        let queued = RUN_QUEUE.with_borrow_mut(|q| {
            if q.active {
                q.ready.push_back(self.clone());
            }
            q.active
        });
        if !queued {
            if let Some(owner) = self.owner.get() {
                self.metrics.loop_owner_wakes.inc();
                owner.unpark();
            }
        }
    }

    fn unpark_owner(&self) {
        if let Some(owner) = self.owner.get() {
            owner.unpark();
        }
    }

    fn nanos(&self, t: Instant) -> u64 {
        let since = t.saturating_duration_since(self.epoch).as_nanos();
        u64::try_from(since).map_or(NEVER - 1, |n| n.min(NEVER - 1))
    }

    /// Runs one turn if the node is scheduled. `adopted`: the calling
    /// thread is not the node's owner.
    fn run(self: &Arc<Self>, adopted: bool) {
        if self
            .state
            .compare_exchange(SCHEDULED, RUNNING, AcqRel, Acquire)
            .is_err()
        {
            // Idle, running elsewhere or stopped: an earlier entry of
            // this node in a run queue, or its owner, took the turn.
            return;
        }
        let outcome = {
            let mut node = self.node.lock().unpoisoned();
            node.as_mut().map(|node| {
                self.metrics.loop_turns.inc();
                if adopted {
                    self.metrics.loop_turns_adopted.inc();
                }
                // A panicking turn stops its own node, as a turn that
                // returns false does, and no other: the thread may be
                // another node's owner running an adopted turn.
                let more = panic::catch_unwind(AssertUnwindSafe(|| node.turn())).unwrap_or(false);
                (more, node.wake_at())
            })
        };
        match outcome {
            Some((false, _)) => {
                self.state.store(STOPPED, Release);
                if adopted {
                    self.unpark_owner();
                }
                return;
            }
            Some((true, wake_at)) => self.set_wake_at(wake_at, adopted),
            // Not installed yet: `drive` schedules a turn once it is.
            None => {}
        }
        if self
            .state
            .compare_exchange(RUNNING, IDLE, AcqRel, Acquire)
            .is_err()
        {
            // A message arrived during the turn: one more turn, behind
            // the nodes already waiting in this thread's run queue.
            self.state.store(SCHEDULED, Release);
            self.hand_off();
        }
    }

    /// Publishes the node's next timer. The owner sleeps until the one
    /// it read last, so a turn on another thread that moved the
    /// deadline earlier unparks it.
    fn set_wake_at(&self, at: Option<Instant>, adopted: bool) {
        let at = at.map_or(NEVER, |t| self.nanos(t));
        let old = self.wake_at.swap(at, AcqRel);
        if adopted && at < old {
            self.unpark_owner();
        }
    }

    /// Claims the node's timer if it is due, and schedules a turn to
    /// fire it. If a turn is already under way or queued, that turn
    /// fires the timer and publishes the next one.
    fn claim_due_timer(&self) {
        let at = self.wake_at.load(Acquire);
        if at != NEVER
            && self.nanos(Instant::now()) >= at
            && self
                .wake_at
                .compare_exchange(at, NEVER, AcqRel, Acquire)
                .is_ok()
        {
            self.mark();
        }
    }

    /// Runs the turns that are due: this node's, and every turn that
    /// turns on this thread made ready, in order, until none is left.
    /// This node's own turn and timers come first again after every
    /// adopted turn, so a long chain of those cannot hold them back.
    /// Owner threads only.
    fn run_ready(self: &Arc<Self>) {
        RUN_QUEUE.with_borrow_mut(|q| q.active = true);
        loop {
            self.claim_due_timer();
            self.run(false);
            let Some(slot) = RUN_QUEUE.with_borrow_mut(|q| q.ready.pop_front()) else {
                break;
            };
            slot.run(!Arc::ptr_eq(&slot, self));
        }
        RUN_QUEUE.with_borrow_mut(|q| q.active = false);
    }

    /// The owner thread's loop: installs `node`, runs turns as they are
    /// scheduled and timers as they fall due, and returns after the
    /// node's cleanup, which runs here once its last turn has run,
    /// whichever thread ran that turn.
    pub(crate) fn drive(self: &Arc<Self>, node: Box<dyn Turns>) {
        *self.node.lock().unpoisoned() = Some(node);
        self.owner
            .set(thread::current())
            .expect("a node is driven by one owner thread");
        // For whatever was pushed before the node was installed.
        self.mark();
        loop {
            self.run_ready();
            if self.state.load(Acquire) == STOPPED {
                break;
            }
            // A deadline that fell due since `run_ready` checked it
            // makes this return at once.
            match self.wake_at.load(Acquire) {
                NEVER => thread::park(),
                at => thread::park_timeout(Duration::from_nanos(
                    at.saturating_sub(self.nanos(Instant::now())),
                )),
            }
        }
        let node = self.node.lock().unpoisoned().take();
        if let Some(mut node) = node {
            node.stop();
        }
    }
}

/// The sending half of a node's inbox: a push that queues a message
/// also schedules a turn of the node.
pub struct Inbox<M> {
    tx: Sender<M>,
    slot: Arc<Slot>,
}

impl<M> Clone for Inbox<M> {
    fn clone(&self) -> Inbox<M> {
        Inbox {
            tx: self.tx.clone(),
            slot: self.slot.clone(),
        }
    }
}

/// Creates a node's inbox, and the slot its turns run in, which keeps
/// `metrics`.
pub(crate) fn inbox<M>(metrics: Arc<NodeMetrics>) -> (Inbox<M>, Receiver<M>) {
    let (tx, rx) = unbounded();
    let slot = Arc::new(Slot {
        state: AtomicU8::new(IDLE),
        node: Mutex::new(None),
        owner: OnceLock::new(),
        wake_at: AtomicU64::new(NEVER),
        epoch: Instant::now(),
        metrics,
    });
    (Inbox { tx, slot }, rx)
}

impl<M> Inbox<M> {
    /// Queues a message and schedules a turn. Fails once the node's
    /// receiver is gone.
    pub fn send(&self, msg: M) -> Result<(), SendError<M>> {
        self.tx.send(msg)?;
        self.slot.schedule();
        Ok(())
    }

    /// [`Sender::merge_or_send`], scheduling a turn when `msg` was
    /// queued. A merge joins a message still queued, whose push already
    /// scheduled the turn that takes it.
    pub fn merge_or_send(
        &self,
        merge: impl FnOnce(&mut M) -> bool,
        msg: impl FnOnce() -> M,
    ) -> Result<(), SendError<()>> {
        let mut queued = false;
        self.tx.merge_or_send(merge, || {
            queued = true;
            msg()
        })?;
        if queued {
            self.slot.schedule();
        }
        Ok(())
    }

    /// The slot the node's turns run in.
    pub(crate) fn slot(&self) -> &Arc<Slot> {
        &self.slot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrnet_transport::chan::bounded;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
    use std::thread::{JoinHandle, ThreadId};

    /// Runs a receive that waits up to 10 s and fails if it returned
    /// only because that wait ran out: a lost wake-up shows up as a
    /// waiter that finds its message only on its timeout re-check.
    fn woken_by_send<T>(recv: impl FnOnce(Duration) -> Option<T>) -> Option<T> {
        const WAIT: Duration = Duration::from_secs(10);
        let deadline = Instant::now() + WAIT;
        let got = recv(WAIT);
        assert!(
            Instant::now() < deadline,
            "woken by the timeout, not the send"
        );
        got
    }

    /// Spawns the owner thread of a node, which drives it until it
    /// stops.
    fn own(slot: &Arc<Slot>, node: impl Turns + 'static) -> JoinHandle<()> {
        let slot = slot.clone();
        thread::spawn(move || slot.drive(Box::new(node)))
    }

    #[derive(Debug)]
    enum Msg {
        /// Message `i` of producer `from`; `last` ends a burst.
        Data {
            from: usize,
            i: u64,
            last: bool,
        },
        /// A producer node's cue to push its next burst.
        Go,
        Stop,
    }

    /// Counts every message per producer, in order, and acks each burst
    /// to the thread that waits for it.
    struct Target {
        rx: Receiver<Msg>,
        batch: VecDeque<Msg>,
        next: Arc<Mutex<Vec<u64>>>,
        acks: Vec<Sender<()>>,
    }

    impl Turns for Target {
        fn turn(&mut self) -> bool {
            if self.rx.recv_all(&mut self.batch).is_err() {
                return false;
            }
            let mut next = self.next.lock().unwrap();
            for msg in self.batch.drain(..) {
                match msg {
                    Msg::Data { from, i, last } => {
                        assert_eq!(i, next[from], "per-producer FIFO");
                        next[from] += 1;
                        if last {
                            self.acks[from].send(()).unwrap();
                        }
                    }
                    Msg::Stop => return false,
                    Msg::Go => unreachable!("the target pushes no bursts"),
                }
            }
            true
        }

        fn wake_at(&self) -> Option<Instant> {
            None
        }

        fn stop(&mut self) {}
    }

    /// Pushes a burst into the target from inside its own turn, once per
    /// `Go`.
    struct Producer {
        id: usize,
        rx: Receiver<Msg>,
        batch: VecDeque<Msg>,
        target: Inbox<Msg>,
        sent: u64,
    }

    impl Turns for Producer {
        fn turn(&mut self) -> bool {
            if self.rx.recv_all(&mut self.batch).is_err() {
                return false;
            }
            for msg in self.batch.drain(..) {
                match msg {
                    Msg::Go => self.sent = burst(&self.target, self.id, self.sent),
                    Msg::Stop => return false,
                    Msg::Data { .. } => unreachable!("producers take cues only"),
                }
            }
            true
        }

        fn wake_at(&self) -> Option<Instant> {
            None
        }

        fn stop(&mut self) {}
    }

    const PER_PRODUCER: u64 = 20_000;

    /// Pushes messages `i..` of one burst of 1–7 messages; returns the
    /// next message number.
    fn burst(target: &Inbox<Msg>, from: usize, mut i: u64) -> u64 {
        let end = (i + i % 7 + 1).min(PER_PRODUCER);
        while i < end {
            target
                .send(Msg::Data {
                    from,
                    i,
                    last: i + 1 == end,
                })
                .unwrap();
            i += 1;
        }
        i
    }

    /// Two producer nodes push bursts into one target node from inside
    /// their turns, on their own threads (so those threads run target
    /// turns too), while two tool threads push bursts straight into the
    /// target, which wakes its owner. Each burst waits for the target's
    /// ack: a thread per producer node cues its next burst once the
    /// last is acked. A lost wake-up stalls a producer, which then
    /// misses the 10 s check.
    #[test]
    fn no_wakeup_is_lost_between_node_and_tool_threads() {
        const NODES: usize = 2;
        const TOOLS: usize = 2;
        let (target_tx, target_rx) = inbox::<Msg>(Arc::default());
        let next = Arc::new(Mutex::new(vec![0u64; NODES + TOOLS]));
        let mut acks = Vec::new();
        let mut producers = Vec::new();
        let mut owners = Vec::new();
        let mut waiters = Vec::new();
        for id in 0..NODES + TOOLS {
            let (ack_tx, ack_rx) = bounded(1);
            acks.push(ack_tx);
            let node = (id < NODES).then(|| {
                let (tx, rx) = inbox(Arc::default());
                let node = Producer {
                    id,
                    rx,
                    batch: VecDeque::new(),
                    target: target_tx.clone(),
                    sent: 0,
                };
                owners.push(own(tx.slot(), node));
                producers.push(tx.clone());
                tx
            });
            let target = target_tx.clone();
            waiters.push(thread::spawn(move || {
                let mut i = 0;
                while i < PER_PRODUCER {
                    match &node {
                        Some(node) => {
                            node.send(Msg::Go).unwrap();
                            i = (i + i % 7 + 1).min(PER_PRODUCER);
                        }
                        None => i = burst(&target, id, i),
                    }
                    woken_by_send(|t| ack_rx.recv_timeout(t).ok()).expect("ack");
                }
            }));
        }
        let target = Target {
            rx: target_rx,
            batch: VecDeque::new(),
            next: next.clone(),
            acks,
        };
        owners.push(own(target_tx.slot(), target));
        for h in waiters {
            h.join().unwrap();
        }
        for node in producers.iter().chain([&target_tx]) {
            node.send(Msg::Stop).unwrap();
        }
        for h in owners {
            h.join().unwrap();
        }
        assert_eq!(*next.lock().unwrap(), vec![PER_PRODUCER; NODES + TOOLS]);
        let target = target_tx.slot().metrics();
        let (turns, adopted) = (target.loop_turns.get(), target.loop_turns_adopted.get());
        assert!(adopted > 0, "producer threads ran target turns");
        assert!(adopted < turns, "tool pushes woke the target's owner");
        assert!(target.loop_owner_wakes.get() > 0);
    }

    /// Records which threads ran its turns and its cleanup.
    struct Stoppable {
        rx: Receiver<Msg>,
        batch: VecDeque<Msg>,
        /// Where a `Data` message is forwarded as a `Stop`.
        forward: Option<Inbox<Msg>>,
        stopped: Arc<AtomicBool>,
        stops: Arc<AtomicUsize>,
        stopping_turn: Arc<Mutex<Option<ThreadId>>>,
        stop_thread: Arc<Mutex<Option<ThreadId>>>,
    }

    impl Stoppable {
        fn new(rx: Receiver<Msg>, forward: Option<Inbox<Msg>>) -> Stoppable {
            Stoppable {
                rx,
                batch: VecDeque::new(),
                forward,
                stopped: Arc::default(),
                stops: Arc::default(),
                stopping_turn: Arc::default(),
                stop_thread: Arc::default(),
            }
        }
    }

    impl Turns for Stoppable {
        fn turn(&mut self) -> bool {
            assert!(!self.stopped.load(Relaxed), "a turn ran after the last one");
            if self.rx.recv_all(&mut self.batch).is_err() {
                return false;
            }
            for msg in self.batch.drain(..) {
                match msg {
                    Msg::Data { .. } => {
                        if let Some(to) = &self.forward {
                            to.send(Msg::Stop).unwrap();
                        }
                    }
                    Msg::Stop => {
                        self.stopped.store(true, Relaxed);
                        *self.stopping_turn.lock().unwrap() = Some(thread::current().id());
                        return false;
                    }
                    Msg::Go => {}
                }
            }
            true
        }

        fn wake_at(&self) -> Option<Instant> {
            None
        }

        fn stop(&mut self) {
            self.stops.fetch_add(1, Relaxed);
            *self.stop_thread.lock().unwrap() = Some(thread::current().id());
        }
    }

    /// Node A's turn forwards a `Stop` into node B, so B's last turn
    /// runs on A's thread. B's cleanup still runs exactly once, on B's
    /// owner, and no turn of B runs after it.
    #[test]
    fn a_stop_run_by_an_adopted_turn_cleans_up_once_on_the_owner() {
        let (b_tx, b_rx) = inbox::<Msg>(Arc::default());
        let b = Stoppable::new(b_rx, None);
        let (b_stops, b_turn, b_stop) = (
            b.stops.clone(),
            b.stopping_turn.clone(),
            b.stop_thread.clone(),
        );
        let b_owner = own(b_tx.slot(), b);
        let (a_tx, a_rx) = inbox::<Msg>(Arc::default());
        let a_owner = own(a_tx.slot(), Stoppable::new(a_rx, Some(b_tx.clone())));
        // B's first turn (for whatever was queued before it was
        // installed) is done, so its owner sleeps until unparked.
        let b_metrics = b_tx.slot().metrics().clone();
        while b_metrics.loop_turns.get() == 0 || b_tx.slot().state.load(Acquire) != IDLE {
            thread::yield_now();
        }
        let b_owner_id = b_owner.thread().id();
        a_tx.send(Msg::Data {
            from: 0,
            i: 0,
            last: true,
        })
        .unwrap();
        b_owner.join().unwrap();
        assert_eq!(*b_turn.lock().unwrap(), Some(a_owner.thread().id()));
        assert_eq!(*b_stop.lock().unwrap(), Some(b_owner_id));
        assert_eq!(b_stops.load(Relaxed), 1);
        // Pushes after the last turn run nothing: the node is gone.
        assert!(b_tx.send(Msg::Go).is_err());
        let turns = b_metrics.loop_turns.get();
        assert_eq!(b_metrics.loop_turns_adopted.get(), 1);
        a_tx.send(Msg::Stop).unwrap();
        a_owner.join().unwrap();
        assert_eq!(b_metrics.loop_turns.get(), turns);
    }
}
