//! The discrete-event simulation engine.
//!
//! A minimal, deterministic event-driven simulator: events are boxed
//! closures ordered by virtual time (ties broken by insertion order,
//! so runs are reproducible). The world state `W` is owned by the
//! [`Sim`]; handlers receive `(&mut W, &mut Scheduler<W>)` so they can
//! mutate the world and schedule further events.
//!
//! This substitutes for the paper's physical testbed (ASCI Blue
//! Pacific): the benchmark harness runs the real MRNet protocol logic
//! against virtual clocks instead of a 280-node machine.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Virtual time, in seconds.
pub type SimTime = f64;

type Handler<W> = Box<dyn FnOnce(&mut W, &mut Scheduler<W>)>;

struct Event<W> {
    at: SimTime,
    seq: u64,
    handler: Handler<W>,
}

impl<W> PartialEq for Event<W> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<W> Eq for Event<W> {}
impl<W> PartialOrd for Event<W> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<W> Ord for Event<W> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so earliest time pops first,
        // with insertion order breaking ties.
        other
            .at
            .total_cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The scheduling half of the simulator, handed to event handlers.
pub struct Scheduler<W> {
    now: SimTime,
    seq: u64,
    queue: BinaryHeap<Event<W>>,
}

impl<W> Scheduler<W> {
    fn new() -> Scheduler<W> {
        Scheduler {
            now: 0.0,
            seq: 0,
            queue: BinaryHeap::new(),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `handler` to run at absolute virtual time `at`.
    /// Scheduling into the past clamps to "now".
    pub fn at(&mut self, at: SimTime, handler: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static) {
        let at = at.max(self.now);
        let seq = self.seq;
        self.seq += 1;
        self.queue.push(Event {
            at,
            seq,
            handler: Box::new(handler),
        });
    }

    /// Schedules `handler` to run `delay` seconds from now.
    pub fn after(
        &mut self,
        delay: SimTime,
        handler: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        debug_assert!(delay >= 0.0, "negative delay");
        self.at(self.now + delay.max(0.0), handler);
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }
}

/// A deterministic discrete-event simulation over world state `W`.
pub struct Sim<W> {
    /// The simulated world, mutated by event handlers.
    pub world: W,
    sched: Scheduler<W>,
}

impl<W> Sim<W> {
    /// Creates a simulation at virtual time zero.
    pub fn new(world: W) -> Sim<W> {
        Sim {
            world,
            sched: Scheduler::new(),
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Schedules an initial event (see [`Scheduler::at`]).
    pub fn schedule_at(
        &mut self,
        at: SimTime,
        handler: impl FnOnce(&mut W, &mut Scheduler<W>) + 'static,
    ) {
        self.sched.at(at, handler);
    }

    /// Runs one event; returns false when the queue is empty.
    pub fn step(&mut self) -> bool {
        match self.sched.queue.pop() {
            Some(ev) => {
                debug_assert!(ev.at >= self.sched.now, "time went backwards");
                self.sched.now = ev.at;
                (ev.handler)(&mut self.world, &mut self.sched);
                true
            }
            None => false,
        }
    }

    /// Runs until no events remain; returns the final virtual time.
    pub fn run(&mut self) -> SimTime {
        while self.step() {}
        self.sched.now
    }

    /// Runs until no events remain or virtual time would pass
    /// `deadline`; events after the deadline stay queued.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        while let Some(ev) = self.sched.queue.peek() {
            if ev.at > deadline {
                break;
            }
            self.step();
        }
        self.sched.now = self
            .sched
            .now
            .max(deadline.min(self.sched.now.max(deadline)));
        self.sched.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_run_in_time_order() {
        let mut sim = Sim::new(Vec::<u32>::new());
        sim.schedule_at(3.0, |w: &mut Vec<u32>, _| w.push(3));
        sim.schedule_at(1.0, |w, _| w.push(1));
        sim.schedule_at(2.0, |w, _| w.push(2));
        let end = sim.run();
        assert_eq!(sim.world, vec![1, 2, 3]);
        assert!((end - 3.0).abs() < 1e-12);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut sim = Sim::new(Vec::<u32>::new());
        for i in 0..10 {
            sim.schedule_at(1.0, move |w: &mut Vec<u32>, _| w.push(i));
        }
        sim.run();
        assert_eq!(sim.world, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn handlers_can_schedule_more_events() {
        let mut sim = Sim::new(0u64);
        fn tick(w: &mut u64, s: &mut Scheduler<u64>) {
            *w += 1;
            if *w < 5 {
                s.after(1.0, tick);
            }
        }
        sim.schedule_at(0.0, tick);
        let end = sim.run();
        assert_eq!(sim.world, 5);
        assert!((end - 4.0).abs() < 1e-12);
    }

    #[test]
    fn now_advances_with_events() {
        let mut sim = Sim::new(Vec::<SimTime>::new());
        sim.schedule_at(2.5, |_, s| assert!((s.now() - 2.5).abs() < 1e-12));
        sim.schedule_at(5.0, |w: &mut Vec<SimTime>, s| w.push(s.now()));
        sim.run();
        assert_eq!(sim.world, vec![5.0]);
    }

    #[test]
    fn past_scheduling_clamps_to_now() {
        let mut sim = Sim::new(Vec::<SimTime>::new());
        sim.schedule_at(10.0, |_, s| {
            s.at(1.0, |w: &mut Vec<SimTime>, s| w.push(s.now()));
        });
        sim.run();
        assert_eq!(sim.world, vec![10.0]);
    }

    #[test]
    fn run_until_leaves_future_events() {
        let mut sim = Sim::new(Vec::<u32>::new());
        sim.schedule_at(1.0, |w: &mut Vec<u32>, _| w.push(1));
        sim.schedule_at(100.0, |w, _| w.push(100));
        sim.run_until(10.0);
        assert_eq!(sim.world, vec![1]);
        sim.run();
        assert_eq!(sim.world, vec![1, 100]);
    }

    #[test]
    fn step_returns_false_when_drained() {
        let mut sim = Sim::new(());
        assert!(!sim.step());
        sim.schedule_at(0.0, |_, _| {});
        assert!(sim.step());
        assert!(!sim.step());
    }

    #[test]
    fn pending_counts() {
        let mut sim = Sim::new(());
        sim.schedule_at(1.0, |_, s| {
            assert_eq!(s.pending(), 1); // the 2.0 event
            s.after(0.5, |_, _| {});
            assert_eq!(s.pending(), 2);
        });
        sim.schedule_at(2.0, |_, _| {});
        sim.run();
    }

    #[test]
    fn determinism_across_runs() {
        fn run_once() -> Vec<u32> {
            let mut sim = Sim::new(Vec::new());
            for i in 0..50u32 {
                let t = f64::from(i % 7);
                sim.schedule_at(t, move |w: &mut Vec<u32>, s| {
                    w.push(i);
                    if i % 3 == 0 {
                        s.after(0.25, move |w: &mut Vec<u32>, _| w.push(1000 + i));
                    }
                });
            }
            sim.run();
            sim.world
        }
        assert_eq!(run_once(), run_once());
    }
}
