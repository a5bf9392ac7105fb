//! The future-event list.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Simulated time in flit cycles (= the paper's "time units").
pub type Time = u64;

#[derive(Debug, Clone)]
struct Entry<E> {
    time: Time,
    seq: u64,
    event: E,
}

// Order by (time, seq) only; the event payload does not participate (and
// need not implement any comparison traits), so the queue pops
// simultaneous events in scheduling (FIFO) order.
impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.seq) == (other.time, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.time, self.seq).cmp(&(other.time, other.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// A monotone discrete-event queue.
///
/// Events are popped in non-decreasing time order; ties are broken by
/// insertion order, making runs with a fixed RNG seed fully deterministic.
/// The queue's time (`now`) is the timestamp of the last popped event;
/// nothing may be scheduled before it. A caller that moves time on
/// between events (the simulator steps its network cycle by cycle) keeps
/// its own clock and asks [`EventQueue::peek_time`] or
/// [`EventQueue::pop_due`] what is due.
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Time,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time 0.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Current simulation time.
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — scheduling into the past is always a
    /// model bug and would silently corrupt causality if allowed.
    pub fn schedule(&mut self, at: Time, event: E) {
        assert!(at >= self.now, "event scheduled in the past ({at} < {})", self.now);
        self.heap.push(Reverse(Entry {
            time: at,
            seq: self.seq,
            event,
        }));
        self.seq += 1;
    }

    /// Timestamp of the earliest pending event.
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|Reverse(e)| e.time)
    }

    /// Pops the earliest event, advancing `now` to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        self.heap.pop().map(|Reverse(e)| {
            inv_assert!(e.time >= self.now, "event queue time ran backwards");
            self.now = e.time;
            (e.time, e.event)
        })
    }

    /// Pops the earliest event only if it is due at or before `t`.
    pub fn pop_due(&mut self, t: Time) -> Option<(Time, E)> {
        if self.peek_time().is_some_and(|pt| pt <= t) {
            self.pop()
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq)]
    enum Ev {
        A,
        B,
        C,
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, Ev::C);
        q.schedule(10, Ev::A);
        q.schedule(20, Ev::B);
        assert_eq!(q.pop(), Some((10, Ev::A)));
        assert_eq!(q.pop(), Some((20, Ev::B)));
        assert_eq!(q.pop(), Some((30, Ev::C)));
        assert_eq!(q.pop(), None);
        assert_eq!(q.now(), 30);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        q.schedule(5, Ev::B);
        q.schedule(5, Ev::A);
        q.schedule(5, Ev::C);
        assert_eq!(q.pop().unwrap().1, Ev::B);
        assert_eq!(q.pop().unwrap().1, Ev::A);
        assert_eq!(q.pop().unwrap().1, Ev::C);
    }

    #[test]
    #[should_panic(expected = "in the past")]
    fn past_scheduling_panics() {
        let mut q = EventQueue::new();
        q.schedule(10, Ev::A);
        q.pop();
        q.schedule(5, Ev::B);
    }

    #[test]
    fn pop_due_respects_deadline() {
        let mut q = EventQueue::new();
        q.schedule(10, Ev::A);
        assert_eq!(q.pop_due(9), None);
        assert_eq!(q.pop_due(10), Some((10, Ev::A)));
    }

    #[test]
    fn interleaved_schedule_pop_is_monotone() {
        let mut q = EventQueue::new();
        let mut last = 0;
        q.schedule(1, Ev::A);
        for i in 0..100u64 {
            if let Some((t, _)) = q.pop() {
                assert!(t >= last);
                last = t;
                q.schedule(t + (i * 7919) % 13 + 1, Ev::B);
            }
        }
    }
}
