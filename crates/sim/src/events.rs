//! The discrete-event core: a time-ordered event queue.
//!
//! A consumer defines its own event payload enum and drives a pop-dispatch
//! loop; this module guarantees deterministic ordering: events fire in
//! (time, insertion-sequence) order, so simultaneous events are processed
//! FIFO and runs are exactly repeatable.
//!
//! The shipped engine prices work through *analytic* resource models
//! ([`crate::server`], [`crate::mem`]) rather than a global event loop —
//! see DESIGN.md's timing-model notes — so `EventQueue` is provided as the
//! toolkit piece for downstream simulations that do want explicit
//! event-driven interleaving (e.g. modeling preemption or finer-grained
//! hardware handshakes).

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct Key(SimTime, u64);

struct Entry<E> {
    key: Key,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A deterministic discrete-event queue.
///
/// ```
/// use bionic_sim::events::EventQueue;
/// use bionic_sim::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_ns(20.0), "late");
/// q.push(SimTime::from_ns(10.0), "early");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(e, "early");
/// assert_eq!(t.as_ns(), 10.0);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// Scheduling in the past is a simulation bug and panics in every
    /// build profile.
    pub fn push(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled event in the past: {} < {}",
            at,
            self.now
        );
        let key = Key(at, self.seq);
        self.seq += 1;
        self.heap.push(Reverse(Entry { key, event }));
    }

    /// Schedule `event` to fire `delay` after the current time.
    pub fn push_after(&mut self, delay: SimTime, event: E) {
        self.push(self.now + delay, event);
    }

    /// Remove and return the earliest event, advancing the clock to it.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|Reverse(e)| {
            self.now = e.key.0;
            (e.key.0, e.event)
        })
    }

    /// Time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse(e)| e.key.0)
    }

    /// The current simulated time (time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(30.0), 3);
        q.push(SimTime::from_ns(10.0), 1);
        q.push(SimTime::from_ns(20.0), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn simultaneous_events_are_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5.0);
        for i in 0..100 {
            q.push(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(7.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(7.0)));
        q.pop();
        assert_eq!(q.now().as_ns(), 7.0);
        assert!(q.is_empty());
    }

    #[test]
    fn push_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10.0), "a");
        q.pop();
        q.push_after(SimTime::from_ns(5.0), "b");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t.as_ns(), 15.0);
    }

    #[test]
    #[should_panic(expected = "scheduled event in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_ns(10.0), ());
        q.pop();
        q.push(SimTime::from_ns(5.0), ());
    }
}
