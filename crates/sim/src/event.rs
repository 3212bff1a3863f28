//! The deterministic event queue at the heart of every simulation here.
//!
//! `EventQueue<E>` is generic over the embedding simulation's event payload
//! type: each crate that builds a simulation (the NIC pipelines, the
//! end-to-end harness, …) defines its own `enum` of events and drives a
//! plain `while let Some((t, ev)) = q.pop()` loop. Keeping control flow in
//! the embedder — rather than dispatching through trait objects — keeps
//! the borrow checker out of the way and the event loop monomorphic.
//!
//! ## Ordering guarantees
//!
//! Events are delivered in non-decreasing timestamp order. Two events with
//! the **same** timestamp are delivered in the order they were scheduled
//! (FIFO tie-break via a monotonically increasing sequence number). This is
//! what makes simulations reproducible: a `BinaryHeap` alone would break
//! ties arbitrarily.
//!
//! Scheduling an event in the past (before the current clock) is a logic
//! error in the embedding simulation and panics immediately rather than
//! silently reordering causality.

use crate::time::{Duration, Time};
use std::cmp::Ordering;
use std::collections::BinaryHeap;

struct Entry<E> {
    at: Time,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, on ties,
        // first-scheduled) entry is the maximum.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A discrete-event queue with a clock.
///
/// The queue owns the simulated clock: `pop` advances it to the timestamp
/// of the delivered event. See the module docs for ordering guarantees.
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: Time,
    seq: u64,
    delivered: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at `Time::ZERO`.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            now: Time::ZERO,
            seq: 0,
            delivered: 0,
        }
    }

    /// Current simulated time (timestamp of the last delivered event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Whether no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events delivered so far.
    #[inline]
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    /// Schedule `payload` for absolute time `at`.
    ///
    /// # Panics
    /// If `at` is earlier than the current clock.
    pub fn schedule(&mut self, at: Time, payload: E) {
        assert!(
            at >= self.now,
            "scheduling into the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Schedule `payload` to fire `after` from now.
    pub fn schedule_in(&mut self, after: Duration, payload: E) {
        self.schedule(self.now + after, payload);
    }

    /// Deliver the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, E)> {
        let e = self.heap.pop()?;
        debug_assert!(e.at >= self.now);
        self.now = e.at;
        self.delivered += 1;
        Some((e.at, e.payload))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(30), "c");
        q.schedule(Time::from_ns(10), "a");
        q.schedule(Time::from_ns(20), "b");
        assert_eq!(q.pop(), Some((Time::from_ns(10), "a")));
        assert_eq!(q.pop(), Some((Time::from_ns(20), "b")));
        assert_eq!(q.pop(), Some((Time::from_ns(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(Time::from_ns(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(7), ());
        assert_eq!(q.now(), Time::ZERO);
        q.pop();
        assert_eq!(q.now(), Time::from_ns(7));
    }

    #[test]
    #[should_panic(expected = "scheduling into the past")]
    fn rejects_past_scheduling() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(10), ());
        q.pop();
        q.schedule(Time::from_ns(5), ());
    }

    #[test]
    fn schedule_in_is_relative() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(10), 1);
        q.pop();
        q.schedule_in(Duration::from_ns(5), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(15), 2)));
    }

    #[test]
    fn delivered_counts() {
        let mut q = EventQueue::new();
        q.schedule(Time::from_ns(1), ());
        q.schedule(Time::from_ns(2), ());
        q.pop();
        q.pop();
        assert_eq!(q.delivered(), 2);
    }
}
