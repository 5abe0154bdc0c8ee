//! A deterministic event queue.
//!
//! Events pop in time order; equal-time events pop in insertion order
//! (FIFO), which keeps replays bit-for-bit reproducible. Inside this
//! crate a popped event can be put back with `EventQueue::requeue` and
//! keeps its place in that order.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event with its firing time and insertion sequence number.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedEvent<E> {
    /// Simulation time at which the event fires.
    pub time: f64,
    seq: u64,
    /// The payload.
    pub event: E,
}

impl<E> Eq for TimedEvent<E> where E: PartialEq {}

impl<E: PartialEq> Ord for TimedEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert to pop the earliest first.
        other
            .time
            .total_cmp(&self.time)
            .then(other.seq.cmp(&self.seq))
    }
}

impl<E: PartialEq> PartialOrd for TimedEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Min-heap of timed events with FIFO tie-breaking.
#[derive(Debug)]
pub struct EventQueue<E: PartialEq> {
    heap: BinaryHeap<TimedEvent<E>>,
    next_seq: u64,
}

impl<E: PartialEq> Default for EventQueue<E> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<E: PartialEq> EventQueue<E> {
    /// Empty queue.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Schedule `event` at `time`.
    ///
    /// # Panics
    /// Panics if `time` is NaN or negative.
    pub fn push(&mut self, time: f64, event: E) {
        check_time(time);
        self.heap.push(TimedEvent {
            time,
            seq: self.next_seq,
            event,
        });
        self.next_seq += 1;
    }

    /// Put a popped event back, at its (possibly updated) `time` and
    /// with its (possibly updated) payload, under the sequence number
    /// it was first pushed with. Among events at one time it therefore
    /// pops ahead of everything pushed after it, exactly as if it had
    /// never left the queue. The caller requeues each pop at most once
    /// and at a time no earlier than the one it popped at; otherwise
    /// equal-time events no longer pop in insertion order.
    ///
    /// # Panics
    /// Panics if `time` is NaN or negative.
    pub(crate) fn requeue(&mut self, popped: TimedEvent<E>) {
        check_time(popped.time);
        self.heap.push(popped);
    }

    /// Pop the earliest event.
    pub fn pop(&mut self) -> Option<TimedEvent<E>> {
        self.heap.pop()
    }

    /// Number of pending events.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Panic unless `time` can be scheduled: finite and non-negative.
pub(crate) fn check_time(time: f64) {
    assert!(
        time.is_finite() && time >= 0.0,
        "event time must be finite and non-negative, got {time}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(5.0, "c");
        q.push(1.0, "a");
        q.push(3.0, "b");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn equal_times_pop_fifo() {
        let mut q = EventQueue::new();
        q.push(1.0, "first");
        q.push(1.0, "second");
        q.push(1.0, "third");
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["first", "second", "third"]);
    }

    #[test]
    fn requeued_event_pops_ahead_of_later_pushes_at_its_time() {
        let mut q = EventQueue::new();
        q.push(2.0, "earlier push");
        q.push(1.0, "batch");
        let mut batch = q.pop().unwrap();
        assert_eq!(batch.event, "batch");
        q.push(2.0, "later push");
        batch.time = 2.0;
        q.requeue(batch);
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|e| e.event)).collect();
        assert_eq!(order, vec!["earlier push", "batch", "later push"]);
    }

    #[test]
    fn len_and_empty() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(1.0, ());
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "finite and non-negative")]
    fn nan_time_rejected() {
        let mut q = EventQueue::new();
        q.push(f64::NAN, ());
    }
}
