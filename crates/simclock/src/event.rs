//! Deterministic future-event list.
//!
//! A discrete-event simulation advances by repeatedly popping the earliest
//! scheduled event. [`EventQueue`] wraps a binary heap and guarantees a
//! *deterministic* ordering: events scheduled for the same instant are
//! delivered in insertion order (FIFO), so two simulation runs with the same
//! seed and the same schedule produce identical traces.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// An event together with the instant it is scheduled for.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScheduledEvent<E> {
    /// The instant the event fires at.
    pub at: SimTime,
    /// Monotonically increasing sequence number used to break ties.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E: Eq> Ord for ScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest time (and within a
        // time, the lowest sequence number) is popped first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E: Eq> PartialOrd for ScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered queue of future events.
///
/// # Example
///
/// ```
/// use simclock::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(5), "b");
/// q.schedule(SimTime::from_secs(1), "a");
/// q.schedule(SimTime::from_secs(5), "c");
///
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<E> {
    heap: BinaryHeap<ScheduledEvent<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E: Eq> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Eq> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or [`SimTime::ZERO`] before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Schedules `event` to fire at instant `at`.
    ///
    /// Events scheduled for an instant earlier than the current clock are
    /// delivered at the current clock instead (the simulation never travels
    /// backwards).
    pub fn schedule(&mut self, at: SimTime, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(ScheduledEvent { at, seq, event });
    }

    /// Schedules many events at once.
    ///
    /// Semantically identical to calling [`EventQueue::schedule`] once per
    /// item in iteration order (same past-clamping, same FIFO tie-breaking),
    /// but large batches are heapified in *O(n)* and merged with
    /// [`BinaryHeap::append`]'s size-aware strategy instead of paying
    /// *O(log n)* per push. The simulation engine uses this to schedule the
    /// initial session churn of big populations in bulk.
    ///
    /// # Example
    ///
    /// ```
    /// use simclock::{EventQueue, SimTime};
    ///
    /// let mut q = EventQueue::new();
    /// q.schedule_batch((0..1000u64).map(|i| (SimTime::from_secs(1000 - i), i)));
    /// assert_eq!(q.len(), 1000);
    /// assert_eq!(q.pop(), Some((SimTime::from_secs(1), 999)));
    /// ```
    pub fn schedule_batch(&mut self, events: impl IntoIterator<Item = (SimTime, E)>) {
        let batch: Vec<ScheduledEvent<E>> = events
            .into_iter()
            .map(|(at, event)| {
                let seq = self.next_seq;
                self.next_seq += 1;
                ScheduledEvent {
                    at: at.max(self.now),
                    seq,
                    event,
                }
            })
            .collect();
        if batch.len() <= 8 {
            // Small batches: plain pushes beat building a second heap.
            for ev in batch {
                self.heap.push(ev);
            }
        } else {
            let mut incoming = BinaryHeap::from(batch);
            self.heap.append(&mut incoming);
        }
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let ScheduledEvent { at, event, .. } = self.heap.pop()?;
        self.now = at;
        Some((at, event))
    }

    /// Pops the earliest event only if it fires no later than `limit`.
    ///
    /// The clock advances to the event's timestamp when an event is returned
    /// and is left unchanged otherwise.
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, E)> {
        match self.heap.peek() {
            Some(ev) if ev.at <= limit => self.pop(),
            _ => None,
        }
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|ev| ev.at)
    }

    /// Removes all pending events.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

/// An event scheduled in a [`KeyedEventQueue`]: an instant, a source key and
/// a FIFO sequence number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KeyedScheduledEvent<E> {
    /// The instant the event fires at.
    pub at: SimTime,
    /// Caller-assigned ordering key, compared after `at` and before `seq`.
    pub key: u64,
    /// Monotonically increasing sequence number used as the final tie-break.
    pub seq: u64,
    /// The event payload.
    pub event: E,
}

impl<E: Eq> Ord for KeyedScheduledEvent<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Max-heap inversion, as for `ScheduledEvent`: earliest (at, key, seq)
        // pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.key.cmp(&self.key))
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E: Eq> PartialOrd for KeyedScheduledEvent<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A time-ordered queue with an explicit, caller-controlled total order.
///
/// [`EventQueue`] breaks same-instant ties by insertion order, which makes
/// the trace depend on *when* events were scheduled. A [`KeyedEventQueue`]
/// instead orders events by `(at, key, seq)` where `key` is assigned by the
/// caller: two queues that receive the same set of `(at, key, event)`
/// entries pop them in the same order no matter how insertion was batched or
/// interleaved (the insertion-order `seq` only breaks ties between entries
/// with identical `(at, key)`).
///
/// This is the property the cross-shard simulation engine builds on: events
/// drained from inter-shard mailboxes at an epoch boundary and events
/// scheduled causally during the epoch sort into one partition-independent
/// order, because the key encodes the *source entity*, not the insertion
/// site.
#[derive(Debug, Clone)]
pub struct KeyedEventQueue<E> {
    heap: BinaryHeap<KeyedScheduledEvent<E>>,
    /// Staged batch lane: events from [`KeyedEventQueue::schedule_batch`],
    /// sorted *descending* by `(at, key, seq)` so the earliest entry sits at
    /// the back and pops off in *O(1)*. Keeping a sealed mailbox as a sorted
    /// run instead of heapifying it makes the drain cost exactly one sort,
    /// where pushing the same events through the heap would pay a
    /// near-full-depth sift both in and out (mailbox events land in the next
    /// epoch, i.e. ahead of almost everything resident).
    run: Vec<KeyedScheduledEvent<E>>,
    next_seq: u64,
    now: SimTime,
}

impl<E: Eq> Default for KeyedEventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Eq> KeyedEventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        KeyedEventQueue {
            heap: BinaryHeap::new(),
            run: Vec::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// The current simulated time: the timestamp of the most recently popped
    /// event (or [`SimTime::ZERO`] before the first pop).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.run.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.run.is_empty()
    }

    /// Schedules `event` at instant `at` under ordering key `key`.
    ///
    /// As with [`EventQueue::schedule`], instants earlier than the current
    /// clock are clamped to the clock.
    pub fn schedule(&mut self, at: SimTime, key: u64, event: E) {
        let at = at.max(self.now);
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(KeyedScheduledEvent { at, key, seq, event });
    }

    /// Schedules many events at once by staging them as a sorted run.
    ///
    /// Semantically identical to calling [`KeyedEventQueue::schedule`] once
    /// per item in iteration order (same past-clamping, same FIFO tie-break
    /// between identical `(at, key)` pairs), but the batch never touches the
    /// heap: it is sorted once by `(at, key, seq)` and kept as a side lane
    /// that [`KeyedEventQueue::pop`] merges with the heap on the fly. Sealed
    /// inter-shard mailboxes drain through exactly this entry point, and the
    /// lane is what makes the drain cheap: mailbox events land in the *next*
    /// epoch — earlier than almost every resident session event — so pushing
    /// them through the heap would sift nearly to the root both on insert and
    /// on pop, while the lane costs one sort and *O(1)* per pop.
    ///
    /// A batch scheduled while a previous run is still partially pending
    /// linearly re-merges the leftover (far-future entries such as redials
    /// carry over a few epochs; the leftover stays small in practice).
    pub fn schedule_batch(&mut self, events: impl IntoIterator<Item = (SimTime, u64, E)>) {
        let mut batch: Vec<KeyedScheduledEvent<E>> = events
            .into_iter()
            .map(|(at, key, event)| {
                let seq = self.next_seq;
                self.next_seq += 1;
                KeyedScheduledEvent {
                    at: at.max(self.now),
                    key,
                    seq,
                    event,
                }
            })
            .collect();
        if batch.len() <= 8 {
            for ev in batch {
                self.heap.push(ev);
            }
            return;
        }
        batch.sort_unstable_by_key(|ev| std::cmp::Reverse((ev.at, ev.key, ev.seq)));
        if self.run.is_empty() {
            self.run = batch;
            return;
        }
        // Merge the leftover of the previous run with the new batch; both are
        // descending by (at, key, seq), so one linear pass keeps the lane
        // sorted (largest entries first, earliest at the back).
        let old = std::mem::take(&mut self.run);
        let mut merged = Vec::with_capacity(old.len() + batch.len());
        let mut leftover = old.into_iter().peekable();
        let mut incoming = batch.into_iter().peekable();
        loop {
            let take_left = match (leftover.peek(), incoming.peek()) {
                (Some(l), Some(r)) => (l.at, l.key, l.seq) >= (r.at, r.key, r.seq),
                (Some(_), None) => true,
                (None, Some(_)) => false,
                (None, None) => break,
            };
            let side = if take_left { &mut leftover } else { &mut incoming };
            merged.push(side.next().expect("peeked side is non-empty"));
        }
        self.run = merged;
    }

    /// The earliest pending event across the heap and the staged run.
    fn peek_event(&self) -> Option<&KeyedScheduledEvent<E>> {
        match (self.run.last(), self.heap.peek()) {
            (Some(r), Some(h)) => {
                if (r.at, r.key, r.seq) < (h.at, h.key, h.seq) {
                    Some(r)
                } else {
                    Some(h)
                }
            }
            (Some(r), None) => Some(r),
            (None, h) => h,
        }
    }

    /// Pops the earliest event and advances the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, u64, E)> {
        let take_run = match (self.run.last(), self.heap.peek()) {
            (Some(r), Some(h)) => (r.at, r.key, r.seq) < (h.at, h.key, h.seq),
            (Some(_), None) => true,
            (None, _) => false,
        };
        let KeyedScheduledEvent { at, key, event, .. } = if take_run {
            self.run.pop().expect("run lane checked non-empty")
        } else {
            self.heap.pop()?
        };
        self.now = at;
        Some((at, key, event))
    }

    /// Pops the earliest event only if it fires no later than `limit`
    /// (inclusive).
    pub fn pop_until(&mut self, limit: SimTime) -> Option<(SimTime, u64, E)> {
        match self.peek_event() {
            Some(ev) if ev.at <= limit => self.pop(),
            _ => None,
        }
    }

    /// Pops the earliest event only if it fires strictly before `limit`.
    ///
    /// The lock-step shard driver processes an epoch `[kE, (k+1)E)` with this
    /// bound: events landing exactly on the boundary belong to the next
    /// epoch, after that epoch's mailbox exchange.
    pub fn pop_before(&mut self, limit: SimTime) -> Option<(SimTime, u64, E)> {
        match self.peek_event() {
            Some(ev) if ev.at < limit => self.pop(),
            _ => None,
        }
    }

    /// The timestamp of the next pending event, if any.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.peek_event().map(|ev| ev.at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(30), 3);
        q.schedule(SimTime::from_secs(10), 1);
        q.schedule(SimTime::from_secs(20), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(20), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100u32 {
            q.schedule(SimTime::from_secs(7), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_secs(42), ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(42));
    }

    #[test]
    fn scheduling_in_the_past_is_clamped_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(100), "late");
        q.pop();
        q.schedule(SimTime::from_secs(10), "early");
        let (at, ev) = q.pop().unwrap();
        assert_eq!(ev, "early");
        assert_eq!(at, SimTime::from_secs(100));
    }

    #[test]
    fn pop_until_respects_limit() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 1);
        q.schedule(SimTime::from_secs(20), 2);
        assert_eq!(q.pop_until(SimTime::from_secs(15)), Some((SimTime::from_secs(10), 1)));
        assert_eq!(q.pop_until(SimTime::from_secs(15)), None);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(20)));
    }

    #[test]
    fn clear_empties_queue() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.schedule(SimTime::from_secs(2), ());
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn schedule_batch_matches_sequential_schedules() {
        // Same inputs through schedule() and schedule_batch() must produce
        // identical pop sequences, including FIFO ties and past-clamping.
        let events: Vec<(SimTime, u32)> = (0..500u32)
            .map(|i| (SimTime::from_secs(((i * 7919) % 97) as u64), i))
            .collect();
        let mut sequential = EventQueue::new();
        for (at, ev) in &events {
            sequential.schedule(*at, *ev);
        }
        let mut batched = EventQueue::new();
        batched.schedule_batch(events.iter().copied());
        let a: Vec<_> = std::iter::from_fn(|| sequential.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| batched.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn schedule_batch_clamps_past_events_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(100), 0u32);
        q.pop();
        q.schedule_batch((1..20u32).map(|i| (SimTime::from_secs(i as u64), i)));
        while let Some((at, _)) = q.pop() {
            assert_eq!(at, SimTime::from_secs(100));
        }
    }

    #[test]
    fn schedule_batch_interleaves_with_single_schedules() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 100u32);
        q.schedule_batch([(SimTime::from_secs(5), 101u32), (SimTime::from_secs(1), 102)]);
        q.schedule(SimTime::from_secs(5), 103);
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        // Time order first, then insertion (seq) order for the 5 s ties.
        assert_eq!(order, vec![102, 100, 101, 103]);
    }

    #[test]
    fn keyed_queue_orders_by_at_then_key_then_seq() {
        let mut q = KeyedEventQueue::new();
        q.schedule(SimTime::from_secs(5), 9, "b-late-key");
        q.schedule(SimTime::from_secs(5), 1, "a-early-key");
        q.schedule(SimTime::from_secs(1), 100, "first-time");
        q.schedule(SimTime::from_secs(5), 9, "c-fifo-after-b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, _, e)| e).collect();
        assert_eq!(
            order,
            vec!["first-time", "a-early-key", "b-late-key", "c-fifo-after-b"]
        );
    }

    #[test]
    fn keyed_queue_order_is_insertion_batching_independent() {
        // The defining property: the pop order depends only on the (at, key)
        // set, not on how entries were batched or interleaved at insertion.
        let entries: Vec<(SimTime, u64, u32)> = (0..200u32)
            .map(|i| (SimTime::from_secs(((i * 7919) % 23) as u64), ((i * 31) % 13) as u64, i))
            .collect();
        let mut causal = KeyedEventQueue::new();
        for (at, key, ev) in &entries {
            causal.schedule(*at, *key, *ev);
        }
        // Batched insertion in a different (sorted) order, split in two.
        let mut sorted = entries.clone();
        sorted.sort_by_key(|&(at, key, ev)| (at, key, ev));
        let mut batched = KeyedEventQueue::new();
        let half = sorted.len() / 2;
        batched.schedule_batch(sorted[..half].iter().copied());
        batched.schedule_batch(sorted[half..].iter().copied());
        let a: Vec<_> = std::iter::from_fn(|| causal.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| batched.pop()).collect();
        // Identical (at, key) pairs keep their per-queue FIFO order; the
        // entries here are distinct per (at, key, ev) except by construction,
        // so compare the full sequences modulo FIFO ties: sort equal-(at,key)
        // runs and compare.
        let canon = |mut v: Vec<(SimTime, u64, u32)>| {
            v.sort_by_key(|&(at, key, ev)| (at, key, ev));
            v
        };
        assert_eq!(a.len(), b.len());
        // Pop order must be sorted by (at, key) in both queues.
        for w in a.windows(2) {
            assert!((w[0].0, w[0].1) <= (w[1].0, w[1].1));
        }
        for w in b.windows(2) {
            assert!((w[0].0, w[0].1) <= (w[1].0, w[1].1));
        }
        assert_eq!(canon(a), canon(b));
    }

    #[test]
    fn keyed_queue_pop_before_is_exclusive() {
        let mut q = KeyedEventQueue::new();
        q.schedule(SimTime::from_secs(10), 0, 1);
        q.schedule(SimTime::from_secs(20), 0, 2);
        assert_eq!(q.pop_before(SimTime::from_secs(20)), Some((SimTime::from_secs(10), 0, 1)));
        assert_eq!(q.pop_before(SimTime::from_secs(20)), None);
        assert_eq!(q.pop_until(SimTime::from_secs(20)), Some((SimTime::from_secs(20), 0, 2)));
    }

    #[test]
    fn keyed_queue_batch_matches_sequential() {
        let entries: Vec<(SimTime, u64, u32)> = (0..500u32)
            .map(|i| (SimTime::from_secs(((i * 131) % 97) as u64), (i % 7) as u64, i))
            .collect();
        let mut sequential = KeyedEventQueue::new();
        for (at, key, ev) in &entries {
            sequential.schedule(*at, *key, *ev);
        }
        let mut batched = KeyedEventQueue::new();
        batched.schedule_batch(entries.iter().copied());
        let a: Vec<_> = std::iter::from_fn(|| sequential.pop()).collect();
        let b: Vec<_> = std::iter::from_fn(|| batched.pop()).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn keyed_unsorted_batch_pops_like_a_stable_sorted_one() {
        // The mailbox exchange hands `schedule_batch` its concatenated,
        // unsorted batch; the pop order must equal that of the same batch
        // stable-sorted by (at, key) first, ties included. Sizes straddle the
        // 8-entry heap cutoff, and the queue already holds a heap entry and a
        // partially drained run, as it does at an epoch barrier.
        let mut rng = crate::rng::SimRng::seed_from(0x5eed_ba7c);
        for len in [0usize, 1, 2, 5, 8, 9, 16, 100, 1000] {
            for _ in 0..8 {
                let batch: Vec<(SimTime, u64, u32)> = (0..len as u32)
                    .map(|i| {
                        let at = SimTime::from_secs(20 + rng.uniform_u64(0, 4));
                        (at, rng.uniform_u64(0, 3), i)
                    })
                    .collect();
                let mut sorted = batch.clone();
                sorted.sort_by_key(|&(at, key, _)| (at, key));
                let queues = [batch, sorted].map(|entries| {
                    let mut q = KeyedEventQueue::new();
                    let resident = (0..10u32).map(|i| (SimTime::from_secs(i as u64 * 3), 1, 900 + i));
                    q.schedule_batch(resident);
                    q.schedule(SimTime::from_secs(21), 1, 999);
                    assert!(q.pop_before(SimTime::from_secs(10)).is_some());
                    q.schedule_batch(entries);
                    std::iter::from_fn(|| q.pop()).collect::<Vec<_>>()
                });
                assert_eq!(queues[0], queues[1], "batch of {len} popped out of order");
            }
        }
    }

    #[test]
    fn interleaved_schedule_and_pop_remains_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), 10);
        q.schedule(SimTime::from_secs(30), 30);
        assert_eq!(q.pop().unwrap().1, 10);
        // Schedule an event between the current clock and the next event.
        q.schedule(q.now() + SimDuration::from_secs(5), 15);
        assert_eq!(q.pop().unwrap().1, 15);
        assert_eq!(q.pop().unwrap().1, 30);
    }
}
