//! The discrete-event queue driving the network simulator.
//!
//! Events pop in `(at, id)` order: earliest first, and among equal
//! timestamps in the order their ids were handed out — keeping simulations
//! deterministic. An id is normally taken when the event is scheduled, but
//! it can be [reserved](EventQueue::reserve) earlier and used later: the
//! simulator reserves one for every timer arm and queues only the arms that
//! can still fire (DESIGN.md §2, "Why the event order is exact").
//!
//! The queue is a calendar queue (Brown, CACM 1988). Time is cut into
//! buckets of `2^WIDTH_SHIFT` ns, and a ring of `SLOTS` buckets covers the
//! window from the current bucket on:
//!
//! * the current bucket is a small binary heap on `(at, id)`;
//! * every later bucket in the window is an unsorted vector, heapified when
//!   the clock reaches it;
//! * events beyond the window — the simulation's up-front connection
//!   arrivals, keep-alives, retransmission timers — wait in an
//!   overflow heap and move into the ring as the window slides over them.
//!
//! Nothing is ever scheduled before the clock, so every event in a later
//! bucket or in the overflow is later than every event in the current
//! bucket, and popping the current heap pops the global minimum.

use dart_packet::Nanos;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of a bucket's width in ns: 65.5 µs.
const WIDTH_SHIFT: u32 = 16;
/// Buckets in the ring: a 67 ms window, which holds the packet hops and
/// delayed ACKs; retransmission timers (200 ms and up), keep-alives and
/// arrivals wait in the overflow. Measured with `cargo bench --bench sim`:
/// 4096 slots of this width cost the churn shape about a quarter more,
/// 16384 about three fifths more; 512 to 2048 slots, and widths from 2^14 to
/// 2^17 ns, are all within a few percent of this.
const SLOTS: u64 = 1024;

/// An event queue over payloads of type `E`.
#[derive(Debug)]
pub(crate) struct EventQueue<E> {
    /// The current bucket's events.
    current: BinaryHeap<Entry<E>>,
    /// The buckets after it, by `bucket % SLOTS`.
    ring: Vec<Vec<Entry<E>>>,
    /// Events in `ring`.
    in_ring: usize,
    /// Events past the ring's window.
    overflow: BinaryHeap<Entry<E>>,
    /// Index of the current bucket, `at >> WIDTH_SHIFT`.
    bucket: u64,
    next_id: u64,
    now: Nanos,
}

#[derive(Debug)]
struct Entry<E> {
    at: Nanos,
    id: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.id == other.id
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
        // BinaryHeap is a max-heap: invert for earliest-first.
        other.at.cmp(&self.at).then_with(|| other.id.cmp(&self.id))
    }
}

impl<E> EventQueue<E> {
    /// An empty queue at time zero.
    pub(crate) fn new() -> EventQueue<E> {
        EventQueue {
            current: BinaryHeap::new(),
            ring: (0..SLOTS).map(|_| Vec::new()).collect(),
            in_ring: 0,
            overflow: BinaryHeap::new(),
            bucket: 0,
            next_id: 0,
            now: 0,
        }
    }

    /// Current simulation time (the timestamp of the last popped event).
    #[cfg(test)]
    pub(crate) fn now(&self) -> Nanos {
        self.now
    }

    /// Take the next id without scheduling anything: an event later
    /// scheduled under it pops where it would have had it been scheduled
    /// now.
    pub(crate) fn reserve(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }

    /// Schedule `event` at absolute time `at`. Scheduling in the past is a
    /// bug in the caller.
    pub(crate) fn schedule(&mut self, at: Nanos, event: E) {
        let id = self.reserve();
        self.schedule_reserved(at, id, event);
    }

    /// Schedule `event` at `at` under an id from [`EventQueue::reserve`].
    pub(crate) fn schedule_reserved(&mut self, at: Nanos, id: u64, event: E) {
        debug_assert!(at >= self.now, "event scheduled in the past");
        debug_assert!(id < self.next_id, "id was never reserved");
        let entry = Entry { at, id, event };
        let bucket = at >> WIDTH_SHIFT;
        if bucket <= self.bucket {
            self.current.push(entry);
        } else if bucket < self.bucket + SLOTS {
            self.ring[(bucket % SLOTS) as usize].push(entry);
            self.in_ring += 1;
        } else {
            self.overflow.push(entry);
        }
    }

    /// Pop the earliest event, advancing the clock.
    pub(crate) fn pop(&mut self) -> Option<(Nanos, E)> {
        loop {
            if let Some(e) = self.current.pop() {
                self.now = e.at;
                return Some((e.at, e.event));
            }
            if !self.advance() {
                return None;
            }
        }
    }

    /// Make the next non-empty bucket current; false when nothing is
    /// pending.
    fn advance(&mut self) -> bool {
        if self.in_ring == 0 {
            // Nothing in the window: jump to the overflow's first bucket.
            let Some(first) = self.overflow.peek() else {
                return false;
            };
            self.bucket = first.at >> WIDTH_SHIFT;
        } else {
            self.bucket += 1;
            while self.ring[(self.bucket % SLOTS) as usize].is_empty() {
                self.bucket += 1;
            }
        }
        // The window now reaches further: bring in what it covers. Those
        // events all lie past the ring's, so none belongs to the bucket
        // just found — except after a jump, where the bucket is the first
        // overflow event's own.
        let horizon = self.bucket + SLOTS;
        while let Some(e) = self.overflow.peek() {
            let bucket = e.at >> WIDTH_SHIFT;
            if bucket >= horizon {
                break;
            }
            if let Some(e) = self.overflow.pop() {
                self.ring[(bucket % SLOTS) as usize].push(e);
                self.in_ring += 1;
            }
        }
        let slot = (self.bucket % SLOTS) as usize;
        let events = std::mem::take(&mut self.ring[slot]);
        self.in_ring -= events.len();
        // Hand the spent heap's allocation to the slot for its next turn.
        let spent = std::mem::replace(&mut self.current, BinaryHeap::from(events));
        self.ring[slot] = spent.into_vec();
        true
    }

    /// Events pending.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.current.len() + self.in_ring + self.overflow.len()
    }

    /// True when no events remain.
    #[cfg(test)]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(30, "c");
        q.schedule(10, "a");
        q.schedule(20, "b");
        assert_eq!(q.pop(), Some((10, "a")));
        assert_eq!(q.pop(), Some((20, "b")));
        assert_eq!(q.pop(), Some((30, "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        q.schedule(5, 1);
        q.schedule(5, 2);
        q.schedule(5, 3);
        assert_eq!(q.pop().map(|e| e.1), Some(1));
        assert_eq!(q.pop().map(|e| e.1), Some(2));
        assert_eq!(q.pop().map(|e| e.1), Some(3));
    }

    #[test]
    fn a_reserved_id_keeps_its_place_among_ties() {
        let mut q = EventQueue::new();
        let early = q.reserve();
        q.schedule(5, "second");
        q.schedule_reserved(5, early, "first");
        assert_eq!(q.pop(), Some((5, "first")));
        assert_eq!(q.pop(), Some((5, "second")));
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(100, ());
        assert_eq!(q.now(), 0);
        q.pop();
        assert_eq!(q.now(), 100);
    }

    #[test]
    fn len_and_empty() {
        let mut q: EventQueue<()> = EventQueue::new();
        assert!(q.is_empty());
        q.schedule(1, ());
        q.schedule(1 << 40, ());
        q.schedule(3 << WIDTH_SHIFT, ());
        assert_eq!(q.len(), 3);
        q.pop();
        q.pop();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn far_future_events_cross_an_idle_gap() {
        let mut q = EventQueue::new();
        let window = SLOTS << WIDTH_SHIFT;
        for at in [7 * window + 3, window, window - 1, 0, 50 * window] {
            q.schedule(at, at);
        }
        let popped: Vec<Nanos> = std::iter::from_fn(|| q.pop().map(|e| e.1)).collect();
        assert_eq!(popped, [0, window - 1, window, 7 * window + 3, 50 * window]);
    }

    /// When to schedule: this far after the clock, then optionally
    /// snapped to the start of the bucket that lands in, nudged by -1, 0
    /// or +1 ns (never before the clock).
    #[derive(Clone, Copy, Debug)]
    struct When {
        after: Nanos,
        snap: Option<i64>,
    }

    impl When {
        fn at(self, now: Nanos) -> Nanos {
            let at = now + self.after;
            match self.snap {
                None => at,
                Some(nudge) => ((at >> WIDTH_SHIFT) << WIDTH_SHIFT)
                    .saturating_add_signed(nudge)
                    .max(now),
            }
        }
    }

    /// One step of a random interleaving.
    #[derive(Clone, Debug)]
    enum Op {
        Schedule(When),
        /// Reserve an id now, to schedule under later.
        Reserve(When),
        /// Schedule the oldest reservation.
        Redeem,
        Pop,
    }

    /// Equal timestamps, bucket boundaries, the edge of the ring's window,
    /// and far-future events that leave long idle gaps.
    fn when() -> impl Strategy<Value = When> {
        (0u8..7, any::<u64>(), 0u8..6).prop_map(|(shape, r, snap)| {
            let width: Nanos = 1 << WIDTH_SHIFT;
            let window = SLOTS * width;
            let after = match shape {
                0 => 0,
                1 => r % 4,
                2 => r % (3 * width),
                3 => (r % 8) * width,
                4 => window - 2 * width + r % (4 * width),
                5 => (1 + r % 39) * window,
                _ => r % (100 * window),
            };
            let snap = (snap < 3).then(|| i64::from(snap) - 1);
            When { after, snap }
        })
    }

    fn op() -> impl Strategy<Value = Op> {
        (0u8..9, when()).prop_map(|(kind, when)| match kind {
            0..=3 => Op::Schedule(when),
            4 => Op::Reserve(when),
            5 => Op::Redeem,
            _ => Op::Pop,
        })
    }

    type Model = BinaryHeap<Reverse<(Nanos, u64)>>;

    /// Pop both, require the same event, and move the clock.
    fn pop_both(
        q: &mut EventQueue<u64>,
        model: &mut Model,
        now: &mut Nanos,
    ) -> Result<(), TestCaseError> {
        let want = model.pop().map(|Reverse(e)| e);
        let got = q.pop();
        prop_assert_eq!(got, want);
        if let Some((at, _)) = got {
            prop_assert_eq!(q.now(), at);
            *now = at;
        }
        prop_assert_eq!(q.len(), model.len());
        Ok(())
    }

    proptest! {
        /// The calendar pops exactly what one binary heap over every
        /// `(at, id)` pops, whatever the interleaving.
        #[test]
        fn calendar_pops_what_one_heap_pops(ops in prop::collection::vec(op(), 1..400)) {
            let mut q = EventQueue::new();
            let mut model = Model::new();
            let mut reserved = std::collections::VecDeque::new();
            let mut now = 0;
            for op in ops {
                match op {
                    Op::Schedule(when) => {
                        let at = when.at(now);
                        model.push(Reverse((at, q.next_id)));
                        q.schedule(at, q.next_id);
                    }
                    Op::Reserve(when) => reserved.push_back((when, q.reserve())),
                    Op::Redeem => {
                        if let Some((when, id)) = reserved.pop_front() {
                            let at = when.at(now);
                            q.schedule_reserved(at, id, id);
                            model.push(Reverse((at, id)));
                        }
                    }
                    Op::Pop => pop_both(&mut q, &mut model, &mut now)?,
                }
            }
            while !model.is_empty() || !q.is_empty() {
                pop_both(&mut q, &mut model, &mut now)?;
            }
        }
    }
}
