//! A time-ordered event queue with stable FIFO tie-breaking and keyed
//! entries that are re-timed or removed in place.
//!
//! The queue is one binary min-heap ordered by `(time, seq)`, where `seq`
//! is drawn from a single counter on every insertion or re-timing, so
//! equal-time events pop in the order they were last scheduled. Entries
//! are either unkeyed (timers, arrivals: pushed and eventually popped) or
//! keyed by a small `u32` (one per flow slot), with a position index that
//! lets the owner move or cancel the key's single entry without leaving a
//! superseded copy behind.

use crate::time::SimTime;

/// Position-index marker for a key with no queued entry.
const ABSENT: usize = usize::MAX;

/// A pending event: payload `T` scheduled at a [`SimTime`].
#[derive(Debug, Clone, Copy)]
struct Entry<T> {
    time: SimTime,
    seq: u64,
    /// Where the entry records its heap index in `pos`: `key + 1`, or the
    /// scratch cell 0 when unkeyed. Every move writes it unconditionally:
    /// keyed and unkeyed entries interleave along a sift path, so a branch
    /// on "is keyed" mispredicts about once per level.
    cell: usize,
    payload: T,
}

impl<T: Copy> Entry<T> {
    /// The `(time, seq)` order as one integer, so comparisons are
    /// branch-free.
    fn order(&self) -> u128 {
        u128::from(self.time.as_nanos()) << 64 | u128::from(self.seq)
    }

    /// Strict `(time, seq)` order: `true` when `self` pops first.
    fn before(&self, other: &Self) -> bool {
        self.order() < other.order()
    }
}

/// A min-queue of `(SimTime, T)` events with stable ordering for ties and
/// at most one entry per key.
///
/// ```
/// use datagrid_simnet::event::EventQueue;
/// use datagrid_simnet::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.schedule_keyed(7, SimTime::from_nanos(30), "keyed");
/// q.schedule_keyed(7, SimTime::from_nanos(10), "keyed, moved earlier");
/// assert_eq!(q.len(), 2);
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "keyed, moved earlier")));
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(20), "late")));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T> {
    heap: Vec<Entry<T>>,
    /// Heap index of key `k`'s entry at `pos[k + 1]`, [`ABSENT`] when it
    /// has none. `pos[0]` is a scratch cell that unkeyed entries write.
    pos: Vec<usize>,
    next_seq: u64,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        EventQueue {
            heap: Vec::new(),
            pos: vec![ABSENT],
            next_seq: 0,
        }
    }
}

impl<T: Copy> EventQueue<T> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue::default()
    }

    /// Schedules an unkeyed `payload` at `time`.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.draw_seq();
        self.insert(Entry {
            time,
            seq,
            cell: 0,
            payload,
        });
    }

    /// Schedules `key`'s single entry at `time` with a fresh `seq`: inserts
    /// it, or moves the queued one there and replaces its payload. Either
    /// way it pops after every equal-time event scheduled before it.
    pub fn schedule_keyed(&mut self, key: u32, time: SimTime, payload: T) {
        let k = key as usize + 1;
        if k >= self.pos.len() {
            self.pos.resize(k + 1, ABSENT);
        }
        let seq = self.draw_seq();
        let i = self.pos[k];
        if i == ABSENT {
            self.insert(Entry {
                time,
                seq,
                cell: k,
                payload,
            });
            return;
        }
        let e = &mut self.heap[i];
        e.time = time;
        e.seq = seq;
        e.payload = payload;
        self.restore(i);
    }

    /// `true` while `key` has a queued entry.
    pub fn contains_key(&self, key: u32) -> bool {
        self.pos.get(key as usize + 1).is_some_and(|&i| i != ABSENT)
    }

    /// Cancels `key`'s entry, returning it if one was queued.
    pub fn remove_keyed(&mut self, key: u32) -> Option<(SimTime, T)> {
        let i = *self.pos.get(key as usize + 1)?;
        if i == ABSENT {
            return None;
        }
        self.remove_at(i)
    }

    /// Removes and returns the earliest event.
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        self.remove_at(0)
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    fn draw_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    fn insert(&mut self, entry: Entry<T>) {
        self.heap.push(entry);
        self.sift_up(self.heap.len() - 1);
    }

    fn remove_at(&mut self, i: usize) -> Option<(SimTime, T)> {
        let last = self.heap.len().checked_sub(1)?;
        self.heap.swap(i, last);
        let e = self.heap.pop()?;
        self.pos[e.cell] = ABSENT;
        if i < last {
            if i == 0 {
                // The former last entry is late: sink it to a leaf with one
                // comparison per level, then let it rise (Floyd).
                let leaf = self.sink_to_leaf(0);
                self.sift_up(leaf);
            } else {
                self.restore(i);
            }
        }
        Some((e.time, e.payload))
    }

    /// Re-establishes heap order around `i` after its entry changed.
    fn restore(&mut self, i: usize) {
        if i > 0 && self.heap[i].before(&self.heap[(i - 1) / 2]) {
            self.sift_up(i);
        } else {
            self.sift_down(i);
        }
    }

    /// The earlier child of `i`, if it has any. The pick between two
    /// children is unpredictable, so it is computed rather than branched.
    fn earlier_child(&self, i: usize) -> Option<usize> {
        let left = 2 * i + 1;
        let right = left + 1;
        if right < self.heap.len() {
            Some(left + usize::from(self.heap[right].before(&self.heap[left])))
        } else if left < self.heap.len() {
            Some(left)
        } else {
            None
        }
    }

    // The sifts move the displaced entry through a hole, one copy per
    // level, and re-point the position index at every entry they move.

    fn sift_up(&mut self, mut i: usize) {
        let moving = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if !moving.before(&self.heap[parent]) {
                break;
            }
            self.place(i, self.heap[parent]);
            i = parent;
        }
        self.place(i, moving);
    }

    fn sift_down(&mut self, mut i: usize) {
        let moving = self.heap[i];
        while let Some(child) = self.earlier_child(i) {
            if !self.heap[child].before(&moving) {
                break;
            }
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, moving);
    }

    /// Moves the entry at `i` down along earlier children to a leaf and
    /// returns the leaf's index.
    fn sink_to_leaf(&mut self, mut i: usize) -> usize {
        let moving = self.heap[i];
        while let Some(child) = self.earlier_child(i) {
            self.place(i, self.heap[child]);
            i = child;
        }
        self.place(i, moving);
        i
    }

    /// Writes `entry` at heap index `i` and records the index.
    fn place(&mut self, i: usize, entry: Entry<T>) {
        self.pos[entry.cell] = i;
        self.heap[i] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    impl<T: Copy> EventQueue<T> {
        /// The time of `key`'s queued entry, if any.
        fn keyed_time(&self, key: u32) -> Option<SimTime> {
            let i = *self.pos.get(key as usize + 1)?;
            self.heap.get(i).map(|e| e.time)
        }
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 'c');
        q.push(t(10), 'a');
        q.push(t(20), 'b');
        assert_eq!(q.pop(), Some((t(10), 'a')));
        assert_eq!(q.pop(), Some((t(20), 'b')));
        assert_eq!(q.pop(), Some((t(30), 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(t(7), ());
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clone_preserves_order() {
        let mut q = EventQueue::new();
        q.push(t(2), "b");
        q.push(t(1), "a");
        q.push(t(1), "a2");
        let mut c = q.clone();
        assert_eq!(c.pop(), Some((t(1), "a")));
        assert_eq!(c.pop(), Some((t(1), "a2")));
        assert_eq!(c.pop(), Some((t(2), "b")));
        // Original untouched.
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn keyed_entries_are_moved_and_removed_in_place() {
        let mut q = EventQueue::new();
        q.schedule_keyed(3, t(50), "k3");
        q.push(t(40), "timer");
        q.schedule_keyed(3, t(30), "k3 earlier");
        q.schedule_keyed(3, t(60), "k3 later");
        assert_eq!(q.len(), 2);
        assert_eq!(q.keyed_time(3), Some(t(60)));
        assert_eq!(q.remove_keyed(3), Some((t(60), "k3 later")));
        assert_eq!(q.remove_keyed(3), None);
        assert_eq!(q.keyed_time(3), None);
        assert_eq!(q.pop(), Some((t(40), "timer")));
        assert!(q.is_empty());
    }

    #[test]
    fn rescheduling_queues_behind_equal_times() {
        let mut q = EventQueue::new();
        q.schedule_keyed(0, t(5), "first");
        q.push(t(5), "timer");
        // Even at an unchanged time the entry draws a fresh seq.
        q.schedule_keyed(0, t(5), "again");
        assert!(q.contains_key(0));
        assert_eq!(q.pop(), Some((t(5), "timer")));
        assert_eq!(q.pop(), Some((t(5), "again")));
        assert!(!q.contains_key(0));
        q.schedule_keyed(0, t(9), "moved");
        q.push(t(7), "timer2");
        q.schedule_keyed(0, t(7), "moved again");
        assert_eq!(q.pop(), Some((t(7), "timer2")));
        assert_eq!(q.pop(), Some((t(7), "moved again")));
    }

    #[test]
    fn popped_key_can_be_scheduled_again() {
        let mut q = EventQueue::new();
        q.schedule_keyed(1, t(1), 'a');
        assert_eq!(q.pop(), Some((t(1), 'a')));
        assert_eq!(q.keyed_time(1), None);
        q.schedule_keyed(1, t(1), 'b');
        assert_eq!(q.pop(), Some((t(1), 'b')));
        assert_eq!(q.pop(), None);
    }

    /// `(time, seq, key, epoch, payload)`.
    type LazyEntry = (SimTime, u64, Option<u32>, u64, u64);

    /// The lazy-deletion queue the indexed heap replaced: every (re)schedule
    /// pushes a fresh epoch-stamped entry into a `BinaryHeap`, and entries
    /// whose epoch no longer matches their key's are skipped at pop time.
    #[derive(Default)]
    struct LazyModel {
        heap: BinaryHeap<Reverse<LazyEntry>>,
        /// Per key: `(epoch, time)` of the live entry, if any.
        live: Vec<Option<(u64, SimTime)>>,
        next_seq: u64,
        epoch: u64,
    }

    impl LazyModel {
        fn push(&mut self, time: SimTime, payload: u64) {
            self.heap
                .push(Reverse((time, self.next_seq, None, 0, payload)));
            self.next_seq += 1;
        }

        fn schedule_keyed(&mut self, key: u32, time: SimTime, payload: u64) {
            let k = key as usize;
            if k >= self.live.len() {
                self.live.resize(k + 1, None);
            }
            self.epoch += 1;
            self.live[k] = Some((self.epoch, time));
            self.heap.push(Reverse((
                time,
                self.next_seq,
                Some(key),
                self.epoch,
                payload,
            )));
            self.next_seq += 1;
        }

        fn remove_keyed(&mut self, key: u32) {
            if let Some(l) = self.live.get_mut(key as usize) {
                *l = None;
            }
        }

        /// Discards stale entries from the top of the heap.
        fn purge(&mut self) {
            while let Some(Reverse((_, _, Some(key), epoch, _))) = self.heap.peek() {
                if matches!(self.live[*key as usize], Some((e, _)) if e == *epoch) {
                    break;
                }
                self.heap.pop();
            }
        }

        fn pop(&mut self) -> Option<(SimTime, u64)> {
            self.purge();
            let Reverse((time, _, key, _, payload)) = self.heap.pop()?;
            if let Some(k) = key {
                self.live[k as usize] = None;
            }
            Some((time, payload))
        }

        fn peek_time(&mut self) -> Option<SimTime> {
            self.purge();
            self.heap.peek().map(|Reverse(e)| e.0)
        }

        fn live_len(&self) -> usize {
            let keyed = self.live.iter().flatten().count();
            let unkeyed = self.heap.iter().filter(|Reverse(e)| e.2.is_none()).count();
            keyed + unkeyed
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random interleavings of keyed set / re-key / remove, unkeyed
        /// push and pop produce the lazy-deletion model's pop sequence
        /// exactly, same-time ties included, while holding only live
        /// entries.
        #[test]
        fn indexed_heap_matches_lazy_deletion_model(
            ops in proptest::collection::vec((0u8..10, 0u32..12, 0u64..16), 1..400),
        ) {
            let mut q = EventQueue::new();
            let mut model = LazyModel::default();
            let mut now = 0u64;
            for (i, &(op, key, dt)) in ops.iter().enumerate() {
                let payload = i as u64;
                // Times never precede the last pop, as in the engine; the
                // narrow window makes equal-time ties common.
                let at = t(now + dt);
                match op {
                    0..=3 => {
                        q.schedule_keyed(key, at, payload);
                        model.schedule_keyed(key, at, payload);
                    }
                    4 => {
                        q.remove_keyed(key);
                        model.remove_keyed(key);
                    }
                    5 | 6 => {
                        q.push(at, payload);
                        model.push(at, payload);
                    }
                    _ => {
                        let got = q.pop();
                        prop_assert_eq!(got, model.pop());
                        if let Some((time, _)) = got {
                            now = time.as_nanos();
                        }
                    }
                }
                prop_assert_eq!(q.peek_time(), model.peek_time());
                prop_assert_eq!(q.len(), model.live_len());
                let live = model.live.get(key as usize).copied().flatten();
                prop_assert_eq!(q.keyed_time(key), live.map(|(_, at)| at));
            }
            loop {
                let got = q.pop();
                prop_assert_eq!(got, model.pop());
                if got.is_none() {
                    break;
                }
            }
        }
    }
}
