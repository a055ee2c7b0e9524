//! Speeds (paper §2.1).
//!
//! "A speed-1 construct will enter a processor. It will then remain there
//! for 3 global clock ticks. At the third clock tick, it will proceed along
//! its designated path. Similarly, a speed-3 construct will wait only 1
//! global clock tick."
//!
//! Our tick convention: a character received as input at tick *t* is
//! re-emitted as output at tick *t + dwell* and therefore received by the
//! next processor at *t + dwell + 1*. With [`SPEED1_DWELL`] = 2 a speed-1
//! construct advances one hop every 3 ticks; with [`SPEED3_DWELL`] = 0 a
//! speed-3 construct advances one hop per tick — exactly the paper's 3:1
//! ratio that Lemma 4.2's catch-up argument needs.
//!
//! Because consecutive snake characters can be spaced as little as one tick
//! apart (a newborn snake is head-then-tail on consecutive ticks, §2.3.2),
//! several characters of the same snake may dwell in one processor at once.
//! [`DwellQueue`] holds them in FIFO order with per-item deadlines. The
//! queue's occupancy is bounded by a small constant (the emission rate
//! equals the arrival rate, at most one per tick), so the processor stays
//! finite-state; [`DwellQueue::HARD_CAP`] turns any violation of that
//! reasoning into a loud failure instead of silent unbounded memory.
//!
//! ## Storage
//!
//! The front deadline lives inline in the queue (`u64::MAX` when the
//! queue is empty), so the questions a step asks of every lane — is it
//! empty, when is its next emission, is that emission due yet — are
//! answered without leaving the processor's own struct.
//!
//! Everything else sits in a lazily-allocated **fixed-capacity slab**: one
//! heap block of exactly [`DwellQueue::HARD_CAP`] slots, allocated on the
//! first push, retained across [`DwellQueue::clear`], and never resized. An
//! idle lane costs the 16-byte queue header; an active lane costs one
//! allocation for the lifetime of the processor — there is no growable
//! `VecDeque` to reallocate mid-protocol, which is what keeps the
//! steady-state tick loop allocation-free at million-node scale. Slot
//! deadlines are stored as `u16` offsets from the inline front (rebased
//! on every pop, so the front's offset is always 0 and the live span stays
//! within a few dwell windows) — 4 bytes per slot of bookkeeping instead
//! of a 16-byte `(u64, T)` tuple. The lifetime drop counter lives in the
//! slab too: a drop only happens when the queue is full, so a queue that
//! never allocated has never dropped anything.

/// Ticks a speed-1 construct dwells between reception and re-emission.
pub const SPEED1_DWELL: u64 = 2;

/// Ticks a speed-3 construct dwells between reception and re-emission.
pub const SPEED3_DWELL: u64 = 0;

const CAP: usize = 16;

/// Inline front deadline of an empty queue.
const EMPTY: u64 = u64::MAX;

/// The lazily-allocated backing store: a bounded ring of `CAP` slots.
#[derive(Clone, Debug)]
struct Slab<T> {
    /// Scheduled emissions refused at [`DwellQueue::HARD_CAP`] (see
    /// [`DwellQueue::push_bounded`]); never reset, surfaced per-run as the
    /// `dropped` statistic.
    dropped: u64,
    head: u8,
    len: u8,
    /// Per-slot deadline as `front + offs[slot]`; the front slot's offset
    /// is always 0.
    offs: [u16; CAP],
    items: [T; CAP],
}

impl<T: Copy + Default> Slab<T> {
    fn new() -> Self {
        Slab {
            dropped: 0,
            head: 0,
            len: 0,
            offs: [0; CAP],
            items: [T::default(); CAP],
        }
    }

    #[inline]
    fn slot(&self, i: usize) -> usize {
        (self.head as usize + i) % CAP
    }
}

/// A FIFO of items with emission deadlines, preserving arrival order.
///
/// Deadlines must be pushed in non-decreasing order (streams cannot
/// overtake themselves); this is asserted.
///
/// Equality compares the live `(deadline, item)` sequence plus the drop
/// counter; slab identity and dead slots are ignored.
#[derive(Clone, Debug)]
pub struct DwellQueue<T> {
    /// Deadline of the front item, or [`EMPTY`].
    front: u64,
    slab: Option<Box<Slab<T>>>,
}

impl<T> Default for DwellQueue<T> {
    fn default() -> Self {
        DwellQueue {
            front: EMPTY,
            slab: None,
        }
    }
}

impl<T: Copy + Default> DwellQueue<T> {
    /// Finite-state guard: a correct protocol never holds more than a
    /// handful of characters per construct per processor (analysis in the
    /// module docs says ≲ 4). Exceeding this means the automaton is no
    /// longer finite-state — fail loudly.
    pub const HARD_CAP: usize = CAP;

    /// New empty queue. Allocates nothing until the first push.
    pub fn new() -> Self {
        Self::default()
    }

    #[inline]
    fn slab_mut(&mut self) -> &mut Slab<T> {
        self.slab.get_or_insert_with(|| Box::new(Slab::new()))
    }

    /// Schedule `item` for emission at `deadline`.
    #[inline]
    pub fn push(&mut self, deadline: u64, item: T) {
        assert!(deadline != EMPTY, "DwellQueue deadline out of range");
        if self.front == EMPTY {
            self.front = deadline;
        }
        let front = self.front;
        let slab = self.slab_mut();
        if slab.len > 0 {
            let last = front + slab.offs[slab.slot(slab.len as usize - 1)] as u64;
            assert!(
                deadline >= last,
                "DwellQueue deadlines must be non-decreasing ({deadline} < {last})"
            );
        }
        assert!(
            (slab.len as usize) < CAP,
            "DwellQueue overflow: the automaton is no longer finite-state"
        );
        // The front offset is rebased to 0 on every pop, so the live span
        // is a few dwell windows at most — u16 is generous.
        let off = deadline - front;
        assert!(off <= u16::MAX as u64, "DwellQueue deadline span overflow");
        let slot = slab.slot(slab.len as usize);
        slab.offs[slot] = off as u16;
        slab.items[slot] = item;
        slab.len += 1;
    }

    /// Capacity-bounded [`DwellQueue::push`]: when the buffer is full,
    /// drop `item`, count the drop, and return `false` instead of
    /// panicking.
    ///
    /// A clean protocol run never holds more than a handful of characters
    /// per construct (see [`DwellQueue::HARD_CAP`]), so in undisturbed
    /// executions this behaves exactly like `push`. After a live topology
    /// mutation, though, an orphaned *growing* snake can circulate a
    /// cycle forever — and growing snakes grow, one extension character
    /// per tail pass, so the circulating junk stream's occupancy rises
    /// without bound. A physical processor's buffer is finite; dropping
    /// characters from a stream that only exists because the network
    /// changed under it loses nothing (the session-level remap driver
    /// recovers the disturbed epoch), while keeping the automaton honest
    /// about its constant size. Every refusal increments
    /// [`DwellQueue::dropped`] so lossy-cap behavior is observable.
    #[inline]
    pub fn push_bounded(&mut self, deadline: u64, item: T) -> bool {
        if self.len() >= Self::HARD_CAP {
            self.record_drops(1);
            return false;
        }
        self.push(deadline, item);
        true
    }

    /// Record `k` scheduled emissions refused without entering the queue
    /// (the all-or-nothing tail-extension rule drops pairs up front).
    #[inline]
    pub fn record_drops(&mut self, k: u64) {
        if k > 0 {
            self.slab_mut().dropped += k;
        }
    }

    /// Total scheduled emissions refused at capacity over this queue's
    /// lifetime. 0 on clean (mutation-free) runs.
    #[inline]
    pub fn dropped(&self) -> u64 {
        self.slab.as_deref().map_or(0, |s| s.dropped)
    }

    /// Pop the next item whose deadline is ≤ `now`, if any.
    #[inline]
    pub fn pop_due(&mut self, now: u64) -> Option<T> {
        if self.front > now || self.front == EMPTY {
            return None;
        }
        let slab = self.slab.as_deref_mut().expect("a front implies a slab");
        let item = slab.items[slab.head as usize];
        slab.head = ((slab.head as usize + 1) % CAP) as u8;
        slab.len -= 1;
        if slab.len == 0 {
            self.front = EMPTY;
            return Some(item);
        }
        // Rebase so the new front sits at offset 0; keeps every live
        // offset within a dwell-window span of the front however long the
        // queue stays continuously occupied.
        let d = slab.offs[slab.head as usize];
        if d > 0 {
            self.front += d as u64;
            for i in 0..slab.len as usize {
                let s = slab.slot(i);
                slab.offs[s] -= d;
            }
        }
        Some(item)
    }

    /// Earliest pending deadline.
    #[inline]
    pub fn next_deadline(&self) -> Option<u64> {
        (self.front != EMPTY).then_some(self.front)
    }

    /// Number of queued items.
    #[inline]
    pub fn len(&self) -> usize {
        match self.slab.as_deref() {
            Some(s) if self.front != EMPTY => s.len as usize,
            _ => 0,
        }
    }

    /// Is the queue empty?
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.front == EMPTY
    }

    /// Drop everything (KILL-token erasure). The slab is retained for
    /// reuse; the drop counter is a lifetime statistic and survives too.
    #[inline]
    pub fn clear(&mut self) {
        self.front = EMPTY;
        if let Some(slab) = self.slab.as_deref_mut() {
            slab.len = 0;
            slab.head = 0;
        }
    }

    /// Iterate over pending `(deadline, item)` pairs (diagnostics).
    pub fn iter(&self) -> impl Iterator<Item = (u64, T)> + '_ {
        let slab = self.slab.as_deref();
        (0..self.len()).map(move |i| {
            let s = slab.expect("len > 0 implies a slab");
            let slot = s.slot(i);
            (self.front + s.offs[slot] as u64, s.items[slot])
        })
    }
}

impl<T: Copy + Default + PartialEq> PartialEq for DwellQueue<T> {
    fn eq(&self, other: &Self) -> bool {
        self.dropped() == other.dropped()
            && self.len() == other.len()
            && self.iter().eq(other.iter())
    }
}

impl<T: Copy + Default + Eq> Eq for DwellQueue<T> {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_ratio_is_three() {
        // hop latency = dwell + 1 wire tick
        assert_eq!((SPEED1_DWELL + 1) / (SPEED3_DWELL + 1), 3);
    }

    #[test]
    fn pop_respects_deadlines_and_order() {
        let mut q = DwellQueue::new();
        q.push(5, b'a');
        q.push(5, b'b');
        q.push(7, b'c');
        assert_eq!(q.pop_due(4), None);
        assert_eq!(q.pop_due(5), Some(b'a'));
        assert_eq!(q.pop_due(5), Some(b'b'));
        assert_eq!(q.pop_due(5), None); // 'c' not due yet
        assert_eq!(q.pop_due(8), Some(b'c'));
        assert!(q.is_empty());
    }

    #[test]
    fn late_pop_still_fifo() {
        let mut q = DwellQueue::new();
        q.push(1, 1);
        q.push(2, 2);
        assert_eq!(q.pop_due(10), Some(1));
        assert_eq!(q.pop_due(10), Some(2));
    }

    #[test]
    fn next_deadline_and_len() {
        let mut q = DwellQueue::new();
        assert_eq!(q.next_deadline(), None);
        q.push(3, ());
        q.push(4, ());
        assert_eq!(q.next_deadline(), Some(3));
        assert_eq!(q.len(), 2);
        q.clear();
        assert!(q.is_empty());
    }

    #[test]
    fn slab_ring_wraps_and_rebases() {
        // Drive far more traffic than CAP through the queue; the ring
        // must wrap and the offset rebasing must keep deadlines exact.
        let mut q = DwellQueue::new();
        let mut expect = std::collections::VecDeque::new();
        let mut next = 0u64;
        for round in 0..10u64 {
            let t = round * 1_000_000; // huge gaps stress the u16 offsets
            for k in 0..7 {
                q.push(t + k, next);
                expect.push_back(next);
                next += 1;
            }
            for _ in 0..7 {
                assert_eq!(q.pop_due(t + 10), expect.pop_front());
            }
            assert!(q.is_empty());
        }
    }

    #[test]
    fn push_bounded_counts_drops() {
        let mut q = DwellQueue::new();
        for i in 0..DwellQueue::<u32>::HARD_CAP as u64 {
            assert!(q.push_bounded(i, 0u32));
        }
        assert_eq!(q.dropped(), 0);
        assert!(!q.push_bounded(99, 0u32));
        assert!(!q.push_bounded(99, 0u32));
        assert_eq!(q.dropped(), 2);
        // the counter survives erasure — it is a lifetime statistic
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.dropped(), 2);
        q.record_drops(3);
        assert_eq!(q.dropped(), 5);
    }

    #[test]
    fn equality_ignores_dead_slots() {
        let mut a = DwellQueue::new();
        let mut b = DwellQueue::new();
        // Different slab histories, same live contents.
        a.push(1, 7u32);
        a.pop_due(1);
        a.push(5, 9);
        b.push(5, 9);
        assert_eq!(a, b);
        b.pop_due(5);
        assert_ne!(a, b);
    }

    #[test]
    fn matches_a_naive_model_over_random_operations() {
        // Differential test against the obvious `VecDeque<(deadline,
        // item)>` plus a drop counter. Pushes stay within a few ticks of
        // the last live deadline (streams cannot overtake themselves) but
        // start wherever the clock is once the queue drains, and the clock
        // sometimes jumps a million ticks — so the ring wraps, the front
        // rebases, the queue overflows HARD_CAP, and deadlines run far
        // beyond any u16 offset.
        use gtd_netsim::rng::DetRng;
        use std::collections::VecDeque;
        const CAP: usize = DwellQueue::<u32>::HARD_CAP;
        for seed in 0..64 {
            let mut rng = DetRng::seed_from_u64(seed);
            let mut q = DwellQueue::new();
            let mut model: VecDeque<(u64, u32)> = VecDeque::new();
            let mut dropped = 0u64;
            let mut now = 0u64;
            for step in 0..2_000u32 {
                let ctx = format!("seed {seed}, step {step}");
                let deadline = model.back().map_or(now, |&(d, _)| d) + rng.next_u64() % 4;
                match rng.random_range(0..100) {
                    0..=29 if model.len() < CAP => {
                        q.push(deadline, step);
                        model.push_back((deadline, step));
                    }
                    0..=49 => {
                        let kept = q.push_bounded(deadline, step);
                        assert_eq!(kept, model.len() < CAP, "{ctx}");
                        if kept {
                            model.push_back((deadline, step));
                        } else {
                            dropped += 1;
                        }
                    }
                    50..=79 => {
                        let want = match model.front() {
                            Some(&(d, _)) if d <= now => model.pop_front().map(|(_, x)| x),
                            _ => None,
                        };
                        assert_eq!(q.pop_due(now), want, "{ctx}");
                    }
                    80..=84 => {
                        let k = rng.next_u64() % 3;
                        q.record_drops(k);
                        dropped += k;
                    }
                    85..=87 => {
                        q.clear();
                        model.clear();
                    }
                    88..=97 => now += rng.next_u64() % 3,
                    _ => now += 1_000_000,
                }
                assert_eq!(q.next_deadline(), model.front().map(|&(d, _)| d), "{ctx}");
                assert_eq!(q.len(), model.len(), "{ctx}");
                assert_eq!(q.is_empty(), model.is_empty(), "{ctx}");
                assert_eq!(q.dropped(), dropped, "{ctx}");
                assert!(q.iter().eq(model.iter().copied()), "{ctx}");
                // A queue rebuilt from the model is equal; one that
                // differs in a single item, one deadline or the drop
                // count is not.
                let mut same = DwellQueue::new();
                for &(d, x) in &model {
                    same.push(d, x);
                }
                same.record_drops(dropped);
                assert_eq!(q, same, "{ctx}");
                let mut fewer_drops = same.clone();
                fewer_drops.record_drops(1);
                assert_ne!(q, fewer_drops, "{ctx}");
                if let Some(&(d, x)) = model.back() {
                    let mut off = DwellQueue::new();
                    for &(d2, x2) in model.iter().take(model.len() - 1) {
                        off.push(d2, x2);
                    }
                    off.push(d + 1, x);
                    off.record_drops(dropped);
                    assert_ne!(q, off, "{ctx}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "non-decreasing")]
    fn decreasing_deadline_panics() {
        let mut q = DwellQueue::new();
        q.push(5, ());
        q.push(4, ());
    }

    #[test]
    #[should_panic(expected = "finite-state")]
    fn overflow_panics() {
        let mut q = DwellQueue::new();
        for i in 0..=DwellQueue::<u32>::HARD_CAP as u64 {
            q.push(i, 0u32);
        }
    }
}
