//! Addressable max-heap with `f64` priorities.
//!
//! The `EMD` sparsifier (Algorithm 3 of the paper) maintains a max-heap `H_v`
//! over the *vertices* keyed by their current degree discrepancy `|δ(u)|`.
//! The heap must support changing the priority of an arbitrary vertex in
//! `O(log n)` when an incident edge changes probability — that is precisely
//! what makes the vertex-heap formulation of EMD cheap compared to the naive
//! edge-heap (`O(α|E| log|V|)` vs `O(α(1-α)|E|²log|V|/|V|)` per E-phase).

/// Cache-aware addressable 8-ary max-heap over the dense key range
/// `0..capacity`, with priorities stored **inline** next to the keys.
///
/// The order is total: priority first, NaN as `-inf`, ties broken by the
/// smaller key, so the structure is fully deterministic and experiment runs
/// are reproducible.  It is built for update-heavy workloads like the `EMD`
/// E-phase: the 8-way branching cuts the sift depth to `log₈ n` and each
/// level's children share one or two cache lines, while the inline
/// priorities avoid one random indirection per comparison.  Because the
/// order is total, [`FlatMaxHeap::peek`] returns the unique maximum, the
/// key an argmax scan over the same priorities returns — internal layout
/// never leaks into results.  [`FlatMaxHeap::peek_excluding`] answers the
/// same scan with two keys left out, so a caller that has changed two
/// priorities can read the maximum before it updates them.
#[derive(Debug, Clone, Default)]
pub struct FlatMaxHeap {
    /// `(priority, key)` entries in heap order.
    heap: Vec<(f64, u32)>,
    /// `pos[key]` is the slot of `key` in `heap`.
    pos: Vec<u32>,
}

const ARITY: usize = 8;

impl FlatMaxHeap {
    /// Creates an empty heap; size it with [`FlatMaxHeap::rebuild`].
    pub fn new() -> Self {
        FlatMaxHeap::default()
    }

    /// Number of keys in the heap.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Returns `true` if the heap contains no keys.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Rebuilds the heap in place to contain every key `0..capacity` with
    /// the given priorities (Floyd's `O(n)` heapify, buffers reused).
    pub fn rebuild<F: FnMut(usize) -> f64>(&mut self, capacity: usize, mut priority: F) {
        self.heap.clear();
        self.heap
            .extend((0..capacity).map(|key| (priority(key), key as u32)));
        self.pos.clear();
        self.pos.extend(0..capacity as u32);
        if capacity > 1 {
            let last_parent = (capacity - 2) / ARITY;
            for slot in (0..=last_parent).rev() {
                self.sift_down(slot);
            }
        }
    }

    /// Current priority of `key`.
    ///
    /// # Panics
    /// Panics if `key` was not part of the last [`FlatMaxHeap::rebuild`].
    pub fn priority(&self, key: usize) -> f64 {
        self.heap[self.pos[key] as usize].0
    }

    /// The key with the maximum priority, without removing it.
    pub fn peek(&self) -> Option<(usize, f64)> {
        self.heap.first().map(|&(p, k)| (k as usize, p))
    }

    /// The key with the maximum priority among every key but `a` and `b`,
    /// without removing it; `None` when no other key is left.  `a` may
    /// equal `b`.
    ///
    /// Every other key's parent either outranks it or is excluded, so the
    /// answer is the root, or else the best child of an excluded key whose
    /// ancestors are all excluded: a child of the root, or of the other
    /// excluded key when that one is a child of the root.  So at most
    /// `2 × 8` entries are read, next to the root, whatever the heap's size.
    pub fn peek_excluding(&self, a: usize, b: usize) -> Option<(usize, f64)> {
        let excluded = |slot: usize| {
            let key = self.heap[slot].1 as usize;
            key == a || key == b
        };
        if self.heap.is_empty() || !excluded(0) {
            return self.peek();
        }
        let children = |slot: usize| {
            let first = ARITY * slot + 1;
            first..(first + ARITY).min(self.heap.len())
        };
        let mut best: Option<usize> = None;
        let mut excluded_child = None;
        for child in children(0) {
            if excluded(child) {
                excluded_child = Some(child);
            } else if best.is_none_or(|slot| self.greater(child, slot)) {
                best = Some(child);
            }
        }
        // The root and this child are `a` and `b`, so none of its children
        // is excluded.
        for child in excluded_child.into_iter().flat_map(children) {
            if best.is_none_or(|slot| self.greater(child, slot)) {
                best = Some(child);
            }
        }
        best.map(|slot| (self.heap[slot].1 as usize, self.heap[slot].0))
    }

    /// Whether the entry `(key, priority)` ranks above `other` in the heap's
    /// total order: the larger priority, NaN as `-inf`, and the smaller key
    /// on ties.  A peek is the entry that ranks above every other.
    pub fn ranks_above((key, priority): (usize, f64), other: (usize, f64)) -> bool {
        Self::ordering(priority, key, other.1, other.0) == std::cmp::Ordering::Greater
    }

    /// Changes the priority of `key`.
    ///
    /// # Panics
    /// Panics if `key` was not part of the last [`FlatMaxHeap::rebuild`].
    pub fn update(&mut self, key: usize, priority: f64) {
        let slot = self.pos[key] as usize;
        let old = self.heap[slot].0;
        self.heap[slot].0 = priority;
        if Self::ordering(priority, key, old, key) == std::cmp::Ordering::Greater {
            self.sift_up(slot);
        } else {
            self.sift_down(slot);
        }
    }

    fn ordering(pa: f64, ka: usize, pb: f64, kb: usize) -> std::cmp::Ordering {
        // Total order: by priority, NaN treated as -inf, ties broken by the
        // *smaller* key winning so results are deterministic.
        let pa = if pa.is_nan() { f64::NEG_INFINITY } else { pa };
        let pb = if pb.is_nan() { f64::NEG_INFINITY } else { pb };
        pa.partial_cmp(&pb)
            .expect("NaN handled above")
            .then(kb.cmp(&ka))
    }

    fn greater(&self, a: usize, b: usize) -> bool {
        let (pa, ka) = self.heap[a];
        let (pb, kb) = self.heap[b];
        Self::ordering(pa, ka as usize, pb, kb as usize) == std::cmp::Ordering::Greater
    }

    fn swap_slots(&mut self, a: usize, b: usize) {
        self.heap.swap(a, b);
        self.pos[self.heap[a].1 as usize] = a as u32;
        self.pos[self.heap[b].1 as usize] = b as u32;
    }

    fn sift_up(&mut self, mut slot: usize) {
        while slot > 0 {
            let parent = (slot - 1) / ARITY;
            if self.greater(slot, parent) {
                self.swap_slots(slot, parent);
                slot = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut slot: usize) {
        loop {
            let first = ARITY * slot + 1;
            if first >= self.heap.len() {
                break;
            }
            let last = (first + ARITY).min(self.heap.len());
            let mut largest = first;
            for child in (first + 1)..last {
                if self.greater(child, largest) {
                    largest = child;
                }
            }
            if self.greater(largest, slot) {
                self.swap_slots(slot, largest);
                slot = largest;
            } else {
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// The key a linear scan picks among the keys not in `excluded`: the
    /// largest priority, NaN as `-inf`, the smaller key on ties.
    fn argmax_excluding(priorities: &[f64], excluded: &[usize]) -> Option<(usize, f64)> {
        let key = |p: f64| if p.is_nan() { f64::NEG_INFINITY } else { p };
        let mut best: Option<(usize, f64)> = None;
        for (k, &p) in priorities.iter().enumerate() {
            if !excluded.contains(&k) && best.is_none_or(|(_, b)| key(p) > key(b)) {
                best = Some((k, p));
            }
        }
        best
    }

    fn argmax(priorities: &[f64]) -> Option<(usize, f64)> {
        argmax_excluding(priorities, &[])
    }

    /// Compares `peek` with the scan bitwise, so NaN priorities compare too.
    fn assert_peek_is_argmax(heap: &FlatMaxHeap, priorities: &[f64]) {
        let bits = |top: Option<(usize, f64)>| top.map(|(k, p)| (k, p.to_bits()));
        assert_eq!(bits(heap.peek()), bits(argmax(priorities)));
    }

    #[test]
    fn flat_heap_peek_is_the_argmax_under_random_updates() {
        let mut rng = SmallRng::seed_from_u64(17);
        let n = 300usize;
        let mut priorities: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut flat = FlatMaxHeap::new();
        flat.rebuild(n, |k| priorities[k]);
        assert_peek_is_argmax(&flat, &priorities);
        for round in 0..5_000 {
            let key = rng.gen_range(0..n);
            // Every tenth update repeats another key's priority, so ties
            // between keys are decided too.
            let p = if round % 10 == 0 {
                priorities[rng.gen_range(0..n)]
            } else {
                rng.gen_range(-5.0..5.0)
            };
            flat.update(key, p);
            priorities[key] = p;
            assert_peek_is_argmax(&flat, &priorities);
            assert_eq!(flat.priority(key), p);
        }
        assert_eq!(flat.len(), n);
        assert!(!flat.is_empty());
    }

    /// A random priority: every tenth draw repeats a current priority (so
    /// keys tie), every seventeenth is NaN and every nineteenth `-inf`.
    fn draw(rng: &mut SmallRng, round: usize, priorities: &[f64]) -> f64 {
        if round.is_multiple_of(10) {
            priorities[rng.gen_range(0..priorities.len())]
        } else if round.is_multiple_of(17) {
            f64::NAN
        } else if round.is_multiple_of(19) {
            f64::NEG_INFINITY
        } else {
            rng.gen_range(-5.0..5.0)
        }
    }

    /// Compares `peek_excluding(a, b)` with the scan bitwise.
    fn assert_peek_excluding_is_argmax(heap: &FlatMaxHeap, priorities: &[f64], a: usize, b: usize) {
        let bits = |top: Option<(usize, f64)>| top.map(|(k, p)| (k, p.to_bits()));
        assert_eq!(
            bits(heap.peek_excluding(a, b)),
            bits(argmax_excluding(priorities, &[a, b])),
            "excluding {a} and {b}"
        );
    }

    #[test]
    fn flat_heap_peek_excluding_is_the_two_key_excluding_argmax() {
        let mut rng = SmallRng::seed_from_u64(29);
        // Heaps of one to three levels, and one deeper heap under updates.
        for n in [1usize, 2, 3, 8, 9, 10, 73] {
            let priorities: Vec<f64> = (0..n)
                .map(|k| if k % 5 == 4 { f64::NAN } else { (k % 4) as f64 })
                .collect();
            let mut flat = FlatMaxHeap::new();
            flat.rebuild(n, |k| priorities[k]);
            for a in 0..n {
                for b in 0..n {
                    assert_peek_excluding_is_argmax(&flat, &priorities, a, b);
                }
            }
        }
        let n = 300usize;
        let mut priorities: Vec<f64> = (0..n).map(|_| rng.gen_range(-5.0..5.0)).collect();
        let mut flat = FlatMaxHeap::new();
        flat.rebuild(n, |k| priorities[k]);
        for round in 0..5_000 {
            let key = rng.gen_range(0..n);
            let p = draw(&mut rng, round, &priorities);
            flat.update(key, p);
            priorities[key] = p;
            // The root, the runner-up and random keys, in every pairing.
            let (top, _) = flat.peek().unwrap();
            let (second, _) = flat.peek_excluding(top, top).unwrap();
            let random = rng.gen_range(0..n);
            for (a, b) in [
                (top, random),
                (random, top),
                (top, second),
                (second, top),
                (top, top),
                (random, random),
                (second, random),
            ] {
                assert_peek_excluding_is_argmax(&flat, &priorities, a, b);
            }
        }
        let mut empty = FlatMaxHeap::new();
        empty.rebuild(0, |_| unreachable!());
        assert_eq!(empty.peek_excluding(0, 0), None);
    }

    #[test]
    fn flat_heap_ties_and_nan_follow_the_total_order() {
        let mut flat = FlatMaxHeap::new();
        flat.rebuild(4, |_| 7.0);
        assert_eq!(flat.peek(), Some((0, 7.0)));
        flat.update(0, f64::NAN);
        assert_eq!(flat.peek(), Some((1, 7.0)));
        flat.update(2, 9.0);
        assert_eq!(flat.peek(), Some((2, 9.0)));
        // A NaN ranks as -inf: below every finite number, and tied with
        // -inf, so the smaller key wins.
        let priorities = [f64::NEG_INFINITY, f64::NAN, -1.0];
        let mut sinking = FlatMaxHeap::new();
        sinking.rebuild(3, |k| priorities[k]);
        assert_eq!(sinking.peek(), Some((2, -1.0)));
        sinking.update(2, f64::NAN);
        assert_eq!(sinking.peek(), Some((0, f64::NEG_INFINITY)));
        sinking.update(0, f64::NAN);
        assert_eq!(
            sinking.peek().map(|(k, p)| (k, p.is_nan())),
            Some((0, true))
        );
        // `ranks_above` is the same order.
        assert!(FlatMaxHeap::ranks_above((1, 7.0), (2, 7.0)));
        assert!(!FlatMaxHeap::ranks_above((2, 7.0), (1, 7.0)));
        assert!(!FlatMaxHeap::ranks_above((1, 7.0), (1, 7.0)));
        assert!(FlatMaxHeap::ranks_above((5, -1.0), (0, f64::NAN)));
        assert!(FlatMaxHeap::ranks_above(
            (0, f64::NAN),
            (5, f64::NEG_INFINITY)
        ));
        assert!(!FlatMaxHeap::ranks_above(
            (5, f64::NEG_INFINITY),
            (0, f64::NAN)
        ));
        // Rebuild resizes cleanly, down to an empty heap.
        flat.rebuild(2, |k| k as f64);
        assert_eq!(flat.len(), 2);
        assert_eq!(flat.peek(), Some((1, 1.0)));
        flat.rebuild(0, |_| unreachable!());
        assert!(flat.is_empty());
        assert_eq!(flat.peek(), None);
    }
}
