//! The best-first frontier: a monotone priority queue over algorithm ranks.
//!
//! Every best-first loop in the workspace — the Cold-Start solve
//! ([`crate::solver::best_first`]), addition propagation and deletion repair
//! ([`crate::incremental`]), and SGraph's pruned query — pops vertices in
//! ascending `(rank, vertex id)` order. Ties on rank pop the lower id first,
//! exactly as a `BinaryHeap<Reverse<(State, u32)>>` would, so states,
//! parents and work counters do not depend on which queue served them.
//!
//! [`Frontier`] is a *radix heap*: the rank is mapped to a `u64` whose
//! unsigned order is [`f64::total_cmp`]'s order (the order [`State`] sorts
//! by), and each queued entry sits in the bucket named by the highest bit in
//! which its key differs from the last popped key. Popping refills from the
//! lowest non-empty bucket, so each entry moves down at most 64 times over
//! its life instead of sifting through a binary heap on every push and pop.
//!
//! # Tie runs
//!
//! The entries that a refill lands on the new floor all share one rank. With
//! integer weights (PPSP) such a run often holds hundreds of ids, so the
//! refill collects them in a `Vec` and sorts it once, descending, and pops
//! take its last element. Pushes made *at* the floor while propagating
//! (Reach, where every push does; PPWP, PPNP and Viterbi ties) go to a
//! small binary heap of ids instead: sending them into the sorted run would
//! cost an insertion each, O(V²) for Reach. Both hold ids of the floor's
//! rank only, so a pop takes the smaller of the run's last id and the heap's
//! top, and the `(rank, id)` pop order is the single-heap order above.
//!
//! # Monotonicity precondition
//!
//! A radix heap can only accept keys at or above the last popped key. The
//! best-first loops satisfy this through [`MonotonicAlgorithm`] property 1,
//! `rank(combine(s, w)) >= rank(s)`: every push made while relaxing a popped
//! vertex carries a rank at least the popped one. Seed pushes (a source, a
//! batch's valuable additions, a repair's reseeded vertices) carry arbitrary
//! ranks, so the floor resets whenever the frontier runs empty: seeds go in
//! before the first pop. Debug builds assert every push against the floor.
//!
//! [`MonotonicAlgorithm`]: crate::MonotonicAlgorithm

use cisgraph_types::{State, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A monotone min-priority queue of vertices keyed by rank; see the
/// [module docs](self) for the pop order and the push precondition.
///
/// A frontier keeps its buffers when it drains, so reusing one across
/// propagations allocates nothing once it has grown.
///
/// # Examples
///
/// ```
/// use cisgraph_algo::Frontier;
/// use cisgraph_types::{State, VertexId};
///
/// # fn main() -> Result<(), cisgraph_types::TypeError> {
/// let mut frontier = Frontier::new();
/// frontier.push(State::new(2.0)?, VertexId::new(7));
/// frontier.push(State::new(1.0)?, VertexId::new(9));
/// frontier.push(State::new(1.0)?, VertexId::new(3));
/// assert_eq!(frontier.pop(), Some((State::new(1.0)?, VertexId::new(3))));
/// assert_eq!(frontier.pop(), Some((State::new(1.0)?, VertexId::new(9))));
/// frontier.push(State::new(1.5)?, VertexId::new(4)); // >= the last pop
/// assert_eq!(frontier.pop(), Some((State::new(1.5)?, VertexId::new(4))));
/// assert_eq!(frontier.pop(), Some((State::new(2.0)?, VertexId::new(7))));
/// assert_eq!(frontier.pop(), None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Frontier {
    /// Key of the last pop, reset to 0 by a push into an empty frontier;
    /// every queued key is at least this.
    floor: u64,
    /// Ids a refill queued with key == `floor`, sorted descending (the next
    /// pop is the last).
    run: Vec<u32>,
    /// Ids pushed with key == `floor` since the refill, smallest id first.
    ties: BinaryHeap<Reverse<u32>>,
    /// `buckets[b]` holds `(key, id)` entries whose key first differs from
    /// `floor` at bit `b` (counting from the least significant bit).
    buckets: [Vec<(u64, u32)>; 64],
    /// Bit `b` is set iff `buckets[b]` is non-empty.
    occupied: u64,
}

impl Default for Frontier {
    fn default() -> Self {
        Self::new()
    }
}

impl Frontier {
    /// An empty frontier; buffers grow on first use.
    pub fn new() -> Self {
        Self {
            floor: 0,
            run: Vec::new(),
            ties: BinaryHeap::new(),
            buckets: std::array::from_fn(|_| Vec::new()),
            occupied: 0,
        }
    }

    /// Whether nothing is queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.run.is_empty() && self.ties.is_empty() && self.occupied == 0
    }

    /// Queues `v` at `rank`. Unless the frontier is empty, `rank` must be at
    /// least the rank of the last pop (checked in debug builds).
    #[inline]
    pub fn push(&mut self, rank: State, v: VertexId) {
        let key = key_of(rank);
        if self.is_empty() {
            self.floor = 0;
        }
        debug_assert!(
            key >= self.floor,
            "non-monotone push: rank {rank} is below the last pop {}",
            rank_of(self.floor)
        );
        self.insert(key, v.raw());
    }

    /// Pops the entry of least rank, the lowest vertex id among equal ranks.
    #[inline]
    pub fn pop(&mut self) -> Option<(State, VertexId)> {
        let id = match (self.run.last(), self.ties.peek()) {
            (Some(&r), Some(&Reverse(t))) if t < r => self.ties.pop().map(|Reverse(t)| t),
            (Some(_), _) => self.run.pop(),
            (None, Some(_)) => self.ties.pop().map(|Reverse(t)| t),
            (None, None) => {
                if self.occupied == 0 {
                    return None;
                }
                self.refill();
                self.run.pop()
            }
        }?;
        Some((rank_of(self.floor), VertexId::new(id)))
    }

    #[inline]
    fn insert(&mut self, key: u64, id: u32) {
        if key == self.floor {
            self.ties.push(Reverse(id));
        } else {
            self.bucket_insert(key, id);
        }
    }

    /// Queues a key above the floor in the bucket of its highest differing
    /// bit.
    #[inline]
    fn bucket_insert(&mut self, key: u64, id: u32) {
        let b = 63 - (key ^ self.floor).leading_zeros() as usize;
        self.buckets[b].push((key, id));
        self.occupied |= 1 << b;
    }

    /// Raises the floor to the least key of the lowest non-empty bucket and
    /// redistributes that bucket: its entries agree with one another above
    /// bit `b`, so relative to the new floor each lands in the tie run or in
    /// a bucket below `b`. Called only with the run and the heap empty.
    fn refill(&mut self) {
        let b = self.occupied.trailing_zeros() as usize;
        let mut bucket = std::mem::take(&mut self.buckets[b]);
        self.floor = bucket
            .iter()
            .map(|&(key, _)| key)
            .min()
            .expect("occupied buckets are non-empty");
        self.occupied &= !(1 << b);
        for &(key, id) in &bucket {
            if key == self.floor {
                self.run.push(id);
            } else {
                self.bucket_insert(key, id);
            }
        }
        self.run.sort_unstable_by(|a, b| b.cmp(a));
        // Hand the emptied buffer back so its capacity is reused.
        bucket.clear();
        self.buckets[b] = bucket;
    }
}

/// Maps a rank to a `u64` whose unsigned order is [`f64::total_cmp`]'s:
/// non-negative values gain the top bit, negative values are inverted.
#[inline]
fn key_of(rank: State) -> u64 {
    let bits = rank.get().to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The inverse of [`key_of`].
#[inline]
fn rank_of(key: u64) -> State {
    let bits = if key >> 63 == 1 {
        key & !(1 << 63)
    } else {
        !key
    };
    State::new_unchecked(f64::from_bits(bits))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(x: f64) -> State {
        State::new(x).unwrap()
    }

    #[test]
    fn keys_follow_the_state_order() {
        let ranks = [
            f64::NEG_INFINITY,
            -1e300,
            -2.5,
            -f64::MIN_POSITIVE,
            0.0,
            f64::MIN_POSITIVE,
            1.0,
            1.0 + f64::EPSILON,
            7.0,
            f64::MAX,
            f64::INFINITY,
        ]
        .map(s);
        for pair in ranks.windows(2) {
            assert!(key_of(pair[0]) < key_of(pair[1]), "{pair:?}");
        }
        for rank in ranks {
            assert_eq!(rank_of(key_of(rank)), rank);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "non-monotone push")]
    fn push_below_the_last_pop_is_caught() {
        let mut f = Frontier::new();
        f.push(s(5.0), VertexId::new(1));
        f.push(s(6.0), VertexId::new(2));
        f.pop();
        f.push(s(4.0), VertexId::new(3));
    }
}
