//! Degree-adaptive hybrid adjacency lists.
//!
//! Small vertices keep their out/in-lists as a plain `Vec<Edge>`: a linear
//! scan over a handful of cache lines beats any index. Once a vertex
//! crosses the promotion threshold (a hub on a skewed R-MAT graph, say),
//! the list grows a `destination -> positions` side index so membership
//! tests, weight lookups, and — critically for the §IV-A deletion-heavy
//! batches — `remove` become O(expected multiplicity) instead of
//! O(degree).
//!
//! The index is *positional*: it never changes the layout of the edge
//! vector. Every mutation (append, `swap_remove` at the chosen position)
//! is performed exactly as the naive representation would perform it, and
//! the position *chosen* for a removal is provably the same one the naive
//! linear scan would choose (the minimum matching position). The storage
//! equivalence proptests in `tests/proptest_storage.rs` pin this down:
//! hybrid and naive lists stay bit-identical slices under any operation
//! sequence.
//!
//! Lists are promoted at most once and never demoted — a vertex that was
//! ever hot keeps its index, so a delete-heavy batch against a former hub
//! stays O(1) even after the degree drops. (Undoing the very insert that
//! promoted a list drops the index again, restoring the pre-batch state.)

use crate::Edge;
use cisgraph_types::{VertexId, Weight};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Default out/in-list length beyond which an adjacency list grows its
/// destination index. Below this, a linear scan over the inline vector
/// (at most 4 KiB of contiguous entries) is cheaper than the index's
/// scattered lookups: on the mixed add/delete batches of the repository
/// benchmark's write-heavy workload, `apply_batch` ran about 30% faster
/// at 256 than at 64, and the index's memory fell to a fraction.
pub const DEFAULT_PROMOTION_THRESHOLD: usize = 256;

/// Multiplicative (Fibonacci) hasher for index keys. Keys are internal
/// vertex ids below `V`, not attacker-chosen strings, so a keyed hash buys
/// nothing: one multiply spreads dense ids across the table, and folding
/// the high half down feeds the table's bucket bits as well as its tag
/// bits.
#[derive(Debug, Default, Clone, Copy)]
struct VertexHasher(u64);

impl Hasher for VertexHasher {
    #[inline]
    fn write_u32(&mut self, key: u32) {
        let h = (u64::from(key) ^ self.0).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u32(u32::from(b));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

/// Positions (indices into the edge vector) of every entry sharing one
/// destination. Almost every destination has exactly one entry, so that
/// case is stored inline and only parallel edges allocate. `u32` keeps hub
/// indexes at half the footprint of `usize`; a single vertex cannot hold
/// 2^32 adjacency entries before `num_edges` (a `usize` counting 16-byte
/// entries) exhausts memory.
#[derive(Debug, Clone)]
enum Positions {
    One(u32),
    /// Two or more positions, in no particular order.
    Many(Vec<u32>),
}

impl Positions {
    #[inline]
    fn as_slice(&self) -> &[u32] {
        match self {
            Self::One(p) => std::slice::from_ref(p),
            Self::Many(ps) => ps,
        }
    }

    fn push(&mut self, pos: u32) {
        match self {
            Self::One(p) => *self = Self::Many(vec![*p, pos]),
            Self::Many(ps) => ps.push(pos),
        }
    }

    /// Rewrites the recorded position `from` to `to`.
    fn replace(&mut self, from: u32, to: u32) {
        let slot = match self {
            Self::One(p) => p,
            Self::Many(ps) => ps
                .iter_mut()
                .find(|p| **p == from)
                .expect("indexed edge missing its position"),
        };
        debug_assert_eq!(*slot, from, "indexed edge missing its position");
        *slot = to;
    }

    /// Drops the recorded position `pos`; returns `true` when none are
    /// left (the caller then removes the key).
    fn remove(&mut self, pos: u32) -> bool {
        match self {
            Self::One(p) => {
                debug_assert_eq!(*p, pos, "indexed edge missing its position");
                true
            }
            Self::Many(ps) => {
                let i = ps
                    .iter()
                    .position(|&p| p == pos)
                    .expect("indexed edge missing its position");
                ps.swap_remove(i);
                if let [last] = ps[..] {
                    *self = Self::One(last);
                }
                false
            }
        }
    }
}

/// `destination -> positions`, keyed by the destination's raw id.
type Index = HashMap<u32, Positions, BuildHasherDefault<VertexHasher>>;

/// One vertex's adjacency: an inline edge vector plus, past the promotion
/// threshold, a `destination -> positions` index.
#[derive(Debug, Clone, Default)]
pub(crate) struct AdjacencyList {
    edges: Vec<Edge>,
    /// Boxed so the (per-vertex) struct stays at `Vec` + pointer size:
    /// unindexed vertices — the overwhelming majority — pay 8 bytes for
    /// this field instead of an inline `HashMap` header.
    #[allow(clippy::box_collection)]
    index: Option<Box<Index>>,
}

impl AsRef<[Edge]> for AdjacencyList {
    #[inline]
    fn as_ref(&self) -> &[Edge] {
        &self.edges
    }
}

impl AdjacencyList {
    /// The adjacency entries, in exactly the order the naive
    /// representation would hold them.
    #[inline]
    pub(crate) fn as_slice(&self) -> &[Edge] {
        &self.edges
    }

    /// Whether this list has been promoted to the indexed representation.
    #[cfg(test)]
    pub(crate) fn is_indexed(&self) -> bool {
        self.index.is_some()
    }

    /// Entries the list holds room for without reallocating.
    #[cfg(test)]
    pub(crate) fn capacity(&self) -> usize {
        self.edges.capacity()
    }

    #[inline]
    fn positions(&self, dst: VertexId) -> Option<&[u32]> {
        Some(self.index.as_ref()?.get(&dst.raw())?.as_slice())
    }

    /// Records `pos` as holding an entry for `dst` (indexed lists only).
    fn index_insert(index: &mut Index, dst: VertexId, pos: u32) {
        index
            .entry(dst.raw())
            .and_modify(|ps| ps.push(pos))
            .or_insert(Positions::One(pos));
    }

    /// Appends an entry, promoting the list to the indexed representation
    /// when its length crosses `threshold`. Returns `true` iff this call
    /// performed the promotion (for the `graph.index_promotions` counter
    /// and the undo log).
    pub(crate) fn push(&mut self, edge: Edge, threshold: usize) -> bool {
        let pos = self.edges.len() as u32;
        self.edges.push(edge);
        if let Some(index) = &mut self.index {
            Self::index_insert(index, edge.to(), pos);
            false
        } else if self.edges.len() > threshold {
            self.build_index();
            true
        } else {
            false
        }
    }

    /// An empty, unindexed list with room for `len` entries: the capacity
    /// `len` pushes onto an empty list would have grown it to, so a list
    /// built in bulk costs the same memory, and later pushes the same
    /// reallocations, as one built by pushes.
    pub(crate) fn with_push_capacity(len: usize) -> Self {
        let capacity = if len == 0 {
            0
        } else {
            len.max(4).next_power_of_two()
        };
        Self {
            edges: Vec::with_capacity(capacity),
            index: None,
        }
    }

    /// Appends an entry with no index upkeep. Bulk builds push every entry
    /// this way, then call [`promote_past`](Self::promote_past) once.
    #[inline]
    pub(crate) fn push_unindexed(&mut self, edge: Edge) {
        debug_assert!(self.index.is_none(), "bulk push onto an indexed list");
        self.edges.push(edge);
    }

    /// Builds the index of an unindexed list longer than `threshold`, as
    /// the push that crossed it would have. Returns whether it did.
    pub(crate) fn promote_past(&mut self, threshold: usize) -> bool {
        let promote = self.index.is_none() && self.edges.len() > threshold;
        if promote {
            self.build_index();
        }
        promote
    }

    /// Undoes the latest [`push`](Self::push); `demote` drops the index
    /// that push built.
    pub(crate) fn pop(&mut self, demote: bool) {
        let edge = self.edges.pop().expect("undo of a push on an empty list");
        if demote {
            self.index = None;
        } else if let Some(index) = &mut self.index {
            Self::index_remove(index, edge.to(), self.edges.len() as u32);
        }
    }

    fn build_index(&mut self) {
        let mut index = Index::with_capacity_and_hasher(self.edges.len(), Default::default());
        for (pos, edge) in self.edges.iter().enumerate() {
            Self::index_insert(&mut index, edge.to(), pos as u32);
        }
        self.index = Some(Box::new(index));
    }

    /// Whether at least one entry points at `dst`.
    #[inline]
    pub(crate) fn contains(&self, dst: VertexId) -> bool {
        match &self.index {
            // Emptied position lists are pruned on removal, so key
            // presence is entry presence.
            Some(index) => index.contains_key(&dst.raw()),
            None => self.edges.iter().any(|e| e.to() == dst),
        }
    }

    /// The weight of the first (lowest-position) entry pointing at `dst`.
    pub(crate) fn first_weight(&self, dst: VertexId) -> Option<Weight> {
        if self.index.is_some() {
            let first = *self.positions(dst)?.iter().min()?;
            Some(self.edges[first as usize].weight())
        } else {
            self.edges
                .iter()
                .find(|e| e.to() == dst)
                .map(|e| e.weight())
        }
    }

    /// Removes one entry pointing at `dst`, preferring the first entry
    /// whose weight equals `expect` and falling back to the first `dst`
    /// entry — the exact semantics of the historical double linear scan,
    /// in one pass (and O(multiplicity) on indexed lists). Returns the
    /// removed entry and the position it held.
    pub(crate) fn remove_weight_preferred(
        &mut self,
        dst: VertexId,
        expect: Option<Weight>,
    ) -> Option<(u32, Edge)> {
        let pos = if self.index.is_some() {
            let positions = self.positions(dst)?;
            let mut first = u32::MAX;
            let mut matched = u32::MAX;
            for &p in positions {
                first = first.min(p);
                if expect == Some(self.edges[p as usize].weight()) {
                    matched = matched.min(p);
                }
            }
            if matched != u32::MAX {
                matched
            } else {
                first
            }
        } else {
            // Single pass tracking both the exact-weight match and the
            // first destination match (the fallback when parallel edges
            // carry other weights).
            let mut first = None;
            let mut matched = None;
            for (i, e) in self.edges.iter().enumerate() {
                if e.to() != dst {
                    continue;
                }
                if first.is_none() {
                    first = Some(i);
                }
                match expect {
                    Some(w) if e.weight() == w => {
                        matched = Some(i);
                        break;
                    }
                    Some(_) => {}
                    // No expected weight: the first match is final.
                    None => break,
                }
            }
            matched.or(first)? as u32
        };
        Some((pos, self.swap_remove(pos)))
    }

    /// Removes the first entry that matches `dst` *and* `weight` exactly
    /// (the transpose-side removal, where the forward side already fixed
    /// the weight). Returns the position it held.
    pub(crate) fn remove_exact(&mut self, dst: VertexId, weight: Weight) -> Option<u32> {
        let pos = if self.index.is_some() {
            self.positions(dst)?
                .iter()
                .copied()
                .filter(|&p| self.edges[p as usize].weight() == weight)
                .min()?
        } else {
            self.edges
                .iter()
                .position(|e| e.to() == dst && e.weight() == weight)? as u32
        };
        self.swap_remove(pos);
        Some(pos)
    }

    /// `Vec::swap_remove` plus index maintenance: the entry previously at
    /// the tail now lives at `pos`, so its recorded position is rewritten.
    fn swap_remove(&mut self, pos: u32) -> Edge {
        let removed = self.edges.swap_remove(pos as usize);
        if let Some(index) = &mut self.index {
            let last = self.edges.len() as u32;
            // Drop `pos` from the removed entry's positions (positions are
            // unique across the whole index, so exactly one hit).
            Self::index_remove(index, removed.to(), pos);
            if pos != last {
                // The former tail entry moved into `pos`.
                let moved = self.edges[pos as usize].to();
                index
                    .get_mut(&moved.raw())
                    .expect("moved edge missing its positions")
                    .replace(last, pos);
            }
        }
        removed
    }

    /// The inverse of a removal that took `edge` from `pos`: the entry now
    /// at `pos` (the former tail) moves back to the tail and `edge` returns
    /// to `pos`, restoring the exact pre-removal layout.
    pub(crate) fn unremove(&mut self, pos: u32, edge: Edge) {
        let tail = self.edges.len() as u32;
        if pos == tail {
            self.edges.push(edge);
        } else {
            let moved = std::mem::replace(&mut self.edges[pos as usize], edge);
            self.edges.push(moved);
            if let Some(index) = &mut self.index {
                index
                    .get_mut(&moved.to().raw())
                    .expect("moved edge missing its positions")
                    .replace(pos, tail);
            }
        }
        if let Some(index) = &mut self.index {
            Self::index_insert(index, edge.to(), pos);
        }
    }

    fn index_remove(index: &mut Index, dst: VertexId, pos: u32) {
        let positions = index
            .get_mut(&dst.raw())
            .expect("indexed edge missing its positions");
        if positions.remove(pos) {
            index.remove(&dst.raw());
        }
    }

    /// Internal consistency check used by tests: every index entry points
    /// at an edge with that destination, and every edge is indexed.
    #[cfg(test)]
    fn check_index(&self) {
        let Some(index) = &self.index else { return };
        let mut seen = 0;
        for (dst, positions) in index.iter() {
            if let Positions::Many(ps) = positions {
                assert!(ps.len() >= 2, "short position list for {dst}");
            }
            for &p in positions.as_slice() {
                assert_eq!(self.edges[p as usize].to().raw(), *dst, "stale position");
                seen += 1;
            }
        }
        assert_eq!(seen, self.edges.len(), "index does not cover the list");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: f64) -> Weight {
        Weight::new(x).unwrap()
    }

    fn v(x: u32) -> VertexId {
        VertexId::new(x)
    }

    fn e(to: u32, weight: f64) -> Edge {
        Edge::new(v(to), w(weight))
    }

    /// Two lists driven by the same operations, one never promoted and one
    /// promoted immediately, must remain bit-identical slices.
    fn pair() -> (AdjacencyList, AdjacencyList) {
        (AdjacencyList::default(), AdjacencyList::default())
    }

    #[test]
    fn promotion_happens_once_at_threshold() {
        let mut list = AdjacencyList::default();
        assert!(!list.push(e(0, 1.0), 2));
        assert!(!list.push(e(1, 1.0), 2));
        assert!(list.push(e(2, 1.0), 2), "third push crosses threshold 2");
        assert!(list.is_indexed());
        assert!(!list.push(e(3, 1.0), 2), "already promoted");
        list.check_index();
    }

    #[test]
    fn indexed_lookups_match_naive() {
        let (mut naive, mut hybrid) = pair();
        for i in 0..20u32 {
            let edge = e(i % 5, f64::from(i % 3 + 1));
            naive.push(edge, usize::MAX);
            hybrid.push(edge, 0);
        }
        hybrid.check_index();
        for d in 0..7u32 {
            assert_eq!(naive.contains(v(d)), hybrid.contains(v(d)), "dst {d}");
            assert_eq!(
                naive.first_weight(v(d)),
                hybrid.first_weight(v(d)),
                "dst {d}"
            );
        }
    }

    #[test]
    fn weight_preferred_removal_matches_naive_layout() {
        let (mut naive, mut hybrid) = pair();
        let edges = [e(1, 1.0), e(2, 2.0), e(1, 3.0), e(1, 1.0), e(2, 1.0)];
        for edge in edges {
            naive.push(edge, usize::MAX);
            hybrid.push(edge, 1);
        }
        // Prefer the exact weight among parallel edges...
        let a = naive.remove_weight_preferred(v(1), Some(w(3.0)));
        let b = hybrid.remove_weight_preferred(v(1), Some(w(3.0)));
        assert_eq!(a, b);
        assert_eq!(a.unwrap(), (2, e(1, 3.0)));
        // ... fall back to the first entry when no weight matches ...
        let a = naive.remove_weight_preferred(v(1), Some(w(9.0)));
        let b = hybrid.remove_weight_preferred(v(1), Some(w(9.0)));
        assert_eq!(a, b);
        // ... and the layouts (swap_remove shuffles) stay identical.
        assert_eq!(naive.as_slice(), hybrid.as_slice());
        hybrid.check_index();
    }

    #[test]
    fn remove_exact_requires_the_weight() {
        let mut list = AdjacencyList::default();
        list.push(e(1, 1.0), 0);
        assert!(list.remove_exact(v(1), w(2.0)).is_none());
        assert_eq!(list.remove_exact(v(1), w(1.0)), Some(0));
        assert!(list.as_slice().is_empty());
        list.check_index();
    }

    #[test]
    fn removing_the_tail_entry_keeps_index_consistent() {
        let mut list = AdjacencyList::default();
        list.push(e(1, 1.0), 0);
        list.push(e(2, 2.0), 0);
        assert_eq!(list.remove_exact(v(2), w(2.0)), Some(1));
        list.check_index();
        assert!(list.contains(v(1)));
        assert!(!list.contains(v(2)));
    }

    #[test]
    fn swap_remove_with_shared_destination_updates_positions() {
        let mut list = AdjacencyList::default();
        // Three parallel edges to the same destination: removing the first
        // moves the last into its slot, within the same position list.
        list.push(e(7, 1.0), 0);
        list.push(e(7, 2.0), 0);
        list.push(e(7, 3.0), 0);
        assert_eq!(list.remove_exact(v(7), w(1.0)), Some(0));
        list.check_index();
        assert_eq!(list.as_slice(), &[e(7, 3.0), e(7, 2.0)]);
        assert_eq!(list.first_weight(v(7)), Some(w(3.0)));
    }

    #[test]
    fn missing_destination_removals_return_none() {
        let (mut naive, mut hybrid) = pair();
        naive.push(e(1, 1.0), usize::MAX);
        hybrid.push(e(1, 1.0), 0);
        assert!(naive.remove_weight_preferred(v(5), None).is_none());
        assert!(hybrid.remove_weight_preferred(v(5), None).is_none());
        assert!(hybrid.remove_exact(v(5), w(1.0)).is_none());
    }

    #[test]
    fn unremove_restores_layout_and_index() {
        for threshold in [0, usize::MAX] {
            let mut list = AdjacencyList::default();
            for edge in [e(7, 1.0), e(3, 2.0), e(7, 3.0), e(5, 1.0), e(3, 4.0)] {
                list.push(edge, threshold);
            }
            let before = list.as_slice().to_vec();
            // Head (moves the tail), middle parallel edge, and the tail.
            for (dst, weight) in [(7, 1.0), (7, 3.0), (3, 4.0)] {
                let (pos, removed) = list
                    .remove_weight_preferred(v(dst), Some(w(weight)))
                    .unwrap();
                list.check_index();
                list.unremove(pos, removed);
                assert_eq!(list.as_slice(), &before[..], "threshold {threshold}");
                list.check_index();
            }
            assert_eq!(list.first_weight(v(7)), Some(w(1.0)));
        }
    }

    #[test]
    fn pop_undoes_push_and_its_promotion() {
        let mut list = AdjacencyList::default();
        list.push(e(1, 1.0), 1);
        assert!(list.push(e(1, 2.0), 1), "second push promotes");
        list.pop(true);
        assert!(!list.is_indexed(), "undoing the promoting push demotes");
        assert!(list.push(e(1, 2.0), 1));
        list.push(e(4, 1.0), 1);
        list.pop(false);
        list.check_index();
        assert!(!list.contains(v(4)));
        assert_eq!(list.as_slice(), &[e(1, 1.0), e(1, 2.0)]);
    }

    #[test]
    fn vertex_hasher_spreads_dense_ids() {
        use std::hash::BuildHasher;
        let build = BuildHasherDefault::<VertexHasher>::default();
        let mut buckets = [0u32; 64];
        for id in 0..4096u32 {
            buckets[(build.hash_one(id) % 64) as usize] += 1;
        }
        assert!(
            buckets.iter().all(|&b| (32..=96).contains(&b)),
            "{buckets:?}"
        );
    }
}
