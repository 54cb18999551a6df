//! Timed propagation machinery: the Propagation phase of Fig. 4.
//!
//! Every functional step of incremental propagation / deletion repair is
//! mirrored here with its memory traffic and unit occupancy, so the cycle
//! counts reflect the same contention a hardware implementation would see:
//!
//! * out-edge lists stream in one CSR burst (neighbor prefetcher),
//! * neighbor states are fine-grained random reads (state prefetcher),
//! * ⊕/⊗ costs one ALU cycle per edge on the owning propagation unit,
//! * activated states write back to the SPM, and the activated vertex joins
//!   the global buffer, redistributed by `id mod units`.
//!
//! The host-side bookkeeping lives in a [`PropBuffers`] that the accelerator
//! instance owns and lends to each batch's [`Propagator`]: the activation
//! heap, the per-vertex "queued" flags, the dependence-subtree list and its
//! marks, and the in-row buffer. Flags are `Vec<bool>`s indexed by vertex
//! and are all false between uses (the drain clears "queued", and each tag
//! walk clears its own marks), so once they have grown a batch allocates
//! none of them. They are host bookkeeping only: no simulated access reads
//! them, so they add no cycle.

use crate::{CsrImage, MemoryLayout};
use cisgraph_algo::incremental::PendingDeletions;
use cisgraph_algo::{ConvergedResult, Counters, MonotonicAlgorithm};
use cisgraph_graph::Edge;
use cisgraph_sim::{Cycle, MemorySystem};
use cisgraph_types::{EdgeUpdate, VertexId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Host buffers a [`Propagator`] borrows, reused from batch to batch; see
/// the [module docs](self).
#[derive(Debug, Clone)]
pub(crate) struct PropBuffers {
    /// Busy-until per propagation unit (global pool, `id mod units`).
    units: Vec<Cycle>,
    /// Global activation buffer: earliest-ready first.
    heap: BinaryHeap<Reverse<(Cycle, u32)>>,
    /// `queued[v]` iff `v` is in `heap`.
    queued: Vec<bool>,
    /// The dependence subtree of the deletion being repaired, in tag order.
    tagged: Vec<VertexId>,
    /// `tag_mark[v]` iff `v` is in `tagged`; cleared after each repair.
    tag_mark: Vec<bool>,
    /// Buffer for in-rows the image has to reorder (see [`CsrImage::in_row`]).
    in_scratch: Vec<Edge>,
}

impl PropBuffers {
    /// Empty buffers for `num_units` propagation units.
    ///
    /// # Panics
    ///
    /// Panics if `num_units` is zero.
    pub(crate) fn new(num_units: usize) -> Self {
        assert!(num_units > 0, "need at least one propagation unit");
        Self {
            units: vec![0; num_units],
            heap: BinaryHeap::new(),
            queued: Vec::new(),
            tagged: Vec::new(),
            tag_mark: Vec::new(),
            in_scratch: Vec::new(),
        }
    }
}

/// The propagation engine for one batch. Borrows the functional state, the
/// memory system and the host buffers; unit occupancy lives in the buffers.
pub(crate) struct Propagator<'a, A: MonotonicAlgorithm, G: CsrImage> {
    pub image: &'a G,
    pub layout: MemoryLayout,
    pub mem: &'a mut MemorySystem,
    pub result: &'a mut ConvergedResult<A>,
    pub counters: &'a mut Counters,
    /// Dependence links of the batch's deletions (see `PendingDeletions`).
    pending: PendingDeletions,
    buf: &'a mut PropBuffers,
}

impl<'a, A: MonotonicAlgorithm, G: CsrImage> Propagator<'a, A, G> {
    /// A propagator at cycle 0: every unit idle, nothing queued.
    pub(crate) fn new(
        image: &'a G,
        layout: MemoryLayout,
        mem: &'a mut MemorySystem,
        result: &'a mut ConvergedResult<A>,
        counters: &'a mut Counters,
        pending: PendingDeletions,
        buf: &'a mut PropBuffers,
    ) -> Self {
        buf.units.fill(0);
        let n = image.num_vertices();
        buf.queued.resize(n, false);
        buf.tag_mark.resize(n, false);
        debug_assert!(buf.heap.is_empty() && !buf.queued.contains(&true));
        Self {
            image,
            layout,
            mem,
            result,
            counters,
            pending,
            buf,
        }
    }

    /// Adds `v` to the global activation buffer. Activations already queued
    /// coalesce (the buffer stores vertex ids; the state is in the SPM).
    pub(crate) fn activate(&mut self, v: VertexId, ready: Cycle) {
        let queued = &mut self.buf.queued[v.index()];
        if !*queued {
            *queued = true;
            self.buf.heap.push(Reverse((ready, v.raw())));
        }
    }

    /// Seeds a valuable edge addition: the scheduling buffer already holds
    /// the new state, so the propagation module applies it (1 ALU cycle +
    /// state write) and activates the destination.
    ///
    /// Returns the completion cycle (equals `ready` when the addition turns
    /// out stale against the current state).
    pub(crate) fn seed_addition(&mut self, add: EdgeUpdate, ready: Cycle) -> Cycle {
        self.counters.computations += 1;
        let candidate = A::combine(self.result.state(add.src()), add.weight());
        if !A::improves(candidate, self.result.state(add.dst())) {
            self.counters.updates_dropped += 1;
            return ready;
        }
        self.counters.updates_processed += 1;
        self.counters.activations += 1;
        let t_alu = ready + 1;
        let t_wr = self.mem.write(self.layout.state_addr(add.dst()), 8, t_alu);
        self.mem.write(self.layout.parent_addr(add.dst()), 4, t_alu);
        self.result.set_state(add.dst(), candidate, Some(add.src()));
        self.activate(add.dst(), t_wr);
        t_wr
    }

    /// Drains the global activation buffer to quiescence; returns the cycle
    /// at which the last propagation completed (or `floor` if idle).
    pub(crate) fn drain(&mut self, floor: Cycle) -> Cycle {
        let mut last = floor;
        while let Some(Reverse((ready, raw))) = self.buf.heap.pop() {
            self.buf.queued[raw as usize] = false;
            let done = self.process_vertex(VertexId::new(raw), ready);
            last = last.max(done);
        }
        last
    }

    /// Propagates from one activated vertex: stream its out-edge list,
    /// relax each neighbor, write improvements back.
    fn process_vertex(&mut self, v: VertexId, ready: Cycle) -> Cycle {
        let unit = v.raw() as usize % self.buf.units.len();
        let start = self.buf.units[unit].max(ready);
        // Offsets (16 B covers offsets[v] and offsets[v+1]).
        let t_off = self.mem.read(self.layout.offset_addr(v), 16, start);
        // Neighbor prefetcher: one burst for the whole edge list (§III-B).
        let (burst_addr, burst_bytes) = self.layout.edge_burst(self.image, v);
        let mut cursor = if burst_bytes > 0 {
            self.mem.read(burst_addr, burst_bytes, t_off)
        } else {
            t_off
        };
        let mut last = cursor;
        let v_state = self.result.state(v);
        for edge in self.image.out_row(v) {
            self.counters.computations += 1;
            // State prefetcher: fine-grained random read of the neighbor.
            let t_state = self.mem.read(self.layout.state_addr(edge.to()), 8, cursor);
            let t_alu = t_state.max(cursor) + 1;
            // The unit issues one edge per cycle; memory stalls shift it.
            cursor = cursor.max(t_alu.saturating_sub(1)) + 1;
            let candidate = A::combine(v_state, edge.weight());
            if A::improves(candidate, self.result.state(edge.to())) {
                self.counters.activations += 1;
                let t_wr = self.mem.write(self.layout.state_addr(edge.to()), 8, t_alu);
                self.mem.write(self.layout.parent_addr(edge.to()), 4, t_alu);
                self.result.set_state(edge.to(), candidate, Some(v));
                self.activate(edge.to(), t_wr);
                last = last.max(t_wr);
            } else {
                last = last.max(t_alu);
            }
        }
        self.buf.units[unit] = last;
        last
    }

    /// Processes one valuable edge deletion with dependence repair, exactly
    /// mirroring `cisgraph_algo::incremental::apply_deletion` but with every
    /// memory touch timed. Returns `(repaired, completion)`.
    pub(crate) fn process_deletion(&mut self, del: EdgeUpdate, ready: Cycle) -> (bool, Cycle) {
        let (u, v, _w) = (del.src(), del.dst(), del.weight());
        self.counters.computations += 1;
        // Processing-time dependence check: repair iff v's witness is u
        // (see `apply_deletion` in cisgraph-algo for why a state-equality
        // recheck is unsound once additions have run). One state read and
        // one parent read, both usually SPM-resident.
        let t_v = self.mem.read(self.layout.state_addr(v), 8, ready);
        let t_p = self.mem.read(self.layout.parent_addr(v), 4, ready);
        let mut now = t_v.max(t_p) + 1;
        if v == self.result.source() || self.result.parent(v) != Some(u) {
            self.counters.updates_dropped += 1;
            return (false, now);
        }
        self.counters.updates_processed += 1;

        // Witness search over in-edges.
        now = self.mem.read(self.layout.in_offset_addr(v), 16, now);
        let (in_addr, in_bytes) = self.layout.in_edge_burst(self.image, v);
        if in_bytes > 0 {
            now = self.mem.read(in_addr, in_bytes, now);
        }
        let target = self.result.state(v);
        let mut witness = None;
        for edge in self.image.in_row(v, &mut self.buf.in_scratch) {
            self.counters.computations += 1;
            now = self.mem.read(self.layout.state_addr(edge.to()), 8, now) + 1;
            // A sound witness must be strictly better than v (see the
            // soundness note on `find_witness` in cisgraph-algo): otherwise
            // it may sit inside v's own dependence subtree.
            if A::combine(self.result.state(edge.to()), edge.weight()) == target
                && A::rank(self.result.state(edge.to())) < A::rank(target)
            {
                witness = Some(edge.to());
                break;
            }
        }
        if let Some(witness) = witness {
            let t_wr = self.mem.write(self.layout.parent_addr(v), 4, now);
            self.result.set_state(v, target, Some(witness));
            return (true, t_wr);
        }

        // Tag the dependence subtree by walking parent pointers of
        // out-neighbors. The list is taken out of the buffers for the walk
        // and handed back with its capacity; the marks are cleared after it.
        let mut tagged = std::mem::take(&mut self.buf.tagged);
        let tag_mark = &mut self.buf.tag_mark;
        tagged.clear();
        tagged.push(v);
        tag_mark[v.index()] = true;
        let mut cursor_idx = 0;
        while cursor_idx < tagged.len() {
            let x = tagged[cursor_idx];
            cursor_idx += 1;
            now = self.mem.read(self.layout.offset_addr(x), 16, now);
            let (ea, eb) = self.layout.edge_burst(self.image, x);
            if eb > 0 {
                now = self.mem.read(ea, eb, now);
            }
            for edge in self.image.out_row(x) {
                let y = edge.to();
                now = self.mem.read(self.layout.parent_addr(y), 4, now) + 1;
                if self.result.parent(y) == Some(x) && !tag_mark[y.index()] {
                    tag_mark[y.index()] = true;
                    tagged.push(y);
                }
            }
            // Children hanging off deleted-but-unprocessed edges of this
            // batch (their dependence link is invisible in the image).
            for &y in self.pending.children_of(x) {
                now = self.mem.read(self.layout.parent_addr(y), 4, now) + 1;
                if self.result.parent(y) == Some(x) && !tag_mark[y.index()] {
                    tag_mark[y.index()] = true;
                    tagged.push(y);
                }
            }
        }

        for &x in &tagged {
            tag_mark[x.index()] = false;
        }

        // Reset the subtree.
        for &x in &tagged {
            self.counters.resets += 1;
            now = self.mem.write(self.layout.state_addr(x), 8, now);
            self.result.set_state(x, A::unreached(), None);
        }

        // Reseed each tagged vertex from its in-neighbors.
        for &x in &tagged {
            now = self.mem.read(self.layout.in_offset_addr(x), 16, now);
            let (ia, ib) = self.layout.in_edge_burst(self.image, x);
            if ib > 0 {
                now = self.mem.read(ia, ib, now);
            }
            let mut best = A::unreached();
            let mut best_parent = None;
            for edge in self.image.in_row(x, &mut self.buf.in_scratch) {
                self.counters.computations += 1;
                now = self.mem.read(self.layout.state_addr(edge.to()), 8, now) + 1;
                let candidate = A::combine(self.result.state(edge.to()), edge.weight());
                if A::improves(candidate, best) {
                    best = candidate;
                    best_parent = Some(edge.to());
                }
            }
            if A::improves(best, self.result.state(x)) {
                self.counters.activations += 1;
                let t_wr = self.mem.write(self.layout.state_addr(x), 8, now);
                self.mem.write(self.layout.parent_addr(x), 4, now);
                self.result.set_state(x, best, best_parent);
                self.activate(x, t_wr);
                now = t_wr;
            }
        }
        self.buf.tagged = tagged;
        let done = self.drain(now);
        (true, done)
    }
}
