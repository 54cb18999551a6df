//! Incremental computation (§II-A): converged results, delta propagation for
//! edge additions, and dependence-tagged repair for edge deletions.
//!
//! Edge additions are always safe in monotonic algorithms: a new edge can
//! only offer a better candidate. Edge deletions are the Fig. 1(b) hazard:
//! a vertex whose state was *supported* by the deleted edge must be reset
//! and re-derived, along with every vertex whose state transitively depended
//! on it, or the monotone ⊗ would never let states get worse. The repair
//! here follows the KickStarter/GraphFly recipe: tag the dependence subtree
//! via parent pointers, reset it, then re-relax from the untouched frontier.
//!
//! # Cost-bounded repair
//!
//! Repair work grows with the tagged subtree: every tagged vertex rescans its
//! in-edges and then propagates. A subtree holding most of the graph costs
//! about twice a solve from scratch. So the tag walk stops once more than a
//! quarter of the result's vertices are tagged (`FALLBACK_DIVISOR`), and the
//! result is re-solved in place instead: every state reset to unreached, the
//! source seeded, and best-first propagation over `graph`. That solve reuses
//! the result's buffers and the scratch's frontier. [`Counters`] counts it in
//! `fallback_solves`, its relaxations and activations, and one reset per
//! vertex.
//!
//! *Soundness.* `graph` is the post-batch topology, so the solve leaves the
//! batch's final states, with every parent riding an edge that survives the
//! batch. A deletion `u -> v` of the same batch processed later (preempted
//! or drained) then fails the `parent(v) == u` test, unless a parallel
//! `u -> v` edge survives, which the witness search or a further repair
//! handles. Early answers therefore stay exact.
//!
//! *Ties.* A fresh solve breaks ties between equal candidates by pop order,
//! which a repair need not match, so its parents (and with them key paths,
//! later classifications and work counts) can differ from a pure repair's.
//! States cannot.
//!
//! All propagation here is best-first through one [`Frontier`], which pops
//! in ascending `(rank, vertex id)` order and requires every push made
//! while propagating to rank at or above the last pop (see
//! [`crate::frontier`]).

use crate::{Counters, Frontier, MonotonicAlgorithm};
use cisgraph_graph::GraphView;
use cisgraph_types::{EdgeUpdate, State, VertexId};
use std::marker::PhantomData;

/// The parent slot of a vertex with no witnessing parent.
const NO_PARENT: u32 = u32::MAX;

/// A deletion repair that tags more than `num_vertices / FALLBACK_DIVISOR`
/// vertices re-solves the result instead (see the module docs).
const FALLBACK_DIVISOR: usize = 4;

/// A converged one-source result: per-vertex states plus the parent pointers
/// that witnessed them.
///
/// Parent pointers serve two roles: they let [`crate::keypath::KeyPath`]
/// extract the global key path for Algorithm 1's delayed/non-delayed split,
/// and they drive deletion repair (the dependence tree is exactly the
/// parent forest). A parent is stored as a 4-byte vertex id, as in the
/// accelerator's memory layout, with `u32::MAX` meaning "no parent".
///
/// # Examples
///
/// ```
/// use cisgraph_algo::{solver, Counters, Ppsp};
/// use cisgraph_graph::DynamicGraph;
/// use cisgraph_types::{EdgeUpdate, VertexId, Weight};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let mut g = DynamicGraph::new(2);
/// g.apply(EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(2.0)?))?;
/// let r = solver::best_first::<Ppsp, _>(&g, VertexId::new(0), &mut Counters::new());
/// assert_eq!(r.state(VertexId::new(1)).get(), 2.0);
/// assert_eq!(r.parent(VertexId::new(1)), Some(VertexId::new(0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ConvergedResult<A> {
    states: Vec<State>,
    parents: Vec<u32>,
    source: VertexId,
    _algorithm: PhantomData<A>,
}

impl<A: MonotonicAlgorithm> ConvergedResult<A> {
    /// Creates an unconverged result: every vertex unreached except the
    /// source.
    ///
    /// # Panics
    ///
    /// Panics if `source` is out of bounds.
    pub fn fresh(num_vertices: usize, source: VertexId) -> Self {
        assert!(
            source.index() < num_vertices,
            "source {source} out of bounds"
        );
        let mut states = vec![A::unreached(); num_vertices];
        states[source.index()] = A::source_state();
        Self {
            states,
            parents: vec![NO_PARENT; num_vertices],
            source,
            _algorithm: PhantomData,
        }
    }

    /// The query source this result converged from.
    #[inline]
    pub fn source(&self) -> VertexId {
        self.source
    }

    /// Number of vertices covered.
    #[inline]
    pub fn num_vertices(&self) -> usize {
        self.states.len()
    }

    /// The converged state of `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn state(&self, v: VertexId) -> State {
        self.states[v.index()]
    }

    /// The parent that witnessed `v`'s state, if any.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn parent(&self, v: VertexId) -> Option<VertexId> {
        let raw = self.parents[v.index()];
        (raw != NO_PARENT).then(|| VertexId::new(raw))
    }

    /// Whether `v` has been reached from the source.
    #[inline]
    pub fn is_reached(&self, v: VertexId) -> bool {
        self.states[v.index()] != A::unreached()
    }

    /// Raw state slice (used by the accelerator model to lay states out in
    /// simulated memory).
    #[inline]
    pub fn states(&self) -> &[State] {
        &self.states
    }

    pub(crate) fn set(&mut self, v: VertexId, state: State, parent: Option<VertexId>) {
        debug_assert_ne!(parent, Some(VertexId::new(NO_PARENT)), "reserved id");
        self.states[v.index()] = state;
        self.parents[v.index()] = parent.map_or(NO_PARENT, VertexId::raw);
    }

    /// Installs a state and its witnessing parent directly.
    ///
    /// Engines and the accelerator model use this to drive their own
    /// propagation loops; the caller is responsible for keeping the parent
    /// a genuine witness (`⊕(state(parent), w) == state`) or deletion repair
    /// may over- or under-tag.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of bounds.
    #[inline]
    pub fn set_state(&mut self, v: VertexId, state: State, parent: Option<VertexId>) {
        self.set(v, state, parent);
    }

    /// Grows the result to cover `num_vertices`, initializing new vertices
    /// as unreached. No-op if already large enough.
    pub fn grow(&mut self, num_vertices: usize) {
        if num_vertices > self.states.len() {
            self.states.resize(num_vertices, A::unreached());
            self.parents.resize(num_vertices, NO_PARENT);
        }
    }
}

/// Best-first propagation from whatever is already on `frontier`, relaxing
/// out-edges until the frontier drains. Shared by the static solver and the
/// incremental paths. Each push ranks at or above the pop that caused it
/// ([`MonotonicAlgorithm`] property 1), as the frontier requires.
pub(crate) fn propagate<A: MonotonicAlgorithm, G: GraphView>(
    graph: &G,
    result: &mut ConvergedResult<A>,
    frontier: &mut Frontier,
    counters: &mut Counters,
) {
    while let Some((rank, u)) = frontier.pop() {
        if rank != A::rank(result.state(u)) {
            continue; // stale entry
        }
        let u_state = result.state(u);
        for edge in graph.out_edges(u) {
            counters.computations += 1;
            let candidate = A::combine(u_state, edge.weight());
            let v = edge.to();
            if A::improves(candidate, result.state(v)) {
                result.set(v, candidate, Some(u));
                counters.activations += 1;
                frontier.push(A::rank(candidate), v);
            }
        }
    }
}

/// Applies a slice of edge *additions* incrementally.
///
/// `graph` must reflect the post-addition topology (the engine applies
/// updates to the graph before propagating, as the accelerator does when it
/// "modifies graph topology ... to generate a snapshot").
///
/// Each addition `u --w--> v` seeds the frontier iff its candidate improves
/// `v`; propagation then runs to convergence. Returns the number of
/// additions that actually changed a state (the *valuable* ones, in the
/// paper's vocabulary).
///
/// # Panics
///
/// Panics if an update references a vertex outside `result`.
pub fn apply_additions<A: MonotonicAlgorithm, G: GraphView>(
    graph: &G,
    result: &mut ConvergedResult<A>,
    additions: &[EdgeUpdate],
    counters: &mut Counters,
) -> usize {
    apply_additions_with(
        graph,
        result,
        additions,
        &mut RepairScratch::new(),
        counters,
    )
}

/// [`apply_additions`] propagating through `scratch`'s frontier; reuse one
/// scratch across calls to keep propagation allocation-free.
///
/// # Panics
///
/// Panics if an update references a vertex outside `result`.
pub fn apply_additions_with<A: MonotonicAlgorithm, G: GraphView>(
    graph: &G,
    result: &mut ConvergedResult<A>,
    additions: &[EdgeUpdate],
    scratch: &mut RepairScratch,
    counters: &mut Counters,
) -> usize {
    let frontier = &mut scratch.frontier;
    let mut valuable = 0;
    for add in additions {
        debug_assert!(add.kind().is_insert());
        counters.computations += 1;
        let candidate = A::combine(result.state(add.src()), add.weight());
        if A::improves(candidate, result.state(add.dst())) {
            result.set(add.dst(), candidate, Some(add.src()));
            counters.activations += 1;
            frontier.push(A::rank(candidate), add.dst());
            valuable += 1;
            counters.updates_processed += 1;
        } else {
            counters.updates_dropped += 1;
        }
    }
    propagate(graph, result, frontier, counters);
    valuable
}

/// The dependence links of a batch's deletions, shared across the batch.
///
/// A vertex's parent link may ride an edge that was deleted in the current
/// batch but whose deletion has not been *processed* yet. Such links are
/// invisible to a topology walk (the edge is gone from the snapshot), yet
/// the child still transitively depends on the parent — so deletion-repair
/// tagging must treat them as children too, or stale subtrees survive
/// resets and can even weave parent cycles.
///
/// Build it once per batch from every deletion of the batch; links are
/// checked against the live parent pointers at tagging time, so stale
/// entries are harmless. The links are one flat array sorted stably by
/// source, so a vertex's children come back in batch order.
///
/// # Examples
///
/// ```
/// use cisgraph_algo::incremental::PendingDeletions;
/// use cisgraph_types::{EdgeUpdate, VertexId, Weight};
///
/// # fn main() -> Result<(), cisgraph_types::TypeError> {
/// let batch = [EdgeUpdate::delete(VertexId::new(0), VertexId::new(1), Weight::new(1.0)?)];
/// let pending = PendingDeletions::from_batch(batch.iter().copied());
/// assert_eq!(pending.children_of(VertexId::new(0)), &[VertexId::new(1)]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Default)]
pub struct PendingDeletions {
    /// Sources of the batch's deletions, ascending; equal sources keep
    /// batch order.
    srcs: Vec<VertexId>,
    /// `dsts[i]` is the target of the deletion whose source is `srcs[i]`.
    dsts: Vec<VertexId>,
}

impl PendingDeletions {
    /// No pending deletions (single-deletion convenience).
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers every deletion in an update stream (insertions are
    /// ignored).
    pub fn from_batch(updates: impl IntoIterator<Item = EdgeUpdate>) -> Self {
        let mut links: Vec<(VertexId, VertexId)> = updates
            .into_iter()
            .filter(|u| u.kind().is_delete())
            .map(|u| (u.src(), u.dst()))
            .collect();
        // Stable, so each source's children stay in batch order.
        links.sort_by_key(|&(src, _)| src);
        let (srcs, dsts) = links.into_iter().unzip();
        Self { srcs, dsts }
    }

    /// Potential dependence children of `x` through deleted edges, in batch
    /// order.
    pub fn children_of(&self, x: VertexId) -> &[VertexId] {
        let lo = self.srcs.partition_point(|&s| s < x);
        let len = self.srcs[lo..].iter().take_while(|&&s| s == x).count();
        &self.dsts[lo..lo + len]
    }
}

/// Reusable working memory for deletion repair and addition propagation:
/// tag marks, the tagged list, and the frontier. Callers own one per worker
/// (or engine) and reuse it across updates and batches, so propagation
/// allocates nothing once the buffers have grown. Marks are epoch-stamped
/// (`marks[v] == epoch` means tagged in the current repair), so starting a
/// repair bumps the epoch instead of clearing. A reused scratch gives the
/// same states, parents, and [`Counters`] as a fresh one (property-tested).
///
/// Workers keep their scratches side by side in one array and push and pop
/// the `Vec` headers inside constantly, so each scratch gets cache lines of
/// its own (128 bytes covers adjacent-line prefetch); without that, two
/// workers' repairs false-share and run at one core's speed.
#[derive(Debug, Clone, Default)]
#[repr(align(128))]
pub struct RepairScratch {
    marks: Vec<u32>,
    epoch: u32,
    tagged: Vec<VertexId>,
    frontier: Frontier,
}

impl RepairScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a repair over `num_vertices` vertices with nothing tagged.
    /// Fresh marks are 0, which no live epoch equals; when the epoch wraps,
    /// old stamps could collide with new epochs, so they are cleared.
    fn begin(&mut self, num_vertices: usize) {
        self.marks.resize(self.marks.len().max(num_vertices), 0);
        self.epoch = self.epoch.wrapping_add(1);
        if self.epoch == 0 {
            self.marks.fill(0);
            self.epoch = 1;
        }
        self.tagged.clear();
    }

    /// Tags `v` unless it already is.
    fn tag(&mut self, v: VertexId) {
        if std::mem::replace(&mut self.marks[v.index()], self.epoch) != self.epoch {
            self.tagged.push(v);
        }
    }
}

/// The repair core of [`apply_deletion_with`]: closes the roots tagged in
/// `scratch` over the dependence forest, resets the closure, reseeds each
/// tagged vertex from its in-neighbors, and re-converges. Once more than
/// `limit` vertices are tagged, the walk stops and the result is re-solved
/// in place instead (see the [module docs](self)).
fn repair_tagged<A: MonotonicAlgorithm, G: GraphView>(
    graph: &G,
    result: &mut ConvergedResult<A>,
    pending: &PendingDeletions,
    scratch: &mut RepairScratch,
    limit: usize,
    counters: &mut Counters,
) {
    // Tag every vertex whose parent chain reaches a root. Parent pointers
    // define the tree; children are found among out-neighbors plus the
    // pending deleted-edge links.
    let mut cursor = 0;
    while let Some(&x) = scratch.tagged.get(cursor) {
        if scratch.tagged.len() > limit {
            solve_in_place(graph, result, &mut scratch.frontier, counters);
            return;
        }
        cursor += 1;
        let out = graph.out_edges(x).iter().map(|e| e.to());
        for y in out.chain(pending.children_of(x).iter().copied()) {
            if result.parent(y) == Some(x) {
                scratch.tag(y);
            }
        }
    }

    for &x in &scratch.tagged {
        result.set(x, A::unreached(), None);
    }
    counters.resets += scratch.tagged.len() as u64;

    // Re-seed each tagged vertex from its (now possibly untagged)
    // in-neighbors and re-converge.
    for &x in &scratch.tagged {
        let mut best = A::unreached();
        let mut best_parent = None;
        for edge in graph.in_edges(x) {
            counters.computations += 1;
            let candidate = A::combine(result.state(edge.to()), edge.weight());
            if A::improves(candidate, best) {
                best = candidate;
                best_parent = Some(edge.to());
            }
        }
        if A::improves(best, result.state(x)) {
            result.set(x, best, best_parent);
            counters.activations += 1;
            scratch.frontier.push(A::rank(best), x);
        }
    }
    propagate(graph, result, &mut scratch.frontier, counters);
}

/// Re-solves `result` from its source over `graph`, reusing its buffers and
/// `frontier`: the repair fallback. Pops in the same order as
/// [`crate::solver::best_first`], so it leaves the same states and parents.
fn solve_in_place<A: MonotonicAlgorithm, G: GraphView>(
    graph: &G,
    result: &mut ConvergedResult<A>,
    frontier: &mut Frontier,
    counters: &mut Counters,
) {
    result.states.fill(A::unreached());
    result.parents.fill(NO_PARENT);
    let source = result.source;
    result.states[source.index()] = A::source_state();
    counters.resets += result.num_vertices() as u64;
    counters.fallback_solves += 1;
    frontier.push(A::rank(A::source_state()), source);
    propagate(graph, result, frontier, counters);
}

/// Applies one edge *deletion* incrementally, with the batch's pending
/// dependence links.
///
/// `graph` must reflect the post-deletion topology. Repair runs iff `v`'s
/// current witness is `u` (`parent(v) == u`): only then can `v`'s state
/// depend on the deleted edge. A state-equality test
/// (`⊕(state[u], w) == state[v]`) is **not** sound here — if an earlier
/// update in the same batch already improved `u`, the equality breaks while
/// `v` still dangles off the deleted edge. Classification (Algorithm 1)
/// still uses the paper's state test, which provably flags every deletion
/// whose parent check can fire, because parents only ever change through
/// edges present in the post-batch topology.
///
/// A repair that would reset more than a quarter of `result` re-solves it
/// from the source instead; the [module docs](self) give the bound and why
/// it keeps answers exact.
///
/// `scratch` is working memory only; reuse one across calls to keep repair
/// allocation-free.
///
/// Returns `true` when a repair ran. The parent test is conservative under
/// parallel edges (the parent records a vertex, not an edge), so a repair
/// may run and conclude with an intact witness — correct, merely extra
/// work.
///
/// # Panics
///
/// Panics if the update references a vertex outside `result`.
pub fn apply_deletion_with<A: MonotonicAlgorithm, G: GraphView>(
    graph: &G,
    result: &mut ConvergedResult<A>,
    deletion: EdgeUpdate,
    pending: &PendingDeletions,
    scratch: &mut RepairScratch,
    counters: &mut Counters,
) -> bool {
    let limit = result.num_vertices() / FALLBACK_DIVISOR;
    apply_deletion_limited(graph, result, deletion, pending, scratch, limit, counters)
}

/// [`apply_deletion_with`] with the repair's tag `limit` given: past it the
/// result is re-solved in place. Tests drive both extremes through it.
fn apply_deletion_limited<A: MonotonicAlgorithm, G: GraphView>(
    graph: &G,
    result: &mut ConvergedResult<A>,
    deletion: EdgeUpdate,
    pending: &PendingDeletions,
    scratch: &mut RepairScratch,
    limit: usize,
    counters: &mut Counters,
) -> bool {
    debug_assert!(deletion.kind().is_delete());
    let (u, v) = (deletion.src(), deletion.dst());
    counters.computations += 1;
    if v == result.source() || result.parent(v) != Some(u) {
        counters.updates_dropped += 1;
        return false;
    }
    counters.updates_processed += 1;

    // If another in-edge still witnesses the same state, only the parent
    // pointer needs fixing — the dependence subtree is intact.
    if let Some(witness) = find_witness(graph, result, v, counters) {
        result.set(v, result.state(v), Some(witness));
        return true;
    }

    scratch.begin(result.num_vertices());
    scratch.tag(v);
    repair_tagged(graph, result, pending, scratch, limit, counters);
    true
}

/// Applies one edge deletion with no other deletions pending in the batch.
///
/// Convenience wrapper over [`apply_deletion_with`] with a one-off
/// [`RepairScratch`]; see it for semantics. Only safe as-is when this is
/// the batch's sole deletion — otherwise pass the shared
/// [`PendingDeletions`].
pub fn apply_deletion<A: MonotonicAlgorithm, G: GraphView>(
    graph: &G,
    result: &mut ConvergedResult<A>,
    deletion: EdgeUpdate,
    counters: &mut Counters,
) -> bool {
    apply_deletion_with(
        graph,
        result,
        deletion,
        &PendingDeletions::new(),
        &mut RepairScratch::new(),
        counters,
    )
}

/// Finds an in-neighbor of `v` (other than via the deleted edge, which is
/// already gone from `graph`) that still witnesses `v`'s current state.
///
/// Soundness: the witness's own state must be *strictly better* than `v`'s.
/// Parent chains never improve rank, so every vertex in `v`'s dependence
/// subtree has rank `>= rank(state(v))`; requiring a strictly better witness
/// guarantees it lies outside the subtree and its state does not itself
/// depend on the deleted edge. Equality-propagating algorithms (Reach, and
/// Viterbi across weight-1 edges) therefore never take this shortcut and
/// fall through to the full tag-and-reseed repair.
fn find_witness<A: MonotonicAlgorithm, G: GraphView>(
    graph: &G,
    result: &ConvergedResult<A>,
    v: VertexId,
    counters: &mut Counters,
) -> Option<VertexId> {
    let target = result.state(v);
    for edge in graph.in_edges(v) {
        counters.computations += 1;
        let u = edge.to();
        if A::combine(result.state(u), edge.weight()) == target
            && A::rank(result.state(u)) < A::rank(target)
        {
            return Some(u);
        }
    }
    None
}

/// Applies a mixed batch in the paper's order: all additions first, then
/// deletions one at a time. `graph` must reflect the post-batch topology.
///
/// This is the *contribution-unaware* incremental baseline (every update is
/// examined in arrival order); the contribution-aware engines in
/// `cisgraph-engines` reuse [`apply_additions`] / [`apply_deletion`] under
/// Algorithm 1's schedule instead.
pub fn apply_batch<A: MonotonicAlgorithm, G: GraphView>(
    graph: &G,
    result: &mut ConvergedResult<A>,
    batch: &[EdgeUpdate],
    counters: &mut Counters,
) {
    let additions: Vec<EdgeUpdate> = batch
        .iter()
        .copied()
        .filter(|u| u.kind().is_insert())
        .collect();
    let mut scratch = RepairScratch::new();
    apply_additions_with(graph, result, &additions, &mut scratch, counters);
    let pending = PendingDeletions::from_batch(batch.iter().copied());
    for update in batch.iter().filter(|u| u.kind().is_delete()) {
        apply_deletion_with(graph, result, *update, &pending, &mut scratch, counters);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::best_first;
    use crate::{Ppnp, Ppsp, Ppwp, Reach, Viterbi};
    use cisgraph_datasets::{erdos_renyi, weights::WeightDistribution, StreamConfig};
    use cisgraph_graph::DynamicGraph;
    use cisgraph_types::Weight;
    use proptest::prelude::*;

    fn w(x: f64) -> Weight {
        Weight::new(x).unwrap()
    }

    fn v(x: u32) -> VertexId {
        VertexId::new(x)
    }

    /// The Fig. 1(b) graph: deleting v0->v3 must re-route v4 through the
    /// longer path and *increase* its state from 5 to 9.
    fn fig1b_graph() -> DynamicGraph {
        let mut g = DynamicGraph::new(6);
        // v0 -> v3 (2), v3 -> v4 (3)  => short path v0-v3-v4 = 5
        // v0 -> v1 (4), v1 -> v2 (2), v2 -> v4 (3) => long path = 9
        g.insert_edge(v(0), v(3), w(2.0)).unwrap();
        g.insert_edge(v(3), v(4), w(3.0)).unwrap();
        g.insert_edge(v(0), v(1), w(4.0)).unwrap();
        g.insert_edge(v(1), v(2), w(2.0)).unwrap();
        g.insert_edge(v(2), v(4), w(3.0)).unwrap();
        g
    }

    #[test]
    fn fig1b_deletion_increases_state_correctly() {
        let mut g = fig1b_graph();
        let mut c = Counters::new();
        let mut r = best_first::<Ppsp, _>(&g, v(0), &mut c);
        assert_eq!(r.state(v(4)).get(), 5.0);

        let del = EdgeUpdate::delete(v(0), v(3), w(2.0));
        g.apply(del).unwrap();
        let repaired = apply_deletion(&g, &mut r, del, &mut c);
        assert!(repaired);
        assert_eq!(r.state(v(3)), State::POS_INF, "v3 is unreachable now");
        assert_eq!(
            r.state(v(4)).get(),
            9.0,
            "v4 re-routes through the long path"
        );
    }

    #[test]
    fn pending_children_come_back_in_batch_order() {
        let d = |a, b| EdgeUpdate::delete(v(a), v(b), w(1.0));
        let ins = EdgeUpdate::insert(v(5), v(1), w(1.0));
        let batch = [d(5, 9), d(2, 7), ins, d(5, 3), d(2, 4), d(5, 8)];
        let pending = PendingDeletions::from_batch(batch);
        assert_eq!(pending.children_of(v(5)), &[v(9), v(3), v(8)]);
        assert_eq!(pending.children_of(v(2)), &[v(7), v(4)]);
        for x in [0, 6, 99] {
            assert!(pending.children_of(v(x)).is_empty());
        }
    }

    /// A wrapping epoch must clear stale stamps: these marks carry epoch 1,
    /// the first epoch after the wrap, so without the clear every vertex
    /// would already look tagged.
    #[test]
    fn repair_scratch_survives_epoch_wrap() {
        let mut g = fig1b_graph();
        let converged = best_first::<Ppsp, _>(&g, v(0), &mut Counters::new());
        let del = EdgeUpdate::delete(v(0), v(3), w(2.0));
        g.apply(del).unwrap();
        let pending = PendingDeletions::new();
        let run = |scratch: &mut RepairScratch| {
            let (mut r, mut c) = (converged.clone(), Counters::new());
            assert!(apply_deletion_with(
                &g, &mut r, del, &pending, scratch, &mut c
            ));
            (r, c)
        };
        let expected = run(&mut RepairScratch::new());
        let mut scratch = RepairScratch::new();
        scratch.marks = vec![1; 6];
        scratch.epoch = u32::MAX - 1;
        for round in 0..4 {
            assert_eq!(run(&mut scratch), expected, "round {round}");
        }
        assert_eq!(scratch.epoch, 3, "wrapped past u32::MAX to 1, then on");
    }

    #[test]
    fn addition_improves_and_propagates() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(v(0), v(1), w(10.0)).unwrap();
        g.insert_edge(v(1), v(2), w(1.0)).unwrap();
        let mut c = Counters::new();
        let mut r = best_first::<Ppsp, _>(&g, v(0), &mut c);
        assert_eq!(r.state(v(2)).get(), 11.0);

        let add = EdgeUpdate::insert(v(0), v(1), w(2.0));
        g.apply(add).unwrap();
        let valuable = apply_additions(&g, &mut r, &[add], &mut c);
        assert_eq!(valuable, 1);
        assert_eq!(r.state(v(1)).get(), 2.0);
        assert_eq!(r.state(v(2)).get(), 3.0, "improvement propagates");
    }

    #[test]
    fn useless_addition_is_dropped() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        let mut c = Counters::new();
        let mut r = best_first::<Ppsp, _>(&g, v(0), &mut c);

        let add = EdgeUpdate::insert(v(0), v(1), w(5.0));
        g.apply(add).unwrap();
        let before = c.activations;
        let valuable = apply_additions(&g, &mut r, &[add], &mut c);
        assert_eq!(valuable, 0);
        assert_eq!(c.activations, before);
        assert_eq!(c.updates_dropped, 1);
        assert_eq!(r.state(v(1)).get(), 1.0);
    }

    #[test]
    fn deletion_of_parallel_edge_keeps_state() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(0), v(1), w(5.0)).unwrap(); // parallel, not supporting
        let mut c = Counters::new();
        let mut r = best_first::<Ppsp, _>(&g, v(0), &mut c);

        // The parent records only the vertex, so deleting the parallel edge
        // conservatively triggers a repair — which must conclude that the
        // surviving edge still witnesses the state.
        let del = EdgeUpdate::delete(v(0), v(1), w(5.0));
        g.apply(del).unwrap();
        apply_deletion(&g, &mut r, del, &mut c);
        assert_eq!(r.state(v(1)).get(), 1.0);
        assert_eq!(r.parent(v(1)), Some(v(0)));
    }

    #[test]
    fn deletion_of_truly_non_witness_edge_is_noop() {
        // v1's witness is v2, so deleting v0 -> v1 (which happens to be
        // state-supporting by coincidence is impossible here: weight 9) is
        // skipped by the parent check.
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(2), w(1.0)).unwrap();
        g.insert_edge(v(2), v(1), w(1.0)).unwrap();
        g.insert_edge(v(0), v(1), w(9.0)).unwrap();
        let mut c = Counters::new();
        let mut r = best_first::<Ppsp, _>(&g, v(0), &mut c);
        assert_eq!(r.parent(v(1)), Some(v(2)));

        let del = EdgeUpdate::delete(v(0), v(1), w(9.0));
        g.apply(del).unwrap();
        assert!(!apply_deletion(&g, &mut r, del, &mut c));
        assert_eq!(r.state(v(1)).get(), 2.0);
    }

    #[test]
    fn deletion_with_alternative_witness_keeps_state() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(v(0), v(1), w(2.0)).unwrap();
        g.insert_edge(v(0), v(2), w(1.0)).unwrap();
        g.insert_edge(v(2), v(1), w(1.0)).unwrap(); // also yields 2
        let mut c = Counters::new();
        let mut r = best_first::<Ppsp, _>(&g, v(0), &mut c);
        assert_eq!(r.state(v(1)).get(), 2.0);

        // Whichever edge currently witnesses v1, delete the direct one.
        let del = EdgeUpdate::delete(v(0), v(1), w(2.0));
        g.apply(del).unwrap();
        apply_deletion(&g, &mut r, del, &mut c);
        assert_eq!(
            r.state(v(1)).get(),
            2.0,
            "alternative path has the same length"
        );
        assert_eq!(r.parent(v(1)), Some(v(2)));
    }

    #[test]
    fn deletion_targeting_source_is_ignored() {
        let mut g = DynamicGraph::new(2);
        g.insert_edge(v(1), v(0), w(1.0)).unwrap();
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        let mut c = Counters::new();
        let mut r = best_first::<Ppsp, _>(&g, v(0), &mut c);

        let del = EdgeUpdate::delete(v(1), v(0), w(1.0));
        g.apply(del).unwrap();
        assert!(!apply_deletion(&g, &mut r, del, &mut c));
        assert_eq!(r.state(v(0)), State::ZERO);
    }

    #[test]
    fn batch_matches_full_recompute() {
        let mut g = DynamicGraph::new(5);
        for (a, b, wt) in [
            (0, 1, 2.0),
            (1, 2, 2.0),
            (0, 3, 1.0),
            (3, 4, 5.0),
            (2, 4, 1.0),
        ] {
            g.insert_edge(v(a), v(b), w(wt)).unwrap();
        }
        let mut c = Counters::new();
        let mut r = best_first::<Ppsp, _>(&g, v(0), &mut c);

        let batch = [
            EdgeUpdate::insert(v(3), v(2), w(1.0)),
            EdgeUpdate::delete(v(0), v(1), w(2.0)),
        ];
        g.apply_batch(&batch).unwrap();
        apply_batch(&g, &mut r, &batch, &mut c);

        let fresh = best_first::<Ppsp, _>(&g, v(0), &mut Counters::new());
        for i in 0..5 {
            assert_eq!(r.state(v(i)), fresh.state(v(i)), "vertex v{i} diverged");
        }
    }

    #[test]
    fn reach_deletion_unreaches_subtree() {
        let mut g = DynamicGraph::new(4);
        g.insert_edge(v(0), v(1), w(1.0)).unwrap();
        g.insert_edge(v(1), v(2), w(1.0)).unwrap();
        g.insert_edge(v(2), v(3), w(1.0)).unwrap();
        let mut c = Counters::new();
        let mut r = best_first::<Reach, _>(&g, v(0), &mut c);
        assert!(r.is_reached(v(3)));

        let del = EdgeUpdate::delete(v(0), v(1), w(1.0));
        g.apply(del).unwrap();
        apply_deletion(&g, &mut r, del, &mut c);
        assert!(!r.is_reached(v(1)));
        assert!(!r.is_reached(v(2)));
        assert!(!r.is_reached(v(3)));
        assert!(c.resets >= 3);
    }

    /// Streams random batches (additions, then deletions of live edges)
    /// through [`apply_additions_with`] and [`apply_deletion_limited`] at
    /// tag `limit`, one scratch throughout. After every batch the states
    /// must equal a cold solve, and every parent must be a genuine witness:
    /// only reached vertices have one, it witnesses the state over a
    /// surviving edge, and the parent chain leads to the source. Returns
    /// the stream's summed counters.
    fn stream_at_limit<A: MonotonicAlgorithm>(
        seed: u64,
        n: usize,
        limit: usize,
    ) -> Result<Counters, TestCaseError> {
        let edges = erdos_renyi::generate(n, 4 * n, WeightDistribution::paper_default(), seed);
        let mut stream = StreamConfig::paper_default()
            .with_batch_size(n / 4, n / 2)
            .build(edges, seed + 1);
        let mut g = DynamicGraph::from_edges(n, stream.initial_edges().iter().copied());
        let source = VertexId::from_index(seed as usize % n);
        let mut r = best_first::<A, _>(&g, source, &mut Counters::new());
        let mut scratch = RepairScratch::new();
        let mut total = Counters::new();
        for round in 0.. {
            let Some(batch) = stream.next_batch() else {
                break;
            };
            g.apply_batch(&batch).unwrap();
            let (adds, dels): (Vec<_>, Vec<_>) = batch.iter().partition(|u| u.kind().is_insert());
            apply_additions_with(&g, &mut r, &adds, &mut scratch, &mut total);
            let pending = PendingDeletions::from_batch(dels.iter().copied());
            for &del in &dels {
                apply_deletion_limited(&g, &mut r, del, &pending, &mut scratch, limit, &mut total);
            }
            let cold = best_first::<A, _>(&g, source, &mut Counters::new());
            let context = format!("{} seed {seed} n {n} limit {limit} round {round}", A::NAME);
            prop_assert_eq!(r.states(), cold.states(), "{}", context);
            for i in 0..n {
                let x = VertexId::from_index(i);
                let genuine = match r.parent(x) {
                    None => x == source || !r.is_reached(x),
                    Some(p) => {
                        let chain = std::iter::successors(Some(x), |&y| r.parent(y));
                        r.is_reached(x)
                            && g.out_edges(p).iter().any(|e| {
                                e.to() == x && A::combine(r.state(p), e.weight()) == r.state(x)
                            })
                            && chain.take(n + 1).last() == Some(source)
                    }
                };
                prop_assert!(genuine, "v{} has no genuine witness, {}", i, context);
            }
        }
        Ok(total)
    }

    /// [`stream_at_limit`] for all five algorithms.
    fn streams_at_limit(seed: u64, n: usize, limit: usize) -> Result<[Counters; 5], TestCaseError> {
        Ok([
            stream_at_limit::<Ppsp>(seed, n, limit)?,
            stream_at_limit::<Ppwp>(seed, n, limit)?,
            stream_at_limit::<Ppnp>(seed, n, limit)?,
            stream_at_limit::<Viterbi>(seed, n, limit)?,
            stream_at_limit::<Reach>(seed, n, limit)?,
        ])
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Limit 0: every repair that reaches the tag walk re-solves in
        /// place, so each reset is one whole solve's.
        #[test]
        fn every_repair_falling_back_stays_exact(seed in 0u64..1 << 32, n in 8usize..48) {
            for c in streams_at_limit(seed, n, 0)? {
                prop_assert_eq!(c.resets, c.fallback_solves * n as u64);
            }
        }

        /// No limit: the pure dependence-tagged repair never falls back.
        #[test]
        fn unbounded_repair_stays_exact(seed in 0u64..1 << 32, n in 8usize..48) {
            for c in streams_at_limit(seed, n, usize::MAX)? {
                prop_assert_eq!(c.fallback_solves, 0);
            }
        }
    }

    /// Streams at limit 0 do fall back, so the property above is not
    /// vacuous.
    #[test]
    fn limit_zero_falls_back() {
        let fallbacks: u64 = (0..4)
            .flat_map(|seed| streams_at_limit(seed, 32, 0).unwrap())
            .map(|c| c.fallback_solves)
            .sum();
        assert!(fallbacks > 0);
    }

    #[test]
    fn fresh_result_has_source_seeded() {
        let r = ConvergedResult::<Ppsp>::fresh(3, v(1));
        assert_eq!(r.state(v(1)), State::ZERO);
        assert_eq!(r.state(v(0)), State::POS_INF);
        assert_eq!(r.source(), v(1));
        assert!(r.is_reached(v(1)));
        assert!(!r.is_reached(v(0)));
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn fresh_rejects_oob_source() {
        let _ = ConvergedResult::<Ppsp>::fresh(2, v(5));
    }

    #[test]
    fn grow_preserves_states() {
        let mut r = ConvergedResult::<Ppsp>::fresh(2, v(0));
        r.grow(5);
        assert_eq!(r.num_vertices(), 5);
        assert_eq!(r.state(v(0)), State::ZERO);
        assert_eq!(r.state(v(4)), State::POS_INF);
        r.grow(3); // shrink is a no-op
        assert_eq!(r.num_vertices(), 5);
    }
}
