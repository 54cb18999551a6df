//! Simulated physical memory layout of the graph image.
//!
//! The accelerator works on the CSR image laid out in DRAM:
//!
//! ```text
//! state_base      : f64 state per vertex            (8 B each)
//! parent_base     : u32 parent pointer per vertex   (4 B each)
//! offset_base     : u64 CSR offset per vertex + 1   (8 B each)
//! edge_base       : (u32 id, f64 w) per out-edge    (16 B each)
//! in_offset_base  : transpose offsets               (8 B each)
//! in_edge_base    : transpose edges                 (16 B each)
//! ```
//!
//! Addresses feed the [`cisgraph_sim::MemorySystem`], so channel
//! interleaving, row locality, and SPM set conflicts all emerge from this
//! layout, as they would in the real device.

use crate::CsrImage;
use cisgraph_types::VertexId;
use serde::{Deserialize, Serialize};

/// Byte size of one vertex state.
pub const STATE_BYTES: u64 = 8;
/// Byte size of one parent pointer.
pub const PARENT_BYTES: u64 = 4;
/// Byte size of one CSR offset entry.
pub const OFFSET_BYTES: u64 = 8;
/// Byte size of one CSR edge entry (neighbor id + weight).
pub const EDGE_BYTES: u64 = 16;

/// Base addresses of the graph image in simulated DRAM.
///
/// # Examples
///
/// ```
/// use cisgraph_core::MemoryLayout;
///
/// let layout = MemoryLayout::for_sizes(100, 400, 400);
/// let a0 = layout.state_addr(cisgraph_types::VertexId::new(0));
/// let a1 = layout.state_addr(cisgraph_types::VertexId::new(1));
/// assert_eq!(a1 - a0, 8);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemoryLayout {
    /// Base of the state array.
    pub state_base: u64,
    /// Base of the parent-pointer array.
    pub parent_base: u64,
    /// Base of the forward CSR offsets.
    pub offset_base: u64,
    /// Base of the forward CSR edges.
    pub edge_base: u64,
    /// Base of the transpose CSR offsets.
    pub in_offset_base: u64,
    /// Base of the transpose CSR edges.
    pub in_edge_base: u64,
    /// Total size of the graph image in bytes.
    pub image_bytes: u64,
}

impl MemoryLayout {
    /// Lays out a graph image for the given sizes, region-aligned to 4 KiB.
    pub fn for_sizes(num_vertices: usize, num_edges: usize, num_in_edges: usize) -> Self {
        const ALIGN: u64 = 4096;
        let align = |x: u64| x.div_ceil(ALIGN) * ALIGN;
        let n = num_vertices as u64;
        let state_base = 0;
        let parent_base = align(state_base + n * STATE_BYTES);
        let offset_base = align(parent_base + n * PARENT_BYTES);
        let edge_base = align(offset_base + (n + 1) * OFFSET_BYTES);
        let in_offset_base = align(edge_base + num_edges as u64 * EDGE_BYTES);
        let in_edge_base = align(in_offset_base + (n + 1) * OFFSET_BYTES);
        let image_bytes = in_edge_base + num_in_edges as u64 * EDGE_BYTES;
        Self {
            state_base,
            parent_base,
            offset_base,
            edge_base,
            in_offset_base,
            in_edge_base,
            image_bytes,
        }
    }

    /// Lays out a graph image.
    pub fn for_image<G: CsrImage>(image: &G) -> Self {
        let n = image.num_vertices();
        Self::for_sizes(
            n,
            image.out_offsets()[n] as usize,
            image.in_offsets()[n] as usize,
        )
    }

    /// Relocates the state and parent arrays for query group `group`,
    /// leaving the CSR regions shared.
    ///
    /// The multi-query accelerator keeps one graph image but a distinct
    /// state/parent array per standing query; group 0 uses the base layout,
    /// group `k > 0` places its arrays after the image. Shared CSR regions
    /// are what make an additional standing query cheaper than a separate
    /// accelerator: its edge-list bursts hit lines the other queries
    /// already pulled into the scratchpad.
    #[must_use]
    pub fn for_group(&self, group: usize, num_vertices: usize) -> MemoryLayout {
        const ALIGN: u64 = 4096;
        let align = |x: u64| x.div_ceil(ALIGN) * ALIGN;
        if group == 0 {
            return *self;
        }
        let n = num_vertices as u64;
        let state_bytes = align(n * STATE_BYTES);
        let parent_bytes = align(n * PARENT_BYTES);
        let region = state_bytes + parent_bytes;
        let base = align(self.image_bytes) + (group as u64 - 1) * region;
        MemoryLayout {
            state_base: base,
            parent_base: base + state_bytes,
            ..*self
        }
    }

    /// Address of `v`'s state.
    #[inline]
    pub fn state_addr(&self, v: VertexId) -> u64 {
        self.state_base + v.raw() as u64 * STATE_BYTES
    }

    /// Address of `v`'s parent pointer.
    #[inline]
    pub fn parent_addr(&self, v: VertexId) -> u64 {
        self.parent_base + v.raw() as u64 * PARENT_BYTES
    }

    /// Address of `v`'s forward CSR offset entry (reading 16 bytes there
    /// covers `offsets[v]` and `offsets[v+1]`).
    #[inline]
    pub fn offset_addr(&self, v: VertexId) -> u64 {
        self.offset_base + v.raw() as u64 * OFFSET_BYTES
    }

    /// Address and length of `v`'s forward edge list in `image`.
    #[inline]
    pub fn edge_burst<G: CsrImage>(&self, image: &G, v: VertexId) -> (u64, u64) {
        let lo = image.out_offsets()[v.index()];
        let hi = image.out_offsets()[v.index() + 1];
        (self.edge_base + lo * EDGE_BYTES, (hi - lo) * EDGE_BYTES)
    }

    /// Address of `v`'s transpose CSR offset entry.
    #[inline]
    pub fn in_offset_addr(&self, v: VertexId) -> u64 {
        self.in_offset_base + v.raw() as u64 * OFFSET_BYTES
    }

    /// Address and length of `v`'s transpose edge list in `image`.
    #[inline]
    pub fn in_edge_burst<G: CsrImage>(&self, image: &G, v: VertexId) -> (u64, u64) {
        let lo = image.in_offsets()[v.index()];
        let hi = image.in_offsets()[v.index() + 1];
        (self.in_edge_base + lo * EDGE_BYTES, (hi - lo) * EDGE_BYTES)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cisgraph_graph::DynamicGraph;
    use cisgraph_types::Weight;

    #[test]
    fn regions_do_not_overlap() {
        let l = MemoryLayout::for_sizes(1000, 5000, 5000);
        assert!(l.state_base < l.parent_base);
        assert!(l.parent_base >= 1000 * STATE_BYTES);
        assert!(l.offset_base >= l.parent_base + 1000 * PARENT_BYTES);
        assert!(l.edge_base >= l.offset_base + 1001 * OFFSET_BYTES);
        assert!(l.in_offset_base >= l.edge_base + 5000 * EDGE_BYTES);
        assert!(l.in_edge_base >= l.in_offset_base + 1001 * OFFSET_BYTES);
        assert_eq!(l.image_bytes, l.in_edge_base + 5000 * EDGE_BYTES);
    }

    #[test]
    fn regions_are_aligned() {
        let l = MemoryLayout::for_sizes(7, 3, 3);
        for base in [
            l.parent_base,
            l.offset_base,
            l.edge_base,
            l.in_offset_base,
            l.in_edge_base,
        ] {
            assert_eq!(base % 4096, 0);
        }
    }

    #[test]
    fn edge_burst_matches_csr() {
        let mut g = DynamicGraph::new(3);
        g.insert_edge(VertexId::new(0), VertexId::new(1), Weight::ONE)
            .unwrap();
        g.insert_edge(VertexId::new(0), VertexId::new(2), Weight::ONE)
            .unwrap();
        g.insert_edge(VertexId::new(2), VertexId::new(1), Weight::ONE)
            .unwrap();
        let snap = g.snapshot();
        let l = MemoryLayout::for_image(&snap);
        let (addr, bytes) = l.edge_burst(&snap, VertexId::new(0));
        assert_eq!(addr, l.edge_base);
        assert_eq!(bytes, 2 * EDGE_BYTES);
        let (_, bytes1) = l.edge_burst(&snap, VertexId::new(1));
        assert_eq!(bytes1, 0);
    }

    #[test]
    fn state_addresses_are_contiguous() {
        let l = MemoryLayout::for_sizes(10, 0, 0);
        assert_eq!(l.state_addr(VertexId::new(3)), 3 * STATE_BYTES);
        assert_eq!(
            l.parent_addr(VertexId::new(2)) - l.parent_base,
            2 * PARENT_BYTES
        );
    }
}
