//! Compact adjacency entries.

use cisgraph_types::{VertexId, Weight};
use serde::Serialize;
use std::fmt;

/// One adjacency entry: the far endpoint and the edge weight.
///
/// In a forward CSR the far endpoint is the edge's destination; in the
/// transpose it is the source. 16 bytes per entry (u32 id + f64 weight plus
/// padding), matching what the accelerator streams from DRAM.
///
/// # Examples
///
/// ```
/// use cisgraph_graph::Edge;
/// use cisgraph_types::{VertexId, Weight};
///
/// # fn main() -> Result<(), cisgraph_types::TypeError> {
/// let e = Edge::new(VertexId::new(3), Weight::new(1.5)?);
/// assert_eq!(e.to().raw(), 3);
/// assert_eq!(e.weight().get(), 1.5);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct Edge {
    to: VertexId,
    weight: Weight,
}

impl Edge {
    /// Size in bytes of one adjacency entry as laid out in simulated DRAM.
    pub const BYTES: u64 = 16;

    /// Creates an adjacency entry.
    #[inline]
    pub const fn new(to: VertexId, weight: Weight) -> Self {
        Self { to, weight }
    }

    /// The far endpoint.
    #[inline]
    pub const fn to(self) -> VertexId {
        self.to
    }

    /// The edge weight.
    #[inline]
    pub const fn weight(self) -> Weight {
        self.weight
    }
}

impl fmt::Display for Edge {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "->{} ({})", self.to, self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors_and_display() {
        let e = Edge::new(VertexId::new(9), Weight::new(4.0).unwrap());
        assert_eq!(e.to(), VertexId::new(9));
        assert_eq!(e.weight().get(), 4.0);
        assert_eq!(e.to_string(), "->v9 (4)");
    }
}
