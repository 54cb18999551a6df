//! Typed identifiers for vertices and edges.

use serde::Serialize;
use std::fmt;

/// A vertex identifier.
///
/// Stored as a `u32`: every dataset in the evaluation (including the real
/// UK-2002 at 18.5 M vertices) fits comfortably, and halving the id width
/// doubles how many CSR entries fit in the 32 MB scratchpad — the same
/// trade-off the paper's hardware makes.
///
/// # Examples
///
/// ```
/// use cisgraph_types::VertexId;
///
/// let v = VertexId::new(7);
/// assert_eq!(v.index(), 7);
/// assert_eq!(format!("{v}"), "v7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct VertexId(u32);

impl VertexId {
    /// Creates a vertex id from its raw numeric value.
    #[inline]
    pub const fn new(raw: u32) -> Self {
        Self(raw)
    }

    /// Creates a vertex id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        Self(u32::try_from(index).expect("vertex index exceeds u32::MAX"))
    }

    /// Returns the raw numeric value.
    #[inline]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// Returns the id as a `usize` suitable for indexing arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u32> for VertexId {
    #[inline]
    fn from(raw: u32) -> Self {
        Self(raw)
    }
}

impl From<VertexId> for u32 {
    #[inline]
    fn from(id: VertexId) -> Self {
        id.0
    }
}

/// An edge identifier: a position in a CSR edge array.
///
/// # Examples
///
/// ```
/// use cisgraph_types::EdgeId;
///
/// let e = EdgeId::new(42);
/// assert_eq!(e.index(), 42);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize)]
pub struct EdgeId(u64);

impl EdgeId {
    /// Creates an edge id from its raw numeric value.
    #[inline]
    pub const fn new(raw: u64) -> Self {
        Self(raw)
    }

    /// Returns the raw numeric value.
    #[inline]
    pub const fn raw(self) -> u64 {
        self.0
    }

    /// Returns the id as a `usize` suitable for indexing arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl From<u64> for EdgeId {
    #[inline]
    fn from(raw: u64) -> Self {
        Self(raw)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrip() {
        let v = VertexId::new(123);
        assert_eq!(v.raw(), 123);
        assert_eq!(v.index(), 123);
        assert_eq!(u32::from(v), 123);
        assert_eq!(VertexId::from(123u32), v);
    }

    #[test]
    fn vertex_id_from_index() {
        assert_eq!(VertexId::from_index(9).raw(), 9);
    }

    #[test]
    #[should_panic(expected = "vertex index exceeds u32::MAX")]
    fn vertex_id_from_huge_index_panics() {
        let _ = VertexId::from_index(usize::MAX);
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(VertexId::new(1) < VertexId::new(2));
        assert!(EdgeId::new(10) > EdgeId::new(9));
    }

    #[test]
    fn display_is_nonempty() {
        assert_eq!(VertexId::new(3).to_string(), "v3");
        assert_eq!(EdgeId::new(3).to_string(), "e3");
    }

    #[test]
    fn ids_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VertexId>();
        assert_send_sync::<EdgeId>();
    }
}
