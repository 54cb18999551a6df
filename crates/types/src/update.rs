//! Streaming graph updates.

use crate::{VertexId, Weight};
use serde::Serialize;
use std::fmt;

/// The kind of a streaming update: edge insertion or deletion.
///
/// Vertex additions/deletions are modeled as series of edge updates, exactly
/// as in the paper (§II-A).
///
/// # Examples
///
/// ```
/// use cisgraph_types::UpdateKind;
///
/// assert!(UpdateKind::Insert.is_insert());
/// assert!(UpdateKind::Delete.is_delete());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub enum UpdateKind {
    /// An edge addition. Always safe for monotonic algorithms: it can only
    /// tighten or preserve the converged result.
    Insert,
    /// An edge deletion. May require dependence repair in monotonic
    /// algorithms (Fig. 1b of the paper).
    Delete,
}

impl UpdateKind {
    /// Returns `true` for [`UpdateKind::Insert`].
    #[inline]
    pub const fn is_insert(self) -> bool {
        matches!(self, Self::Insert)
    }

    /// Returns `true` for [`UpdateKind::Delete`].
    #[inline]
    pub const fn is_delete(self) -> bool {
        matches!(self, Self::Delete)
    }
}

impl fmt::Display for UpdateKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Insert => write!(f, "+"),
            Self::Delete => write!(f, "-"),
        }
    }
}

/// One streaming update: `u --w--> v` inserted or deleted.
///
/// # Examples
///
/// ```
/// use cisgraph_types::{EdgeUpdate, UpdateKind, VertexId, Weight};
///
/// # fn main() -> Result<(), cisgraph_types::TypeError> {
/// let e = EdgeUpdate::insert(VertexId::new(0), VertexId::new(1), Weight::new(3.0)?);
/// assert_eq!(e.src(), VertexId::new(0));
/// assert_eq!(e.dst(), VertexId::new(1));
/// assert_eq!(e.kind(), UpdateKind::Insert);
/// assert_eq!(format!("{e}"), "+ v0 -> v1 (3)");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct EdgeUpdate {
    src: VertexId,
    dst: VertexId,
    weight: Weight,
    kind: UpdateKind,
}

impl EdgeUpdate {
    /// Creates an update of the given kind.
    #[inline]
    pub const fn new(src: VertexId, dst: VertexId, weight: Weight, kind: UpdateKind) -> Self {
        Self {
            src,
            dst,
            weight,
            kind,
        }
    }

    /// Creates an edge addition.
    #[inline]
    pub const fn insert(src: VertexId, dst: VertexId, weight: Weight) -> Self {
        Self::new(src, dst, weight, UpdateKind::Insert)
    }

    /// Creates an edge deletion.
    #[inline]
    pub const fn delete(src: VertexId, dst: VertexId, weight: Weight) -> Self {
        Self::new(src, dst, weight, UpdateKind::Delete)
    }

    /// Source vertex `u` of the updated edge `u -> v`.
    #[inline]
    pub const fn src(self) -> VertexId {
        self.src
    }

    /// Destination vertex `v` of the updated edge `u -> v`.
    #[inline]
    pub const fn dst(self) -> VertexId {
        self.dst
    }

    /// Weight of the updated edge.
    #[inline]
    pub const fn weight(self) -> Weight {
        self.weight
    }

    /// Whether this is an insertion or a deletion.
    #[inline]
    pub const fn kind(self) -> UpdateKind {
        self.kind
    }
}

impl fmt::Display for EdgeUpdate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} -> {} ({})",
            self.kind, self.src, self.dst, self.weight
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn w(x: f64) -> Weight {
        Weight::new(x).unwrap()
    }

    #[test]
    fn constructors_set_kind() {
        let a = EdgeUpdate::insert(VertexId::new(1), VertexId::new(2), w(1.0));
        assert!(a.kind().is_insert());
        let d = EdgeUpdate::delete(VertexId::new(1), VertexId::new(2), w(1.0));
        assert!(d.kind().is_delete());
        assert_ne!(a, d);
    }

    #[test]
    fn accessors() {
        let e = EdgeUpdate::insert(VertexId::new(7), VertexId::new(9), w(2.5));
        assert_eq!(e.src().raw(), 7);
        assert_eq!(e.dst().raw(), 9);
        assert_eq!(e.weight().get(), 2.5);
    }

    #[test]
    fn display_formats() {
        let e = EdgeUpdate::delete(VertexId::new(0), VertexId::new(3), w(9.0));
        assert_eq!(e.to_string(), "- v0 -> v3 (9)");
    }

    #[test]
    fn serde_names_every_field() {
        let e = EdgeUpdate::insert(VertexId::new(4), VertexId::new(5), w(1.5));
        let json = serde_json::to_string(&e).unwrap();
        assert_eq!(json, r#"{"src":4,"dst":5,"weight":1.5,"kind":"Insert"}"#);
    }
}
