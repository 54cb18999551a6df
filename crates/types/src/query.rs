//! Pairwise queries.

use crate::{TypeError, VertexId};
use serde::Serialize;
use std::fmt;

/// A point-to-point query `Q(s -> d)` over two distinct vertices.
///
/// # Examples
///
/// ```
/// use cisgraph_types::{PairQuery, VertexId};
///
/// # fn main() -> Result<(), cisgraph_types::TypeError> {
/// let q = PairQuery::new(VertexId::new(0), VertexId::new(5))?;
/// assert_eq!(q.source().raw(), 0);
/// assert_eq!(q.destination().raw(), 5);
/// assert!(PairQuery::new(VertexId::new(3), VertexId::new(3)).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize)]
pub struct PairQuery {
    source: VertexId,
    destination: VertexId,
}

impl PairQuery {
    /// Creates a pairwise query.
    ///
    /// # Errors
    ///
    /// Returns [`TypeError::DegeneratePair`] if `source == destination`;
    /// the paper defines pairwise queries over *distinct* vertices.
    #[inline]
    pub fn new(source: VertexId, destination: VertexId) -> Result<Self, TypeError> {
        if source == destination {
            return Err(TypeError::DegeneratePair {
                vertex: source.raw(),
            });
        }
        Ok(Self {
            source,
            destination,
        })
    }

    /// The source vertex `s`.
    #[inline]
    pub const fn source(self) -> VertexId {
        self.source
    }

    /// The destination vertex `d`.
    #[inline]
    pub const fn destination(self) -> VertexId {
        self.destination
    }
}

impl fmt::Display for PairQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q({} -> {})", self.source, self.destination)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_same_endpoints() {
        let err = PairQuery::new(VertexId::new(2), VertexId::new(2)).unwrap_err();
        assert_eq!(err, TypeError::DegeneratePair { vertex: 2 });
    }

    #[test]
    fn accepts_distinct_endpoints() {
        let q = PairQuery::new(VertexId::new(1), VertexId::new(2)).unwrap();
        assert_eq!(q.source(), VertexId::new(1));
        assert_eq!(q.destination(), VertexId::new(2));
    }

    #[test]
    fn display() {
        let q = PairQuery::new(VertexId::new(0), VertexId::new(5)).unwrap();
        assert_eq!(q.to_string(), "Q(v0 -> v5)");
    }

    #[test]
    fn serde_names_both_endpoints() {
        let q = PairQuery::new(VertexId::new(10), VertexId::new(20)).unwrap();
        let json = serde_json::to_string(&q).unwrap();
        assert_eq!(json, r#"{"source":10,"destination":20}"#);
    }
}
