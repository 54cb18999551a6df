//! Contribution levels for graph updates.

use serde::Serialize;
use std::fmt;

/// The contribution level CISGraph assigns to a graph update (§III-A).
///
/// * [`Contribution::Valuable`] — the update changes the converged state of
///   its destination vertex and must be propagated with the highest priority.
///   For deletions this is the *non-delayed* case: the deleted edge supported
///   the destination's state **and** its source lies on the global key path.
/// * [`Contribution::Delayed`] — a valuable edge deletion whose source is not
///   on the global key path: it changes the destination state but the query
///   answer relies on another existing path, so processing may be deferred
///   past the response point.
/// * [`Contribution::Useless`] — the update cannot change any converged
///   state; it is dropped without propagation.
///
/// # Examples
///
/// ```
/// use cisgraph_types::Contribution;
///
/// assert!(Contribution::Valuable.blocks_response());
/// assert!(!Contribution::Delayed.blocks_response());
/// assert!(!Contribution::Useless.needs_propagation());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize)]
pub enum Contribution {
    /// Must be processed before the query can be answered.
    Valuable,
    /// Must eventually be processed for future correctness, but does not
    /// block the current answer.
    Delayed,
    /// Dropped; contributes nothing to the converged result.
    Useless,
}

impl Contribution {
    /// Whether the query answer must wait for this update.
    #[inline]
    pub const fn blocks_response(self) -> bool {
        matches!(self, Self::Valuable)
    }

    /// Whether the update is propagated at all (valuable or delayed).
    #[inline]
    pub const fn needs_propagation(self) -> bool {
        !matches!(self, Self::Useless)
    }
}

impl fmt::Display for Contribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Valuable => write!(f, "valuable"),
            Self::Delayed => write!(f, "delayed"),
            Self::Useless => write!(f, "useless"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn response_blocking() {
        assert!(Contribution::Valuable.blocks_response());
        assert!(!Contribution::Delayed.blocks_response());
        assert!(!Contribution::Useless.blocks_response());
    }

    #[test]
    fn propagation_need() {
        assert!(Contribution::Valuable.needs_propagation());
        assert!(Contribution::Delayed.needs_propagation());
        assert!(!Contribution::Useless.needs_propagation());
    }

    #[test]
    fn priority_order_valuable_first() {
        // Ord is used by schedulers: Valuable < Delayed < Useless.
        assert!(Contribution::Valuable < Contribution::Delayed);
        assert!(Contribution::Delayed < Contribution::Useless);
    }

    #[test]
    fn display() {
        assert_eq!(Contribution::Valuable.to_string(), "valuable");
        assert_eq!(Contribution::Delayed.to_string(), "delayed");
        assert_eq!(Contribution::Useless.to_string(), "useless");
    }
}
