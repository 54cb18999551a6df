//! Edge-list IO in the SNAP-style `src dst [weight]` text format (lines
//! starting with `#` or `%` are comments; a missing weight defaults to 1).

use crate::GraphError;
use cisgraph_types::{EdgeUpdate, UpdateKind, VertexId, Weight};
use std::io::{BufRead, BufReader, Read, Write};

/// Parses a text edge list from a reader.
///
/// Pass `&mut reader` if you need the reader afterwards.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed lines (bad integers, invalid
/// weights) and [`GraphError::Io`] on read failures.
///
/// # Examples
///
/// ```
/// use cisgraph_graph::read_edge_list;
///
/// # fn main() -> Result<(), cisgraph_graph::GraphError> {
/// let text = "# comment\n0 1 2.5\n1 2\n";
/// let edges = read_edge_list(text.as_bytes())?;
/// assert_eq!(edges.len(), 2);
/// assert_eq!(edges[1].2.get(), 1.0); // default weight
/// # Ok(())
/// # }
/// ```
pub fn read_edge_list<R: Read>(reader: R) -> Result<Vec<(VertexId, VertexId, Weight)>, GraphError> {
    let reader = BufReader::new(reader);
    let mut edges = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let lineno = idx + 1;
        let parse_id = |s: Option<&str>, what: &str| -> Result<VertexId, GraphError> {
            let s = s.ok_or_else(|| GraphError::Parse {
                line: lineno,
                message: format!("missing {what}"),
            })?;
            let raw: u32 = s.parse().map_err(|e| GraphError::Parse {
                line: lineno,
                message: format!("bad {what} `{s}`: {e}"),
            })?;
            Ok(VertexId::new(raw))
        };
        let src = parse_id(parts.next(), "source vertex")?;
        let dst = parse_id(parts.next(), "destination vertex")?;
        let weight = match parts.next() {
            Some(s) => {
                let raw: f64 = s.parse().map_err(|e| GraphError::Parse {
                    line: lineno,
                    message: format!("bad weight `{s}`: {e}"),
                })?;
                Weight::new(raw).map_err(|e| GraphError::Parse {
                    line: lineno,
                    message: e.to_string(),
                })?
            }
            None => Weight::ONE,
        };
        edges.push((src, dst, weight));
    }
    Ok(edges)
}

/// Writes a text edge list (`src dst weight` per line).
///
/// Pass `&mut writer` if you need the writer afterwards.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failures.
pub fn write_edge_list<W: Write>(
    mut writer: W,
    edges: &[(VertexId, VertexId, Weight)],
) -> Result<(), GraphError> {
    for &(u, v, w) in edges {
        writeln!(writer, "{} {} {}", u.raw(), v.raw(), w.get())?;
    }
    Ok(())
}

/// Parses a text update stream: one update per line, `+ src dst weight`
/// for an addition or `- src dst weight` for a deletion (weight optional,
/// defaults to 1). `#`/`%` comment lines and blank lines are skipped.
///
/// Pass `&mut reader` if you need the reader afterwards.
///
/// # Errors
///
/// Returns [`GraphError::Parse`] on malformed lines and [`GraphError::Io`]
/// on read failures.
///
/// # Examples
///
/// ```
/// use cisgraph_graph::read_update_list;
/// use cisgraph_types::UpdateKind;
///
/// # fn main() -> Result<(), cisgraph_graph::GraphError> {
/// let text = "# traffic\n+ 0 1 2.5\n- 1 2 1\n";
/// let updates = read_update_list(text.as_bytes())?;
/// assert_eq!(updates.len(), 2);
/// assert_eq!(updates[0].kind(), UpdateKind::Insert);
/// assert_eq!(updates[1].kind(), UpdateKind::Delete);
/// # Ok(())
/// # }
/// ```
pub fn read_update_list<R: Read>(reader: R) -> Result<Vec<EdgeUpdate>, GraphError> {
    let reader = BufReader::new(reader);
    let mut updates = Vec::new();
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let lineno = idx + 1;
        let mut parts = line.split_whitespace();
        let kind = match parts.next() {
            Some("+") => UpdateKind::Insert,
            Some("-") => UpdateKind::Delete,
            Some(other) => {
                return Err(GraphError::Parse {
                    line: lineno,
                    message: format!("expected `+` or `-`, got `{other}`"),
                })
            }
            None => unreachable!("non-empty line has a first token"),
        };
        let mut parse_id = |what: &str| -> Result<VertexId, GraphError> {
            let s = parts.next().ok_or_else(|| GraphError::Parse {
                line: lineno,
                message: format!("missing {what}"),
            })?;
            let raw: u32 = s.parse().map_err(|e| GraphError::Parse {
                line: lineno,
                message: format!("bad {what} `{s}`: {e}"),
            })?;
            Ok(VertexId::new(raw))
        };
        let src = parse_id("source vertex")?;
        let dst = parse_id("destination vertex")?;
        let weight = match parts.next() {
            Some(s) => {
                let raw: f64 = s.parse().map_err(|e| GraphError::Parse {
                    line: lineno,
                    message: format!("bad weight `{s}`: {e}"),
                })?;
                Weight::new(raw).map_err(|e| GraphError::Parse {
                    line: lineno,
                    message: e.to_string(),
                })?
            }
            None => Weight::ONE,
        };
        updates.push(EdgeUpdate::new(src, dst, weight, kind));
    }
    Ok(updates)
}

/// Writes a text update stream in the format [`read_update_list`] parses.
///
/// Pass `&mut writer` if you need the writer afterwards.
///
/// # Errors
///
/// Returns [`GraphError::Io`] on write failures.
pub fn write_update_list<W: Write>(
    mut writer: W,
    updates: &[EdgeUpdate],
) -> Result<(), GraphError> {
    for u in updates {
        writeln!(
            writer,
            "{} {} {} {}",
            u.kind(),
            u.src().raw(),
            u.dst().raw(),
            u.weight().get()
        )?;
    }
    Ok(())
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

    #[test]
    fn text_roundtrip() {
        let edges = vec![(v(0), v(1), w(1.5)), (v(1), v(2), w(2.0))];
        let mut out = Vec::new();
        write_edge_list(&mut out, &edges).unwrap();
        let back = read_edge_list(out.as_slice()).unwrap();
        assert_eq!(back, edges);
    }

    #[test]
    fn text_skips_comments_and_blank_lines() {
        let text = "# header\n\n% another\n3 4 2.0\n";
        let edges = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(edges, vec![(v(3), v(4), w(2.0))]);
    }

    #[test]
    fn text_default_weight_is_one() {
        let edges = read_edge_list("5 6\n".as_bytes()).unwrap();
        assert_eq!(edges[0].2, Weight::ONE);
    }

    #[test]
    fn text_reports_line_numbers() {
        let err = read_edge_list("0 1\nx 2\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn text_rejects_negative_weight() {
        let err = read_edge_list("0 1 -3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn text_rejects_missing_destination() {
        let err = read_edge_list("0\n".as_bytes()).unwrap_err();
        assert!(matches!(err, GraphError::Parse { .. }));
    }

    #[test]
    fn update_list_roundtrip() {
        let updates = vec![
            EdgeUpdate::insert(v(0), v(1), w(2.5)),
            EdgeUpdate::delete(v(1), v(2), w(1.0)),
        ];
        let mut out = Vec::new();
        write_update_list(&mut out, &updates).unwrap();
        let back = read_update_list(out.as_slice()).unwrap();
        assert_eq!(back, updates);
    }

    #[test]
    fn update_list_default_weight_and_comments() {
        let text = "# churn\n+ 3 4\n\n- 4 3 2\n";
        let ups = read_update_list(text.as_bytes()).unwrap();
        assert_eq!(ups.len(), 2);
        assert_eq!(ups[0].weight(), Weight::ONE);
        assert!(ups[1].kind().is_delete());
    }

    #[test]
    fn update_list_rejects_bad_kind() {
        let err = read_update_list("* 1 2 3\n".as_bytes()).unwrap_err();
        match err {
            GraphError::Parse { line, message } => {
                assert_eq!(line, 1);
                assert!(message.contains('*'));
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    #[test]
    fn update_list_rejects_missing_fields() {
        assert!(read_update_list("+ 1\n".as_bytes()).is_err());
        assert!(read_update_list("+\n".as_bytes()).is_err());
    }
}
