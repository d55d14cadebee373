//! Plain-text edge-list I/O, so downstream users can run the suite on
//! their own graphs (and the LDBC datasets proper, converted to edge
//! lists).
//!
//! Format: one edge per line, `src dst [weight]`, whitespace-separated;
//! `#`- or `%`-prefixed lines are comments (the SNAP and Matrix-Market
//! conventions). Vertex ids are dense non-negative integers.

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

use crate::builder;
use crate::csr::Csr;

/// Errors from edge-list parsing.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A malformed line (1-based line number and content).
    Parse(usize, String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "I/O error: {e}"),
            IoError::Parse(line, text) => write!(f, "parse error on line {line}: {text:?}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

/// Vertex ids must be below this: the largest id plus one is the vertex
/// count, which must stay below `u32::MAX`.
const MAX_VERTEX_ID_EXCL: u32 = u32::MAX - 1;

/// Parses an edge list from a reader. Unweighted lines get weight 1 when
/// any line carries a weight; fully unweighted inputs produce an
/// unweighted graph.
pub fn read_edge_list<R: BufRead>(reader: R) -> Result<Csr, IoError> {
    let mut edges: Vec<(u32, u32, u32)> = Vec::new();
    let mut max_v = 0u32;
    let mut any_weight = false;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') || trimmed.starts_with('%') {
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse = |tok: Option<&str>| -> Option<u32> { tok.and_then(|t| t.parse().ok()) };
        let (s, d) = match (parse(parts.next()), parse(parts.next())) {
            (Some(s), Some(d)) if s.max(d) < MAX_VERTEX_ID_EXCL => (s, d),
            _ => return Err(IoError::Parse(idx + 1, line.clone())),
        };
        let w = match parts.next() {
            None => 1,
            Some(tok) => {
                any_weight = true;
                tok.parse()
                    .map_err(|_| IoError::Parse(idx + 1, line.clone()))?
            }
        };
        max_v = max_v.max(s).max(d);
        edges.push((s, d, w));
    }
    let n = if edges.is_empty() {
        0
    } else {
        max_v as usize + 1
    };
    Ok(builder::from_triples(
        n,
        &edges,
        any_weight,
        builder::workers_for(edges.len()),
    ))
}

/// Reads an edge-list file.
pub fn read_edge_list_file(path: impl AsRef<Path>) -> Result<Csr, IoError> {
    let file = std::fs::File::open(path)?;
    read_edge_list(std::io::BufReader::new(file))
}

/// Writes a graph as an edge list (with weights when present).
pub fn write_edge_list<W: Write>(g: &Csr, writer: W) -> std::io::Result<()> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# coolpim edge list: {} vertices, {} edges",
        g.vertices(),
        g.edge_count()
    )?;
    for v in 0..g.vertices() as u32 {
        if g.is_weighted() {
            for (&d, &wt) in g.neighbours(v).iter().zip(g.weights_of(v)) {
                writeln!(w, "{v} {d} {wt}")?;
            }
        } else {
            for &d in g.neighbours(v) {
                writeln!(w, "{v} {d}")?;
            }
        }
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_comments_weights_and_blanks() {
        let text = "# comment\n% another\n\n0 1 5\n1 2 7\n2 0 1\n";
        let g = read_edge_list(text.as_bytes()).unwrap();
        assert_eq!(g.vertices(), 3);
        assert!(g.is_weighted());
        assert_eq!(g.weights_of(0), &[5]);
    }

    #[test]
    fn unweighted_input_gives_unweighted_graph() {
        let g = read_edge_list("0 1\n1 2\n".as_bytes()).unwrap();
        assert!(!g.is_weighted());
        assert_eq!(g.edge_count(), 2);
    }

    #[test]
    fn rejects_malformed_lines_with_position() {
        let err = read_edge_list("0 1\nnot an edge\n".as_bytes()).unwrap_err();
        match err {
            IoError::Parse(line, _) => assert_eq!(line, 2),
            other => panic!("wrong error: {other}"),
        }
    }

    #[test]
    fn rejects_vertex_ids_too_large_for_the_csr() {
        for bad in [u32::MAX - 1, u32::MAX] {
            let text = format!("0 1\n1 2 3\n{bad} 0 4\n");
            match read_edge_list(text.as_bytes()).unwrap_err() {
                IoError::Parse(line, content) => {
                    assert_eq!(line, 3);
                    assert!(content.starts_with(&bad.to_string()), "{content}");
                }
                other => panic!("wrong error: {other}"),
            }
        }
    }

    #[test]
    fn round_trips_through_text() {
        let g = crate::generate::GraphSpec::tiny().build();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let g2 = read_edge_list(&buf[..]).unwrap();
        assert_eq!(g.vertices(), g2.vertices());
        assert_eq!(g.edge_count(), g2.edge_count());
        for v in 0..g.vertices() as u32 {
            assert_eq!(g.neighbours(v), g2.neighbours(v));
            assert_eq!(g.weights_of(v), g2.weights_of(v));
        }
    }

    #[test]
    fn empty_input_is_an_empty_graph() {
        let g = read_edge_list("# nothing\n".as_bytes()).unwrap();
        assert_eq!(g.vertices(), 0);
        assert_eq!(g.edge_count(), 0);
    }
}
