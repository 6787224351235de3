//! Reading and writing uncertain graphs.
//!
//! Three formats are supported:
//!
//! * **Text edge list** — one `u v p` triple per line, `#`-prefixed comment
//!   lines and blank lines ignored.  A header comment carries the number of
//!   vertices so isolated vertices survive a round trip.  This matches the
//!   de-facto format used by published uncertain-graph datasets (Flickr,
//!   Twitter, BIOMINE, …).
//! * **JSON** — a plain mirror of [`UncertainGraph`] (vertex count and edge
//!   list) written and read with the workspace's dependency-free `minijson`
//!   crate ([`to_json`] / [`from_json`]).
//! * **Binary** — a compact little-endian encoding ([`to_bytes`] /
//!   [`from_bytes`]) that round-trips probabilities exactly.

use std::io::{BufRead, BufWriter, Write};
use std::path::Path;

use minijson::{ObjBuilder, Value};

use crate::error::GraphError;
use crate::graph::UncertainGraph;

/// A serialisation-friendly mirror of an [`UncertainGraph`].
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SerializableGraph {
    /// Number of vertices.
    pub(crate) num_vertices: usize,
    /// Edge list `(u, v, p)`.
    pub(crate) edges: Vec<(usize, usize, f64)>,
}

impl From<&UncertainGraph> for SerializableGraph {
    fn from(g: &UncertainGraph) -> Self {
        SerializableGraph {
            num_vertices: g.num_vertices(),
            edges: g.edges().map(|e| (e.u, e.v, e.p)).collect(),
        }
    }
}

impl TryFrom<SerializableGraph> for UncertainGraph {
    type Error = GraphError;

    fn try_from(s: SerializableGraph) -> Result<Self, Self::Error> {
        UncertainGraph::from_edges(s.num_vertices, s.edges)
    }
}

impl SerializableGraph {
    /// Renders the mirror as a compact JSON document.
    pub(crate) fn to_json(&self) -> String {
        let edges: Vec<Value> = self
            .edges
            .iter()
            .map(|&(u, v, p)| Value::Arr(vec![u.into(), v.into(), p.into()]))
            .collect();
        ObjBuilder::new()
            .field("num_vertices", self.num_vertices)
            .field("edges", Value::Arr(edges))
            .build()
            .render()
    }

    /// Parses a JSON document produced by [`SerializableGraph::to_json`].
    pub(crate) fn from_json(json: &str) -> Result<Self, GraphError> {
        let parse_err = |message: String| GraphError::Parse { line: 0, message };
        let value = Value::parse(json).map_err(|e| parse_err(e.to_string()))?;
        let num_vertices = value
            .get_usize("num_vertices")
            .ok_or_else(|| parse_err("missing or invalid `num_vertices`".into()))?;
        let edge_values = value
            .get("edges")
            .and_then(Value::as_array)
            .ok_or_else(|| parse_err("missing or invalid `edges`".into()))?;
        let mut edges = Vec::with_capacity(edge_values.len());
        for (i, edge) in edge_values.iter().enumerate() {
            let triple = edge.as_array().filter(|t| t.len() == 3);
            let parsed =
                triple.and_then(|t| Some((t[0].as_usize()?, t[1].as_usize()?, t[2].as_f64()?)));
            match parsed {
                Some(triple) => edges.push(triple),
                None => return Err(parse_err(format!("edge {i} is not a [u, v, p] triple"))),
            }
        }
        Ok(SerializableGraph {
            num_vertices,
            edges,
        })
    }
}

/// Writes `g` in the text edge-list format to an arbitrary writer.
pub fn write_text<W: Write>(g: &UncertainGraph, writer: W) -> Result<(), GraphError> {
    let mut w = BufWriter::new(writer);
    writeln!(
        w,
        "# uncertain graph: {} vertices, {} edges",
        g.num_vertices(),
        g.num_edges()
    )?;
    writeln!(w, "# vertices {}", g.num_vertices())?;
    for e in g.edges() {
        writeln!(w, "{} {} {}", e.u, e.v, e.p)?;
    }
    w.flush()?;
    Ok(())
}

/// Writes `g` as a text edge list to a file path.
pub fn write_text_file<P: AsRef<Path>>(g: &UncertainGraph, path: P) -> Result<(), GraphError> {
    let file = std::fs::File::create(path)?;
    write_text(g, file)
}

/// Reads an uncertain graph from the text edge-list format.
///
/// If no `# vertices N` header is present, the number of vertices is inferred
/// as `max vertex id + 1`.
pub fn read_text<R: BufRead>(reader: R) -> Result<UncertainGraph, GraphError> {
    let mut declared_vertices: Option<usize> = None;
    let mut edges: Vec<(usize, usize, f64)> = Vec::new();
    let mut max_vertex = 0usize;
    for (idx, line) in reader.lines().enumerate() {
        let line = line?;
        let lineno = idx + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        if let Some(comment) = trimmed.strip_prefix('#') {
            let mut parts = comment.split_whitespace();
            if parts.next() == Some("vertices") {
                if let Some(n) = parts.next() {
                    declared_vertices = Some(n.parse().map_err(|_| GraphError::Parse {
                        line: lineno,
                        message: format!("invalid vertex count {n:?}"),
                    })?);
                }
            }
            continue;
        }
        let mut parts = trimmed.split_whitespace();
        let parse_field = |part: Option<&str>, what: &str| -> Result<String, GraphError> {
            part.map(str::to_owned).ok_or_else(|| GraphError::Parse {
                line: lineno,
                message: format!("missing {what}"),
            })
        };
        let u: usize = parse_field(parts.next(), "source vertex")?
            .parse()
            .map_err(|_| GraphError::Parse {
                line: lineno,
                message: "invalid source vertex".into(),
            })?;
        let v: usize = parse_field(parts.next(), "target vertex")?
            .parse()
            .map_err(|_| GraphError::Parse {
                line: lineno,
                message: "invalid target vertex".into(),
            })?;
        let p: f64 = parse_field(parts.next(), "probability")?
            .parse()
            .map_err(|_| GraphError::Parse {
                line: lineno,
                message: "invalid probability".into(),
            })?;
        if parts.next().is_some() {
            return Err(GraphError::Parse {
                line: lineno,
                message: "trailing fields".into(),
            });
        }
        max_vertex = max_vertex.max(u).max(v);
        edges.push((u, v, p));
    }
    // Saturating: an id of `usize::MAX` must not wrap the inferred count
    // to 0; `from_edges` refuses the saturated count instead.
    let num_vertices = declared_vertices.unwrap_or(if edges.is_empty() {
        0
    } else {
        max_vertex.saturating_add(1)
    });
    UncertainGraph::from_edges(num_vertices, edges)
}

/// Reads an uncertain graph from a text edge-list file.
pub fn read_text_file<P: AsRef<Path>>(path: P) -> Result<UncertainGraph, GraphError> {
    let file = std::fs::File::open(path)?;
    read_text(std::io::BufReader::new(file))
}

/// Serialises `g` to a JSON string.
pub fn to_json(g: &UncertainGraph) -> Result<String, GraphError> {
    Ok(SerializableGraph::from(g).to_json())
}

/// Deserialises an uncertain graph from a JSON string produced by
/// [`to_json`].
pub fn from_json(json: &str) -> Result<UncertainGraph, GraphError> {
    SerializableGraph::from_json(json)?.try_into()
}

/// Magic bytes identifying the compact binary encoding.
const BINARY_MAGIC: &[u8; 4] = b"UGS1";

/// Encodes `g` into a compact binary representation:
/// magic, `u64` vertex count, `u64` edge count, then `(u32, u32, f64)` per
/// edge in little-endian order.
pub fn to_bytes(g: &UncertainGraph) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + 16 + g.num_edges() * 16);
    buf.extend_from_slice(BINARY_MAGIC);
    buf.extend_from_slice(&(g.num_vertices() as u64).to_le_bytes());
    buf.extend_from_slice(&(g.num_edges() as u64).to_le_bytes());
    for e in g.edges() {
        buf.extend_from_slice(&(e.u as u32).to_le_bytes());
        buf.extend_from_slice(&(e.v as u32).to_le_bytes());
        buf.extend_from_slice(&e.p.to_le_bytes());
    }
    buf
}

/// Decodes a graph previously encoded with [`to_bytes`].
pub fn from_bytes(data: &[u8]) -> Result<UncertainGraph, GraphError> {
    let corrupt = |message: &str| GraphError::Parse {
        line: 0,
        message: message.into(),
    };
    if data.len() < 20 || &data[..4] != BINARY_MAGIC {
        return Err(corrupt("bad magic for binary graph"));
    }
    let read_u64 = |at: usize| u64::from_le_bytes(data[at..at + 8].try_into().expect("8 bytes"));
    let num_vertices = read_u64(4) as usize;
    let num_edges = read_u64(12) as usize;
    let body = &data[20..];
    if body.len() < num_edges.saturating_mul(16) {
        return Err(corrupt("truncated binary graph"));
    }
    let mut edges = Vec::with_capacity(num_edges);
    for chunk in body.chunks_exact(16).take(num_edges) {
        let u = u32::from_le_bytes(chunk[0..4].try_into().expect("4 bytes")) as usize;
        let v = u32::from_le_bytes(chunk[4..8].try_into().expect("4 bytes")) as usize;
        let p = f64::from_le_bytes(chunk[8..16].try_into().expect("8 bytes"));
        edges.push((u, v, p));
    }
    UncertainGraph::from_edges(num_vertices, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> UncertainGraph {
        UncertainGraph::from_edges(5, [(0, 1, 0.25), (1, 2, 0.5), (3, 4, 1.0)]).unwrap()
    }

    #[test]
    fn text_round_trip_preserves_graph() {
        let g = sample();
        let mut buf = Vec::new();
        write_text(&g, &mut buf).unwrap();
        let back = read_text(std::io::Cursor::new(buf)).unwrap();
        assert_eq!(back.num_vertices(), 5);
        assert_eq!(back.num_edges(), 3);
        assert!((back.edge_probability(back.find_edge(1, 2).unwrap()) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn text_reader_infers_vertex_count_without_header() {
        let input = "0 1 0.3\n2 5 0.9\n";
        let g = read_text(std::io::Cursor::new(input)).unwrap();
        assert_eq!(g.num_vertices(), 6);
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn text_reader_skips_comments_and_blank_lines() {
        let input = "# a comment\n\n0 1 0.3\n   \n# another\n1 2 0.4\n";
        let g = read_text(std::io::Cursor::new(input)).unwrap();
        assert_eq!(g.num_edges(), 2);
    }

    #[test]
    fn text_reader_reports_line_numbers_on_errors() {
        let input = "0 1 0.3\n0 oops 0.4\n";
        match read_text(std::io::Cursor::new(input)) {
            Err(GraphError::Parse { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
        let input = "0 1\n";
        assert!(matches!(
            read_text(std::io::Cursor::new(input)),
            Err(GraphError::Parse { line: 1, .. })
        ));
        let input = "0 1 0.5 9\n";
        assert!(matches!(
            read_text(std::io::Cursor::new(input)),
            Err(GraphError::Parse { line: 1, .. })
        ));
        let input = "# vertices nope\n0 1 0.5\n";
        assert!(matches!(
            read_text(std::io::Cursor::new(input)),
            Err(GraphError::Parse { line: 1, .. })
        ));
    }

    #[test]
    fn text_file_round_trip() {
        let g = sample();
        let dir = std::env::temp_dir().join("ugs-io-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("graph.txt");
        write_text_file(&g, &path).unwrap();
        let back = read_text_file(&path).unwrap();
        assert_eq!(back.num_edges(), g.num_edges());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn json_round_trip() {
        let g = sample();
        let json = to_json(&g).unwrap();
        let back = from_json(&json).unwrap();
        assert_eq!(SerializableGraph::from(&g), SerializableGraph::from(&back));
        assert!(from_json("{not json").is_err());
    }

    #[test]
    fn json_rejects_structurally_wrong_documents() {
        assert!(
            from_json(r#"{"edges": []}"#).is_err(),
            "missing num_vertices"
        );
        assert!(
            from_json(r#"{"num_vertices": 3}"#).is_err(),
            "missing edges"
        );
        assert!(
            from_json(r#"{"num_vertices": 3, "edges": [[0, 1]]}"#).is_err(),
            "short triple"
        );
        assert!(
            from_json(r#"{"num_vertices": 3, "edges": [[0, "x", 0.5]]}"#).is_err(),
            "non-numeric vertex"
        );
    }

    #[test]
    fn binary_round_trip() {
        let g = sample();
        let bytes = to_bytes(&g);
        let back = from_bytes(&bytes).unwrap();
        assert_eq!(SerializableGraph::from(&g), SerializableGraph::from(&back));
    }

    #[test]
    fn binary_rejects_corrupt_input() {
        assert!(from_bytes(b"??").is_err());
        assert!(from_bytes(b"XXXX0000000000000000").is_err());
        let g = sample();
        let bytes = to_bytes(&g);
        assert!(from_bytes(&bytes[..bytes.len() - 3]).is_err());
    }

    /// A vertex count or id whose ids would not fit `u32` is a typed error
    /// from every reader, never a panic, an abort or a renumbered vertex.
    #[test]
    fn readers_refuse_vertex_counts_beyond_u32_ids() {
        let too_many = |result: Result<UncertainGraph, GraphError>| {
            assert!(
                matches!(result, Err(GraphError::TooManyVertices { .. })),
                "{result:?}"
            );
        };
        for text in [
            "# vertices 18446744073709551615\n0 1 0.5\n",
            "# vertices 4294967298\n4294967296 1 0.5\n",
            "4294967296 1 0.5\n",
            "18446744073709551615 1 0.5\n",
        ] {
            too_many(read_text(std::io::Cursor::new(text)));
        }
        too_many(from_json(
            r#"{"num_vertices": 18446744073709551615, "edges": [[0, 1, 0.5]]}"#,
        ));
        let mut bytes = to_bytes(&sample());
        bytes[4..12].copy_from_slice(&u64::MAX.to_le_bytes());
        too_many(from_bytes(&bytes));
    }

    #[test]
    fn serializable_graph_rejects_invalid_edges_on_conversion() {
        let s = SerializableGraph {
            num_vertices: 2,
            edges: vec![(0, 1, 2.0)],
        };
        assert!(UncertainGraph::try_from(s).is_err());
    }
}
