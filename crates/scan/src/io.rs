//! Plain-text serialization of X maps.
//!
//! A small line-oriented format so workloads can be exchanged with other
//! tools (or dumped from a real ATPG flow and analyzed here):
//!
//! ```text
//! xmap v1
//! chains 3 3 3 3 3
//! patterns 8
//! x 0 : 0 3 4 5
//! x 11 : 0 1 2 3 4 6 7
//! ```
//!
//! `chains` lists per-chain lengths; each `x` line gives a linear cell
//! index and the pattern indices under which it captures X. Lines starting
//! with `#` are comments.

use crate::config::ScanConfig;
use crate::xmap::XMap;
use crate::LintCode;
use std::collections::HashSet;
use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use xhc_bits::PatternSet;

/// Errors from [`read_xmap`].
#[derive(Debug)]
pub enum ReadXMapError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The header line is missing or not `xmap v1`.
    BadHeader(String),
    /// A structural line could not be parsed.
    BadLine {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A `chains` or `patterns` declaration is missing.
    MissingDeclaration(&'static str),
    /// A well-formed line that breaks a design rule: an X entry out of
    /// range (XL0202) or repeated (XL0203), as the wire decoder rejects
    /// it.
    Violation {
        /// 1-based line number.
        line: usize,
        /// The rule the line breaks.
        code: LintCode,
        /// What went wrong.
        message: String,
    },
}

impl ReadXMapError {
    /// The rule the input breaks, if the rejection is a design-rule
    /// finding rather than unreadable text.
    pub fn code(&self) -> Option<LintCode> {
        match self {
            ReadXMapError::Violation { code, .. } => Some(*code),
            _ => None,
        }
    }
}

impl fmt::Display for ReadXMapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ReadXMapError::Io(e) => write!(f, "i/o error: {e}"),
            ReadXMapError::BadHeader(got) => {
                write!(f, "expected header `xmap v1`, got `{got}`")
            }
            ReadXMapError::BadLine { line, message }
            | ReadXMapError::Violation { line, message, .. } => {
                write!(f, "line {line}: {message}")
            }
            ReadXMapError::MissingDeclaration(what) => {
                write!(f, "missing `{what}` declaration")
            }
        }
    }
}

impl std::error::Error for ReadXMapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReadXMapError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReadXMapError {
    fn from(e: std::io::Error) -> Self {
        ReadXMapError::Io(e)
    }
}

/// Writes an X map in the `xmap v1` text format.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
///
/// # Examples
///
/// ```
/// use xhc_scan::{read_xmap, write_xmap, CellId, ScanConfig, XMapBuilder};
///
/// let cfg = ScanConfig::uniform(2, 3);
/// let mut b = XMapBuilder::new(cfg, 4);
/// b.add_x(CellId::new(0, 1), 2).unwrap();
/// let xmap = b.finish();
///
/// let mut buf = Vec::new();
/// write_xmap(&mut buf, &xmap)?;
/// let back = read_xmap(&buf[..])?;
/// assert_eq!(back, xmap);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn write_xmap<W: Write>(mut w: W, xmap: &XMap) -> std::io::Result<()> {
    writeln!(w, "xmap v1")?;
    write!(w, "chains")?;
    for chain in 0..xmap.config().num_chains() {
        write!(w, " {}", xmap.config().chain_len(chain))?;
    }
    writeln!(w)?;
    writeln!(w, "patterns {}", xmap.num_patterns())?;
    for (cell, xs) in xmap.iter() {
        write!(w, "x {} :", xmap.config().linear_index(cell))?;
        for p in xs.iter() {
            write!(w, " {p}")?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Reads an X map in the `xmap v1` text format. A `&[u8]` or `File` can
/// be passed directly; pass `&mut reader` to keep ownership.
///
/// # Errors
///
/// Returns [`ReadXMapError`] on malformed input or I/O failure.
pub fn read_xmap<R: Read>(r: R) -> Result<XMap, ReadXMapError> {
    let reader = BufReader::new(r);
    let mut lines = reader.lines().enumerate();

    let (_, header) = lines
        .next()
        .ok_or_else(|| ReadXMapError::BadHeader(String::new()))?;
    let header = header?;
    if header.trim() != "xmap v1" {
        return Err(ReadXMapError::BadHeader(header));
    }

    let mut lengths: Option<Vec<usize>> = None;
    let mut patterns: Option<usize> = None;
    let mut entries: Vec<(usize, Vec<usize>, usize)> = Vec::new(); // (cell, pats, line)

    for (idx, line) in lines {
        let line_no = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut tokens = line.split_whitespace();
        match tokens.next() {
            Some("chains") => {
                let parsed: Result<Vec<usize>, _> = tokens.map(str::parse).collect();
                lengths = Some(parsed.map_err(|e| ReadXMapError::BadLine {
                    line: line_no,
                    message: format!("bad chain length: {e}"),
                })?);
            }
            Some("patterns") => {
                let v = tokens
                    .next()
                    .ok_or_else(|| ReadXMapError::BadLine {
                        line: line_no,
                        message: "missing pattern count".into(),
                    })?
                    .parse()
                    .map_err(|e| ReadXMapError::BadLine {
                        line: line_no,
                        message: format!("bad pattern count: {e}"),
                    })?;
                patterns = Some(v);
            }
            Some("x") => {
                let cell: usize = tokens
                    .next()
                    .ok_or_else(|| ReadXMapError::BadLine {
                        line: line_no,
                        message: "missing cell index".into(),
                    })?
                    .parse()
                    .map_err(|e| ReadXMapError::BadLine {
                        line: line_no,
                        message: format!("bad cell index: {e}"),
                    })?;
                match tokens.next() {
                    Some(":") => {}
                    other => {
                        return Err(ReadXMapError::BadLine {
                            line: line_no,
                            message: format!("expected `:` after cell index, got {other:?}"),
                        })
                    }
                }
                let pats: Result<Vec<usize>, _> = tokens.map(str::parse).collect();
                let pats = pats.map_err(|e| ReadXMapError::BadLine {
                    line: line_no,
                    message: format!("bad pattern index: {e}"),
                })?;
                entries.push((cell, pats, line_no));
            }
            Some(other) => {
                return Err(ReadXMapError::BadLine {
                    line: line_no,
                    message: format!("unknown directive `{other}`"),
                })
            }
            None => {}
        }
    }

    let lengths = lengths.ok_or(ReadXMapError::MissingDeclaration("chains"))?;
    let patterns = patterns.ok_or(ReadXMapError::MissingDeclaration("patterns"))?;
    if lengths.is_empty() || lengths.contains(&0) {
        return Err(ReadXMapError::BadLine {
            line: 2,
            message: "chains must be non-empty with positive lengths".into(),
        });
    }
    let config = ScanConfig::new(lengths);
    let mut seen = HashSet::with_capacity(entries.len());
    let mut xsets = Vec::with_capacity(entries.len());
    for (cell, pats, line_no) in entries {
        let violation = |code, message| ReadXMapError::Violation {
            line: line_no,
            code,
            message,
        };
        if cell >= config.total_cells() {
            return Err(violation(
                LintCode::XOutOfRange,
                format!("cell index {cell} out of range"),
            ));
        }
        // Maps hold cell indices as `u32`, as the wire format does.
        let Ok(idx) = u32::try_from(cell) else {
            return Err(ReadXMapError::BadLine {
                line: line_no,
                message: format!("cell index {cell} does not fit in 32 bits"),
            });
        };
        if !seen.insert(cell) {
            return Err(violation(
                LintCode::DuplicateX,
                format!("cell index {cell} repeated"),
            ));
        }
        let mut xs = PatternSet::empty(patterns);
        for p in pats {
            if p >= patterns {
                return Err(violation(
                    LintCode::XOutOfRange,
                    format!("pattern index {p} out of range"),
                ));
            }
            if xs.contains(p) {
                return Err(violation(
                    LintCode::DuplicateX,
                    format!("pattern index {p} repeated for cell {cell}"),
                ));
            }
            xs.insert(p);
        }
        if !xs.is_empty() {
            xsets.push((idx, xs));
        }
    }
    Ok(XMap::from_entries(config, patterns, xsets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CellId;
    use crate::xmap::XMapBuilder;

    fn sample_map() -> XMap {
        let cfg = ScanConfig::new(vec![3, 2, 3]);
        let mut b = XMapBuilder::new(cfg, 6);
        b.add_x(CellId::new(0, 0), 0).unwrap();
        b.add_x(CellId::new(0, 0), 3).unwrap();
        b.add_x(CellId::new(2, 2), 5).unwrap();
        b.finish()
    }

    #[test]
    fn roundtrip() {
        let xmap = sample_map();
        let mut buf = Vec::new();
        write_xmap(&mut buf, &xmap).unwrap();
        let back = read_xmap(&buf[..]).unwrap();
        assert_eq!(back, xmap);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "xmap v1\n# comment\n\nchains 2 2\npatterns 3\n# more\nx 1 : 0 2\n";
        let xmap = read_xmap(text.as_bytes()).unwrap();
        assert_eq!(xmap.total_x(), 2);
        assert_eq!(xmap.config().num_chains(), 2);
    }

    #[test]
    fn a_cell_index_past_32_bits_is_rejected() {
        let text = "xmap v1\nchains 5000000000\npatterns 1\nx 4294967296 : 0\n";
        let err = read_xmap(text.as_bytes()).unwrap_err();
        assert!(
            matches!(err, ReadXMapError::BadLine { line: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn bad_header_rejected() {
        let err = read_xmap("xmap v2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadXMapError::BadHeader(_)));
        assert!(err.to_string().contains("xmap v1"));
    }

    #[test]
    fn missing_declarations_rejected() {
        let err = read_xmap("xmap v1\npatterns 3\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadXMapError::MissingDeclaration("chains")));
        let err = read_xmap("xmap v1\nchains 2\n".as_bytes()).unwrap_err();
        assert!(matches!(err, ReadXMapError::MissingDeclaration("patterns")));
    }

    #[test]
    fn out_of_range_rejected() {
        let text = "xmap v1\nchains 2\npatterns 3\nx 5 : 0\n";
        let err = read_xmap(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"));
        assert_eq!(err.code(), Some(LintCode::XOutOfRange));
        let text = "xmap v1\nchains 2\npatterns 3\nx 1 : 7\n";
        let err = read_xmap(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("out of range"));
        assert_eq!(err.code(), Some(LintCode::XOutOfRange));
    }

    #[test]
    fn unknown_directive_rejected() {
        let text = "xmap v1\nchains 2\npatterns 3\nbogus 1\n";
        let err = read_xmap(text.as_bytes()).unwrap_err();
        assert!(err.to_string().contains("unknown directive"));
        assert_eq!(err.code(), None);
    }

    #[test]
    fn empty_map_roundtrips() {
        let cfg = ScanConfig::uniform(1, 1);
        let xmap = XMapBuilder::new(cfg, 2).finish();
        let mut buf = Vec::new();
        write_xmap(&mut buf, &xmap).unwrap();
        let back = read_xmap(&buf[..]).unwrap();
        assert_eq!(back.total_x(), 0);
    }
}
