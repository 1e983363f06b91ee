//! Matrix Market (`.mtx`) I/O.
//!
//! Supports the `matrix coordinate real {general|symmetric}` and
//! `matrix coordinate pattern {general|symmetric}` headers, which covers the
//! SuiteSparse matrices of Figure 14 and the SNAP graphs of Table 3 so that
//! users with the original datasets can run the harness on them verbatim.

use std::io::{BufRead, BufReader, Read, Write};

use crate::{Coo, Error, MetaData, Result};

/// Reads a Matrix Market coordinate file into COO.
///
/// Pattern files get unit values; symmetric files are expanded (the mirror
/// entry is materialized for every off-diagonal entry). Indices in the file
/// are 1-based per the Matrix Market convention.
///
/// # Errors
///
/// Returns [`Error::Parse`] for malformed headers or entries — including
/// NaN/infinite values, entry counts that overflow or exceed the declared
/// shape's capacity — and [`Error::IndexOutOfBounds`] when an entry exceeds
/// the declared shape.
pub fn read_matrix_market<R: Read>(reader: R) -> Result<Coo> {
    let reader = BufReader::new(reader);
    let mut lines = reader.lines().enumerate();

    let (lineno, header) = lines
        .next()
        .ok_or_else(|| parse_err(1, "empty file"))?
        .map_parse()?;
    let header = header.to_ascii_lowercase();
    let fields: Vec<&str> = header.split_whitespace().collect();
    if fields.len() < 4 || fields[0] != "%%matrixmarket" || fields[1] != "matrix" {
        return Err(parse_err(
            lineno + 1,
            "missing %%MatrixMarket matrix header",
        ));
    }
    if fields[2] != "coordinate" {
        return Err(parse_err(lineno + 1, "only coordinate format is supported"));
    }
    let pattern = match fields[3] {
        "real" | "integer" => false,
        "pattern" => true,
        other => {
            return Err(parse_err(
                lineno + 1,
                &format!("unsupported field type {other}"),
            ))
        }
    };
    let symmetric = match fields.get(4).copied().unwrap_or("general") {
        "general" => false,
        "symmetric" => true,
        other => {
            return Err(parse_err(
                lineno + 1,
                &format!("unsupported symmetry {other}"),
            ))
        }
    };

    // Skip comments, find the size line.
    let mut size: Option<(usize, usize, usize)> = None;
    let mut coo = Coo::new(0, 0);
    let mut remaining = 0usize;
    for (lineno, line) in lines {
        let line = line.map_err(|e| parse_err(lineno + 1, &e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('%') {
            continue;
        }
        let toks: Vec<&str> = trimmed.split_whitespace().collect();
        if size.is_none() {
            if toks.len() != 3 {
                return Err(parse_err(lineno + 1, "size line must have 3 fields"));
            }
            let rows = parse_usize(toks[0], lineno + 1)?;
            let cols = parse_usize(toks[1], lineno + 1)?;
            let nnz = parse_usize(toks[2], lineno + 1)?;
            let capacity = if symmetric {
                // Mirror entries are materialized, so up to 2·nnz land
                // in the COO — reject counts that overflow that bound.
                nnz.checked_mul(2).ok_or_else(|| {
                    parse_err(lineno + 1, "entry count overflows (2*nnz > usize::MAX)")
                })?
            } else {
                nnz
            };
            if let Some(cells) = rows.checked_mul(cols) {
                if nnz > cells {
                    return Err(parse_err(
                        lineno + 1,
                        &format!("{nnz} entries declared for a {rows}x{cols} matrix"),
                    ));
                }
            }
            coo = Coo::with_capacity(rows, cols, capacity);
            size = Some((rows, cols, nnz));
            remaining = nnz;
        } else {
            if remaining == 0 {
                return Err(parse_err(lineno + 1, "more entries than declared"));
            }
            let expect = if pattern { 2 } else { 3 };
            if toks.len() < expect {
                return Err(parse_err(lineno + 1, "entry line is too short"));
            }
            let r = parse_usize(toks[0], lineno + 1)?;
            let c = parse_usize(toks[1], lineno + 1)?;
            if r == 0 || c == 0 {
                return Err(parse_err(lineno + 1, "matrix market indices are 1-based"));
            }
            let v = if pattern {
                1.0
            } else {
                toks[2]
                    .parse::<f64>()
                    .map_err(|e| parse_err(lineno + 1, &e.to_string()))?
            };
            if !v.is_finite() {
                return Err(parse_err(
                    lineno + 1,
                    &format!("non-finite matrix value {v}"),
                ));
            }
            coo.try_push(r - 1, c - 1, v)?;
            if symmetric && r != c {
                coo.try_push(c - 1, r - 1, v)?;
            }
            remaining -= 1;
        }
    }
    if size.is_none() {
        return Err(parse_err(0, "missing size line"));
    }
    if remaining != 0 {
        return Err(parse_err(0, "fewer entries than declared"));
    }
    Ok(coo)
}

/// Writes a COO matrix as `matrix coordinate real general`.
///
/// # Errors
///
/// Returns [`Error::Io`] on write failure.
pub fn write_matrix_market<W: Write>(mut writer: W, coo: &Coo) -> Result<()> {
    writeln!(writer, "%%MatrixMarket matrix coordinate real general")?;
    writeln!(writer, "{} {} {}", coo.rows(), coo.cols(), coo.nnz())?;
    for &(r, c, v) in coo.entries() {
        writeln!(writer, "{} {} {v:e}", r + 1, c + 1)?;
    }
    Ok(())
}

fn parse_err(line: usize, message: &str) -> Error {
    Error::Parse {
        line,
        message: message.to_string(),
    }
}

fn parse_usize(tok: &str, line: usize) -> Result<usize> {
    tok.parse::<usize>()
        .map_err(|e| parse_err(line, &e.to_string()))
}

trait MapParse {
    fn map_parse(self) -> Result<(usize, String)>;
}

impl MapParse for (usize, std::io::Result<String>) {
    fn map_parse(self) -> Result<(usize, String)> {
        let (n, r) = self;
        r.map(|s| (n, s))
            .map_err(|e| parse_err(n + 1, &e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_general() {
        let mut coo = Coo::new(3, 3);
        coo.push(0, 0, 1.5);
        coo.push(2, 1, -2.25);
        let mut buf = Vec::new();
        write_matrix_market(&mut buf, &coo).unwrap();
        let back = read_matrix_market(&buf[..]).unwrap();
        assert_eq!(back.compress(), coo.compress());
    }

    #[test]
    fn reads_symmetric_expansion() {
        let src = "%%MatrixMarket matrix coordinate real symmetric\n3 3 2\n1 1 4.0\n3 1 2.0\n";
        let coo = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(coo.nnz(), 3);
        assert_eq!(coo.get(0, 2), 2.0);
        assert_eq!(coo.get(2, 0), 2.0);
    }

    #[test]
    fn reads_pattern_as_unit_values() {
        let src = "%%MatrixMarket matrix coordinate pattern general\n2 2 1\n2 1\n";
        let coo = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(coo.get(1, 0), 1.0);
    }

    #[test]
    fn skips_comments_and_blank_lines() {
        let src = "%%MatrixMarket matrix coordinate real general\n% a comment\n\n2 2 1\n1 2 3.0\n";
        let coo = read_matrix_market(src.as_bytes()).unwrap();
        assert_eq!(coo.get(0, 1), 3.0);
    }

    #[test]
    fn rejects_bad_header() {
        let src = "%%NotMatrixMarket\n1 1 0\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn rejects_array_format() {
        let src = "%%MatrixMarket matrix array real general\n2 2\n1.0\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn rejects_zero_based_index() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 3.0\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn rejects_entry_count_mismatch() {
        let short = "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n";
        assert!(read_matrix_market(short.as_bytes()).is_err());
        let long = "%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1.0\n2 2 1.0\n";
        assert!(read_matrix_market(long.as_bytes()).is_err());
    }

    #[test]
    fn rejects_out_of_bounds_entry() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 1\n3 1 1.0\n";
        assert!(read_matrix_market(src.as_bytes()).is_err());
    }

    #[test]
    fn rejects_nan_and_infinite_values() {
        for bad in ["NaN", "nan", "inf", "-inf", "infinity"] {
            let src = format!("%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 {bad}\n");
            let err = read_matrix_market(src.as_bytes()).unwrap_err();
            assert!(
                matches!(err, Error::Parse { line: 3, .. }),
                "{bad}: {err:?}"
            );
        }
    }

    #[test]
    fn rejects_symmetric_entry_count_overflow() {
        let nnz = usize::MAX;
        let src = format!("%%MatrixMarket matrix coordinate real symmetric\n3 3 {nnz}\n");
        let err = read_matrix_market(src.as_bytes()).unwrap_err();
        assert!(matches!(err, Error::Parse { line: 2, .. }), "{err:?}");
    }

    #[test]
    fn rejects_more_entries_than_matrix_cells() {
        let src = "%%MatrixMarket matrix coordinate real general\n2 2 5\n";
        let err = read_matrix_market(src.as_bytes()).unwrap_err();
        assert!(matches!(err, Error::Parse { line: 2, .. }), "{err:?}");
    }

    #[test]
    fn malformed_banner_carries_line_number() {
        let err = read_matrix_market("not a banner\n".as_bytes()).unwrap_err();
        assert!(matches!(err, Error::Parse { line: 1, .. }), "{err:?}");
    }
}
