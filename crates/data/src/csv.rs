//! Minimal CSV ingestion: load a file (or reader) into a [`Table`],
//! inferring per-column types.
//!
//! Dependency-free by design: handles the common subset of RFC 4180 —
//! comma separation, double-quoted fields with `""` escapes, a header
//! row, and `\r\n`/`\n` line endings. A column becomes
//! [`crate::Column::Continuous`] when every non-empty value parses as a
//! float, otherwise categorical (dictionary-encoded). Empty fields become
//! NaN-free sentinels: the column's minimum for continuous columns, the
//! empty string for categorical ones.

use crate::column::{CatColumn, Column, ContColumn};
use crate::error::DataError;
use crate::table::Table;
use std::io::BufRead;
use std::path::Path;

/// Parse one CSV record (handles quotes); returns the fields.
fn parse_record(line: &str) -> Vec<String> {
    let mut fields = Vec::new();
    let mut cur = String::new();
    let mut chars = line.chars().peekable();
    let mut quoted = false;
    while let Some(c) = chars.next() {
        match c {
            '"' if quoted => {
                if chars.peek() == Some(&'"') {
                    chars.next();
                    cur.push('"');
                } else {
                    quoted = false;
                }
            }
            '"' if cur.is_empty() => quoted = true,
            ',' if !quoted => fields.push(std::mem::take(&mut cur)),
            _ => cur.push(c),
        }
    }
    fields.push(cur);
    fields
}

/// Load a table from any buffered reader. The first record is the header.
// audit-allow(dead-pub): README's "Beyond the paper" entry point for loading your own data
pub fn read_csv<R: BufRead>(name: &str, reader: R) -> Result<Table, DataError> {
    let mut lines = reader.lines();
    let header = match lines.next() {
        Some(Ok(h)) => h,
        _ => return Err(DataError::EmptyTable),
    };
    let names = parse_record(header.trim_end_matches('\r'));
    let ncols = names.len();
    let mut raw: Vec<Vec<String>> = vec![Vec::new(); ncols];
    for line in lines {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let line = line.trim_end_matches('\r');
        if line.is_empty() {
            continue;
        }
        let fields = parse_record(line);
        for (c, slot) in raw.iter_mut().enumerate() {
            slot.push(fields.get(c).cloned().unwrap_or_default());
        }
    }
    if raw.first().is_none_or(|c| c.is_empty()) {
        return Err(DataError::EmptyTable);
    }

    let columns =
        names.into_iter().zip(raw).map(|(name, values)| build_column(name, values)).collect();
    Table::new(name, columns)
}

/// Load a table from a CSV file; the table takes the file stem as name.
// audit-allow(dead-pub): README's "Beyond the paper" entry point for loading your own data
pub fn read_csv_file(path: impl AsRef<Path>) -> Result<Table, DataError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path).map_err(|_| DataError::EmptyTable)?;
    let name = path.file_stem().and_then(|s| s.to_str()).unwrap_or("csv").to_string();
    read_csv(&name, std::io::BufReader::new(file))
}

fn build_column(name: String, values: Vec<String>) -> Column {
    let mut parsed: Vec<Option<f64>> = Vec::with_capacity(values.len());
    let mut numeric = true;
    for v in &values {
        if v.is_empty() {
            parsed.push(None);
            continue;
        }
        match v.trim().parse::<f64>() {
            Ok(f) if f.is_finite() => parsed.push(Some(f)),
            _ => {
                numeric = false;
                break;
            }
        }
    }
    if numeric && parsed.iter().any(Option::is_some) {
        let min = parsed.iter().flatten().copied().fold(f64::INFINITY, f64::min);
        let vals = parsed.into_iter().map(|v| v.unwrap_or(min)).collect();
        Column::Continuous(ContColumn::new(name, vals))
    } else {
        let refs: Vec<&str> = values.iter().map(String::as_str).collect();
        Column::Categorical(CatColumn::from_values(name, &refs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn infers_types_from_header_and_rows() {
        let csv = "city,lat,pop\nParis,48.85,100\n\"Los, Angeles\",34.05,200\nParis,48.90,\n";
        let t = read_csv("demo", Cursor::new(csv)).unwrap();
        assert_eq!(t.nrows(), 3);
        assert_eq!(t.ncols(), 3);
        match &t.columns[0] {
            Column::Categorical(c) => {
                assert_eq!(c.domain_size(), 2);
                assert_eq!(c.dict[0], "Los, Angeles"); // 'L' < 'P'
            }
            _ => panic!("city must be categorical"),
        }
        assert!(t.columns[1].is_continuous());
        match &t.columns[2] {
            // empty pop field becomes the column minimum (100)
            Column::Continuous(c) => assert_eq!(c.values, vec![100.0, 200.0, 100.0]),
            _ => panic!("pop must be continuous"),
        }
    }

    #[test]
    fn quoted_escapes() {
        let csv = "a\n\"say \"\"hi\"\"\"\nplain\n";
        let t = read_csv("q", Cursor::new(csv)).unwrap();
        match &t.columns[0] {
            Column::Categorical(c) => {
                assert!(c.dict.contains(&"say \"hi\"".to_string()));
            }
            _ => panic!(),
        }
    }

    #[test]
    fn empty_input_errors() {
        assert!(read_csv("e", Cursor::new("")).is_err());
        assert!(read_csv("e", Cursor::new("a,b\n")).is_err());
    }

    #[test]
    fn mixed_column_falls_back_to_categorical() {
        let csv = "x\n1.5\nnot_a_number\n2.5\n";
        let t = read_csv("m", Cursor::new(csv)).unwrap();
        assert!(!t.columns[0].is_continuous());
    }

    #[test]
    fn crlf_line_endings() {
        let csv = "a,b\r\n1,2\r\n3,4\r\n";
        let t = read_csv("crlf", Cursor::new(csv)).unwrap();
        assert_eq!(t.nrows(), 2);
        assert!(t.columns.iter().all(|c| c.is_continuous()));
    }
}
