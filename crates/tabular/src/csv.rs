//! Minimal CSV reader/writer for coded datasets.
//!
//! Supports the common case needed by downstream users: a header row, a
//! designated label column with configurable positive value, automatic
//! type inference (numeric vs categorical), and quoting of fields that
//! contain separators. Numeric columns come back as
//! [`RawColumn::Numeric`] so they can be discretized; categorical columns
//! are coded in first-appearance order.

use std::fmt::Write as _;
use std::path::Path;

use crate::dataset::Dataset;
use crate::discretize::{RawAttribute, RawColumn, RawDataset};
use crate::error::{Result, TabularError};

/// Options controlling CSV parsing.
#[derive(Debug, Clone)]
pub struct CsvOptions {
    /// Field separator (default `,`).
    pub separator: char,
    /// Name of the label column.
    pub label_column: String,
    /// Label values equal to this string (case-sensitive) become `true`.
    pub positive_label: String,
}

impl Default for CsvOptions {
    fn default() -> Self {
        Self { separator: ',', label_column: "label".into(), positive_label: "1".into() }
    }
}

/// Splits one CSV line honoring double-quote quoting (`"a,b"` is one field,
/// `""` inside quotes is an escaped quote).
fn split_line(line: &str, sep: char) -> Vec<String> {
    let mut fields = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut chars = line.chars().peekable();
    while let Some(c) = chars.next() {
        if in_quotes {
            if c == '"' {
                if chars.peek() == Some(&'"') {
                    field.push('"');
                    chars.next();
                } else {
                    in_quotes = false;
                }
            } else {
                field.push(c);
            }
        } else if c == '"' {
            in_quotes = true;
        } else if c == sep {
            fields.push(std::mem::take(&mut field));
        } else {
            field.push(c);
        }
    }
    fields.push(field);
    fields
}

/// Quotes a field if needed for writing.
fn quote_field(s: &str, sep: char) -> String {
    if s.contains(sep) || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Parses CSV text into a [`RawDataset`].
pub fn parse_csv(text: &str, opts: &CsvOptions) -> Result<RawDataset> {
    let mut lines = text.lines().enumerate().filter(|(_, l)| !l.trim().is_empty());
    let (_, header) = lines
        .next()
        .ok_or(TabularError::CsvParse { line: 1, message: "missing header".into() })?;
    let names = split_line(header, opts.separator);
    let label_idx = names.iter().position(|n| *n == opts.label_column).ok_or_else(|| {
        TabularError::CsvParse {
            line: 1,
            message: format!("label column `{}` not found in header", opts.label_column),
        }
    })?;

    let mut raw_fields: Vec<Vec<String>> = vec![Vec::new(); names.len()];
    for (lineno, line) in lines {
        let fields = split_line(line, opts.separator);
        if fields.len() != names.len() {
            return Err(TabularError::CsvParse {
                line: lineno + 1,
                message: format!("expected {} fields, found {}", names.len(), fields.len()),
            });
        }
        for (j, f) in fields.into_iter().enumerate() {
            raw_fields[j].push(f);
        }
    }

    let labels: Vec<bool> =
        raw_fields[label_idx].iter().map(|v| *v == opts.positive_label).collect();

    let mut attributes = Vec::new();
    for (j, name) in names.iter().enumerate() {
        if j == label_idx {
            continue;
        }
        let fields = &raw_fields[j];
        let numeric: Option<Vec<f64>> =
            fields.iter().map(|f| f.trim().parse::<f64>().ok()).collect();
        let column = match numeric {
            Some(values) => RawColumn::Numeric(values),
            None => {
                let mut labels_seen: Vec<String> = Vec::new();
                let mut codes = Vec::with_capacity(fields.len());
                for f in fields {
                    let code = match labels_seen.iter().position(|l| l == f) {
                        Some(i) => i as u16,
                        None => {
                            labels_seen.push(f.clone());
                            (labels_seen.len() - 1) as u16
                        }
                    };
                    codes.push(code);
                }
                RawColumn::Categorical { codes, labels: labels_seen }
            }
        };
        attributes.push(RawAttribute { name: name.clone(), column });
    }
    RawDataset::new(attributes, labels)
}

/// Reads a CSV file into a [`RawDataset`].
pub fn read_csv(path: impl AsRef<Path>, opts: &CsvOptions) -> Result<RawDataset> {
    let text = std::fs::read_to_string(path)?;
    parse_csv(&text, opts)
}

/// Renders a coded [`Dataset`] as CSV text with human-readable value labels.
pub fn to_csv(data: &Dataset, opts: &CsvOptions) -> String {
    let sep = opts.separator;
    let schema = data.schema();
    let mut out = String::new();
    let header: Vec<String> = schema
        .attributes()
        .iter()
        .map(|a| quote_field(a.name(), sep))
        .chain(std::iter::once(quote_field(schema.label_name(), sep)))
        .collect();
    let _ = writeln!(out, "{}", header.join(&sep.to_string()));
    for row in 0..data.num_rows() {
        let mut fields: Vec<String> = (0..data.num_attributes())
            .map(|a| {
                // fume-lint: allow(F001) -- index provenance: `a` iterates 0..num_attributes() of the same schema, so the lookup cannot miss
                let attr = schema.attributes().get(a).expect("attr in range");
                quote_field(attr.value_label(data.code(row, a)).unwrap_or("?"), sep)
            })
            .collect();
        fields.push(quote_field(
            &schema.label_values()[usize::from(data.label(row))],
            sep,
        ));
        let _ = writeln!(out, "{}", fields.join(&sep.to_string()));
    }
    out
}

/// Writes a coded [`Dataset`] to a CSV file.
pub fn write_csv(data: &Dataset, path: impl AsRef<Path>, opts: &CsvOptions) -> Result<()> {
    std::fs::write(path, to_csv(data, opts))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::discretize::{discretize, Discretizer};

    const SAMPLE: &str = "age,housing,label\n25,rent,1\n60,own,0\n35,\"rent,shared\",1\n";

    #[test]
    fn parses_mixed_columns() {
        let raw = parse_csv(SAMPLE, &CsvOptions::default()).unwrap();
        assert_eq!(raw.num_rows(), 3);
        assert_eq!(raw.attributes().len(), 2);
        assert_eq!(raw.labels(), &[true, false, true]);
        match &raw.attributes()[0].column {
            RawColumn::Numeric(v) => assert_eq!(v, &[25.0, 60.0, 35.0]),
            _ => panic!("age should infer numeric"),
        }
        match &raw.attributes()[1].column {
            RawColumn::Categorical { codes, labels } => {
                assert_eq!(codes, &[0, 1, 2]);
                assert_eq!(labels[2], "rent,shared");
            }
            _ => panic!("housing should infer categorical"),
        }
    }

    #[test]
    fn quoted_fields_roundtrip() {
        assert_eq!(
            split_line("a,\"b,c\",\"d\"\"e\"", ','),
            vec!["a", "b,c", "d\"e"]
        );
        assert_eq!(quote_field("plain", ','), "plain");
        assert_eq!(quote_field("a,b", ','), "\"a,b\"");
        assert_eq!(quote_field("q\"q", ','), "\"q\"\"q\"");
    }

    #[test]
    fn missing_label_column_errors() {
        let opts = CsvOptions { label_column: "outcome".into(), ..Default::default() };
        let err = parse_csv(SAMPLE, &opts).unwrap_err();
        assert!(matches!(err, TabularError::CsvParse { line: 1, .. }));
    }

    #[test]
    fn ragged_row_errors_with_line_number() {
        let bad = "a,b,label\n1,2,1\n1,1\n";
        let err = parse_csv(bad, &CsvOptions::default()).unwrap_err();
        match err {
            TabularError::CsvParse { line, .. } => assert_eq!(line, 3),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn empty_input_errors() {
        assert!(parse_csv("", &CsvOptions::default()).is_err());
    }

    #[test]
    fn windows_line_endings_are_tolerated() {
        let crlf = "age,label\r\n25,1\r\n60,0\r\n";
        let raw = parse_csv(crlf, &CsvOptions::default()).unwrap();
        assert_eq!(raw.num_rows(), 2);
        match &raw.attributes()[0].column {
            RawColumn::Numeric(v) => assert_eq!(v, &[25.0, 60.0]),
            _ => panic!("age should still infer numeric despite \\r"),
        }
    }

    #[test]
    fn alternative_separator_and_positive_label() {
        let text = "age;ok\n25;yes\n60;no\n";
        let opts = CsvOptions {
            separator: ';',
            label_column: "ok".into(),
            positive_label: "yes".into(),
        };
        let raw = parse_csv(text, &opts).unwrap();
        assert_eq!(raw.labels(), &[true, false]);
    }

    #[test]
    fn blank_lines_are_skipped() {
        let text = "a,label\n1,1\n\n2,0\n   \n";
        let raw = parse_csv(text, &CsvOptions::default()).unwrap();
        assert_eq!(raw.num_rows(), 2);
    }

    #[test]
    fn dataset_to_csv_and_back() {
        let raw = parse_csv(SAMPLE, &CsvOptions::default()).unwrap();
        let data = discretize(&raw, Discretizer::EqualWidth(2)).unwrap();
        let text = to_csv(&data, &CsvOptions::default());
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), "age,housing,label");
        // age 25 → first bin "< 42.5"; positive label renders as "positive"
        let first = lines.next().unwrap();
        assert!(first.contains("rent") && first.ends_with("positive"), "{first}");
        assert_eq!(text.lines().count(), 4);
    }

    #[test]
    fn file_roundtrip() {
        let dir = std::env::temp_dir().join(format!("fume_csv_test_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("sample.csv");
        std::fs::write(&path, SAMPLE).unwrap();
        let raw = read_csv(&path, &CsvOptions::default()).unwrap();
        assert_eq!(raw.num_rows(), 3);
        let data = discretize(&raw, Discretizer::EqualWidth(2)).unwrap();
        let out = dir.join("out.csv");
        write_csv(&data, &out, &CsvOptions::default()).unwrap();
        assert!(std::fs::read_to_string(&out).unwrap().starts_with("age,housing,label"));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
