//! The streaming ingest format.
//!
//! A batch is a run of lines in two shapes, distinguished by a `->`
//! outside quotes:
//!
//! ```text
//! # member lines reuse the instance grammar (odc-instance::text):
//! Canada  : Country < all
//! Toronto : City    < Canada
//! s1      : Store   < Toronto
//! # fact lines key one base member per dimension, then the measure:
//! s1 -> 42
//! s1, d3 -> 17        # two-dimensional store
//! # members of a non-first dimension carry an `@dim` prefix:
//! @1 d3 : Day < Jan
//! ```
//!
//! `#` starts a comment (quote-aware, as in the instance format); blank
//! lines are skipped. Line numbers are global across batches — callers
//! pass the stream position of the first line so errors point at the
//! facts file the user actually has open.

use crate::error::IngestError;
use odc_core::instance::text::{
    parse_member_line, split_unquoted, strip_comment, unquote, unquoted_bytes, MemberLine,
};
use std::ops::Range;

/// A member declaration staged for ingest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawMember<'a> {
    /// 1-based stream line.
    pub row: usize,
    /// Dimension the member belongs to (`@dim` prefix; 0 by default).
    pub dim: usize,
    /// The parsed member line, borrowing the stream text.
    pub line: MemberLine<'a>,
}

/// A fact row staged for ingest: where its member keys sit in the
/// batch's key column, plus the measure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawFact {
    /// 1-based stream line.
    pub row: usize,
    /// The row's keys in [`StagedBatch::fact_keys`], one per dimension
    /// in dimension order.
    pub keys: Range<usize>,
    /// The measure.
    pub measure: i64,
}

/// One parsed ingest batch: members first, then facts (the parse keeps
/// stream order within each group; validation is order-insensitive
/// inside a batch since the whole batch commits or rejects atomically).
/// Every key borrows the stream text, which must outlive the batch.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StagedBatch<'a> {
    /// Member declarations in the batch.
    pub members: Vec<RawMember<'a>>,
    /// Fact rows in the batch.
    pub facts: Vec<RawFact>,
    /// Every fact row's member keys (unquoted), row after row.
    pub fact_keys: Vec<&'a str>,
}

impl<'a> StagedBatch<'a> {
    /// Whether the batch stages nothing.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty() && self.facts.is_empty()
    }

    /// Total staged lines.
    pub fn len(&self) -> usize {
        self.members.len() + self.facts.len()
    }

    /// The member keys of one fact row, in dimension order.
    pub fn keys(&self, fact: &RawFact) -> &[&'a str] {
        &self.fact_keys[fact.keys.clone()]
    }
}

/// Parses a run of stream lines into a batch that borrows `src`.
/// `first_line` is the 1-based stream position of the first line of
/// `src`, so diagnostics carry global line numbers across batches.
pub fn parse_batch(src: &str, first_line: usize) -> Result<StagedBatch<'_>, IngestError> {
    let mut batch = StagedBatch::default();
    let lines = src.bytes().filter(|&b| b == b'\n').count() + 1;
    for (i, raw) in src.lines().enumerate() {
        let row = first_line + i;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        let (dim, body) = split_dim_prefix(line).map_err(|message| IngestError::Syntax {
            row,
            message,
        })?;
        if let Some(arrow) = find_arrow(body) {
            let (keys_part, measure_part) = (&body[..arrow], &body[arrow + 2..]);
            if dim != 0 {
                return Err(IngestError::Syntax {
                    row,
                    message: "fact lines key every dimension; `@dim` applies to members only"
                        .into(),
                });
            }
            if batch.facts.is_empty() {
                // Size the fact columns once, for the lines left.
                batch.facts.reserve(lines - i);
                batch.fact_keys.reserve(lines - i);
            }
            let start = batch.fact_keys.len();
            for k in split_unquoted(keys_part, b',') {
                let key = unquote(k.trim());
                if key.is_empty() {
                    return Err(IngestError::Syntax {
                        row,
                        message: "empty member key in fact row".into(),
                    });
                }
                batch.fact_keys.push(key);
            }
            let measure: i64 = measure_part.trim().parse().map_err(|_| IngestError::Syntax {
                row,
                message: format!("bad measure `{}`", measure_part.trim()),
            })?;
            let keys = start..batch.fact_keys.len();
            batch.facts.push(RawFact { row, keys, measure });
        } else {
            match parse_member_line(body) {
                Ok(Some(line)) => batch.members.push(RawMember { row, dim, line }),
                Ok(None) => {}
                Err(message) => return Err(IngestError::Syntax { row, message }),
            }
        }
    }
    Ok(batch)
}

/// Splits an optional `@dim` prefix off a (already comment-stripped,
/// trimmed, non-empty) line.
fn split_dim_prefix(line: &str) -> Result<(usize, &str), String> {
    let Some(rest) = line.strip_prefix('@') else {
        return Ok((0, line));
    };
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    let digits = &rest[..end];
    let dim: usize = digits
        .parse()
        .map_err(|_| format!("bad dimension prefix `@{digits}`"))?;
    Ok((dim, rest[end..].trim_start()))
}

/// Finds the byte offset of a `->` outside quoted tokens, the marker
/// distinguishing fact rows from member lines.
fn find_arrow(line: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    unquoted_bytes(line)
        .find(|&(i, b)| b == b'-' && bytes.get(i + 1) == Some(&b'>'))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn members_and_facts_separate() {
        let src = "Canada : Country < all\n\n# comment\ns1 : Store < Canada\ns1 -> 42\n";
        let b = parse_batch(src, 1).unwrap();
        assert_eq!(b.members.len(), 2);
        assert_eq!(b.facts.len(), 1);
        assert_eq!(b.members[0].row, 1);
        assert_eq!(b.members[1].row, 4);
        assert_eq!(b.facts[0].row, 5);
        assert_eq!(b.keys(&b.facts[0]), ["s1"]);
        assert_eq!(b.facts[0].measure, 42);
        assert_eq!(b.len(), 3);
        assert!(!b.is_empty());
    }

    #[test]
    fn dim_prefix_routes_members() {
        let b = parse_batch("@1 d3 : Day < Jan\n", 10).unwrap();
        assert_eq!(b.members[0].dim, 1);
        assert_eq!(b.members[0].row, 10);
        assert_eq!(b.members[0].line.key, "d3");
    }

    #[test]
    fn multi_dim_facts_and_negative_measures() {
        let b = parse_batch("s1, d3 -> -17\n", 1).unwrap();
        assert_eq!(b.keys(&b.facts[0]), ["s1", "d3"]);
        assert_eq!(b.facts[0].measure, -17);
        let b = parse_batch("\"p,q\" -> 5\n\"a b\", \"c->d\" -> 6\n", 1).unwrap();
        assert_eq!(b.keys(&b.facts[0]), ["p,q"]);
        assert_eq!(b.keys(&b.facts[1]), ["a b", "c->d"]);
    }

    #[test]
    fn arrow_inside_quotes_is_a_member() {
        let b = parse_batch("\"a->b\" : Store < all\n", 1).unwrap();
        assert_eq!(b.members[0].line.key, "a->b");
        assert!(b.facts.is_empty());
    }

    #[test]
    fn errors_carry_global_line_numbers() {
        let err = parse_batch("s1 -> not-a-number\n", 7).unwrap_err();
        assert_eq!(err.row(), 7);
        assert!(err.to_string().contains("bad measure"));
        let err = parse_batch("@x y : Store\n", 3).unwrap_err();
        assert!(matches!(err, IngestError::Syntax { row: 3, .. }));
        let err = parse_batch("@1 s1, d1 -> 4\n", 2).unwrap_err();
        assert!(err.to_string().contains("members only"));
    }
}
