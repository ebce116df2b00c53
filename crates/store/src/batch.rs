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
//! lines are skipped. A `"` opens a quoted token only at a token start,
//! and inside one no separator counts (`#`, `->`, `:`, `<`, `=`, `,`);
//! the `@dim` prefix comes off before that reading, so a quoted key
//! behind it may hold any of them. Each line is walked once
//! ([`LineCuts`]), and the walk's cut points give the line's shape and
//! every field. Line numbers are global across batches — callers
//! pass the stream position of the first line so errors point at the
//! facts file the user actually has open.

use crate::error::IngestError;
use odc_core::instance::text::{LineCuts, MemberLine};
use std::ops::Range;

/// A member declaration staged for ingest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RawMember<'a> {
    /// 1-based stream line.
    pub row: usize,
    /// Dimension the member belongs to (`@dim` prefix; 0 by default).
    pub dim: usize,
    /// The parsed member line, borrowing the stream text; its parents
    /// sit in [`StagedBatch::parent_keys`].
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
    /// Every member line's parent keys (unquoted), line after line.
    pub parent_keys: Vec<&'a str>,
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

    /// The parent keys of one member line, in declaration order (`all`
    /// refers to the top member).
    pub fn parents(&self, member: &RawMember<'a>) -> &[&'a str] {
        &self.parent_keys[member.line.parents.clone()]
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
    parse_into(&mut batch, src, first_line)?;
    Ok(batch)
}

/// Parses `src` onto the end of `batch` (see [`parse_batch`]). Each
/// line is walked once ([`LineCuts`]); the member and fact columns are
/// sized once, from the line and comma counts, when the first line of
/// their kind appears.
pub(crate) fn parse_into<'a>(
    batch: &mut StagedBatch<'a>,
    src: &'a str,
    first_line: usize,
) -> Result<(), IngestError> {
    let (newlines, commas) = count_newlines_and_commas(src.as_bytes());
    let lines = newlines + 1;
    // Upper bound on the keys the lines from `i` on can hold: one per
    // line, plus one per comma.
    let keys_left = |i: usize| lines - i + commas;
    let (mut members_sized, mut facts_sized) = (false, false);
    let mut cuts = LineCuts::default();
    for (i, raw) in src.lines().enumerate() {
        let row = first_line + i;
        let syntax = |message: String| IngestError::Syntax { row, message };
        // The `@dim` prefix comes off before the scan: a quote opens a
        // token only at a token start, which the prefix would hide.
        let (dim, body) = split_dim_prefix(raw.trim_start()).map_err(syntax)?;
        cuts.scan(body);
        if cuts.is_blank(body) {
            continue;
        }
        if let Some(arrow) = cuts.arrow() {
            if dim != 0 {
                return Err(syntax(
                    "fact lines key every dimension; `@dim` applies to members only".into(),
                ));
            }
            if !facts_sized {
                facts_sized = true;
                batch.facts.reserve(lines - i);
                batch.fact_keys.reserve(keys_left(i));
            }
            let start = batch.fact_keys.len();
            for key in cuts.pieces(body, 0, arrow) {
                if key.is_empty() {
                    return Err(syntax("empty member key in fact row".into()));
                }
                batch.fact_keys.push(key);
            }
            let measure_text = body[arrow + 2..cuts.end()].trim();
            let measure: i64 = measure_text
                .parse()
                .map_err(|_| syntax(format!("bad measure `{measure_text}`")))?;
            let keys = start..batch.fact_keys.len();
            batch.facts.push(RawFact { row, keys, measure });
        } else {
            if !members_sized {
                members_sized = true;
                batch.members.reserve(lines - i);
                batch.parent_keys.reserve(keys_left(i));
            }
            let line = cuts.member(body, &mut batch.parent_keys).map_err(syntax)?;
            batch.members.push(RawMember { row, dim, line });
        }
    }
    Ok(())
}

/// How many `\n` and `,` bytes `bytes` holds, counted in runs short
/// enough for byte-wide counters (which vectorize). Every batch, fact
/// batches included, is sized from these counts: counted one byte at a
/// time into `usize`, they cost about 1 ms of a 65,536-row fact batch's
/// 9 ms parse and ingest, and 3 ms of a 90,761-member store's reopen
/// (2-vCPU host), where these runs take a tenth of that.
fn count_newlines_and_commas(bytes: &[u8]) -> (usize, usize) {
    bytes.chunks(255).fold((0, 0), |(n, c), run| {
        let (rn, rc) = run.iter().fold((0u8, 0u8), |(n, c), &b| {
            (n + u8::from(b == b'\n'), c + u8::from(b == b','))
        });
        (n + usize::from(rn), c + usize::from(rc))
    })
}

/// Splits an optional `@dim` prefix off a line whose leading whitespace
/// is already gone.
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
    fn quoted_hash_behind_a_dim_prefix_is_part_of_the_key() {
        let src = "@1 \"a#b\" : Store < all\n@0 \"c#d\" : Store < all # note\n";
        let b = parse_batch(src, 1).unwrap();
        assert_eq!(b.members.len(), 2);
        assert_eq!((b.members[0].dim, b.members[0].line.key), (1, "a#b"));
        assert_eq!((b.members[1].dim, b.members[1].line.key), (0, "c#d"));
        assert_eq!(b.parents(&b.members[1]), ["all"]);
        // A bare `#` behind the prefix still starts a comment.
        let b = parse_batch("@1 # just a comment\n@2\n", 1).unwrap();
        assert!(b.is_empty());
    }

    #[test]
    fn parents_form_one_column() {
        let b = parse_batch("a : C < p, \"q,r\"\nb : C\nc : C < all # x\n", 1).unwrap();
        assert_eq!(b.parent_keys, ["p", "q,r", "all"]);
        let ranges: Vec<_> = b.members.iter().map(|m| m.line.parents.clone()).collect();
        assert_eq!(ranges, [0..2, 2..2, 2..3]);
        assert_eq!(b.parents(&b.members[0]), ["p", "q,r"]);
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
