//! Differential test of the stream grammar: `parse_batch`, which walks
//! each line once, against an oracle that reads the same lines the
//! multi-pass way — strip the comment, look for the `->`, then cut the
//! member line at `<`, `:` and `=`, and split the parent or key list at
//! `,`, each step its own quote-aware scan.
//!
//! The oracle takes the `@dim` prefix off before it scans, as
//! `parse_batch` does: a quote opens a token only at a token start,
//! which the prefix would hide (`@1 "a#b" : Store` holds the key `a#b`,
//! not a comment). A token start survives any whitespace, so a quote
//! behind U+3000 opens a token in both readings.

use odc_rand::rngs::StdRng;
use odc_rand::{Rng, SeedableRng};
use odc_store::{parse_batch, IngestError};

/// What one line reads as.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Shape {
    Blank,
    Member {
        dim: usize,
        key: String,
        category: String,
        name: Option<String>,
        parents: Vec<String>,
    },
    Fact {
        keys: Vec<String>,
        measure: i64,
    },
}

// ---- the oracle: one quote-aware scan per question -----------------

/// The ASCII bytes of `s` outside quoted tokens, with their offsets: a
/// `"` opens a token only after nothing but whitespace (any
/// `char::is_whitespace`) since the start of `s` or the last `:`, `<`,
/// `=` or `,`, and only when a closing `"` follows.
fn unquoted_bytes(s: &str) -> impl Iterator<Item = (usize, u8)> + '_ {
    let (mut i, mut token_start) = (0, true);
    std::iter::from_fn(move || {
        while let Some(c) = s[i..].chars().next() {
            if c == '"' && token_start {
                if let Some(len) = s[i + 1..].find('"') {
                    i += len + 2;
                    token_start = false;
                    continue;
                }
            }
            i += c.len_utf8();
            token_start = matches!(c, ':' | '<' | '=' | ',') || (token_start && c.is_whitespace());
            if c.is_ascii() {
                return Some((i - 1, c as u8));
            }
        }
        None
    })
}

fn find_unquoted(s: &str, sep: u8) -> Option<usize> {
    unquoted_bytes(s).find(|&(_, b)| b == sep).map(|(i, _)| i)
}

fn split_unquoted(s: &str, sep: u8) -> Vec<&str> {
    let mut out = Vec::new();
    let mut from = 0;
    for (i, _) in unquoted_bytes(s).filter(|&(_, b)| b == sep) {
        out.push(&s[from..i]);
        from = i + 1;
    }
    out.push(&s[from..]);
    out
}

fn unquote(s: &str) -> &str {
    if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
        &s[1..s.len() - 1]
    } else {
        s
    }
}

fn strip_comment(line: &str) -> &str {
    match find_unquoted(line, b'#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn find_arrow(line: &str) -> Option<usize> {
    let bytes = line.as_bytes();
    unquoted_bytes(line)
        .find(|&(i, b)| b == b'-' && bytes.get(i + 1) == Some(&b'>'))
        .map(|(i, _)| i)
}

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

fn member_line(dim: usize, raw: &str) -> Result<Shape, String> {
    let line = strip_comment(raw).trim();
    if line.is_empty() {
        return Ok(Shape::Blank);
    }
    let (head, parent_list) = match find_unquoted(line, b'<') {
        Some(i) => (&line[..i], Some(line[i + 1..].trim())),
        None => (line, None),
    };
    let colon = find_unquoted(head, b':').ok_or_else(|| "expected `key : Category`".to_string())?;
    let key = unquote(head[..colon].trim());
    if key.is_empty() {
        return Err("empty member key".into());
    }
    let rest = &head[colon + 1..];
    let (category, name) = match find_unquoted(rest, b'=') {
        Some(i) => (rest[..i].trim(), Some(unquote(rest[i + 1..].trim()))),
        None => (rest.trim(), None),
    };
    if category.is_empty() {
        return Err("missing category".into());
    }
    let parents = parent_list
        .map(|list| {
            split_unquoted(list, b',')
                .into_iter()
                .map(|p| unquote(p.trim()).to_string())
                .filter(|p| !p.is_empty())
                .collect()
        })
        .unwrap_or_default();
    Ok(Shape::Member {
        dim,
        key: key.into(),
        category: category.into(),
        name: name.map(Into::into),
        parents,
    })
}

/// How the multi-pass reading reads one line at stream row `row`.
fn oracle(raw: &str, row: usize) -> Result<Shape, IngestError> {
    let syntax = |message: String| IngestError::Syntax { row, message };
    let (dim, body) = split_dim_prefix(raw.trim()).map_err(syntax)?;
    let body = strip_comment(body).trim();
    if body.is_empty() {
        return Ok(Shape::Blank);
    }
    let Some(arrow) = find_arrow(body) else {
        return member_line(dim, body).map_err(syntax);
    };
    if dim != 0 {
        return Err(syntax(
            "fact lines key every dimension; `@dim` applies to members only".into(),
        ));
    }
    let mut keys = Vec::new();
    for k in split_unquoted(&body[..arrow], b',') {
        let key = unquote(k.trim());
        if key.is_empty() {
            return Err(syntax("empty member key in fact row".into()));
        }
        keys.push(key.to_string());
    }
    let measure_text = body[arrow + 2..].trim();
    let measure = measure_text
        .parse()
        .map_err(|_| syntax(format!("bad measure `{measure_text}`")))?;
    Ok(Shape::Fact { keys, measure })
}

// ---- the one-walk parser, read back as shapes ----------------------

/// How `parse_batch` reads a batch, one shape per non-blank line.
fn parsed(src: &str, first_line: usize) -> Result<Vec<(usize, Shape)>, IngestError> {
    let b = parse_batch(src, first_line)?;
    let mut out: Vec<(usize, Shape)> = b
        .members
        .iter()
        .map(|m| {
            let shape = Shape::Member {
                dim: m.dim,
                key: m.line.key.into(),
                category: m.line.category.into(),
                name: m.line.name.map(Into::into),
                parents: b.parents(m).iter().map(|p| p.to_string()).collect(),
            };
            (m.row, shape)
        })
        .collect();
    out.extend(b.facts.iter().map(|f| {
        let keys = b.keys(f).iter().map(|k| k.to_string()).collect();
        (
            f.row,
            Shape::Fact {
                keys,
                measure: f.measure,
            },
        )
    }));
    out.sort_by_key(|&(row, _)| row);
    Ok(out)
}

// ---- seeded hostile lines -----------------------------------------

const ATOMS: [&str; 27] = [
    "a", "b", "s1", "all", "Store", "7", "-3", "#", ":", "<", "=", ",", "\"", "->", "-", ">", "·",
    " ", " ", "\t", "\u{a0}", "\u{3000}", "\x0b", "@", "@1", "\"x#y\"", "\"p,q\"",
];

fn atoms(rng: &mut StdRng, max: usize) -> String {
    (0..rng.gen_range(0..=max))
        .map(|_| ATOMS[rng.gen_range(0..ATOMS.len())])
        .collect()
}

/// A token: bare or quoted hostile text.
fn token(rng: &mut StdRng) -> String {
    let t = atoms(rng, 3);
    if rng.gen_bool(0.5) {
        format!("\"{}\"", t.replace('"', ""))
    } else {
        t
    }
}

/// One seeded line: free-form hostile text, or a member or fact line
/// over hostile tokens, with an optional `@dim` prefix and comment.
fn line(rng: &mut StdRng) -> String {
    let mut l = match rng.gen_range(0u32..10) {
        0..=2 => atoms(rng, 10),
        3..=6 => {
            let mut l = format!(
                "{} : {}",
                token(rng),
                ["Store", "City", "Day"][rng.gen_range(0usize..3)]
            );
            if rng.gen_bool(0.3) {
                l.push_str(&format!(" = {}", token(rng)));
            }
            if rng.gen_bool(0.8) {
                l.push_str(" < ");
                let n = rng.gen_range(1usize..4);
                let parents: Vec<String> = (0..n).map(|_| token(rng)).collect();
                l.push_str(&parents.join(", "));
            }
            l
        }
        _ => {
            let n = rng.gen_range(1usize..4);
            let keys: Vec<String> = (0..n).map(|_| token(rng)).collect();
            format!("{} -> {}", keys.join(", "), rng.gen_range(-50i64..50))
        }
    };
    if rng.gen_bool(0.25) {
        l = format!("@{} {l}", rng.gen_range(0usize..3));
    }
    if rng.gen_bool(0.2) {
        l.push_str(&format!(" #{}", atoms(rng, 4)));
    }
    if rng.gen_bool(0.2) {
        let indent = ["  ", "\u{a0}", " \u{3000}", "\x0b"][rng.gen_range(0usize..4)];
        l = format!("{indent}{l}\t");
    }
    l
}

#[test]
fn one_walk_parse_agrees_with_the_multi_pass_oracle() {
    let mut rng = StdRng::seed_from_u64(23);
    let lines: Vec<String> = (0..12_000).map(|_| line(&mut rng)).collect();
    let (mut members, mut facts, mut blanks, mut errors) = (0, 0, 0, 0);
    let mut accepted = Vec::new();
    for (i, l) in lines.iter().enumerate() {
        let row = i + 1;
        let want = oracle(l, row);
        let got = parsed(l, row);
        match &want {
            Ok(Shape::Blank) => {
                blanks += 1;
                assert_eq!(got, Ok(Vec::new()), "line {row}: {l:?}");
            }
            Ok(shape) => {
                if matches!(shape, Shape::Member { .. }) {
                    members += 1;
                } else {
                    facts += 1;
                }
                assert_eq!(got, Ok(vec![(row, shape.clone())]), "line {row}: {l:?}");
                accepted.push((row, l.as_str(), shape.clone()));
            }
            Err(e) => {
                errors += 1;
                assert_eq!(got.as_ref().err(), Some(e), "line {row}: {l:?}");
            }
        }
    }
    // Each reading must be well represented, or the comparison shows
    // little.
    for (what, n) in [
        ("member", members),
        ("fact", facts),
        ("blank", blanks),
        ("error", errors),
    ] {
        assert!(n >= 200, "only {n} {what} lines of {}", lines.len());
    }
    // The accepted lines as one batch: same shapes, same rows, and the
    // columns' ranges line up across lines.
    let text: String = accepted.iter().map(|(_, l, _)| format!("{l}\n")).collect();
    let want: Vec<(usize, Shape)> = accepted
        .iter()
        .enumerate()
        .map(|(k, (_, _, shape))| (k + 40, shape.clone()))
        .collect();
    assert_eq!(parsed(&text, 40), Ok(want));
}

#[test]
fn a_quoted_hash_or_arrow_behind_a_dim_prefix_is_key_text() {
    for (line, key) in [
        ("@1 \"a#b\" : Store < all", "a#b"),
        ("@0 \"a#b\" : Store < all", "a#b"),
        ("@2 \"x->y\" : Day", "x->y"),
    ] {
        let got = parsed(line, 1).unwrap();
        assert_eq!(got, vec![(1, oracle(line, 1).unwrap())]);
        assert!(
            matches!(&got[0].1, Shape::Member { key: k, .. } if k == key),
            "{got:?}"
        );
    }
}

#[test]
fn a_quoted_parent_behind_wide_whitespace_keeps_its_hash_and_arrow() {
    for (line, parent) in [
        ("x : City < \u{3000}\"p#q\"", "p#q"),
        ("x : City < \u{3000}\"p->q\"", "p->q"),
        ("x : City <\u{a0}\"p,q\", r", "p,q"),
    ] {
        let got = parsed(line, 1).unwrap();
        assert_eq!(got, vec![(1, oracle(line, 1).unwrap())]);
        assert!(
            matches!(&got[0].1, Shape::Member { parents, .. } if parents[0] == parent),
            "{got:?}"
        );
    }
}
