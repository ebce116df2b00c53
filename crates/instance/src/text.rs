//! A textual format for dimension instances.
//!
//! One member per line:
//!
//! ```text
//! key : Category [= "Name"] [< parent-key, parent-key, …]
//! ```
//!
//! * `key` — a unique member identifier (quoted if it contains
//!   whitespace or one of `#:<,="`; inside a quoted token no separator
//!   counts);
//! * `Category` — a category of the hierarchy schema;
//! * `= "Name"` — optional `Name` attribute (defaults to the key);
//! * `< …` — the direct parents; `all` refers to the top member.
//!
//! Parents may be referenced before their defining line (two-pass
//! loading). `#` starts a comment. Example:
//!
//! ```text
//! Canada   : Country < all
//! Ontario  : Province < Canada
//! Toronto  : City     < Ontario
//! s1       : Store    < Toronto
//! ```

use crate::builder::InstanceBuilder;
use crate::instance::{DimensionInstance, Member};
use crate::validate::ValidationReport;
use odc_hierarchy::HierarchySchema;
use std::fmt::Write as _;
use std::sync::Arc;

/// Errors from [`parse_instance`].
#[derive(Debug, Clone)]
pub enum InstanceParseError {
    /// A line did not match the `key : Category …` shape.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// The built instance violated C1–C7.
    Invalid(ValidationReport),
}

impl std::fmt::Display for InstanceParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            InstanceParseError::Syntax { line, message } => {
                write!(f, "line {line}: {message}")
            }
            InstanceParseError::Invalid(r) => write!(f, "{r}"),
        }
    }
}

impl std::error::Error for InstanceParseError {}

/// One parsed member line of the textual format — the shared grammar
/// unit (`key : Category [= "Name"] [< parent, …]`) that both the
/// two-pass [`parse_instance`] loader and streaming consumers (the
/// columnar fact store's ingest path) scan with. Every field borrows the
/// line it was parsed from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemberLine<'a> {
    /// The member key (unquoted).
    pub key: &'a str,
    /// The category name.
    pub category: &'a str,
    /// The optional display name (`= "Name"`, unquoted).
    pub name: Option<&'a str>,
    /// The raw parent list after `<` (empty when the line has none);
    /// [`MemberLine::parents`] splits and unquotes it.
    pub parent_list: &'a str,
}

impl<'a> MemberLine<'a> {
    /// Parent keys in declaration order (`all` refers to the top member).
    pub fn parents(&self) -> impl Iterator<Item = &'a str> + 'a {
        split_unquoted(self.parent_list, b',')
            .map(|x| unquote(x.trim()))
            .filter(|x| !x.is_empty())
    }
}

struct Line<'a> {
    number: usize,
    member: MemberLine<'a>,
}

/// Parses an instance over `schema` from text, validating C1–C7.
pub fn parse_instance(
    schema: Arc<HierarchySchema>,
    src: &str,
) -> Result<DimensionInstance, InstanceParseError> {
    let lines = scan(src)?;
    let mut ib = DimensionInstance::builder(schema.clone());
    // Pass 1: members.
    let mut members = Vec::with_capacity(lines.len());
    for l in &lines {
        let m = &l.member;
        let cat =
            schema
                .category_by_name(m.category)
                .ok_or_else(|| InstanceParseError::Syntax {
                    line: l.number,
                    message: format!("unknown category `{}`", m.category),
                })?;
        if ib.member_by_key(m.key).is_some() {
            return Err(InstanceParseError::Syntax {
                line: l.number,
                message: format!("duplicate member key `{}`", m.key),
            });
        }
        members.push(ib.member_named(m.key, cat, m.name.unwrap_or(m.key)));
    }
    // Pass 2: links.
    for (l, &child) in lines.iter().zip(&members) {
        for p in l.member.parents() {
            let parent = resolve_parent(&ib, p).ok_or_else(|| InstanceParseError::Syntax {
                line: l.number,
                message: format!("unknown parent member `{p}`"),
            })?;
            ib.link(child, parent);
        }
    }
    ib.build().map_err(InstanceParseError::Invalid)
}

fn resolve_parent(ib: &InstanceBuilder, key: &str) -> Option<Member> {
    if key == "all" {
        Some(ib.all())
    } else {
        ib.member_by_key(key)
    }
}

fn scan(src: &str) -> Result<Vec<Line<'_>>, InstanceParseError> {
    let mut out = Vec::new();
    for (i, raw) in src.lines().enumerate() {
        let number = i + 1;
        match parse_member_line(raw) {
            Ok(None) => {}
            Ok(Some(member)) => out.push(Line { number, member }),
            Err(message) => return Err(InstanceParseError::Syntax { line: number, message }),
        }
    }
    Ok(out)
}

/// Parses one line of the member grammar. `Ok(None)` for blank and
/// comment-only lines; `Err(message)` on a syntax error (the caller
/// supplies the line number). Every separator (`:`, `=`, `<`, `,`)
/// counts only outside quoted tokens (see [`unquoted_bytes`]), so a
/// quoted token may hold any of them.
pub fn parse_member_line(raw: &str) -> Result<Option<MemberLine<'_>>, String> {
    let line = strip_comment(raw).trim();
    if line.is_empty() {
        return Ok(None);
    }
    let (head, parent_list) = match find_unquoted(line, b'<') {
        Some(i) => (&line[..i], line[i + 1..].trim()),
        None => (line, ""),
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
    Ok(Some(MemberLine {
        key,
        category,
        name,
        parent_list,
    }))
}

/// Cuts a trailing `#` comment off `line` (a `#` inside a quoted token
/// is part of the token, not a comment).
pub fn strip_comment(line: &str) -> &str {
    match find_unquoted(line, b'#') {
        Some(i) => &line[..i],
        None => line,
    }
}

/// The bytes of `s` that lie outside quoted tokens, with their offsets.
///
/// A `"` opens a quoted token only where a token starts — after nothing
/// but whitespace since the start of `s` or the last `:`, `<`, `=` or
/// `,` — and only when a closing `"` follows; the token ends at that
/// closing quote. Any other `"` is an ordinary character, so a stray
/// quote inside a bare token hides nothing from the separators.
pub fn unquoted_bytes(s: &str) -> impl Iterator<Item = (usize, u8)> + '_ {
    let bytes = s.as_bytes();
    let (mut i, mut token_start) = (0, true);
    std::iter::from_fn(move || {
        while let Some(&b) = bytes.get(i) {
            if b == b'"' && token_start {
                if let Some(len) = bytes[i + 1..].iter().position(|&c| c == b'"') {
                    i += len + 2;
                    token_start = false;
                    continue;
                }
            }
            i += 1;
            token_start = matches!(b, b':' | b'<' | b'=' | b',')
                || (token_start && b.is_ascii_whitespace());
            return Some((i - 1, b));
        }
        None
    })
}

/// The byte offset of the first `sep` outside quoted tokens (see
/// [`unquoted_bytes`]). `sep` must be an ASCII byte, so the offset is a
/// char boundary.
fn find_unquoted(s: &str, sep: u8) -> Option<usize> {
    unquoted_bytes(s).find(|&(_, b)| b == sep).map(|(i, _)| i)
}

/// Splits `s` at every `sep` outside quoted tokens (the pieces are not
/// trimmed). `sep` must be an ASCII byte.
pub fn split_unquoted(s: &str, sep: u8) -> impl Iterator<Item = &str> {
    let mut cuts = unquoted_bytes(s).filter(move |&(_, b)| b == sep).map(|(i, _)| i);
    let mut start = Some(0);
    std::iter::from_fn(move || {
        let from = start?;
        match cuts.next() {
            Some(i) => {
                start = Some(i + 1);
                Some(&s[from..i])
            }
            None => {
                start = None;
                Some(&s[from..])
            }
        }
    })
}

/// Removes one level of surrounding double quotes, if present.
pub fn unquote(s: &str) -> &str {
    if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
        &s[1..s.len() - 1]
    } else {
        s
    }
}

/// Serializes an instance in the textual format (round-trips through
/// [`parse_instance`]).
pub fn instance_to_text(d: &DimensionInstance) -> String {
    let g = d.schema();
    let mut out = String::new();
    // Emit parents before children (reverse topological over <) so the
    // file reads top-down; forward references are legal anyway.
    let mut members: Vec<Member> = d.members().collect();
    members.sort_by_key(|&m| std::cmp::Reverse(d.ancestors(m).len()));
    for m in members {
        if m == Member::ALL {
            continue;
        }
        push_quoted(&mut out, d.key(m));
        let _ = write!(out, " : {}", g.name(d.category_of(m)));
        if d.name(m) != d.key(m) {
            let _ = write!(out, " = \"{}\"", d.name(m));
        }
        for (i, &p) in d.parents(m).iter().enumerate() {
            out.push_str(if i == 0 { " < " } else { ", " });
            push_quoted(&mut out, d.key(p));
        }
        out.push('\n');
    }
    out
}

/// Quotes a token when the bare form would not survive a round trip
/// through the grammar (whitespace or one of `#:<,="`).
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Appends `s` to `out`, quoted by the rule [`quote`] states.
pub fn push_quoted(out: &mut String, s: &str) {
    if s.is_empty() || s.contains(|c: char| c.is_whitespace() || "#:<,=\"".contains(c)) {
        out.push('"');
        out.push_str(s);
        out.push('"');
    } else {
        out.push_str(s);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_hierarchy::HierarchySchema;

    fn schema() -> Arc<HierarchySchema> {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        let country = b.category("Country");
        b.edge(store, city);
        b.edge(city, country);
        b.edge_to_all(country);
        Arc::new(b.build().unwrap())
    }

    const SAMPLE: &str = r#"
        # a tiny instance
        Canada  : Country < all
        Toronto : City    < Canada
        s1      : Store   < Toronto
        s2      : Store = "Store Two" < Toronto
    "#;

    #[test]
    fn parses_and_validates() {
        let d = parse_instance(schema(), SAMPLE).unwrap();
        assert_eq!(d.num_members(), 5);
        let s2 = d.member_by_key("s2").unwrap();
        assert_eq!(d.name(s2), "Store Two");
        let toronto = d.member_by_key("Toronto").unwrap();
        assert!(d.rolls_up_to(s2, toronto));
    }

    #[test]
    fn forward_references_work() {
        let src = "s1 : Store < Toronto\nToronto : City < Canada\nCanada : Country < all\n";
        let d = parse_instance(schema(), src).unwrap();
        assert_eq!(d.num_members(), 4);
    }

    #[test]
    fn quoted_keys_with_spaces() {
        let src = "\"New York\" : City < Canada\nCanada : Country < all\n\
                   s1 : Store < \"New York\"\n";
        let d = parse_instance(schema(), src).unwrap();
        assert!(d.member_by_key("New York").is_some());
    }

    #[test]
    fn error_on_unknown_category() {
        let err = parse_instance(schema(), "x : Planet < all\n").unwrap_err();
        assert!(matches!(err, InstanceParseError::Syntax { line: 1, .. }));
        assert!(err.to_string().contains("Planet"));
    }

    #[test]
    fn error_on_unknown_parent() {
        let err = parse_instance(schema(), "Canada : Country < nowhere\n").unwrap_err();
        assert!(err.to_string().contains("nowhere"));
    }

    #[test]
    fn error_on_duplicate_key() {
        let src = "Canada : Country < all\nCanada : Country < all\n";
        let err = parse_instance(schema(), src).unwrap_err();
        assert!(err.to_string().contains("duplicate"));
    }

    #[test]
    fn error_on_invalid_instance() {
        // Orphan store: C7 violation surfaces as Invalid.
        let err = parse_instance(schema(), "s1 : Store\n").unwrap_err();
        assert!(matches!(err, InstanceParseError::Invalid(_)));
    }

    #[test]
    fn round_trip() {
        let d = parse_instance(schema(), SAMPLE).unwrap();
        let text = instance_to_text(&d);
        let d2 = parse_instance(schema(), &text).unwrap();
        assert_eq!(d.num_members(), d2.num_members());
        for m in d.members() {
            let m2 = d2.member_by_key(d.key(m)).unwrap();
            assert_eq!(d.name(m), d2.name(m2));
            assert_eq!(d.parents(m).len(), d2.parents(m2).len());
        }
    }

    #[test]
    fn comments_respect_quotes() {
        let src = "x : City = \"number # one\" < Canada\nCanada : Country < all\n";
        let d = parse_instance(schema(), src).unwrap();
        let x = d.member_by_key("x").unwrap();
        assert_eq!(d.name(x), "number # one");
    }

    #[test]
    fn separators_inside_quotes_stay_in_the_token() {
        let m = parse_member_line("\"a:b\" : Store < t").unwrap().unwrap();
        assert_eq!((m.key, m.category), ("a:b", "Store"));
        assert_eq!(m.parents().collect::<Vec<_>>(), ["t"]);
        let m = parse_member_line("\"a<b\" : Store < t").unwrap().unwrap();
        assert_eq!((m.key, m.category), ("a<b", "Store"));
        let m = parse_member_line("u : City = \"x<y\" < all").unwrap().unwrap();
        assert_eq!((m.key, m.name), ("u", Some("x<y")));
        assert_eq!(m.parents().collect::<Vec<_>>(), ["all"]);
        let m = parse_member_line("x : Store < \"p,q\", \"r=s\" # c").unwrap().unwrap();
        assert_eq!(m.parents().collect::<Vec<_>>(), ["p,q", "r=s"]);
        assert_eq!(split_unquoted("\"p,q\", r", b',').collect::<Vec<_>>(), ["\"p,q\"", " r"]);
    }

    #[test]
    fn stray_quotes_inside_bare_tokens_are_ordinary() {
        let m = parse_member_line("a\"b : Store < c\"d").unwrap().unwrap();
        assert_eq!((m.key, m.category), ("a\"b", "Store"));
        assert_eq!(m.parents().collect::<Vec<_>>(), ["c\"d"]);
        // `quote` wraps a key holding a quote; it reads back unchanged.
        let line = format!("{} : Store < {}", quote("a\"b"), quote("\"c"));
        let m = parse_member_line(&line).unwrap().unwrap();
        assert_eq!(m.key, "a\"b");
        assert_eq!(m.parents().collect::<Vec<_>>(), ["\"c"]);
        // An opening quote with no closing one hides nothing.
        let m = parse_member_line("\"ab : Store < t").unwrap().unwrap();
        assert_eq!((m.key, m.category), ("\"ab", "Store"));
    }

    #[test]
    fn quoted_tokens_round_trip_every_separator() {
        let mut src = String::new();
        for ch in ['#', ':', '<', ',', '=', ' ', '\t'] {
            let (country, city) = (format!("co{ch}1"), format!("ci{ch}2"));
            let line = |key: &str, cat: &str, parent: &str| {
                let mut l = format!("{} : {cat} = \"n{ch}{cat}\" < ", quote(key));
                push_quoted(&mut l, parent);
                l.push('\n');
                l
            };
            src.push_str(&format!("{} : Country < all\n", quote(&country)));
            src.push_str(&line(&city, "City", &country));
            src.push_str(&line(&format!("s{ch}3"), "Store", &city));
        }
        let d = parse_instance(schema(), &src).unwrap();
        assert_eq!(d.num_members(), 1 + 7 * 3);
        let d2 = parse_instance(schema(), &instance_to_text(&d)).unwrap();
        for ch in ['#', ':', '<', ',', '=', ' ', '\t'] {
            for (key, parent) in [
                (format!("ci{ch}2"), format!("co{ch}1")),
                (format!("s{ch}3"), format!("ci{ch}2")),
            ] {
                for inst in [&d, &d2] {
                    let m = inst.member_by_key(&key).unwrap();
                    let cat = inst.schema().name(inst.category_of(m));
                    assert_eq!(inst.name(m), format!("n{ch}{cat}"));
                    let p = inst.parents(m)[0];
                    assert_eq!(inst.key(p), parent);
                }
            }
        }
    }
}
