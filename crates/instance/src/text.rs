//! A textual format for dimension instances.
//!
//! One member per line:
//!
//! ```text
//! key : Category [= "Name"] [< parent-key, parent-key, …]
//! ```
//!
//! * `key` — a unique member identifier (quoted if it contains
//!   whitespace, one of `#:<,="`, or `->`; inside a quoted token no
//!   separator counts);
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
use std::ops::Range;
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
/// columnar fact store's ingest path) read through [`LineCuts`]. Every
/// field borrows the line it was parsed from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberLine<'a> {
    /// The member key (unquoted).
    pub key: &'a str,
    /// The category name.
    pub category: &'a str,
    /// The optional display name (`= "Name"`, unquoted).
    pub name: Option<&'a str>,
    /// Where the line's parent keys (unquoted, in declaration order;
    /// `all` refers to the top member) sit in the key column
    /// [`LineCuts::member`] appended them to.
    pub parents: Range<usize>,
}

/// The bytes [`walk`] stops at: the quote, the separators and ASCII
/// whitespace. Every other byte only ends a token start.
const SPECIAL: [bool; 256] = {
    let mut table = [false; 256];
    let special = b"\"#-<:=, \t\n\x0c\r";
    let mut k = 0;
    while k < special.len() {
        table[special[k] as usize] = true;
        k += 1;
    }
    table
};

struct Line<'a> {
    number: usize,
    member: MemberLine<'a>,
}

/// Parses an instance over `schema` from text, validating C1–C7.
pub fn parse_instance(
    schema: Arc<HierarchySchema>,
    src: &str,
) -> Result<DimensionInstance, InstanceParseError> {
    let (lines, parents) = scan(src)?;
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
        for &p in &parents[l.member.parents.clone()] {
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

/// The member lines of `src`, and their parent keys as one column.
fn scan(src: &str) -> Result<(Vec<Line<'_>>, Vec<&str>), InstanceParseError> {
    let (mut out, mut parents) = (Vec::new(), Vec::new());
    let mut cuts = LineCuts::default();
    for (i, raw) in src.lines().enumerate() {
        let number = i + 1;
        // Leading whitespace comes off before the scan, so a key's
        // opening quote starts a token behind any whitespace.
        let line = raw.trim_start();
        cuts.scan(line);
        if cuts.is_blank(line) {
            continue;
        }
        match cuts.member(line, &mut parents) {
            Ok(member) => out.push(Line { number, member }),
            Err(message) => return Err(InstanceParseError::Syntax { line: number, message }),
        }
    }
    Ok((out, parents))
}

/// Where the separators of one line sit outside quoted tokens, found
/// in one walk ([`LineCuts::scan`]). Every line of the grammar is read
/// from these cut points: the member grammar here, and the fact rows of
/// the store's ingest stream (a `->` outside quotes marks a fact row
/// there; here it is ordinary text). All offsets are byte offsets into
/// the scanned line, and every cut is an ASCII byte, so each is a char
/// boundary.
///
/// A scanner is reused line after line; its comma list is the only
/// buffer, so scanning allocates nothing once that list has grown to
/// the widest line's comma count.
#[derive(Debug, Clone, Default)]
pub struct LineCuts {
    /// Where the line's content ends: its first `#` (a comment starts
    /// there), else its length.
    end: usize,
    /// The first `->`.
    arrow: Option<usize>,
    /// The first `<`: the parent list follows it.
    lt: Option<usize>,
    /// The first `:` before `lt`: the key precedes it.
    colon: Option<usize>,
    /// The first `=` between `colon` and `lt`: the name follows it.
    eq: Option<usize>,
    /// Every `,` before `end`, in order.
    commas: Vec<usize>,
}

impl LineCuts {
    /// Walks `line` once ([`walk`]) and records its cut points.
    pub fn scan(&mut self, line: &str) {
        self.end = line.len();
        self.arrow = None;
        self.lt = None;
        self.colon = None;
        self.eq = None;
        self.commas.clear();
        let bytes = line.as_bytes();
        walk(bytes, |i, b| {
            match b {
                b'#' => {
                    self.end = i;
                    return false;
                }
                b'-' if self.arrow.is_none() && bytes.get(i + 1) == Some(&b'>') => {
                    self.arrow = Some(i);
                }
                b'<' if self.lt.is_none() => self.lt = Some(i),
                b':' if self.lt.is_none() && self.colon.is_none() => self.colon = Some(i),
                b'=' if self.lt.is_none() && self.colon.is_some() && self.eq.is_none() => {
                    self.eq = Some(i);
                }
                b',' => self.commas.push(i),
                _ => {}
            }
            true
        });
    }

    /// Whether the scanned line holds nothing but whitespace and a
    /// comment.
    pub fn is_blank(&self, line: &str) -> bool {
        line[..self.end].trim().is_empty()
    }

    /// Where the scanned line's content ends: its first `#` outside
    /// quotes, else its length.
    pub fn end(&self) -> usize {
        self.end
    }

    /// The offset of the scanned line's first `->` outside quotes.
    pub fn arrow(&self) -> Option<usize> {
        self.arrow
    }

    /// The scanned line's text in `from..to` (clamped to the content),
    /// cut at every `,` between; each piece is trimmed and unquoted.
    pub fn pieces<'s, 'a: 's>(
        &'s self,
        line: &'a str,
        from: usize,
        to: usize,
    ) -> impl Iterator<Item = &'a str> + 's {
        let to = to.min(self.end);
        let mut cuts = self
            .commas
            .iter()
            .copied()
            .skip_while(move |&c| c < from)
            .take_while(move |&c| c < to);
        let mut start = Some(from);
        std::iter::from_fn(move || {
            let piece = start?;
            let end = cuts.next();
            start = end.map(|c| c + 1);
            Some(unquote(line[piece..end.unwrap_or(to)].trim()))
        })
    }

    /// Reads the scanned (non-blank) line as a member line, appending
    /// its non-empty parent keys to `parents`. `Err(message)` on a
    /// syntax error (the caller supplies the line number).
    pub fn member<'a>(
        &self,
        line: &'a str,
        parents: &mut Vec<&'a str>,
    ) -> Result<MemberLine<'a>, String> {
        let head_end = self.lt.unwrap_or(self.end);
        let colon = self.colon.ok_or_else(|| "expected `key : Category`".to_string())?;
        let key = unquote(line[..colon].trim());
        if key.is_empty() {
            return Err("empty member key".into());
        }
        let (category, name) = match self.eq {
            Some(i) => (line[colon + 1..i].trim(), Some(unquote(line[i + 1..head_end].trim()))),
            None => (line[colon + 1..head_end].trim(), None),
        };
        if category.is_empty() {
            return Err("missing category".into());
        }
        let start = parents.len();
        if let Some(lt) = self.lt {
            parents.extend(self.pieces(line, lt + 1, self.end).filter(|p| !p.is_empty()));
        }
        Ok(MemberLine {
            key,
            category,
            name,
            parents: start..parents.len(),
        })
    }
}

/// Calls `visit` with the offset of every [`SPECIAL`] byte of `bytes`
/// outside quoted tokens, until `visit` returns `false`. A `"` opens a
/// quoted token only where a token starts — after nothing but
/// whitespace (any `char::is_whitespace`) since the start of `bytes` or
/// the last `:`, `<`, `=` or `,` — and only when a closing `"` follows;
/// the token ends at that closing quote, and no separator inside it
/// counts. Any other `"` is an ordinary character, so a stray quote
/// inside a bare token hides nothing from the separators.
#[inline(always)]
fn walk(bytes: &[u8], mut visit: impl FnMut(usize, u8) -> bool) {
    let (mut i, mut token_start) = (0, true);
    while let Some(&b) = bytes.get(i) {
        if !SPECIAL[b as usize] {
            if token_start && (b == 0x0b || b >= 0xc0) {
                if let Some(len) = other_whitespace(bytes, i) {
                    i += len;
                    continue;
                }
            }
            token_start = false;
            i += 1;
            continue;
        }
        if b == b'"' && token_start {
            if let Some(len) = bytes[i + 1..].iter().position(|&c| c == b'"') {
                i += len + 2;
                token_start = false;
                continue;
            }
        }
        if !visit(i, b) {
            return;
        }
        token_start = matches!(b, b':' | b'<' | b'=' | b',')
            || (token_start && b.is_ascii_whitespace());
        i += 1;
    }
}

/// The byte length of the whitespace character at `bytes[i]` that
/// [`SPECIAL`] leaves out (`\x0b`, or whitespace beyond ASCII), if one
/// starts there.
fn other_whitespace(bytes: &[u8], i: usize) -> Option<usize> {
    let len = match bytes[i] {
        0x0b => return Some(1),
        b if b < 0xc0 => return None,
        b if b < 0xe0 => 2,
        b if b < 0xf0 => 3,
        _ => 4,
    };
    let c = std::str::from_utf8(bytes.get(i..i + len)?).ok()?.chars().next()?;
    c.is_whitespace().then_some(len)
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
/// through the grammar: it is empty, starts with the `@` of a stream
/// line's dimension prefix, or holds whitespace, one of `#:<,="`, or
/// the `->` that marks a fact row in the ingest stream — unless the
/// quoted form does not read back either and the bare one does (a key
/// holding a `"` can close its quotes early: `"a<b"c` reads back bare
/// only). A key with no form that reads back ([`has_readable_form`])
/// gets the quoted form.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    push_quoted(&mut out, s);
    out
}

/// Appends `s` to `out`, quoted by the rule [`quote`] states.
pub fn push_quoted(out: &mut String, s: &str) {
    if key_form(s) == Some(false) {
        out.push_str(s);
    } else {
        out.push('"');
        out.push_str(s);
        out.push('"');
    }
}

/// Whether some form of `key` — bare or quoted — reads back as `key`
/// wherever the grammar puts a key. A key whose `"` is followed by a
/// separator has none, so a store refuses it at ingest.
pub fn has_readable_form(key: &str) -> bool {
    !key.contains('"') || key_form(key).is_some()
}

/// The form of `key` that reads back: `Some(true)` quoted, `Some(false)`
/// bare, `None` neither. The quoted form reads back whenever the key
/// holds no `"`; only a key that does is tried in the grammar.
fn key_form(key: &str) -> Option<bool> {
    let plain = !(key.is_empty()
        || key.starts_with('@')
        || key.contains(|c: char| c.is_whitespace() || matches!(c, '#' | ':' | '<' | ',' | '=' | '"'))
        || key.contains("->"));
    if plain {
        Some(false)
    } else if !key.contains('"') || reads_back(&format!("\"{key}\""), key) {
        Some(true)
    } else {
        reads_back(key, key).then_some(false)
    }
}

/// Whether `token` reads back as `key` in every place the grammar puts
/// a key: a member line's key and parents, and a fact row's keys (where
/// a leading `@` would be a dimension prefix instead).
fn reads_back(token: &str, key: &str) -> bool {
    if token.starts_with('@') {
        return false;
    }
    let mut cuts = LineCuts::default();
    let member = format!("{token} : C < {token}, {token}");
    cuts.scan(&member);
    let mut parents = Vec::new();
    let member_ok = cuts.arrow().is_none()
        && !cuts.is_blank(&member)
        && cuts
            .member(&member, &mut parents)
            .is_ok_and(|m| (m.key, m.category, m.name) == (key, "C", None))
        && parents == [key, key];
    let fact = format!("{token}, {token} -> 1");
    cuts.scan(&fact);
    member_ok
        && cuts.arrow().is_some_and(|a| {
            cuts.pieces(&fact, 0, a).eq([key, key]) && fact[a + 2..cuts.end()].trim() == "1"
        })
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

    /// One member line through the scanner, with its parent keys.
    fn member(raw: &str) -> (MemberLine<'_>, Vec<&str>) {
        let mut cuts = LineCuts::default();
        cuts.scan(raw);
        assert!(!cuts.is_blank(raw), "{raw:?}");
        let mut parents = Vec::new();
        let m = cuts.member(raw, &mut parents).unwrap();
        (m, parents)
    }

    #[test]
    fn separators_inside_quotes_stay_in_the_token() {
        let (m, parents) = member("\"a:b\" : Store < t");
        assert_eq!((m.key, m.category), ("a:b", "Store"));
        assert_eq!(parents, ["t"]);
        let (m, _) = member("\"a<b\" : Store < t");
        assert_eq!((m.key, m.category), ("a<b", "Store"));
        let (m, parents) = member("u : City = \"x<y\" < all");
        assert_eq!((m.key, m.name), ("u", Some("x<y")));
        assert_eq!(parents, ["all"]);
        let (_, parents) = member("x : Store < \"p,q\", \"r=s\" # c");
        assert_eq!(parents, ["p,q", "r=s"]);
        let (_, parents) = member("x : Store < ,a,, \"\" ,b");
        assert_eq!(parents, ["a", "b"], "empty parent pieces drop out");
        let (m, parents) = member("a,b : Store = \"n\" < p");
        assert_eq!((m.key, m.name, m.parents), ("a,b", Some("n"), 0..1));
        assert_eq!(parents, ["p"]);
    }

    #[test]
    fn one_scan_cuts_fact_rows_and_comments() {
        let mut cuts = LineCuts::default();
        let line = "\"a->b\", c -> 5 # x -> 6";
        cuts.scan(line);
        let arrow = cuts.arrow().unwrap();
        assert_eq!(&line[arrow..arrow + 2], "->");
        assert_eq!(cuts.pieces(line, 0, arrow).collect::<Vec<_>>(), ["a->b", "c"]);
        cuts.scan("  # only a comment, with -> and <");
        assert!(cuts.is_blank("  # only a comment, with -> and <"));
        assert_eq!(cuts.arrow(), None);
        cuts.scan("s1 : Store < \"t#1\" # c");
        assert_eq!(cuts.arrow(), None, "a rescan forgets the last line");
    }

    #[test]
    fn whitespace_beyond_ascii_before_a_line_or_its_parents_keeps_quotes() {
        let (_, parents) = member("x : Store < \u{3000}\"p,q\", r");
        assert_eq!(parents, ["p,q", "r"]);
        let (_, parents) = member("x : Store <\u{a0} \"p,q\"");
        assert_eq!(parents, ["p,q"]);
        // The one walk opens the quote too, so it hides a `#` and a `->`.
        let (_, parents) = member("x : City < \u{3000}\"p#q\"");
        assert_eq!(parents, ["p#q"]);
        let (_, parents) = member("x : City < \u{3000}\"p->q\"");
        assert_eq!(parents, ["p->q"]);
        let (_, parents) = member("x : City <\x0b\"p#q\", r");
        assert_eq!(parents, ["p#q", "r"]);
        let src = "\"p,q\" : Country < all\n\u{a0}\"a:b\" : City < \u{3000}\"p,q\"\n\
                   \u{3000}\"s#1\" : Store < \"a:b\"\n";
        let d = parse_instance(schema(), src).unwrap();
        let city = d.member_by_key("a:b").unwrap();
        assert_eq!(d.parents(city), [d.member_by_key("p,q").unwrap()]);
        assert!(d.member_by_key("s#1").is_some());
    }

    #[test]
    fn stray_quotes_inside_bare_tokens_are_ordinary() {
        let (m, parents) = member("a\"b : Store < c\"d");
        assert_eq!((m.key, m.category), ("a\"b", "Store"));
        assert_eq!(parents, ["c\"d"]);
        // `quote` wraps a key holding a quote; it reads back unchanged.
        let line = format!("{} : Store < {}", quote("a\"b"), quote("\"c"));
        let (m, parents) = member(&line);
        assert_eq!(m.key, "a\"b");
        assert_eq!(parents, ["\"c"]);
        // An opening quote with no closing one hides nothing.
        let (m, _) = member("\"ab : Store < t");
        assert_eq!((m.key, m.category), ("\"ab", "Store"));
    }

    #[test]
    fn keys_are_saved_in_a_form_that_reads_back() {
        // The quoted form would close early; the bare one reads back.
        assert_eq!(quote("\"a<b\"c"), "\"a<b\"c");
        // A stream line's `@` prefix would eat a bare key's start.
        assert_eq!(quote("@1x"), "\"@1x\"");
        for key in ["\"a<b\"c", "@1x", "a\"b", "\"c", "a b", "p,q", "a->b", "plain"] {
            assert!(has_readable_form(key), "{key:?}");
            let line = format!("{} : Store < {}", quote(key), quote(key));
            let (m, parents) = member(&line);
            assert_eq!((m.key, parents), (key, vec![key]), "{line:?}");
        }
        // A `"` followed by a separator leaves no form at all.
        for key in ["a\"<b", "x\",\"y", "\"a\"#"] {
            assert!(!has_readable_form(key), "{key:?}");
        }
    }

    #[test]
    fn keys_holding_an_arrow_are_quoted() {
        assert_eq!(quote("a->b"), "\"a->b\"");
        assert_eq!(quote("a-b>c"), "a-b>c");
        assert_eq!(quote("->"), "\"->\"");
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
