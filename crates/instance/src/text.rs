//! A textual format for dimension instances.
//!
//! One member per line:
//!
//! ```text
//! key : Category [= "Name"] [< parent-key, parent-key, …]
//! ```
//!
//! * `key` — a unique member identifier (quoted if it contains spaces);
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
/// columnar fact store's ingest path) scan with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemberLine {
    /// The member key (unquoted).
    pub key: String,
    /// The category name.
    pub category: String,
    /// The optional display name (`= "Name"`).
    pub name: Option<String>,
    /// Parent keys (`all` refers to the top member).
    pub parents: Vec<String>,
}

struct Line {
    number: usize,
    member: MemberLine,
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
                .category_by_name(&m.category)
                .ok_or_else(|| InstanceParseError::Syntax {
                    line: l.number,
                    message: format!("unknown category `{}`", m.category),
                })?;
        if ib.member_by_key(&m.key).is_some() {
            return Err(InstanceParseError::Syntax {
                line: l.number,
                message: format!("duplicate member key `{}`", m.key),
            });
        }
        members.push(ib.member_named(&m.key, cat, m.name.as_deref().unwrap_or(&m.key)));
    }
    // Pass 2: links.
    for (l, &child) in lines.iter().zip(&members) {
        for p in &l.member.parents {
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

fn scan(src: &str) -> Result<Vec<Line>, InstanceParseError> {
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
/// supplies the line number).
pub fn parse_member_line(raw: &str) -> Result<Option<MemberLine>, String> {
    let line = strip_comment(raw).trim();
    if line.is_empty() {
        return Ok(None);
    }
    let (head, parents_part) = match line.split_once('<') {
        Some((h, p)) => (h, Some(p)),
        None => (line, None),
    };
    let (key_part, rest) = head
        .split_once(':')
        .ok_or_else(|| "expected `key : Category`".to_string())?;
    let key = unquote(key_part.trim());
    if key.is_empty() {
        return Err("empty member key".into());
    }
    let (category, name) = match rest.split_once('=') {
        Some((c, n)) => (c.trim().to_string(), Some(unquote(n.trim()))),
        None => (rest.trim().to_string(), None),
    };
    if category.is_empty() {
        return Err("missing category".into());
    }
    let parents = parents_part
        .map(|p| {
            p.split(',')
                .map(|x| unquote(x.trim()))
                .filter(|x| !x.is_empty())
                .collect()
        })
        .unwrap_or_default();
    Ok(Some(MemberLine {
        key,
        category,
        name,
        parents,
    }))
}

/// Cuts a trailing `#` comment off `line` (a `#` inside quotes is part
/// of the token, not a comment).
pub fn strip_comment(line: &str) -> &str {
    let mut in_quotes = false;
    for (i, ch) in line.char_indices() {
        match ch {
            '"' => in_quotes = !in_quotes,
            '#' if !in_quotes => return &line[..i],
            _ => {}
        }
    }
    line
}

/// Removes one level of surrounding double quotes, if present.
pub fn unquote(s: &str) -> String {
    if s.len() >= 2 && s.starts_with('"') && s.ends_with('"') {
        s[1..s.len() - 1].to_string()
    } else {
        s.to_string()
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
        let _ = write!(out, "{} : {}", quote(d.key(m)), g.name(d.category_of(m)));
        if d.name(m) != d.key(m) {
            let _ = write!(out, " = \"{}\"", d.name(m));
        }
        let parents: Vec<String> = d.parents(m).iter().map(|&p| quote(d.key(p))).collect();
        if !parents.is_empty() {
            let _ = write!(out, " < {}", parents.join(", "));
        }
        out.push('\n');
    }
    out
}

/// Quotes a token when the bare form would not survive a round trip
/// through the grammar (whitespace or one of `#:<,="`).
pub fn quote(s: &str) -> String {
    if s.is_empty() || s.contains(|c: char| c.is_whitespace() || "#:<,=\"".contains(c)) {
        format!("\"{s}\"")
    } else {
        s.to_string()
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
}
