//! Text syntax for dimension constraints.
//!
//! The grammar (loosest binding first):
//!
//! ```text
//! constraint := implies ( ("<->" | "≡") implies )*
//! implies    := xor  ( ("->" | "⊃") xor )*            (right associative)
//! xor        := or   ( ("^" | "⊕") or )*
//! or         := and  ( ("|" | "∨") and )*
//! and        := unary ( ("&" | "∧") unary )*
//! unary      := ("!" | "¬") unary | primary
//! primary    := "true" | "false"
//!             | "one" "{" constraint ("," constraint)* "}"
//!             | "(" constraint ")"
//!             | atom
//! atom       := IDENT ("_" IDENT)+                     path atom
//!             | IDENT "." IDENT "." IDENT              rolls-up-through
//!             | IDENT "." IDENT (("=" | "≈") value)?   equality / composed
//!             | IDENT ("=" | "≈") value                root equality c ≈ k
//! value      := STRING | IDENT
//! ```
//!
//! Category names inside atoms are plain identifiers (letters and digits,
//! starting with a letter); the underscore is the path-atom separator.
//! Composed atoms (`Store.SaleRegion`, `Store.City.Country`) are expanded
//! at parse time into the core language via [`crate::expand`].

use crate::ast::{CmpOp, Constraint, DimensionConstraint};
use crate::expand;
use odc_hierarchy::{Category, HierarchySchema};
use std::fmt;

/// A parse failure, with a byte offset into the source.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Byte offset where the failure was detected.
    pub position: usize,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.position, self.message)
    }
}

impl std::error::Error for ParseError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Str(String),
    Underscore,
    Dot,
    Eq,
    Cmp(CmpOp),
    Int(i64),
    Not,
    And,
    Or,
    Xor,
    Implies,
    Iff,
    LParen,
    RParen,
    LBrace,
    RBrace,
    Comma,
}

struct Lexer<'a> {
    src: &'a str,
    pos: usize,
    toks: Vec<(usize, Tok)>,
}

impl<'a> Lexer<'a> {
    fn lex(src: &'a str) -> Result<Vec<(usize, Tok)>, ParseError> {
        let mut l = Lexer {
            src,
            pos: 0,
            toks: Vec::new(),
        };
        l.run()?;
        Ok(l.toks)
    }

    fn err(&self, message: impl Into<String>) -> ParseError {
        ParseError {
            position: self.pos,
            message: message.into(),
        }
    }

    fn run(&mut self) -> Result<(), ParseError> {
        let bytes = self.src.as_bytes();
        while self.pos < bytes.len() {
            let start = self.pos;
            let rest = &self.src[self.pos..];
            let Some(ch) = rest.chars().next() else { break };
            let tok = match ch {
                c if c.is_whitespace() => {
                    self.pos += c.len_utf8();
                    continue;
                }
                '#' => {
                    // Comment to end of line.
                    match rest.find('\n') {
                        Some(off) => self.pos += off + 1,
                        None => self.pos = bytes.len(),
                    }
                    continue;
                }
                '_' => Tok::Underscore,
                '.' => Tok::Dot,
                '=' | '≈' => Tok::Eq,
                '!' | '¬' => Tok::Not,
                '&' | '∧' => Tok::And,
                '|' | '∨' => Tok::Or,
                '^' | '⊕' => Tok::Xor,
                '⊃' => Tok::Implies,
                '≡' => Tok::Iff,
                '(' => Tok::LParen,
                ')' => Tok::RParen,
                '{' => Tok::LBrace,
                '}' => Tok::RBrace,
                ',' => Tok::Comma,
                '<' if rest.starts_with("<->") => {
                    self.pos += 3;
                    self.toks.push((start, Tok::Iff));
                    continue;
                }
                '<' if rest.starts_with("<=") => {
                    self.pos += 2;
                    self.toks.push((start, Tok::Cmp(CmpOp::Le)));
                    continue;
                }
                '<' => Tok::Cmp(CmpOp::Lt),
                '≤' => Tok::Cmp(CmpOp::Le),
                '>' if rest.starts_with(">=") => {
                    self.pos += 2;
                    self.toks.push((start, Tok::Cmp(CmpOp::Ge)));
                    continue;
                }
                '>' => Tok::Cmp(CmpOp::Gt),
                '≥' => Tok::Cmp(CmpOp::Ge),
                '-' if rest.starts_with("->") => {
                    self.pos += 2;
                    self.toks.push((start, Tok::Implies));
                    continue;
                }
                c2 if c2.is_ascii_digit()
                    || (c2 == '-' && rest[1..].starts_with(|d: char| d.is_ascii_digit())) =>
                {
                    let digits_start = if c2 == '-' { 1 } else { 0 };
                    let end = rest[digits_start..]
                        .char_indices()
                        .find(|&(_, d)| !d.is_ascii_digit())
                        .map(|(i, _)| i + digits_start)
                        .unwrap_or(rest.len());
                    let text = &rest[..end];
                    let value: i64 = text
                        .parse()
                        .map_err(|_| self.err(format!("integer literal out of range: {text}")))?;
                    self.pos += end;
                    self.toks.push((start, Tok::Int(value)));
                    continue;
                }
                '"' => {
                    let mut out = String::new();
                    let mut chars = rest.char_indices().skip(1);
                    loop {
                        match chars.next() {
                            Some((i, '"')) => {
                                self.pos += i + 1;
                                break;
                            }
                            Some((_, '\\')) => match chars.next() {
                                Some((_, c2)) => out.push(c2),
                                None => return Err(self.err("unterminated escape")),
                            },
                            Some((_, c2)) => out.push(c2),
                            None => return Err(self.err("unterminated string literal")),
                        }
                    }
                    self.toks.push((start, Tok::Str(out)));
                    continue;
                }
                c if c.is_alphabetic() => {
                    let end = rest
                        .char_indices()
                        .find(|&(_, c2)| !c2.is_alphanumeric())
                        .map(|(i, _)| i)
                        .unwrap_or(rest.len());
                    let word = &rest[..end];
                    self.pos += end;
                    self.toks.push((start, Tok::Ident(word.to_string())));
                    continue;
                }
                other => return Err(self.err(format!("unexpected character `{other}`"))),
            };
            self.pos += ch.len_utf8();
            self.toks.push((start, tok));
        }
        Ok(())
    }
}

struct Parser<'a> {
    g: &'a HierarchySchema,
    toks: Vec<(usize, Tok)>,
    at: usize,
}

impl<'a> Parser<'a> {
    fn err_at(&self, message: impl Into<String>) -> ParseError {
        let position = self
            .toks
            .get(self.at)
            .or(self.toks.last())
            .map(|&(p, _)| p)
            .unwrap_or(0);
        ParseError {
            position,
            message: message.into(),
        }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.at).map(|(_, t)| t)
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.at).map(|(_, t)| t.clone());
        if t.is_some() {
            self.at += 1;
        }
        t
    }

    fn expect(&mut self, t: Tok, what: &str) -> Result<(), ParseError> {
        if self.peek() == Some(&t) {
            self.at += 1;
            Ok(())
        } else {
            Err(self.err_at(format!("expected {what}")))
        }
    }

    fn category(&mut self) -> Result<Category, ParseError> {
        match self.bump() {
            Some(Tok::Ident(name)) => self
                .g
                .category_by_name(&name)
                .ok_or_else(|| self.err_at(format!("unknown category `{name}`"))),
            _ => Err(self.err_at("expected a category name")),
        }
    }

    fn value(&mut self) -> Result<String, ParseError> {
        match self.bump() {
            Some(Tok::Str(s)) => Ok(s),
            Some(Tok::Ident(s)) => Ok(s),
            Some(Tok::Int(v)) => Ok(v.to_string()),
            _ => Err(self.err_at("expected a constant (identifier, string, or integer)")),
        }
    }

    fn int_literal(&mut self) -> Result<i64, ParseError> {
        match self.bump() {
            Some(Tok::Int(v)) => Ok(v),
            _ => Err(self.err_at("expected an integer literal")),
        }
    }

    fn constraint(&mut self) -> Result<Constraint, ParseError> {
        let mut lhs = self.implies()?;
        while self.peek() == Some(&Tok::Iff) {
            self.at += 1;
            let rhs = self.implies()?;
            lhs = Constraint::iff(lhs, rhs);
        }
        Ok(lhs)
    }

    fn implies(&mut self) -> Result<Constraint, ParseError> {
        let lhs = self.xor()?;
        if self.peek() == Some(&Tok::Implies) {
            self.at += 1;
            let rhs = self.implies()?; // right associative
            Ok(Constraint::implies(lhs, rhs))
        } else {
            Ok(lhs)
        }
    }

    fn xor(&mut self) -> Result<Constraint, ParseError> {
        let mut lhs = self.or()?;
        while self.peek() == Some(&Tok::Xor) {
            self.at += 1;
            let rhs = self.or()?;
            lhs = Constraint::xor(lhs, rhs);
        }
        Ok(lhs)
    }

    fn or(&mut self) -> Result<Constraint, ParseError> {
        let first = self.and()?;
        if self.peek() != Some(&Tok::Or) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.peek() == Some(&Tok::Or) {
            self.at += 1;
            parts.push(self.and()?);
        }
        Ok(Constraint::Or(parts))
    }

    fn and(&mut self) -> Result<Constraint, ParseError> {
        let first = self.unary()?;
        if self.peek() != Some(&Tok::And) {
            return Ok(first);
        }
        let mut parts = vec![first];
        while self.peek() == Some(&Tok::And) {
            self.at += 1;
            parts.push(self.unary()?);
        }
        Ok(Constraint::And(parts))
    }

    fn unary(&mut self) -> Result<Constraint, ParseError> {
        if self.peek() == Some(&Tok::Not) {
            self.at += 1;
            Ok(Constraint::not(self.unary()?))
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Constraint, ParseError> {
        match self.peek().cloned() {
            Some(Tok::LParen) => {
                self.at += 1;
                let inner = self.constraint()?;
                self.expect(Tok::RParen, "`)`")?;
                Ok(inner)
            }
            Some(Tok::Ident(word)) if word == "true" => {
                self.at += 1;
                Ok(Constraint::True)
            }
            Some(Tok::Ident(word)) if word == "false" => {
                self.at += 1;
                Ok(Constraint::False)
            }
            Some(Tok::Ident(word)) if word == "one" && self.next_is_brace() => {
                self.at += 1;
                self.expect(Tok::LBrace, "`{`")?;
                let mut parts = vec![self.constraint()?];
                while self.peek() == Some(&Tok::Comma) {
                    self.at += 1;
                    parts.push(self.constraint()?);
                }
                self.expect(Tok::RBrace, "`}`")?;
                Ok(Constraint::ExactlyOne(parts))
            }
            Some(Tok::Ident(_)) => self.atom(),
            _ => Err(self.err_at("expected a constraint")),
        }
    }

    fn next_is_brace(&self) -> bool {
        matches!(self.toks.get(self.at + 1), Some((_, Tok::LBrace)))
    }

    fn atom(&mut self) -> Result<Constraint, ParseError> {
        let root = self.category()?;
        match self.peek() {
            Some(Tok::Underscore) => {
                let mut path = vec![root];
                while self.peek() == Some(&Tok::Underscore) {
                    self.at += 1;
                    path.push(self.category()?);
                }
                if !self.g.is_simple_path(&path) {
                    return Err(self.err_at(format!(
                        "`{}` is not a simple path of the hierarchy schema",
                        path.iter()
                            .map(|&c| self.g.name(c))
                            .collect::<Vec<_>>()
                            .join("_")
                    )));
                }
                Ok(Constraint::path(path))
            }
            Some(Tok::Dot) => {
                self.at += 1;
                let ci = self.category()?;
                match self.peek() {
                    Some(Tok::Dot) => {
                        self.at += 1;
                        let cj = self.category()?;
                        Ok(expand::rolls_up_through(self.g, root, ci, cj))
                    }
                    Some(Tok::Eq) => {
                        self.at += 1;
                        let value = self.value()?;
                        Ok(Constraint::eq(root, ci, value))
                    }
                    Some(&Tok::Cmp(op)) => {
                        self.at += 1;
                        let value = self.int_literal()?;
                        Ok(Constraint::ord(root, ci, op, value))
                    }
                    _ => Ok(expand::rolls_up_to(self.g, root, ci)),
                }
            }
            Some(Tok::Eq) => {
                self.at += 1;
                let value = self.value()?;
                Ok(Constraint::eq(root, root, value))
            }
            Some(&Tok::Cmp(op)) => {
                self.at += 1;
                let value = self.int_literal()?;
                Ok(Constraint::ord(root, root, op, value))
            }
            _ => Err(self.err_at("expected `_`, `.`, `=`, or a comparison after a category name")),
        }
    }
}

/// Parses one dimension constraint against a hierarchy schema.
///
/// The root is inferred from the atoms; purely propositional formulas
/// (no atoms) are rejected because a dimension constraint needs a root
/// (Definition 3). Composed atoms may expand to `⊤`/`⊥` (e.g.
/// `c.ci` with no path); such formulas keep the root of the categories
/// they mention syntactically when another atom provides one, and are
/// rejected otherwise.
pub fn parse_constraint(g: &HierarchySchema, src: &str) -> Result<DimensionConstraint, ParseError> {
    let (dc, _) = parse_constraint_with_root(g, src)?;
    Ok(dc)
}

fn parse_constraint_with_root(
    g: &HierarchySchema,
    src: &str,
) -> Result<(DimensionConstraint, Constraint), ParseError> {
    let toks = Lexer::lex(src)?;
    let mut p = Parser { g, toks, at: 0 };
    let formula = p.constraint()?;
    if p.at != p.toks.len() {
        return Err(p.err_at("trailing input after constraint"));
    }
    match formula.infer_root() {
        Err((a, b)) => Err(ParseError {
            position: 0,
            message: format!("constraint mixes roots `{}` and `{}`", g.name(a), g.name(b)),
        }),
        Ok(Some(root)) if root.is_all() => Err(ParseError {
            position: 0,
            message: "dimension constraints cannot be rooted at All".into(),
        }),
        Ok(Some(root)) => Ok((DimensionConstraint::new(root, formula.clone()), formula)),
        Ok(None) => Err(ParseError {
            position: 0,
            message: "constraint has no atoms; cannot infer its root".into(),
        }),
    }
}

/// Parses a whole constraint set `Σ`, one constraint per non-empty line
/// (`#` starts a comment).
pub fn parse_sigma(g: &HierarchySchema, src: &str) -> Result<Vec<DimensionConstraint>, ParseError> {
    let mut out = Vec::new();
    let mut offset = 0usize;
    for line in src.lines() {
        let body = match line.find('#') {
            Some(i) => &line[..i],
            None => line,
        };
        if !body.trim().is_empty() {
            out.push(parse_constraint(g, body).map_err(|mut e| {
                e.position = e.position.saturating_add(offset);
                e
            })?);
        }
        offset += line.len() + 1;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Constraint as C;

    fn location() -> HierarchySchema {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        let province = b.category("Province");
        let state = b.category("State");
        let sale_region = b.category("SaleRegion");
        let country = b.category("Country");
        b.edge(store, city);
        b.edge(store, sale_region);
        b.edge(city, province);
        b.edge(city, state);
        b.edge(city, country);
        b.edge(province, sale_region);
        b.edge(state, sale_region);
        b.edge(state, country);
        b.edge(sale_region, country);
        b.edge(country, Category::ALL);
        b.build().unwrap()
    }

    fn cat(g: &HierarchySchema, n: &str) -> Category {
        g.category_by_name(n).unwrap()
    }

    #[test]
    fn parse_path_atom() {
        let g = location();
        let dc = parse_constraint(&g, "Store_City_Province").unwrap();
        assert_eq!(dc.root(), cat(&g, "Store"));
        assert_eq!(
            *dc.formula(),
            C::path(vec![cat(&g, "Store"), cat(&g, "City"), cat(&g, "Province")])
        );
    }

    #[test]
    fn parse_into_constraint() {
        let g = location();
        let dc = parse_constraint(&g, "Store_City").unwrap();
        assert_eq!(dc.as_into(), Some((cat(&g, "Store"), cat(&g, "City"))));
    }

    #[test]
    fn parse_equality_atom_both_syntaxes() {
        let g = location();
        let a = parse_constraint(&g, r#"Store.Country = "Canada""#).unwrap();
        let b = parse_constraint(&g, "Store.Country ≈ Canada").unwrap();
        assert_eq!(a.formula(), b.formula());
        assert_eq!(
            *a.formula(),
            C::eq(cat(&g, "Store"), cat(&g, "Country"), "Canada")
        );
    }

    #[test]
    fn parse_root_equality() {
        let g = location();
        let dc = parse_constraint(&g, r#"City = "Washington""#).unwrap();
        assert_eq!(dc.root(), cat(&g, "City"));
        assert_eq!(
            *dc.formula(),
            C::eq(cat(&g, "City"), cat(&g, "City"), "Washington")
        );
    }

    #[test]
    fn parse_composed_atom_expands() {
        let g = location();
        let dc = parse_constraint(&g, "Store.SaleRegion").unwrap();
        match dc.formula() {
            C::Or(parts) => assert_eq!(parts.len(), 3),
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn parse_through_shorthand_expands() {
        let g = location();
        let dc = parse_constraint(&g, "Store.City.Country").unwrap();
        match dc.formula() {
            C::Or(parts) => assert_eq!(parts.len(), 4),
            other => panic!("expected Or, got {other:?}"),
        }
    }

    #[test]
    fn parse_example_6() {
        let g = location();
        let dc =
            parse_constraint(&g, r#"Store.Country = "Canada" -> Store_City_Province"#).unwrap();
        assert!(matches!(dc.formula(), C::Implies(_, _)));
        assert_eq!(dc.root(), cat(&g, "Store"));
    }

    #[test]
    fn precedence_and_binds_tighter_than_or() {
        let g = location();
        let dc = parse_constraint(&g, "Store_City | Store_SaleRegion & Store_City").unwrap();
        match dc.formula() {
            C::Or(parts) => {
                assert_eq!(parts.len(), 2);
                assert!(matches!(parts[1], C::And(_)));
            }
            other => panic!("expected Or at top, got {other:?}"),
        }
    }

    #[test]
    fn implies_is_right_associative() {
        let g = location();
        let dc =
            parse_constraint(&g, "Store_City -> Store_SaleRegion -> Store_City_State").unwrap();
        match dc.formula() {
            C::Implies(_, rhs) => assert!(matches!(**rhs, C::Implies(_, _))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn unicode_connectives() {
        let g = location();
        let a = parse_constraint(&g, "¬Store_City ∨ (Store_City ∧ Store_SaleRegion)").unwrap();
        let b = parse_constraint(&g, "!Store_City | (Store_City & Store_SaleRegion)").unwrap();
        assert_eq!(a.formula(), b.formula());
        let c1 = parse_constraint(&g, "Store_City ⊃ Store_SaleRegion").unwrap();
        let c2 = parse_constraint(&g, "Store_City -> Store_SaleRegion").unwrap();
        assert_eq!(c1.formula(), c2.formula());
        let d1 = parse_constraint(&g, "Store_City ≡ Store_SaleRegion").unwrap();
        let d2 = parse_constraint(&g, "Store_City <-> Store_SaleRegion").unwrap();
        assert_eq!(d1.formula(), d2.formula());
        let e1 = parse_constraint(&g, "Store_City ⊕ Store_SaleRegion").unwrap();
        let e2 = parse_constraint(&g, "Store_City ^ Store_SaleRegion").unwrap();
        assert_eq!(e1.formula(), e2.formula());
    }

    #[test]
    fn exactly_one_combinator() {
        let g = location();
        let dc = parse_constraint(&g, "one{Store_City_Province, Store_City_State}").unwrap();
        match dc.formula() {
            C::ExactlyOne(parts) => assert_eq!(parts.len(), 2),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn one_as_category_name_not_confused() {
        // `one` followed by something other than `{` must not be treated
        // as the combinator; here it is an unknown category.
        let g = location();
        let err = parse_constraint(&g, "one_City").unwrap_err();
        assert!(err.message.contains("unknown category"));
    }

    #[test]
    fn error_on_unknown_category() {
        let g = location();
        let err = parse_constraint(&g, "Store_Planet").unwrap_err();
        assert!(err.message.contains("unknown category `Planet`"));
    }

    #[test]
    fn error_on_non_simple_path() {
        let g = location();
        // Store → Province is not an edge.
        let err = parse_constraint(&g, "Store_Province").unwrap_err();
        assert!(err.message.contains("not a simple path"));
    }

    #[test]
    fn error_on_mixed_roots() {
        let g = location();
        let err = parse_constraint(&g, "Store_City & City_Province").unwrap_err();
        assert!(err.message.contains("mixes roots"));
    }

    #[test]
    fn error_on_no_atoms() {
        let g = location();
        let err = parse_constraint(&g, "true -> false").unwrap_err();
        assert!(err.message.contains("no atoms"));
    }

    #[test]
    fn error_on_trailing_input() {
        let g = location();
        let err = parse_constraint(&g, "Store_City Store_City").unwrap_err();
        assert!(err.message.contains("trailing"));
    }

    #[test]
    fn error_on_unterminated_string() {
        let g = location();
        let err = parse_constraint(&g, r#"Store.Country = "Canada"#).unwrap_err();
        assert!(err.message.contains("unterminated"));
    }

    #[test]
    fn string_escapes() {
        let g = location();
        let dc = parse_constraint(&g, r#"Store.Country = "Ca\"nada""#).unwrap();
        assert_eq!(
            *dc.formula(),
            C::eq(cat(&g, "Store"), cat(&g, "Country"), "Ca\"nada")
        );
    }

    #[test]
    fn parse_sigma_multi_line_with_comments() {
        let g = location();
        let sigma = parse_sigma(
            &g,
            "# the locationSch constraints (excerpt)\n\
             Store_City\n\
             \n\
             Store.SaleRegion  # all stores roll up to SaleRegion\n\
             Province.Country ≈ Canada\n",
        )
        .unwrap();
        assert_eq!(sigma.len(), 3);
        assert_eq!(
            sigma[0].as_into(),
            Some((cat(&g, "Store"), cat(&g, "City")))
        );
        assert_eq!(sigma[2].root(), cat(&g, "Province"));
    }

    #[test]
    fn parse_sigma_error_carries_line_offset() {
        let g = location();
        let err = parse_sigma(&g, "Store_City\nStore_Nowhere\n").unwrap_err();
        assert!(err.position > "Store_City".len());
    }
}
