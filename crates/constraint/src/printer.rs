//! Pretty-printing of constraints in the concrete text syntax.
//!
//! The printer emits the ASCII flavor of the syntax accepted by
//! [`crate::parser`], so `parse ∘ print` is the identity on core-language
//! constraints (composed atoms are expanded at parse time and therefore
//! print in expanded form).

use crate::ast::{Constraint, DimensionConstraint};
use odc_hierarchy::HierarchySchema;
use std::fmt;

/// Binding strength used to decide parenthesization.
fn precedence(c: &Constraint) -> u8 {
    match c {
        Constraint::Iff(_, _) => 1,
        Constraint::Implies(_, _) => 2,
        Constraint::Xor(_, _) => 3,
        Constraint::Or(_) => 4,
        Constraint::And(_) => 5,
        Constraint::Not(_) => 6,
        // Equality/ordered atoms contain an infix operator, which reads
        // ambiguously right under a `!`; rank them below path atoms so
        // `!` parenthesizes.
        Constraint::Eq(_) | Constraint::Ord(_) => 6,
        _ => 7,
    }
}

fn needs_quotes(v: &str) -> bool {
    !v.chars().next().is_some_and(char::is_alphabetic)
        || !v.chars().all(char::is_alphanumeric)
        || matches!(v, "true" | "false" | "one")
}

fn write_constraint(
    f: &mut fmt::Formatter<'_>,
    g: &HierarchySchema,
    c: &Constraint,
    parent_prec: u8,
) -> fmt::Result {
    let prec = precedence(c);
    let parens = prec < parent_prec;
    if parens {
        write!(f, "(")?;
    }
    match c {
        Constraint::True => write!(f, "true")?,
        Constraint::False => write!(f, "false")?,
        Constraint::Path(p) => {
            let names: Vec<&str> = p.path.iter().map(|&x| g.name(x)).collect();
            write!(f, "{}", names.join("_"))?;
        }
        Constraint::Eq(e) => {
            if e.root == e.cat {
                write!(f, "{}", g.name(e.root))?;
            } else {
                write!(f, "{}.{}", g.name(e.root), g.name(e.cat))?;
            }
            if needs_quotes(&e.value) {
                write!(
                    f,
                    " = \"{}\"",
                    e.value.replace('\\', "\\\\").replace('"', "\\\"")
                )?;
            } else {
                write!(f, " = {}", e.value)?;
            }
        }
        Constraint::Ord(o) => {
            if o.root == o.cat {
                write!(f, "{}", g.name(o.root))?;
            } else {
                write!(f, "{}.{}", g.name(o.root), g.name(o.cat))?;
            }
            write!(f, " {} {}", o.op.symbol(), o.value)?;
        }
        Constraint::Not(x) => {
            write!(f, "!")?;
            write_constraint(f, g, x, prec + 1)?;
        }
        Constraint::And(xs) => write_nary(f, g, xs, " & ", prec, "true")?,
        Constraint::Or(xs) => write_nary(f, g, xs, " | ", prec, "false")?,
        Constraint::Implies(a, b) => {
            // Right associative: the left operand needs strictly higher
            // binding, the right may be another implication.
            write_constraint(f, g, a, prec + 1)?;
            write!(f, " -> ")?;
            write_constraint(f, g, b, prec)?;
        }
        Constraint::Iff(a, b) => {
            write_constraint(f, g, a, prec + 1)?;
            write!(f, " <-> ")?;
            write_constraint(f, g, b, prec + 1)?;
        }
        Constraint::Xor(a, b) => {
            write_constraint(f, g, a, prec + 1)?;
            write!(f, " ^ ")?;
            write_constraint(f, g, b, prec + 1)?;
        }
        Constraint::ExactlyOne(xs) => {
            write!(f, "one{{")?;
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write_constraint(f, g, x, 0)?;
            }
            write!(f, "}}")?;
        }
    }
    if parens {
        write!(f, ")")?;
    }
    Ok(())
}

fn write_nary(
    f: &mut fmt::Formatter<'_>,
    g: &HierarchySchema,
    xs: &[Constraint],
    sep: &str,
    prec: u8,
    empty: &str,
) -> fmt::Result {
    if xs.is_empty() {
        return write!(f, "{empty}");
    }
    for (i, x) in xs.iter().enumerate() {
        if i > 0 {
            write!(f, "{sep}")?;
        }
        write_constraint(f, g, x, prec + 1)?;
    }
    Ok(())
}

/// Adapter displaying a [`Constraint`] with category names from a schema.
pub struct ConstraintDisplay<'a> {
    g: &'a HierarchySchema,
    c: &'a Constraint,
}

impl fmt::Display for ConstraintDisplay<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write_constraint(f, self.g, self.c, 0)
    }
}

/// Displays a constraint using the schema's category names.
pub fn display<'a>(g: &'a HierarchySchema, c: &'a Constraint) -> ConstraintDisplay<'a> {
    ConstraintDisplay { g, c }
}

/// Displays a [`DimensionConstraint`]'s formula.
pub fn display_dc<'a>(
    g: &'a HierarchySchema,
    dc: &'a DimensionConstraint,
) -> ConstraintDisplay<'a> {
    ConstraintDisplay { g, c: dc.formula() }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_constraint;
    use odc_hierarchy::Category;

    fn schema() -> HierarchySchema {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        let state = b.category("State");
        let country = b.category("Country");
        b.edge(store, city);
        b.edge(city, state);
        b.edge(city, country);
        b.edge(state, country);
        b.edge(country, Category::ALL);
        b.build().unwrap()
    }

    fn round_trip(src: &str) {
        let g = schema();
        let dc = parse_constraint(&g, src).unwrap();
        let printed = display_dc(&g, &dc).to_string();
        let reparsed = parse_constraint(&g, &printed)
            .unwrap_or_else(|e| panic!("reparse of `{printed}` failed: {e}"));
        assert_eq!(dc.formula(), reparsed.formula(), "printed: {printed}");
    }

    #[test]
    fn round_trips() {
        for src in [
            "Store_City",
            "Store_City_State_Country",
            r#"Store.Country = "Canada""#,
            r#"City = "Washington""#,
            "!Store_City",
            "Store_City & Store_City_State",
            "Store_City | Store_City_State & Store_City_Country",
            "Store_City -> Store_City_State -> Store_City_Country",
            "(Store_City -> Store_City_State) -> Store_City_Country",
            "Store_City <-> Store_City_State",
            "Store_City ^ Store_City_State",
            "one{Store_City_State, Store_City_Country}",
            "!(Store_City | Store_City_State)",
            r#"City = "Washington" <-> City_Country"#,
        ] {
            round_trip(src);
        }
    }

    #[test]
    fn root_equality_prints_single_name() {
        let g = schema();
        let dc = parse_constraint(&g, "City = Washington").unwrap();
        assert_eq!(display_dc(&g, &dc).to_string(), "City = Washington");
    }

    #[test]
    fn weird_values_are_quoted() {
        let g = schema();
        let dc = parse_constraint(&g, r#"Store.Country = "New Zealand""#).unwrap();
        let s = display_dc(&g, &dc).to_string();
        assert_eq!(s, r#"Store.Country = "New Zealand""#);
        round_trip(r#"Store.Country = "New Zealand""#);
    }

    #[test]
    fn reserved_word_values_are_quoted() {
        let g = schema();
        let dc = parse_constraint(&g, r#"Store.Country = "true""#).unwrap();
        let s = display_dc(&g, &dc).to_string();
        assert!(s.contains("\"true\""));
        round_trip(r#"Store.Country = "true""#);
    }

    #[test]
    fn empty_and_or_print_constants() {
        let g = schema();
        assert_eq!(display(&g, &Constraint::And(vec![])).to_string(), "true");
        assert_eq!(display(&g, &Constraint::Or(vec![])).to_string(), "false");
    }

    #[test]
    fn implication_right_associativity_printed_minimally() {
        let g = schema();
        let dc =
            parse_constraint(&g, "Store_City -> Store_City_State -> Store_City_Country").unwrap();
        let s = display_dc(&g, &dc).to_string();
        assert_eq!(s, "Store_City -> Store_City_State -> Store_City_Country");
        let dc2 =
            parse_constraint(&g, "(Store_City -> Store_City_State) -> Store_City_Country").unwrap();
        let s2 = display_dc(&g, &dc2).to_string();
        assert_eq!(s2, "(Store_City -> Store_City_State) -> Store_City_Country");
    }
}
