//! # odc-constraint
//!
//! The dimension-constraint language of Section 3 of Hurtado & Mendelzon,
//! *OLAP Dimension Constraints* (PODS 2002).
//!
//! A *dimension constraint* is a Boolean combination of two kinds of atoms,
//! all rooted at one category `c` of a hierarchy schema:
//!
//! * **path atoms** `c_c1_…_cn` — every member `x` of `c` (that the
//!   constraint applies to) has a chain of direct parents
//!   `x < x1 < … < xn` with `xi ∈ MembSet_{ci}`; the category sequence
//!   must be a simple path of the schema;
//! * **equality atoms** `c.ci ≈ k` — `x` has an ancestor in `ci` whose
//!   `Name` is the constant `k` (abbreviated `c ≈ k` when `ci = c`).
//!
//! Connectives: `¬ ∧ ∨ ⊃ ≡ ⊕`, the constants `⊤ ⊥`, and the exactly-one
//! combinator `⊙`. *Composed path atoms* `c.ci` ("x rolls up to `ci`") and
//! the summarizability shorthand `c.ci.cj` ("x rolls up to `cj` passing
//! through `ci`", Section 3.3) expand into the core language via
//! simple-path enumeration ([`expand`]).
//!
//! The crate provides:
//!
//! * the AST ([`Constraint`], [`DimensionConstraint`]) with structural
//!   helpers (atom iteration, *into*-constraint detection, substitution);
//! * evaluation over dimension instances ([`eval`]) implementing the
//!   `S(α)` translation of Definition 4;
//! * a concrete text syntax with parser ([`parser`]) and pretty-printer;
//! * simplification / constant folding ([`simplify`]), the workhorse of
//!   the circle operator `Σ ∘ g` used by DIMSAT;
//! * dimension schemas `ds = (G, Σ)` ([`DimensionSchema`]) and the
//!   constants function `Const_ds` (Section 3.2).
//!
//! ## Text syntax
//!
//! ```text
//! Store_City_Province                 path atom
//! Store.Country = "Canada"            equality atom   (also ≈)
//! Store = "s9"                        root equality (c ≈ k)
//! Store.SaleRegion                    composed path atom (rolls up to)
//! Store.City.Country                  rolls-up-through shorthand
//! !A, A & B, A | B, A -> B, A <-> B, A ^ B, true, false
//! one{A, B, C}                        exactly one of A, B, C
//! ```
//!
//! ```
//! use odc_hierarchy::HierarchySchema;
//! use odc_constraint::parser::parse_constraint;
//!
//! let mut b = HierarchySchema::builder();
//! let store = b.category("Store");
//! let city = b.category("City");
//! let country = b.category("Country");
//! b.edge(store, city);
//! b.edge(city, country);
//! b.edge_to_all(country);
//! let g = b.build().unwrap();
//!
//! let c = parse_constraint(&g, r#"Store.Country = "Canada" -> Store_City"#).unwrap();
//! assert_eq!(c.root(), store);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod ast;
pub mod eval;
pub mod expand;
pub mod parser;
pub mod printer;
pub mod schema;
pub mod simplify;

pub use ast::{Constraint, DimensionConstraint, EqAtom, PathAtom};
pub use parser::{parse_constraint, ParseError};
pub use schema::DimensionSchema;

#[cfg(test)]
mod tests_ordered;
