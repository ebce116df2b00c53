//! # odc-core — OLAP Dimension Constraints
//!
//! A complete implementation of Hurtado & Mendelzon, *OLAP Dimension
//! Constraints* (PODS 2002): integrity constraints for heterogeneous OLAP
//! dimensions, frozen dimensions, the DIMSAT satisfiability/implication
//! algorithm, and constraint-based summarizability reasoning — plus the
//! OLAP substrate (fact tables, cube views, aggregate navigation) needed
//! to use and validate all of it.
//!
//! This crate is a facade: it re-exports the layered crates and adds a
//! [`prelude`] plus a handful of one-call conveniences.
//!
//! ## Quick start
//!
//! ```
//! use odc_core::prelude::*;
//! use std::sync::Arc;
//!
//! // 1. A hierarchy schema with heterogeneity: stores roll up to a
//! //    Province or a State, never both.
//! let mut b = HierarchySchema::builder();
//! let store = b.category("Store");
//! let province = b.category("Province");
//! let state = b.category("State");
//! let country = b.category("Country");
//! b.edge(store, province);
//! b.edge(store, state);
//! b.edge(province, country);
//! b.edge(state, country);
//! b.edge_to_all(country);
//! let g = Arc::new(b.build().unwrap());
//!
//! // 2. Dimension constraints (Σ), in the paper's notation.
//! let ds = DimensionSchema::parse(g, r#"
//!     one{Store_Province, Store_State}
//!     Province_Country
//!     State_Country
//! "#).unwrap();
//!
//! // 3. Reason about summarizability at the schema level: Country can be
//! //    assembled from the Province and State views…
//! let country_c = ds.hierarchy().category_by_name("Country").unwrap();
//! let province_c = ds.hierarchy().category_by_name("Province").unwrap();
//! let state_c = ds.hierarchy().category_by_name("State").unwrap();
//! assert!(is_summarizable_in_schema(&ds, country_c, &[province_c, state_c]).summarizable());
//! // …but not from Province alone.
//! assert!(!is_summarizable_in_schema(&ds, country_c, &[province_c]).summarizable());
//! ```
//!
//! ## Resource governance
//!
//! Every solve entrypoint in the stack is *governed*: the reasoning
//! problems are NP-complete (Theorem 4), so searches accept a
//! [`Budget`] (wall-clock deadline, node/check limits, recursion depth)
//! and a [`CancelToken`] (flippable from another thread) and come back
//! with a three-valued verdict — Sat/Unsat/Unknown, implied/not/Unknown —
//! where `Unknown` carries the [`Interrupt`] that stopped the search plus
//! the partial statistics.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub use odc_constraint as constraint;
pub use odc_dimsat as dimsat;
pub use odc_frozen as frozen;
pub use odc_govern as govern;
pub use odc_hierarchy as hierarchy;
pub use odc_instance as instance;
pub use odc_obs as obs;
pub use odc_olap as olap;
pub use odc_plan as plan;
pub use odc_repo as repo;
pub use odc_summarizability as summarizability;

pub use odc_govern::{Budget, CancelToken, Governor, Interrupt, InterruptReason};

/// The one-stop import.
pub mod prelude {
    pub use odc_constraint::{parse_constraint, Constraint, DimensionConstraint, DimensionSchema};
    pub use odc_dimsat::{
        implies, Dimsat, DimsatOptions, ImplicationOutcome, ImplicationVerdict, Run, Verdict,
    };
    pub use odc_frozen::{ExhaustiveEnumerator, FrozenDimension};
    pub use odc_govern::{Budget, CancelToken, Governor, Interrupt, InterruptReason};
    pub use odc_hierarchy::{CatSet, Category, HierarchySchema, Subhierarchy};
    pub use odc_instance::{DimensionInstance, Member, RollupTable};
    pub use odc_obs::{
        CollectingObserver, JsonlObserver, MultiObserver, NullObserver, Obs, Observer,
        ProgressObserver,
    };
    pub use odc_olap::{cube_view, derive_cube_view, AggFn, CubeView, FactTable};
    pub use odc_summarizability::{
        is_summarizable_in_instance, is_summarizable_in_schema, is_summarizable_in_schema_run,
        summarizability_constraints, SummarizabilityVerdict,
    };
}

use odc_constraint::{DimensionSchema, ParseError};
use odc_hierarchy::{Category, HierarchySchema, SchemaError};
use std::sync::Arc;

/// Errors from the all-in-one [`parse_schema`] helper.
#[derive(Debug)]
pub enum SchemaParseError {
    /// The hierarchy description was malformed.
    Hierarchy(SchemaError),
    /// A constraint failed to parse.
    Constraint(ParseError),
    /// A line was not of the form `child > parent, parent, …`.
    Syntax(String),
}

impl std::fmt::Display for SchemaParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SchemaParseError::Hierarchy(e) => write!(f, "hierarchy error: {e}"),
            SchemaParseError::Constraint(e) => write!(f, "constraint error: {e}"),
            SchemaParseError::Syntax(s) => write!(f, "syntax error: {s}"),
        }
    }
}

impl std::error::Error for SchemaParseError {}

/// Parses a whole dimension schema from a compact textual description:
/// a `hierarchy:` section with one `child > parent, parent, …` line per
/// category, and a `constraints:` section in the constraint syntax.
///
/// ```
/// let ds = odc_core::parse_schema(r#"
///     hierarchy:
///       Store > City, SaleRegion
///       City > Country
///       SaleRegion > Country
///       Country > All
///     constraints:
///       Store_City
///       Store.SaleRegion
/// "#).unwrap();
/// assert_eq!(ds.hierarchy().num_categories(), 5);
/// assert_eq!(ds.constraints().len(), 2);
/// ```
pub fn parse_schema(src: &str) -> Result<DimensionSchema, SchemaParseError> {
    let mut builder = HierarchySchema::builder();
    let mut constraint_lines: Vec<&str> = Vec::new();
    let mut section = "";
    for raw in src.lines() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        match line {
            "hierarchy:" => {
                section = "hierarchy";
                continue;
            }
            "constraints:" => {
                section = "constraints";
                continue;
            }
            _ => {}
        }
        match section {
            "hierarchy" => {
                let (child, parents) = line.split_once('>').ok_or_else(|| {
                    SchemaParseError::Syntax(format!("expected `child > parents`: {line}"))
                })?;
                let child_c = resolve(&mut builder, child.trim());
                for p in parents.split(',') {
                    let p = p.trim();
                    if p.is_empty() {
                        continue;
                    }
                    let parent_c = resolve(&mut builder, p);
                    builder.edge(child_c, parent_c);
                }
            }
            "constraints" => constraint_lines.push(raw),
            _ => {
                return Err(SchemaParseError::Syntax(format!(
                    "line outside hierarchy:/constraints: sections: {line}"
                )))
            }
        }
    }
    let g = Arc::new(builder.build().map_err(SchemaParseError::Hierarchy)?);
    let sigma = odc_constraint::parser::parse_sigma(&g, &constraint_lines.join("\n"))
        .map_err(SchemaParseError::Constraint)?;
    Ok(DimensionSchema::new(g, sigma))
}

fn resolve(b: &mut odc_hierarchy::HierarchySchemaBuilder, name: &str) -> Category {
    if name == "All" {
        b.all()
    } else {
        b.category(name)
    }
}

/// Renders a dimension schema back into the textual form [`parse_schema`]
/// reads: one `child > parents` line per category plus the constraints in
/// the printer's (re-parseable) syntax. `parse_schema(&schema_to_text(ds))`
/// yields a schema with the same edges and the same Σ, which is how a
/// resident server and a fresh CLI process can be handed *identical*
/// inputs from one in-memory catalog entry.
pub fn schema_to_text(ds: &DimensionSchema) -> String {
    let g = ds.hierarchy();
    let mut out = String::from("hierarchy:\n");
    for c in g.categories() {
        if c.is_all() || g.parents(c).is_empty() {
            continue;
        }
        let parents: Vec<&str> = g.parents(c).iter().map(|&p| g.name(p)).collect();
        out.push_str(&format!("  {} > {}\n", g.name(c), parents.join(", ")));
    }
    out.push_str("constraints:\n");
    for dc in ds.constraints() {
        out.push_str(&format!(
            "  {}\n",
            odc_constraint::printer::display_dc(g, dc)
        ));
    }
    out
}

/// One-call satisfiability: is `category` (by name) satisfiable in `ds`?
/// Unbudgeted, so the answer is always definite.
pub fn check_category_satisfiable(ds: &DimensionSchema, category: &str) -> Option<bool> {
    let c = ds.hierarchy().category_by_name(category)?;
    Some(odc_dimsat::Dimsat::new(ds).category_satisfiable(c).is_sat())
}

/// Budgeted one-call satisfiability: the full three-valued
/// [`odc_dimsat::Verdict`] under a resource [`Budget`]. Returns `None`
/// when the category name is unknown.
pub fn check_category_satisfiable_budgeted(
    ds: &DimensionSchema,
    category: &str,
    budget: Budget,
) -> Option<odc_dimsat::Verdict> {
    let c = ds.hierarchy().category_by_name(category)?;
    Some(
        odc_dimsat::Dimsat::new(ds)
            .with_budget(budget)
            .category_satisfiable(c)
            .verdict,
    )
}

/// One-call implication: does `ds` imply the constraint written in
/// `alpha_src`? Unbudgeted, so the answer is always definite.
pub fn check_implication(ds: &DimensionSchema, alpha_src: &str) -> Result<bool, ParseError> {
    let alpha = odc_constraint::parse_constraint(ds.hierarchy(), alpha_src)?;
    Ok(odc_dimsat::implies(ds, &alpha).implied())
}

/// Budgeted one-call implication: the full three-valued
/// [`odc_dimsat::ImplicationVerdict`] under a resource [`Budget`].
pub fn check_implication_budgeted(
    ds: &DimensionSchema,
    alpha_src: &str,
    budget: Budget,
) -> Result<odc_dimsat::ImplicationVerdict, ParseError> {
    let alpha = odc_constraint::parse_constraint(ds.hierarchy(), alpha_src)?;
    let mut gov = Governor::from_budget(budget);
    Ok(odc_dimsat::implies_governed(
        ds,
        &alpha,
        odc_dimsat::DimsatOptions::default(),
        &mut gov,
    )
    .verdict)
}

/// One-call summarizability (by category names). Returns `None` when a
/// name is unknown. Unbudgeted, so the answer is always definite.
pub fn check_summarizable(ds: &DimensionSchema, target: &str, sources: &[&str]) -> Option<bool> {
    let g = ds.hierarchy();
    let c = g.category_by_name(target)?;
    let s: Option<Vec<Category>> = sources.iter().map(|n| g.category_by_name(n)).collect();
    Some(odc_summarizability::is_summarizable_in_schema(ds, c, &s?).summarizable())
}

/// Budgeted one-call summarizability: the full three-valued
/// [`odc_summarizability::SummarizabilityVerdict`] under a resource
/// [`Budget`]. Returns `None` when a name is unknown.
pub fn check_summarizable_budgeted(
    ds: &DimensionSchema,
    target: &str,
    sources: &[&str],
    budget: Budget,
) -> Option<odc_summarizability::SummarizabilityVerdict> {
    let g = ds.hierarchy();
    let c = g.category_by_name(target)?;
    let s: Option<Vec<Category>> = sources.iter().map(|n| g.category_by_name(n)).collect();
    let s = s?;
    let mut gov = Governor::from_budget(budget);
    let opts = odc_dimsat::DimsatOptions::default();
    let run = odc_dimsat::Run::new(&mut gov);
    Some(odc_summarizability::is_summarizable_in_schema_run(ds, c, &s, opts, run).verdict)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOCATION: &str = r#"
        hierarchy:
          Store > City, SaleRegion
          City > Province, State, Country
          Province > SaleRegion
          State > SaleRegion, Country
          SaleRegion > Country
          Country > All
        constraints:
          Store_City
          Store.SaleRegion
          City = Washington <-> City_Country
          City = Washington -> City.Country = USA
          State.Country = Mexico | State.Country = USA
          State.Country = Mexico <-> State_SaleRegion
          Province.Country = Canada
    "#;

    #[test]
    fn parse_schema_round_trip() {
        let ds = parse_schema(LOCATION).unwrap();
        assert_eq!(ds.hierarchy().num_categories(), 7);
        assert_eq!(ds.constraints().len(), 7);
    }

    #[test]
    fn convenience_satisfiability() {
        let ds = parse_schema(LOCATION).unwrap();
        assert_eq!(check_category_satisfiable(&ds, "Store"), Some(true));
        assert_eq!(check_category_satisfiable(&ds, "Nope"), None);
    }

    #[test]
    fn convenience_implication() {
        let ds = parse_schema(LOCATION).unwrap();
        assert_eq!(
            check_implication(&ds, "Store.Country -> Store.City.Country"),
            Ok(true)
        );
        assert_eq!(check_implication(&ds, "Store.Country = Canada"), Ok(false));
    }

    #[test]
    fn convenience_summarizability() {
        let ds = parse_schema(LOCATION).unwrap();
        assert_eq!(check_summarizable(&ds, "Country", &["City"]), Some(true));
        assert_eq!(
            check_summarizable(&ds, "Country", &["State", "Province"]),
            Some(false)
        );
        assert_eq!(check_summarizable(&ds, "Country", &["Nope"]), None);
    }

    #[test]
    fn schema_text_round_trips() {
        let ds = parse_schema(LOCATION).unwrap();
        let text = schema_to_text(&ds);
        let ds2 = parse_schema(&text).unwrap();
        let (g, g2) = (ds.hierarchy(), ds2.hierarchy());
        assert_eq!(g.num_categories(), g2.num_categories());
        // Same edge set, compared by name (category ids may be renumbered
        // by first-appearance order).
        let edges = |g: &odc_hierarchy::HierarchySchema| {
            let mut e: Vec<(String, String)> = g
                .categories()
                .flat_map(|c| {
                    g.parents(c)
                        .iter()
                        .map(move |&p| (g.name(c).to_string(), g.name(p).to_string()))
                })
                .collect();
            e.sort();
            e
        };
        assert_eq!(edges(g), edges(g2));
        // Same Σ, compared by the printer's canonical text.
        let sigma = |ds: &DimensionSchema| {
            ds.constraints()
                .iter()
                .map(|dc| {
                    odc_constraint::printer::display_dc(ds.hierarchy(), dc).to_string()
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(sigma(&ds), sigma(&ds2));
    }

    #[test]
    fn parse_schema_errors() {
        assert!(matches!(
            parse_schema("hierarchy:\n  broken line\n"),
            Err(SchemaParseError::Syntax(_))
        ));
        assert!(matches!(
            parse_schema("Store > City\n"),
            Err(SchemaParseError::Syntax(_))
        ));
        assert!(matches!(
            parse_schema("hierarchy:\n  A > A\n"),
            Err(SchemaParseError::Hierarchy(_))
        ));
        assert!(matches!(
            parse_schema("hierarchy:\n  A > All\nconstraints:\n  A_B\n"),
            Err(SchemaParseError::Constraint(_))
        ));
    }
}
