//! # odc-hierarchy
//!
//! Hierarchy schemas for OLAP dimensions, following Definition 1 of
//! Hurtado & Mendelzon, *OLAP Dimension Constraints* (PODS 2002).
//!
//! A *hierarchy schema* is a directed graph `G = (C, ↗)` over a finite set
//! of categories with a distinguished top category `All`, such that
//!
//! * every category reaches `All` through the reflexive–transitive closure
//!   `↗*` of the edge relation, and
//! * no category has a self-loop (`c ↗ c` is forbidden).
//!
//! Unlike classical dimension models, the schema graph may contain
//! **cycles** (between distinct categories) and **shortcuts** (an edge
//! `c ↗ c'` together with a longer path from `c` to `c'`); both are needed
//! to model heterogeneous dimensions (Examples 3 and 4 of the paper).
//!
//! This crate provides:
//!
//! * [`Category`] — a cheap copyable handle for a category;
//! * [`HierarchySchema`] and [`HierarchySchemaBuilder`] — the validated
//!   schema graph;
//! * [`CatSet`] — a bit-set over the categories of one schema;
//! * path utilities (simple-path enumeration, reachability with exclusions)
//!   in [`paths`];
//! * [`Subhierarchy`] — the rooted sub-graphs of Definition 7, which are
//!   the search states of the DIMSAT algorithm;
//! * [`Interner`] — string interning shared by the higher layers;
//! * Graphviz export in [`dot`].
//!
//! ```
//! use odc_hierarchy::HierarchySchema;
//!
//! let mut b = HierarchySchema::builder();
//! let store = b.category("Store");
//! let city = b.category("City");
//! let country = b.category("Country");
//! b.edge(store, city);
//! b.edge(city, country);
//! b.edge_to_all(country);
//! let schema = b.build().unwrap();
//!
//! assert!(schema.reaches(store, country));
//! assert_eq!(schema.bottom_categories(), vec![store]);
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod catset;
pub mod dot;
pub mod error;
pub mod paths;
pub mod schema;
pub mod subhierarchy;
pub mod symbols;

pub use catset::CatSet;
pub use error::SchemaError;
pub use schema::{Category, HierarchySchema, HierarchySchemaBuilder};
pub use subhierarchy::{EdgeUndo, Subhierarchy};
pub use symbols::Interner;
