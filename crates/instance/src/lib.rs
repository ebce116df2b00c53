//! # odc-instance
//!
//! Dimension instances (Definition 2 of Hurtado & Mendelzon, *OLAP
//! Dimension Constraints*, PODS 2002) and the seven structural conditions
//! C1–C7 of Figure 2.
//!
//! A dimension instance `d = (G, MembSet, <, Name)` assigns to each
//! category of a hierarchy schema a set of members, relates members by a
//! child/parent relation `<`, and gives every member a `Name` value. The
//! instance must satisfy:
//!
//! * **C1 (Connectivity)** — `x < x'` only along schema edges;
//! * **C2 (Partitioning / strictness)** — a member reaches at most one
//!   member of any category;
//! * **C3 (Disjointness)** — member sets are pairwise disjoint (guaranteed
//!   by construction here: every member carries exactly one category);
//! * **C4 (Top)** — `All` has exactly the member `all`;
//! * **C5 (No shortcuts)** — no direct link duplicated by a longer chain;
//! * **C6 (Stratification)** — categories do not straddle the
//!   descendant/ancestor relation (in particular `<` is acyclic);
//! * **C7 (Up connectivity)** — every non-`All` member has at least one
//!   parent. (The paper's statement reads `c' ↗ c`, which together with C1
//!   would force a two-cycle; the intent spelled out in its prose — "any
//!   member rolls up to at least one category directly above its
//!   category" — is what we implement.)
//!
//! The crate provides the instance container and builder
//! ([`DimensionInstance`], [`InstanceBuilder`]), full validation with
//! typed violations ([`fn@validate`]), rollup machinery
//! ([`rollup::RollupTable`], the mappings `Γ_{c1}^{c2}` of Section 2.2),
//! and heterogeneity analysis ([`hetero`]).
//!
//! ```
//! use odc_hierarchy::HierarchySchema;
//! use odc_instance::DimensionInstance;
//!
//! let mut b = HierarchySchema::builder();
//! let store = b.category("Store");
//! let city = b.category("City");
//! b.edge(store, city);
//! b.edge_to_all(city);
//! let schema = b.build().unwrap();
//!
//! let mut ib = DimensionInstance::builder(schema);
//! let s1 = ib.member("s1", store);
//! let toronto = ib.member("Toronto", city);
//! ib.link(s1, toronto);
//! ib.link_to_all(toronto);
//! let d = ib.build().unwrap();
//! assert!(d.rolls_up_to_category(s1, city));
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod builder;
pub mod hetero;
pub mod instance;
pub mod rollup;
pub mod text;
pub mod validate;

pub use builder::InstanceBuilder;
pub use instance::{DimensionInstance, Member};
pub use rollup::RollupTable;
pub use validate::{validate, ConditionViolation, ValidationReport};
