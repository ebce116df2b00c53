//! # odc-olap
//!
//! The OLAP substrate that Definition 6 of Hurtado & Mendelzon, *OLAP
//! Dimension Constraints* (PODS 2002) quantifies over: fact tables,
//! distributive aggregate functions, single-category **cube views**
//! `CubeView(d, F, c, af(m)) = Π_{c, af(m)}(F ⋈ Γ_{c_b}^c d)`, and the
//! rewriting that derives a cube view from precomputed coarser views.
//!
//! A category `c` is *summarizable* from a set `S` in an instance `d`
//! exactly when, for every fact table and every distributive aggregate
//! function, the direct cube view at `c` equals the Definition-6
//! combination of the cube views at `S` ([`derive::derive_cube_view`]).
//! The summarizability crate uses this module to cross-validate
//! Theorem 1 empirically.
//!
//! The [`baselines`] module implements the two related-work
//! transformations the paper contrasts against (Section 1.3):
//!
//! * **null padding** (Pedersen & Jensen): make a heterogeneous instance
//!   homogeneous by inserting placeholder members;
//! * **DNF flattening** (Lehner et al.): drop heterogeneity-causing
//!   categories from the hierarchy.
//!
//! Both come with cost metrics (members added, categories lost, cube-view
//! sparsity), which experiment E12 reports.

pub mod agg;
pub mod baselines;
pub mod cube;
pub mod datacube;
pub mod derive;
pub mod fact;
pub mod groupby;

pub use agg::AggFn;
pub use cube::{cube_view, CubeView};
pub use datacube::{choose_source, cuboid, roll_up, Cuboid, DataCubeError, MultiFactTable, RollupPlan};
pub use derive::derive_cube_view;
pub use fact::{FactTable, FactTableError};
pub use groupby::{group_by, GroupColumn, NO_GROUP};
