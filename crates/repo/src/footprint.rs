//! Proof footprints and schema deltas — the incremental-invalidation
//! core.
//!
//! A solve rooted at category `c` only ever examines `region(c)`: the
//! categories upward-reachable from `c` (including `c` itself), the
//! edges among them, and the constraints rooted inside them. That
//! locality is what makes verdicts reusable across schema edits: an
//! edit whose *delta* (the categories it touches) is disjoint from a
//! verdict's footprint cannot change that verdict.
//!
//! Deltas are computed between [`SchemaSummary`] values — a flattened
//! structural digest (category names, edge name pairs, constraint
//! root + display text) that is also what gets persisted in `schema`
//! records, so the repository can diff against schemas it has never
//! seen in this process.

use std::collections::BTreeSet;

use odc_constraint::{printer, DimensionSchema};
use odc_hierarchy::{Category, HierarchySchema};

use crate::record::StoredVerdict;

/// `region(c)`: `c` plus every category reachable upward from it,
/// as sorted names.
pub fn region(g: &HierarchySchema, c: Category) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    out.insert(g.name(c).to_string());
    for r in g.reachable_from(c).iter() {
        out.insert(g.name(r).to_string());
    }
    out
}

/// Union of [`region`] over several roots.
pub fn regions(g: &HierarchySchema, roots: &[Category]) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for &c in roots {
        out.extend(region(g, c));
    }
    out
}

/// Sentinel footprint/delta token standing for "the hierarchy's
/// category or edge structure". Not a legal category name, so it can
/// never collide with a real region member.
///
/// A `Summarizable` verdict is a conjunction over the *current*
/// bottom set: a structural edit anywhere can mint a new bottom whose
/// Theorem-1 constraint fails, without touching any category the old
/// battery examined. Positive verdicts therefore carry this sentinel
/// in their footprint, and [`SchemaSummary::delta`] includes it
/// whenever categories or edges changed — constraint-only edits (the
/// common tuning loop) leave it out, so positive verdicts with
/// disjoint regions survive those. Negative verdicts are witnessed by
/// one failing implication that no edit outside its region can
/// repair, so they never need the sentinel.
pub const STRUCTURE_SENTINEL: &str = "%structure%";

/// Footprint of a summarizability-battery verdict for target `c`.
///
/// A `NotSummarizable` verdict is witnessed by one failing bottom
/// alone: an edit outside that bottom's region leaves the witness
/// implication — and hence the verdict — intact, so the footprint is
/// just that region. (This asymmetry is what keeps negative verdicts
/// cheap to retain across unrelated edits.) A `Summarizable` verdict
/// depended on every non-trivial implication in the battery (the
/// bottoms that reach the target; the rest are vacuous) plus the
/// battery's membership, so it takes those regions, the target's
/// region, and [`STRUCTURE_SENTINEL`].
pub fn summarizable_footprint(
    g: &HierarchySchema,
    target: Category,
    failing_bottom: Option<Category>,
) -> BTreeSet<String> {
    if let Some(fb) = failing_bottom {
        return region(g, fb);
    }
    let mut out = BTreeSet::new();
    for b in g.bottom_categories() {
        if g.reaches(b, target) || b == target {
            out.extend(region(g, b));
        }
    }
    // The target's own region is examined when assembling the battery.
    out.extend(region(g, target));
    out.insert(STRUCTURE_SENTINEL.to_string());
    out
}

/// The failing bottom a refuted summarizability verdict was stored with,
/// read back from its footprint: [`summarizable_footprint`] stores a
/// refutation as its failing bottom's [`region`], and that bottom is the
/// region's only bottom category. `None` for a verdict that holds (a
/// refutation's value is `false` in `cli-summarizable` records, `no` in
/// audit `rewrite` records).
pub fn failing_bottom(g: &HierarchySchema, verdict: &StoredVerdict) -> Option<Category> {
    if verdict.value != "false" && verdict.value != "no" {
        return None;
    }
    g.bottom_categories()
        .into_iter()
        .find(|&b| verdict.footprint.iter().any(|n| n == g.name(b)))
}

/// Flattened structural digest of a dimension schema, diffable
/// against digests loaded from disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SchemaSummary {
    /// Category names.
    pub categories: BTreeSet<String>,
    /// Edges as `(child, parent)` name pairs.
    pub edges: BTreeSet<(String, String)>,
    /// Constraints as `(root name, display form)`; a multiset via
    /// count so duplicate constraints diff correctly.
    pub constraints: Vec<(String, String)>,
}

impl SchemaSummary {
    /// Build the digest for `ds`.
    pub fn of(ds: &DimensionSchema) -> SchemaSummary {
        let g = ds.hierarchy();
        let categories = g.categories().map(|c| g.name(c).to_string()).collect();
        let edges = g
            .edges()
            .map(|(c, p)| (g.name(c).to_string(), g.name(p).to_string()))
            .collect();
        let mut constraints: Vec<(String, String)> = ds
            .constraints()
            .iter()
            .map(|dc| {
                (
                    g.name(dc.root()).to_string(),
                    format!("{}", printer::display_dc(g, dc)),
                )
            })
            .collect();
        constraints.sort();
        SchemaSummary {
            categories,
            edges,
            constraints,
        }
    }

    /// Serialize to the `s`-line form stored in `schema` records.
    pub fn encode_lines(&self) -> Vec<String> {
        let mut out = Vec::new();
        for c in &self.categories {
            out.push(format!("cat {c}"));
        }
        for (c, p) in &self.edges {
            out.push(format!("edge {c} -> {p}"));
        }
        for (root, disp) in &self.constraints {
            out.push(format!("con {root} :: {disp}"));
        }
        out
    }

    /// Parse the `s`-line form. Unknown lines are ignored (forward
    /// compatibility for future summary facts).
    pub fn decode_lines(lines: &[String]) -> SchemaSummary {
        let mut categories = BTreeSet::new();
        let mut edges = BTreeSet::new();
        let mut constraints = Vec::new();
        for line in lines {
            if let Some(rest) = line.strip_prefix("cat ") {
                categories.insert(rest.to_string());
            } else if let Some(rest) = line.strip_prefix("edge ") {
                if let Some((c, p)) = rest.split_once(" -> ") {
                    edges.insert((c.to_string(), p.to_string()));
                }
            } else if let Some(rest) = line.strip_prefix("con ") {
                if let Some((root, disp)) = rest.split_once(" :: ") {
                    constraints.push((root.to_string(), disp.to_string()));
                }
            }
        }
        constraints.sort();
        SchemaSummary {
            categories,
            edges,
            constraints,
        }
    }

    /// The set of category names touched by the edit that transforms
    /// `self` into `new`: added/removed categories, both endpoints of
    /// added/removed edges, and the roots of added/removed/changed
    /// constraints (multiset difference, so editing one of two equal
    /// constraints still registers).
    pub fn delta(&self, new: &SchemaSummary) -> BTreeSet<String> {
        let mut touched = BTreeSet::new();
        for c in self.categories.symmetric_difference(&new.categories) {
            touched.insert(c.clone());
        }
        for (c, p) in self.edges.symmetric_difference(&new.edges) {
            touched.insert(c.clone());
            touched.insert(p.clone());
        }
        if !touched.is_empty() {
            // Categories or edges changed: the hierarchy's structure
            // moved, which can re-shape bottom sets and reachability.
            touched.insert(STRUCTURE_SENTINEL.to_string());
        }
        let mut diff = |a: &[(String, String)], b: &[(String, String)]| {
            let mut rest = b.to_vec();
            for item in a {
                if let Some(pos) = rest.iter().position(|x| x == item) {
                    rest.remove(pos);
                } else {
                    touched.insert(item.0.clone());
                }
            }
        };
        diff(&self.constraints, &new.constraints);
        diff(&new.constraints, &self.constraints);
        touched
    }

    /// Size of the delta — used to pick the nearest stored schema
    /// when migrating verdicts to an edited schema.
    pub fn distance(&self, new: &SchemaSummary) -> usize {
        self.delta(new).len()
    }
}

/// `true` if the edit `delta` cannot affect a verdict with this
/// `footprint`, i.e. they are disjoint.
pub fn survives(footprint: &[String], delta: &BTreeSet<String>) -> bool {
    footprint.iter().all(|c| !delta.contains(c))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_hierarchy::Category as Cat;
    use std::sync::Arc;

    fn chain_schema(sigma: &str) -> DimensionSchema {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        let country = b.category("Country");
        let brand = b.category("Brand");
        b.chain(&[store, city, country, Cat::ALL]);
        b.edge(store, brand);
        b.edge(brand, Cat::ALL);
        let g = Arc::new(b.build().unwrap());
        DimensionSchema::parse(g, sigma).unwrap()
    }

    fn cat(ds: &DimensionSchema, n: &str) -> Category {
        ds.hierarchy().category_by_name(n).unwrap()
    }

    #[test]
    fn region_is_upward_closure() {
        let ds = chain_schema("");
        let r = region(ds.hierarchy(), cat(&ds, "City"));
        assert!(r.contains("City") && r.contains("Country") && r.contains("All"));
        assert!(!r.contains("Store") && !r.contains("Brand"));
    }

    #[test]
    fn summary_round_trip() {
        let ds = chain_schema("Store_City\nBrand_All\n");
        let s = SchemaSummary::of(&ds);
        let back = SchemaSummary::decode_lines(&s.encode_lines());
        assert_eq!(s, back);
    }

    #[test]
    fn constraint_edit_delta_is_roots_only() {
        let old = SchemaSummary::of(&chain_schema("Store_City\nBrand_All\n"));
        let new = SchemaSummary::of(&chain_schema("Store_Brand\nBrand_All\n"));
        let d = old.delta(&new);
        assert_eq!(d.into_iter().collect::<Vec<_>>(), vec!["Store".to_string()]);
    }

    #[test]
    fn identical_schemas_have_empty_delta() {
        let a = SchemaSummary::of(&chain_schema("Store_City\n"));
        let b = SchemaSummary::of(&chain_schema("Store_City\n"));
        assert!(a.delta(&b).is_empty());
        assert_eq!(a.distance(&b), 0);
    }

    #[test]
    fn structural_edit_delta_carries_the_sentinel() {
        let base = SchemaSummary::of(&chain_schema(""));
        // Same categories, one extra edge: City joins Brand's region.
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        let country = b.category("Country");
        let brand = b.category("Brand");
        b.chain(&[store, city, country, Cat::ALL]);
        b.edge(store, brand);
        b.edge(brand, Cat::ALL);
        b.edge(city, brand);
        let edited = DimensionSchema::parse(Arc::new(b.build().unwrap()), "").unwrap();
        let d = base.delta(&SchemaSummary::of(&edited));
        assert!(d.contains(STRUCTURE_SENTINEL));
        assert!(d.contains("City") && d.contains("Brand"));
        // A positive summarizability footprint always overlaps it.
        let ds = chain_schema("");
        let fp = summarizable_footprint(ds.hierarchy(), cat(&ds, "Country"), None);
        assert!(fp.contains(STRUCTURE_SENTINEL));
        assert!(!survives(&fp.iter().cloned().collect::<Vec<_>>(), &d));
    }

    #[test]
    fn negative_footprint_is_one_region_without_sentinel() {
        let ds = chain_schema("");
        let fp = summarizable_footprint(ds.hierarchy(), cat(&ds, "Country"), Some(cat(&ds, "Store")));
        assert!(fp.contains("Store") && !fp.contains(STRUCTURE_SENTINEL));
    }

    #[test]
    fn failing_bottom_reads_back_a_refutation() {
        let ds = chain_schema("");
        let g = ds.hierarchy();
        let stored = |value: &str, fb| StoredVerdict {
            value: value.into(),
            payload: String::new(),
            footprint: summarizable_footprint(g, cat(&ds, "Country"), fb).into_iter().collect(),
        };
        let store = cat(&ds, "Store");
        assert_eq!(failing_bottom(g, &stored("false", Some(store))), Some(store));
        assert_eq!(failing_bottom(g, &stored("no", Some(store))), Some(store));
        assert_eq!(failing_bottom(g, &stored("true", None)), None);
    }

    #[test]
    fn survives_is_disjointness() {
        let mut delta = BTreeSet::new();
        delta.insert("City".to_string());
        assert!(survives(&["Store".into(), "Brand".into()], &delta));
        assert!(!survives(&["Store".into(), "City".into()], &delta));
    }
}
