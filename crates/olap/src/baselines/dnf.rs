//! DNF flattening (Lehner, Albrecht & Wedekind, SSDBM 1998): transform a
//! heterogeneous dimension into *dimensional normal form* by removing the
//! categories that cause heterogeneity from the hierarchy (they become
//! plain attributes outside it).
//!
//! The paper's criticism — "the proposed transformation flattens the
//! child/parent relation, limiting summarizability in the dimension
//! instance" — is made measurable here: [`DnfReport::dropped`] lists the
//! aggregation granularities lost.

use odc_hierarchy::{Category, HierarchySchema};
use odc_instance::{validate, DimensionInstance, RollupTable};
use std::sync::Arc;

/// Outcome of a DNF flattening.
#[derive(Debug, Clone)]
pub struct DnfReport {
    /// The flattened, homogeneous instance over the reduced schema.
    pub instance: DimensionInstance,
    /// Categories kept in the hierarchy.
    pub kept: Vec<String>,
    /// Categories demoted to attributes (aggregation levels lost).
    pub dropped: Vec<String>,
    /// Whether the flattened instance satisfies C1–C7.
    pub valid: bool,
    /// Whether the flattened instance is homogeneous.
    pub homogeneous: bool,
}

/// Flattens `d` into DNF: keeps only the categories every base member
/// rolls up to (full coverage), rebuilding the hierarchy as the transitive
/// reduction of reachability among the kept categories.
pub fn dnf_flatten(d: &DimensionInstance) -> DnfReport {
    let g = d.schema();
    let rollup = RollupTable::new(d);
    let base = d.base_members();
    let bottoms = g.bottom_categories();

    // A category is kept when every base member reaches it (or it is a
    // bottom category / All).
    let keep: Vec<Category> = g
        .categories()
        .filter(|&c| {
            c.is_all()
                || bottoms.contains(&c)
                || (!base.is_empty() && base.iter().all(|&m| rollup.rolls_up_to_category(m, c)))
        })
        .collect();
    let dropped: Vec<Category> = g.categories().filter(|c| !keep.contains(c)).collect();

    // New hierarchy edges come from *member-level coverage*: `c1 → c2` is
    // a candidate when every member of `c1` rolls up to `c2` (schema
    // reachability is not enough — in the location data, Washington has
    // no SaleRegion ancestor even though City reaches SaleRegion in the
    // schema). Candidates are then transitively reduced over the coverage
    // relation itself.
    let covers = |c1: Category, c2: Category| -> bool {
        c1 != c2
            && g.reaches(c1, c2)
            && d.members_of(c1)
                .iter()
                .all(|&m| rollup.rolls_up_to_category(m, c2))
    };
    let mut nb = HierarchySchema::builder();
    let mut map: Vec<Option<Category>> = vec![None; g.num_categories()];
    for &c in &keep {
        map[c.index()] = Some(if c.is_all() {
            nb.all()
        } else {
            nb.category(g.name(c))
        });
    }
    for &c1 in &keep {
        for &c2 in &keep {
            if !covers(c1, c2) {
                continue;
            }
            let between = keep
                .iter()
                .any(|&c3| c3 != c1 && c3 != c2 && covers(c1, c3) && covers(c3, c2));
            if let (false, Some(n1), Some(n2)) = (between, map[c1.index()], map[c2.index()]) {
                nb.edge(n1, n2);
            }
        }
    }
    #[allow(clippy::expect_used, reason = "every kept category covers All")]
    let new_schema = Arc::new(
        nb.build()
            .expect("kept categories always include All and reach it"),
    );
    // The builder keeps category indices, so `map` is old → new; `back`
    // is new → old.
    let mut back = vec![Category::ALL; new_schema.num_categories()];
    for (old, new) in map.iter().enumerate() {
        if let Some(new) = new {
            back[new.index()] = Category::from_index(old);
        }
    }

    // New instance: members of kept categories, linked along the new
    // schema's edges via the rollup table.
    let mut ib = DimensionInstance::builder(Arc::clone(&new_schema));
    let mut new_members = vec![None; d.num_members()];
    for &c in &keep {
        let Some(nc) = map[c.index()] else { continue };
        if c.is_all() {
            new_members[0] = Some(ib.all());
            continue;
        }
        for &m in d.members_of(c) {
            new_members[m.index()] = Some(ib.member_named(d.key(m), nc, d.name(m)));
        }
    }
    for &c in &keep {
        let Some(nc) = map[c.index()] else { continue };
        for &m in d.members_of(c) {
            let Some(nm) = new_members[m.index()] else { continue };
            for &npc in new_schema.parents(nc) {
                let anc = rollup.ancestor_in(m, back[npc.index()]);
                if let Some(target) = anc.and_then(|a| new_members[a.index()]) {
                    ib.link(nm, target);
                }
            }
        }
    }
    let instance = ib.build_unchecked();
    let valid = validate(&instance).is_ok();
    let homogeneous = odc_instance::hetero::is_homogeneous(&instance);
    DnfReport {
        instance,
        kept: keep.iter().map(|&c| g.name(c).to_string()).collect(),
        dropped: dropped.iter().map(|&c| g.name(c).to_string()).collect(),
        valid,
        homogeneous,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_hierarchy::HierarchySchema;
    use std::sync::Arc;

    /// Heterogeneous: s1 → Toronto → Ontario(Province) → Canada;
    /// s2 → Austin → Texas(State) → USA. City and Country cover all
    /// stores; Province and State do not.
    fn hetero() -> DimensionInstance {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        let province = b.category("Province");
        let state = b.category("State");
        let country = b.category("Country");
        b.edge(store, city);
        b.edge(city, province);
        b.edge(city, state);
        b.edge(province, country);
        b.edge(state, country);
        b.edge_to_all(country);
        let g = Arc::new(b.build().unwrap());
        let mut ib = DimensionInstance::builder(g);
        let s1 = ib.member("s1", store);
        let s2 = ib.member("s2", store);
        let toronto = ib.member("Toronto", city);
        let austin = ib.member("Austin", city);
        let ontario = ib.member("Ontario", province);
        let texas = ib.member("Texas", state);
        let canada = ib.member("Canada", country);
        let usa = ib.member("USA", country);
        ib.link(s1, toronto);
        ib.link(s2, austin);
        ib.link(toronto, ontario);
        ib.link(austin, texas);
        ib.link(ontario, canada);
        ib.link(texas, usa);
        ib.link_to_all(canada);
        ib.link_to_all(usa);
        ib.build().unwrap()
    }

    #[test]
    fn drops_partial_coverage_categories() {
        let d = hetero();
        let report = dnf_flatten(&d);
        assert_eq!(report.dropped, vec!["Province", "State"]);
        assert!(report.kept.contains(&"City".to_string()));
        assert!(report.kept.contains(&"Country".to_string()));
        assert!(report.valid, "flattened instance violates C1–C7");
        assert!(report.homogeneous);
    }

    #[test]
    fn flattened_links_bridge_dropped_levels() {
        let d = hetero();
        let report = dnf_flatten(&d);
        let di = &report.instance;
        let toronto = di.member_by_key("Toronto").unwrap();
        let canada = di.member_by_key("Canada").unwrap();
        // City now links straight to Country.
        assert!(di.is_direct_child(toronto, canada));
        // Province members are gone.
        assert!(di.member_by_key("Ontario").is_none());
    }

    #[test]
    fn rollups_preserved_for_kept_categories() {
        let d = hetero();
        let report = dnf_flatten(&d);
        let di = &report.instance;
        let s1 = di.member_by_key("s1").unwrap();
        let country = di.schema().category_by_name("Country").unwrap();
        let canada = di.member_by_key("Canada").unwrap();
        assert_eq!(di.ancestor_in(s1, country), Some(canada));
    }

    #[test]
    fn homogeneous_input_keeps_everything() {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        b.edge(store, city);
        b.edge_to_all(city);
        let g = Arc::new(b.build().unwrap());
        let mut ib = DimensionInstance::builder(g);
        let s1 = ib.member("s1", store);
        let c1 = ib.member("c1", city);
        ib.link(s1, c1);
        ib.link_to_all(c1);
        let d = ib.build().unwrap();
        let report = dnf_flatten(&d);
        assert!(report.dropped.is_empty());
        assert_eq!(report.instance.num_members(), d.num_members());
        assert!(report.valid && report.homogeneous);
    }

    #[test]
    fn empty_instance_keeps_bottoms_and_all() {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        b.edge(store, city);
        b.edge_to_all(city);
        let g = Arc::new(b.build().unwrap());
        let d = DimensionInstance::builder(g).build().unwrap();
        let report = dnf_flatten(&d);
        // No base members → only bottoms and All survive the coverage
        // test.
        assert!(report.kept.contains(&"Store".to_string()));
        assert!(report.dropped.contains(&"City".to_string()));
    }
}
