//! The aggregate navigator (Kimball's term, Section 1.2), made sound:
//! rewrite a cube-view query over precomputed views only when
//! summarizability guarantees the rewriting is correct in *every*
//! instance of the schema.

use crate::theorem1::is_summarizable_in_schema_session;
use odc_constraint::DimensionSchema;
use odc_dimsat::{DimsatOptions, ImplicationCache};
use odc_govern::Governor;
use odc_hierarchy::Category;
use odc_instance::{DimensionInstance, RollupTable};
use odc_olap::{cube::CubeView, derive_cube_view};

/// A verified rewriting: the cube view at `target` can be computed from
/// the views at `sources` in every instance of the schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RewritePlan {
    /// The query category.
    pub target: Category,
    /// The materialized categories the rewriting reads.
    pub sources: Vec<Category>,
}

/// Finds every *minimal* source set `S ⊆ available` from which `target`
/// is summarizable (no proper subset of a returned set works). Subsets
/// are explored in increasing size, so the cheapest (fewest-view)
/// rewritings come first.
pub fn find_rewrites(
    ds: &DimensionSchema,
    target: Category,
    available: &[Category],
) -> Vec<RewritePlan> {
    let mut gov = Governor::unlimited();
    find_rewrites_governed(ds, target, available, &mut gov)
}

/// [`find_rewrites`] under a caller-supplied [`Governor`]. Every plan
/// returned is *proved* sound; an exhausted budget (or a view pool larger
/// than 62, whose subset space cannot even be enumerated) stops the
/// search early and returns the plans proved so far — check
/// [`Governor::interrupt`] to tell a complete answer from a truncated
/// one. A subset whose summarizability query comes back Unknown is
/// conservatively treated as not-proved and skipped.
pub fn find_rewrites_governed(
    ds: &DimensionSchema,
    target: Category,
    available: &[Category],
    gov: &mut Governor,
) -> Vec<RewritePlan> {
    let cache = ImplicationCache::for_schema(ds);
    find_rewrites_memo(ds, target, available, gov, &cache)
}

/// [`find_rewrites_governed`] through a caller-owned implication
/// memo-cache. The navigator's subset sweep issues one Theorem-1 battery
/// per candidate source set; a cache shared across calls (several
/// targets, evolving view pools) answers repeated `(root, α)` implication
/// queries against the same schema without re-running DIMSAT.
pub fn find_rewrites_memo(
    ds: &DimensionSchema,
    target: Category,
    available: &[Category],
    gov: &mut Governor,
    cache: &ImplicationCache,
) -> Vec<RewritePlan> {
    let n = available.len();
    let mut found: Vec<Vec<Category>> = Vec::new();
    if n < 63 {
        // Enumerate by subset size for minimality.
        let mut masks: Vec<u64> = (1u64..(1 << n)).collect();
        masks.sort_by_key(|m| m.count_ones());
        for mask in masks {
            if gov.tick_node().is_err() {
                break;
            }
            let s: Vec<Category> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| available[i])
                .collect();
            // Skip supersets of known solutions (not minimal).
            if found.iter().any(|sol| sol.iter().all(|c| s.contains(c))) {
                continue;
            }
            let out = is_summarizable_in_schema_session(
                ds,
                target,
                &s,
                DimsatOptions::default(),
                gov,
                cache.begin_session(),
            );
            if out.is_unknown() {
                break;
            }
            if out.summarizable() {
                found.push(s);
            }
        }
    }
    found
        .into_iter()
        .map(|sources| RewritePlan { target, sources })
        .collect()
}

/// Picks the cheapest rewriting under a per-category cost (for example,
/// the number of members of each materialized view). Falls back to `None`
/// when no combination of the available views suffices.
pub fn best_rewrite(
    ds: &DimensionSchema,
    target: Category,
    available: &[Category],
    cost: impl Fn(Category) -> u64,
) -> Option<RewritePlan> {
    find_rewrites(ds, target, available)
        .into_iter()
        .min_by_key(|plan| plan.sources.iter().map(|&c| cost(c)).sum::<u64>())
}

/// Executes a rewriting against materialized views: combines the source
/// views per Definition 6. The caller is responsible for passing views
/// computed with the same aggregate function; the plan's soundness comes
/// from [`find_rewrites`].
pub fn execute(
    d: &DimensionInstance,
    rollup: &RollupTable,
    plan: &RewritePlan,
    views: &[&CubeView],
) -> CubeView {
    debug_assert_eq!(views.len(), plan.sources.len());
    derive_cube_view(d, rollup, views, plan.target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_hierarchy::HierarchySchema;
    use odc_olap::{cube_view, AggFn, FactTable};
    use std::sync::Arc;

    fn location_sch() -> DimensionSchema {
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
        let g = Arc::new(b.build().unwrap());
        DimensionSchema::parse(
            g,
            r#"
            Store_City
            Store.SaleRegion
            City = Washington <-> City_Country
            City = Washington -> City.Country = USA
            State.Country = Mexico | State.Country = USA
            State.Country = Mexico <-> State_SaleRegion
            Province.Country = Canada
            "#,
        )
        .unwrap()
    }

    fn cat(ds: &DimensionSchema, n: &str) -> Category {
        ds.hierarchy().category_by_name(n).unwrap()
    }

    #[test]
    fn country_rewrites_from_view_pool() {
        let ds = location_sch();
        let pool = [
            cat(&ds, "City"),
            cat(&ds, "State"),
            cat(&ds, "Province"),
            cat(&ds, "SaleRegion"),
        ];
        let plans = find_rewrites(&ds, cat(&ds, "Country"), &pool);
        let source_sets: Vec<Vec<&str>> = plans
            .iter()
            .map(|p| p.sources.iter().map(|&c| ds.hierarchy().name(c)).collect())
            .collect();
        // {City} and {SaleRegion} work; {State, Province} famously does
        // not (Washington).
        assert!(source_sets.contains(&vec!["City"]), "{source_sets:?}");
        assert!(source_sets.contains(&vec!["SaleRegion"]), "{source_sets:?}");
        assert!(!source_sets
            .iter()
            .any(|s| { s.len() == 2 && s.contains(&"State") && s.contains(&"Province") }));
        // Minimality: no superset of {City} is reported.
        assert!(!source_sets
            .iter()
            .any(|s| s.len() > 1 && s.contains(&"City")));
    }

    #[test]
    fn best_rewrite_honors_costs() {
        let ds = location_sch();
        let pool = [cat(&ds, "City"), cat(&ds, "SaleRegion")];
        let city = cat(&ds, "City");
        // Make City expensive: SaleRegion wins.
        let plan = best_rewrite(&ds, cat(&ds, "Country"), &pool, |c| {
            if c == city {
                1000
            } else {
                1
            }
        })
        .unwrap();
        assert_eq!(plan.sources, vec![cat(&ds, "SaleRegion")]);
    }

    #[test]
    fn no_rewrite_from_insufficient_pool() {
        let ds = location_sch();
        let pool = [cat(&ds, "State"), cat(&ds, "Province")];
        assert!(best_rewrite(&ds, cat(&ds, "Country"), &pool, |_| 1).is_none());
    }

    #[test]
    fn executed_plan_matches_direct_computation() {
        let ds = location_sch();
        // Build a concrete instance over the schema (the Figure 1(B)
        // data) and check the navigator's answer equals the direct scan.
        let g = ds.hierarchy_arc();
        let mut ib = DimensionInstance::builder(g);
        let sch = ib.schema();
        let (store, city, province, state, sale_region, country) = (
            sch.category_by_name("Store").unwrap(),
            sch.category_by_name("City").unwrap(),
            sch.category_by_name("Province").unwrap(),
            sch.category_by_name("State").unwrap(),
            sch.category_by_name("SaleRegion").unwrap(),
            sch.category_by_name("Country").unwrap(),
        );
        let canada = ib.member("Canada", country);
        let usa = ib.member("USA", country);
        ib.link_to_all(canada);
        ib.link_to_all(usa);
        let east = ib.member("East", sale_region);
        ib.link(east, canada);
        let us_region = ib.member("USRegion", sale_region);
        ib.link(us_region, usa);
        let ontario = ib.member("Ontario", province);
        ib.link(ontario, east);
        let texas = ib.member("Texas", state);
        ib.link(texas, usa);
        let toronto = ib.member("Toronto", city);
        ib.link(toronto, ontario);
        let austin = ib.member("Austin", city);
        ib.link(austin, texas);
        let s1 = ib.member("s1", store);
        ib.link(s1, toronto);
        let s2 = ib.member("s2", store);
        ib.link(s2, austin);
        ib.link(s2, us_region);
        let d = ib.build().unwrap();
        assert!(ds.admits(&d), "instance must satisfy Σ");

        let rollup = RollupTable::new(&d);
        let facts = FactTable::from_rows(vec![(s1, 3), (s1, 4), (s2, 10)]);
        let plan = best_rewrite(&ds, country, &[city], |_| 1).unwrap();
        let city_view = cube_view(&d, &rollup, &facts, city, AggFn::Sum);
        let answer = execute(&d, &rollup, &plan, &[&city_view]);
        let direct = cube_view(&d, &rollup, &facts, country, AggFn::Sum);
        assert_eq!(answer, direct);
        assert_eq!(answer.get(canada), Some(7));
        assert_eq!(answer.get(usa), Some(10));
    }
}
