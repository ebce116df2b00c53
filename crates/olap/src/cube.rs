//! Single-category cube views:
//! `CubeView(d, F, c, af(m)) = Π_{c, af(m)}(F ⋈ Γ_{c_b}^c d)`.

use crate::agg::AggFn;
use crate::fact::FactTable;
use odc_hierarchy::Category;
use odc_instance::{DimensionInstance, Member, RollupTable};
use std::collections::BTreeMap;

/// A materialized cube view: aggregated measure per member of the view's
/// category. Members whose group is empty do not appear (the relational
/// projection drops them).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CubeView {
    /// The view's category.
    pub category: Category,
    /// The aggregate function it was computed with.
    pub agg: AggFn,
    /// Aggregated value per member, ordered by member for deterministic
    /// comparisons.
    pub cells: BTreeMap<Member, i64>,
}

impl CubeView {
    /// The number of non-empty cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the view is empty.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The value for one member, if its group was non-empty.
    pub fn get(&self, m: Member) -> Option<i64> {
        self.cells.get(&m).copied()
    }
}

/// Computes `CubeView(d, F, c, af(m))` directly from the raw facts: each
/// fact row joins with the rollup mapping from its base member to `c`;
/// rows whose member does not roll up to `c` drop out of the join.
pub fn cube_view(
    d: &DimensionInstance,
    rollup: &RollupTable,
    facts: &FactTable,
    c: Category,
    agg: AggFn,
) -> CubeView {
    let mut groups: BTreeMap<Member, Vec<i64>> = BTreeMap::new();
    for &(m, v) in facts.rows() {
        if let Some(anc) = rollup.ancestor_in(m, c) {
            groups.entry(anc).or_default().push(v);
        }
    }
    let _ = d;
    let cells = groups
        .into_iter()
        .filter_map(|(m, vs)| Some((m, agg.apply(&vs)?)))
        .collect();
    CubeView {
        category: c,
        agg,
        cells,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_hierarchy::HierarchySchema;
    use std::sync::Arc;

    /// Heterogeneous mini-dimension: s1,s2 → Toronto → Ontario → Canada;
    /// s3 → Austin → Texas → USA; s4 → Washington → USA (no state).
    fn setup() -> (DimensionInstance, RollupTable, FactTable) {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        let state = b.category("State");
        let country = b.category("Country");
        b.edge(store, city);
        b.edge(city, state);
        b.edge(city, country);
        b.edge(state, country);
        b.edge_to_all(country);
        let g = Arc::new(b.build().unwrap());
        let mut ib = DimensionInstance::builder(g);
        let store_c = ib.schema().category_by_name("Store").unwrap();
        let city_c = ib.schema().category_by_name("City").unwrap();
        let state_c = ib.schema().category_by_name("State").unwrap();
        let country_c = ib.schema().category_by_name("Country").unwrap();
        let s1 = ib.member("s1", store_c);
        let s2 = ib.member("s2", store_c);
        let s3 = ib.member("s3", store_c);
        let s4 = ib.member("s4", store_c);
        let toronto = ib.member("Toronto", city_c);
        let austin = ib.member("Austin", city_c);
        let washington = ib.member("Washington", city_c);
        let ontario = ib.member("Ontario", state_c);
        let texas = ib.member("Texas", state_c);
        let canada = ib.member("Canada", country_c);
        let usa = ib.member("USA", country_c);
        ib.link(s1, toronto);
        ib.link(s2, toronto);
        ib.link(s3, austin);
        ib.link(s4, washington);
        ib.link(toronto, ontario);
        ib.link(austin, texas);
        ib.link(washington, usa);
        ib.link(ontario, canada);
        ib.link(texas, usa);
        ib.link_to_all(canada);
        ib.link_to_all(usa);
        let d = ib.build().unwrap();
        let rollup = RollupTable::new(&d);
        let facts = FactTable::from_rows(vec![(s1, 10), (s1, 5), (s2, 7), (s3, 100), (s4, 1)]);
        (d, rollup, facts)
    }

    #[test]
    fn sum_by_city() {
        let (d, r, f) = setup();
        let city = d.schema().category_by_name("City").unwrap();
        let cv = cube_view(&d, &r, &f, city, AggFn::Sum);
        let toronto = d.member_by_key("Toronto").unwrap();
        let austin = d.member_by_key("Austin").unwrap();
        let washington = d.member_by_key("Washington").unwrap();
        assert_eq!(cv.get(toronto), Some(22));
        assert_eq!(cv.get(austin), Some(100));
        assert_eq!(cv.get(washington), Some(1));
        assert_eq!(cv.len(), 3);
    }

    #[test]
    fn count_by_country() {
        let (d, r, f) = setup();
        let country = d.schema().category_by_name("Country").unwrap();
        let cv = cube_view(&d, &r, &f, country, AggFn::Count);
        let canada = d.member_by_key("Canada").unwrap();
        let usa = d.member_by_key("USA").unwrap();
        assert_eq!(cv.get(canada), Some(3));
        assert_eq!(cv.get(usa), Some(2));
    }

    #[test]
    fn partial_rollup_drops_rows() {
        // Facts on s4 do not reach State (Washington has no state).
        let (d, r, f) = setup();
        let state = d.schema().category_by_name("State").unwrap();
        let cv = cube_view(&d, &r, &f, state, AggFn::Sum);
        let ontario = d.member_by_key("Ontario").unwrap();
        let texas = d.member_by_key("Texas").unwrap();
        assert_eq!(cv.get(ontario), Some(22));
        assert_eq!(cv.get(texas), Some(100));
        assert_eq!(cv.len(), 2, "s4's fact vanished from the State view");
    }

    #[test]
    fn min_max_at_all() {
        let (d, r, f) = setup();
        let cv_min = cube_view(&d, &r, &f, Category::ALL, AggFn::Min);
        let cv_max = cube_view(&d, &r, &f, Category::ALL, AggFn::Max);
        assert_eq!(cv_min.get(Member::ALL), Some(1));
        assert_eq!(cv_max.get(Member::ALL), Some(100));
    }

    #[test]
    fn view_at_base_category_echoes_grouped_facts() {
        let (d, r, f) = setup();
        let store = d.schema().category_by_name("Store").unwrap();
        let cv = cube_view(&d, &r, &f, store, AggFn::Sum);
        let s1 = d.member_by_key("s1").unwrap();
        assert_eq!(cv.get(s1), Some(15));
        assert_eq!(cv.len(), 4);
    }

    #[test]
    fn empty_fact_table_empty_view() {
        let (d, r, _) = setup();
        let cv = cube_view(&d, &r, &FactTable::new(), Category::ALL, AggFn::Sum);
        assert!(cv.is_empty());
        assert_eq!(cv.get(Member::ALL), None);
    }

    #[test]
    fn members_without_facts_are_absent() {
        let (d, r, _) = setup();
        let s2 = d.member_by_key("s2").unwrap();
        let f = FactTable::from_rows(vec![(s2, 9)]);
        let city = d.schema().category_by_name("City").unwrap();
        let cv = cube_view(&d, &r, &f, city, AggFn::Sum);
        assert_eq!(cv.len(), 1);
        let austin = d.member_by_key("Austin").unwrap();
        assert_eq!(cv.get(austin), None);
    }
}
