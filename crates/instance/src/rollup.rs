//! Precomputed rollup tables.
//!
//! Condition C2 makes the rollup relation from any member to any category
//! single-valued, so the full closure of a validated instance fits in a
//! dense `members × categories` table of `Option<Member>`. The OLAP layer
//! (cube views, Definition 6) evaluates `Γ_{c1}^{c2}` against this table,
//! and the summarizability tests probe it heavily.

use crate::instance::{DimensionInstance, Member};
use odc_hierarchy::Category;

/// Dense rollup closure of a validated [`DimensionInstance`].
///
/// `table[m][c]` is the unique ancestor of member `m` in category `c`
/// (reflexively: `table[m][category_of(m)] == Some(m)`), or `None` when
/// `m` does not roll up to `c`.
#[derive(Debug, Clone)]
pub struct RollupTable {
    num_categories: usize,
    table: Vec<Option<Member>>,
}

impl RollupTable {
    /// Builds the closure for `d`.
    ///
    /// # Panics
    /// Debug-asserts C2: the input must be a validated instance.
    pub fn new(d: &DimensionInstance) -> Self {
        let nc = d.schema().num_categories();
        let nm = d.num_members();
        let mut table: Vec<Option<Member>> = vec![None; nc * nm];
        // A member's row is the union of its parents' rows, so parents
        // fill first: a memoized depth-first walk up the parent links.
        let mut done = vec![false; nm];
        for m in d.members() {
            Self::fill(d, m, &mut table, &mut done, nc);
        }
        RollupTable {
            num_categories: nc,
            table,
        }
    }

    fn fill(
        d: &DimensionInstance,
        m: Member,
        table: &mut [Option<Member>],
        done: &mut [bool],
        nc: usize,
    ) {
        if done[m.index()] {
            return;
        }
        done[m.index()] = true;
        let base = m.index() * nc;
        table[base + d.category_of(m).index()] = Some(m);
        // Recursion depth is at most the number of categories: on a
        // validated instance every link follows an edge of the acyclic
        // schema (C1), so a chain of parents visits each category at
        // most once. `done` is set before recursing, so even a cyclic
        // input terminates.
        for &p in d.parents(m) {
            Self::fill(d, p, table, done, nc);
            for c in 0..nc {
                let v = table[p.index() * nc + c];
                if let Some(a) = v {
                    let slot = &mut table[base + c];
                    debug_assert!(
                        slot.is_none() || *slot == Some(a),
                        "C2 violated: two ancestors in one category"
                    );
                    *slot = Some(a);
                }
            }
        }
    }

    /// The unique ancestor of `m` in `c`, if any.
    #[inline]
    pub fn ancestor_in(&self, m: Member, c: Category) -> Option<Member> {
        self.table[m.index() * self.num_categories + c.index()]
    }

    /// Whether `m` rolls up to category `c`.
    #[inline]
    pub fn rolls_up_to_category(&self, m: Member, c: Category) -> bool {
        self.ancestor_in(m, c).is_some()
    }

    /// The rollup mapping `Γ_{c1}^{c2}` read off the table.
    pub fn rollup_mapping(
        &self,
        d: &DimensionInstance,
        c1: Category,
        c2: Category,
    ) -> Vec<(Member, Member)> {
        d.members_of(c1)
            .iter()
            .filter_map(|&x| self.ancestor_in(x, c2).map(|y| (x, y)))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_hierarchy::HierarchySchema;
    use std::sync::Arc;

    fn heterogeneous() -> (DimensionInstance, Vec<Member>) {
        // Store → City → {Province, State} → Country → All, with one city
        // rolling to Province and one to State.
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

        let mut ib = DimensionInstance::builder(Arc::clone(&g));
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
        let d = ib.build().unwrap();
        (
            d,
            vec![s1, s2, toronto, austin, ontario, texas, canada, usa],
        )
    }

    #[test]
    fn table_matches_instance_queries() {
        let (d, _) = heterogeneous();
        let t = RollupTable::new(&d);
        for m in d.members() {
            for c in d.schema().categories() {
                assert_eq!(t.ancestor_in(m, c), d.ancestor_in(m, c), "m={m:?} c={c:?}");
            }
        }
    }

    #[test]
    fn reflexive_entries() {
        let (d, ms) = heterogeneous();
        let t = RollupTable::new(&d);
        let city = d.schema().category_by_name("City").unwrap();
        assert_eq!(t.ancestor_in(ms[2], city), Some(ms[2]));
    }

    #[test]
    fn heterogeneous_rollup_is_partial() {
        let (d, ms) = heterogeneous();
        let t = RollupTable::new(&d);
        let province = d.schema().category_by_name("Province").unwrap();
        let state = d.schema().category_by_name("State").unwrap();
        // s1 → Ontario (Province), no State; s2 the mirror image.
        assert_eq!(t.ancestor_in(ms[0], province), Some(ms[4]));
        assert_eq!(t.ancestor_in(ms[0], state), None);
        assert_eq!(t.ancestor_in(ms[1], state), Some(ms[5]));
        assert_eq!(t.ancestor_in(ms[1], province), None);
    }

    #[test]
    fn mapping_matches_instance_mapping() {
        let (d, _) = heterogeneous();
        let t = RollupTable::new(&d);
        let store = d.schema().category_by_name("Store").unwrap();
        let country = d.schema().category_by_name("Country").unwrap();
        assert_eq!(
            t.rollup_mapping(&d, store, country),
            d.rollup_mapping(store, country)
        );
    }

    #[test]
    fn everyone_reaches_all() {
        let (d, _) = heterogeneous();
        let t = RollupTable::new(&d);
        for m in d.members() {
            assert_eq!(t.ancestor_in(m, Category::ALL), Some(Member::ALL));
        }
    }
}
