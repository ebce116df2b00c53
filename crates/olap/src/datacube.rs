//! Multi-dimensional data cubes.
//!
//! The paper's introduction frames the problem in a sales cube over
//! `(item, store, time)`; Definition 6 then works one dimension at a
//! time. This module supplies the multi-dimensional counterpart:
//! **cuboids** (group-bys at one category per dimension), the roll-up
//! derivation from a finer materialized cuboid, and the safety condition
//! the dimension-constraint machinery feeds it — a derivation
//! `(c1,…,cn) → (c1',…,cn')` is exact iff, in *each* dimension `i`,
//! `ci'` is summarizable from `{ci}`.
//!
//! The summarizability tests themselves live upstream
//! (`odc-summarizability`); this module takes per-dimension verdicts as
//! plain booleans so the crate layering stays acyclic.

use crate::agg::AggFn;
use crate::groupby::{group_by, GroupColumn, NO_GROUP};
use odc_hierarchy::Category;
use odc_instance::{DimensionInstance, Member, RollupTable};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

/// A structural defect in a [`MultiFactTable`], found by
/// [`MultiFactTable::validate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DataCubeError {
    /// A fact row keys a member that is not a *base* member of its
    /// dimension (facts live at the bottom of every dimension).
    NonBaseCoordinate {
        /// Index of the offending row.
        row: usize,
        /// Index of the offending dimension within the row.
        dim: usize,
    },
}

impl fmt::Display for DataCubeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataCubeError::NonBaseCoordinate { row, dim } => write!(
                f,
                "row {row}: coordinate {dim} is not a base member of its dimension"
            ),
        }
    }
}

impl std::error::Error for DataCubeError {}

/// A fact table over several dimensions: each row keys one base member
/// per dimension plus a measure.
#[derive(Debug, Clone)]
pub struct MultiFactTable {
    dims: Vec<Arc<DimensionInstance>>,
    rows: Vec<(Vec<Member>, i64)>,
}

impl MultiFactTable {
    /// Creates an empty table over the given dimensions.
    pub fn new(dims: Vec<Arc<DimensionInstance>>) -> Self {
        MultiFactTable {
            dims,
            rows: Vec::new(),
        }
    }

    /// The dimensions.
    pub fn dims(&self) -> &[Arc<DimensionInstance>] {
        &self.dims
    }

    /// Appends a fact row.
    ///
    /// # Panics
    /// Panics when the coordinate count does not match the dimension
    /// count.
    pub fn push(&mut self, coords: Vec<Member>, measure: i64) {
        assert_eq!(coords.len(), self.dims.len(), "coordinate arity mismatch");
        self.rows.push((coords, measure));
    }

    /// The raw rows.
    pub fn rows(&self) -> &[(Vec<Member>, i64)] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Checks that every coordinate is a base member of its dimension.
    pub fn validate(&self) -> Result<(), DataCubeError> {
        let bases: Vec<std::collections::HashSet<Member>> = self
            .dims
            .iter()
            .map(|d| d.base_members().into_iter().collect())
            .collect();
        for (i, (coords, _)) in self.rows.iter().enumerate() {
            for (k, m) in coords.iter().enumerate() {
                if !bases[k].contains(m) {
                    return Err(DataCubeError::NonBaseCoordinate { row: i, dim: k });
                }
            }
        }
        Ok(())
    }
}

/// A materialized cuboid: the group-by of the cube at one category per
/// dimension. Cells whose group is empty are absent.
///
/// `name` is materialization metadata (it identifies a cuboid among a
/// set of candidates and breaks cost ties in [`choose_source`]
/// deterministically); equality deliberately ignores it — two
/// materializations with the same levels, aggregate, and cells hold the
/// same data.
#[derive(Debug, Clone)]
pub struct Cuboid {
    /// Identifying name of the materialization ([`cuboid`] derives one
    /// from the level categories' names).
    pub name: String,
    /// One category per dimension (the cuboid's granularity vector).
    pub levels: Vec<Category>,
    /// The aggregate function.
    pub agg: AggFn,
    /// Aggregated measure per member tuple.
    pub cells: BTreeMap<Vec<Member>, i64>,
}

impl PartialEq for Cuboid {
    fn eq(&self, other: &Cuboid) -> bool {
        self.levels == other.levels && self.agg == other.agg && self.cells == other.cells
    }
}

impl Eq for Cuboid {}

impl Cuboid {
    /// Number of non-empty cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Whether the cuboid has no cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// The value of one cell.
    pub fn get(&self, coords: &[Member]) -> Option<i64> {
        self.cells.get(coords).copied()
    }

    /// Replaces the materialization name.
    pub fn with_name(mut self, name: impl Into<String>) -> Cuboid {
        self.name = name.into();
        self
    }
}

/// Computes a cuboid directly from the raw facts: every row maps each
/// coordinate to its ancestor at the requested level; rows with any
/// missing rollup drop out (partial rollups are the heterogeneous case).
///
/// This is the naive reference group-by, one `Vec` key per row, and it
/// deliberately does not use the [`group_by`](crate::groupby::group_by)
/// kernel: it is the differential oracle that [`roll_up`] and the fact
/// store's `materialize` are tested against.
pub fn cuboid(
    facts: &MultiFactTable,
    rollups: &[RollupTable],
    levels: &[Category],
    agg: AggFn,
) -> Cuboid {
    assert_eq!(levels.len(), facts.dims().len());
    assert_eq!(rollups.len(), facts.dims().len());
    let mut groups: BTreeMap<Vec<Member>, Vec<i64>> = BTreeMap::new();
    'rows: for (coords, v) in facts.rows() {
        let mut key = Vec::with_capacity(coords.len());
        for (k, &m) in coords.iter().enumerate() {
            match rollups[k].ancestor_in(m, levels[k]) {
                Some(a) => key.push(a),
                None => continue 'rows,
            }
        }
        groups.entry(key).or_default().push(*v);
    }
    Cuboid {
        name: levels_name(facts, levels),
        levels: levels.to_vec(),
        agg,
        cells: groups
            .into_iter()
            .filter_map(|(k, vs)| Some((k, agg.apply(&vs)?)))
            .collect(),
    }
}

/// The canonical materialization name for a granularity vector: the
/// level categories' names joined with `/` (e.g. `Store/Day`).
fn levels_name(facts: &MultiFactTable, levels: &[Category]) -> String {
    levels
        .iter()
        .enumerate()
        .map(|(k, &c)| facts.dims()[k].schema().name(c))
        .collect::<Vec<_>>()
        .join("/")
}

/// Rolls a materialized cuboid up to coarser levels: each cell's
/// coordinates map to their ancestors at the target levels and the
/// partial aggregates re-combine with `af^c`. Cells with no ancestor at
/// some target level drop out.
///
/// The cells go through the [`group_by`] kernel: per dimension, one
/// column holding each cell's ancestor, ranked among the ancestors that
/// occur. Nothing is allocated per cell except the output keys.
///
/// Exactness requires per-dimension summarizability of `to[i]` from
/// `{from.levels[i]}` — decide it upstream and gate with
/// [`RollupPlan::is_safe`].
pub fn roll_up(from: &Cuboid, rollups: &[RollupTable], to: &[Category]) -> Cuboid {
    assert_eq!(to.len(), from.levels.len());
    let mut ids: Vec<Vec<u32>> = vec![Vec::with_capacity(from.len()); to.len()];
    for coords in from.cells.keys() {
        for (k, &m) in coords.iter().enumerate() {
            ids[k].push(
                rollups[k]
                    .ancestor_in(m, to[k])
                    .map_or(NO_GROUP, |a| a.index() as u32),
            );
        }
    }
    let members: Vec<Vec<Member>> = ids.iter_mut().map(|col| rank_in_place(col)).collect();
    let cols: Vec<GroupColumn<'_>> = ids
        .iter()
        .zip(&members)
        .map(|(ids, members)| GroupColumn { ids, members })
        .collect();
    let values: Vec<i64> = from.cells.values().copied().collect();
    Cuboid {
        // The rollup tables carry no names; the derived cuboid records
        // its provenance instead. Rename with `with_name` to register it
        // as a materialization in its own right.
        name: format!("rollup({})", from.name),
        levels: to.to_vec(),
        agg: from.agg,
        cells: group_by(&cols, &values, from.agg.combiner()),
    }
}

/// Replaces each member index in `col` with its rank among the distinct
/// indices present (ascending), leaving [`NO_GROUP`] in place. Returns
/// the members in rank order.
fn rank_in_place(col: &mut [u32]) -> Vec<Member> {
    let universe = col
        .iter()
        .filter(|&&m| m != NO_GROUP)
        .max()
        .map_or(0, |&m| m as usize + 1);
    let mut rank = vec![NO_GROUP; universe];
    for &m in col.iter().filter(|&&m| m != NO_GROUP) {
        rank[m as usize] = 0;
    }
    let mut members = Vec::new();
    for (m, r) in rank.iter_mut().enumerate() {
        if *r == 0 {
            *r = members.len() as u32;
            members.push(Member::from_index(m));
        }
    }
    for m in col.iter_mut().filter(|m| **m != NO_GROUP) {
        *m = rank[*m as usize];
    }
    members
}

/// A candidate reuse plan: answer the query at `target` from the
/// materialized cuboid at `source`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RollupPlan {
    /// The materialized cuboid's levels.
    pub source: Vec<Category>,
    /// The query's levels.
    pub target: Vec<Category>,
}

impl RollupPlan {
    /// Whether the plan is exact, given per-dimension summarizability
    /// verdicts: `verdict(i, from, to)` must say whether `to` is
    /// summarizable from `{from}` in dimension `i`.
    pub fn is_safe(&self, mut verdict: impl FnMut(usize, Category, Category) -> bool) -> bool {
        self.source
            .iter()
            .zip(&self.target)
            .enumerate()
            .all(|(i, (&from, &to))| from == to || verdict(i, from, to))
    }
}

/// Picks, among materialized cuboids, the cheapest safe source for a
/// query (cost = cell count of the materialization; ties break on the
/// cuboid name, so the choice never depends on the iteration order of
/// the materialized set). Returns `None` when no materialized cuboid can
/// answer the query exactly — fall back to the raw facts.
pub fn choose_source<'a>(
    materialized: &'a [Cuboid],
    target: &[Category],
    mut verdict: impl FnMut(usize, Category, Category) -> bool,
) -> Option<&'a Cuboid> {
    materialized
        .iter()
        .filter(|c| {
            c.levels.len() == target.len()
                && RollupPlan {
                    source: c.levels.clone(),
                    target: target.to_vec(),
                }
                .is_safe(&mut verdict)
        })
        .min_by_key(|c| (c.len(), c.name.as_str()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_hierarchy::HierarchySchema;

    /// Store dimension with the Washington-style shortcut (heterogeneous)
    /// and a clean two-level time dimension.
    fn dims() -> (Arc<DimensionInstance>, Arc<DimensionInstance>) {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let state = b.category("State");
        let country = b.category("Country");
        b.edge(store, state);
        b.edge(store, country);
        b.edge(state, country);
        b.edge_to_all(country);
        let g = Arc::new(b.build().unwrap());
        let mut ib = DimensionInstance::builder(g);
        let sch = ib.schema();
        let (store, state, country) = (
            sch.category_by_name("Store").unwrap(),
            sch.category_by_name("State").unwrap(),
            sch.category_by_name("Country").unwrap(),
        );
        let usa = ib.member("USA", country);
        ib.link_to_all(usa);
        let texas = ib.member("Texas", state);
        ib.link(texas, usa);
        let s1 = ib.member("s1", store);
        ib.link(s1, texas);
        let s2 = ib.member("s2", store); // the DC-style exception
        ib.link(s2, usa);
        let stores = Arc::new(ib.build().unwrap());

        let mut b = HierarchySchema::builder();
        let day = b.category("Day");
        let month = b.category("Month");
        b.edge(day, month);
        b.edge_to_all(month);
        let g = Arc::new(b.build().unwrap());
        let mut ib = DimensionInstance::builder(g);
        let sch = ib.schema();
        let (day, month) = (
            sch.category_by_name("Day").unwrap(),
            sch.category_by_name("Month").unwrap(),
        );
        let jan = ib.member("Jan", month);
        ib.link_to_all(jan);
        let d1 = ib.member("d1", day);
        let d2 = ib.member("d2", day);
        ib.link(d1, jan);
        ib.link(d2, jan);
        let time = Arc::new(ib.build().unwrap());
        (stores, time)
    }

    fn facts(stores: &Arc<DimensionInstance>, time: &Arc<DimensionInstance>) -> MultiFactTable {
        let s1 = stores.member_by_key("s1").unwrap();
        let s2 = stores.member_by_key("s2").unwrap();
        let d1 = time.member_by_key("d1").unwrap();
        let d2 = time.member_by_key("d2").unwrap();
        let mut f = MultiFactTable::new(vec![stores.clone(), time.clone()]);
        f.push(vec![s1, d1], 10);
        f.push(vec![s1, d2], 20);
        f.push(vec![s2, d1], 5);
        f
    }

    fn cat(d: &DimensionInstance, n: &str) -> Category {
        d.schema().category_by_name(n).unwrap()
    }

    #[test]
    fn base_cuboid_and_validation() {
        let (stores, time) = dims();
        let f = facts(&stores, &time);
        assert!(f.validate().is_ok());
        let rollups = [RollupTable::new(&stores), RollupTable::new(&time)];
        let base = cuboid(
            &f,
            &rollups,
            &[cat(&stores, "Store"), cat(&time, "Day")],
            AggFn::Sum,
        );
        assert_eq!(base.len(), 3);
    }

    #[test]
    fn cuboid_group_by_country_month() {
        let (stores, time) = dims();
        let f = facts(&stores, &time);
        let rollups = [RollupTable::new(&stores), RollupTable::new(&time)];
        let c = cuboid(
            &f,
            &rollups,
            &[cat(&stores, "Country"), cat(&time, "Month")],
            AggFn::Sum,
        );
        let usa = stores.member_by_key("USA").unwrap();
        let jan = time.member_by_key("Jan").unwrap();
        assert_eq!(c.get(&[usa, jan]), Some(35));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn heterogeneous_level_drops_rows() {
        // s2 has no State: the (State, Day) cuboid loses its facts.
        let (stores, time) = dims();
        let f = facts(&stores, &time);
        let rollups = [RollupTable::new(&stores), RollupTable::new(&time)];
        let c = cuboid(
            &f,
            &rollups,
            &[cat(&stores, "State"), cat(&time, "Day")],
            AggFn::Sum,
        );
        let total: i64 = c.cells.values().sum();
        assert_eq!(total, 30, "s2's 5 vanished at State granularity");
    }

    #[test]
    fn safe_roll_up_matches_direct() {
        let (stores, time) = dims();
        let f = facts(&stores, &time);
        let rollups = [RollupTable::new(&stores), RollupTable::new(&time)];
        // Materialize (Store, Day); roll up to (Country, Month): safe in
        // both dimensions (Store/Day are the bases).
        let base = cuboid(
            &f,
            &rollups,
            &[cat(&stores, "Store"), cat(&time, "Day")],
            AggFn::Sum,
        );
        let rolled = roll_up(
            &base,
            &rollups,
            &[cat(&stores, "Country"), cat(&time, "Month")],
        );
        let direct = cuboid(
            &f,
            &rollups,
            &[cat(&stores, "Country"), cat(&time, "Month")],
            AggFn::Sum,
        );
        assert_eq!(rolled, direct);
    }

    #[test]
    fn unsafe_roll_up_diverges() {
        // Materialize (State, Day) and roll to (Country, Month): the
        // store dimension loses s2 — the per-dimension summarizability
        // gate would have rejected this plan.
        let (stores, time) = dims();
        let f = facts(&stores, &time);
        let rollups = [RollupTable::new(&stores), RollupTable::new(&time)];
        let mid = cuboid(
            &f,
            &rollups,
            &[cat(&stores, "State"), cat(&time, "Day")],
            AggFn::Sum,
        );
        let rolled = roll_up(
            &mid,
            &rollups,
            &[cat(&stores, "Country"), cat(&time, "Month")],
        );
        let direct = cuboid(
            &f,
            &rollups,
            &[cat(&stores, "Country"), cat(&time, "Month")],
            AggFn::Sum,
        );
        assert_ne!(rolled, direct);
    }

    #[test]
    fn plan_safety_gate() {
        let (stores, time) = dims();
        let store_c = cat(&stores, "Store");
        let state_c = cat(&stores, "State");
        let country_c = cat(&stores, "Country");
        let day_c = cat(&time, "Day");
        let month_c = cat(&time, "Month");
        // Emulate the upstream verdicts: in the store dimension, Country
        // is summarizable from Store but NOT from State (s2).
        let verdict = |dim: usize, from: Category, to: Category| -> bool {
            if dim == 0 {
                !(from == state_c && to == country_c)
            } else {
                true
            }
        };
        let good = RollupPlan {
            source: vec![store_c, day_c],
            target: vec![country_c, month_c],
        };
        assert!(good.is_safe(verdict));
        let bad = RollupPlan {
            source: vec![state_c, day_c],
            target: vec![country_c, month_c],
        };
        assert!(!bad.is_safe(verdict));
    }

    #[test]
    fn choose_source_prefers_small_safe_cuboids() {
        let (stores, time) = dims();
        let f = facts(&stores, &time);
        let rollups = [RollupTable::new(&stores), RollupTable::new(&time)];
        let store_c = cat(&stores, "Store");
        let state_c = cat(&stores, "State");
        let country_c = cat(&stores, "Country");
        let day_c = cat(&time, "Day");
        let month_c = cat(&time, "Month");
        let base = cuboid(&f, &rollups, &[store_c, day_c], AggFn::Sum);
        let mid = cuboid(&f, &rollups, &[state_c, day_c], AggFn::Sum);
        let materialized = vec![base.clone(), mid.clone()];
        let verdict = |dim: usize, from: Category, to: Category| -> bool {
            if dim == 0 {
                !(from == state_c && to == country_c)
            } else {
                true
            }
        };
        // mid is smaller but unsafe for Country: base wins.
        let chosen = choose_source(&materialized, &[country_c, month_c], verdict).unwrap();
        assert_eq!(chosen.levels, base.levels);
        // For a (State, Month) query, mid is safe and smaller.
        let chosen2 = choose_source(&materialized, &[state_c, month_c], |_, _, _| true).unwrap();
        assert_eq!(chosen2.levels, mid.levels);
        // No materialization helps when nothing is safe.
        assert!(choose_source(&materialized, &[country_c, month_c], |_, _, _| false).is_none());
    }

    /// The instance-level summarizability verdict, derived from the
    /// rollup data itself: `to` is summarizable from `{from}` iff every
    /// base member reaches its `to`-ancestor through its `from`-ancestor
    /// (no member skips the `from` level, none is double-routed).
    fn instance_verdict(d: &DimensionInstance, from: Category, to: Category) -> bool {
        let rt = RollupTable::new(d);
        d.base_members().into_iter().all(|m| {
            let direct = rt.ancestor_in(m, to);
            let via = rt.ancestor_in(m, from).and_then(|a| rt.ancestor_in(a, to));
            direct == via
        })
    }

    #[test]
    fn is_safe_skips_verdict_for_identity_dimensions() {
        let (stores, time) = dims();
        let store_c = cat(&stores, "Store");
        let month_c = cat(&time, "Month");
        let day_c = cat(&time, "Day");
        // The store dimension stays at Store: the verdict must only be
        // consulted for the time dimension.
        let mut asked = Vec::new();
        let plan = RollupPlan {
            source: vec![store_c, day_c],
            target: vec![store_c, month_c],
        };
        assert!(plan.is_safe(|dim, from, to| {
            asked.push((dim, from, to));
            true
        }));
        assert_eq!(asked, vec![(1, day_c, month_c)]);
    }

    #[test]
    fn is_safe_rejects_on_any_dimension() {
        let (stores, time) = dims();
        let state_c = cat(&stores, "State");
        let country_c = cat(&stores, "Country");
        let day_c = cat(&time, "Day");
        let month_c = cat(&time, "Month");
        let plan = RollupPlan {
            source: vec![state_c, day_c],
            target: vec![country_c, month_c],
        };
        // Time is safe but the store dimension is not: one bad dimension
        // poisons the plan.
        assert!(!plan.is_safe(|dim, _, _| dim == 1));
        assert!(plan.is_safe(|_, _, _| true));
    }

    #[test]
    fn is_safe_agrees_with_instance_summarizability() {
        let (stores, time) = dims();
        let store_c = cat(&stores, "Store");
        let state_c = cat(&stores, "State");
        let country_c = cat(&stores, "Country");
        let day_c = cat(&time, "Day");
        let month_c = cat(&time, "Month");
        let verdict = |dim: usize, from: Category, to: Category| {
            let d: &DimensionInstance = if dim == 0 { &stores } else { &time };
            instance_verdict(d, from, to)
        };
        // Country from Store is fine (every store reaches its country);
        // Country from State loses s2, and the derived verdict knows it.
        assert!(RollupPlan {
            source: vec![store_c, day_c],
            target: vec![country_c, month_c],
        }
        .is_safe(verdict));
        assert!(!RollupPlan {
            source: vec![state_c, day_c],
            target: vec![country_c, month_c],
        }
        .is_safe(verdict));
    }

    #[test]
    fn choose_source_ignores_arity_mismatched_cuboids() {
        let (stores, time) = dims();
        let f = facts(&stores, &time);
        let rollups = [RollupTable::new(&stores), RollupTable::new(&time)];
        let store_c = cat(&stores, "Store");
        let country_c = cat(&stores, "Country");
        let day_c = cat(&time, "Day");
        let month_c = cat(&time, "Month");
        let base = cuboid(&f, &rollups, &[store_c, day_c], AggFn::Sum);
        // A one-dimensional cuboid can never answer a two-dimensional
        // query, even with an always-true verdict.
        let skinny = Cuboid {
            name: "Country".into(),
            levels: vec![country_c],
            agg: AggFn::Sum,
            cells: BTreeMap::new(),
        };
        let materialized = vec![skinny, base.clone()];
        let chosen = choose_source(&materialized, &[country_c, month_c], |_, _, _| true).unwrap();
        assert_eq!(chosen.levels, base.levels);
    }

    #[test]
    fn summarizability_verdict_forbids_the_cheapest_source() {
        // The satellite case: the cheapest materialization is excluded by
        // the *instance-derived* summarizability verdict, so the planner
        // must pay for the bigger safe one.
        let (stores, time) = dims();
        let f = facts(&stores, &time);
        let rollups = [RollupTable::new(&stores), RollupTable::new(&time)];
        let store_c = cat(&stores, "Store");
        let state_c = cat(&stores, "State");
        let country_c = cat(&stores, "Country");
        let day_c = cat(&time, "Day");
        let month_c = cat(&time, "Month");
        let base = cuboid(&f, &rollups, &[store_c, day_c], AggFn::Sum);
        let mid = cuboid(&f, &rollups, &[state_c, day_c], AggFn::Sum);
        assert!(mid.len() < base.len(), "mid must be the cheaper source");
        let materialized = vec![base.clone(), mid.clone()];
        let verdict = |dim: usize, from: Category, to: Category| {
            let d: &DimensionInstance = if dim == 0 { &stores } else { &time };
            instance_verdict(d, from, to)
        };
        let chosen = choose_source(&materialized, &[country_c, month_c], verdict).unwrap();
        assert_eq!(
            chosen.levels, base.levels,
            "the cheap (State, Day) cuboid is unsafe for Country: s2 would vanish"
        );
        // And the choice matters: rolling up from the forbidden source
        // really does produce the wrong answer.
        let wrong = roll_up(&mid, &rollups, &[country_c, month_c]);
        let right = roll_up(&base, &rollups, &[country_c, month_c]);
        assert_ne!(wrong, right);
    }

    #[test]
    fn choose_source_breaks_cost_ties_by_name() {
        // Two equal-size safe cuboids: the choice must be the
        // lexicographically smaller name, whatever order the materialized
        // set lists them in.
        let (stores, time) = dims();
        let f = facts(&stores, &time);
        let rollups = [RollupTable::new(&stores), RollupTable::new(&time)];
        let store_c = cat(&stores, "Store");
        let country_c = cat(&stores, "Country");
        let day_c = cat(&time, "Day");
        let month_c = cat(&time, "Month");
        let a = cuboid(&f, &rollups, &[store_c, day_c], AggFn::Sum).with_name("beta");
        let b = a.clone().with_name("alpha");
        assert_eq!(a.len(), b.len(), "tie premise: equal cell counts");
        let target = [country_c, month_c];
        let fwd = [a.clone(), b.clone()];
        let chosen = choose_source(&fwd, &target, |_, _, _| true).unwrap();
        assert_eq!(chosen.name, "alpha");
        let rev = [b, a];
        let chosen = choose_source(&rev, &target, |_, _, _| true).unwrap();
        assert_eq!(chosen.name, "alpha", "tie-break must not follow input order");
    }

    #[test]
    fn cuboid_names_derive_from_level_categories() {
        let (stores, time) = dims();
        let f = facts(&stores, &time);
        let rollups = [RollupTable::new(&stores), RollupTable::new(&time)];
        let base = cuboid(
            &f,
            &rollups,
            &[cat(&stores, "Store"), cat(&time, "Day")],
            AggFn::Sum,
        );
        assert_eq!(base.name, "Store/Day");
        let rolled = roll_up(
            &base,
            &rollups,
            &[cat(&stores, "Country"), cat(&time, "Month")],
        );
        assert_eq!(rolled.name, "rollup(Store/Day)");
        // Equality ignores the name: the same data under two names is the
        // same cuboid.
        assert_eq!(base, base.clone().with_name("other"));
    }

    /// The roll-up computed cell by cell with one `Vec` key per cell:
    /// the reference for the kernel-backed [`roll_up`], safe plan or not.
    fn naive_roll_up(
        from: &Cuboid,
        rollups: &[RollupTable],
        to: &[Category],
    ) -> BTreeMap<Vec<Member>, i64> {
        let mut cells: BTreeMap<Vec<Member>, i64> = BTreeMap::new();
        for (coords, &v) in &from.cells {
            let key: Option<Vec<Member>> = coords
                .iter()
                .enumerate()
                .map(|(k, &m)| rollups[k].ancestor_in(m, to[k]))
                .collect();
            if let Some(key) = key {
                cells
                    .entry(key)
                    .and_modify(|acc| *acc = from.agg.combine(*acc, v))
                    .or_insert(v);
            }
        }
        cells
    }

    #[test]
    fn roll_up_matches_the_oracles_at_every_level_pair() {
        let (stores, time) = dims();
        let mut f = facts(&stores, &time);
        let s1 = stores.member_by_key("s1").unwrap();
        let s2 = stores.member_by_key("s2").unwrap();
        let d1 = time.member_by_key("d1").unwrap();
        let d2 = time.member_by_key("d2").unwrap();
        f.push(vec![s2, d2], -8);
        f.push(vec![s1, d2], -1);
        f.push(vec![s2, d1], 0);
        let rollups = [RollupTable::new(&stores), RollupTable::new(&time)];
        let levels: Vec<Vec<Category>> = stores
            .schema()
            .categories()
            .flat_map(|a| time.schema().categories().map(move |b| vec![a, b]))
            .collect();
        let verdict = |dim: usize, from: Category, to: Category| {
            let d: &DimensionInstance = if dim == 0 { &stores } else { &time };
            instance_verdict(d, from, to)
        };
        let mut safe_pairs = 0;
        for agg in AggFn::ALL {
            for from in &levels {
                let src = cuboid(&f, &rollups, from, agg);
                for to in &levels {
                    let rolled = roll_up(&src, &rollups, to);
                    assert_eq!(rolled.cells, naive_roll_up(&src, &rollups, to));
                    let plan = RollupPlan {
                        source: from.clone(),
                        target: to.clone(),
                    };
                    if plan.is_safe(verdict) {
                        assert_eq!(rolled, cuboid(&f, &rollups, to, agg), "{from:?} -> {to:?}");
                        safe_pairs += 1;
                    }
                }
            }
        }
        assert!(safe_pairs > 0);
    }

    #[test]
    fn validate_reports_row_and_dimension() {
        let (stores, time) = dims();
        let s1 = stores.member_by_key("s1").unwrap();
        let d1 = time.member_by_key("d1").unwrap();
        let jan = time.member_by_key("Jan").unwrap();
        let mut f = MultiFactTable::new(vec![stores.clone(), time.clone()]);
        f.push(vec![s1, d1], 1);
        f.push(vec![s1, jan], 2); // Jan is not a base member of time
        assert_eq!(
            f.validate(),
            Err(DataCubeError::NonBaseCoordinate { row: 1, dim: 1 })
        );
        let msg = f.validate().unwrap_err().to_string();
        assert!(msg.contains("row 1"), "{msg}");
    }

    #[test]
    #[should_panic(expected = "arity mismatch")]
    fn arity_mismatch_panics() {
        let (stores, time) = dims();
        let s1 = stores.member_by_key("s1").unwrap();
        let mut f = MultiFactTable::new(vec![stores.clone(), time.clone()]);
        f.push(vec![s1], 1);
    }

    #[test]
    fn invalid_coordinates_detected() {
        let (stores, time) = dims();
        let usa = stores.member_by_key("USA").unwrap();
        let d1 = time.member_by_key("d1").unwrap();
        let mut f = MultiFactTable::new(vec![stores.clone(), time.clone()]);
        f.push(vec![usa, d1], 1); // USA is not a base member
        assert!(f.validate().is_err());
    }
}
