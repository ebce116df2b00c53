//! # odc-plan — cross-query battery planner
//!
//! The Theorem-1 battery, the category sweep, and the advisor audit all
//! fire many *structurally related* DIMSAT queries at one schema, yet
//! each solve traditionally starts from scratch. This crate analyzes a
//! battery before any search runs and produces three things:
//!
//! 1. **Dedup** — queries are normalized to a canonical form
//!    (flattened, identity-free, commutative operands hash-sorted) and
//!    structurally hashed; duplicates become *aliases* of the first
//!    occurrence. Hashing alone is never trusted: buckets are compared
//!    formula-by-formula, the same collision-safe discipline the
//!    `ImplicationCache` adopted after PR 3's collision bug.
//! 2. **Cost-ranked order** — per-query cost is estimated from schema
//!    shape (parent fan-out inside the query's region, category counts,
//!    into-constraint density) plus formula size, and queries run
//!    cheapest-first so quick refutations and cache-seeding solves come
//!    before the expensive ones.
//! 3. **Shared facts** — a thread-safe scratchpad of what earlier
//!    queries proved: satisfiable categories (every category inside a
//!    found frozen dimension's subhierarchy is itself satisfiable — the
//!    restriction of the witness to that category is a valid witness),
//!    and unsatisfiable categories (which decide rooted implications
//!    vacuously against the *full* schema). Later queries consult the
//!    scratchpad before solving.
//!
//! The planner reorders *execution*, never *reporting*: callers assemble
//! results in their original order, so planned and unplanned paths stay
//! byte-identical.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use odc_constraint::{Constraint, DimensionConstraint, DimensionSchema};
use odc_hierarchy::{CatSet, Category, HierarchySchema, Subhierarchy};

/// Summary counters for one planned battery, reported through the
/// observability layer as a `plan` event.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct PlanStats {
    /// Queries submitted to the planner.
    pub queries: u64,
    /// Queries folded into an alias of an identical earlier query.
    pub deduped: u64,
    /// Canonical queries whose planned position differs from their
    /// submission position.
    pub reordered: u64,
    /// Queries answered from shared facts without a solve. Zero at
    /// planning time; the executing driver fills it in from
    /// [`SharedFacts::hits`].
    pub fact_hits: u64,
    /// Queries folded into a shared multi-target search.
    pub batched: u64,
}

/// The execution plan for one battery of rooted queries.
///
/// Indices refer to the caller's submission order. `alias_of[i]` is
/// `Some(j)` when query `i` is structurally identical to the earlier
/// query `j` (after normalization) — the caller copies `j`'s verdict
/// instead of solving. `order` lists the canonical (non-alias) indices
/// cheapest-first.
#[derive(Debug, Clone)]
pub struct QueryPlan {
    /// Canonical query indices in planned (cheapest-first) execution
    /// order.
    pub order: Vec<usize>,
    /// `alias_of[i] = Some(j)`: query `i` duplicates canonical query
    /// `j < i`.
    pub alias_of: Vec<Option<usize>>,
    /// Estimated cost per query (aliases carry their canonical's cost).
    pub cost: Vec<u64>,
    /// Planning-time counters (`fact_hits` still zero).
    pub stats: PlanStats,
}

/// Normalizes a formula to the canonical form used for structural
/// dedup: nested `And`/`Or` flattened, identities (`⊤` in `And`, `⊥`
/// in `Or`) dropped, absorbing elements short-circuited, double
/// negation removed, and commutative operand lists sorted by
/// structural hash with exact duplicates removed. Normalization
/// preserves logical equivalence; it exists so that trivially
/// rearranged copies of one query hash identically.
pub fn normalize(c: &Constraint) -> Constraint {
    match c {
        Constraint::True | Constraint::False => c.clone(),
        Constraint::Path(_) | Constraint::Eq(_) | Constraint::Ord(_) => c.clone(),
        Constraint::Not(inner) => match normalize(inner) {
            Constraint::True => Constraint::False,
            Constraint::False => Constraint::True,
            Constraint::Not(x) => *x,
            n => Constraint::Not(Box::new(n)),
        },
        Constraint::And(cs) => {
            let mut kids = Vec::with_capacity(cs.len());
            for k in cs {
                match normalize(k) {
                    Constraint::True => {}
                    Constraint::False => return Constraint::False,
                    Constraint::And(inner) => kids.extend(inner),
                    n => kids.push(n),
                }
            }
            sort_and_dedup(&mut kids);
            match kids.len() {
                0 => Constraint::True,
                1 => kids.pop().unwrap_or(Constraint::True),
                _ => Constraint::And(kids),
            }
        }
        Constraint::Or(cs) => {
            let mut kids = Vec::with_capacity(cs.len());
            for k in cs {
                match normalize(k) {
                    Constraint::False => {}
                    Constraint::True => return Constraint::True,
                    Constraint::Or(inner) => kids.extend(inner),
                    n => kids.push(n),
                }
            }
            sort_and_dedup(&mut kids);
            match kids.len() {
                0 => Constraint::False,
                1 => kids.pop().unwrap_or(Constraint::False),
                _ => Constraint::Or(kids),
            }
        }
        Constraint::Implies(a, b) => {
            Constraint::implies(normalize(a), normalize(b))
        }
        Constraint::Iff(a, b) => {
            // Commutative: order the two sides canonically.
            let (mut x, mut y) = (normalize(a), normalize(b));
            if rank(&y) < rank(&x) {
                std::mem::swap(&mut x, &mut y);
            }
            Constraint::iff(x, y)
        }
        Constraint::Xor(a, b) => {
            let (mut x, mut y) = (normalize(a), normalize(b));
            if rank(&y) < rank(&x) {
                std::mem::swap(&mut x, &mut y);
            }
            Constraint::xor(x, y)
        }
        Constraint::ExactlyOne(cs) => {
            let mut kids: Vec<Constraint> = cs.iter().map(normalize).collect();
            // ⊙ is permutation-invariant but NOT duplicate-invariant
            // (⊙{φ, φ} ≠ ⊙{φ}), so sort without deduplicating.
            kids.sort_by_key(rank);
            Constraint::ExactlyOne(kids)
        }
    }
}

/// Structural hash of a (normalized) formula. Callers must treat equal
/// hashes as *candidates* only and confirm with `==` — PR 3's
/// collision-safe bucket discipline.
pub fn formula_hash(c: &Constraint) -> u64 {
    let mut h = DefaultHasher::new();
    c.hash(&mut h);
    h.finish()
}

/// Sort key for commutative operand lists: hash first, with the full
/// structural comparison as an exact tiebreaker so equal-hash distinct
/// formulas still land in a deterministic order.
fn rank(c: &Constraint) -> u64 {
    formula_hash(c)
}

fn sort_and_dedup(kids: &mut Vec<Constraint>) {
    kids.sort_by_key(rank);
    kids.dedup(); // exact ==, safe even under hash collisions
}

/// Estimated solve cost for a query rooted at `root`. The dominant
/// driver of DIMSAT's search is the subset enumeration of admissible
/// parents inside the root's region, so the shape term sums
/// `2^fan_out` per region category; into constraints prune that
/// enumeration, so each one inside the region discounts the total; the
/// formula's size adds a linear factor for CHECK work. The absolute
/// value is meaningless — only the relative order matters.
pub fn estimate_cost(ds: &DimensionSchema, root: Category, formula: &Constraint) -> u64 {
    let g = ds.hierarchy();
    let region = g.reachable_from(root);
    let mut shape: u64 = 1;
    for c in region.iter() {
        let fan = g.parents(c).len().min(20) as u32;
        shape = shape.saturating_add(1u64 << fan);
    }
    let intos = ds
        .into_constraints()
        .iter()
        .chain(ds.forbidden_into_constraints().iter())
        .filter(|(src, _)| region.contains(*src))
        .count() as u64;
    let shape = shape / (1 + intos);
    shape.saturating_mul(1 + formula.size() as u64)
}

/// Plans a battery of dimension constraints (e.g. a Theorem-1
/// battery): normalize + dedup + cost-rank. Results must still be
/// *reported* in submission order; only execution follows `order`.
pub fn plan_battery(ds: &DimensionSchema, batch: &[DimensionConstraint]) -> QueryPlan {
    plan_queries(ds, batch.iter().map(|dc| (dc.root(), dc.formula())))
}

/// Plans an arbitrary battery of `(root, formula)` queries.
pub fn plan_queries<'a>(
    ds: &DimensionSchema,
    queries: impl Iterator<Item = (Category, &'a Constraint)>,
) -> QueryPlan {
    let mut alias_of: Vec<Option<usize>> = Vec::new();
    let mut cost: Vec<u64> = Vec::new();
    let mut canonical: Vec<usize> = Vec::new();
    // hash → candidate indices; confirmed by exact comparison.
    let mut buckets: HashMap<(Category, u64), Vec<usize>> = HashMap::new();
    let mut normals: Vec<Constraint> = Vec::new();
    let mut deduped = 0u64;

    for (i, (root, formula)) in queries.enumerate() {
        let n = normalize(formula);
        let h = formula_hash(&n);
        let bucket = buckets.entry((root, h)).or_default();
        let dup = bucket.iter().copied().find(|&j| normals[j] == n);
        normals.push(n);
        match dup {
            Some(j) => {
                alias_of.push(Some(j));
                cost.push(cost[j]);
                deduped += 1;
            }
            None => {
                bucket.push(i);
                alias_of.push(None);
                cost.push(estimate_cost(ds, root, &normals[i]));
                canonical.push(i);
            }
        }
    }

    let mut order = canonical.clone();
    order.sort_by_key(|&i| (cost[i], i));
    let reordered = order
        .iter()
        .zip(canonical.iter())
        .filter(|(a, b)| a != b)
        .count() as u64;
    let stats = PlanStats {
        queries: alias_of.len() as u64,
        deduped,
        reordered,
        fact_hits: 0,
        batched: 0,
    };
    QueryPlan {
        order,
        alias_of,
        cost,
        stats,
    }
}

/// Precomputed planning state for one schema: the redundancy battery's
/// [`QueryPlan`] and the overflow-exposure guard set. A one-shot audit
/// builds this on the fly; a resident server caches it per catalog
/// entry, next to the warm implication cache, so repeated audits of the
/// same schema skip the planning pass entirely.
#[derive(Debug, Clone)]
pub struct SchemaPlan {
    /// Plan for the constraint-redundancy battery (one query per σ ∈ Σ).
    pub battery: QueryPlan,
    /// Categories whose solves may abort with `FanoutOverflow`
    /// ([`overflow_exposed`]); shared-fact shortcuts skip these.
    pub exposed: CatSet,
}

impl SchemaPlan {
    /// Plans `ds`'s own batteries once.
    pub fn for_schema(ds: &DimensionSchema) -> Self {
        SchemaPlan {
            battery: plan_battery(ds, ds.constraints()),
            exposed: overflow_exposed(ds.hierarchy()),
        }
    }
}

/// Fan-out at which DIMSAT's subset-mask parent enumeration overflows
/// and the solve aborts with `FanoutOverflow` (the mask is a `u64` with
/// one reserved bit). Mirrors the solver's internal limit.
pub const WIDE_FANOUT: usize = 63;

/// Categories whose solves could abort with `FanoutOverflow`: those
/// whose region contains a category with ≥ [`WIDE_FANOUT`] admissible
/// parents. Shared-fact shortcuts must *not* skip solves for exposed
/// categories — the unplanned path may abort where the shortcut would
/// answer, and verdict parity requires the planned path to abort
/// identically. (The guard is conservative: into/forbidden-into
/// filtering can shrink the live fan-out below the limit at runtime, in
/// which case we merely decline a shortcut we could have taken.)
pub fn overflow_exposed(g: &HierarchySchema) -> CatSet {
    let n = g.num_categories();
    let mut wide = CatSet::new(n);
    let mut any = false;
    for c in g.categories() {
        if g.parents(c).len() >= WIDE_FANOUT {
            wide.insert(c);
            any = true;
        }
    }
    let mut exposed = CatSet::new(n);
    if !any {
        return exposed;
    }
    for c in g.categories() {
        if g.reachable_from(c).iter().any(|y| wide.contains(y)) {
            exposed.insert(c);
        }
    }
    exposed
}

/// Three-valued (Kleene) structural evaluation of a formula against a
/// witness subhierarchy: `Some(true)` / `Some(false)` when the verdict
/// follows from graph structure alone, `None` when it depends on member
/// assignments. Path atoms follow the circle operator's Definition-8
/// semantics exactly — a path atom holds iff the literal category
/// sequence is a path of the subhierarchy — so for pure-path formulas
/// (every Theorem-1 battery formula) the result is always decided.
/// `Eq`/`Ord` atoms are assignment-dependent and yield `None`, sending
/// the caller back to a real solve.
pub fn eval_structural(sub: &Subhierarchy, f: &Constraint) -> Option<bool> {
    match f {
        Constraint::True => Some(true),
        Constraint::False => Some(false),
        Constraint::Path(p) => Some(sub.is_path(&p.path)),
        Constraint::Eq(_) | Constraint::Ord(_) => None,
        Constraint::Not(inner) => eval_structural(sub, inner).map(|v| !v),
        Constraint::And(cs) => {
            let mut unknown = false;
            for k in cs {
                match eval_structural(sub, k) {
                    Some(false) => return Some(false),
                    None => unknown = true,
                    Some(true) => {}
                }
            }
            if unknown {
                None
            } else {
                Some(true)
            }
        }
        Constraint::Or(cs) => {
            let mut unknown = false;
            for k in cs {
                match eval_structural(sub, k) {
                    Some(true) => return Some(true),
                    None => unknown = true,
                    Some(false) => {}
                }
            }
            if unknown {
                None
            } else {
                Some(false)
            }
        }
        Constraint::Implies(a, b) => match (eval_structural(sub, a), eval_structural(sub, b)) {
            (Some(false), _) | (_, Some(true)) => Some(true),
            (Some(true), Some(false)) => Some(false),
            _ => None,
        },
        Constraint::Iff(a, b) => match (eval_structural(sub, a), eval_structural(sub, b)) {
            (Some(x), Some(y)) => Some(x == y),
            _ => None,
        },
        Constraint::Xor(a, b) => match (eval_structural(sub, a), eval_structural(sub, b)) {
            (Some(x), Some(y)) => Some(x != y),
            _ => None,
        },
        Constraint::ExactlyOne(cs) => {
            let mut known_true = 0usize;
            let mut unknown = 0usize;
            for k in cs {
                match eval_structural(sub, k) {
                    Some(true) => known_true += 1,
                    None => unknown += 1,
                    Some(false) => {}
                }
            }
            if known_true >= 2 {
                Some(false)
            } else if unknown == 0 {
                Some(known_true == 1)
            } else {
                None
            }
        }
    }
}

/// Execution order for a whole-schema satisfiability sweep: categories
/// with the *largest* regions first (ties broken by declaration
/// order). A satisfiable verdict for a deep category comes with a
/// frozen-dimension witness whose subhierarchy decides every category
/// it contains, so solving big regions first lets one witness settle
/// many later queries through [`SharedFacts`].
pub fn sweep_order(g: &HierarchySchema) -> Vec<Category> {
    let mut cats: Vec<Category> = g.categories().filter(|c| !c.is_all()).collect();
    cats.sort_by_key(|&c| (std::cmp::Reverse(g.reachable_from(c).len()), c.index()));
    cats
}

/// Facts shared across the queries of one planned battery. Thread-safe
/// so a parallel battery's workers can publish and consult concurrently;
/// all methods are monotone (facts are only ever added), so readers can
/// never observe a retraction.
#[derive(Debug)]
pub struct SharedFacts {
    sat: Mutex<CatSet>,
    unsat: Mutex<CatSet>,
    hits: AtomicU64,
}

impl SharedFacts {
    /// An empty fact set over a schema with `universe` categories.
    pub fn new(universe: usize) -> Self {
        SharedFacts {
            sat: Mutex::new(CatSet::new(universe)),
            unsat: Mutex::new(CatSet::new(universe)),
            hits: AtomicU64::new(0),
        }
    }

    fn lock<'a>(m: &'a Mutex<CatSet>) -> std::sync::MutexGuard<'a, CatSet> {
        // Fact publication never panics while holding the lock, but a
        // poisoned mutex would only ever hide *extra* facts — recover
        // the data either way.
        match m.lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Records that `c` is satisfiable.
    pub fn note_sat(&self, c: Category) {
        Self::lock(&self.sat).insert(c);
    }

    /// Records that every category in `cats` is satisfiable — the
    /// caller typically passes a frozen dimension's subhierarchy
    /// categories, each of which roots a restriction of the witness.
    pub fn note_sat_set(&self, cats: &CatSet) {
        Self::lock(&self.sat).union_with(cats);
    }

    /// Records that `c` is unsatisfiable.
    pub fn note_unsat(&self, c: Category) {
        Self::lock(&self.unsat).insert(c);
    }

    /// Whether an earlier query proved `c` satisfiable.
    pub fn known_sat(&self, c: Category) -> bool {
        Self::lock(&self.sat).contains(c)
    }

    /// Whether an earlier query proved `c` unsatisfiable.
    pub fn known_unsat(&self, c: Category) -> bool {
        Self::lock(&self.unsat).contains(c)
    }

    /// Counts one query answered from facts instead of a solve.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Queries answered from facts so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_hierarchy::HierarchySchema;
    use std::sync::Arc;

    fn diamond() -> DimensionSchema {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        let region = b.category("Region");
        let country = b.category("Country");
        b.edge(store, city);
        b.edge(store, region);
        b.edge(city, country);
        b.edge(region, country);
        b.edge(country, Category::ALL);
        let g = Arc::new(b.build().unwrap());
        DimensionSchema::parse(g, "Store_City\n").unwrap()
    }

    #[test]
    fn normalize_flattens_and_sorts() {
        let ds = diamond();
        let g = ds.hierarchy();
        let store = g.category_by_name("Store").unwrap();
        let city = g.category_by_name("City").unwrap();
        let region = g.category_by_name("Region").unwrap();
        let a = Constraint::path(vec![store, city]);
        let b = Constraint::path(vec![store, region]);
        let left = Constraint::And(vec![
            a.clone(),
            Constraint::And(vec![b.clone(), Constraint::True]),
        ]);
        let right = Constraint::And(vec![b, a]);
        assert_eq!(normalize(&left), normalize(&right));
        assert_eq!(
            formula_hash(&normalize(&left)),
            formula_hash(&normalize(&right))
        );
    }

    #[test]
    fn normalize_short_circuits_absorbing_elements() {
        let ds = diamond();
        let g = ds.hierarchy();
        let store = g.category_by_name("Store").unwrap();
        let city = g.category_by_name("City").unwrap();
        let a = Constraint::path(vec![store, city]);
        assert_eq!(
            normalize(&Constraint::And(vec![a.clone(), Constraint::False])),
            Constraint::False
        );
        assert_eq!(
            normalize(&Constraint::Or(vec![a.clone(), Constraint::True])),
            Constraint::True
        );
        assert_eq!(
            normalize(&Constraint::not(Constraint::not(a.clone()))),
            a
        );
    }

    #[test]
    fn normalize_keeps_exactly_one_duplicates() {
        let ds = diamond();
        let g = ds.hierarchy();
        let store = g.category_by_name("Store").unwrap();
        let city = g.category_by_name("City").unwrap();
        let a = Constraint::path(vec![store, city]);
        let n = normalize(&Constraint::ExactlyOne(vec![a.clone(), a.clone()]));
        match n {
            Constraint::ExactlyOne(kids) => assert_eq!(kids.len(), 2),
            other => panic!("expected ExactlyOne, got {other:?}"),
        }
    }

    #[test]
    fn plan_dedups_structurally_identical_queries() {
        let ds = diamond();
        let g = ds.hierarchy();
        let store = g.category_by_name("Store").unwrap();
        let city = g.category_by_name("City").unwrap();
        let region = g.category_by_name("Region").unwrap();
        let a = Constraint::path(vec![store, city]);
        let b = Constraint::path(vec![store, region]);
        let q1 = Constraint::And(vec![a.clone(), b.clone()]);
        let q2 = Constraint::And(vec![b.clone(), a.clone()]); // same, reordered
        let q3 = a.clone(); // distinct
        let plan = plan_queries(
            &ds,
            [(store, &q1), (store, &q2), (store, &q3)].into_iter(),
        );
        assert_eq!(plan.alias_of, vec![None, Some(0), None]);
        assert_eq!(plan.stats.deduped, 1);
        assert_eq!(plan.stats.queries, 3);
        assert_eq!(plan.order.len(), 2);
        assert!(plan.order.contains(&0) && plan.order.contains(&2));
    }

    #[test]
    fn plan_orders_cheapest_first() {
        let ds = diamond();
        let g = ds.hierarchy();
        let store = g.category_by_name("Store").unwrap();
        let country = g.category_by_name("Country").unwrap();
        // Rooted at Store the region is the whole hierarchy; rooted at
        // Country it is two categories — Country must be cheaper.
        let big = Constraint::path(vec![store, g.category_by_name("City").unwrap()]);
        let small = Constraint::path(vec![country, Category::ALL]);
        let plan = plan_queries(&ds, [(store, &big), (country, &small)].into_iter());
        assert!(plan.cost[1] < plan.cost[0]);
        assert_eq!(plan.order, vec![1, 0]);
        assert_eq!(plan.stats.reordered, 2);
    }

    #[test]
    fn sweep_order_is_big_regions_first_and_complete() {
        let ds = diamond();
        let g = ds.hierarchy();
        let order = sweep_order(g);
        let all: Vec<Category> = g.categories().filter(|c| !c.is_all()).collect();
        assert_eq!(order.len(), all.len());
        assert_eq!(order[0], g.category_by_name("Store").unwrap());
        for w in order.windows(2) {
            assert!(
                g.reachable_from(w[0]).len() >= g.reachable_from(w[1]).len(),
                "sweep order not monotone in region size"
            );
        }
    }

    #[test]
    fn eval_structural_decides_pure_path_formulas() {
        let ds = diamond();
        let g = ds.hierarchy();
        let store = g.category_by_name("Store").unwrap();
        let city = g.category_by_name("City").unwrap();
        let region = g.category_by_name("Region").unwrap();
        let country = g.category_by_name("Country").unwrap();
        // Witness: Store → City → Country → All (Region absent).
        let mut sub = Subhierarchy::new(store, g.num_categories());
        sub.add_edge(store, city);
        sub.add_edge(city, country);
        sub.add_edge(country, Category::ALL);
        let via_city = Constraint::path(vec![store, city]);
        let via_region = Constraint::path(vec![store, region]);
        assert_eq!(eval_structural(&sub, &via_city), Some(true));
        assert_eq!(eval_structural(&sub, &via_region), Some(false));
        assert_eq!(
            eval_structural(&sub, &Constraint::not(via_region.clone())),
            Some(true)
        );
        assert_eq!(
            eval_structural(
                &sub,
                &Constraint::ExactlyOne(vec![via_city.clone(), via_region.clone()])
            ),
            Some(true)
        );
        assert_eq!(
            eval_structural(
                &sub,
                &Constraint::implies(
                    via_city.clone(),
                    Constraint::ExactlyOne(vec![via_city.clone(), via_city.clone()])
                )
            ),
            Some(false)
        );
    }

    #[test]
    fn eval_structural_defers_assignment_atoms() {
        let ds = diamond();
        let g = ds.hierarchy();
        let store = g.category_by_name("Store").unwrap();
        let city = g.category_by_name("City").unwrap();
        let mut sub = Subhierarchy::new(store, g.num_categories());
        sub.add_edge(store, city);
        let eq = Constraint::eq(store, city, "Toronto");
        assert_eq!(eval_structural(&sub, &eq), None);
        // Kleene: a decided disjunct still decides the whole.
        let or = Constraint::Or(vec![eq.clone(), Constraint::path(vec![store, city])]);
        assert_eq!(eval_structural(&sub, &or), Some(true));
        let and = Constraint::And(vec![eq, Constraint::path(vec![store, city])]);
        assert_eq!(eval_structural(&sub, &and), None);
    }

    #[test]
    fn overflow_exposure_covers_regions_of_wide_categories() {
        // Leaf → Mid(64 parents) → ... each parent → All; Leaf and Mid
        // are exposed, the wide parents themselves are not.
        let mut b = HierarchySchema::builder();
        let leaf = b.category("Leaf");
        let mid = b.category("Mid");
        b.edge(leaf, mid);
        let mut parents = Vec::new();
        for i in 0..64 {
            let p = b.category(&format!("P{i}"));
            b.edge(mid, p);
            b.edge_to_all(p);
            parents.push(p);
        }
        let g = b.build().unwrap();
        let exposed = overflow_exposed(&g);
        assert!(exposed.contains(leaf));
        assert!(exposed.contains(mid));
        for p in parents {
            assert!(!exposed.contains(p));
        }
        let ds = diamond();
        assert_eq!(overflow_exposed(ds.hierarchy()).len(), 0);
    }

    #[test]
    fn shared_facts_publish_and_hit() {
        let ds = diamond();
        let g = ds.hierarchy();
        let store = g.category_by_name("Store").unwrap();
        let city = g.category_by_name("City").unwrap();
        let facts = SharedFacts::new(g.num_categories());
        assert!(!facts.known_sat(city));
        facts.note_sat_set(g.reachable_from(store));
        assert!(facts.known_sat(city));
        assert!(facts.known_sat(store));
        assert!(!facts.known_unsat(city));
        facts.note_unsat(city);
        assert!(facts.known_unsat(city));
        facts.record_hit();
        facts.record_hit();
        assert_eq!(facts.hits(), 2);
    }
}
