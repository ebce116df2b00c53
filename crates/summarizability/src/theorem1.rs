//! The Theorem-1 constraint construction and the schema-level
//! summarizability test.
//!
//! Theorem 1 reduces "`c` is summarizable from `S`" to one implication
//! per bottom category; Theorem 2 decides each with DIMSAT.
//! [`is_summarizable_in_schema_run`] is the battery's one driver: one
//! loop over the constraints through [`odc_govern::run_items`], under a
//! [`Run`] that picks serial or parallel, unplanned or planned, a
//! memo-cache session and an item cache to answer from and resume
//! through. The advisor's rewrite matrix runs the same loop per pair,
//! with its census shortcuts.
//! [`is_summarizable_in_schema`] is the paper-level call and
//! [`is_summarizable_in_schema_session`] a one-line wrapper for callers
//! holding a warm cache.

use odc_constraint::{expand, Constraint, DimensionConstraint, DimensionSchema};
use odc_dimsat::{
    implication, AuditItem, CacheSession, DimsatOptions, ImplicationVerdict, ItemAnswer,
    ItemCache, Run, SearchStats,
};
use odc_frozen::FrozenDimension;
use odc_govern::{run_items, Flow, Governor, Interrupt};
use odc_hierarchy::{CatSet, Category, HierarchySchema};
use odc_obs::PlanEvent;
use odc_plan::{QueryPlan, SharedFacts};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Builds the Theorem-1 constraints for "`c` is summarizable from `S`":
/// one constraint `c_b.c ⊃ ⊙_{ci∈S} c_b.ci.c` per bottom category `c_b`
/// of the hierarchy schema.
pub fn summarizability_constraints(
    g: &HierarchySchema,
    c: Category,
    s: &[Category],
) -> Vec<DimensionConstraint> {
    g.bottom_categories()
        .into_iter()
        .filter(|cb| !cb.is_all())
        .map(|cb| {
            let antecedent = expand::rolls_up_to(g, cb, c);
            let branches: Vec<Constraint> = s
                .iter()
                .map(|&ci| expand::rolls_up_through(g, cb, ci, c))
                .collect();
            let formula = Constraint::implies(antecedent, Constraint::ExactlyOne(branches));
            DimensionConstraint::new(cb, formula)
        })
        .collect()
}

/// The three-valued answer of a governed summarizability query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SummarizabilityVerdict {
    /// Every Theorem-1 constraint is implied: the rewriting is correct in
    /// **every** instance of the schema.
    Summarizable,
    /// Some bottom category has a countermodel.
    NotSummarizable,
    /// A bottom-category implication query was interrupted before the
    /// battery reached a conclusion.
    Unknown(Interrupt),
}

/// The result of a schema-level summarizability query.
#[derive(Debug, Clone)]
pub struct SummarizabilityOutcome {
    /// Summarizable, NotSummarizable, or Unknown with the interrupt.
    pub verdict: SummarizabilityVerdict,
    /// The bottom category whose Theorem-1 constraint failed (when not
    /// summarizable).
    pub failing_bottom: Option<Category>,
    /// A frozen countermodel: a minimal instance shape in which the
    /// rewriting would be wrong.
    pub counterexample: Option<FrozenDimension>,
    /// The countermodel as text, when an item cache answered the query:
    /// the cache keeps what [`FrozenDimension::display`] rendered, not
    /// the witness (see [`Self::countermodel_text`]).
    pub countermodel: Option<String>,
    /// DIMSAT statistics of this run's bottom-category queries
    /// (populated even on interrupted runs; a cached answer costs
    /// nothing).
    pub stats: SearchStats,
}

impl SummarizabilityOutcome {
    /// Whether summarizability was *proved*. `false` covers both
    /// NotSummarizable and Unknown — check [`Self::is_unknown`] when the
    /// run was budgeted.
    pub fn summarizable(&self) -> bool {
        matches!(self.verdict, SummarizabilityVerdict::Summarizable)
    }

    /// Whether a countermodel was found.
    pub fn not_summarizable(&self) -> bool {
        matches!(self.verdict, SummarizabilityVerdict::NotSummarizable)
    }

    /// Whether the battery ended without an answer.
    pub fn is_unknown(&self) -> bool {
        matches!(self.verdict, SummarizabilityVerdict::Unknown(_))
    }

    /// The interrupt that cut the battery short, if any.
    pub fn interrupt(&self) -> Option<Interrupt> {
        match self.verdict {
            SummarizabilityVerdict::Unknown(i) => Some(i),
            _ => None,
        }
    }

    /// The countermodel as `odc summarizable` prints it: rendered from
    /// the witness, or read back from an item cache.
    pub fn countermodel_text(&self, ds: &DimensionSchema) -> Option<String> {
        match &self.counterexample {
            Some(cx) => Some(cx.display(ds).to_string()),
            None => self.countermodel.clone(),
        }
    }

    /// The outcome an item cache's `answer` stands for; another answer
    /// shape is a miss.
    fn cached(answer: ItemAnswer) -> Option<Self> {
        let (verdict, failing_bottom, countermodel) = match answer {
            ItemAnswer::Holds => (SummarizabilityVerdict::Summarizable, None, None),
            ItemAnswer::Fails(b, text) => (SummarizabilityVerdict::NotSummarizable, b, text),
            _ => return None,
        };
        Some(SummarizabilityOutcome {
            verdict,
            failing_bottom,
            counterexample: None,
            countermodel,
            stats: SearchStats::default(),
        })
    }
}

/// Tests whether `c` is summarizable from `S` in every instance over
/// `ds`, by checking implication of each Theorem-1 constraint (Theorem 2 +
/// DIMSAT).
pub fn is_summarizable_in_schema(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
) -> SummarizabilityOutcome {
    let mut gov = Governor::unlimited();
    is_summarizable_in_schema_run(ds, c, s, DimsatOptions::default(), Run::new(&mut gov))
}

/// [`is_summarizable_in_schema`] on a caller's governor, through a
/// caller-owned [`CacheSession`]: the whole battery shares the session,
/// so reuse *within* this battery is a plain hit while reuse of entries
/// an earlier session stored (a warm server catalog) counts as a
/// cross-session hit.
pub fn is_summarizable_in_schema_session(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
    opts: DimsatOptions,
    gov: &mut Governor,
    session: CacheSession<'_>,
) -> SummarizabilityOutcome {
    is_summarizable_in_schema_run(ds, c, s, opts, Run::new(gov).session(session))
}

/// The Theorem-1 battery's one driver: one implication query per bottom
/// category, all under `run`.
///
/// * Unplanned, the constraints run in bottom-category order.
/// * Planned, [`odc_plan::plan_battery`] normalizes, dedups and
///   cost-orders them first, so cheap refutations come first and
///   structurally identical queries are solved once; the battery emits
///   one `theorem1_battery` plan event.
/// * With `run.jobs > 1` the constraints are split across workers under
///   one shared budget, with first-countermodel cancellation: as soon as
///   any worker refutes its constraint the others stop (the caller's
///   token is never flipped).
/// * `run.cache` answers the whole query as an [`AuditItem::Query`]
///   before any constraint is built and is told the decided verdict,
///   with its failing bottom and countermodel text. An interrupted
///   battery leaves the bottoms it proved implied there as the item's
///   pending record, and the next run skips them.
///
/// The yes/no verdict is the same in every mode under a sufficient
/// budget. A countermodel is a proof, so it wins over another worker's
/// interrupt; when several bottoms fail, a planned or parallel run
/// reports the lowest-indexed one it *found*, which may differ from the
/// first in bottom order.
pub fn is_summarizable_in_schema_run(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
    opts: DimsatOptions,
    run: Run<'_>,
) -> SummarizabilityOutcome {
    let item = run.cache.map(|k| (k, AuditItem::Query(c, s.to_vec())));
    if let Some(out) = item
        .as_ref()
        .and_then(|(k, item)| k.get(ds, item))
        .and_then(SummarizabilityOutcome::cached)
    {
        return out;
    }
    let constraints = summarizability_constraints(ds.hierarchy(), c, s);
    let plan = run.plan.then(|| odc_plan::plan_battery(ds, &constraints));
    let battery = Battery {
        ds,
        constraints: &constraints,
        opts,
        session: run.session,
        plan: plan.as_ref(),
        shortcuts: None,
    };
    let item = item.as_ref().map(|(k, item)| (*k, item));
    let out = battery.run_cached(run.gov, run.jobs, item);
    if let Some(p) = &plan {
        run.gov.obs().plan(&PlanEvent {
            battery: "theorem1_battery",
            queries: p.stats.queries,
            deduped: p.stats.deduped,
            reordered: p.stats.reordered,
            fact_hits: p.stats.fact_hits,
            batched: p.stats.batched,
        });
    }
    out
}

/// The pending record of an interrupted battery item: the bottoms whose
/// constraints it already proved implied, one name per line.
fn implied_record(g: &HierarchySchema, bottoms: &[Category]) -> String {
    let mut text = String::from("implied\n");
    for &b in bottoms {
        text.push_str(g.name(b));
        text.push('\n');
    }
    text
}

/// Inverse of [`implied_record`]; `None` (a miss) for any other text,
/// such as an earlier release's battery checkpoint.
fn parse_implied(g: &HierarchySchema, text: &str) -> Option<Vec<Category>> {
    let mut lines = text.lines();
    if lines.next()? != "implied" {
        return None;
    }
    lines.map(|name| g.category_by_name(name)).collect()
}

/// Per-bottom witness pools produced by a *complete* census enumeration:
/// `pool[b]` holds one frozen dimension per inducing subhierarchy rooted
/// at `b` (empty when `b` is unsatisfiable). By Theorem 2 these pools
/// answer every pure-path rooted implication without another search.
pub(crate) type WitnessPools = HashMap<Category, Vec<FrozenDimension>>;

/// What the audit's rewrite matrix knows before solving a pair's
/// battery: the shared facts and the census witness pools.
///
/// * a bottom proved unsatisfiable roots *no* frozen dimension, so its
///   battery constraint is vacuously implied (sound against the full
///   schema, which is what every battery runs against);
/// * a complete witness pool decides a structurally-evaluable constraint
///   by Theorem-2 quantification ([`decide_from_pool`]);
/// * overflow-exposed bottoms take neither shortcut, so structural
///   aborts surface exactly as the unplanned battery would surface them.
pub(crate) struct Shortcuts<'a> {
    pub(crate) facts: &'a SharedFacts,
    pub(crate) pools: &'a WitnessPools,
    pub(crate) exposed: &'a CatSet,
    /// Answers taken from a pool (the plan event's `batched`).
    pub(crate) batched: &'a AtomicU64,
}

/// One battery constraint's answer and the counters it cost.
enum Answer {
    Implied(SearchStats),
    Refuted(Category, Option<FrozenDimension>, SearchStats),
    Unknown(SearchStats),
}

impl Answer {
    fn stats(&self) -> &SearchStats {
        match self {
            Answer::Implied(s) | Answer::Refuted(_, _, s) | Answer::Unknown(s) => s,
        }
    }
}

/// One Theorem-1 battery, ready to run: its constraints (one per bottom,
/// in bottom order) and how to decide them.
pub(crate) struct Battery<'a> {
    pub(crate) ds: &'a DimensionSchema,
    pub(crate) constraints: &'a [DimensionConstraint],
    pub(crate) opts: DimsatOptions,
    pub(crate) session: Option<CacheSession<'a>>,
    /// Execution order and aliases; `None` runs bottom order.
    pub(crate) plan: Option<&'a QueryPlan>,
    pub(crate) shortcuts: Option<&'a Shortcuts<'a>>,
}

impl Battery<'_> {
    /// Decides one constraint.
    fn decide(&self, dc: &DimensionConstraint, gov: &mut Governor) -> (Answer, Flow) {
        let root = dc.root();
        if let Some(sc) = self.shortcuts.filter(|sc| !sc.exposed.contains(root)) {
            if sc.facts.known_unsat(root) {
                sc.facts.record_hit();
                return (Answer::Implied(SearchStats::default()), Flow::Next);
            }
            if let Some(decided) = sc.pools.get(&root).and_then(|w| decide_from_pool(dc, w)) {
                sc.batched.fetch_add(1, Ordering::Relaxed);
                return match decided {
                    Ok(()) => (Answer::Implied(SearchStats::default()), Flow::Next),
                    Err(w) => (
                        Answer::Refuted(root, Some(w), SearchStats::default()),
                        Flow::Settle,
                    ),
                };
            }
        }
        let out = match self.session {
            Some(s) => implication::implies_memo_session(self.ds, dc, self.opts, gov, s),
            None => implication::implies_governed(self.ds, dc, self.opts, gov),
        };
        match out.verdict {
            ImplicationVerdict::Implied => (Answer::Implied(out.stats), Flow::Next),
            ImplicationVerdict::NotImplied => (
                Answer::Refuted(root, out.counterexample, out.stats),
                Flow::Settle,
            ),
            ImplicationVerdict::Unknown(i) => (Answer::Unknown(out.stats), Flow::Stop(i)),
        }
    }

    /// Runs the battery as `item` of an item cache, when given one (the
    /// caller already asked it for a decided answer): the bottoms the
    /// item's pending record lists as implied are skipped, and the
    /// outcome is stored — a decided verdict as the item's answer (the
    /// countermodel's text with it for a `Query`), an interrupted one as
    /// the bottoms now known implied.
    pub(crate) fn run_cached(
        &self,
        gov: &mut Governor,
        jobs: usize,
        cached: Option<(&dyn ItemCache, &AuditItem)>,
    ) -> SummarizabilityOutcome {
        let Some((cache, item)) = cached else {
            return self.run(gov, jobs, &[]).0;
        };
        let (ds, g) = (self.ds, self.ds.hierarchy());
        let known = cache
            .pending(ds, item)
            .and_then(|text| parse_implied(g, &text))
            .unwrap_or_default();
        let (out, implied) = self.run(gov, jobs, &known);
        match out.verdict {
            SummarizabilityVerdict::Summarizable => cache.put(ds, item, ItemAnswer::Holds),
            SummarizabilityVerdict::NotSummarizable => {
                let text = match item {
                    AuditItem::Query(..) => out.countermodel_text(ds),
                    _ => None,
                };
                cache.put(ds, item, ItemAnswer::Fails(out.failing_bottom, text));
            }
            SummarizabilityVerdict::Unknown(_) if !implied.is_empty() => {
                cache.put_pending(ds, item, implied_record(g, &implied));
            }
            SummarizabilityVerdict::Unknown(_) => {}
        }
        out
    }

    /// Runs every constraint whose bottom is not in `known` (bottoms an
    /// earlier run proved implied). The outcome's stats cover this run's
    /// queries, an interrupted one's partial counters included; on an
    /// interrupt the second value lists every bottom now known implied.
    fn run(
        &self,
        gov: &mut Governor,
        jobs: usize,
        known: &[Category],
    ) -> (SummarizabilityOutcome, Vec<Category>) {
        let n = self.constraints.len();
        let skip = |i: usize| known.contains(&self.constraints[i].root());
        let decide = |i: usize, gov: &mut Governor| self.decide(&self.constraints[i], gov);
        let ran = match self.plan {
            Some(p) => {
                let order = p.order.iter().copied().filter(move |&i| !skip(i));
                run_items(gov, jobs, n, order, "theorem1_battery", decide)
            }
            None => {
                let order = (0..n).filter(move |&i| !skip(i));
                run_items(gov, jobs, n, order, "theorem1_battery", decide)
            }
        };
        let mut items = ran.items;
        let mut stats = SearchStats::default();
        for a in items.iter().flatten() {
            stats.absorb(a.stats());
        }
        let refuted = items.iter_mut().find_map(|a| match a.take() {
            Some(Answer::Refuted(root, cx, _)) => Some((root, cx)),
            other => {
                *a = other;
                None
            }
        });
        let (verdict, failing_bottom, counterexample) = match (refuted, ran.interrupt) {
            (Some((root, cx)), _) => (SummarizabilityVerdict::NotSummarizable, Some(root), cx),
            (None, Some((_, intr))) => (SummarizabilityVerdict::Unknown(intr), None, None),
            (None, None) => (SummarizabilityVerdict::Summarizable, None, None),
        };
        let mut implied = Vec::new();
        if matches!(verdict, SummarizabilityVerdict::Unknown(_)) {
            // An alias is decided once its canonical (always an earlier
            // constraint) is.
            let mut done = vec![false; n];
            for k in 0..n {
                let alias = self.plan.and_then(|p| p.alias_of[k]);
                done[k] = skip(k)
                    || matches!(items[k], Some(Answer::Implied(_)))
                    || alias.is_some_and(|j| done[j]);
                if done[k] {
                    implied.push(self.constraints[k].root());
                }
            }
        }
        let outcome = SummarizabilityOutcome {
            verdict,
            failing_bottom,
            counterexample,
            countermodel: None,
            stats,
        };
        (outcome, implied)
    }
}

/// Answers one Theorem-1 battery constraint from a *complete* witness
/// pool — the full enumeration of inducing subhierarchies rooted at the
/// constraint's bottom (what a census stage produces).
///
/// By Theorem 2, `ds ⊨ α` (α rooted at `b`) iff every frozen dimension
/// of `ds` rooted at `b` satisfies α. When α's truth on each witness is
/// decided by graph structure alone ([`odc_plan::eval_structural`]
/// returns `Some`), one witness per inducing subhierarchy is exactly the
/// quantification Theorem 2 demands, so the pool answers the implication
/// with zero search:
///
/// - `Some(Ok(()))` — every witness satisfies α: implied.
/// - `Some(Err(w))` — `w` violates α structurally (every assignment
///   over its subhierarchy violates it): a genuine countermodel.
/// - `None` — some witness's verdict depends on member assignments
///   (`Eq`/`Ord` atoms): fall back to a real solve, where one witness
///   per subhierarchy is no longer sufficient.
pub fn decide_from_pool(
    dc: &DimensionConstraint,
    pool: &[FrozenDimension],
) -> Option<Result<(), FrozenDimension>> {
    let mut undecided = false;
    for w in pool {
        match odc_plan::eval_structural(w.subhierarchy(), dc.formula()) {
            Some(true) => {}
            // A structural violation refutes regardless of whether other
            // witnesses were evaluable.
            Some(false) => return Some(Err(w.clone())),
            None => undecided = true,
        }
    }
    if undecided {
        None
    } else {
        Some(Ok(()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::advisor::tests::FakeCache;
    use odc_dimsat::ImplicationCache;
    use odc_govern::{Budget, CancelToken};
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

    /// The battery over `jobs` workers on `gov`.
    fn battery_jobs(
        ds: &DimensionSchema,
        c: Category,
        s: &[Category],
        mut gov: Governor,
        jobs: usize,
    ) -> SummarizabilityOutcome {
        let run = Run::new(&mut gov).jobs(jobs);
        is_summarizable_in_schema_run(ds, c, s, DimsatOptions::default(), run)
    }

    /// The serial battery on `gov` through `cache`.
    fn battery_cached(
        ds: &DimensionSchema,
        c: Category,
        s: &[Category],
        gov: &mut Governor,
        cache: &FakeCache,
    ) -> SummarizabilityOutcome {
        let run = Run::new(gov).cache(cache);
        is_summarizable_in_schema_run(ds, c, s, DimsatOptions::default(), run)
    }

    #[test]
    fn constraint_construction_one_per_bottom() {
        let ds = location_sch();
        let g = ds.hierarchy();
        let cs = summarizability_constraints(g, cat(&ds, "Country"), &[cat(&ds, "City")]);
        assert_eq!(cs.len(), 1, "location has one bottom category");
        assert_eq!(cs[0].root(), cat(&ds, "Store"));
        assert!(matches!(cs[0].formula(), Constraint::Implies(_, _)));
    }

    #[test]
    fn example_10_country_from_city_schema_level() {
        // The schema-level strengthening of Example 10's positive claim:
        // every instance of locationSch routes Country through exactly one
        // City.
        let ds = location_sch();
        let out = is_summarizable_in_schema(&ds, cat(&ds, "Country"), &[cat(&ds, "City")]);
        assert!(out.summarizable());
        assert!(out.counterexample.is_none());
    }

    #[test]
    fn example_10_country_not_from_state_province() {
        // The Washington structure breaks {State, Province} (Example 10's
        // negative claim): it reaches Country through neither.
        let ds = location_sch();
        let out = is_summarizable_in_schema(
            &ds,
            cat(&ds, "Country"),
            &[cat(&ds, "State"), cat(&ds, "Province")],
        );
        assert!(!out.summarizable());
        assert_eq!(out.failing_bottom, Some(cat(&ds, "Store")));
        let cx = out.counterexample.expect("countermodel");
        let state = cat(&ds, "State");
        let province = cat(&ds, "Province");
        assert!(
            !cx.subhierarchy().contains(state) && !cx.subhierarchy().contains(province),
            "the countermodel should be the Washington structure"
        );
    }

    #[test]
    fn summarizable_from_self() {
        let ds = location_sch();
        for name in ["Country", "City", "SaleRegion"] {
            let c = cat(&ds, name);
            let out = is_summarizable_in_schema(&ds, c, &[c]);
            assert!(out.summarizable(), "{name} must be summarizable from itself");
        }
    }

    #[test]
    fn all_from_country() {
        // Every store reaches All through exactly one country? Frozen
        // dimensions all contain Country on every path to All… Country is
        // on every path (the only edge into All). So yes.
        let ds = location_sch();
        let out = is_summarizable_in_schema(&ds, Category::ALL, &[cat(&ds, "Country")]);
        assert!(out.summarizable());
    }

    #[test]
    fn sale_region_not_summarizable_from_state() {
        // Canadian stores reach SaleRegion via Province, not State.
        let ds = location_sch();
        let out = is_summarizable_in_schema(&ds, cat(&ds, "SaleRegion"), &[cat(&ds, "State")]);
        assert!(!out.summarizable());
    }

    #[test]
    fn sale_region_from_state_and_province_fails_on_us_stores() {
        // US stores reach SaleRegion directly (Store→SaleRegion), passing
        // through neither State nor Province.
        let ds = location_sch();
        let out = is_summarizable_in_schema(
            &ds,
            cat(&ds, "SaleRegion"),
            &[cat(&ds, "State"), cat(&ds, "Province")],
        );
        assert!(!out.summarizable());
    }

    #[test]
    fn empty_source_set_only_works_if_nothing_reaches_target() {
        let ds = location_sch();
        // ⊙∅ is false, so summarizable-from-∅ requires that no store ever
        // reaches Country — false here.
        let out = is_summarizable_in_schema(&ds, cat(&ds, "Country"), &[]);
        assert!(!out.summarizable());
    }

    #[test]
    fn stats_accumulate() {
        let ds = location_sch();
        let out = is_summarizable_in_schema(&ds, cat(&ds, "Country"), &[cat(&ds, "City")]);
        assert!(out.stats.expand_calls > 0);
    }

    /// Four bottom categories, so the battery has four constraints to
    /// split across workers.
    fn multi_bottom_sch() -> DimensionSchema {
        let mut b = HierarchySchema::builder();
        let mid = b.category("Mid");
        let top = b.category("Top");
        for name in ["B0", "B1", "B2", "B3"] {
            let bottom = b.category(name);
            b.edge(bottom, mid);
        }
        b.edge(mid, top);
        b.edge_to_all(top);
        let g = Arc::new(b.build().unwrap());
        DimensionSchema::parse(g, "B0_Mid\nB1_Mid\nB2_Mid\nB3_Mid\n").unwrap()
    }

    #[test]
    fn parallel_battery_matches_serial() {
        let ds = multi_bottom_sch();
        let top = cat(&ds, "Top");
        let mid = cat(&ds, "Mid");
        for (target, sources) in [(top, vec![mid]), (top, vec![]), (mid, vec![top])] {
            let serial = is_summarizable_in_schema(&ds, target, &sources);
            for jobs in [1, 2, 4, 8] {
                let gov = Governor::new(Budget::unlimited(), CancelToken::new());
                let par = battery_jobs(&ds, target, &sources, gov, jobs);
                assert_eq!(par.verdict, serial.verdict, "jobs={jobs}");
                assert_eq!(par.failing_bottom.is_some(), serial.failing_bottom.is_some());
            }
        }
    }

    #[test]
    fn parallel_battery_respects_caller_cancellation() {
        let ds = multi_bottom_sch();
        let token = CancelToken::new();
        token.cancel();
        let out = battery_jobs(
            &ds,
            cat(&ds, "Top"),
            &[cat(&ds, "Mid")],
            Governor::new(Budget::unlimited(), token),
            4,
        );
        assert!(out.is_unknown(), "pre-cancelled battery must not decide");
    }

    #[test]
    fn memo_battery_hits_cache_on_second_run() {
        let ds = location_sch();
        let cache = ImplicationCache::for_schema(&ds);
        let mut gov = Governor::unlimited();
        let first = is_summarizable_in_schema_session(
            &ds,
            cat(&ds, "Country"),
            &[cat(&ds, "City")],
            DimsatOptions::default(),
            &mut gov,
            cache.begin_session(),
        );
        let second = is_summarizable_in_schema_session(
            &ds,
            cat(&ds, "Country"),
            &[cat(&ds, "City")],
            DimsatOptions::default(),
            &mut gov,
            cache.begin_session(),
        );
        assert_eq!(first.verdict, second.verdict);
        assert!(first.stats.cache_misses > 0 && first.stats.cache_hits == 0);
        assert!(second.stats.cache_hits > 0 && second.stats.cache_misses == 0);
        assert_eq!(second.stats.expand_calls, 0, "cached answer needs no search");
    }

    /// A schema with three bottom categories, so the Theorem-1 battery
    /// has three independently-checkpointable implication queries.
    fn tri_bottom_sch() -> DimensionSchema {
        let mut b = HierarchySchema::builder();
        let wa = b.category("WarehouseA");
        let wb = b.category("WarehouseB");
        let wc = b.category("WarehouseC");
        let city = b.category("City");
        let region = b.category("Region");
        let country = b.category("Country");
        b.edge(wa, city);
        b.edge(wb, city);
        b.edge(wc, city);
        b.edge(wc, region);
        b.edge(city, region);
        b.edge(city, country);
        b.edge(region, country);
        b.edge(country, Category::ALL);
        let g = Arc::new(b.build().unwrap());
        DimensionSchema::parse(
            g,
            r#"
            WarehouseA_City
            WarehouseB_City
            WarehouseC.City
            City.Country = Chile -> City_Country
            "#,
        )
        .unwrap()
    }

    #[test]
    fn battery_resumes_through_its_item_cache() {
        let ds = tri_bottom_sch();
        let target = cat(&ds, "Country");
        let sources = [cat(&ds, "City")];
        let clean = is_summarizable_in_schema(&ds, target, &sources);
        assert_eq!(
            summarizability_constraints(ds.hierarchy(), target, &sources).len(),
            3,
            "three bottoms, three battery items"
        );
        let item = AuditItem::Query(target, sources.to_vec());
        let mut mid_battery = false;
        for limit in 1..3000u64 {
            let cache = FakeCache::default();
            let mut gov = Governor::from_budget(Budget::unlimited().with_node_limit(limit));
            let partial = battery_cached(&ds, target, &sources, &mut gov, &cache);
            if !partial.is_unknown() {
                assert_eq!(partial.verdict, clean.verdict);
                break;
            }
            // The pending record names the bottoms already proved.
            if let Some(text) = ItemCache::pending(&cache, &ds, &item) {
                let known = parse_implied(ds.hierarchy(), &text).expect("a readable record");
                mid_battery |= !known.is_empty();
            }
            let merged = battery_cached(&ds, target, &sources, &mut Governor::unlimited(), &cache);
            assert_eq!(merged.verdict, clean.verdict, "limit={limit}");
            // The decided verdict is stored: a third run costs nothing.
            let again = battery_cached(&ds, target, &sources, &mut Governor::unlimited(), &cache);
            assert_eq!(again.verdict, clean.verdict, "limit={limit}");
            assert_eq!(again.stats.expand_calls, 0, "limit={limit}");
        }
        assert!(mid_battery, "no budget interrupted past the first item");
    }

    #[test]
    fn pending_records_are_per_query_and_old_text_is_a_miss() {
        let ds = tri_bottom_sch();
        let (country, region) = (cat(&ds, "Country"), cat(&ds, "Region"));
        let sources = [cat(&ds, "City")];
        let cache = FakeCache::default();
        let mut gov = Governor::from_budget(Budget::unlimited().with_node_limit(4));
        let partial = battery_cached(&ds, country, &sources, &mut gov, &cache);
        assert!(partial.is_unknown(), "tiny budget interrupts");
        // Another query does not see the first one's record.
        let other = battery_cached(&ds, region, &sources, &mut Governor::unlimited(), &cache);
        assert_eq!(other.verdict, is_summarizable_in_schema(&ds, region, &sources).verdict);
        // An earlier release's battery checkpoint loses its cursor, not
        // its answer.
        let item = AuditItem::Query(country, sources.to_vec());
        let old = "odc-checkpoint v1\nkind theorem1-battery\nfingerprint 1\nnext 2\nend\n";
        ItemCache::put_pending(&cache, &ds, &item, old.to_string());
        let resumed = battery_cached(&ds, country, &sources, &mut Governor::unlimited(), &cache);
        assert_eq!(resumed.verdict, is_summarizable_in_schema(&ds, country, &sources).verdict);
    }

    #[test]
    fn parallel_battery_resumes_to_the_serial_verdict() {
        let ds = tri_bottom_sch();
        let target = cat(&ds, "Country");
        let sources = [cat(&ds, "City")];
        let clean = is_summarizable_in_schema(&ds, target, &sources);
        let mut resumed_any = false;
        for limit in (1..3000u64).step_by(7) {
            let cache = FakeCache::default();
            let mut gov = Governor::from_budget(Budget::unlimited().with_node_limit(limit));
            let run = Run::new(&mut gov).jobs(3).cache(&cache);
            let partial =
                is_summarizable_in_schema_run(&ds, target, &sources, DimsatOptions::default(), run);
            if !partial.is_unknown() {
                continue;
            }
            let merged = battery_cached(&ds, target, &sources, &mut Governor::unlimited(), &cache);
            assert_eq!(merged.verdict, clean.verdict, "limit={limit}");
            resumed_any = true;
        }
        assert!(resumed_any, "no budget produced a resumable parallel battery");
    }
}
