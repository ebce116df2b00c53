//! The Theorem-1 constraint construction and the schema-level
//! summarizability test.
//!
//! Theorem 1 reduces "`c` is summarizable from `S`" to one implication
//! per bottom category; Theorem 2 decides each with DIMSAT.
//! [`is_summarizable_in_schema_run`] is the battery's one driver: one
//! loop over the constraints through [`odc_govern::run_items`], under a
//! [`Run`] that picks serial or parallel, unplanned or planned, a
//! memo-cache session and a checkpoint to resume. The advisor's rewrite
//! matrix runs the same loop per pair, with its census shortcuts.
//! [`is_summarizable_in_schema`] is the paper-level call and
//! [`is_summarizable_in_schema_session`] a one-line wrapper for callers
//! holding a warm cache.

use crate::checkpoint::BatteryCheckpoint;
use odc_constraint::{expand, Constraint, DimensionConstraint, DimensionSchema};
use odc_dimsat::checkpoint::options_key;
use odc_dimsat::{implication, CacheSession, DimsatOptions, ImplicationVerdict, Run, SearchStats};
use odc_frozen::FrozenDimension;
use odc_govern::{run_items, CheckpointError, Flow, Governor, Interrupt};
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
    /// Accumulated DIMSAT statistics over all bottom-category queries
    /// (populated even on interrupted runs).
    pub stats: SearchStats,
    /// On an interrupted battery: the constraint-granular cursor to
    /// resume from ([`is_summarizable_in_schema_run`] with `Run::resume`). Its stats cover
    /// the *decided* constraints only, so an interrupted-plus-resumed
    /// battery's totals match an uninterrupted one's.
    pub checkpoint: Option<BatteryCheckpoint>,
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
    drive(ds, c, s, DimsatOptions::default(), Run::new(&mut gov))
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
    drive(ds, c, s, opts, Run::new(gov).session(session))
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
///
/// The yes/no verdict is the same in every mode under a sufficient
/// budget. A countermodel is a proof, so it wins over another worker's
/// interrupt; when several bottoms fail, a planned or parallel run
/// reports the lowest-indexed one it *found*, which may differ from the
/// first in bottom order. An interrupted battery carries a
/// decided-prefix [`BatteryCheckpoint`] whose stats cover the decided
/// constraints only, so interrupted-plus-resumed totals match an
/// uninterrupted run's. `run.resume` continues such a checkpoint (any
/// mode may resume any checkpoint); one recorded for another schema,
/// other options, or another query is refused.
pub fn is_summarizable_in_schema_run(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
    opts: DimsatOptions,
    run: Run<'_, BatteryCheckpoint>,
) -> Result<SummarizabilityOutcome, CheckpointError> {
    if let Some(cp) = run.resume {
        check_battery_checkpoint(ds, cp, c, s, &opts)?;
    }
    Ok(drive(ds, c, s, opts, run))
}

/// [`is_summarizable_in_schema_run`] past the checkpoint check.
fn drive(
    ds: &DimensionSchema,
    c: Category,
    s: &[Category],
    opts: DimsatOptions,
    run: Run<'_, BatteryCheckpoint>,
) -> SummarizabilityOutcome {
    // A resumed battery rebuilds the recorded query, source order
    // included, so its constraints index exactly as they did.
    let s = run.resume.map_or(s, |cp| &cp.sources[..]);
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
    let out = battery.run_query(run.gov, run.jobs, c, s, run.resume);
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

/// Refuses a battery checkpoint recorded for another schema, under
/// other DIMSAT options, or for another query (target and source set).
pub(crate) fn check_battery_checkpoint(
    ds: &DimensionSchema,
    cp: &BatteryCheckpoint,
    c: Category,
    s: &[Category],
    opts: &DimsatOptions,
) -> Result<(), CheckpointError> {
    CheckpointError::check_fingerprint(cp.fingerprint, implication::schema_fingerprint(ds))?;
    let key = options_key(opts);
    if cp.options_key != key {
        return Err(CheckpointError::malformed(format!(
            "checkpoint was recorded under options [{}], resume requested [{}]",
            cp.options_key, key
        )));
    }
    let mut want = s.to_vec();
    let mut have = cp.sources.clone();
    want.sort_unstable();
    have.sort_unstable();
    // The cursor only means anything for the query it was taken from —
    // resuming it under another target or source set would silently
    // answer the old question.
    if cp.target != c || want != have {
        let g = ds.hierarchy();
        let names = |cs: &[Category]| cs.iter().map(|&x| g.name(x)).collect::<Vec<_>>().join(", ");
        return Err(CheckpointError::malformed(format!(
            "checkpoint is for {} from {{{}}}, but {} from {{{}}} was requested",
            g.name(cp.target),
            names(&cp.sources),
            g.name(c),
            names(s),
        )));
    }
    Ok(())
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

    /// Runs the battery of the query `c` from `s` from `resume`'s decided
    /// prefix (or from the start); an interrupted outcome carries the
    /// checkpoint to resume from.
    pub(crate) fn run_query(
        &self,
        gov: &mut Governor,
        jobs: usize,
        c: Category,
        s: &[Category],
        resume: Option<&BatteryCheckpoint>,
    ) -> SummarizabilityOutcome {
        let (first, base) = resume.map_or((0, SearchStats::default()), |cp| (cp.next, cp.stats.clone()));
        let (mut out, prefix) = self.run(gov, jobs, first, base);
        out.checkpoint = prefix.map(|(next, stats)| BatteryCheckpoint {
            fingerprint: implication::schema_fingerprint(self.ds),
            options_key: options_key(&self.opts),
            target: c,
            sources: s.to_vec(),
            next,
            stats,
        });
        out
    }

    /// Runs the constraints from `first` on (those before it are proved
    /// implied, at a cost of `base`). The outcome's stats include an
    /// interrupted query's partial counters; on an interrupt the second
    /// value is the decided prefix — the first undecided constraint and
    /// the counters of the decided ones before it, which is what a
    /// checkpoint carries since resume re-runs that query in full.
    fn run(
        &self,
        gov: &mut Governor,
        jobs: usize,
        first: usize,
        base: SearchStats,
    ) -> (SummarizabilityOutcome, Option<(usize, SearchStats)>) {
        let n = self.constraints.len();
        let decide = |i: usize, gov: &mut Governor| self.decide(&self.constraints[i], gov);
        let ran = match self.plan {
            Some(p) => {
                let order = p.order.iter().copied().filter(move |&i| i >= first);
                run_items(gov, jobs, n, order, "theorem1_battery", decide)
            }
            None => run_items(gov, jobs, n, first..n, "theorem1_battery", decide),
        };
        let mut items = ran.items;
        let mut stats = base.clone();
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
        let prefix = matches!(verdict, SummarizabilityVerdict::Unknown(_)).then(|| {
            // An alias is decided once its canonical (always an earlier
            // constraint) is.
            let mut implied = vec![false; n];
            for k in 0..n {
                let alias = self.plan.and_then(|p| p.alias_of[k]);
                implied[k] = k < first
                    || matches!(items[k], Some(Answer::Implied(_)))
                    || alias.is_some_and(|j| implied[j]);
            }
            let next = implied.iter().position(|&d| !d).unwrap_or(n);
            let mut decided = base;
            for a in items[..next].iter().flatten() {
                decided.absorb(a.stats());
            }
            (next, decided)
        });
        let outcome = SummarizabilityOutcome {
            verdict,
            failing_bottom,
            counterexample,
            stats,
            checkpoint: None,
        };
        (outcome, prefix)
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
            .expect("nothing to resume")
    }

    /// The serial battery on `gov`.
    fn battery_on(
        ds: &DimensionSchema,
        c: Category,
        s: &[Category],
        gov: &mut Governor,
    ) -> SummarizabilityOutcome {
        is_summarizable_in_schema_run(ds, c, s, DimsatOptions::default(), Run::new(gov))
            .expect("nothing to resume")
    }

    /// Resumes `cp` serially on an unlimited governor.
    fn resume_with(
        ds: &DimensionSchema,
        cp: &BatteryCheckpoint,
        opts: DimsatOptions,
    ) -> Result<SummarizabilityOutcome, CheckpointError> {
        let mut gov = Governor::unlimited();
        let run = Run::new(&mut gov).resume(Some(cp));
        is_summarizable_in_schema_run(ds, cp.target, &cp.sources, opts, run)
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

    fn assert_battery_stats_match(a: &SearchStats, b: &SearchStats, ctx: &str) {
        assert_eq!(a.expand_calls, b.expand_calls, "expand_calls {ctx}");
        assert_eq!(a.check_calls, b.check_calls, "check_calls {ctx}");
        assert_eq!(
            a.assignments_tested, b.assignments_tested,
            "assignments_tested {ctx}"
        );
        assert_eq!(a.struct_clones, b.struct_clones, "struct_clones {ctx}");
    }

    #[test]
    fn battery_resume_merges_to_uninterrupted_verdict() {
        use crate::checkpoint::load_battery_checkpoint;
        let ds = tri_bottom_sch();
        let target = cat(&ds, "Country");
        let sources = [cat(&ds, "City")];
        let clean =
            is_summarizable_in_schema(&ds, target, &sources);
        assert_eq!(
            summarizability_constraints(ds.hierarchy(), target, &sources).len(),
            3,
            "three bottoms, three battery items"
        );
        let mut mid_battery = false;
        for limit in 1..3000u64 {
            let mut gov = Governor::new(
                Budget::unlimited().with_node_limit(limit),
                CancelToken::new(),
            );
            let partial = battery_on(&ds, target, &sources, &mut gov);
            if !partial.is_unknown() {
                assert_eq!(partial.verdict, clean.verdict);
                break;
            }
            let cp = partial.checkpoint.expect("interrupted battery checkpoints");
            if cp.next > 0 {
                mid_battery = true;
            }
            // Through the text form, like a real restart would.
            let cp = load_battery_checkpoint(&ds, &cp.to_text()).expect("roundtrip");
            let merged = resume_with(&ds, &cp, DimsatOptions::default())
                .expect("same schema resumes");
            assert_eq!(merged.verdict, clean.verdict, "limit={limit}");
            assert_battery_stats_match(&merged.stats, &clean.stats, &format!("limit={limit}"));
        }
        assert!(mid_battery, "no budget interrupted past the first item");
    }

    #[test]
    fn battery_resume_refuses_other_schema_or_options() {
        let ds = tri_bottom_sch();
        let target = cat(&ds, "Country");
        let sources = [cat(&ds, "City")];
        let mut gov = Governor::new(
            Budget::unlimited().with_node_limit(4),
            CancelToken::new(),
        );
        let partial = battery_on(&ds, target, &sources, &mut gov);
        let cp = partial.checkpoint.expect("tiny budget interrupts");
        let other = location_sch();
        assert!(matches!(
            resume_with(&other, &cp, DimsatOptions::default()),
            Err(odc_govern::CheckpointError::FingerprintMismatch { .. })
        ));
        assert!(matches!(
            resume_with(&ds, &cp, DimsatOptions::default().without_trail()),
            Err(odc_govern::CheckpointError::Malformed(_))
        ));
        // The cursor only means anything for the query it was taken from.
        let mut gov = Governor::unlimited();
        let other_query = Run::new(&mut gov).resume(Some(&cp));
        assert!(matches!(
            is_summarizable_in_schema_run(
                &ds,
                cat(&ds, "Region"),
                &sources,
                DimsatOptions::default(),
                other_query,
            ),
            Err(odc_govern::CheckpointError::Malformed(_))
        ));
    }

    #[test]
    fn parallel_battery_resume_matches_serial_verdict() {
        use crate::checkpoint::load_battery_checkpoint;
        let ds = tri_bottom_sch();
        let target = cat(&ds, "Country");
        let sources = [cat(&ds, "City")];
        let clean = is_summarizable_in_schema(&ds, target, &sources);
        let mut resumed_any = false;
        for limit in (1..3000u64).step_by(7) {
            let budget = Budget::unlimited().with_node_limit(limit);
            let gov = Governor::new(budget, CancelToken::new());
            let partial = battery_jobs(&ds, target, &sources, gov, 3);
            if !partial.is_unknown() {
                continue;
            }
            let Some(cp) = partial.checkpoint else {
                continue;
            };
            let cp = load_battery_checkpoint(&ds, &cp.to_text()).expect("roundtrip");
            let merged = resume_with(&ds, &cp, DimsatOptions::default())
                .expect("same schema resumes");
            assert_eq!(merged.verdict, clean.verdict, "limit={limit}");
            assert_battery_stats_match(&merged.stats, &clean.stats, &format!("limit={limit}"));
            resumed_any = true;
        }
        assert!(resumed_any, "no budget produced a resumable parallel battery");
    }
}
