//! Design-stage schema advice.
//!
//! The paper's conclusion argues that dimension constraints are "helpful
//! in the design stage of data cubes": the semantic information in `Σ`
//! lets a tool audit a schema before any data is loaded. This module
//! packages the audits the reasoning machinery makes possible:
//!
//! * **unsatisfiable categories** — dead weight that "can be dropped from
//!   the schema, providing a cleaner representation of the data";
//! * **redundant constraints** — members of `Σ` implied by the rest
//!   (removing them changes nothing);
//! * **structure census** — the frozen dimensions of each bottom
//!   category, i.e. how many homogeneous populations the schema mixes;
//! * **summarizability matrix** — for each pair of categories, whether
//!   the finer one's view can rebuild the coarser one's.
//!
//! [`audit_run`] is the one driver: the four stages run in sequence
//! under one [`Run`] — serial or over worker threads, unplanned or
//! through the battery planner, cold or on caller-owned warm state — and
//! all draw from one governed budget. Each stage is one loop over its
//! items through [`odc_govern::run_items`]. An interrupted audit returns
//! a partial-but-sound report *plus* an [`AuditCheckpoint`]: the
//! stage-granular cursor a later `audit_run` resumes from, re-running
//! only the first undecided item of the interrupted stage (and, for a
//! sweep interrupt, resuming the sweep's own frame-granular cursor).
//! [`audit`] is the paper-level call; [`audit_planned`],
//! [`audit_planned_governed`], [`audit_planned_memo`] and
//! [`audit_parallel`] are one-line wrappers over [`audit_run`].

use crate::checkpoint::{load_battery_checkpoint, AuditCheckpoint, AuditStage};
use crate::theorem1::{
    check_battery_checkpoint, summarizability_constraints, Battery, Shortcuts,
    SummarizabilityVerdict, WitnessPools,
};
use odc_constraint::{Constraint, DimensionConstraint, DimensionSchema};
use odc_dimsat::{
    implication, AuditItem, CacheSession, Dimsat, DimsatOptions, ImplicationCache, ItemAnswer,
    ItemCache, Run, SearchStats, SweepCheckpoint,
};
use odc_govern::{
    run_items, Budget, CancelToken, CheckpointError, Flow, Governor, Interrupt, InterruptReason,
};
use odc_hierarchy::{Category, HierarchySchema};
use odc_obs::PlanEvent;
use odc_plan::{PlanStats, SchemaPlan, SharedFacts};
use std::sync::atomic::{AtomicU64, Ordering};

/// The advisor's findings.
#[derive(Debug, Clone, Default)]
pub struct SchemaReport {
    /// Categories with no frozen dimension (no instance can populate
    /// them).
    pub unsatisfiable: Vec<Category>,
    /// Indices into `Σ` of constraints implied by the remaining ones.
    pub redundant_constraints: Vec<usize>,
    /// Per bottom category: how many distinct frozen-dimension structures
    /// it mixes (1 = homogeneous population).
    pub structure_census: Vec<(Category, usize)>,
    /// Pairs `(coarse, fine)` such that `coarse` is summarizable from
    /// `{fine}` — the safe single-view rewrites.
    pub safe_rewrites: Vec<(Category, Category)>,
    /// Categories the satisfiability sweep did not reach before the
    /// budget ran out. Empty when the sweep completed.
    pub undecided_categories: Vec<Category>,
    /// Categories whose solve aborted on a structural limit (fan-out
    /// overflow) during the sweep: undecidable by this engine regardless
    /// of budget, reported with the reason and never re-tried on resume.
    pub aborted_categories: Vec<(Category, InterruptReason)>,
    /// Accumulated DIMSAT counters over every decided audit query.
    pub stats: SearchStats,
    /// Set when the audit's budget ran out: the fields above hold
    /// whatever was proved before the interrupt (a partial report, not a
    /// wrong one).
    pub interrupted: Option<Interrupt>,
    /// On an interrupted audit: the stage-granular cursor to resume from
    /// (`Run::resume` in [`audit_run`]).
    pub checkpoint: Option<AuditCheckpoint>,
}

impl SchemaReport {
    /// Renders the report with category names.
    pub fn render(&self, ds: &DimensionSchema) -> String {
        let g = ds.hierarchy();
        let mut out = String::new();
        out.push_str(&format!(
            "unsatisfiable categories: {}\n",
            if self.unsatisfiable.is_empty() {
                "none".to_string()
            } else {
                self.unsatisfiable
                    .iter()
                    .map(|&c| g.name(c))
                    .collect::<Vec<_>>()
                    .join(", ")
            }
        ));
        out.push_str(&format!(
            "redundant constraints: {}\n",
            if self.redundant_constraints.is_empty() {
                "none".to_string()
            } else {
                self.redundant_constraints
                    .iter()
                    .map(|&i| {
                        format!(
                            "[{i}] {}",
                            odc_constraint::printer::display_dc(g, &ds.constraints()[i])
                        )
                    })
                    .collect::<Vec<_>>()
                    .join("; ")
            }
        ));
        for &(c, n) in &self.structure_census {
            out.push_str(&format!("bottom {} mixes {} structure(s)\n", g.name(c), n));
        }
        for &(coarse, fine) in &self.safe_rewrites {
            out.push_str(&format!(
                "safe rewrite: {} ← {{{}}}\n",
                g.name(coarse),
                g.name(fine)
            ));
        }
        for &(c, r) in &self.aborted_categories {
            out.push_str(&format!(
                "category {} aborted ({r:?}): structurally unexplorable\n",
                g.name(c)
            ));
        }
        if let Some(i) = &self.interrupted {
            out.push_str(&format!("audit interrupted ({i}); report is partial\n"));
            if !self.undecided_categories.is_empty() {
                out.push_str(&format!(
                    "categories not audited: {}\n",
                    self.undecided_categories
                        .iter()
                        .map(|&c| g.name(c))
                        .collect::<Vec<_>>()
                        .join(", ")
                ));
            }
            if self.checkpoint.is_some() {
                out.push_str("a resume checkpoint is available\n");
            }
        }
        out
    }
}

/// The (coarse, fine) pairs the rewrite matrix examines, in the fixed
/// order every audit reports them in.
pub fn rewrite_pairs(g: &HierarchySchema) -> Vec<(Category, Category)> {
    let mut pairs = Vec::new();
    for fine in g.categories() {
        for coarse in g.categories() {
            if fine == coarse || !g.reaches(fine, coarse) || fine.is_all() {
                continue;
            }
            pairs.push((coarse, fine));
        }
    }
    pairs
}

/// Runs every audit with no resource limits. Cost: a few DIMSAT queries
/// per category pair — intended for design-time use on schema-sized
/// inputs.
pub fn audit(ds: &DimensionSchema) -> SchemaReport {
    let mut gov = Governor::unlimited();
    drive(ds, Run::new(&mut gov))
}

/// The audit's one driver: the four stages in sequence under `run`, all
/// drawing from its one budget.
///
/// * Unplanned, every stage runs its items in their reporting order.
/// * Planned (`run.plan`), the sweep runs biggest region first with
///   witness sharing, the redundancy battery is deduped and cost-ordered
///   ([`SchemaPlan`]), the census doubles as witness-pool construction, and
///   the rewrites matrix is answered from the pools (Theorem-2 batching)
///   and the shared facts, with a real solve as the fallback. The audit
///   emits one `schema_audit` plan event. Stats legitimately differ from
///   an unplanned run (fewer solves is the point).
/// * With `run.jobs > 1` each stage's items are spread over workers
///   (batteries `category_sweep`, `redundancy`, `structure_census`,
///   `summarizability_matrix`, one `worker_finished` event per worker).
/// * `run.session` answers the rewrites matrix's repeated implications
///   through a memo-cache.
/// * `run.cache` answers every item it holds before any solver state is
///   built and is told every item decided, also by a worker past an
///   interrupt. An interrupted census or rewrite item leaves its cursor
///   there as a pending record, and the next run resumes that item from
///   it. Planned, cached sweep and census answers go into the shared
///   facts; a cached census has a count but no witness pool, so the
///   rewrites that would use its pool solve instead.
///
/// Findings are reported in the same order in every mode, so complete
/// runs render byte-identically. An interrupt yields a partial-but-sound
/// report with [`SchemaReport::interrupted`] set and a decided-prefix
/// [`AuditCheckpoint`]: `run.resume` continues it in any mode, seeding
/// completed stages from the recorded findings, re-running the
/// interrupted stage from its first undecided item (a sweep interrupt
/// resumes the sweep's own cursor), and running later stages normally.
/// A checkpoint from another schema is refused.
pub fn audit_run(
    ds: &DimensionSchema,
    run: Run<'_, AuditCheckpoint>,
) -> Result<SchemaReport, CheckpointError> {
    if let Some(cp) = run.resume {
        CheckpointError::check_fingerprint(cp.fingerprint, implication::schema_fingerprint(ds))?;
    }
    drive_checked(ds, run)
}

/// [`audit`] through the planner on a caller's governor, with a
/// run-local memo-cache behind the rewrites matrix.
pub fn audit_planned_governed(ds: &DimensionSchema, gov: &mut Governor) -> SchemaReport {
    let cache = ImplicationCache::for_schema(ds);
    drive(ds, Run::new(gov).planned(true).session(cache.begin_session()))
}

/// [`audit_planned_governed`] with no resource limits.
pub fn audit_planned(ds: &DimensionSchema) -> SchemaReport {
    let mut gov = Governor::unlimited();
    audit_planned_governed(ds, &mut gov)
}

/// [`audit_planned_governed`] through caller-owned warm state: the
/// memo-cache, the precomputed per-schema plan, and the shared-fact
/// scratchpad (a resident server keeps all three in its catalog entry,
/// so repeated audits of one schema re-plan nothing and re-prove no
/// category's satisfiability).
pub fn audit_planned_memo(
    ds: &DimensionSchema,
    gov: &mut Governor,
    cache: &ImplicationCache,
    sp: &SchemaPlan,
    facts: &SharedFacts,
) -> SchemaReport {
    drive(
        ds,
        Run::new(gov)
            .planned(true)
            .session(cache.begin_session())
            .warm(sp, facts),
    )
}

/// The unplanned audit over `jobs` workers under `budget`, with a
/// run-local memo-cache behind the rewrites matrix: the from-scratch
/// reference planned audits are compared against.
pub fn audit_parallel(
    ds: &DimensionSchema,
    budget: Budget,
    cancel: &CancelToken,
    jobs: usize,
) -> SchemaReport {
    let mut gov = Governor::new(budget, cancel.clone());
    let cache = ImplicationCache::for_schema(ds);
    drive(ds, Run::new(&mut gov).jobs(jobs).session(cache.begin_session()))
}

/// An audit with nothing to resume (so nothing to refuse).
fn drive(ds: &DimensionSchema, run: Run<'_, AuditCheckpoint>) -> SchemaReport {
    drive_checked(ds, run).unwrap_or_default()
}

/// [`audit_run`] past the fingerprint check; an embedded sweep cursor
/// is still checked when the sweep resumes.
fn drive_checked(
    ds: &DimensionSchema,
    run: Run<'_, AuditCheckpoint>,
) -> Result<SchemaReport, CheckpointError> {
    let Run {
        gov,
        jobs,
        plan,
        session,
        schema_plan,
        facts,
        cache,
        resume,
    } = run;
    let local_plan;
    let sp = match (plan, schema_plan) {
        (false, _) => None,
        (true, Some(sp)) => Some(sp),
        (true, None) => {
            local_plan = SchemaPlan::for_schema(ds);
            Some(&local_plan)
        }
    };
    let local_facts;
    let facts = match (plan, facts) {
        (false, _) => None,
        (true, Some(f)) => Some(f),
        (true, None) => {
            local_facts = SharedFacts::new(ds.hierarchy().num_categories());
            Some(&local_facts)
        }
    };
    let hits_before = facts.map(SharedFacts::hits);
    let mut audit = Audit {
        ds,
        solver: Dimsat::new(ds),
        jobs,
        sp,
        facts,
        session,
        cache,
        batched: AtomicU64::new(0),
        plan: PlanStats::default(),
        report: SchemaReport::default(),
        decided: SearchStats::default(),
    };
    if let Some(cp) = resume {
        audit.seed(cp);
    }
    let stages = audit.run(gov, resume);
    if let (Some(f), Some(before)) = (facts, hits_before) {
        // Fact hits are tallied from the shared scratchpad (the sweep,
        // census, and rewrites shortcuts all record into it), batched
        // answers from the pool evaluation counter.
        let p = audit.plan;
        gov.obs().plan(&PlanEvent {
            battery: "schema_audit",
            queries: p.queries,
            deduped: p.deduped,
            reordered: p.reordered,
            fact_hits: f.hits().saturating_sub(before),
            batched: audit.batched.load(Ordering::Relaxed),
        });
    }
    stages?;
    Ok(audit.report)
}

/// One audit stage item as a worker returns it: the finding (`None`
/// when the item was interrupted) and the counters it cost.
type Item<F> = (Option<F>, SearchStats);

/// A cached `Redundant` or `Rewrite` answer as the finding; another
/// answer shape is a miss.
fn holds(answer: ItemAnswer) -> Option<bool> {
    match answer {
        ItemAnswer::Holds => Some(true),
        ItemAnswer::Fails(_) => Some(false),
        _ => None,
    }
}

/// The state of one audit run.
struct Audit<'a> {
    ds: &'a DimensionSchema,
    solver: Dimsat<'a>,
    jobs: usize,
    /// The schema's plan; `Some` exactly when the run is planned.
    sp: Option<&'a SchemaPlan>,
    /// The shared facts; `Some` exactly when the run is planned.
    facts: Option<&'a SharedFacts>,
    session: Option<CacheSession<'a>>,
    cache: Option<&'a dyn ItemCache>,
    /// Rewrite-matrix answers taken from the census pools.
    batched: AtomicU64,
    plan: PlanStats,
    report: SchemaReport,
    /// Counters of fully decided items only: what a checkpoint carries,
    /// so interrupted-plus-resumed totals equal an uninterrupted run's.
    decided: SearchStats,
}

impl Audit<'_> {
    /// Seeds the report with a checkpoint's findings.
    fn seed(&mut self, cp: &AuditCheckpoint) {
        let r = &mut self.report;
        r.unsatisfiable = cp.unsatisfiable.clone();
        r.aborted_categories = cp.aborted.clone();
        r.redundant_constraints = cp.redundant.clone();
        r.structure_census = cp.census.clone();
        r.safe_rewrites = cp.rewrites.clone();
        r.stats = cp.stats.clone();
        self.decided = cp.stats.clone();
        // Proved-unsatisfiable categories keep deciding the later
        // stages' shortcuts.
        if let Some(f) = self.facts {
            for &c in &cp.unsatisfiable {
                f.note_unsat(c);
            }
        }
    }

    /// The stages from the resume point on; stops at the first interrupt.
    fn run(
        &mut self,
        gov: &mut Governor,
        resume: Option<&AuditCheckpoint>,
    ) -> Result<(), CheckpointError> {
        let (start, next) = resume.map_or((AuditStage::Sweep, 0), |cp| (cp.stage, cp.next));
        let first = |stage: AuditStage| if stage == start { next } else { 0 };
        let sweep_cursor = resume.and_then(|cp| cp.sweep.as_ref());
        if start == AuditStage::Sweep && !self.sweep(gov, sweep_cursor)? {
            return Ok(());
        }
        if start <= AuditStage::Redundancy && !self.redundancy(gov, first(AuditStage::Redundancy)) {
            return Ok(());
        }
        let mut pools = WitnessPools::new();
        if start <= AuditStage::Census && !self.census(gov, first(AuditStage::Census), &mut pools) {
            return Ok(());
        }
        self.rewrites(gov, first(AuditStage::Rewrites), &pools);
        Ok(())
    }

    /// Stage 1: the unsatisfiable-category sweep. Returns whether the
    /// audit goes on.
    fn sweep(
        &mut self,
        gov: &mut Governor,
        resume: Option<&SweepCheckpoint>,
    ) -> Result<bool, CheckpointError> {
        if self.sp.is_some() {
            let cats = self.ds.hierarchy().categories().filter(|c| !c.is_all());
            self.plan.queries += cats.count() as u64;
        }
        let sweep = self.solver.unsatisfiable_categories_run(Run {
            gov,
            jobs: self.jobs,
            plan: self.sp.is_some(),
            session: None,
            schema_plan: self.sp,
            facts: self.facts,
            cache: self.cache,
            resume,
        })?;
        self.report.stats.absorb(&sweep.stats);
        self.decided.absorb(&sweep.stats);
        let cursor = self.solver.sweep_checkpoint(&sweep);
        self.report.unsatisfiable = sweep.unsat;
        self.report.undecided_categories = sweep.undecided;
        self.report.aborted_categories = sweep.aborted;
        match sweep.interrupted {
            Some(i) => {
                self.interrupt(AuditStage::Sweep, 0, i, cursor);
                Ok(false)
            }
            None => Ok(true),
        }
    }

    /// Stage 2: a constraint σ is redundant iff (G, Σ \ {σ}) ⊨ σ.
    /// Planned, only execution is reordered; verdicts are reported (and
    /// checkpointed) in constraint order. σ_i ≡ σ_j after normalization
    /// ⇒ the two reduced schemas are logically equivalent, so an alias
    /// copies its canonical's verdict once that is decided.
    fn redundancy(&mut self, gov: &mut Governor, first: usize) -> bool {
        let ds = self.ds;
        let cs = ds.constraints();
        let (plan, cache) = (self.sp.map(|sp| &sp.battery), self.cache);
        let store = |i: usize, implied: bool| {
            if let Some(k) = cache {
                let answer = if implied { ItemAnswer::Holds } else { ItemAnswer::Fails(None) };
                k.put(ds, AuditItem::Redundant(i), answer);
            }
        };
        let redundant = |i: usize, gov: &mut Governor| {
            if let Some(v) = cache.and_then(|k| k.get(ds, AuditItem::Redundant(i))).and_then(holds) {
                return ((Some(v), SearchStats::default()), Flow::Next);
            }
            let mut rest: Vec<DimensionConstraint> = cs.to_vec();
            rest.remove(i);
            let reduced = DimensionSchema::new(ds.hierarchy_arc(), rest);
            let opts = DimsatOptions::default();
            let out = implication::implies_governed(&reduced, &cs[i], opts, gov);
            if out.interrupt().is_none() {
                store(i, out.implied());
            }
            let flow = out.interrupt().map_or(Flow::Next, Flow::Stop);
            ((out.interrupt().is_none().then(|| out.implied()), out.stats), flow)
        };
        let (jobs, n) = (self.jobs, cs.len());
        let mut ran = match plan {
            Some(p) => {
                self.plan.queries += p.stats.queries;
                self.plan.deduped += p.stats.deduped;
                self.plan.reordered += p.stats.reordered;
                let order = p.order.iter().copied().filter(move |&i| i >= first);
                run_items(gov, jobs, n, order, "redundancy", redundant)
            }
            None => run_items(gov, jobs, n, first..n, "redundancy", redundant),
        };
        if let Some(p) = plan {
            for k in first..cs.len() {
                let Some(j) = p.alias_of[k] else { continue };
                let canonical = if j < first {
                    Some(self.report.redundant_constraints.contains(&j))
                } else {
                    ran.items[j].as_ref().and_then(|(v, _)| *v)
                };
                if let Some(v) = canonical {
                    ran.items[k] = Some((canonical, SearchStats::default()));
                    if cache.is_some_and(|c| c.get(ds, AuditItem::Redundant(k)).is_none()) {
                        store(k, v);
                    }
                }
            }
        }
        for (k, item) in ran.items.iter().enumerate() {
            if matches!(item, Some((Some(true), _))) {
                self.report.redundant_constraints.push(k);
            }
        }
        self.close(AuditStage::Redundancy, &ran.items, first, ran.interrupt)
    }

    /// Stage 3: the per-bottom structure census. Planned, it doubles as
    /// witness-pool construction, and a bottom the sweep proved
    /// unsatisfiable has zero frozen dimensions by definition — its
    /// census entry (and empty pool) is free.
    fn census(&mut self, gov: &mut Governor, first: usize, pools: &mut WitnessPools) -> bool {
        let bottoms = bottom_categories(self.ds.hierarchy());
        let (ds, solver, sp, facts, cache) = (self.ds, &self.solver, self.sp, self.facts, self.cache);
        if sp.is_some() {
            self.plan.queries += bottoms.len() as u64;
        }
        let n = bottoms.len();
        // A finding is the count plus, when enumerated here, the pool.
        let mut ran = run_items(gov, self.jobs, n, first..n, "structure_census", |i, gov| {
            let c = bottoms[i];
            let item = AuditItem::Census(c);
            if let Some(ItemAnswer::Count(n)) = cache.and_then(|k| k.get(ds, item)) {
                if let Some(f) = facts {
                    if n == 0 {
                        f.note_unsat(c);
                    } else {
                        f.note_sat(c);
                    }
                }
                return ((Some((n, None)), SearchStats::default()), Flow::Next);
            }
            let store = |n: usize| {
                if let Some(k) = cache {
                    k.put(ds, item, ItemAnswer::Count(n));
                }
            };
            if let (Some(sp), Some(f)) = (sp, facts) {
                if !sp.exposed.contains(c) && f.known_unsat(c) {
                    f.record_hit();
                    store(0);
                    return ((Some((0, Some(Vec::new()))), SearchStats::default()), Flow::Next);
                }
            }
            let resumed = cache
                .and_then(|k| k.pending(ds, item))
                .and_then(|text| solver.load_checkpoint(&text).ok())
                .filter(|cp| cp.root == c && !cp.stop_at_first)
                .and_then(|cp| solver.resume_governed(&cp, gov).ok());
            let (frozen, out) = match resumed {
                Some(r) => r,
                None => solver.enumerate_frozen_governed(c, gov),
            };
            if let Some(e) = out.interrupted {
                if let (Some(k), Some(cp)) = (cache, &out.checkpoint) {
                    k.put_pending(ds, item, cp.to_text());
                }
                return ((None, out.stats), Flow::Stop(e));
            }
            store(frozen.len());
            if let Some(f) = facts {
                if frozen.is_empty() {
                    f.note_unsat(c);
                }
            }
            ((Some((frozen.len(), Some(frozen))), out.stats), Flow::Next)
        });
        for (k, item) in ran.items.iter_mut().enumerate() {
            if let Some((Some((count, pool)), _)) = item {
                self.report.structure_census.push((bottoms[k], *count));
                if let (Some(_), Some(pool)) = (sp, pool.take()) {
                    pools.insert(bottoms[k], pool);
                }
            }
        }
        self.close(AuditStage::Census, &ran.items, first, ran.interrupt)
    }

    /// Stage 4: safe single-view rewrites coarse ← {fine}, one Theorem-1
    /// battery per pair (see [`rewrite_pairs`]). Planned, each battery
    /// answers from the shared facts and census pools where soundness
    /// allows; its verdict matches the unplanned battery's.
    fn rewrites(&mut self, gov: &mut Governor, first: usize, pools: &WitnessPools) {
        let g = self.ds.hierarchy();
        let pairs = rewrite_pairs(g);
        let shortcuts = match (self.sp, self.facts) {
            (Some(sp), Some(facts)) => {
                self.plan.queries += (pairs.len() * bottom_categories(g).len()) as u64;
                Some(Shortcuts {
                    facts,
                    pools,
                    exposed: &sp.exposed,
                    batched: &self.batched,
                })
            }
            _ => None,
        };
        let (ds, session, cache) = (self.ds, self.session, self.cache);
        let n = pairs.len();
        let ran = run_items(gov, self.jobs, n, first..n, "summarizability_matrix", |i, gov| {
            let (coarse, fine) = pairs[i];
            let item = AuditItem::Rewrite(coarse, fine);
            if let Some(v) = cache.and_then(|k| k.get(ds, item)).and_then(holds) {
                return ((Some(v), SearchStats::default()), Flow::Next);
            }
            let constraints = summarizability_constraints(g, coarse, &[fine]);
            let opts = DimsatOptions::default();
            let battery = Battery {
                ds,
                constraints: &constraints,
                opts,
                session,
                plan: None,
                shortcuts: shortcuts.as_ref(),
            };
            // The audit checkpoints whole batteries; an item cache keeps
            // the battery's own cursor as the pair's pending record.
            let pending = cache
                .and_then(|k| k.pending(ds, item))
                .and_then(|text| load_battery_checkpoint(ds, &text).ok())
                .filter(|cp| check_battery_checkpoint(ds, cp, coarse, &[fine], &opts).is_ok());
            let out = battery.run_query(gov, 1, coarse, &[fine], pending.as_ref());
            let answer = match out.verdict {
                SummarizabilityVerdict::Summarizable => ItemAnswer::Holds,
                SummarizabilityVerdict::NotSummarizable => ItemAnswer::Fails(out.failing_bottom),
                SummarizabilityVerdict::Unknown(e) => {
                    if let (Some(k), Some(cp)) = (cache, &out.checkpoint) {
                        k.put_pending(ds, item, cp.to_text());
                    }
                    return ((None, out.stats), Flow::Stop(e));
                }
            };
            if let Some(k) = cache {
                k.put(ds, item, answer);
            }
            ((Some(answer == ItemAnswer::Holds), out.stats), Flow::Next)
        });
        for (k, item) in ran.items.iter().enumerate() {
            if matches!(item, Some((Some(true), _))) {
                self.report.safe_rewrites.push(pairs[k]);
            }
        }
        self.close(AuditStage::Rewrites, &ran.items, first, ran.interrupt);
    }

    /// Closes a stage whose findings are in the report: every run item's
    /// counters go into the report, the decided prefix's into `decided`,
    /// and an interrupt is recorded with the checkpoint of the first
    /// undecided item at or after `first`. Returns whether the audit goes
    /// on.
    fn close<F>(
        &mut self,
        stage: AuditStage,
        items: &[Option<Item<F>>],
        first: usize,
        interrupt: Option<(usize, Interrupt)>,
    ) -> bool {
        let decided = |k: usize| matches!(items[k], Some((Some(_), _)));
        let next = (first..items.len()).find(|&k| !decided(k)).unwrap_or(items.len());
        for (k, item) in items.iter().enumerate() {
            if let Some((_, stats)) = item {
                self.report.stats.absorb(stats);
                if k < next {
                    self.decided.absorb(stats);
                }
            }
        }
        match interrupt {
            Some((_, e)) => {
                self.interrupt(stage, next, e, None);
                false
            }
            None => true,
        }
    }

    /// Records an interrupt in `stage` with the audit's decided-prefix
    /// checkpoint: earlier stages' findings in full, this stage's items
    /// before `next` (results other workers proved beyond it re-run on
    /// resume, keeping merged totals identical to a clean run), later
    /// stages empty.
    fn interrupt(
        &mut self,
        stage: AuditStage,
        next: usize,
        intr: Interrupt,
        sweep: Option<SweepCheckpoint>,
    ) {
        let r = &self.report;
        let done = |s: AuditStage| s < stage;
        let pairs = if stage == AuditStage::Rewrites {
            rewrite_pairs(self.ds.hierarchy())
        } else {
            Vec::new()
        };
        let checkpoint = AuditCheckpoint {
            fingerprint: implication::schema_fingerprint(self.ds),
            stage,
            next,
            // The sweep's partial counters live inside its own embedded
            // cursor; the audit-level record starts empty so resume does
            // not double-count them.
            stats: if done(AuditStage::Sweep) {
                self.decided.clone()
            } else {
                SearchStats::default()
            },
            unsatisfiable: if done(AuditStage::Sweep) {
                r.unsatisfiable.clone()
            } else {
                Vec::new()
            },
            aborted: if done(AuditStage::Sweep) {
                r.aborted_categories.clone()
            } else {
                Vec::new()
            },
            redundant: r
                .redundant_constraints
                .iter()
                .copied()
                .filter(|&i| {
                    done(AuditStage::Redundancy) || (stage == AuditStage::Redundancy && i < next)
                })
                .collect(),
            census: match stage {
                AuditStage::Census => r.structure_census.iter().copied().take(next).collect(),
                _ if done(AuditStage::Census) => r.structure_census.clone(),
                _ => Vec::new(),
            },
            rewrites: r
                .safe_rewrites
                .iter()
                .copied()
                .filter(|p| pairs.iter().take(next).any(|q| q == p))
                .collect(),
            sweep,
        };
        self.report.interrupted = Some(intr);
        self.report.checkpoint = Some(checkpoint);
    }
}

/// The bottom categories the census and the Theorem-1 batteries range
/// over.
fn bottom_categories(g: &HierarchySchema) -> Vec<Category> {
    g.bottom_categories()
        .into_iter()
        .filter(|c| !c.is_all())
        .collect()
}

/// Suggests a minimal constraint tightening: for each bottom category and
/// each schema edge out of it that no frozen dimension uses, propose the
/// negative into constraint `¬c_c'` (documenting dead edges); for each
/// edge used by *every* frozen dimension, propose the into constraint
/// `c_c'` (making the invariant explicit, which also speeds DIMSAT up).
pub fn suggest_into_constraints(ds: &DimensionSchema) -> Vec<DimensionConstraint> {
    let g = ds.hierarchy();
    let solver = Dimsat::new(ds);
    let mut suggestions = Vec::new();
    let existing: Vec<(Category, Category)> = ds.into_constraints();
    for c in g.categories() {
        if c.is_all() {
            continue;
        }
        let (frozen, _) = solver.enumerate_frozen(c);
        if frozen.is_empty() {
            continue;
        }
        for &p in g.parents(c) {
            if existing.contains(&(c, p)) {
                continue;
            }
            let used = frozen
                .iter()
                .filter(|f| f.subhierarchy().has_edge(c, p))
                .count();
            if used == frozen.len() {
                suggestions.push(DimensionConstraint::new(c, Constraint::path(vec![c, p])));
            }
        }
    }
    suggestions
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_constraint::parse_constraint;
    use odc_govern::{Budget, CancelToken};
    use std::collections::BTreeSet;
    use std::sync::Arc;

    /// The audit on a caller's governor.
    fn audit_on(ds: &DimensionSchema, gov: &mut Governor) -> SchemaReport {
        audit_run(ds, Run::new(gov)).expect("nothing to resume")
    }

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

    #[test]
    fn clean_schema_audits_clean() {
        let ds = location_sch();
        let report = audit(&ds);
        assert!(report.unsatisfiable.is_empty());
        assert!(report.redundant_constraints.is_empty(), "Σ is minimal");
        let g = ds.hierarchy();
        let store = g.category_by_name("Store").unwrap();
        assert_eq!(report.structure_census, vec![(store, 4)]);
        let city = g.category_by_name("City").unwrap();
        let country = g.category_by_name("Country").unwrap();
        assert!(report.safe_rewrites.contains(&(country, city)));
        assert!(report.stats.expand_calls > 0, "audit stats accumulate");
        assert!(report.checkpoint.is_none());
        let rendered = report.render(&ds);
        assert!(rendered.contains("mixes 4 structure(s)"));
    }

    #[test]
    fn detects_unsatisfiable_category() {
        let ds = location_sch();
        let g = ds.hierarchy();
        let ds2 = ds.with_constraint(parse_constraint(g, "!SaleRegion_Country").unwrap());
        let report = audit(&ds2);
        let sr = g.category_by_name("SaleRegion").unwrap();
        assert!(report.unsatisfiable.contains(&sr));
        // Store dies too: constraint (b) forces it to reach SaleRegion,
        // whose members cannot exist.
        assert!(report.render(&ds2).contains("SaleRegion"));
    }

    #[test]
    fn detects_redundant_constraint() {
        let ds = location_sch();
        let g = ds.hierarchy();
        // Store.City expands to exactly Store_City (the only Store→City
        // path is the direct edge), so the new constraint and the
        // original are *mutually* redundant — either could be dropped.
        let ds2 = ds.with_constraint(parse_constraint(g, "Store.City").unwrap());
        let report = audit(&ds2);
        assert_eq!(report.redundant_constraints, vec![0, 7]);
    }

    #[test]
    fn suggests_universal_into_edges() {
        let ds = location_sch();
        let g = ds.hierarchy();
        let suggestions = suggest_into_constraints(&ds);
        // Country→All is in every frozen dimension of every category, and
        // is not yet an explicit into constraint.
        let country = g.category_by_name("Country").unwrap();
        assert!(suggestions
            .iter()
            .any(|dc| dc.as_into() == Some((country, Category::ALL))));
        // Store_City is already explicit: not suggested again.
        let store = g.category_by_name("Store").unwrap();
        let city = g.category_by_name("City").unwrap();
        assert!(!suggestions
            .iter()
            .any(|dc| dc.as_into() == Some((store, city))));
        // Suggestions are genuinely implied (they can be added without
        // changing the schema's models).
        for dc in &suggestions {
            assert!(implication::implies(&ds, dc).implied());
        }
    }

    #[test]
    fn parallel_audit_matches_serial() {
        let ds = location_sch();
        let serial = audit(&ds);
        for jobs in [1, 2, 4] {
            let par = audit_parallel(&ds, Budget::unlimited(), &CancelToken::new(), jobs);
            assert_eq!(par.unsatisfiable, serial.unsatisfiable, "jobs={jobs}");
            assert_eq!(
                par.redundant_constraints, serial.redundant_constraints,
                "jobs={jobs}"
            );
            assert_eq!(par.structure_census, serial.structure_census, "jobs={jobs}");
            assert_eq!(par.safe_rewrites, serial.safe_rewrites, "jobs={jobs}");
            assert!(par.interrupted.is_none());
        }
    }

    #[test]
    fn interrupted_audit_reports_undecided_categories() {
        let ds = location_sch();
        // Walk the node budget up until the sweep gets past at least one
        // category but not all of them; the report must name the rest.
        let mut saw_partial = false;
        for limit in 1..2000u64 {
            let mut gov = Governor::new(
                Budget::unlimited().with_node_limit(limit),
                CancelToken::new(),
            );
            let report = audit_on(&ds, &mut gov);
            if report.interrupted.is_none() {
                break;
            }
            if !report.undecided_categories.is_empty()
                && report.undecided_categories.len() < ds.hierarchy().num_categories()
            {
                saw_partial = true;
                let rendered = report.render(&ds);
                assert!(rendered.contains("report is partial"));
                assert!(rendered.contains("categories not audited"));
            }
        }
        assert!(saw_partial, "no budget produced a partially-decided sweep");
    }

    #[test]
    fn suggestions_speed_up_dimsat() {
        let ds = location_sch();
        let mut tightened = ds.clone();
        for dc in suggest_into_constraints(&ds) {
            tightened = tightened.with_constraint(dc);
        }
        let g = ds.hierarchy();
        let store = g.category_by_name("Store").unwrap();
        let (f1, before) = Dimsat::new(&ds).enumerate_frozen(store);
        let (f2, after) = Dimsat::new(&tightened).enumerate_frozen(store);
        assert_eq!(f1.len(), f2.len(), "tightening must not change the models");
        assert!(
            after.stats.expand_calls <= before.stats.expand_calls,
            "more into constraints, no more work"
        );
    }

    /// Asserts every counter except `elapsed` matches.
    fn assert_stats_match(a: &SearchStats, b: &SearchStats, ctx: &str) {
        assert_eq!(a.expand_calls, b.expand_calls, "expand_calls {ctx}");
        assert_eq!(a.check_calls, b.check_calls, "check_calls {ctx}");
        assert_eq!(
            a.assignments_tested, b.assignments_tested,
            "assignments_tested {ctx}"
        );
        assert_eq!(a.frozen_found, b.frozen_found, "frozen_found {ctx}");
        assert_eq!(a.struct_clones, b.struct_clones, "struct_clones {ctx}");
    }

    #[test]
    fn audit_resume_merges_to_uninterrupted_report() {
        use crate::checkpoint::load_audit_checkpoint;
        let ds = location_sch();
        let clean = audit(&ds);
        let mut stages_seen = std::collections::BTreeSet::new();
        // Dense at the low end (the sweep and census stages are cheap and
        // only interrupt under tiny budgets), sparse across the long
        // rewrite matrix.
        for limit in (1..400u64).chain((400..30_000).step_by(137)) {
            let mut gov = Governor::new(
                Budget::unlimited().with_node_limit(limit),
                CancelToken::new(),
            );
            let partial = audit_on(&ds, &mut gov);
            let Some(cp) = partial.checkpoint else {
                assert!(partial.interrupted.is_none());
                continue;
            };
            stages_seen.insert(format!("{:?}", cp.stage));
            // Through the text form, like a real restart would.
            let cp = load_audit_checkpoint(&ds, &cp.to_text()).expect("roundtrip");
            let mut gov = Governor::unlimited();
            let merged = audit_run(&ds, Run::new(&mut gov).resume(Some(&cp)))
                .expect("same schema resumes");
            assert!(merged.interrupted.is_none(), "limit={limit}");
            assert_eq!(merged.unsatisfiable, clean.unsatisfiable, "limit={limit}");
            assert_eq!(
                merged.redundant_constraints, clean.redundant_constraints,
                "limit={limit}"
            );
            assert_eq!(
                merged.structure_census, clean.structure_census,
                "limit={limit}"
            );
            assert_eq!(merged.safe_rewrites, clean.safe_rewrites, "limit={limit}");
            assert_stats_match(&merged.stats, &clean.stats, &format!("limit={limit}"));
        }
        assert!(
            stages_seen.len() >= 3,
            "budget walk should interrupt several distinct stages, saw {stages_seen:?}"
        );
    }

    #[test]
    fn parallel_audit_resume_matches_clean_verdicts() {
        let ds = location_sch();
        let clean = audit(&ds);
        let mut resumed_any = false;
        for limit in (100..20_000u64).step_by(700) {
            let partial = audit_parallel(
                &ds,
                Budget::unlimited().with_node_limit(limit),
                &CancelToken::new(),
                4,
            );
            let Some(cp) = partial.checkpoint else {
                continue;
            };
            let mut gov = Governor::unlimited();
            let merged = audit_run(&ds, Run::new(&mut gov).jobs(4).resume(Some(&cp)))
                .expect("same schema resumes");
            assert!(merged.interrupted.is_none(), "limit={limit}");
            assert_eq!(merged.unsatisfiable, clean.unsatisfiable);
            assert_eq!(merged.redundant_constraints, clean.redundant_constraints);
            assert_eq!(merged.structure_census, clean.structure_census);
            assert_eq!(merged.safe_rewrites, clean.safe_rewrites);
            resumed_any = true;
        }
        assert!(resumed_any, "no budget produced a resumable parallel audit");
    }

    #[test]
    fn audit_resume_refuses_other_schema() {
        let ds = location_sch();
        let mut gov = Governor::new(
            Budget::unlimited().with_node_limit(50),
            CancelToken::new(),
        );
        let partial = audit_on(&ds, &mut gov);
        let cp = partial.checkpoint.expect("tiny budget interrupts");
        let g = ds.hierarchy();
        let ds2 = ds.with_constraint(parse_constraint(g, "!SaleRegion_Country").unwrap());
        let mut gov = Governor::unlimited();
        assert!(matches!(
            audit_run(&ds2, Run::new(&mut gov).resume(Some(&cp))),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn planned_audit_renders_identically_to_unplanned() {
        let ds = location_sch();
        let unplanned = audit(&ds);
        let planned = audit_planned(&ds);
        assert_eq!(
            planned.render(&ds),
            unplanned.render(&ds),
            "planned reordering must not change the report"
        );
        // The planner must have actually saved work: the Theorem-2 pools
        // answer rewrite queries the unplanned path solves one by one.
        assert!(
            planned.stats.expand_calls < unplanned.stats.expand_calls,
            "planned {} vs unplanned {} expand calls",
            planned.stats.expand_calls,
            unplanned.stats.expand_calls
        );
    }

    #[test]
    fn planned_parallel_audit_matches_unplanned() {
        let ds = location_sch();
        let serial = audit(&ds);
        for jobs in [1, 2, 4] {
            let mut gov = Governor::unlimited();
            let par = audit_run(&ds, Run::new(&mut gov).jobs(jobs).planned(true))
                .expect("nothing to resume");
            assert_eq!(par.render(&ds), serial.render(&ds), "jobs={jobs}");
            assert!(par.interrupted.is_none());
        }
    }

    #[test]
    fn planned_audit_on_broken_schema_matches_unplanned() {
        let ds = location_sch();
        let g = ds.hierarchy();
        let ds2 = ds.with_constraint(parse_constraint(g, "!SaleRegion_Country").unwrap());
        let unplanned = audit(&ds2);
        let planned = audit_planned(&ds2);
        assert_eq!(planned.render(&ds2), unplanned.render(&ds2));
        assert!(!planned.unsatisfiable.is_empty());
    }

    #[test]
    fn planned_audit_checkpoint_resumes_on_unplanned_path() {
        use crate::checkpoint::load_audit_checkpoint;
        let ds = location_sch();
        let clean = audit(&ds);
        let mut resumed_any = false;
        for limit in (1..400u64).chain((400..20_000).step_by(311)) {
            let mut gov = Governor::new(
                Budget::unlimited().with_node_limit(limit),
                CancelToken::new(),
            );
            let partial = audit_planned_governed(&ds, &mut gov);
            let Some(cp) = partial.checkpoint else {
                assert!(partial.interrupted.is_none());
                continue;
            };
            let cp = load_audit_checkpoint(&ds, &cp.to_text()).expect("roundtrip");
            let mut gov = Governor::unlimited();
            let merged = audit_run(&ds, Run::new(&mut gov).resume(Some(&cp)))
                .expect("same schema resumes");
            assert!(merged.interrupted.is_none(), "limit={limit}");
            assert_eq!(merged.unsatisfiable, clean.unsatisfiable, "limit={limit}");
            assert_eq!(
                merged.redundant_constraints, clean.redundant_constraints,
                "limit={limit}"
            );
            assert_eq!(
                merged.structure_census, clean.structure_census,
                "limit={limit}"
            );
            assert_eq!(merged.safe_rewrites, clean.safe_rewrites, "limit={limit}");
            resumed_any = true;
        }
        assert!(resumed_any, "no budget interrupted the planned audit");
    }

    /// An in-memory item cache that logs what the audit asks and stores.
    #[derive(Default)]
    struct FakeCache {
        answers: std::sync::Mutex<std::collections::HashMap<AuditItem, ItemAnswer>>,
        pending: std::sync::Mutex<std::collections::HashMap<AuditItem, String>>,
        puts: std::sync::Mutex<Vec<AuditItem>>,
        misses: std::sync::Mutex<Vec<AuditItem>>,
    }

    impl FakeCache {
        fn take(log: &std::sync::Mutex<Vec<AuditItem>>) -> BTreeSet<AuditItem> {
            std::mem::take(&mut *log.lock().unwrap()).into_iter().collect()
        }
    }

    impl ItemCache for FakeCache {
        fn get(&self, _: &DimensionSchema, item: AuditItem) -> Option<ItemAnswer> {
            let hit = self.answers.lock().unwrap().get(&item).copied();
            if hit.is_none() {
                self.misses.lock().unwrap().push(item);
            }
            hit
        }
        fn put(&self, _: &DimensionSchema, item: AuditItem, answer: ItemAnswer) {
            self.answers.lock().unwrap().insert(item, answer);
            self.pending.lock().unwrap().remove(&item);
            self.puts.lock().unwrap().push(item);
        }
        fn pending(&self, _: &DimensionSchema, item: AuditItem) -> Option<String> {
            self.pending.lock().unwrap().get(&item).cloned()
        }
        fn put_pending(&self, _: &DimensionSchema, item: AuditItem, cursor: String) {
            self.pending.lock().unwrap().insert(item, cursor);
        }
    }

    /// After an interrupted `jobs = 3` audit through an item cache, every
    /// item asked and not stored is one a worker was cut off in (at most
    /// one per worker), and the next attempt re-solves none of the
    /// stored ones.
    #[test]
    fn interrupted_parallel_audit_stores_every_decided_item() {
        let ds = location_sch();
        let clean = audit(&ds).render(&ds);
        let mut interrupted = 0;
        let planned = (1..3_000u64).step_by(23).map(|limit| (limit, true));
        let unplanned = (1..8_000u64).step_by(157).map(|limit| (limit, false));
        for (limit, plan) in planned.chain(unplanned) {
            let cache = FakeCache::default();
            let mut gov = Governor::new(
                Budget::unlimited().with_node_limit(limit),
                CancelToken::new(),
            );
            let run = Run::new(&mut gov).jobs(3).planned(plan).cache(&cache);
            let first = audit_run(&ds, run).expect("nothing to resume");
            let Some(cp) = first.checkpoint else {
                assert!(first.interrupted.is_none());
                continue;
            };
            interrupted += 1;
            let put = FakeCache::take(&cache.puts);
            let missed = FakeCache::take(&cache.misses);
            let cut: Vec<_> = missed.difference(&put).collect();
            assert!(cut.len() <= 3, "limit={limit}: undecided items {cut:?}");
            let mut gov = Governor::unlimited();
            let run = Run::new(&mut gov).jobs(3).planned(plan).cache(&cache);
            let second = audit_run(&ds, run.resume(Some(&cp))).expect("same schema resumes");
            assert_eq!(second.render(&ds), clean, "limit={limit}");
            let again = FakeCache::take(&cache.puts);
            assert!(again.is_disjoint(&put), "limit={limit}: re-solved {:?}", again.intersection(&put));
        }
        assert!(interrupted > 3, "the budget walk interrupted only {interrupted} audits");
    }

    /// Regression (bug: the serial CLI `check` ran every implication
    /// cold): repeating an audit through the same schema-fingerprinted
    /// memo-cache must answer repeated implications from the cache.
    #[test]
    fn repeated_memo_audit_hits_cache() {
        let ds = location_sch();
        let cache = ImplicationCache::for_schema(&ds);
        let mut gov = Governor::unlimited();
        let first = audit_run(&ds, Run::new(&mut gov).session(cache.begin_session()))
            .expect("nothing to resume");
        assert!(first.interrupted.is_none());
        let mut gov = Governor::unlimited();
        let second = audit_run(&ds, Run::new(&mut gov).session(cache.begin_session()))
            .expect("nothing to resume");
        assert!(
            second.stats.cache_hits > 0,
            "second audit through the same cache must reuse memoized implications"
        );
        assert_eq!(second.render(&ds), first.render(&ds));
    }
}
