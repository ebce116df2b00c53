//! The DIMSAT search (Figure 6), governed by a resource [`Budget`].

use crate::checkpoint::{options_key, SolveCheckpoint, SweepCheckpoint, SOLVE_KIND, SWEEP_KIND};
use crate::options::{DimsatOptions, TopOrder};
use crate::run::{AuditItem, ItemAnswer, Run};
use crate::stats::SearchStats;
use crate::trace::TraceEvent;
use odc_constraint::DimensionSchema;
use odc_frozen::{FrozenContext, FrozenDimension};
use odc_govern::{
    run_items, Budget, CancelToken, CheckpointEnvelope, CheckpointError, Flow, Governor,
    Interrupt, InterruptReason,
};
use odc_hierarchy::{CatSet, Category, EdgeUndo, HierarchySchema, Subhierarchy};
use odc_obs::{next_solve_id, Obs, PruneReason, SolveCounters, SolveEnd, SolveStart};
use odc_plan::SharedFacts;
use std::collections::VecDeque;
use std::sync::OnceLock;
use std::time::Duration;

/// The three-valued answer of a governed satisfiability run.
///
/// A witness found before the budget ran out is still a proof — `Sat` is
/// returned even on interrupted runs (the interrupt is reported separately
/// in [`DimsatOutcome::interrupted`]). `Unknown` means the search was cut
/// short before either proving or refuting satisfiability.
#[derive(Debug, Clone)]
pub enum Verdict {
    /// The query category is satisfiable; here is a frozen dimension
    /// witnessing it (decision mode returns the first one found).
    Sat(FrozenDimension),
    /// The search space was exhausted without finding a witness.
    Unsat,
    /// The search was interrupted (deadline, node/check limit, recursion
    /// depth, or cancellation) before reaching a conclusion.
    Unknown(Interrupt),
}

impl Verdict {
    /// `true` iff the verdict is `Sat`.
    pub fn is_sat(&self) -> bool {
        matches!(self, Verdict::Sat(_))
    }

    /// `true` iff the verdict is `Unsat`.
    pub fn is_unsat(&self) -> bool {
        matches!(self, Verdict::Unsat)
    }

    /// `true` iff the verdict is `Unknown`.
    pub fn is_unknown(&self) -> bool {
        matches!(self, Verdict::Unknown(_))
    }
}

/// The result of one DIMSAT run.
#[derive(Debug, Clone)]
pub struct DimsatOutcome {
    /// Sat with a witness, Unsat, or Unknown with the interrupt.
    pub verdict: Verdict,
    /// Set when the run stopped early. In enumeration mode the verdict may
    /// still be `Sat` (witnesses found before the interrupt) while the
    /// enumeration itself is incomplete.
    pub interrupted: Option<Interrupt>,
    /// Search counters (populated even on interrupted runs, so partial
    /// work is reported, not discarded).
    pub stats: SearchStats,
    /// Execution trace (empty unless [`DimsatOptions::trace`] was set).
    pub trace: Vec<TraceEvent>,
    /// The resumable enumeration cursor, recorded when the run was
    /// interrupted by anything except a structural
    /// [`InterruptReason::FanoutOverflow`] (which retrying cannot fix).
    /// Feed it to [`Dimsat::resume`] to continue exactly where the
    /// search stopped.
    pub checkpoint: Option<SolveCheckpoint>,
}

impl DimsatOutcome {
    /// Whether satisfiability was *proved* (a witness exists). `false`
    /// covers both Unsat and Unknown — check [`Self::is_unknown`] when the
    /// run was budgeted.
    pub fn is_sat(&self) -> bool {
        self.verdict.is_sat()
    }

    /// Whether unsatisfiability was proved (full space explored, no
    /// witness).
    pub fn is_unsat(&self) -> bool {
        self.verdict.is_unsat()
    }

    /// Whether the run ended without an answer.
    pub fn is_unknown(&self) -> bool {
        self.verdict.is_unknown()
    }

    /// The witnessing frozen dimension, when the verdict is `Sat`.
    pub fn witness(&self) -> Option<&FrozenDimension> {
        match &self.verdict {
            Verdict::Sat(w) => Some(w),
            _ => None,
        }
    }

    /// Consumes the outcome, yielding the witness when `Sat`.
    pub fn into_witness(self) -> Option<FrozenDimension> {
        match self.verdict {
            Verdict::Sat(w) => Some(w),
            _ => None,
        }
    }

    /// The interrupt that ended the run early, if any (set both for
    /// `Unknown` verdicts and for interrupted-but-answered runs).
    pub fn interrupt(&self) -> Option<Interrupt> {
        self.interrupted
    }
}

/// The report of an unsatisfiable-category sweep.
///
/// An interrupted sweep is *partial*, not void: `unsat` carries every
/// category proved unsatisfiable before the interrupt, `decided` counts
/// the categories settled either way, and `undecided` lists the ones the
/// sweep never reached. A complete sweep has `interrupted == None` and an
/// empty `undecided`.
#[derive(Debug, Clone, Default)]
pub struct CategorySweep {
    /// Categories proved unsatisfiable (schema order).
    pub unsat: Vec<Category>,
    /// Categories proved satisfiable (schema order).
    pub sat: Vec<Category>,
    /// How many categories were decided (satisfiable or not).
    pub decided: usize,
    /// Categories left unsettled when the sweep stopped (schema order).
    pub undecided: Vec<Category>,
    /// Categories whose solve hit a structural limit (fan-out overflow):
    /// undecided *with a reason*, permanently — the sweep continues past
    /// them, and they are excluded from resume candidates because
    /// retrying cannot enumerate an unenumerable node.
    pub aborted: Vec<(Category, InterruptReason)>,
    /// The interrupt that cut the sweep short, if any. Structural aborts
    /// do not set this — only budget/cancellation interrupts do.
    pub interrupted: Option<Interrupt>,
    /// Search counters accumulated over the decided and aborted
    /// categories (the mid-solve category's partial counters live in
    /// [`CategorySweep::checkpoint`], so interrupted-plus-resumed totals
    /// match an uninterrupted sweep's).
    pub stats: SearchStats,
    /// Cursor of the category that was mid-solve when the sweep was
    /// interrupted, when one was recorded (a parallel sweep keeps the
    /// lowest-index interrupted category's).
    pub checkpoint: Option<SolveCheckpoint>,
}

impl CategorySweep {
    /// Whether every category of the schema was decided. Aborted
    /// categories do not count against completeness: they are final
    /// (structurally undecidable by this solver), not pending.
    pub fn is_complete(&self) -> bool {
        self.interrupted.is_none() && self.undecided.is_empty()
    }
}

/// One category's verdict in a sweep, kept in an index cell so
/// out-of-(schema-)order execution still assembles a schema-order report.
enum Cell {
    Sat,
    Unsat,
    /// Structural abort (fan-out overflow): final, the sweep went on.
    Aborted(InterruptReason),
    /// Budget/cancellation interrupt; carries the mid-solve cursor
    /// (boxed: the cursor dwarfs the other variants).
    Undecided(Option<Box<SolveCheckpoint>>),
}

impl Cell {
    /// A cached `Sat` item's cell; another answer shape is a miss.
    fn cached(answer: ItemAnswer) -> Option<Cell> {
        match answer {
            ItemAnswer::Sat => Some(Cell::Sat),
            ItemAnswer::Unsat => Some(Cell::Unsat),
            ItemAnswer::Aborted(r) => Some(Cell::Aborted(r)),
            _ => None,
        }
    }

    /// The answer a decided cell stores.
    fn answer(&self) -> Option<ItemAnswer> {
        match self {
            Cell::Sat => Some(ItemAnswer::Sat),
            Cell::Unsat => Some(ItemAnswer::Unsat),
            Cell::Aborted(r) => Some(ItemAnswer::Aborted(*r)),
            Cell::Undecided(_) => None,
        }
    }
}

/// The DIMSAT solver: category satisfiability over a dimension schema.
pub struct Dimsat<'a> {
    ds: &'a DimensionSchema,
    opts: DimsatOptions,
    budget: Budget,
    cancel: CancelToken,
    obs: Obs,
    hb_interval: Option<Duration>,
    /// Schema fingerprint for `solve_start` events, computed once per
    /// solver (it is O(schema) and would otherwise be paid per solve).
    fingerprint: OnceLock<u64>,
}

impl<'a> Dimsat<'a> {
    /// A solver with default options (all heuristics enabled) and no
    /// resource limits.
    pub fn new(ds: &'a DimensionSchema) -> Self {
        Self::with_options(ds, DimsatOptions::default())
    }

    /// A solver with explicit options.
    pub fn with_options(ds: &'a DimensionSchema, opts: DimsatOptions) -> Self {
        Dimsat {
            ds,
            opts,
            budget: Budget::unlimited(),
            cancel: CancelToken::new(),
            obs: Obs::none(),
            hb_interval: None,
            fingerprint: OnceLock::new(),
        }
    }

    /// Restricts every subsequent query to a resource budget.
    pub fn with_budget(mut self, budget: Budget) -> Self {
        self.budget = budget;
        self
    }

    /// Attaches a cancellation token (pollable from another thread).
    pub fn with_cancel_token(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Attaches a structured-event observer. Every governor this solver
    /// mints inherits it, so solve lifecycles, prunes, backtracks, CHECK
    /// outcomes, and budget heartbeats all reach the sink.
    pub fn with_observer(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self
    }

    /// Sets the heartbeat spacing on minted governors (see
    /// [`Governor::with_heartbeat_interval`]).
    pub fn with_heartbeat_interval(mut self, interval: Duration) -> Self {
        self.hb_interval = Some(interval);
        self
    }

    /// A fresh [`Governor`] for this solver's budget, token, and
    /// observer. Each query method calls this internally; batch drivers
    /// that want one budget across many queries build it once and use the
    /// `_governed` variants.
    pub fn governor(&self) -> Governor {
        self.governor_with_budget(self.budget)
    }

    /// A fresh [`Governor`] with an explicit budget (the anytime driver
    /// escalates budgets across resume attempts without rebuilding the
    /// solver).
    pub fn governor_with_budget(&self, budget: Budget) -> Governor {
        let mut gov = Governor::new(budget, self.cancel.clone()).with_observer(self.obs.clone());
        if let Some(interval) = self.hb_interval {
            gov = gov.with_heartbeat_interval(interval);
        }
        gov
    }

    /// The schema fingerprint, computed once per solver (it is O(schema)
    /// and stamps both `solve_start` events and checkpoints).
    pub fn schema_fp(&self) -> u64 {
        *self
            .fingerprint
            .get_or_init(|| crate::implication::schema_fingerprint(self.ds))
    }

    /// Parses a [`SolveCheckpoint`] from its text form, validating the
    /// envelope version, kind, and schema fingerprint against this
    /// solver's schema.
    pub fn load_checkpoint(&self, text: &str) -> Result<SolveCheckpoint, CheckpointError> {
        let env = CheckpointEnvelope::parse(text)?;
        let payload = env.expect(SOLVE_KIND, self.schema_fp())?;
        SolveCheckpoint::decode(payload, env.fingerprint, self.ds.hierarchy().num_categories())
    }

    /// Parses a [`SweepCheckpoint`] from its text form, validating the
    /// envelope against this solver's schema.
    pub fn load_sweep_checkpoint(&self, text: &str) -> Result<SweepCheckpoint, CheckpointError> {
        let env = CheckpointEnvelope::parse(text)?;
        let payload = env.expect(SWEEP_KIND, self.schema_fp())?;
        SweepCheckpoint::decode(payload, env.fingerprint, self.ds.hierarchy().num_categories())
    }

    /// Continues an interrupted solve from its checkpoint under a fresh
    /// governor minted from this solver's budget. The resumed run replays
    /// the recorded decision stack without re-ticking the governor or
    /// re-counting statistics, then searches on: its outcome (verdict,
    /// enumeration, merged [`SearchStats`]) is what the uninterrupted run
    /// would have produced — or a fresh checkpoint if it, too, was
    /// interrupted.
    pub fn resume(
        &self,
        cp: &SolveCheckpoint,
    ) -> Result<(Vec<FrozenDimension>, DimsatOutcome), CheckpointError> {
        let mut gov = self.governor();
        self.resume_governed(cp, &mut gov)
    }

    /// [`Self::resume`] under a caller-supplied governor.
    pub fn resume_governed(
        &self,
        cp: &SolveCheckpoint,
        gov: &mut Governor,
    ) -> Result<(Vec<FrozenDimension>, DimsatOutcome), CheckpointError> {
        self.check_cursor(cp.fingerprint, &cp.options_key)?;
        Ok(self.execute_inner(cp.root, cp.stop_at_first, gov, Some(cp)))
    }

    /// Decides whether `c` is satisfiable in the schema (DIMSAT(ds, c)),
    /// stopping at the first frozen dimension found.
    pub fn category_satisfiable(&self, c: Category) -> DimsatOutcome {
        let mut gov = self.governor();
        self.category_satisfiable_governed(c, &mut gov)
    }

    /// [`Self::category_satisfiable`] under a caller-supplied governor
    /// (shared budget across a batch of queries).
    pub fn category_satisfiable_governed(&self, c: Category, gov: &mut Governor) -> DimsatOutcome {
        self.run(c, true, gov)
    }

    /// Enumerates every inducing subhierarchy rooted at `c` (one
    /// witnessing frozen dimension per subhierarchy) — the Figure 4 view
    /// of a schema. On an interrupted run the vector holds the frozen
    /// dimensions found so far and [`DimsatOutcome::interrupted`] is set.
    pub fn enumerate_frozen(&self, c: Category) -> (Vec<FrozenDimension>, DimsatOutcome) {
        let mut gov = self.governor();
        self.enumerate_frozen_governed(c, &mut gov)
    }

    /// [`Self::enumerate_frozen`] under a caller-supplied governor.
    pub fn enumerate_frozen_governed(
        &self,
        c: Category,
        gov: &mut Governor,
    ) -> (Vec<FrozenDimension>, DimsatOutcome) {
        self.execute(c, false, gov)
    }

    /// Checks every category of the schema, returning the unsatisfiable
    /// ones (the paper suggests dropping them for "a cleaner
    /// representation of the data"). The whole sweep shares one governor;
    /// on an interrupt the report keeps every category decided so far and
    /// lists the rest as undecided — partial work is never discarded.
    pub fn unsatisfiable_categories(&self) -> CategorySweep {
        let mut gov = self.governor();
        // With no checkpoint to validate there is no refusal path.
        self.unsatisfiable_categories_run(Run::new(&mut gov))
            .unwrap_or_default()
    }

    /// The sweep's one driver: every category decided under `run`.
    ///
    /// Unplanned, categories run in schema order. Planned, they run
    /// biggest region first (see [`odc_plan::sweep_order`]) with
    /// shared-fact warm starts: a satisfiable verdict comes with a
    /// frozen-dimension witness whose restriction to any category it
    /// contains is itself a witness, so one solve can settle many later
    /// queries through the facts. Overflow-exposed categories (see
    /// [`odc_plan::overflow_exposed`]) are never answered from facts, so
    /// structural aborts surface identically. With `run.jobs > 1` the
    /// workers take the order in stripes.
    ///
    /// Verdicts are assembled in schema order whatever the execution
    /// order, so every complete sweep reports the same. A fan-out
    /// overflow with the governor still healthy is a *structural* abort:
    /// the category is recorded as undecided-with-reason and the sweep
    /// goes on. On a budget interrupt the lowest-index interrupted
    /// category's cursor is kept ([`Self::sweep_checkpoint`] packages
    /// it).
    ///
    /// `run.cache` answers each category it holds before any solve (a
    /// planned run notes the answer in the shared facts) and is told
    /// every category the sweep decides.
    ///
    /// `run.resume` carries decided and aborted verdicts forward and
    /// resumes the mid-solve category exactly where it stopped; a
    /// checkpoint from another schema or other options is refused.
    pub fn unsatisfiable_categories_run(
        &self,
        run: Run<'_, SweepCheckpoint>,
    ) -> Result<CategorySweep, CheckpointError> {
        let g = self.ds.hierarchy();
        let cats: Vec<Category> = g.categories().filter(|c| !c.is_all()).collect();
        let mut carried: Vec<Option<Cell>> = (0..cats.len()).map(|_| None).collect();
        let mut sweep = CategorySweep::default();
        let mut inner = None;
        if let Some(cp) = run.resume {
            self.check_cursor(cp.fingerprint, &cp.options_key)?;
            if let Some(i) = &cp.inner {
                self.check_cursor(i.fingerprint, &i.options_key)?;
            }
            for (cell, c) in carried.iter_mut().zip(&cats) {
                *cell = if cp.sat.contains(c) {
                    Some(Cell::Sat)
                } else if cp.unsat.contains(c) {
                    Some(Cell::Unsat)
                } else {
                    cp.aborted
                        .iter()
                        .find(|(a, _)| a == c)
                        .map(|&(_, r)| Cell::Aborted(r))
                };
            }
            sweep.stats = cp.stats.clone();
            inner = cp.inner.as_ref();
        }
        let local_facts;
        let facts = match (run.plan, run.facts) {
            (false, _) => None,
            (true, Some(f)) => Some(f),
            (true, None) => {
                local_facts = SharedFacts::new(g.num_categories());
                Some(&local_facts)
            }
        };
        let exposed = run.plan.then(|| odc_plan::overflow_exposed(g));
        let order: Vec<usize> = if run.plan {
            let mut pos = vec![usize::MAX; g.num_categories()];
            for (i, &c) in cats.iter().enumerate() {
                pos[c.index()] = i;
            }
            odc_plan::sweep_order(g).iter().map(|c| pos[c.index()]).collect()
        } else {
            (0..cats.len()).collect()
        };
        let order = order.into_iter().filter(|&i| carried[i].is_none());
        // One category the item cache did not answer: from the shared
        // facts when planned, else solved (resuming `inner` when it is
        // this category's cursor).
        let decide = |c: Category, gov: &mut Governor| {
            if let (Some(f), Some(exposed)) = (facts, &exposed) {
                let known = if exposed.contains(c) {
                    None
                } else if f.known_sat(c) {
                    Some(Cell::Sat)
                } else if f.known_unsat(c) {
                    Some(Cell::Unsat)
                } else {
                    None
                };
                if let Some(cell) = known {
                    f.record_hit();
                    return ((cell, SearchStats::default()), Flow::Next);
                }
            }
            let out = match inner {
                Some(cp) if cp.root == c => {
                    self.execute_inner(c, cp.stop_at_first, gov, Some(cp)).1
                }
                _ => self.category_satisfiable_governed(c, gov),
            };
            match out.verdict {
                Verdict::Sat(w) => {
                    if let Some(f) = facts {
                        f.note_sat_set(w.subhierarchy().categories());
                    }
                    ((Cell::Sat, out.stats), Flow::Next)
                }
                Verdict::Unsat => {
                    if let Some(f) = facts {
                        f.note_unsat(c);
                    }
                    ((Cell::Unsat, out.stats), Flow::Next)
                }
                Verdict::Unknown(intr)
                    if intr.reason == InterruptReason::FanoutOverflow
                        && gov.interrupt().is_none() =>
                {
                    ((Cell::Aborted(intr.reason), out.stats), Flow::Next)
                }
                // The partial counters of this category travel in its
                // cursor, not in the sweep's stats: the resumed run
                // re-absorbs the category's *complete* stats, keeping
                // merged totals equal to an uninterrupted sweep's.
                Verdict::Unknown(intr) => (
                    (Cell::Undecided(out.checkpoint.map(Box::new)), SearchStats::default()),
                    Flow::Stop(intr),
                ),
            }
        };
        let (ds, cache) = (self.ds, run.cache);
        let ran = run_items(run.gov, run.jobs, cats.len(), order, "category_sweep", |i, gov| {
            let c = cats[i];
            let item = AuditItem::Sat(c);
            if let Some(cell) = cache.and_then(|k| k.get(ds, item)).and_then(Cell::cached) {
                if let Some(f) = facts {
                    match cell {
                        Cell::Sat => f.note_sat(c),
                        Cell::Unsat => f.note_unsat(c),
                        _ => {}
                    }
                }
                return ((cell, SearchStats::default()), Flow::Next);
            }
            let (item_out, flow) = decide(c, gov);
            if let (Some(k), Some(answer)) = (cache, item_out.0.answer()) {
                k.put(ds, item, answer);
            }
            (item_out, flow)
        });
        sweep.interrupted = ran.interrupt.map(|(_, e)| e);
        for (i, (&c, fresh)) in cats.iter().zip(ran.items).enumerate() {
            let cell = match fresh {
                Some((cell, stats)) => {
                    sweep.stats.absorb(&stats);
                    Some(cell)
                }
                None => carried[i].take(),
            };
            match cell {
                Some(Cell::Sat) => {
                    sweep.sat.push(c);
                    sweep.decided += 1;
                }
                Some(Cell::Unsat) => {
                    sweep.unsat.push(c);
                    sweep.decided += 1;
                }
                Some(Cell::Aborted(reason)) => sweep.aborted.push((c, reason)),
                Some(Cell::Undecided(cp)) => {
                    if ran.interrupt.is_some_and(|(j, _)| j == i) {
                        sweep.checkpoint = cp.map(|boxed| *boxed);
                    }
                    sweep.undecided.push(c);
                }
                None => sweep.undecided.push(c),
            }
        }
        Ok(sweep)
    }

    /// Refuses a cursor recorded against another schema or under other
    /// options (it would index a different exploration order).
    fn check_cursor(&self, fingerprint: u64, key: &str) -> Result<(), CheckpointError> {
        CheckpointError::check_fingerprint(fingerprint, self.schema_fp())?;
        let ours = options_key(&self.opts);
        if key != ours {
            return Err(CheckpointError::malformed(format!(
                "checkpoint was recorded under options '{key}' but this solver runs '{ours}' — \
                 the cursor indexes a different exploration order"
            )));
        }
        Ok(())
    }

    /// Packages an interrupted sweep into its resumable form. Returns
    /// `None` when the sweep completed (nothing to resume).
    pub fn sweep_checkpoint(&self, sweep: &CategorySweep) -> Option<SweepCheckpoint> {
        sweep.interrupted?;
        Some(SweepCheckpoint {
            fingerprint: self.schema_fp(),
            options_key: options_key(&self.opts),
            sat: sweep.sat.clone(),
            unsat: sweep.unsat.clone(),
            aborted: sweep.aborted.clone(),
            stats: sweep.stats.clone(),
            inner: sweep.checkpoint.clone(),
        })
    }

    fn run(&self, c: Category, stop_at_first: bool, gov: &mut Governor) -> DimsatOutcome {
        self.execute(c, stop_at_first, gov).1
    }

    fn execute(
        &self,
        c: Category,
        stop_at_first: bool,
        gov: &mut Governor,
    ) -> (Vec<FrozenDimension>, DimsatOutcome) {
        self.execute_inner(c, stop_at_first, gov, None)
    }

    /// The common body of decision, enumeration, and resume: one full
    /// DIMSAT activation, bracketed by `solve_start`/`solve_end` observer
    /// events when the governor carries a sink. With `resume`, the search
    /// is seeded with the checkpoint's decision stack, witnesses, and
    /// counters and replays to the recorded frontier without re-ticking
    /// the governor.
    fn execute_inner(
        &self,
        c: Category,
        stop_at_first: bool,
        gov: &mut Governor,
        resume: Option<&SolveCheckpoint>,
    ) -> (Vec<FrozenDimension>, DimsatOutcome) {
        let observed = gov.obs().enabled();
        let solve_id = if observed { next_solve_id() } else { 0 };
        if observed {
            let start = SolveStart {
                solve_id,
                root: self.ds.hierarchy().name(c).to_string(),
                schema_fingerprint: self.schema_fp(),
                mode: if stop_at_first { "decide" } else { "enumerate" },
                worker: gov.worker_id(),
                // Stamped by the server's request-tagging sink; a bare
                // solve has no request.
                request: None,
            };
            if let Some(o) = gov.obs().get() {
                o.solve_started(&start);
            }
        }
        let mut search = Search::new(self.ds, self.opts, c, stop_at_first, gov, solve_id);
        if let Some(cp) = resume {
            search.resume_cursor = cp.cursor.clone();
            search.found = cp.found.clone();
            search.stats = cp.stats.clone();
            search.assignments_base = cp.stats.assignments_tested;
            search.elapsed_base = cp.stats.elapsed;
        }
        search.expand(0);
        let stats = search.finish_stats();
        let interrupted = search.interrupt;
        let trace = std::mem::take(&mut search.trace);
        let found = std::mem::take(&mut search.found);
        let cursor = search.cursor_snapshot.take();
        let (redo_expand, redo_checks, redo_assignments) = (
            search.redo_expand,
            search.redo_checks,
            search.redo_assignments,
        );
        drop(search);
        let checkpoint = match interrupted {
            // A fan-out overflow is structural: no budget will ever get
            // the search past it, so there is nothing worth resuming.
            Some(i) if i.reason != InterruptReason::FanoutOverflow => {
                // The checkpoint's counters exclude the work the resumed
                // run will redo: the interrupted frame's expand tick and
                // any partially evaluated CHECK. Without this the
                // interrupted-plus-resumed totals would double-count the
                // re-executed frame.
                let mut cp_stats = stats.clone();
                cp_stats.expand_calls -= redo_expand;
                cp_stats.check_calls -= redo_checks;
                cp_stats.assignments_tested -= redo_assignments;
                Some(SolveCheckpoint {
                    fingerprint: self.schema_fp(),
                    root: c,
                    stop_at_first,
                    options_key: options_key(&self.opts),
                    cursor: cursor.unwrap_or_default(),
                    found: found.clone(),
                    stats: cp_stats,
                })
            }
            _ => None,
        };
        let verdict = match found.first().cloned() {
            Some(w) => Verdict::Sat(w),
            None => match interrupted {
                Some(i) => Verdict::Unknown(i),
                None => Verdict::Unsat,
            },
        };
        if observed {
            let end = SolveEnd {
                solve_id,
                verdict: match &verdict {
                    Verdict::Sat(_) => "sat",
                    Verdict::Unsat => "unsat",
                    Verdict::Unknown(_) => "unknown",
                },
                interrupt: interrupted.map(|i| i.to_string()),
                counters: solve_counters(&stats),
                request: None,
            };
            if let Some(o) = gov.obs().get() {
                o.solve_finished(&end);
            }
        }
        let outcome = DimsatOutcome {
            verdict,
            interrupted,
            stats,
            trace,
            checkpoint,
        };
        (found, outcome)
    }
}

/// Flattens a [`SearchStats`] into the dependency-free observer mirror.
pub fn solve_counters(stats: &SearchStats) -> SolveCounters {
    SolveCounters {
        expand_calls: stats.expand_calls,
        check_calls: stats.check_calls,
        dead_ends: stats.dead_ends,
        late_rejections: stats.late_rejections,
        assignments_tested: stats.assignments_tested,
        frozen_found: stats.frozen_found,
        struct_clones: stats.struct_clones,
        cache_hits: stats.cache_hits,
        cache_misses: stats.cache_misses,
        cache_collisions: stats.cache_collisions,
        elapsed_us: stats.elapsed.as_micros() as u64,
    }
}

/// One reversible mutation recorded on the backtracking trail. Popping
/// the trail back to a mark restores `sub`, `instar`, and `inn` exactly,
/// replacing the per-mask clone of all three structures.
enum TrailOp {
    /// An edge `child ↗' parent` added to `sub`, with its undo receipt.
    Edge {
        child: Category,
        parent: Category,
        undo: EdgeUndo,
    },
    /// `ctop` pushed onto `inn[parent]`.
    InnPush { parent: Category },
    /// One storage word of `instar[cat]` before a logged union.
    InstarWord { cat: u32, word: u32, old: u64 },
}

/// One recursion depth's working sets in [`Search::expand`], kept
/// across activations so that expanding a node allocates nothing once
/// the buffers have grown to the schema's fan-out.
struct Frame {
    /// `In*(ctop) ∪ {ctop}`: the delta every new edge pushes upward.
    delta: CatSet,
    /// Admissible parents of `ctop` (after cycle, shortcut and
    /// forbidden-parent pruning).
    s: Vec<Category>,
    /// Parents an into constraint forbids.
    forbidden: Vec<Category>,
    /// Parents an into constraint forces.
    into: Vec<Category>,
    /// Optional parents: `s` minus `into`.
    rest: Vec<Category>,
    /// The parent set of the current subset mask.
    r: Vec<Category>,
}

impl Frame {
    fn new(num_categories: usize) -> Frame {
        Frame {
            delta: CatSet::new(num_categories),
            s: Vec::new(),
            forbidden: Vec::new(),
            into: Vec::new(),
            rest: Vec::new(),
            r: Vec::new(),
        }
    }
}

struct Search<'a, 'g> {
    g: &'a HierarchySchema,
    opts: DimsatOptions,
    ctx: FrozenContext,
    gov: &'g mut Governor,
    sub: Subhierarchy,
    /// Frontier: categories of `sub` not yet expanded (never contains
    /// `All` — `g.Top = {All}` is represented by an empty frontier).
    top: VecDeque<Category>,
    /// `g.In*` of Figure 6: for each category, the set of categories that
    /// reach it within `sub` (maintained incrementally when
    /// [`DimsatOptions::incremental_instar`] is on).
    instar: Vec<CatSet>,
    /// In-neighbors within `sub` (companion to `instar` for the `Ss`
    /// shortcut test).
    inn: Vec<Vec<Category>>,
    /// Undo log for trail-based backtracking (empty when the legacy
    /// clone-and-restore kernel is selected).
    trail: Vec<TrailOp>,
    /// Reusable DFS stack for [`Search::propagate_instar`].
    prop_stack: Vec<Category>,
    /// Reusable working lists, one [`Frame`] per recursion depth.
    frames: Vec<Frame>,
    stats: SearchStats,
    trace: Vec<TraceEvent>,
    found: Vec<FrozenDimension>,
    stop_at_first: bool,
    stopped: bool,
    /// Sticky interrupt: once set, every activation unwinds promptly.
    interrupt: Option<Interrupt>,
    /// Observer correlation id (0 when no sink is attached).
    solve_id: u64,
    /// The subset mask each live frame is exploring (`decision_stack[d]`
    /// belongs to recursion depth `d`). Snapshotted into
    /// `cursor_snapshot` at the first interrupt.
    decision_stack: Vec<u64>,
    /// The decision stack at the moment of the first interrupt — the
    /// checkpoint cursor. The deepest (interrupted) frame is not on it:
    /// it had pushed no mask yet (interrupted at its top or inside its
    /// CHECK), so re-executing it from mask 0 is exact.
    cursor_snapshot: Option<Vec<u64>>,
    /// On a resumed run: the recorded cursor to replay. Frames with
    /// `depth < resume_cursor.len()` re-apply their recorded mask without
    /// ticking the governor or re-counting already-paid statistics.
    resume_cursor: Vec<u64>,
    /// Work the interrupted frame had already counted but will redo on
    /// resume (subtracted from the checkpoint's counters).
    redo_expand: u64,
    redo_checks: u64,
    redo_assignments: u64,
    /// Counter bases carried over from a resumed checkpoint:
    /// `finish_stats` adds the governor-local deltas on top.
    assignments_base: u64,
    elapsed_base: Duration,
}

impl<'a, 'g> Search<'a, 'g> {
    fn new(
        ds: &'a DimensionSchema,
        opts: DimsatOptions,
        root: Category,
        stop_at_first: bool,
        gov: &'g mut Governor,
        solve_id: u64,
    ) -> Self {
        let g = ds.hierarchy();
        let n = g.num_categories();
        let sub = Subhierarchy::new(root, n);
        let mut top = VecDeque::new();
        if !root.is_all() {
            top.push_back(root);
        }
        Search {
            g,
            opts,
            ctx: FrozenContext::new(ds, root),
            gov,
            sub,
            top,
            instar: vec![CatSet::new(n); n],
            inn: vec![Vec::new(); n],
            trail: Vec::new(),
            prop_stack: Vec::new(),
            frames: Vec::new(),
            stats: SearchStats::default(),
            trace: Vec::new(),
            found: Vec::new(),
            stop_at_first,
            stopped: false,
            interrupt: None,
            solve_id,
            decision_stack: Vec::new(),
            cursor_snapshot: None,
            resume_cursor: Vec::new(),
            redo_expand: 0,
            redo_checks: 0,
            redo_assignments: 0,
            assignments_base: 0,
            elapsed_base: Duration::ZERO,
        }
    }

    /// Adds `delta` to `In*(p)` and pushes it transitively upward. Under
    /// trail backtracking every changed `In*` word is logged first, so
    /// [`Search::undo_trail`] can restore the sets without a snapshot.
    fn propagate_instar(&mut self, p: Category, delta: &CatSet) {
        let mut stack = std::mem::take(&mut self.prop_stack);
        stack.clear();
        stack.push(p);
        while let Some(q) = stack.pop() {
            let qi = q.index();
            if delta.is_subset_of(&self.instar[qi]) {
                continue;
            }
            if self.opts.trail_backtracking {
                let (instar, trail) = (&mut self.instar[qi], &mut self.trail);
                instar.union_with_logged(delta, &mut |w, old| {
                    trail.push(TrailOp::InstarWord {
                        cat: qi as u32,
                        word: w as u32,
                        old,
                    });
                });
            } else {
                self.instar[qi].union_with(delta);
            }
            stack.extend(self.sub.parents(q).iter().copied());
        }
        self.prop_stack = stack;
    }

    /// Pops the trail back to `mark`, reversing every mutation since.
    fn undo_trail(&mut self, mark: usize) {
        while self.trail.len() > mark {
            let Some(op) = self.trail.pop() else { return };
            match op {
                TrailOp::Edge {
                    child,
                    parent,
                    undo,
                } => self.sub.undo_edge(child, parent, undo),
                TrailOp::InnPush { parent } => {
                    self.inn[parent.index()].pop();
                }
                TrailOp::InstarWord { cat, word, old } => {
                    self.instar[cat as usize].set_word(word as usize, old);
                }
            }
        }
    }

    fn finish_stats(&mut self) -> SearchStats {
        self.stats.assignments_tested = self.assignments_base + self.ctx.assignments_tested.get();
        self.stats.frozen_found = self.found.len() as u64;
        self.stats.elapsed = self.elapsed_base + self.gov.elapsed();
        self.stats.clone()
    }

    fn interrupted(&mut self, i: Interrupt) {
        if self.interrupt.is_none() {
            self.interrupt = Some(i);
            self.cursor_snapshot = Some(self.decision_stack.clone());
        }
    }

    /// One EXPAND activation: either the frontier is exhausted (complete
    /// subhierarchy → CHECK) or one frontier category is expanded with
    /// every admissible parent subset.
    fn expand(&mut self, depth: usize) {
        if self.frames.len() <= depth {
            let n = self.g.num_categories();
            self.frames.resize_with(depth + 1, || Frame::new(n));
        }
        // An empty frame holds no allocation.
        let mut f = std::mem::replace(&mut self.frames[depth], Frame::new(0));
        self.expand_in(depth, &mut f);
        self.frames[depth] = f;
    }

    /// The body of [`Search::expand`], working in the depth's [`Frame`].
    fn expand_in(&mut self, depth: usize, f: &mut Frame) {
        if self.stopped || self.interrupt.is_some() {
            return;
        }
        // Replay frames retrace a path the interrupted run already paid
        // for: no governor ticks, no re-counted statistics. The first
        // frame *past* the recorded cursor is live again.
        let replay = depth < self.resume_cursor.len();
        if !replay {
            if let Err(i) = self.gov.tick_node() {
                self.interrupted(i);
                return;
            }
            if let Err(i) = self.gov.guard_depth(depth) {
                self.interrupted(i);
                return;
            }
            self.stats.expand_calls += 1;
        }

        if self.top.is_empty() {
            self.complete();
            return;
        }

        // Choose ctop per the frontier discipline. The frontier is
        // non-empty here, so both disciplines yield a category.
        let Some(ctop) = (match self.opts.order {
            TopOrder::Lifo => self.top.pop_back(),
            TopOrder::Fifo => self.top.pop_front(),
        }) else {
            return;
        };

        let g = self.g;
        let out = g.parents(ctop);
        // Figure 6 lines 11–13: prune cycle- and shortcut-creating
        // parents.
        f.s.clear();
        if self.opts.eager_structure_pruning {
            for &c2 in out {
                if self.creates_cycle(ctop, c2) {
                    self.gov.obs().prune(self.solve_id, PruneReason::Cycle);
                } else if self.creates_shortcut(ctop, c2) {
                    self.gov.obs().prune(self.solve_id, PruneReason::Shortcut);
                } else {
                    f.s.push(c2);
                }
            }
        } else {
            f.s.extend_from_slice(out);
        }

        // Figure 6 lines 14–15: into constraints force parents. The dual
        // pruning drops *forbidden* parents (`¬(c_c')` in Σ): any choice
        // containing such an edge fails CHECK outright.
        f.into.clear();
        if self.opts.into_pruning {
            f.forbidden.clear();
            f.forbidden.extend(self.ctx.forbidden_parents_of(ctop));
            f.s.retain(|c2| !f.forbidden.contains(c2));
            f.into
                .extend(self.ctx.into_parents_of(ctop).filter(|p| out.contains(p)));
        }
        if !f.into.iter().all(|p| f.s.contains(p)) || f.s.is_empty() {
            self.stats.dead_ends += 1;
            self.gov.obs().prune(self.solve_id, PruneReason::IntoDeadEnd);
            self.restore_top(ctop);
            return;
        }

        f.rest.clear();
        f.rest
            .extend(f.s.iter().copied().filter(|c2| !f.into.contains(c2)));
        let rest = &f.rest;
        if rest.len() >= 63 {
            // The 2^|rest| fan-out does not fit the subset mask; treat the
            // node as unexplorable rather than overflowing the shift. This
            // is a structural limit, not budget exhaustion, and gets its
            // own interrupt reason so callers don't misattribute the stop.
            self.interrupted(Interrupt {
                reason: InterruptReason::FanoutOverflow,
                nodes: self.gov.nodes(),
                checks: self.gov.checks(),
            });
            self.restore_top(ctop);
            return;
        }
        // `In*(ctop) ∪ {ctop}`: the delta every new edge pushes upward.
        // Loop-invariant across the masks — adding parents to ctop never
        // changes `In*(ctop)`, since cycle pruning keeps ctop out of its
        // own ancestry — so it is computed once into the frame.
        if self.opts.incremental_instar {
            f.delta.copy_from(&self.instar[ctop.index()]);
            f.delta.insert(ctop);
        }
        let first_mask = if replay { self.resume_cursor[depth] } else { 0 };
        for mask in first_mask..(1u64 << rest.len()) {
            if self.stopped || self.interrupt.is_some() {
                break;
            }
            // Only the recorded mask itself is a replay step; its later
            // siblings are fresh work the interrupted run never reached.
            let replay_step = replay && mask == first_mask;
            let r = &mut f.r;
            r.clear();
            r.extend_from_slice(&f.into);
            for (i, &c2) in rest.iter().enumerate() {
                if mask & (1 << i) != 0 {
                    r.push(c2);
                }
            }
            let r = &f.r;
            if r.is_empty() {
                continue;
            }
            // Two parents where one already reaches the other would make
            // the edge to the farther one a shortcut (a case the paper's
            // Ss set misses; see the crate docs).
            if self.opts.eager_structure_pruning && self.r_internally_conflicting(r) {
                self.gov.obs().prune(self.solve_id, PruneReason::Shortcut);
                continue;
            }

            let trail_mark = self.trail.len();
            let saved_top_len = self.top.len();
            let saved = (!self.opts.trail_backtracking).then(|| {
                if !replay_step {
                    self.stats.struct_clones += 1;
                }
                let instar = self.opts.incremental_instar.then(|| {
                    if !replay_step {
                        self.stats.struct_clones += 2;
                    }
                    (self.instar.clone(), self.inn.clone())
                });
                (self.sub.clone(), instar)
            });
            for &p in r {
                if !self.sub.contains(p) && !p.is_all() {
                    self.top.push_back(p);
                }
                let undo = self.sub.add_edge_undoable(ctop, p);
                if self.opts.trail_backtracking {
                    self.trail.push(TrailOp::Edge {
                        child: ctop,
                        parent: p,
                        undo,
                    });
                }
                if self.opts.incremental_instar {
                    self.inn[p.index()].push(ctop);
                    if self.opts.trail_backtracking {
                        self.trail.push(TrailOp::InnPush { parent: p });
                    }
                    self.propagate_instar(p, &f.delta);
                }
            }
            if self.opts.trace && !replay_step {
                self.trace.push(TraceEvent::Expand {
                    ctop,
                    r: r.clone(),
                    g: self.sub.clone(),
                });
            }
            self.decision_stack.push(mask);
            self.expand(depth + 1);
            self.decision_stack.pop();
            if replay_step {
                // The recorded path below this frame is now consumed:
                // every later sibling (here and in ancestor frames) is
                // fresh work and must tick, count, and start at mask 0.
                self.resume_cursor.truncate(depth + 1);
            }
            match saved {
                Some((sub, instar)) => {
                    self.sub = sub;
                    if let Some((instar, inn)) = instar {
                        self.instar = instar;
                        self.inn = inn;
                    }
                }
                None => self.undo_trail(trail_mark),
            }
            self.top.truncate(saved_top_len);
        }
        if !self.stopped && self.interrupt.is_none() {
            if self.opts.trace {
                self.trace.push(TraceEvent::Backtrack { ctop });
            }
            self.gov.obs().backtrack(self.solve_id, depth as u32);
        }
        self.restore_top(ctop);
    }

    fn restore_top(&mut self, ctop: Category) {
        match self.opts.order {
            TopOrder::Lifo => self.top.push_back(ctop),
            TopOrder::Fifo => self.top.push_front(ctop),
        }
    }

    /// Would the edge `ctop → c2` close a cycle? (`Sc` of Figure 6.)
    fn creates_cycle(&self, ctop: Category, c2: Category) -> bool {
        if self.opts.incremental_instar {
            // c2 reaches ctop ⟺ c2 ∈ In*(ctop).
            self.instar[ctop.index()].contains(c2)
        } else {
            self.sub.contains(c2) && self.sub.has_path_between(c2, ctop)
        }
    }

    /// Would the edge `ctop → c2` complete a shortcut for an existing edge
    /// `d → c2` with `d` reaching `ctop`? (`Ss` of Figure 6.)
    fn creates_shortcut(&self, ctop: Category, c2: Category) -> bool {
        if self.opts.incremental_instar {
            self.inn[c2.index()]
                .iter()
                .any(|&d| d != ctop && self.instar[ctop.index()].contains(d))
        } else {
            self.sub
                .edges()
                .any(|(d, e)| e == c2 && d != ctop && self.sub.has_path_between(d, ctop))
        }
    }

    /// Would two parents of `r` shortcut each other (one reaches the
    /// other)?
    fn r_internally_conflicting(&self, r: &[Category]) -> bool {
        for (i, &a) in r.iter().enumerate() {
            for &b in &r[i + 1..] {
                if !self.sub.contains(a) || !self.sub.contains(b) {
                    continue;
                }
                let conflict = if self.opts.incremental_instar {
                    self.instar[b.index()].contains(a) || self.instar[a.index()].contains(b)
                } else {
                    self.sub.has_path_between(a, b) || self.sub.has_path_between(b, a)
                };
                if conflict {
                    return true;
                }
            }
        }
        false
    }

    /// Frontier exhausted: the subhierarchy is complete. Validate (safety
    /// net / generate-and-test mode) and run CHECK.
    fn complete(&mut self) {
        if !self.sub.is_acyclic() || self.sub.has_shortcut() {
            self.stats.late_rejections += 1;
            self.gov
                .obs()
                .prune(self.solve_id, PruneReason::LateRejection);
            return;
        }
        debug_assert!(self.sub.is_valid_subhierarchy_of(self.g));
        // An interrupt inside CHECK lands after this frame's expand tick
        // (and possibly mid-CHECK) — work a resumed run re-executes from
        // scratch. The redo counters tell the checkpoint how much of the
        // running totals to give back.
        if let Err(i) = self.gov.tick_check() {
            self.redo_expand += 1;
            self.interrupted(i);
            return;
        }
        self.stats.check_calls += 1;
        let assignments_before = self.ctx.assignments_tested.get();
        let induced = match self.ctx.check_governed(&self.sub, self.gov) {
            Ok(ca) => ca,
            Err(i) => {
                self.redo_expand += 1;
                self.redo_checks += 1;
                self.redo_assignments = self.ctx.assignments_tested.get() - assignments_before;
                self.interrupted(i);
                return;
            }
        };
        if self.opts.trace {
            self.trace.push(TraceEvent::Check {
                g: self.sub.clone(),
                induced: induced.is_some(),
            });
        }
        self.gov.obs().check_outcome(self.solve_id, induced.is_some());
        if let Some(ca) = induced {
            self.found.push(FrozenDimension::new(self.sub.clone(), ca));
            if self.stop_at_first {
                self.stopped = true;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_frozen::ExhaustiveEnumerator;
    use odc_hierarchy::HierarchySchema;
    use std::collections::BTreeSet;
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

    fn edge_fingerprint(f: &FrozenDimension) -> BTreeSet<(usize, usize)> {
        f.subhierarchy()
            .edges()
            .map(|(a, b)| (a.index(), b.index()))
            .collect()
    }

    #[test]
    fn every_location_category_is_satisfiable() {
        let ds = location_sch();
        let solver = Dimsat::new(&ds);
        let sweep = solver.unsatisfiable_categories();
        assert!(sweep.is_complete());
        assert!(sweep.unsat.is_empty());
        assert!(sweep.undecided.is_empty());
        assert_eq!(sweep.decided, ds.hierarchy().num_categories() - 1);
    }

    #[test]
    fn interrupted_sweep_keeps_partial_verdicts() {
        let ds = location_sch();
        let g = ds.hierarchy();
        let extra = odc_constraint::parse_constraint(g, "!SaleRegion_Country").unwrap();
        let ds2 = ds.with_constraint(extra);
        // Generous enough to decide some categories, tight enough to trip.
        let full = Dimsat::new(&ds2).unsatisfiable_categories();
        assert!(full.is_complete());
        assert!(!full.unsat.is_empty());
        let mut saw_partial = false;
        for limit in 1..500 {
            let sweep = Dimsat::new(&ds2)
                .with_budget(Budget::unlimited().with_node_limit(limit))
                .unsatisfiable_categories();
            if sweep.is_complete() {
                break;
            }
            assert_eq!(
                sweep.interrupted.map(|i| i.reason),
                Some(InterruptReason::NodeLimit)
            );
            assert!(!sweep.undecided.is_empty());
            assert_eq!(
                sweep.decided + sweep.undecided.len(),
                g.num_categories() - 1
            );
            if sweep.decided > 0 {
                // Partial work survived the interrupt; the decided prefix
                // must agree with the full sweep.
                for c in &sweep.unsat {
                    assert!(full.unsat.contains(c));
                }
                saw_partial = true;
            }
        }
        assert!(saw_partial, "no limit produced a partially-decided sweep");
    }

    /// The sweep fanned out over `jobs` workers.
    fn sweep_jobs(solver: &Dimsat<'_>, jobs: usize) -> CategorySweep {
        let mut gov = solver.governor();
        solver
            .unsatisfiable_categories_run(Run::new(&mut gov).jobs(jobs))
            .expect("nothing to resume")
    }

    #[test]
    fn parallel_sweep_matches_serial() {
        let ds = location_sch();
        let g = ds.hierarchy();
        let extra = odc_constraint::parse_constraint(g, "!SaleRegion_Country").unwrap();
        let ds2 = ds.with_constraint(extra);
        let serial = Dimsat::new(&ds2).unsatisfiable_categories();
        for jobs in [1, 2, 4, 16] {
            let par = sweep_jobs(&Dimsat::new(&ds2), jobs);
            assert!(par.is_complete());
            assert_eq!(par.unsat, serial.unsat, "jobs={jobs}");
            assert_eq!(par.decided, serial.decided, "jobs={jobs}");
        }
    }

    #[test]
    fn trail_and_clone_kernels_enumerate_identically() {
        let ds = location_sch();
        for name in ["Store", "City", "State", "SaleRegion"] {
            let c = cat(&ds, name);
            let (trail, trail_out) = Dimsat::new(&ds).enumerate_frozen(c);
            let (clone, clone_out) =
                Dimsat::with_options(&ds, DimsatOptions::full().without_trail())
                    .enumerate_frozen(c);
            let a: Vec<_> = trail.iter().map(edge_fingerprint).collect();
            let b: Vec<_> = clone.iter().map(edge_fingerprint).collect();
            assert_eq!(a, b, "kernels diverged on {name} (order-sensitive)");
            assert_eq!(trail_out.stats.expand_calls, clone_out.stats.expand_calls);
            assert_eq!(trail_out.stats.struct_clones, 0, "trail kernel never clones");
            assert!(clone_out.stats.struct_clones > 0, "clone kernel snapshots");
        }
    }

    #[test]
    fn fanout_overflow_has_its_own_reason() {
        // A root with 70 parents: into-free, so rest.len() = 70 ≥ 63.
        let mut b = HierarchySchema::builder();
        let root = b.category("Root");
        let mut parents = Vec::new();
        for i in 0..70 {
            parents.push(b.category(&format!("P{i}")));
        }
        for &p in &parents {
            b.edge(root, p);
            b.edge_to_all(p);
        }
        let g = Arc::new(b.build().unwrap());
        let ds = DimensionSchema::parse(g, "").unwrap();
        let root = ds.hierarchy().category_by_name("Root").unwrap();
        let out = Dimsat::new(&ds).category_satisfiable(root);
        assert!(out.is_unknown());
        assert_eq!(
            out.interrupted.map(|i| i.reason),
            Some(InterruptReason::FanoutOverflow)
        );
    }

    #[test]
    fn store_witness_verifies() {
        let ds = location_sch();
        let out = Dimsat::new(&ds).category_satisfiable(cat(&ds, "Store"));
        assert!(out.is_sat());
        assert!(out.interrupted.is_none());
        let w = out.witness().unwrap();
        assert_eq!(w.verify(&ds), Ok(()));
        assert!(out.stats.check_calls >= 1);
        assert_eq!(out.stats.late_rejections, 0, "eager pruning is complete");
    }

    #[test]
    fn enumeration_matches_exhaustive_oracle() {
        let ds = location_sch();
        let store = cat(&ds, "Store");
        let (dimsat_frozen, out) = Dimsat::new(&ds).enumerate_frozen(store);
        let mut oracle = ExhaustiveEnumerator::new(&ds, store);
        let oracle_frozen = oracle.enumerate();
        assert!(oracle.interrupt().is_none());
        let a: BTreeSet<_> = dimsat_frozen.iter().map(edge_fingerprint).collect();
        let b: BTreeSet<_> = oracle_frozen.iter().map(edge_fingerprint).collect();
        assert_eq!(a, b, "DIMSAT and the Theorem-3 oracle disagree");
        assert_eq!(a.len(), 4, "Figure 4: four inducing subhierarchies");
        assert_eq!(out.stats.late_rejections, 0);
        for f in &dimsat_frozen {
            assert_eq!(f.verify(&ds), Ok(()));
        }
    }

    #[test]
    fn ablations_agree_with_full_search() {
        let ds = location_sch();
        for c in [
            "Store",
            "City",
            "State",
            "Province",
            "SaleRegion",
            "Country",
        ] {
            let category = cat(&ds, c);
            let full = Dimsat::new(&ds).category_satisfiable(category).is_sat();
            let no_into = Dimsat::with_options(&ds, DimsatOptions::without_into_pruning())
                .category_satisfiable(category)
                .is_sat();
            let gt = Dimsat::with_options(&ds, DimsatOptions::generate_and_test())
                .category_satisfiable(category)
                .is_sat();
            assert_eq!(full, no_into, "into-pruning changed the answer for {c}");
            assert_eq!(full, gt, "generate-and-test changed the answer for {c}");
        }
    }

    #[test]
    fn ablations_enumerate_the_same_frozen_sets() {
        let ds = location_sch();
        let store = cat(&ds, "Store");
        let (full, _) = Dimsat::new(&ds).enumerate_frozen(store);
        let (gt, gt_out) =
            Dimsat::with_options(&ds, DimsatOptions::generate_and_test()).enumerate_frozen(store);
        let a: BTreeSet<_> = full.iter().map(edge_fingerprint).collect();
        let b: BTreeSet<_> = gt.iter().map(edge_fingerprint).collect();
        assert_eq!(a, b);
        assert!(
            gt_out.stats.late_rejections > 0,
            "generate-and-test must reject some subhierarchies late"
        );
    }

    #[test]
    fn into_pruning_reduces_work() {
        let ds = location_sch();
        let store = cat(&ds, "Store");
        let (_, full) = Dimsat::new(&ds).enumerate_frozen(store);
        let (_, no_into) = Dimsat::with_options(&ds, DimsatOptions::without_into_pruning())
            .enumerate_frozen(store);
        assert!(
            full.stats.expand_calls <= no_into.stats.expand_calls,
            "into pruning should not increase expansions ({} vs {})",
            full.stats.expand_calls,
            no_into.stats.expand_calls
        );
    }

    #[test]
    fn example_11_unsatisfiable_sale_region() {
        let ds = location_sch();
        let g = ds.hierarchy();
        let extra = odc_constraint::parse_constraint(g, "!SaleRegion_Country").unwrap();
        let ds2 = ds.with_constraint(extra);
        let sale_region = cat(&ds2, "SaleRegion");
        let out = Dimsat::new(&ds2).category_satisfiable(sale_region);
        assert!(out.is_unsat());
        assert!(out.witness().is_none());
        assert!(out.interrupted.is_none());
    }

    #[test]
    fn fifo_order_finds_the_same_answers() {
        let ds = location_sch();
        let store = cat(&ds, "Store");
        let opts = DimsatOptions {
            order: TopOrder::Fifo,
            ..Default::default()
        };
        let (frozen, _) = Dimsat::with_options(&ds, opts).enumerate_frozen(store);
        assert_eq!(frozen.len(), 4);
    }

    #[test]
    fn trace_records_expansions_and_checks() {
        let ds = location_sch();
        let store = cat(&ds, "Store");
        let opts = DimsatOptions::full().with_trace();
        let out = Dimsat::with_options(&ds, opts).category_satisfiable(store);
        assert!(out.is_sat());
        assert!(out
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Expand { .. })));
        assert!(out
            .trace
            .iter()
            .any(|e| matches!(e, TraceEvent::Check { induced: true, .. })));
        // Rendering shouldn't panic and must mention the root.
        let rendered = crate::trace::render_trace(&ds, &out.trace);
        assert!(rendered.contains("Store"));
    }

    #[test]
    fn all_category_is_trivially_satisfiable() {
        let ds = location_sch();
        let out = Dimsat::new(&ds).category_satisfiable(Category::ALL);
        // The empty subhierarchy {All} is complete and Σ(ds, All) = ∅…
        // Proposition 1 territory: the schema itself is always
        // satisfiable; `All` is inhabited in every instance.
        assert!(out.is_sat());
    }

    /// Differential test on a schema with a *cycle* (Example 4), which the
    /// naive oracle also handles.
    #[test]
    fn cyclic_schema_differential() {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let district = b.category("SaleDistrict");
        let city = b.category("City");
        b.edge(store, district);
        b.edge(store, city);
        b.edge(district, city);
        b.edge(city, district);
        b.edge_to_all(district);
        b.edge_to_all(city);
        let g = Arc::new(b.build().unwrap());
        let ds = DimensionSchema::parse(g, "").unwrap();
        let store = ds.hierarchy().category_by_name("Store").unwrap();
        let (dimsat_frozen, _) = Dimsat::new(&ds).enumerate_frozen(store);
        let mut oracle = ExhaustiveEnumerator::new(&ds, store);
        let oracle_frozen = oracle.enumerate();
        let a: BTreeSet<_> = dimsat_frozen.iter().map(edge_fingerprint).collect();
        let b2: BTreeSet<_> = oracle_frozen.iter().map(edge_fingerprint).collect();
        assert_eq!(a, b2);
        assert!(!a.is_empty());
        for f in &dimsat_frozen {
            assert!(f.subhierarchy().is_acyclic(), "frozen dims are acyclic");
        }
    }

    #[test]
    fn node_limit_yields_unknown_with_stats() {
        let ds = location_sch();
        let store = cat(&ds, "Store");
        let out = Dimsat::new(&ds)
            .with_budget(Budget::unlimited().with_node_limit(1))
            .category_satisfiable(store);
        assert!(out.is_unknown());
        let i = out.interrupted.expect("interrupt must be recorded");
        assert_eq!(i.reason, InterruptReason::NodeLimit);
        assert!(i.nodes >= 1);
    }

    #[test]
    fn zero_deadline_yields_unknown_immediately() {
        let ds = location_sch();
        let store = cat(&ds, "Store");
        let out = Dimsat::new(&ds)
            .with_budget(Budget::unlimited().with_deadline(std::time::Duration::ZERO))
            .category_satisfiable(store);
        assert!(out.is_unknown());
        assert_eq!(
            out.interrupted.map(|i| i.reason),
            Some(InterruptReason::Deadline)
        );
    }

    #[test]
    fn cancelled_token_yields_unknown() {
        let ds = location_sch();
        let store = cat(&ds, "Store");
        let token = CancelToken::new();
        token.cancel();
        let out = Dimsat::new(&ds)
            .with_cancel_token(token)
            .category_satisfiable(store);
        assert!(out.is_unknown());
        assert_eq!(
            out.interrupted.map(|i| i.reason),
            Some(InterruptReason::Cancelled)
        );
    }

    #[test]
    fn depth_limit_yields_unknown() {
        let ds = location_sch();
        let store = cat(&ds, "Store");
        let out = Dimsat::new(&ds)
            .with_budget(Budget::unlimited().with_depth_limit(1))
            .category_satisfiable(store);
        assert!(out.is_unknown());
        assert_eq!(
            out.interrupted.map(|i| i.reason),
            Some(InterruptReason::DepthLimit)
        );
    }

    #[test]
    fn generous_budget_does_not_change_answers() {
        let ds = location_sch();
        let budget = Budget::unlimited()
            .with_node_limit(1_000_000)
            .with_check_limit(1_000_000)
            .with_deadline(std::time::Duration::from_secs(60));
        for c in ["Store", "City", "State", "Country"] {
            let category = cat(&ds, c);
            let plain = Dimsat::new(&ds).category_satisfiable(category);
            let budgeted = Dimsat::new(&ds)
                .with_budget(budget)
                .category_satisfiable(category);
            assert_eq!(plain.is_sat(), budgeted.is_sat());
            assert!(budgeted.interrupted.is_none());
        }
    }

    #[test]
    fn shared_governor_accumulates_across_queries() {
        let ds = location_sch();
        let solver = Dimsat::new(&ds).with_budget(Budget::unlimited().with_node_limit(10_000));
        let mut gov = solver.governor();
        let a = solver.category_satisfiable_governed(cat(&ds, "Store"), &mut gov);
        let nodes_after_first = gov.nodes();
        let b = solver.category_satisfiable_governed(cat(&ds, "City"), &mut gov);
        assert!(a.is_sat() && b.is_sat());
        assert!(gov.nodes() > nodes_after_first, "budget is shared");
    }

    /// Asserts every counter except `elapsed` (wall-clock is the one
    /// field resume legitimately changes).
    fn assert_stats_match(a: &SearchStats, b: &SearchStats, ctx: &str) {
        assert_eq!(a.expand_calls, b.expand_calls, "expand_calls {ctx}");
        assert_eq!(a.check_calls, b.check_calls, "check_calls {ctx}");
        assert_eq!(a.dead_ends, b.dead_ends, "dead_ends {ctx}");
        assert_eq!(a.late_rejections, b.late_rejections, "late_rejections {ctx}");
        assert_eq!(
            a.assignments_tested, b.assignments_tested,
            "assignments_tested {ctx}"
        );
        assert_eq!(a.frozen_found, b.frozen_found, "frozen_found {ctx}");
        assert_eq!(a.struct_clones, b.struct_clones, "struct_clones {ctx}");
    }

    #[test]
    fn resume_parity_at_every_node_budget() {
        let ds = location_sch();
        let store = cat(&ds, "Store");
        for opts in [DimsatOptions::full(), DimsatOptions::full().without_trail()] {
            let (clean, clean_out) = Dimsat::with_options(&ds, opts).enumerate_frozen(store);
            let clean_edges: Vec<_> = clean.iter().map(edge_fingerprint).collect();
            let mut resumed_runs = 0;
            for k in 1..clean_out.stats.expand_calls {
                let (_, first) = Dimsat::with_options(&ds, opts)
                    .with_budget(Budget::unlimited().with_node_limit(k))
                    .enumerate_frozen(store);
                let cp = first.checkpoint.expect("interrupted run records a cursor");
                let text = cp.to_text();
                let solver = Dimsat::with_options(&ds, opts);
                let cp = solver.load_checkpoint(&text).expect("roundtrip");
                let (found, out) = solver.resume(&cp).expect("same schema resumes");
                assert!(out.interrupted.is_none(), "k={k}");
                let edges: Vec<_> = found.iter().map(edge_fingerprint).collect();
                assert_eq!(edges, clean_edges, "enumeration diverged at k={k}");
                assert_stats_match(&out.stats, &clean_out.stats, &format!("k={k}"));
                resumed_runs += 1;
            }
            assert!(resumed_runs > 10, "matrix actually exercised resume");
        }
    }

    #[test]
    fn resume_parity_at_every_check_budget() {
        let ds = location_sch();
        let store = cat(&ds, "Store");
        let (clean, clean_out) = Dimsat::new(&ds).enumerate_frozen(store);
        let clean_edges: Vec<_> = clean.iter().map(edge_fingerprint).collect();
        for k in 1..clean_out.stats.check_calls {
            let (_, first) = Dimsat::new(&ds)
                .with_budget(Budget::unlimited().with_check_limit(k))
                .enumerate_frozen(store);
            let cp = first.checkpoint.expect("interrupted run records a cursor");
            let solver = Dimsat::new(&ds);
            let (found, out) = solver.resume(&cp).expect("same schema resumes");
            assert!(out.interrupted.is_none(), "k={k}");
            let edges: Vec<_> = found.iter().map(edge_fingerprint).collect();
            assert_eq!(edges, clean_edges, "enumeration diverged at k={k}");
            assert_stats_match(&out.stats, &clean_out.stats, &format!("k={k}"));
        }
    }

    #[test]
    fn chained_resume_in_tiny_steps_matches_clean_run() {
        let ds = location_sch();
        let store = cat(&ds, "Store");
        let (clean, clean_out) = Dimsat::new(&ds).enumerate_frozen(store);
        let clean_edges: Vec<_> = clean.iter().map(edge_fingerprint).collect();
        // Walk the whole search a dozen nodes at a time, checkpointing at
        // every interrupt: the final merged result must be byte-identical.
        // (The step budget must cover the costliest single frame — an
        // EXPAND plus its full CHECK assignment search, which also ticks
        // the node governor — since the checkpoint cursor is
        // frame-granular.)
        let step_solver = Dimsat::new(&ds).with_budget(Budget::unlimited().with_node_limit(12));
        let (mut found, mut out) = step_solver.enumerate_frozen(store);
        let mut steps = 1;
        while let Some(cp) = out.checkpoint.take() {
            let r = step_solver.resume(&cp).expect("chained resume");
            found = r.0;
            out = r.1;
            steps += 1;
            assert!(steps < 10_000, "resume loop must make progress");
        }
        assert!(out.interrupted.is_none());
        assert!(steps > 2, "twelve-node steps must need several attempts");
        let edges: Vec<_> = found.iter().map(edge_fingerprint).collect();
        assert_eq!(edges, clean_edges);
        assert_stats_match(&out.stats, &clean_out.stats, "chained");
    }

    #[test]
    fn undersized_budget_reaches_a_stable_checkpoint_fixed_point() {
        // A constant budget smaller than one frame's cost cannot advance;
        // the livelock must be *stable*: the same checkpoint text comes
        // back every time, uncorrupted, rather than drifting or panicking.
        // (AnytimeDriver's escalation is the designed way out.)
        let ds = location_sch();
        let store = cat(&ds, "Store");
        let tiny = Dimsat::new(&ds).with_budget(Budget::unlimited().with_node_limit(3));
        let (_, out) = tiny.enumerate_frozen(store);
        let mut cp = out.checkpoint.expect("tiny budget interrupts");
        // One attempt may still advance to the costly frame; after that
        // the cursor and every counter except `elapsed` must be a strict
        // fixed point.
        let mut probes = Vec::new();
        for _ in 0..5 {
            probes.push((
                cp.cursor.clone(),
                cp.stats.expand_calls,
                cp.stats.check_calls,
                cp.stats.assignments_tested,
                cp.found.len(),
            ));
            let (_, out) = tiny.resume(&cp).expect("resume");
            match out.checkpoint {
                Some(next) => cp = next,
                None => return, // it actually finished: also fine
            }
        }
        assert!(
            probes[1..].windows(2).all(|w| w[0] == w[1]),
            "stalled checkpoints must be identical, not drifting: {probes:?}"
        );
        // Escalation breaks the fixed point.
        use crate::anytime::AnytimeDriver;
        let report = AnytimeDriver::new(Budget::unlimited().with_node_limit(3))
            .with_max_attempts(12)
            .with_escalation(2)
            .solve(&Dimsat::new(&ds), store, false);
        assert!(report.outcome.interrupted.is_none());
    }

    #[test]
    fn resume_refuses_wrong_schema_and_options() {
        let ds = location_sch();
        let store = cat(&ds, "Store");
        let (_, first) = Dimsat::new(&ds)
            .with_budget(Budget::unlimited().with_node_limit(2))
            .enumerate_frozen(store);
        let cp = first.checkpoint.expect("cursor");
        // Same text, different schema: fingerprint mismatch.
        let extra =
            odc_constraint::parse_constraint(ds.hierarchy(), "!SaleRegion_Country").unwrap();
        let ds2 = ds.with_constraint(extra);
        assert!(matches!(
            Dimsat::new(&ds2).load_checkpoint(&cp.to_text()),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        // Same schema, different exploration order: options mismatch.
        assert!(matches!(
            Dimsat::with_options(&ds, DimsatOptions::full().without_trail()).resume(&cp),
            Err(CheckpointError::Malformed(_))
        ));
        // And the happy path still works.
        assert!(Dimsat::new(&ds).resume(&cp).is_ok());
    }

    #[test]
    fn sweep_resume_merges_to_uninterrupted_report() {
        let ds = location_sch();
        let g = ds.hierarchy();
        let extra = odc_constraint::parse_constraint(g, "!SaleRegion_Country").unwrap();
        let ds2 = ds.with_constraint(extra);
        let clean = Dimsat::new(&ds2).unsatisfiable_categories();
        assert!(clean.is_complete());
        let mut resumed_any = false;
        for limit in 1..400u64 {
            let budgeted = Dimsat::new(&ds2).with_budget(Budget::unlimited().with_node_limit(limit));
            let sweep = budgeted.unsatisfiable_categories();
            let Some(cp) = budgeted.sweep_checkpoint(&sweep) else {
                assert!(sweep.is_complete());
                continue;
            };
            let solver = Dimsat::new(&ds2);
            let cp = solver
                .load_sweep_checkpoint(&cp.to_text())
                .expect("sweep cursor roundtrips");
            let mut gov = solver.governor();
            let merged = solver
                .unsatisfiable_categories_run(Run::new(&mut gov).resume(Some(&cp)))
                .expect("same schema resumes");
            assert!(merged.is_complete(), "limit={limit}");
            assert_eq!(merged.unsat, clean.unsat, "limit={limit}");
            assert_eq!(merged.sat, clean.sat, "limit={limit}");
            assert_eq!(merged.decided, clean.decided, "limit={limit}");
            assert_stats_match(&merged.stats, &clean.stats, &format!("limit={limit}"));
            resumed_any = true;
        }
        assert!(resumed_any, "no budget produced a resumable sweep");
    }

    #[test]
    fn fanout_overflow_yields_no_checkpoint_but_sweep_continues() {
        // Root with 70 parents (unexplorable) *plus* ordinary categories:
        // the sweep must report the overflow as an aborted category and
        // still decide everything else.
        let mut b = HierarchySchema::builder();
        let root = b.category("Wide");
        let mut parents = Vec::new();
        for i in 0..70 {
            parents.push(b.category(&format!("P{i}")));
        }
        for &p in &parents {
            b.edge(root, p);
            b.edge_to_all(p);
        }
        let g = Arc::new(b.build().unwrap());
        let ds = DimensionSchema::parse(g, "").unwrap();
        let wide = ds.hierarchy().category_by_name("Wide").unwrap();
        let out = Dimsat::new(&ds).category_satisfiable(wide);
        assert!(out.is_unknown());
        assert!(
            out.checkpoint.is_none(),
            "a structural abort is not resumable"
        );
        let sweep = Dimsat::new(&ds).unsatisfiable_categories();
        assert!(sweep.is_complete(), "sweep continues past the overflow");
        assert_eq!(sweep.aborted.len(), 1);
        assert_eq!(sweep.aborted[0].0, wide);
        assert_eq!(sweep.aborted[0].1, InterruptReason::FanoutOverflow);
        assert_eq!(sweep.decided, 70, "every narrow category decided");
        assert!(sweep.interrupted.is_none());
        // Parallel sweeps apply the same rule.
        let par = sweep_jobs(&Dimsat::new(&ds), 4);
        assert_eq!(par.aborted, sweep.aborted);
        assert_eq!(par.decided, sweep.decided);
        assert!(par.is_complete());
    }

    #[test]
    fn anytime_driver_escalates_to_a_decision() {
        use crate::anytime::AnytimeDriver;
        let ds = location_sch();
        let store = cat(&ds, "Store");
        let (clean, clean_out) = Dimsat::new(&ds).enumerate_frozen(store);
        let driver = AnytimeDriver::new(Budget::unlimited().with_node_limit(2))
            .with_max_attempts(10)
            .with_escalation(2);
        let solver = Dimsat::new(&ds);
        let report = driver.solve(&solver, store, false);
        assert!(report.outcome.interrupted.is_none(), "escalation decides");
        assert!(report.attempts > 1, "the tiny start budget must retry");
        assert!(report.resumed >= 1, "retries resume, not restart");
        assert_eq!(report.found.len(), clean.len());
        assert_stats_match(&report.outcome.stats, &clean_out.stats, "anytime");
        // A bounded driver that cannot finish still reports a checkpoint.
        let stuck = AnytimeDriver::new(Budget::unlimited().with_node_limit(1))
            .with_max_attempts(2)
            .with_escalation(1);
        let report = stuck.solve(&solver, store, false);
        assert_eq!(report.attempts, 2);
        assert!(report.outcome.is_unknown());
        assert!(report.outcome.checkpoint.is_some(), "handoff survives");
    }

    #[test]
    fn interrupted_enumeration_reports_partial_work() {
        let ds = location_sch();
        let store = cat(&ds, "Store");
        // Find the full enumeration's check count, then cut it short.
        let (full, _) = Dimsat::new(&ds).enumerate_frozen(store);
        assert!(full.len() > 1);
        let (partial, out) = Dimsat::new(&ds)
            .with_budget(Budget::unlimited().with_check_limit(1))
            .enumerate_frozen(store);
        assert!(out.interrupted.is_some());
        assert!(partial.len() < full.len());
        assert!(out.stats.expand_calls > 0, "partial stats are populated");
    }
}
