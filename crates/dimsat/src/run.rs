//! The one context every reasoning battery runs under.
//!
//! The category sweep ([`crate::Dimsat::unsatisfiable_categories_run`]),
//! the Theorem-1 battery and the advisor audit (in
//! `odc-summarizability`) each have one driver that takes a [`Run`]. It
//! carries the choices that vary between callers — how many workers,
//! whether the battery is planned, caller-owned warm state, and a
//! checkpoint to resume from — next to the governor that meters the
//! whole battery.
//!
//! One piece of warm state is an [`ItemCache`]: a per-item verdict
//! store (the on-disk verdict repository, or an in-memory fake in
//! tests) that the sweep and the audit ask before solving an item and
//! tell what they decide.

use crate::implication::CacheSession;
use odc_constraint::DimensionSchema;
use odc_govern::{Governor, InterruptReason};
use odc_hierarchy::Category;
use odc_plan::{SchemaPlan, SharedFacts};

/// One item of the advisor audit's four stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum AuditItem {
    /// Whether a category is satisfiable (the sweep).
    Sat(Category),
    /// Whether `Σ[i]` is implied by the rest of `Σ` (the redundancy stage).
    Redundant(usize),
    /// How many frozen dimensions a bottom category has (the census).
    Census(Category),
    /// Whether `coarse` is summarizable from `{fine}` (the rewrite matrix).
    Rewrite(Category, Category),
}

/// A decided audit item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ItemAnswer {
    /// `Sat`: satisfiable.
    Sat,
    /// `Sat`: unsatisfiable.
    Unsat,
    /// `Sat`: structurally unexplorable (a fan-out overflow), for good.
    Aborted(InterruptReason),
    /// `Census`: the number of frozen dimensions.
    Count(usize),
    /// `Redundant`: implied by the rest; `Rewrite`: a safe rewrite.
    Holds,
    /// `Redundant`: not implied; `Rewrite`: not safe, with the failing
    /// bottom when it is known.
    Fails(Option<Category>),
}

/// A per-item verdict cache for the audit and the sweep.
///
/// The drivers ask [`ItemCache::get`] before building any solver state
/// for an item and [`ItemCache::put`] every item they decide. An
/// interrupted census or rewrite item leaves its resume cursor (a
/// checkpoint's text form) with [`ItemCache::put_pending`]; the next
/// run at the same item resumes from [`ItemCache::pending`]. An answer
/// of the wrong shape for its item counts as a miss. Implementations
/// key items by `ds`; writes may fail silently (a lost write is a miss
/// next time, never a wrong answer).
pub trait ItemCache: Sync {
    /// The decided answer for `item`, if stored.
    fn get(&self, ds: &DimensionSchema, item: AuditItem) -> Option<ItemAnswer>;
    /// Stores a decided answer (clearing any pending cursor).
    fn put(&self, ds: &DimensionSchema, item: AuditItem, answer: ItemAnswer);
    /// The resume cursor an interrupted run left for `item`.
    fn pending(&self, ds: &DimensionSchema, item: AuditItem) -> Option<String>;
    /// Stores the resume cursor of an interrupted item.
    fn put_pending(&self, ds: &DimensionSchema, item: AuditItem, cursor: String);
}

/// How one battery runs. `C` is the family's checkpoint type.
///
/// [`Run::new`] is the reference run: serial on the caller's governor,
/// unplanned (schema order, no aliases, no shared facts, no witness
/// pools), no memo-cache, no item cache, nothing to resume.
pub struct Run<'a, C> {
    /// The budget, cancel token, observer and fault plan of the whole
    /// battery. With `jobs > 1` the workers charge a shared budget
    /// minted from it, and their work is charged back to it.
    pub gov: &'a mut Governor,
    /// Worker threads; 1 runs inline on `gov`.
    pub jobs: usize,
    /// Plan the battery: cost-ordered and deduped queries, shared-fact
    /// warm starts and (in the audit) census witness pools. Reporting
    /// order never changes.
    pub plan: bool,
    /// A caller-owned implication memo-cache session (a resident
    /// server's warm catalog entry, or a run-local cache).
    pub session: Option<CacheSession<'a>>,
    /// A caller-owned per-schema plan; a planned audit builds one when
    /// this is `None`.
    pub schema_plan: Option<&'a SchemaPlan>,
    /// Caller-owned shared facts (a server's catalog entry, or verdicts
    /// seeded from a repository); a planned run starts empty ones when
    /// this is `None`. Unplanned runs consult no facts.
    pub facts: Option<&'a SharedFacts>,
    /// A caller-owned per-item verdict cache, asked before every sweep
    /// and audit item is solved and told every decided one. Other
    /// batteries ignore it.
    pub cache: Option<&'a dyn ItemCache>,
    /// The checkpoint of an interrupted run of the same battery.
    pub resume: Option<&'a C>,
}

impl<'a, C> Run<'a, C> {
    /// The reference run on `gov`: serial, unplanned, cold.
    pub fn new(gov: &'a mut Governor) -> Self {
        Run {
            gov,
            jobs: 1,
            plan: false,
            session: None,
            schema_plan: None,
            facts: None,
            cache: None,
            resume: None,
        }
    }

    /// Fans the battery out over `jobs` worker threads.
    pub fn jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Turns the battery planner on or off.
    pub fn planned(mut self, plan: bool) -> Self {
        self.plan = plan;
        self
    }

    /// Answers repeated implications through `session`.
    pub fn session(mut self, session: CacheSession<'a>) -> Self {
        self.session = Some(session);
        self
    }

    /// Plans with caller-owned warm state.
    pub fn warm(mut self, schema_plan: &'a SchemaPlan, facts: &'a SharedFacts) -> Self {
        self.schema_plan = Some(schema_plan);
        self.facts = Some(facts);
        self
    }

    /// Starts from caller-owned shared facts.
    pub fn facts(mut self, facts: &'a SharedFacts) -> Self {
        self.facts = Some(facts);
        self
    }

    /// Answers and records items through `cache`.
    pub fn cache(mut self, cache: &'a dyn ItemCache) -> Self {
        self.cache = Some(cache);
        self
    }

    /// Resumes from `cp` when it is `Some`.
    pub fn resume(mut self, cp: Option<&'a C>) -> Self {
        self.resume = cp;
        self
    }
}
