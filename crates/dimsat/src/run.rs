//! The one context every reasoning battery runs under.
//!
//! The category sweep ([`crate::Dimsat::unsatisfiable_categories_run`]),
//! the Theorem-1 battery and the advisor audit (in
//! `odc-summarizability`) each have one driver that takes a [`Run`]. It
//! carries the choices that vary between callers — how many workers,
//! whether the battery is planned, caller-owned warm state, and a
//! checkpoint to resume from — next to the governor that meters the
//! whole battery.

use crate::implication::CacheSession;
use odc_govern::Governor;
use odc_plan::{SchemaPlan, SharedFacts};

/// How one battery runs. `C` is the family's checkpoint type.
///
/// [`Run::new`] is the reference run: serial on the caller's governor,
/// unplanned (schema order, no aliases, no shared facts, no witness
/// pools), no memo-cache, nothing to resume.
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

    /// Resumes from `cp` when it is `Some`.
    pub fn resume(mut self, cp: Option<&'a C>) -> Self {
        self.resume = cp;
        self
    }
}
