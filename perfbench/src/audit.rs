//! `audit`: schema audits, two phases.
//!
//! (a) The default `odc audit` path, [`advisor::audit_planned`], serial
//!     with a fresh cache, on the Theorem-4 SAT gadget (12 variables)
//!     under a depth-10 rollup spine. DIMSAT and the battery planner do
//!     almost all of the work.
//! (b) A six-branch, twelve-level schema audited through the verdict
//!     repository three ways: into an empty repository (`odc audit
//!     --repo`, first run), again warm, and after a one-constraint edit
//!     (`sync_schema` plus re-audit). The warm pass reads the repository
//!     and bypasses DIMSAT; the edit pass writes beside its reads.
//!
//! Every report must render exactly as a from-scratch audit of the same
//! schema does.

use crate::stats::median;
use crate::trace::Tracer;
use crate::{metric, samples, timed, Ctx, Outcome, Workload};
use odc_core::obs::{Observer, PlanEvent};
use odc_core::plan::plan_battery;
use odc_core::prelude::*;
use odc_core::repo::{audit_with_repo, VerdictRepo};
use odc_core::summarizability::advisor::{self, SchemaReport};
use odc_rand::rngs::StdRng;
use odc_rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::sync::{Arc, Mutex};

/// Gadget size: CNF variables (clauses are 1.5× as many) and spine depth.
const VARS: usize = 12;
const SPINE: usize = 10;
/// Branch schema shape: branches × levels.
const BRANCHES: usize = 6;
const LEVELS: usize = 12;
/// Warm re-audits per repository cycle.
const WARM_PER_CYCLE: usize = 5;
/// Repetitions of each traced-only probe (repository reopen, battery plan).
const PROBE_REPS: usize = 5;

/// The Theorem-4 SAT gadget under a rollup spine: `B` below `V1..Vn`
/// (the variable edges the CNF constraints range over) and below
/// `D0 > D1 > … > All`. The spine multiplies the audit's rewrite matrix
/// without changing the gadget's census or constraint set.
/// Variable `v` (1-based) is named `V{names[v - 1]}`.
fn spine_schema(formula: &odc_workload::CnfFormula, names: &[usize]) -> DimensionSchema {
    let mut b = HierarchySchema::builder();
    let bottom = b.category("B");
    let spine: Vec<Category> = (0..SPINE).map(|i| b.category(&format!("D{i}"))).collect();
    b.edge(bottom, spine[0]);
    for w in spine.windows(2) {
        b.edge(w[0], w[1]);
    }
    b.edge_to_all(spine[SPINE - 1]);
    let vars: Vec<Category> = (1..=formula.num_vars)
        .map(|v| {
            let c = b.category(&format!("V{}", names[v - 1]));
            b.edge(bottom, c);
            b.edge_to_all(c);
            c
        })
        .collect();
    let g = Arc::new(b.build().expect("the gadget hierarchy is acyclic"));
    let mut sigma = vec![DimensionConstraint::new(
        bottom,
        Constraint::path(vec![bottom, spine[0]]),
    )];
    for clause in &formula.clauses {
        let disjuncts = clause
            .iter()
            .map(|&lit| {
                let atom = Constraint::path(vec![bottom, vars[(lit.unsigned_abs() - 1) as usize]]);
                if lit > 0 {
                    atom
                } else {
                    Constraint::not(atom)
                }
            })
            .collect();
        sigma.push(DimensionConstraint::new(bottom, Constraint::Or(disjuncts)));
    }
    DimensionSchema::new(g, sigma)
}

/// Disjoint branches `C{i}x0 < … < C{i}x{L-1} < All`, each with a path
/// atom and a guarded equality rooted at its first category; branch
/// `edited` carries `value` in its equality, every other branch `base`.
/// Disjoint branches keep each verdict's footprint inside one branch, so
/// an edit invalidates one branch's verdicts only.
fn branch_schema(edited: usize, value: &str) -> DimensionSchema {
    let mut b = HierarchySchema::builder();
    let mut sigma = String::new();
    for i in 0..BRANCHES {
        let mut prev = None;
        for j in 0..LEVELS {
            let c = b.category(&format!("C{i}x{j}"));
            if let Some(p) = prev {
                b.edge(p, c);
            }
            prev = Some(c);
        }
        if let Some(p) = prev {
            b.edge(p, Category::ALL);
        }
        let v = if i == edited { value } else { "base" };
        let chain: Vec<String> = (0..LEVELS).map(|j| format!("C{i}x{j}")).collect();
        let _ = writeln!(sigma, "{}", chain.join("_"));
        let _ = writeln!(sigma, "C{i}x0.C{i}x{} = {v} -> C{i}x0_C{i}x1", LEVELS - 1);
    }
    let g = Arc::new(b.build().expect("branches are acyclic"));
    DimensionSchema::parse(g, &sigma).expect("generated constraints parse")
}

struct Inputs {
    spine: DimensionSchema,
    base: DimensionSchema,
    edited: DimensionSchema,
}

/// The gadget's formula: the 12-variable, 18-clause 3-SAT draw behind
/// the committed E8-spine figures. It is satisfiable, so the census
/// pools hold real witnesses.
const FORMULA_SEED: u64 = 0xE8;

/// Every input is a function of the seed, which picks the variable
/// categories' names (a permutation of `V1..Vn`, so the gadget and its
/// search cost stay fixed) and which branch the edit touches.
fn inputs(seed: u64) -> Inputs {
    let formula =
        odc_workload::random_3sat(VARS, 3 * VARS / 2, &mut StdRng::seed_from_u64(FORMULA_SEED));
    let mut rng = StdRng::seed_from_u64(seed);
    let mut names: Vec<usize> = (1..=VARS).collect();
    for i in (1..names.len()).rev() {
        names.swap(i, rng.gen_range(0..=i));
    }
    let edited = rng.gen_range(0..BRANCHES);
    Inputs {
        spine: spine_schema(&formula, &names),
        base: branch_schema(edited, "base"),
        edited: branch_schema(edited, "edited"),
    }
}

/// Captures the planner's summary event.
#[derive(Default)]
struct PlanCapture(Mutex<Option<PlanEvent>>);

impl Observer for PlanCapture {
    fn plan(&self, p: &PlanEvent) {
        if p.battery == "schema_audit" {
            *self.0.lock().expect("plan capture lock") = Some(p.clone());
        }
    }
}

fn audit_repo(ds: &DimensionSchema, repo: &VerdictRepo) -> SchemaReport {
    audit_with_repo(ds, repo, &mut Governor::unlimited())
}

fn bytes_under(dir: &std::path::Path) -> u64 {
    let Ok(rd) = std::fs::read_dir(dir) else {
        return 0;
    };
    rd.flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => bytes_under(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The audit workload's inputs and the samples so far.
pub struct Audit {
    inp: Inputs,
    plan: Arc<PlanCapture>,
    cold: Vec<f64>,
    fill: Vec<f64>,
    warm: Vec<f64>,
    edit: Vec<f64>,
    /// Every report produced, for the parity check at the end.
    planned: Vec<SchemaReport>,
    repo_reports: Vec<(&'static str, SchemaReport)>,
    cycles: usize,
}

pub fn setup(ctx: &Ctx, _: &mut Outcome) -> Result<Box<dyn Workload>, String> {
    Ok(Box::new(Audit {
        inp: inputs(ctx.seed),
        plan: Arc::new(PlanCapture::default()),
        cold: Vec::new(),
        fill: Vec::new(),
        warm: Vec::new(),
        edit: Vec::new(),
        planned: Vec::new(),
        repo_reports: Vec::new(),
        cycles: 0,
    }))
}

impl Audit {
    /// (a) The planned audit, fresh cache each time.
    fn planned(&mut self, t: &Tracer) {
        let (secs, report) = timed(|| {
            t.span("advisor.audit_planned", || {
                if t.enabled() {
                    let mut gov = Governor::unlimited().with_observer(Obs::new(self.plan.clone()));
                    advisor::audit_planned_governed(&self.inp.spine, &mut gov)
                } else {
                    advisor::audit_planned(&self.inp.spine)
                }
            })
        });
        self.cold.push(secs * 1e3);
        self.planned.push(report);
    }

    /// (b) One repository cycle: fill an empty repository, re-audit
    /// warm, then edit one constraint and re-audit incrementally.
    fn cycle(&mut self, ctx: &Ctx, t: &Tracer, o: &mut Outcome) -> Result<(), String> {
        let inp = &self.inp;
        let dir = ctx.dir(&format!("repo-{}", self.cycles));
        self.cycles += 1;
        let (secs, filled) = timed(|| {
            t.span("repo.fill", || -> Result<_, String> {
                let repo = t
                    .span("repo.open", || VerdictRepo::open(&dir, Obs::none(), None))
                    .map_err(|e| format!("open repo: {e}"))?;
                t.span("repo.sync_new", || {
                    repo.sync_schema(&inp.base, "bench", "base")
                })
                .map_err(|e| format!("sync base: {e}"))?;
                let r = t.span("repo.audit", || audit_repo(&inp.base, &repo));
                Ok((repo, r))
            })
        });
        let (repo, report) = filled?;
        self.fill.push(secs * 1e3);
        self.repo_reports.push(("fill", report));
        for _ in 0..WARM_PER_CYCLE {
            let (secs, r) = timed(|| t.span("repo.warm", || audit_repo(&inp.base, &repo)));
            self.warm.push(secs * 1e3);
            self.repo_reports.push(("warm", r));
        }
        let (secs, edited) = timed(|| {
            t.span("repo.edit", || -> Result<_, String> {
                let sync = t
                    .span("repo.sync", || {
                        repo.sync_schema(&inp.edited, "bench", "edited")
                    })
                    .map_err(|e| format!("sync edited: {e}"))?;
                Ok((
                    sync,
                    t.span("repo.reaudit", || audit_repo(&inp.edited, &repo)),
                ))
            })
        });
        let (sync, report) = edited?;
        self.edit.push(secs * 1e3);
        self.repo_reports.push(("incremental", report));
        if t.enabled() && self.cycles == 1 {
            let records = repo.record_count();
            let share = sync.invalidated as f64 / (sync.migrated + sync.invalidated).max(1) as f64;
            drop(repo);
            let bytes = bytes_under(&dir.join("segments"));
            let mut opens = Vec::new();
            for _ in 0..PROBE_REPS {
                let (secs, r) =
                    timed(|| t.span("repo.reopen", || VerdictRepo::open(&dir, Obs::none(), None)));
                r.map_err(|e| format!("reopen repo: {e}"))?;
                opens.push(secs * 1e3);
            }
            o.layer.push(metric("repo.open_ms", median(&opens), "ms"));
            o.layer
                .push(metric("repo.records", records as f64, "count"));
            o.layer.push(metric(
                "repo.bytes_per_record",
                bytes as f64 / records.max(1) as f64,
                "B",
            ));
            o.layer
                .push(metric("repo.invalidated_share", share, "ratio"));
        } else {
            drop(repo);
        }
        let _ = std::fs::remove_dir_all(&dir);
        Ok(())
    }
}

impl Workload for Audit {
    fn round(&mut self, ctx: &Ctx, t: &Tracer, o: &mut Outcome) -> Result<(), String> {
        self.planned(t);
        self.cycle(ctx, t, o)
    }

    fn enough(&self) -> bool {
        true
    }

    fn finish(self: Box<Self>, _: &Ctx, t: &Tracer, o: &mut Outcome) -> Result<(), String> {
        let inp = &self.inp;
        // Parity with from-scratch, repository-free audits.
        let reference = |ds: &DimensionSchema| {
            advisor::audit_parallel(ds, Budget::unlimited(), &CancelToken::new(), 2).render(ds)
        };
        let spine_ref = reference(&inp.spine);
        for r in &self.planned {
            o.check(
                r.interrupted.is_none() && r.render(&inp.spine) == spine_ref,
                || "planned spine audit differs from the from-scratch audit".to_string(),
            );
        }
        let base_ref = reference(&inp.base);
        let edited_ref = reference(&inp.edited);
        for (what, r) in &self.repo_reports {
            let (ds, want) = if *what == "incremental" {
                (&inp.edited, &edited_ref)
            } else {
                (&inp.base, &base_ref)
            };
            o.check(r.interrupted.is_none() && &r.render(ds) == want, || {
                format!("{what} repository audit differs from the from-scratch audit")
            });
        }

        eprintln!("audit: cold ms [{}]", samples(&self.cold));
        eprintln!("audit: fill ms [{}]", samples(&self.fill));
        eprintln!("audit: edit ms [{}]", samples(&self.edit));
        o.e2e
            .push(metric("audit_cold_ms", median(&self.cold), "ms"));
        o.e2e
            .push(metric("audit_fill_ms", median(&self.fill), "ms"));
        o.e2e
            .push(metric("audit_warm_ms", median(&self.warm), "ms"));
        o.e2e
            .push(metric("audit_edit_ms", median(&self.edit), "ms"));
        if !t.enabled() {
            return Ok(());
        }
        let s = &self.planned[0].stats;
        for (name, v) in [
            ("dimsat.expand_calls", s.expand_calls),
            ("dimsat.check_calls", s.check_calls),
            ("dimsat.assignments_tested", s.assignments_tested),
            ("dimsat.cache_hits", s.cache_hits),
            ("dimsat.cache_misses", s.cache_misses),
        ] {
            o.layer.push(metric(name, v as f64, "count"));
        }
        for _ in 0..3 {
            t.span("dimsat.sweep", || {
                std::hint::black_box(Dimsat::new(&inp.spine).unsatisfiable_categories())
            });
        }
        for _ in 0..PROBE_REPS {
            t.span("plan.plan_battery", || {
                std::hint::black_box(plan_battery(&inp.spine, inp.spine.constraints()))
            });
        }
        let ms = |name: &str| median(&t.durations(name)) / 1e6;
        o.layer
            .push(metric("dimsat.sweep_ms", ms("dimsat.sweep"), "ms"));
        o.layer
            .push(metric("plan.plan_ms", ms("plan.plan_battery"), "ms"));
        let p = self
            .plan
            .0
            .lock()
            .map_err(|_| "plan capture lock")?
            .clone()
            .ok_or("no plan event")?;
        o.layer
            .push(metric("plan.queries", p.queries as f64, "count"));
        o.layer
            .push(metric("plan.deduped", p.deduped as f64, "count"));
        o.layer
            .push(metric("plan.fact_hits", p.fact_hits as f64, "count"));
        o.layer
            .push(metric("plan.batched", p.batched as f64, "count"));
        o.layer.push(metric("repo.sync_ms", ms("repo.sync"), "ms"));
        o.layer
            .push(metric("repo.reaudit_ms", ms("repo.reaudit"), "ms"));
        Ok(())
    }
}
