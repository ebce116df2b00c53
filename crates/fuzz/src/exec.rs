//! One executor per code path. Every executor reduces a [`Query`] to an
//! [`Observation`]: a canonical verdict string, a CLI-convention exit
//! code (0 decided, 2 unknown, 1 error), a witness-validity bit
//! (countermodels re-verified against C1–C7 and Σ), and a
//! stats-coherence bit. [`run_pair`] answers a case's battery through
//! the two sides of an executor pair; the differential driver compares
//! the sides observation-by-observation.

use crate::case::{FuzzCase, Query};
use crate::diff::Pair;
use odc_core::dimsat::{
    AnytimeDriver, Dimsat, DimsatOptions, DimsatOutcome, ImplicationVerdict, Run, Verdict,
};
use odc_core::prelude::*;
use odc_core::summarizability::{
    advisor, is_summarizable_in_schema_run, SummarizabilityVerdict,
};
use odc_core::govern::{FaultKind, FaultPlan, FaultTrigger};
use odc_serve::{Client, ClientError, Response, ServeConfig, Server, ShutdownHandle};
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// What one executor observed for one query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Observation {
    /// Canonical verdict: `sat`/`unsat`, `implied`/`not-implied`,
    /// `summarizable`/`not-summarizable`, `frozen=<n>`, `unknown`, or
    /// `error`.
    pub verdict: String,
    /// CLI convention: 0 decided, 2 unknown, 1 error.
    pub exit_code: i32,
    /// `Some(false)` when a returned witness/countermodel failed
    /// re-verification against the schema — a bug even if the verdicts
    /// agree. `None` when the executor exposes no witness.
    pub witness_valid: Option<bool>,
    /// `false` when the executor's own counters are incoherent (e.g. a
    /// sweep whose `decided` differs from `|sat| + |unsat|`).
    pub stats_ok: bool,
    /// Free-form diagnostic detail.
    pub note: String,
}

impl Observation {
    fn decided(verdict: impl Into<String>) -> Observation {
        Observation {
            verdict: verdict.into(),
            exit_code: 0,
            witness_valid: None,
            stats_ok: true,
            note: String::new(),
        }
    }

    fn unknown(note: impl Into<String>) -> Observation {
        Observation {
            verdict: "unknown".into(),
            exit_code: 2,
            witness_valid: None,
            stats_ok: true,
            note: note.into(),
        }
    }

    fn error(note: impl Into<String>) -> Observation {
        Observation {
            verdict: "error".into(),
            exit_code: 1,
            witness_valid: None,
            stats_ok: true,
            note: note.into(),
        }
    }

    fn with_witness(mut self, valid: bool) -> Observation {
        self.witness_valid = Some(valid);
        self
    }
}

/// A pair run failure that is not a per-query disagreement.
#[derive(Debug)]
pub enum PairError {
    /// The pair could not be exercised (no server, bad scratch dir, …).
    Setup(String),
    /// The resident server misdelivered a pipelined response — a
    /// divergence in its own right, attributed to the transport.
    Desync {
        /// Tag the next in-order response should have carried.
        expected: u64,
        /// Tag it actually carried, if any.
        got: Option<u64>,
        /// Offending status line.
        status: String,
    },
}

/// One query answered by both sides of a pair.
#[derive(Debug, Clone)]
pub struct PairResult {
    /// The query (textual form), or a synthetic label such as
    /// `audit warm`.
    pub query: String,
    /// Reference side.
    pub left: Observation,
    /// Alternate side.
    pub right: Observation,
}

/// Everything [`run_pair`] needs besides the case itself.
pub struct PairContext<'a> {
    /// Corrupt the clone-kernel executor's bottom-category verdict (the
    /// planted-divergence acceptance test).
    pub sabotage: bool,
    /// Worker count for the parallel sweep side.
    pub jobs: usize,
    /// Scratch directory for per-case verdict repositories.
    pub scratch: &'a Path,
    /// Resident server, when the [`Pair::ServeCli`] pair is in play.
    pub server: Option<&'a ServerHarness>,
}

/// Per-query search-node allowance. The corpus deliberately draws
/// schemas whose frozen spaces explode; every executor answers under
/// this same deterministic budget, and [`crate::diff::compare`] treats
/// `unknown` as non-comparable (different code paths legitimately split
/// a budget differently). Node limits — never wall-clock — keep runs
/// and replays deterministic.
pub const CASE_NODE_LIMIT: u64 = 20_000;

/// The shared per-query budget.
pub fn case_budget() -> Budget {
    Budget::unlimited().with_node_limit(CASE_NODE_LIMIT)
}

/// The canonical single-query executor (trail kernel, default options)
/// — the reference side of most pairs, and the source of `expected`
/// verdicts in repro directories.
pub fn answer_direct(ds: &DimensionSchema, q: &Query, opts: DimsatOptions) -> Observation {
    let g = ds.hierarchy();
    match q {
        Query::Check(name) => match g.category_by_name(name) {
            Some(c) => obs_from_outcome(
                ds,
                &Dimsat::with_options(ds, opts)
                    .with_budget(case_budget())
                    .category_satisfiable(c),
            ),
            None => Observation::error(format!("no such category `{name}`")),
        },
        Query::Implies(src) => match odc_core::constraint::parse_constraint(g, src) {
            Ok(dc) => {
                let mut gov = Governor::from_budget(case_budget());
                let out = odc_core::dimsat::implies_governed(ds, &dc, opts, &mut gov);
                match out.verdict {
                    ImplicationVerdict::Implied => Observation::decided("implied"),
                    ImplicationVerdict::NotImplied => {
                        let valid = out
                            .counterexample
                            .as_ref()
                            .map(|f| f.verify(ds).is_ok())
                            .unwrap_or(false);
                        Observation::decided("not-implied").with_witness(valid)
                    }
                    ImplicationVerdict::Unknown(i) => Observation::unknown(format!("{i:?}")),
                }
            }
            Err(e) => Observation::error(format!("constraint parse: {e}")),
        },
        Query::Summarizable { target, sources } => {
            let Some(c) = g.category_by_name(target) else {
                return Observation::error(format!("no such category `{target}`"));
            };
            let mut s = Vec::with_capacity(sources.len());
            for name in sources {
                match g.category_by_name(name) {
                    Some(sc) => s.push(sc),
                    None => return Observation::error(format!("no such category `{name}`")),
                }
            }
            let mut gov = Governor::from_budget(case_budget());
            summarizability_obs(ds, &is_summarizable_in_schema_run(ds, c, &s, opts, Run::new(&mut gov)))
        }
        Query::Frozen(root) => match g.category_by_name(root) {
            Some(c) => {
                let (frozen, outcome) = Dimsat::with_options(ds, opts)
                    .with_budget(case_budget())
                    .enumerate_frozen(c);
                if outcome.is_unknown() {
                    return Observation::unknown("enumeration interrupted");
                }
                let valid = frozen.iter().all(|f| f.verify(ds).is_ok());
                Observation::decided(format!("frozen={}", frozen.len())).with_witness(valid)
            }
            None => Observation::error(format!("no such category `{root}`")),
        },
    }
}

fn obs_from_outcome(ds: &DimensionSchema, out: &DimsatOutcome) -> Observation {
    match &out.verdict {
        Verdict::Sat(f) => Observation::decided("sat").with_witness(f.verify(ds).is_ok()),
        Verdict::Unsat => Observation::decided("unsat"),
        Verdict::Unknown(i) => Observation::unknown(format!("{i:?}")),
    }
}

fn summarizability_obs(
    ds: &DimensionSchema,
    out: &odc_core::summarizability::SummarizabilityOutcome,
) -> Observation {
    match &out.verdict {
        SummarizabilityVerdict::Summarizable => Observation::decided("summarizable"),
        SummarizabilityVerdict::NotSummarizable => {
            let valid = out
                .counterexample
                .as_ref()
                .map(|f| f.verify(ds).is_ok())
                .unwrap_or(false);
            Observation::decided("not-summarizable").with_witness(valid)
        }
        SummarizabilityVerdict::Unknown(i) => Observation::unknown(format!("{i:?}")),
    }
}

/// Answers a case's battery through both sides of `pair`.
pub fn run_pair(
    pair: Pair,
    case: &FuzzCase,
    ctx: &PairContext<'_>,
) -> Result<Vec<PairResult>, PairError> {
    let ds = case.schema().map_err(PairError::Setup)?;
    match pair {
        Pair::TrailClone => Ok(trail_clone(&ds, case, ctx)),
        Pair::SerialJobs => Ok(serial_jobs(&ds, case, ctx)),
        Pair::PlannedNoplan => Ok(planned_noplan(&ds, case)),
        Pair::FaultResume => Ok(fault_resume(&ds, case)),
        Pair::RepoWarmCold => repo_warm_cold(&ds, case, ctx),
        Pair::ServeCli => serve_cli(&ds, case, ctx),
        Pair::IngestFull => Ok(ingest_full(&ds, case)),
    }
}

/// Incremental delta validation vs full re-validation on streamed store
/// ingest: a seeded member/fact stream over the case schema is fed
/// batch-by-batch into two [`odc_store::FactStore`]s — the left commits
/// with full re-validation after every batch (the oracle), the right
/// checks only the delta. A deterministic mutation keyed by the case id
/// appends a final batch that is invalid only against the committed
/// history (orphan, double same-category parent, duplicate key,
/// non-base fact, dangling parent), so cross-batch acceptance must
/// agree too.
fn ingest_full(ds: &DimensionSchema, case: &FuzzCase) -> Vec<PairResult> {
    use odc_core::instance::text::quote;
    use odc_rand::rngs::StdRng;
    use odc_rand::SeedableRng;

    let g = ds.hierarchy();
    let Some(bottom) = g.category_by_name(&case.bottom) else {
        return vec![PairResult {
            query: "ingest".into(),
            left: Observation::error(format!("no such category `{}`", case.bottom)),
            right: Observation::error(format!("no such category `{}`", case.bottom)),
        }];
    };
    let mut rng = StdRng::seed_from_u64(0x0dc5_70e1 ^ case.id);
    let d = match odc_workload::random_instance(ds, bottom, 24, 0.5, &mut rng) {
        Ok(d) => d,
        Err(_) => {
            // Unsatisfiable bottom: nothing to stream, non-comparable.
            let u = Observation::unknown("unsatisfiable bottom, no instance to stream");
            return vec![PairResult {
                query: "ingest".into(),
                left: u.clone(),
                right: u,
            }];
        }
    };

    // Parents-first member lines (parents have strictly fewer ancestors
    // than their children), then fact rows on the base members.
    let mut members: Vec<Member> = d.members().filter(|&m| m != Member::ALL).collect();
    members.sort_by_key(|&m| d.ancestors(m).len());
    let mut lines: Vec<String> = members
        .iter()
        .map(|&m| {
            let parents: Vec<String> = d
                .parents(m)
                .iter()
                .map(|&p| {
                    if p == Member::ALL {
                        "all".to_string()
                    } else {
                        quote(d.key(p))
                    }
                })
                .collect();
            let mut line = format!(
                "{} : {}",
                quote(d.key(m)),
                g.name(d.category_of(m))
            );
            if !parents.is_empty() {
                line.push_str(&format!(" < {}", parents.join(", ")));
            }
            line
        })
        .collect();
    for (m, v) in odc_workload::facts::random_fact_rows(&d, 32, &mut rng) {
        lines.push(format!("{} -> {v}", quote(d.key(m))));
    }

    // A tail batch that is invalid only in combination with the
    // committed prefix (or clean, for ids ≡ 0 mod 6).
    let tail: Option<String> = match case.id % 6 {
        1 => Some(format!("zz·orphan : {}", g.name(bottom))),
        2 => g
            .categories()
            .filter(|c| !c.is_all())
            .find_map(|c| {
                let in_c: Vec<Member> = members
                    .iter()
                    .copied()
                    .filter(|&m| d.category_of(m) == c)
                    .collect();
                if in_c.len() < 2 {
                    return None;
                }
                g.children(c)
                    .iter()
                    .find(|ch| !ch.is_all())
                    .map(|&ch| {
                        format!(
                            "zz·c2 : {} < {}, {}",
                            g.name(ch),
                            quote(d.key(in_c[0])),
                            quote(d.key(in_c[1]))
                        )
                    })
            })
            .or_else(|| Some(format!("zz·orphan : {}", g.name(bottom)))),
        3 => members.first().map(|&m| {
            format!("{} : {} < all", quote(d.key(m)), g.name(d.category_of(m)))
        }),
        4 => members
            .iter()
            .find(|&&m| !d.base_members().contains(&m))
            .map(|&m| format!("{} -> 1", quote(d.key(m)))),
        5 => Some(format!("zz·dangling : {} < zz·nowhere", g.name(bottom))),
        _ => None,
    };

    let mut full_store = odc_store::FactStore::new(vec![ds.clone()]);
    let mut inc_store = odc_store::FactStore::new(vec![ds.clone()]);
    let mut results = Vec::new();
    let mut batches: Vec<String> = lines.chunks(16).map(|c| c.join("\n")).collect();
    batches.extend(tail);
    let mut line_no = 1usize;
    for (k, src) in batches.iter().enumerate() {
        let batch = match odc_store::parse_batch(src, line_no) {
            Ok(b) => b,
            Err(e) => {
                // Parsing is shared; a parse failure is a generator bug,
                // not a differential signal.
                let o = Observation::error(format!("parse: {e}"));
                results.push(PairResult {
                    query: format!("ingest batch {k}"),
                    left: o.clone(),
                    right: o,
                });
                break;
            }
        };
        line_no += src.lines().count();
        // The incremental side's *complete* error set, for class
        // compatibility checks (its commit path reports only the first).
        let inc_all = inc_store.check_batch(&batch);
        let left_r = full_store.ingest_batch_full(&batch);
        let right_r = inc_store.ingest_batch(&batch);
        let left = ingest_obs(&left_r);
        let mut right = ingest_obs(&right_r);
        if let (Err(fe), Err(re)) = (&left_r, &right_r) {
            // Both reject: the full oracle's error class must be among
            // the classes the delta check found (rows may differ — the
            // oracle re-validates the world and loses stream positions).
            let compatible = match fe.condition() {
                Some(fc) => inc_all.iter().filter_map(|e| e.condition()).any(|c| c == fc),
                None => std::mem::discriminant(fe) == std::mem::discriminant(re),
            };
            right = right.with_witness(compatible);
            if !compatible {
                right.note = format!("full: {fe}; incremental: {re}");
            }
        }
        let rejected = left_r.is_err() || right_r.is_err();
        results.push(PairResult {
            query: format!("ingest batch {k}"),
            left,
            right,
        });
        if rejected {
            break;
        }
    }
    // After identical accept/reject histories the two stores must hold
    // identical columns.
    results.push(PairResult {
        query: "final store state".into(),
        left: Observation::decided(format!(
            "members={} facts={}",
            full_store.num_members(0),
            full_store.num_facts()
        )),
        right: Observation::decided(format!(
            "members={} facts={}",
            inc_store.num_members(0),
            inc_store.num_facts()
        )),
    });
    results
}

/// Reduces one ingest attempt to an [`Observation`].
fn ingest_obs(result: &Result<odc_store::BatchStats, odc_store::IngestError>) -> Observation {
    match result {
        Ok(stats) => {
            let mut o = Observation::decided("accept");
            o.note = format!("{} member(s), {} fact(s)", stats.members, stats.facts);
            o
        }
        Err(e) => Observation {
            verdict: "reject".into(),
            exit_code: 1,
            witness_valid: None,
            stats_ok: true,
            note: e.to_string(),
        },
    }
}

/// Trail-based kernel vs the clone-based one
/// ([`DimsatOptions::without_trail`]). The whole battery is meaningful
/// here; this is also where the planted sabotage lives.
fn trail_clone(ds: &DimensionSchema, case: &FuzzCase, ctx: &PairContext<'_>) -> Vec<PairResult> {
    let clone_opts = DimsatOptions::default().without_trail();
    case.queries
        .iter()
        .map(|q| {
            let left = answer_direct(ds, q, DimsatOptions::default());
            let mut right = answer_direct(ds, q, clone_opts);
            if ctx.sabotage {
                if let Query::Check(c) = q {
                    if *c == case.bottom {
                        right.verdict = match right.verdict.as_str() {
                            "sat" => "unsat".into(),
                            "unsat" => "sat".into(),
                            other => other.into(),
                        };
                        right.note = "sabotaged".into();
                    }
                }
            }
            PairResult {
                query: q.to_string(),
                left,
                right,
            }
        })
        .collect()
}

/// Serial category sweep vs the striped parallel one. Only the
/// `check` queries are differentiated; both sweeps also self-check
/// their counters (`decided == |sat| + |unsat|`).
fn serial_jobs(ds: &DimensionSchema, case: &FuzzCase, ctx: &PairContext<'_>) -> Vec<PairResult> {
    // Each sweep gets its own full budget; the parallel one splits it
    // across workers nondeterministically, so undecided categories are
    // non-comparable (`unknown` observations) rather than divergences.
    let serial = Dimsat::new(ds)
        .with_budget(case_budget())
        .unsatisfiable_categories();
    let par_solver = Dimsat::new(ds).with_budget(case_budget());
    let mut gov = par_solver.governor();
    let par = par_solver
        .unsatisfiable_categories_run(Run::new(&mut gov).jobs(ctx.jobs.max(2)));
    let g = ds.hierarchy();
    let side = |sweep: &odc_core::dimsat::CategorySweep, name: &str| -> Observation {
        let coherent = sweep.decided == sweep.sat.len() + sweep.unsat.len();
        let mut o = if sweep.sat.iter().any(|&c| g.name(c) == name) {
            Observation::decided("sat")
        } else if sweep.unsat.iter().any(|&c| g.name(c) == name) {
            Observation::decided("unsat")
        } else if sweep.aborted.iter().any(|&(c, _)| g.name(c) == name) {
            Observation::unknown("aborted")
        } else {
            Observation::unknown("undecided")
        };
        o.stats_ok = coherent;
        o
    };
    case.queries
        .iter()
        .filter_map(|q| match q {
            Query::Check(name) => Some(PairResult {
                query: q.to_string(),
                left: side(&serial, name),
                right: side(&par, name),
            }),
            _ => None,
        })
        .collect()
}

/// Naive Theorem-1 battery vs the plan-ordered one.
fn planned_noplan(ds: &DimensionSchema, case: &FuzzCase) -> Vec<PairResult> {
    case.queries
        .iter()
        .filter_map(|q| {
            let Query::Summarizable { target, sources } = q else {
                return None;
            };
            let g = ds.hierarchy();
            let c = g.category_by_name(target)?;
            let s: Vec<Category> = sources
                .iter()
                .filter_map(|n| g.category_by_name(n))
                .collect();
            if s.len() != sources.len() {
                return None;
            }
            let opts = DimsatOptions::default();
            let mut lgov = Governor::from_budget(case_budget());
            let left = is_summarizable_in_schema_run(ds, c, &s, opts, Run::new(&mut lgov));
            let mut gov = Governor::from_budget(case_budget());
            let planned = Run::new(&mut gov).planned(true);
            let right = is_summarizable_in_schema_run(ds, c, &s, opts, planned);
            Some(PairResult {
                query: q.to_string(),
                left: summarizability_obs(ds, &left),
                right: summarizability_obs(ds, &right),
            })
        })
        .collect()
}

/// Fresh uninterrupted solve vs a fault-interrupted-then-resumed one:
/// the anytime driver runs under a [`FaultPlan`] firing every 5th node
/// (capped at 3 injections so the retry loop terminates) and must still
/// land on the same verdict.
fn fault_resume(ds: &DimensionSchema, case: &FuzzCase) -> Vec<PairResult> {
    let g = ds.hierarchy();
    case.queries
        .iter()
        .filter_map(|q| {
            let Query::Check(name) = q else { return None };
            let c = g.category_by_name(name)?;
            let left = answer_direct(ds, q, DimsatOptions::default());
            let solver = Dimsat::new(ds);
            let plan = FaultPlan::new(FaultKind::Interrupt, FaultTrigger::EveryNthNode(5))
                .with_max_injections(3);
            // Attempt cap above the injection cap, so some late attempt
            // is guaranteed fault-free; escalation may decide what the
            // budgeted left side could not, which `compare` then skips.
            let report = AnytimeDriver::new(case_budget())
                .with_fault_plan(plan)
                .with_max_attempts(6)
                .solve(&solver, c, true);
            let mut right = obs_from_outcome(ds, &report.outcome);
            if report.attempts == 0 || u64::from(report.resumed) > u64::from(report.attempts) {
                right.stats_ok = false;
                right.note = format!(
                    "incoherent anytime counters: attempts={} resumed={}",
                    report.attempts, report.resumed
                );
            }
            Some(PairResult {
                query: q.to_string(),
                left,
                right,
            })
        })
        .collect()
}

/// Plain schema audit vs audits through the verdict repository: the
/// reference (serial, unplanned) audit cold then warm, a planned
/// `jobs = 3` audit cold then warm on a second store, and a planned
/// `jobs = 3` audit on a third store holding the sweep's `sat` records
/// only. The repository promises a byte-identical rendered report, so
/// each comparison is over a digest of the full render.
///
/// The serial legs (and the serial sweep that fills the sat-only store)
/// are strict: under the same node budget they run at most the solves the
/// plain audit ran, so an interrupt there is a divergence. Only a planned
/// `jobs = 3` audit that runs out of budget is non-comparable, because
/// its workers race for the budget.
fn repo_warm_cold(
    ds: &DimensionSchema,
    case: &FuzzCase,
    ctx: &PairContext<'_>,
) -> Result<Vec<PairResult>, PairError> {
    use odc_core::repo::VerdictRepo;
    let mut pgov = Governor::from_budget(case_budget());
    let plain = advisor::audit_run(ds, Run::new(&mut pgov)).render(ds);
    if pgov.interrupt().is_some() {
        // A partial plain audit has no byte-identical promise to hold the
        // repo drivers to; the whole comparison is non-comparable.
        let u = Observation::unknown("plain audit interrupted");
        return Ok(vec![PairResult {
            query: "audit".into(),
            left: u.clone(),
            right: u,
        }]);
    }
    let open = |tag: &str| {
        let dir = ctx.scratch.join(format!("repo-case{}-{tag}", case.id));
        std::fs::create_dir_all(&dir).map_err(|e| PairError::Setup(e.to_string()))?;
        let repo = VerdictRepo::open(&dir, Obs::none(), None)
            .map_err(|e| PairError::Setup(e.to_string()))?;
        Ok::<_, PairError>((dir, repo))
    };
    let audit = |repo: &VerdictRepo, planned: bool| -> Result<Observation, PairError> {
        let mut gov = Governor::from_budget(case_budget());
        let run = Run::new(&mut gov).jobs(if planned { 3 } else { 1 }).planned(planned);
        let report = advisor::audit_run(ds, run.cache(repo));
        if planned && report.interrupted.is_some() {
            return Ok(Observation::unknown("planned repository audit interrupted"));
        }
        let render = report.render(ds);
        let mut o = Observation::decided(format!("audit:{:016x}", fnv64(&render)));
        if render != plain {
            o.note = first_diff(&plain, &render);
        }
        Ok(o)
    };
    let mut right = Vec::new();
    let (dir, repo) = open("serial")?;
    right.push(("audit cold", audit(&repo, false)?));
    right.push(("audit warm", audit(&repo, false)?));
    let _ = std::fs::remove_dir_all(&dir);
    let (dir, repo) = open("planned")?;
    right.push(("audit planned jobs 3 cold", audit(&repo, true)?));
    right.push(("audit planned jobs 3 warm", audit(&repo, true)?));
    let _ = std::fs::remove_dir_all(&dir);
    let (dir, repo) = open("sat-only")?;
    let mut gov = Governor::from_budget(case_budget());
    let sweep = Dimsat::new(ds)
        .unsatisfiable_categories_run(Run::new(&mut gov).cache(&repo));
    let sat_warm = match sweep.interrupted {
        Some(i) => {
            let mut o = Observation::decided("sweep-interrupted");
            o.note = format!("serial repository sweep interrupted ({i:?}) where the plain audit was not");
            o
        }
        None => audit(&repo, true)?,
    };
    right.push(("audit planned jobs 3 sat-warm", sat_warm));
    let _ = std::fs::remove_dir_all(&dir);
    let left = Observation::decided(format!("audit:{:016x}", fnv64(&plain)));
    Ok(right
        .into_iter()
        .map(|(query, right)| PairResult {
            query: query.into(),
            left: left.clone(),
            right,
        })
        .collect())
}

fn fnv64(s: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn first_diff(a: &str, b: &str) -> String {
    for (la, lb) in a.lines().zip(b.lines()) {
        if la != lb {
            return format!("first diff: `{la}` vs `{lb}`");
        }
    }
    format!("length diff: {} vs {} lines", a.lines().count(), b.lines().count())
}

/// Live `odc serve` over a real socket (pipelined, tag-checked) vs the
/// one-shot library call. Compares verdicts *and* exit-code mapping;
/// a misdelivered response surfaces as [`PairError::Desync`].
fn serve_cli(
    ds: &DimensionSchema,
    case: &FuzzCase,
    ctx: &PairContext<'_>,
) -> Result<Vec<PairResult>, PairError> {
    let Some(server) = ctx.server else {
        return Err(PairError::Setup("no resident server in context".into()));
    };
    let name = server.next_schema_name();
    let mut client = Client::connect(server.addr())
        .map_err(|e| PairError::Setup(format!("connect: {e}")))?;
    let loaded = client
        .load(&name, &case.schema_text)
        .map_err(|e| PairError::Setup(format!("load: {e}")))?;
    let mut results = Vec::new();
    if !loaded.is_ok() {
        // The library parsed this exact text; a server-side rejection is
        // a real parser divergence, not a setup failure.
        results.push(PairResult {
            query: "load".into(),
            left: Observation::error(format!("server rejected schema: {}", loaded.status)),
            right: Observation::decided("loaded"),
        });
        return Ok(results);
    }
    let lines: Vec<String> = case
        .queries
        .iter()
        .map(|q| protocol_line(&name, q))
        .collect();
    let first_tag = case.id.wrapping_mul(1000) + 1;
    let responses = match client.pipeline_tagged(&lines, first_tag) {
        Ok(r) => r,
        Err(ClientError::Desync {
            expected,
            got,
            status,
        }) => {
            return Err(PairError::Desync {
                expected,
                got,
                status,
            })
        }
        Err(ClientError::Io(e)) => return Err(PairError::Setup(format!("pipeline: {e}"))),
    };
    for (q, resp) in case.queries.iter().zip(&responses) {
        results.push(PairResult {
            query: q.to_string(),
            left: response_obs(resp),
            right: answer_direct(ds, q, DimsatOptions::default()),
        });
    }
    let _ = client.request(&format!("unload {name}"));
    let _ = client.quit();
    Ok(results)
}

fn protocol_line(schema: &str, q: &Query) -> String {
    use odc_serve::protocol::quote_token;
    let mut line = match q {
        Query::Check(c) => format!("check {schema} {}", quote_token(c)),
        Query::Implies(src) => format!("implies {schema} {}", quote_token(src)),
        Query::Frozen(c) => format!("frozen {schema} {}", quote_token(c)),
        Query::Summarizable { target, sources } => {
            let mut line = format!("summarizable {schema} {}", quote_token(target));
            for s in sources {
                line.push(' ');
                line.push_str(&quote_token(s));
            }
            line
        }
    };
    // Same per-query allowance as every local executor.
    line.push_str(&format!(" --node-limit {CASE_NODE_LIMIT}"));
    line
}

/// Reduces a protocol response to the canonical verdict vocabulary.
fn response_obs(resp: &Response) -> Observation {
    match resp.status_word() {
        "ok" => {
            let first = resp.payload.lines().next().unwrap_or("");
            let verdict = if let Some(v) = first.strip_prefix("satisfiable: ") {
                match v {
                    "true" => "sat".to_string(),
                    _ => "unsat".to_string(),
                }
            } else if let Some(v) = first.strip_prefix("implied: ") {
                match v {
                    "true" => "implied".to_string(),
                    _ => "not-implied".to_string(),
                }
            } else if let Some(v) = first.strip_prefix("summarizable: ") {
                match v {
                    "true" => "summarizable".to_string(),
                    _ => "not-summarizable".to_string(),
                }
            } else if let Some(n) = first.split_whitespace().next().and_then(|t| t.parse::<usize>().ok())
            {
                format!("frozen={n}")
            } else {
                format!("unparsed: {first}")
            };
            Observation::decided(verdict)
        }
        "unknown" => Observation::unknown(resp.status.clone()),
        other => Observation::error(format!("{other}: {}", resp.status)),
    }
}

/// An in-process resident server for the [`Pair::ServeCli`] pair: bound
/// on a loopback ephemeral port, drained on drop.
pub struct ServerHarness {
    addr: std::net::SocketAddr,
    handle: ShutdownHandle,
    join: Option<std::thread::JoinHandle<std::io::Result<odc_serve::ServeStats>>>,
    counter: AtomicU64,
}

impl ServerHarness {
    /// Binds and serves in a background thread.
    pub fn start() -> std::io::Result<ServerHarness> {
        let server = Server::bind(ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        })?;
        let addr = server.local_addr();
        let handle = server.shutdown_handle();
        let join = std::thread::spawn(move || server.run());
        Ok(ServerHarness {
            addr,
            handle,
            join: Some(join),
            counter: AtomicU64::new(0),
        })
    }

    /// The bound loopback address.
    pub fn addr(&self) -> std::net::SocketAddr {
        self.addr
    }

    fn next_schema_name(&self) -> String {
        format!("fz{}", self.counter.fetch_add(1, Ordering::Relaxed))
    }
}

impl Drop for ServerHarness {
    fn drop(&mut self) {
        self.handle.drain();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diff::{compare, Pair};

    /// The ingest-full pair must exercise both verdicts — clean streams
    /// accepted by both stores, mutated tails rejected by both — and
    /// never diverge on the deterministic corpus.
    #[test]
    fn ingest_full_covers_accept_and_reject_without_divergence() {
        let scratch = std::env::temp_dir().join("odc-fuzz-ingest-test");
        let ctx = PairContext { sabotage: false, jobs: 1, scratch: &scratch, server: None };
        let (mut accepts, mut rejects) = (0usize, 0usize);
        for id in 0..24 {
            let Ok(cc) = odc_workload::case_for(7, id) else { continue };
            let Ok(case) = crate::case::FuzzCase::from_corpus(&cc) else { continue };
            let results = run_pair(Pair::IngestFull, &case, &ctx).expect("pair runs");
            for r in &results {
                assert!(
                    compare(&r.left, &r.right).is_none(),
                    "case {id} `{}` diverged: left={:?} right={:?}",
                    r.query,
                    r.left,
                    r.right
                );
                match r.left.verdict.as_str() {
                    "accept" => accepts += 1,
                    "reject" => rejects += 1,
                    _ => {}
                }
            }
        }
        assert!(accepts > 0, "corpus produced no accepted batches");
        assert!(rejects > 0, "mutation tails never fired — vacuous differential");
    }
}
