//! One seeded parity matrix for the three battery drivers: the category
//! sweep, the Theorem-1 battery and the four-stage advisor audit.
//!
//! Every family runs under each `Run` in {unplanned, planned} × {1, 3}
//! jobs on every catalog schema plus seeded draws. For each run:
//!
//! - a complete run reports exactly what the unplanned serial run does,
//!   and that run matches a naive per-item reference written here
//!   against the solver primitives (so a fault shared by every mode —
//!   the runner, the merge — still shows);
//! - a run interrupted at seeded node limits through an item cache
//!   reports a partial result whenever its governor tripped, and a run
//!   against that cache (through its checkpoint file), serially and in
//!   parallel, finishes with the clean verdicts;
//! - an unplanned serial sweep and its serial resume together carry
//!   exactly the clean sweep's counters (wall time excepted): decided
//!   categories answer from the cache, the cut one resumes its cursor.

use odc_rand::rngs::StdRng;
use odc_rand::{Rng, SeedableRng};
use olap_dimension_constraints::dimsat::{AuditItem, CategorySweep, ItemAnswer, ItemCache, SearchStats};
use olap_dimension_constraints::prelude::*;
use olap_dimension_constraints::repo::ResumeCache;
use olap_dimension_constraints::summarizability::advisor::{self, rewrite_pairs, SchemaReport};
use olap_dimension_constraints::summarizability::SummarizabilityOutcome;
use olap_dimension_constraints::workload::{catalog, random_schema, SchemaGenParams};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The four runs of the matrix: (planned, jobs).
const RUNS: [(bool, usize); 4] = [(false, 1), (false, 3), (true, 1), (true, 3)];

/// Interrupted runs per schema and run.
const CUTS: usize = 3;

/// A summarizability query: target and sources.
type Query = (Category, Vec<Category>);

/// Matrix inputs: every catalog schema with its summarizability queries,
/// seeded random draws, and a schema whose Σ repeats a constraint (so
/// the planner aliases one query to another).
fn inputs() -> Vec<(String, DimensionSchema, Vec<Query>)> {
    let mut out = Vec::new();
    for entry in catalog() {
        let mut queries = entry.queries.clone();
        queries.extend(extra_queries(&entry.schema));
        out.push((entry.name.to_string(), entry.schema, queries));
    }
    let mut rng = StdRng::seed_from_u64(0xBA77E2);
    for round in 0..3 {
        let ds = random_schema(
            &SchemaGenParams {
                layers: 3,
                width: rng.gen_range(2..4),
                extra_edge_prob: 0.3,
                into_fraction: 0.6,
                constants_per_category: 2,
                exceptions: rng.gen_range(1..3),
                ordered_exceptions: 0,
            },
            &mut rng,
        )
        .expect("seeded schema");
        let queries = extra_queries(&ds);
        out.push((format!("random-{round}"), ds, queries));
    }
    let location = catalog()
        .into_iter()
        .next()
        .expect("catalog is non-empty")
        .schema;
    let repeated = location.with_constraint(location.constraints()[0].clone());
    assert!(
        odc_core::plan::SchemaPlan::for_schema(&repeated)
            .battery
            .stats
            .deduped
            > 0,
        "the repeated constraint must alias"
    );
    let queries = extra_queries(&repeated);
    out.push(("location-repeated".into(), repeated, queries));
    out
}

/// A few single- and two-source queries over the schema's rewrite pairs.
fn extra_queries(ds: &DimensionSchema) -> Vec<Query> {
    let pairs = rewrite_pairs(ds.hierarchy());
    let mut q: Vec<Query> = pairs
        .iter()
        .step_by((pairs.len() / 4).max(1))
        .map(|&(coarse, fine)| (coarse, vec![fine]))
        .collect();
    if let (Some(&(c, a)), Some(&(_, b))) =
        (pairs.first(), pairs.iter().find(|p| p.1 != pairs[0].1))
    {
        q.push((c, vec![a, b]));
    }
    q
}

/// A node limit that cuts a run needing `nodes` nodes somewhere inside.
fn cut(rng: &mut StdRng, nodes: u64) -> u64 {
    rng.gen_range(1..nodes.max(2))
}

fn limited(limit: u64) -> Governor {
    Governor::new(
        Budget::unlimited().with_node_limit(limit),
        CancelToken::new(),
    )
}

/// A cut run's checkpoint file, loaded back as the cache to resume with.
fn reload(ds: &DimensionSchema, cache: &ResumeCache) -> ResumeCache {
    ResumeCache::load(ds, &cache.to_bytes()).expect("roundtrip")
}

/// Every counter except wall time.
fn counters(s: &SearchStats) -> [u64; 10] {
    [
        s.expand_calls,
        s.check_calls,
        s.dead_ends,
        s.late_rejections,
        s.assignments_tested,
        s.frozen_found,
        s.struct_clones,
        s.cache_hits,
        s.cache_misses,
        s.cache_collisions,
    ]
}

// ── the category sweep ──────────────────────────────────────────────

fn sweep(
    solver: &Dimsat<'_>,
    gov: &mut Governor,
    (plan, jobs): (bool, usize),
    cache: Option<&ResumeCache>,
) -> CategorySweep {
    let run = Run {
        cache: cache.map(|k| k as _),
        ..Run::new(gov).jobs(jobs).planned(plan)
    };
    solver.unsatisfiable_categories_run(run)
}

fn render_sweep(ds: &DimensionSchema, s: &CategorySweep) -> String {
    let g = ds.hierarchy();
    let names = |cs: &[Category]| cs.iter().map(|&c| g.name(c)).collect::<Vec<_>>().join(",");
    let aborted: Vec<Category> = s.aborted.iter().map(|&(c, _)| c).collect();
    format!(
        "sat {}\nunsat {}\naborted {}\nundecided {}\ndecided {}\n",
        names(&s.sat),
        names(&s.unsat),
        names(&aborted),
        names(&s.undecided),
        s.decided
    )
}

/// The sweep one category at a time.
fn naive_sweep(ds: &DimensionSchema) -> String {
    let solver = Dimsat::new(ds);
    let mut s = CategorySweep::default();
    for c in ds.hierarchy().categories().filter(|c| !c.is_all()) {
        match solver.category_satisfiable(c).verdict {
            Verdict::Sat(_) => s.sat.push(c),
            Verdict::Unsat => s.unsat.push(c),
            Verdict::Unknown(i) => {
                assert_eq!(i.reason, InterruptReason::FanoutOverflow);
                s.aborted.push((c, i.reason));
            }
        }
    }
    s.decided = s.sat.len() + s.unsat.len();
    render_sweep(ds, &s)
}

#[test]
fn sweep_matrix() {
    let mut rng = StdRng::seed_from_u64(0x5EE9);
    let mut resumed = 0;
    for (name, ds, _) in inputs() {
        let solver = Dimsat::new(&ds);
        let mut gov = Governor::unlimited();
        let clean = sweep(&solver, &mut gov, (false, 1), None);
        let nodes = gov.nodes();
        let want = render_sweep(&ds, &clean);
        assert_eq!(want, naive_sweep(&ds), "{name}: reference");
        for run in RUNS {
            let ctx = format!("{name} {run:?}");
            let full = sweep(&solver, &mut Governor::unlimited(), run, None);
            assert_eq!(render_sweep(&ds, &full), want, "{ctx}");
            for _ in 0..CUTS {
                let limit = cut(&mut rng, nodes);
                let mut gov = limited(limit);
                let cache = ResumeCache::new(&ds);
                let partial = sweep(&solver, &mut gov, run, Some(&cache));
                let ctx = format!("{ctx} limit {limit}");
                assert_eq!(
                    gov.interrupt().is_some(),
                    partial.interrupted.is_some(),
                    "{ctx}"
                );
                if partial.interrupted.is_none() {
                    assert_eq!(render_sweep(&ds, &partial), want, "{ctx}");
                    continue;
                }
                for resume_jobs in [1, 3] {
                    let mut gov = Governor::unlimited();
                    let cache = reload(&ds, &cache);
                    let merged = sweep(&solver, &mut gov, (run.0, resume_jobs), Some(&cache));
                    assert_eq!(
                        render_sweep(&ds, &merged),
                        want,
                        "{ctx} resumed x{resume_jobs}"
                    );
                    resumed += 1;
                    if run == (false, 1) && resume_jobs == 1 {
                        let mut both = partial.stats.clone();
                        both.absorb(&merged.stats);
                        assert_eq!(counters(&both), counters(&clean.stats), "{ctx}");
                    }
                }
            }
        }
    }
    println!("sweep matrix: {resumed} resumed runs");
    assert!(resumed >= 100, "too few interrupted sweeps ({resumed})");
}

// ── the Theorem-1 battery ───────────────────────────────────────────

fn battery(
    ds: &DimensionSchema,
    (c, s): (Category, &[Category]),
    gov: &mut Governor,
    (plan, jobs): (bool, usize),
    cache: Option<&ResumeCache>,
) -> SummarizabilityOutcome {
    let run = Run {
        cache: cache.map(|k| k as _),
        ..Run::new(gov).jobs(jobs).planned(plan)
    };
    is_summarizable_in_schema_run(ds, c, s, DimsatOptions::default(), run)
}

/// The bottoms whose Theorem-1 constraint fails, one implication at a
/// time.
fn naive_failing(ds: &DimensionSchema, c: Category, s: &[Category]) -> Vec<Category> {
    summarizability_constraints(ds.hierarchy(), c, s)
        .iter()
        .filter(|dc| !implies(ds, dc).implied())
        .map(|dc| dc.root())
        .collect()
}

/// A decided verdict agrees with the reference: summarizable iff no
/// bottom fails, and a refutation names a failing bottom with a genuine
/// countermodel.
fn check_verdict(
    ds: &DimensionSchema,
    out: &SummarizabilityOutcome,
    failing: &[Category],
    ctx: &str,
) {
    match out.verdict {
        SummarizabilityVerdict::Summarizable => assert!(failing.is_empty(), "{ctx}"),
        SummarizabilityVerdict::NotSummarizable => {
            let b = out.failing_bottom.expect("failing bottom");
            assert!(failing.contains(&b), "{ctx}: {b:?} does not fail");
            let cx = out.counterexample.as_ref().expect("countermodel");
            assert_eq!(cx.verify(ds), Ok(()), "{ctx}");
        }
        SummarizabilityVerdict::Unknown(i) => panic!("{ctx}: undecided ({i})"),
    }
}

#[test]
fn theorem1_matrix() {
    let mut rng = StdRng::seed_from_u64(0x7E01);
    let mut resumed = 0;
    let mut mid = 0;
    for (name, ds, queries) in inputs() {
        for (c, s) in &queries {
            let q = (*c, &s[..]);
            let failing = naive_failing(&ds, *c, s);
            let mut gov = Governor::unlimited();
            let clean = battery(&ds, q, &mut gov, (false, 1), None);
            let nodes = gov.nodes();
            let base = format!("{name} {c:?}<-{s:?}");
            check_verdict(&ds, &clean, &failing, &base);
            // Serial and unplanned, the countermodel is the first failing
            // bottom's.
            assert_eq!(clean.failing_bottom, failing.first().copied(), "{base}");
            for run in RUNS {
                let ctx = format!("{base} {run:?}");
                let full = battery(&ds, q, &mut Governor::unlimited(), run, None);
                assert_eq!(full.verdict, clean.verdict, "{ctx}");
                check_verdict(&ds, &full, &failing, &ctx);
                for _ in 0..CUTS {
                    let limit = cut(&mut rng, nodes);
                    let mut gov = limited(limit);
                    let cache = ResumeCache::new(&ds);
                    let partial = battery(&ds, q, &mut gov, run, Some(&cache));
                    let ctx = format!("{ctx} limit {limit}");
                    if !partial.is_unknown() {
                        check_verdict(&ds, &partial, &failing, &ctx);
                        continue;
                    }
                    assert!(gov.interrupt().is_some(), "{ctx}");
                    // The pending record lists the bottoms already proved.
                    let item = AuditItem::Query(*c, s.clone());
                    mid += usize::from(cache.pending(&ds, &item).is_some());
                    for resume_jobs in [1, 3] {
                        let cache = reload(&ds, &cache);
                        let merged = battery(
                            &ds,
                            q,
                            &mut Governor::unlimited(),
                            (run.0, resume_jobs),
                            Some(&cache),
                        );
                        let ctx = format!("{ctx} resumed x{resume_jobs}");
                        assert_eq!(merged.verdict, clean.verdict, "{ctx}");
                        check_verdict(&ds, &merged, &failing, &ctx);
                        resumed += 1;
                        if run == (false, 1) && resume_jobs == 1 {
                            assert_eq!(merged.failing_bottom, clean.failing_bottom, "{ctx}");
                        }
                    }
                }
            }
        }
    }
    println!("theorem-1 matrix: {resumed} resumed runs, {mid} cut past the first bottom");
    assert!(resumed >= 100, "too few interrupted batteries ({resumed})");
    assert!(
        mid >= 10,
        "too few batteries cut past their first bottom ({mid})"
    );
}

// ── the advisor audit ───────────────────────────────────────────────

fn audit(
    ds: &DimensionSchema,
    gov: &mut Governor,
    (plan, jobs): (bool, usize),
    cache: Option<&dyn ItemCache>,
) -> SchemaReport {
    let run = Run {
        cache,
        ..Run::new(gov).jobs(jobs).planned(plan)
    };
    advisor::audit_run(ds, run)
}

/// The audit stages in the order they run.
const STAGES: [&str; 4] = ["sweep", "redundancy", "census", "rewrites"];

/// An item cache that notes the latest audit stage it was asked about:
/// stages run in order, so after an interrupt it is the stage cut.
struct StageProbe<'a> {
    inner: &'a ResumeCache,
    stage: AtomicUsize,
}

impl ItemCache for StageProbe<'_> {
    fn get(&self, ds: &DimensionSchema, item: &AuditItem) -> Option<ItemAnswer> {
        let stage = match item {
            AuditItem::Sat(_) => 0,
            AuditItem::Redundant(_) => 1,
            AuditItem::Census(_) => 2,
            AuditItem::Rewrite(..) | AuditItem::Query(..) => 3,
        };
        self.stage.fetch_max(stage, Ordering::Relaxed);
        self.inner.get(ds, item)
    }
    fn put(&self, ds: &DimensionSchema, item: &AuditItem, answer: ItemAnswer) {
        self.inner.put(ds, item, answer);
    }
    fn pending(&self, ds: &DimensionSchema, item: &AuditItem) -> Option<String> {
        self.inner.pending(ds, item)
    }
    fn put_pending(&self, ds: &DimensionSchema, item: &AuditItem, cursor: String) {
        self.inner.put_pending(ds, item, cursor);
    }
}

/// The audit one query at a time, straight from the solver primitives.
fn naive_audit(ds: &DimensionSchema) -> String {
    let g = ds.hierarchy();
    let solver = Dimsat::new(ds);
    let mut r = SchemaReport::default();
    for c in g.categories().filter(|c| !c.is_all()) {
        match solver.category_satisfiable(c).verdict {
            Verdict::Unsat => r.unsatisfiable.push(c),
            Verdict::Unknown(i) => r.aborted_categories.push((c, i.reason)),
            Verdict::Sat(_) => {}
        }
    }
    for (i, dc) in ds.constraints().iter().enumerate() {
        let mut rest = ds.constraints().to_vec();
        rest.remove(i);
        if implies(&DimensionSchema::new(ds.hierarchy_arc(), rest), dc).implied() {
            r.redundant_constraints.push(i);
        }
    }
    for c in g.bottom_categories().into_iter().filter(|c| !c.is_all()) {
        r.structure_census
            .push((c, solver.enumerate_frozen(c).0.len()));
    }
    for (coarse, fine) in rewrite_pairs(g) {
        if naive_failing(ds, coarse, &[fine]).is_empty() {
            r.safe_rewrites.push((coarse, fine));
        }
    }
    r.render(ds)
}

#[test]
fn audit_matrix() {
    let mut rng = StdRng::seed_from_u64(0xAD17);
    let mut stages = std::collections::BTreeMap::new();
    for (name, ds, _) in inputs() {
        let mut gov = Governor::unlimited();
        let clean = audit(&ds, &mut gov, (false, 1), None);
        let nodes = gov.nodes();
        let want = clean.render(&ds);
        assert_eq!(want, naive_audit(&ds), "{name}: reference");
        for run in RUNS {
            let ctx = format!("{name} {run:?}");
            let full = audit(&ds, &mut Governor::unlimited(), run, None);
            assert_eq!(full.render(&ds), want, "{ctx}");
            for _ in 0..CUTS {
                let limit = cut(&mut rng, nodes);
                let mut gov = limited(limit);
                let cache = ResumeCache::new(&ds);
                let probe = StageProbe {
                    inner: &cache,
                    stage: AtomicUsize::new(0),
                };
                let partial = audit(&ds, &mut gov, run, Some(&probe));
                let ctx = format!("{ctx} limit {limit}");
                assert_eq!(
                    gov.interrupt().is_some(),
                    partial.interrupted.is_some(),
                    "{ctx}"
                );
                if partial.interrupted.is_none() {
                    assert_eq!(partial.render(&ds), want, "{ctx}");
                    continue;
                }
                let stage = STAGES[probe.stage.load(Ordering::Relaxed)];
                *stages.entry(stage).or_insert(0) += 1;
                for resume_jobs in [1, 3] {
                    let mut gov = Governor::unlimited();
                    let cache = reload(&ds, &cache);
                    let merged = audit(&ds, &mut gov, (run.0, resume_jobs), Some(&cache));
                    let ctx = format!("{ctx} resumed x{resume_jobs} at {stage}");
                    assert_eq!(merged.render(&ds), want, "{ctx}");
                }
            }
        }
    }
    println!("audit matrix: interrupted stages {stages:?}");
    assert_eq!(
        stages.len(),
        4,
        "every stage must be cut somewhere: {stages:?}"
    );
}
