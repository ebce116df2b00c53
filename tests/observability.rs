//! Integration tests for the structured observability layer (`odc-obs`):
//! the event stream must agree with the returned statistics, heartbeats
//! must surface during budget-limited solves, and a panic inside any
//! parallel driver's worker must propagate instead of being silently
//! converted into a normal verdict.

use olap_dimension_constraints::prelude::*;
use olap_dimension_constraints::summarizability::advisor;
use std::panic::AssertUnwindSafe;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn location_schema() -> DimensionSchema {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("examples/location.odcs");
    let src = std::fs::read_to_string(&p).expect("read location.odcs");
    odc_core::parse_schema(&src).expect("parse location.odcs")
}

fn store(ds: &DimensionSchema) -> Category {
    ds.hierarchy().category_by_name("Store").expect("Store")
}

/// The category sweep over `jobs` workers on the solver's governor.
fn sweep_jobs(solver: &Dimsat<'_>, jobs: usize) -> odc_core::dimsat::CategorySweep {
    let mut gov = solver.governor();
    solver
        .unsatisfiable_categories_run(Run::new(&mut gov).jobs(jobs))
}

/// The counters carried on the `solve_end` event are the same numbers
/// the solver returns in its `SearchStats`, and the fine-grained event
/// stream (prunes, checks) is consistent with them.
#[test]
fn collected_events_match_outcome_stats() {
    let ds = location_schema();
    let collector = Arc::new(CollectingObserver::new());
    let (frozen, outcome) = Dimsat::new(&ds)
        .with_observer(Obs::new(collector.clone()))
        .enumerate_frozen(store(&ds));
    assert!(!frozen.is_empty());

    let events = collector.events();
    let starts: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            olap_dimension_constraints::obs::Event::Start(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    let ends: Vec<_> = events
        .iter()
        .filter_map(|e| match e {
            olap_dimension_constraints::obs::Event::End(s) => Some(s.clone()),
            _ => None,
        })
        .collect();
    assert_eq!(starts.len(), 1, "one solve lifecycle");
    assert_eq!(ends.len(), 1);
    assert_eq!(starts[0].root, "Store");
    assert_eq!(starts[0].mode, "enumerate");
    assert_eq!(starts[0].solve_id, ends[0].solve_id);
    assert_eq!(ends[0].verdict, "sat");
    assert!(ends[0].interrupt.is_none());

    let c = &ends[0].counters;
    assert_eq!(c.expand_calls, outcome.stats.expand_calls);
    assert_eq!(c.check_calls, outcome.stats.check_calls);
    assert_eq!(c.dead_ends, outcome.stats.dead_ends);
    assert_eq!(c.late_rejections, outcome.stats.late_rejections);
    assert_eq!(c.frozen_found, frozen.len() as u64);

    // Every CHECK produced exactly one check_outcome event.
    let checks = events
        .iter()
        .filter(|e| matches!(e, olap_dimension_constraints::obs::Event::Check(..)))
        .count() as u64;
    assert_eq!(checks, outcome.stats.check_calls);
}

/// Two interleaved solves under one observer stay distinguishable: each
/// gets a fresh nonzero solve id.
#[test]
fn solve_ids_are_unique_per_solve() {
    let ds = location_schema();
    let collector = Arc::new(CollectingObserver::new());
    let solver = Dimsat::new(&ds).with_observer(Obs::new(collector.clone()));
    solver.enumerate_frozen(store(&ds));
    solver.enumerate_frozen(store(&ds));
    let ids: Vec<u64> = collector
        .events()
        .iter()
        .filter_map(|e| match e {
            olap_dimension_constraints::obs::Event::Start(s) => Some(s.solve_id),
            _ => None,
        })
        .collect();
    assert_eq!(ids.len(), 2);
    assert_ne!(ids[0], ids[1]);
    assert!(ids.iter().all(|&id| id != 0), "0 is the disabled sentinel");
}

/// A budget-limited solve surfaces heartbeats carrying the consumed
/// budget fraction (at a zero interval, one per governor poll).
#[test]
fn heartbeats_surface_during_budget_limited_solve() {
    let ds = location_schema();
    let collector = Arc::new(CollectingObserver::new());
    let (_, outcome) = Dimsat::new(&ds)
        .with_budget(Budget::unlimited().with_node_limit(1_000))
        .with_observer(Obs::new(collector.clone()))
        .with_heartbeat_interval(Duration::ZERO)
        .enumerate_frozen(store(&ds));
    assert!(outcome.interrupted.is_none());
    let beats: Vec<_> = collector
        .events()
        .iter()
        .filter_map(|e| match e {
            olap_dimension_constraints::obs::Event::Heartbeat(hb) => Some(hb.clone()),
            _ => None,
        })
        .collect();
    assert!(!beats.is_empty(), "polls must emit heartbeats at interval 0");
    for hb in &beats {
        let frac = hb
            .budget_fraction
            .expect("node-limited solve reports a budget fraction");
        assert!((0.0..=1.0).contains(&frac), "fraction {frac}");
    }
}

/// An observer that panics inside the callbacks a worker thread runs —
/// a stand-in for any bug inside worker code.
struct PanickingObserver;

impl Observer for PanickingObserver {
    fn worker_finished(&self, _w: &olap_dimension_constraints::obs::WorkerStats) {
        panic!("injected worker panic");
    }
}

/// A worker panic in the parallel category sweep propagates to the
/// caller instead of yielding a normal (empty) sweep report.
#[test]
fn sweep_worker_panic_is_not_swallowed() {
    let ds = location_schema();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        sweep_jobs(
            &Dimsat::new(&ds).with_observer(Obs::new(Arc::new(PanickingObserver))),
            2,
        )
    }));
    assert!(result.is_err(), "the sweep must not report a verdict");
}

/// A worker panic in the parallel Theorem-1 battery propagates.
#[test]
fn theorem1_worker_panic_is_not_swallowed() {
    // The battery builds one constraint per bottom category, so a schema
    // with two bottoms is the smallest one that actually fans out.
    let ds = odc_core::parse_schema(
        "hierarchy:\n  A > X\n  B > X\n  X > All\n\nconstraints:\n  A_X\n  B_X\n",
    )
    .expect("two-bottom schema");
    let target = ds.hierarchy().category_by_name("X").expect("X");
    let source = ds.hierarchy().category_by_name("A").expect("A");
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut gov = Governor::unlimited().with_observer(Obs::new(Arc::new(PanickingObserver)));
        let run = Run::new(&mut gov).jobs(2);
        is_summarizable_in_schema_run(&ds, target, &[source], DimsatOptions::default(), run)
    }));
    assert!(result.is_err(), "the battery must not report a verdict");
}

/// A worker panic in the parallel audit propagates.
#[test]
fn audit_worker_panic_is_not_swallowed() {
    let ds = location_schema();
    let result = std::panic::catch_unwind(AssertUnwindSafe(|| {
        let mut gov = Governor::unlimited().with_observer(Obs::new(Arc::new(PanickingObserver)));
        advisor::audit_run(&ds, Run::new(&mut gov).jobs(2))
    }));
    assert!(result.is_err(), "the audit must not report a verdict");
}

/// Regression (bug: the `--repo --jobs` warm probe ran a real audit
/// under a zero-node budget and clobbered pending resume cursors): an
/// audit whose every item the repository holds is silent and
/// side-effect-free. Serial or planned over workers, it reproduces the
/// cold audit byte-for-byte with no `solve_start`, all-zero counters,
/// no write, and a pending cursor left by an earlier run untouched.
#[test]
fn repo_warm_probe_is_silent_and_side_effect_free() {
    use odc_core::repo::VerdictRepo;
    let ds = location_schema();
    let g = ds.hierarchy();
    let dir = std::env::temp_dir().join(format!("odc-obs-warmprobe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let repo = VerdictRepo::open(&dir, Obs::none(), None).expect("open repo");

    let mut gov = Governor::unlimited();
    let cold = advisor::audit_run(&ds, Run::new(&mut gov).jobs(2).planned(true).cache(&repo));
    assert!(cold.interrupted.is_none());
    // A (fake) pending census cursor standing in for a previous
    // interrupted run's warm start.
    let census_key = odc_core::repo::sub_key(&ds, "census", g.name(store(&ds)));
    repo.put_pending(census_key.clone(), "cursor-from-previous-run".to_string())
        .expect("store pending cursor");

    for (jobs, plan) in [(1, false), (2, true)] {
        let collector = Arc::new(CollectingObserver::new());
        let mut gov = Governor::unlimited().with_observer(Obs::new(collector.clone()));
        let puts = repo.stats().puts;
        let warm = advisor::audit_run(&ds, Run::new(&mut gov).jobs(jobs).planned(plan).cache(&repo));
        let ctx = format!("jobs={jobs} plan={plan}");
        assert_eq!(warm.render(&ds), cold.render(&ds), "{ctx}");
        let solves = collector
            .events()
            .iter()
            .filter(|e| matches!(e, olap_dimension_constraints::obs::Event::Start(_)))
            .count();
        assert_eq!(solves, 0, "a warm audit solves nothing ({ctx})");
        assert_eq!(warm.stats.expand_calls, 0, "{ctx}");
        assert_eq!(warm.stats.check_calls, 0, "{ctx}");
        assert_eq!(repo.stats().puts, puts, "a warm audit writes nothing ({ctx})");
        assert_eq!(
            repo.pending(&census_key).as_deref(),
            Some("cursor-from-previous-run"),
            "a warm audit must not clobber pending resume cursors ({ctx})"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// The cold planned parallel audit — the path a repo-backed `--jobs`
/// check falls to when the probe misses — emits a well-formed event
/// stream: every `solve_start` paired with exactly one `solve_end`, and
/// exactly one `plan` summary for the whole audit.
#[test]
fn planned_parallel_audit_emits_paired_solve_events_and_plan_summary() {
    let ds = location_schema();
    let collector = Arc::new(CollectingObserver::new());
    let mut gov = Governor::unlimited().with_observer(Obs::new(collector.clone()));
    let report = advisor::audit_run(&ds, Run::new(&mut gov).jobs(2).planned(true));
    assert!(report.interrupted.is_none());
    let events = collector.events();
    let mut starts: Vec<u64> = Vec::new();
    let mut ends: Vec<u64> = Vec::new();
    let mut plans = Vec::new();
    for e in &events {
        match e {
            olap_dimension_constraints::obs::Event::Start(s) => starts.push(s.solve_id),
            olap_dimension_constraints::obs::Event::End(s) => ends.push(s.solve_id),
            olap_dimension_constraints::obs::Event::Plan(p) => plans.push(p.clone()),
            _ => {}
        }
    }
    starts.sort_unstable();
    ends.sort_unstable();
    assert_eq!(starts, ends, "every solve_start pairs with one solve_end");
    assert_eq!(plans.len(), 1, "one plan summary per audit");
    assert_eq!(plans[0].battery, "schema_audit");
    assert!(plans[0].queries > 0);
    assert!(
        plans[0].batched > 0,
        "the location audit's rewrite matrix is pool-answerable"
    );
}

/// Parallel batteries tag per-worker statistics with distinct worker ids
/// and the battery label.
#[test]
fn parallel_sweep_reports_labeled_worker_stats() {
    let ds = location_schema();
    let collector = Arc::new(CollectingObserver::new());
    let report = sweep_jobs(&Dimsat::new(&ds).with_observer(Obs::new(collector.clone())), 3);
    assert!(report.is_complete());
    let workers: Vec<_> = collector
        .events()
        .iter()
        .filter_map(|e| match e {
            olap_dimension_constraints::obs::Event::Worker(w) => Some(w.clone()),
            _ => None,
        })
        .collect();
    assert!(!workers.is_empty());
    assert!(workers.iter().all(|w| w.battery == "category_sweep"));
    let mut ids: Vec<u64> = workers.iter().map(|w| w.worker).collect();
    ids.sort_unstable();
    ids.dedup();
    assert_eq!(ids.len(), workers.len(), "worker ids must be distinct");
}
