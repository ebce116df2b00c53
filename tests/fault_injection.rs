//! Deterministic fault-injection matrix: seeded fault schedules strike
//! governed searches at reproducible points, the interrupted run leaves a
//! checkpoint, and resuming the checkpoint reproduces the uninterrupted
//! run exactly — same enumeration, same verdicts, same counters (elapsed
//! wall time excepted) — on both the trail and the clone kernel, at every
//! driver level (solve, sweep, Theorem-1 battery, advisor audit). Plus
//! the two non-interrupt fault kinds: cancellation propagation and typed
//! worker panics.

use odc_rand::rngs::StdRng;
use odc_rand::{Rng, SeedableRng};
use olap_dimension_constraints::govern::{FaultKind, FaultPlan, FaultTrigger, InjectedPanic};
use olap_dimension_constraints::prelude::*;
use olap_dimension_constraints::summarizability::advisor;
use olap_dimension_constraints::summarizability::{
    is_summarizable_in_schema, is_summarizable_in_schema_run,
};
use olap_dimension_constraints::workload::{random_schema, SchemaGenParams};
use olap_dimension_constraints::InterruptReason;

fn ordered_fingerprints(frozen: &[FrozenDimension]) -> Vec<Vec<(usize, usize)>> {
    frozen
        .iter()
        .map(|f| {
            let mut edges: Vec<(usize, usize)> = f
                .subhierarchy()
                .edges()
                .map(|(a, b)| (a.index(), b.index()))
                .collect();
            edges.sort_unstable();
            edges
        })
        .collect()
}

/// All counters except `elapsed` (wall time legitimately differs between
/// an interrupted-and-resumed run and a clean one).
fn assert_stats_match(a: &odc_core::dimsat::SearchStats, b: &odc_core::dimsat::SearchStats, ctx: &str) {
    assert_eq!(a.expand_calls, b.expand_calls, "expand_calls {ctx}");
    assert_eq!(a.check_calls, b.check_calls, "check_calls {ctx}");
    assert_eq!(a.dead_ends, b.dead_ends, "dead_ends {ctx}");
    assert_eq!(
        a.assignments_tested, b.assignments_tested,
        "assignments_tested {ctx}"
    );
    assert_eq!(a.frozen_found, b.frozen_found, "frozen_found {ctx}");
    assert_eq!(a.struct_clones, b.struct_clones, "struct_clones {ctx}");
}

fn seeded_schemas(count: usize) -> Vec<DimensionSchema> {
    let mut rng = StdRng::seed_from_u64(0xFA017);
    let mut out = Vec::new();
    while out.len() < count {
        let params = SchemaGenParams {
            layers: rng.gen_range(2..4),
            width: rng.gen_range(1..4),
            extra_edge_prob: 0.35,
            into_fraction: rng.gen_range(0.0..1.0),
            constants_per_category: 2,
            exceptions: rng.gen_range(0..4),
            ordered_exceptions: 0,
        };
        let ds = random_schema(&params, &mut rng).unwrap();
        if ds.hierarchy().num_edges() <= 16 {
            out.push(ds);
        }
    }
    out
}

fn location_schema() -> DimensionSchema {
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/location.odcs"
    ))
    .expect("example schema ships with the repo");
    olap_dimension_constraints::parse_schema(&src).expect("example schema parses")
}

/// Seeded interrupt schedules against governed enumeration: wherever the
/// fault strikes, resuming the checkpoint completes the identical
/// enumeration with identical counters — on both kernels.
#[test]
fn seeded_interrupts_resume_to_identical_enumeration() {
    let schemas = seeded_schemas(6);
    let mut resumed_runs = 0u32;
    for (si, ds) in schemas.iter().enumerate() {
        let bottom = ds.hierarchy().category_by_name("B").unwrap();
        for opts in [DimsatOptions::default(), DimsatOptions::default().without_trail()] {
            let solver = Dimsat::with_options(ds, opts);
            let (clean_frozen, clean_out) = solver.enumerate_frozen(bottom);
            for seed in 0..8u64 {
                let plan = FaultPlan::new(
                    FaultKind::Interrupt,
                    FaultTrigger::Seeded {
                        seed,
                        per_mille: 120,
                    },
                )
                .with_max_injections(1);
                let mut gov = solver.governor().with_fault_plan(plan);
                let (_partial, out) = solver.enumerate_frozen_governed(bottom, &mut gov);
                let Some(intr) = out.interrupted else {
                    continue; // schedule never fired on this short search
                };
                assert_eq!(intr.reason, InterruptReason::FaultInjected, "schema {si}");
                let cp = out
                    .checkpoint
                    .expect("fault interrupt must leave a checkpoint");
                // Through the text format, like a process restart would.
                let cp = solver.load_checkpoint(&cp.to_text()).expect("roundtrip");
                let (resumed_frozen, resumed_out) =
                    solver.resume(&cp).expect("same schema+options resume");
                assert!(resumed_out.interrupted.is_none());
                assert_eq!(
                    ordered_fingerprints(&resumed_frozen),
                    ordered_fingerprints(&clean_frozen),
                    "schema {si} seed {seed} trail={}",
                    opts.trail_backtracking
                );
                assert_stats_match(
                    &resumed_out.stats,
                    &clean_out.stats,
                    &format!("schema {si} seed {seed}"),
                );
                resumed_runs += 1;
            }
        }
    }
    assert!(
        resumed_runs >= 10,
        "fault matrix exercised too few resumes ({resumed_runs})"
    );
}

/// Same matrix one driver up: an interrupted category sweep resumes to
/// the complete sweep, with verdicts and merged counters identical.
#[test]
fn seeded_interrupts_resume_sweeps_identically() {
    let ds = location_schema();
    let solver = Dimsat::new(&ds);
    let clean = solver.unsatisfiable_categories();
    assert!(clean.is_complete());
    let mut resumed_runs = 0u32;
    for seed in 0..12u64 {
        let plan = FaultPlan::new(
            FaultKind::Interrupt,
            FaultTrigger::Seeded {
                seed,
                per_mille: 60,
            },
        )
        .with_max_injections(1);
        let mut gov = solver.governor().with_fault_plan(plan);
        let sweep = solver
            .unsatisfiable_categories_run(Run::new(&mut gov))
            .expect("nothing to resume");
        if sweep.interrupted.is_none() {
            continue;
        }
        let Some(cp) = solver.sweep_checkpoint(&sweep) else {
            continue;
        };
        let cp = solver
            .load_sweep_checkpoint(&cp.to_text())
            .expect("roundtrip");
        let mut gov = solver.governor();
        let resumed = solver
            .unsatisfiable_categories_run(Run::new(&mut gov).resume(Some(&cp)))
            .expect("same schema resumes");
        assert!(resumed.is_complete(), "seed {seed}");
        assert_eq!(resumed.unsat, clean.unsat, "seed {seed}");
        assert_eq!(resumed.sat, clean.sat, "seed {seed}");
        assert_stats_match(&resumed.stats, &clean.stats, &format!("seed {seed}"));
        resumed_runs += 1;
    }
    assert!(resumed_runs >= 3, "sweep matrix too sparse ({resumed_runs})");
}

/// Theorem-1 battery: a fault mid-battery leaves an item-granular
/// checkpoint; resuming reaches the clean verdict with merged counters
/// equal to the uninterrupted battery.
#[test]
fn seeded_interrupts_resume_batteries_identically() {
    let ds = location_schema();
    let g = ds.hierarchy();
    let target = g.category_by_name("Country").unwrap();
    let sources = [g.category_by_name("City").unwrap()];
    let clean = is_summarizable_in_schema(&ds, target, &sources);
    let mut resumed_runs = 0u32;
    for seed in 0..12u64 {
        let plan = FaultPlan::new(
            FaultKind::Interrupt,
            FaultTrigger::Seeded {
                seed,
                per_mille: 80,
            },
        )
        .with_max_injections(1);
        let mut gov = Governor::unlimited().with_fault_plan(plan);
        let opts = DimsatOptions::default();
        let partial = is_summarizable_in_schema_run(&ds, target, &sources, opts, Run::new(&mut gov))
            .expect("nothing to resume");
        if !partial.is_unknown() {
            continue;
        }
        let cp = partial.checkpoint.expect("battery fault leaves checkpoint");
        let mut gov = Governor::unlimited();
        let run = Run::new(&mut gov).resume(Some(&cp));
        let resumed = is_summarizable_in_schema_run(&ds, target, &sources, opts, run)
            .expect("same schema resumes");
        assert_eq!(resumed.verdict, clean.verdict, "seed {seed}");
        assert_stats_match(&resumed.stats, &clean.stats, &format!("seed {seed}"));
        resumed_runs += 1;
    }
    assert!(
        resumed_runs >= 3,
        "battery matrix too sparse ({resumed_runs})"
    );
}

/// Advisor audit: wherever a seeded fault lands across the four stages,
/// the resumed audit reports exactly what the uninterrupted audit does.
#[test]
fn seeded_interrupts_resume_audits_identically() {
    let ds = location_schema();
    let clean = advisor::audit(&ds);
    let mut resumed_runs = 0u32;
    for seed in 0..10u64 {
        let plan = FaultPlan::new(
            FaultKind::Interrupt,
            FaultTrigger::Seeded {
                seed,
                per_mille: 10,
            },
        )
        .with_max_injections(1);
        let mut gov = Governor::unlimited().with_fault_plan(plan);
        let partial = advisor::audit_run(&ds, Run::new(&mut gov)).expect("nothing to resume");
        let Some(cp) = partial.checkpoint else {
            assert!(partial.interrupted.is_none());
            continue;
        };
        let mut gov = Governor::unlimited();
        let resumed = advisor::audit_run(&ds, Run::new(&mut gov).resume(Some(&cp)))
            .expect("same schema resumes");
        assert!(resumed.interrupted.is_none(), "seed {seed}");
        assert_eq!(resumed.unsatisfiable, clean.unsatisfiable, "seed {seed}");
        assert_eq!(
            resumed.redundant_constraints, clean.redundant_constraints,
            "seed {seed}"
        );
        assert_eq!(resumed.structure_census, clean.structure_census, "seed {seed}");
        assert_eq!(resumed.safe_rewrites, clean.safe_rewrites, "seed {seed}");
        assert_stats_match(&resumed.stats, &clean.stats, &format!("seed {seed}"));
        resumed_runs += 1;
    }
    assert!(resumed_runs >= 3, "audit matrix too sparse ({resumed_runs})");
}

/// A `Cancel` fault flips the shared token: the search stops with
/// `Cancelled`, and any sibling watching the same token sees the flip.
#[test]
fn cancel_fault_propagates_through_the_shared_token() {
    let ds = location_schema();
    let bottom = ds.hierarchy().category_by_name("Store").unwrap();
    let cancel = CancelToken::new();
    let plan = FaultPlan::new(FaultKind::Cancel, FaultTrigger::EveryNthNode(10));
    let mut gov =
        Governor::new(Budget::unlimited(), cancel.clone()).with_fault_plan(plan.clone());
    let out = Dimsat::new(&ds).category_satisfiable_governed(bottom, &mut gov);
    // Decision mode may find a witness before node 10; only assert on the
    // runs the fault actually reached.
    if let Some(intr) = out.interrupt() {
        assert_eq!(intr.reason, InterruptReason::Cancelled);
        assert!(cancel.is_cancelled(), "the shared token must be flipped");
        assert!(plan.injections() >= 1);
    }
    let (_, enum_out) = {
        let cancel = CancelToken::new();
        let plan = FaultPlan::new(FaultKind::Cancel, FaultTrigger::EveryNthNode(10));
        let mut gov = Governor::new(Budget::unlimited(), cancel.clone()).with_fault_plan(plan);
        let r = Dimsat::new(&ds).enumerate_frozen_governed(bottom, &mut gov);
        assert!(cancel.is_cancelled());
        r
    };
    assert_eq!(
        enum_out.interrupted.map(|i| i.reason),
        Some(InterruptReason::Cancelled)
    );
}

/// A `Panic` fault carries a typed payload, so crash-recovery tests can
/// tell an injected crash from an organic bug.
#[test]
fn panic_fault_is_downcastable() {
    let ds = location_schema();
    let bottom = ds.hierarchy().category_by_name("Store").unwrap();
    let plan = FaultPlan::new(FaultKind::Panic, FaultTrigger::EveryNthNode(5));
    let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut gov = Governor::unlimited().with_fault_plan(plan);
        Dimsat::new(&ds).enumerate_frozen_governed(bottom, &mut gov)
    }))
    .expect_err("the planned panic must fire");
    let injected = err
        .downcast_ref::<InjectedPanic>()
        .expect("typed InjectedPanic payload");
    assert_eq!(injected.site, "node");
}

/// The anytime driver rides out a capped fault schedule: each injection
/// costs one resume, and once the allowance is consumed the run decides.
#[test]
fn anytime_driver_rides_out_capped_faults() {
    use olap_dimension_constraints::dimsat::AnytimeDriver;
    let ds = location_schema();
    let bottom = ds.hierarchy().category_by_name("Store").unwrap();
    let solver = Dimsat::new(&ds);
    let clean = solver.enumerate_frozen(bottom);
    let plan = FaultPlan::new(FaultKind::Interrupt, FaultTrigger::EveryNthNode(7))
        .with_max_injections(3);
    let report = AnytimeDriver::new(Budget::unlimited())
        .with_max_attempts(8)
        .with_fault_plan(plan.clone())
        .solve(&solver, bottom, false);
    assert!(report.outcome.interrupted.is_none(), "driver must finish");
    assert_eq!(plan.injections(), 3, "every allowed fault fired");
    assert_eq!(report.attempts, 4, "one attempt per injection, plus the clean one");
    assert_eq!(report.resumed, 3);
    assert_eq!(
        ordered_fingerprints(&report.found),
        ordered_fingerprints(&clean.0)
    );
    assert_stats_match(&report.outcome.stats, &clean.1.stats, "anytime");
}
