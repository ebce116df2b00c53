//! Integration tests for the trail-based backtracking kernel and the
//! parallel batch drivers: the trail kernel must enumerate exactly what
//! the legacy clone-and-restore kernel enumerates (byte-identical, in
//! the same order) across seeded random workloads, and every parallel
//! driver must reach the same verdicts as its serial counterpart under a
//! shared budget.

use odc_rand::rngs::StdRng;
use odc_rand::{Rng, SeedableRng};
use olap_dimension_constraints::prelude::*;
use olap_dimension_constraints::summarizability::advisor;
use olap_dimension_constraints::workload::{random_schema, SchemaGenParams};

/// The category sweep under `run` options on the solver's governor.
fn sweep_with(
    solver: &Dimsat<'_>,
    gov: &mut Governor,
    jobs: usize,
    plan: bool,
    resume: Option<&olap_dimension_constraints::dimsat::SweepCheckpoint>,
) -> olap_dimension_constraints::dimsat::CategorySweep {
    let run = Run::new(gov).jobs(jobs).planned(plan).resume(resume);
    solver.unsatisfiable_categories_run(run).expect("same schema resumes")
}

/// The sweep over `jobs` workers on a fresh governor of the solver's.
fn sweep_jobs(
    solver: &Dimsat<'_>,
    jobs: usize,
) -> olap_dimension_constraints::dimsat::CategorySweep {
    sweep_with(solver, &mut solver.governor(), jobs, false, None)
}

/// Order-sensitive structural fingerprint: the kernels must agree on the
/// *sequence* of frozen dimensions, not just the set.
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

/// The trail kernel and the clone kernel walk the identical search tree
/// and produce the identical enumeration on 25 seeded random schemas.
#[test]
fn trail_kernel_matches_clone_kernel_on_random_schemas() {
    let mut rng = StdRng::seed_from_u64(0x7EA11);
    for round in 0..25 {
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
        if ds.hierarchy().num_edges() > 18 {
            continue; // keep the exponential cases cheap
        }
        let bottom = ds.hierarchy().category_by_name("B").unwrap();
        let (trail_frozen, trail_out) =
            Dimsat::with_options(&ds, DimsatOptions::default()).enumerate_frozen(bottom);
        let (clone_frozen, clone_out) =
            Dimsat::with_options(&ds, DimsatOptions::default().without_trail())
                .enumerate_frozen(bottom);
        assert_eq!(
            ordered_fingerprints(&trail_frozen),
            ordered_fingerprints(&clone_frozen),
            "round {round}: enumerations diverge on {ds}"
        );
        assert_eq!(
            trail_out.stats.expand_calls, clone_out.stats.expand_calls,
            "round {round}: kernels explored different trees"
        );
        assert_eq!(trail_out.stats.struct_clones, 0, "round {round}");
        if clone_out.stats.expand_calls > 1 {
            assert!(clone_out.stats.struct_clones > 0, "round {round}");
        }
    }
}

/// The Figure-7 execution trace is byte-identical between the trail
/// kernel and the legacy clone kernel: not just the same answers, but
/// the same EXPAND/CHECK/Backtrack event sequence.
#[test]
fn trail_kernel_trace_matches_clone_kernel_trace() {
    use olap_dimension_constraints::dimsat::trace::render_trace;
    let src = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/examples/location.odcs"
    ))
    .unwrap();
    let ds = odc_core::parse_schema(&src).unwrap();
    for root in ["Store", "City", "State"] {
        let c = ds.hierarchy().category_by_name(root).unwrap();
        let trail = Dimsat::with_options(&ds, DimsatOptions::full().with_trace())
            .category_satisfiable(c);
        let clone = Dimsat::with_options(&ds, DimsatOptions::full().with_trace().without_trail())
            .category_satisfiable(c);
        assert_eq!(
            render_trace(&ds, &trail.trace),
            render_trace(&ds, &clone.trace),
            "root {root}: the kernels must emit the same trace"
        );
        assert_eq!(trail.verdict.is_sat(), clone.verdict.is_sat(), "root {root}");
    }
}

/// The parallel category sweep agrees with the serial sweep for every
/// worker count, on schemas with many categories.
#[test]
fn parallel_sweep_matches_serial_on_random_schemas() {
    let mut rng = StdRng::seed_from_u64(0x5EEDED);
    for round in 0..8 {
        let ds = random_schema(
            &SchemaGenParams {
                layers: 3,
                width: 3,
                extra_edge_prob: 0.3,
                into_fraction: 0.8,
                constants_per_category: 2,
                exceptions: rng.gen_range(0..3),
                ordered_exceptions: 0,
            },
            &mut rng,
        ).unwrap();
        let serial = Dimsat::new(&ds).unsatisfiable_categories();
        assert!(serial.is_complete());
        for jobs in [2usize, 3, 8] {
            let par = sweep_jobs(&Dimsat::new(&ds), jobs);
            assert!(par.is_complete(), "round {round} jobs {jobs}");
            assert_eq!(par.unsat, serial.unsat, "round {round} jobs {jobs}");
        }
    }
}

/// A node budget shared across sweep workers is enforced against the
/// *pooled* total: the parallel sweep under a tiny budget stops with an
/// explicit interrupt and only sound partial verdicts.
#[test]
fn parallel_sweep_shares_one_budget() {
    let mut rng = StdRng::seed_from_u64(0xB0D6E7);
    let ds = random_schema(&SchemaGenParams::default(), &mut rng).unwrap();
    let full = Dimsat::new(&ds).unsatisfiable_categories();
    assert!(full.is_complete());
    let limited = sweep_jobs(
        &Dimsat::new(&ds).with_budget(Budget::unlimited().with_node_limit(1)),
        4,
    );
    assert!(limited.interrupted.is_some(), "limit 1 must interrupt");
    assert!(!limited.is_complete());
    // Partial verdicts must be a subset of the full answer.
    for c in &limited.unsat {
        assert!(full.unsat.contains(c));
    }
}

/// Serial and parallel Theorem-1 batteries agree on the catalog's
/// summarizability queries.
#[test]
fn parallel_battery_matches_serial_on_catalog_queries() {
    for entry in olap_dimension_constraints::workload::catalog() {
        for (target, sources) in &entry.queries {
            let serial = is_summarizable_in_schema(&entry.schema, *target, sources);
            for jobs in [2usize, 4] {
                let mut gov = Governor::unlimited();
                let par = is_summarizable_in_schema_run(
                    &entry.schema,
                    *target,
                    sources,
                    DimsatOptions::default(),
                    Run::new(&mut gov).jobs(jobs),
                )
                .expect("nothing to resume");
                assert_eq!(
                    par.verdict, serial.verdict,
                    "{}: target {target:?} sources {sources:?} jobs {jobs}",
                    entry.name
                );
            }
        }
    }
}

/// The parallel audit reproduces the serial audit on the catalog
/// schemas, and the implication memo-cache it shares across workers
/// never changes an answer.
#[test]
fn parallel_audit_matches_serial_on_catalog() {
    for entry in olap_dimension_constraints::workload::catalog().into_iter().take(3) {
        let serial = advisor::audit(&entry.schema);
        let par = advisor::audit_parallel(&entry.schema, Budget::unlimited(), &CancelToken::new(), 4);
        assert_eq!(par.unsatisfiable, serial.unsatisfiable, "{}", entry.name);
        assert_eq!(
            par.redundant_constraints, serial.redundant_constraints,
            "{}",
            entry.name
        );
        assert_eq!(par.structure_census, serial.structure_census, "{}", entry.name);
        assert_eq!(par.safe_rewrites, serial.safe_rewrites, "{}", entry.name);
        assert!(par.interrupted.is_none(), "{}", entry.name);
    }
}

/// The undecided list of an interrupted sweep names categories in
/// schema-declaration order (strictly increasing category index) — the
/// order the report renders and checkpoints consume — no matter which
/// execution produced it.
fn assert_declaration_order(sweep: &olap_dimension_constraints::dimsat::CategorySweep, ctx: &str) {
    for w in sweep.undecided.windows(2) {
        assert!(
            w[0].index() < w[1].index(),
            "{ctx}: undecided out of schema order: {:?}",
            sweep.undecided
        );
    }
}

/// Regression (bug: interrupt timing could leak execution order into
/// the report): the sweep's `undecided` list is in deterministic
/// schema-declaration order whether the sweep ran serially, sharded
/// over any worker count, through the planner (which *executes*
/// biggest-region-first), or resumed after a fault — and every
/// completed variant reaches the serial verdicts.
#[test]
fn sweep_undecided_order_is_deterministic_across_drivers() {
    let mut rng = StdRng::seed_from_u64(0x0DE7E12);
    for round in 0..4 {
        let ds = random_schema(
            &SchemaGenParams {
                layers: 3,
                width: 3,
                extra_edge_prob: 0.3,
                into_fraction: 0.8,
                constants_per_category: 2,
                exceptions: rng.gen_range(0..3),
                ordered_exceptions: 0,
            },
            &mut rng,
        ).unwrap();
        let solver = Dimsat::new(&ds);
        let full = solver.unsatisfiable_categories();
        assert!(full.is_complete());

        // Complete planned runs must agree with the unplanned serial
        // sweep despite executing in a different order.
        let planned = sweep_with(&solver, &mut Governor::unlimited(), 1, true, None);
        assert!(planned.is_complete(), "round {round}");
        assert_eq!(planned.unsat, full.unsat, "round {round}");
        assert_eq!(planned.sat, full.sat, "round {round}");
        for jobs in [2usize, 4] {
            let planned = sweep_with(&solver, &mut Governor::unlimited(), jobs, true, None);
            assert!(planned.is_complete(), "round {round} jobs {jobs}");
            assert_eq!(planned.unsat, full.unsat, "round {round} jobs {jobs}");
            assert_eq!(planned.sat, full.sat, "round {round} jobs {jobs}");
        }

        // Interrupted runs, at every budget and worker count: undecided
        // stays in declaration order, and a resume finishes to the
        // serial verdicts.
        for limit in [1u64, 5, 20, 80, 300] {
            let budget = Budget::unlimited().with_node_limit(limit);
            let mut variants: Vec<(String, olap_dimension_constraints::dimsat::CategorySweep)> =
                vec![(
                    "serial".into(),
                    Dimsat::new(&ds).with_budget(budget).unsatisfiable_categories(),
                )];
            variants.push((
                "planned".into(),
                sweep_with(&solver, &mut Governor::from_budget(budget), 1, true, None),
            ));
            for jobs in [2usize, 4] {
                variants.push((
                    format!("sharded x{jobs}"),
                    sweep_with(&solver, &mut Governor::from_budget(budget), jobs, false, None),
                ));
                variants.push((
                    format!("planned x{jobs}"),
                    sweep_with(&solver, &mut Governor::from_budget(budget), jobs, true, None),
                ));
            }
            for (name, sweep) in &variants {
                let ctx = format!("round {round} limit {limit} {name}");
                assert_declaration_order(sweep, &ctx);
                // Partial verdicts are sound.
                for c in &sweep.unsat {
                    assert!(full.unsat.contains(c), "{ctx}");
                }
                for c in &sweep.sat {
                    assert!(full.sat.contains(c), "{ctx}");
                }
                if sweep.interrupted.is_none() {
                    assert_eq!(&sweep.unsat, &full.unsat, "{ctx}");
                    continue;
                }
                // Resume after the interrupt: same final verdicts.
                let Some(cp) = solver.sweep_checkpoint(sweep) else {
                    continue;
                };
                let cp = solver.load_sweep_checkpoint(&cp.to_text()).expect("roundtrip");
                let resumed = sweep_with(&solver, &mut solver.governor(), 1, false, Some(&cp));
                assert!(resumed.is_complete(), "{ctx}");
                assert_declaration_order(&resumed, &ctx);
                assert_eq!(resumed.unsat, full.unsat, "{ctx}");
                assert_eq!(resumed.sat, full.sat, "{ctx}");
            }
        }
    }
}

/// A fault plan armed on the caller's governor reaches every sweep worker;
/// the interrupted sharded sweep leaves a checkpoint, and resuming it
/// reproduces the serial sweep's verdicts — the parallel leg of the
/// fault→checkpoint→resume parity matrix.
#[test]
fn faulted_parallel_sweep_resumes_to_serial_verdicts() {
    use olap_dimension_constraints::govern::{FaultKind, FaultPlan, FaultTrigger};
    let mut rng = StdRng::seed_from_u64(0xFA17ED);
    let ds = random_schema(
        &SchemaGenParams {
            layers: 3,
            width: 3,
            extra_edge_prob: 0.3,
            into_fraction: 0.8,
            constants_per_category: 2,
            exceptions: 2,
            ordered_exceptions: 0,
        },
        &mut rng,
    ).unwrap();
    let solver = Dimsat::new(&ds);
    let serial = solver.unsatisfiable_categories();
    assert!(serial.is_complete());
    let mut resumed_runs = 0u32;
    for seed in 0..10u64 {
        let plan = FaultPlan::new(
            FaultKind::Interrupt,
            FaultTrigger::Seeded {
                seed,
                per_mille: 25,
            },
        )
        .with_max_injections(1);
        let mut gov = Governor::unlimited().with_fault_plan(plan);
        let sweep = sweep_with(&solver, &mut gov, 4, false, None);
        if sweep.interrupted.is_none() {
            continue;
        }
        let Some(cp) = solver.sweep_checkpoint(&sweep) else {
            continue;
        };
        let cp = solver
            .load_sweep_checkpoint(&cp.to_text())
            .expect("roundtrip");
        let resumed = sweep_with(&solver, &mut solver.governor(), 1, false, Some(&cp));
        assert!(resumed.is_complete(), "seed {seed}");
        assert_eq!(resumed.unsat, serial.unsat, "seed {seed}");
        assert_eq!(resumed.sat, serial.sat, "seed {seed}");
        resumed_runs += 1;
    }
    assert!(
        resumed_runs >= 2,
        "parallel fault matrix too sparse ({resumed_runs})"
    );
}

/// Same for the parallel audit: a seeded fault in any stage leaves a
/// decided-prefix checkpoint that the parallel resume completes to the
/// serial audit's findings.
#[test]
fn faulted_parallel_audit_resumes_to_serial_report() {
    use olap_dimension_constraints::govern::{FaultKind, FaultPlan, FaultTrigger};
    let entry = olap_dimension_constraints::workload::catalog()
        .into_iter()
        .next()
        .expect("catalog is non-empty");
    let ds = entry.schema;
    let serial = advisor::audit(&ds);
    let mut resumed_runs = 0u32;
    for seed in 0..8u64 {
        // The serial-with-fault audit stands in for a faulted parallel
        // run (worker fault plans derive per-worker streams, so where
        // the fault lands differs, but the checkpoint contract is the
        // same); the *resume* side exercises the parallel driver.
        let plan = FaultPlan::new(
            FaultKind::Interrupt,
            FaultTrigger::Seeded {
                seed,
                per_mille: 8,
            },
        )
        .with_max_injections(1);
        let mut gov = Governor::unlimited().with_fault_plan(plan);
        let partial = advisor::audit_run(&ds, Run::new(&mut gov)).expect("nothing to resume");
        let Some(cp) = partial.checkpoint else {
            continue;
        };
        let mut gov = Governor::unlimited();
        let resumed = advisor::audit_run(&ds, Run::new(&mut gov).jobs(4).resume(Some(&cp)))
            .expect("same schema resumes");
        assert!(resumed.interrupted.is_none(), "seed {seed}");
        assert_eq!(resumed.unsatisfiable, serial.unsatisfiable, "seed {seed}");
        assert_eq!(
            resumed.redundant_constraints, serial.redundant_constraints,
            "seed {seed}"
        );
        assert_eq!(
            resumed.structure_census, serial.structure_census,
            "seed {seed}"
        );
        assert_eq!(resumed.safe_rewrites, serial.safe_rewrites, "seed {seed}");
        resumed_runs += 1;
    }
    assert!(
        resumed_runs >= 2,
        "parallel audit fault matrix too sparse ({resumed_runs})"
    );
}
