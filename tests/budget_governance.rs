//! Integration tests for the resource-governance layer: deadlines,
//! cross-thread cancellation, and coherent partial statistics on the
//! adversarial workloads that motivated it (the Theorem-4 SAT reduction,
//! where category satisfiability is genuinely NP-complete).

use odc_core::prelude::*;
use odc_core::{Budget, CancelToken, InterruptReason};
use odc_rand::rngs::StdRng;
use odc_rand::SeedableRng;
use odc_workload::{encode_sat, random_3sat};
use std::time::{Duration, Instant};

/// A hard SAT-reduction instance: near the 3-SAT phase transition
/// (clause/var ratio ≈ 4.3) and big enough that an unbudgeted solve
/// would run far beyond any test-friendly deadline.
fn adversarial_schema() -> (DimensionSchema, Category) {
    let mut rng = StdRng::seed_from_u64(0xE8);
    let formula = random_3sat(18, 77, &mut rng);
    encode_sat(&formula)
}

/// The acceptance-criteria scenario: an E8 schema under a 10 ms deadline
/// answers `Unknown(Deadline)` well within 100× the deadline — the solver
/// is interruptible, not merely eventually-correct.
#[test]
fn deadline_interrupts_adversarial_solve_promptly() {
    let (ds, bottom) = adversarial_schema();
    let deadline = Duration::from_millis(10);
    let budget = Budget::unlimited().with_deadline(deadline);

    let start = Instant::now();
    let out = Dimsat::new(&ds)
        .with_budget(budget)
        .category_satisfiable(bottom);
    let took = start.elapsed();

    assert!(
        took < deadline * 100,
        "interrupt latency {took:?} exceeded 100x the {deadline:?} deadline"
    );
    // With 18 variables the solve cannot finish in 10 ms, so the verdict
    // must be the three-valued Unknown — and it must carry the reason.
    let interrupt = out
        .interrupt()
        .expect("a 10 ms budget on an 18-var reduction must interrupt");
    assert_eq!(interrupt.reason, InterruptReason::Deadline);
    assert!(out.is_unknown());
}

/// A `CancelToken` flipped from another thread stops a running solve.
#[test]
fn cross_thread_cancellation_stops_a_solve() {
    let (ds, bottom) = adversarial_schema();
    let token = CancelToken::new();
    let handle = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            token.cancel();
        })
    };

    let start = Instant::now();
    let out = Dimsat::new(&ds)
        .with_cancel_token(token)
        .category_satisfiable(bottom);
    let took = start.elapsed();
    handle.join().expect("canceller thread panicked");

    assert!(
        took < Duration::from_secs(5),
        "cancellation took {took:?} to land"
    );
    let interrupt = out.interrupt().expect("cancelled solve must interrupt");
    assert_eq!(interrupt.reason, InterruptReason::Cancelled);
}

/// Budget-exhausted runs still return coherent `SearchStats`: nonzero
/// work counters, an elapsed time, and interrupt bookkeeping that agrees
/// with the stats.
#[test]
fn exhausted_budget_reports_coherent_stats() {
    let (ds, bottom) = adversarial_schema();
    let budget = Budget::unlimited().with_node_limit(500);
    let out = Dimsat::new(&ds)
        .with_budget(budget)
        .category_satisfiable(bottom);

    let interrupt = out.interrupt().expect("500-node budget must interrupt");
    assert_eq!(interrupt.reason, InterruptReason::NodeLimit);
    assert!(
        interrupt.nodes >= 500,
        "interrupt fired before the limit: {} nodes",
        interrupt.nodes
    );
    assert!(out.stats.expand_calls > 0, "partial work must be recorded");
    assert!(out.stats.elapsed > Duration::ZERO);
    // The amortized poll may overshoot by at most one polling interval.
    assert!(
        interrupt.nodes < 500 + 128,
        "poll overshoot too large: {} nodes",
        interrupt.nodes
    );
}

/// Implication under a budget degrades to `Unknown`, never a panic or a
/// wrong `Implied`/`NotImplied` answer.
#[test]
fn budgeted_implication_degrades_to_unknown() {
    let (ds, _bottom) = adversarial_schema();
    let budget = Budget::unlimited().with_deadline(Duration::from_millis(5));
    // "Does every base member roll up through V1?" — settling this needs
    // the full coNP search, which a 5 ms deadline cannot finish.
    let out = odc_core::check_implication_budgeted(&ds, "B_V1", budget);
    match out {
        Ok(v) => assert!(
            matches!(v, ImplicationVerdict::Unknown(_)),
            "5 ms must not settle an 18-var reduction: {v:?}"
        ),
        Err(e) => panic!("parse error on the query constraint: {e}"),
    }
}

/// Enumeration keeps the frozen dimensions found before the budget ran
/// out — partial work is reported, not discarded.
#[test]
fn interrupted_enumeration_keeps_partial_results() {
    let (ds, bottom) = adversarial_schema();
    let budget = Budget::unlimited().with_check_limit(50);
    let (frozen, out) = Dimsat::new(&ds)
        .with_budget(budget)
        .enumerate_frozen(bottom);
    let interrupt = out
        .interrupted
        .expect("a 50-check budget must interrupt enumeration on this schema");
    assert_eq!(interrupt.reason, InterruptReason::CheckLimit);
    assert!(interrupt.checks >= 50);
    // Partial listing is allowed to be empty, but the stats must account
    // for the work that did happen.
    assert!(out.stats.check_calls > 0);
    let _ = frozen;
}

/// A zero node budget interrupts before the first node is expanded: the
/// stats are coherent (no phantom work) and the verdict is `Unknown`,
/// never a guessed answer.
#[test]
fn zero_node_budget_interrupts_before_first_node() {
    let (ds, bottom) = adversarial_schema();
    let budget = Budget::unlimited().with_node_limit(0);
    let out = Dimsat::new(&ds)
        .with_budget(budget)
        .category_satisfiable(bottom);
    let interrupt = out.interrupt().expect("zero budget must interrupt");
    assert_eq!(interrupt.reason, InterruptReason::NodeLimit);
    assert_eq!(out.stats.expand_calls, 0, "no node may be expanded");
    assert_eq!(out.stats.check_calls, 0, "no CHECK may run");
    assert_eq!(out.stats.assignments_tested, 0);
    assert_eq!(out.stats.frozen_found, 0);
}

/// Same for an already-expired deadline: the very first poll trips it.
#[test]
fn zero_deadline_interrupts_before_first_node() {
    let (ds, bottom) = adversarial_schema();
    let budget = Budget::unlimited().with_deadline(Duration::ZERO);
    let out = Dimsat::new(&ds)
        .with_budget(budget)
        .category_satisfiable(bottom);
    let interrupt = out.interrupt().expect("expired deadline must interrupt");
    assert_eq!(interrupt.reason, InterruptReason::Deadline);
    assert_eq!(out.stats.expand_calls, 0, "no node may be expanded");
    assert_eq!(out.stats.frozen_found, 0);
}

/// Degenerate budgets on the batch drivers: an audit under a zero budget
/// reports every category undecided and no phantom findings.
#[test]
fn zero_budget_audit_is_coherently_empty() {
    use odc_core::summarizability::advisor;
    let (ds, _bottom) = adversarial_schema();
    let mut gov = Governor::new(
        Budget::unlimited().with_node_limit(0),
        CancelToken::new(),
    );
    let report = advisor::audit_run(&ds, Run::new(&mut gov));
    assert!(report.interrupted.is_some(), "zero budget must interrupt");
    assert!(report.unsatisfiable.is_empty());
    assert!(report.redundant_constraints.is_empty());
    assert!(report.structure_census.is_empty());
    assert!(report.safe_rewrites.is_empty());
    assert_eq!(report.stats.expand_calls, 0, "no work may be recorded");
    assert!(
        report.render(&ds).contains("a resume checkpoint is available"),
        "even a zero-budget interrupt is resumable"
    );
}
