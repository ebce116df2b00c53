//! E12: the DIMSAT kernel experiments behind `BENCH_dimsat.json`.
//!
//! Three sections:
//!
//! 1. **trail vs clone** — the trail-based backtracking kernel against
//!    the legacy clone-and-restore kernel
//!    ([`DimsatOptions::without_trail`]) on the E7 scaling schemas:
//!    wall-clock per enumeration plus allocations-per-node
//!    (`struct_clones / expand_calls`, the snapshot count the clone
//!    kernel pays for every subset mask).
//! 2. **oracle agreement** — both kernels must enumerate exactly the
//!    frozen dimensions of the Theorem-3 exhaustive oracle on the
//!    Figure-4 (locationSch) and cyclic (Example 4) fixtures.
//! 3. **serial vs parallel** — the Theorem-1 summarizability battery on
//!    a five-bottom schema whose four *implied* bottoms are expensive to
//!    prove (exhaustive search) while the last bottom fails fast; the
//!    parallel battery reaches the countermodel early and cancels the
//!    rest, so it wins even on a single core.
//! 4. **observer overhead** — the same enumeration with no observer,
//!    with a null observer sink attached, and with a JSONL emitter
//!    writing to a sink file; attaching a sink must stay within noise
//!    (the acceptance bar is ≤2% for the null sink).
//!
//! Run with: `cargo run --release -p odc-bench --bin exp_dimsat`
//! (`--smoke` or `ODC_BENCH_QUICK=1` for a single-iteration smoke run).

use odc_bench::scaling_by_n;
use odc_bench::timing::Group;
use odc_core::dimsat::stats::timed;
use odc_core::dimsat::SearchStats;
use odc_core::frozen::ExhaustiveEnumerator;
use odc_core::plan::SharedFacts;
use odc_core::prelude::*;
use odc_core::summarizability::advisor;
use odc_rand::SeedableRng;
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

fn main() {
    let smoke =
        std::env::args().any(|a| a == "--smoke") || std::env::var_os("ODC_BENCH_QUICK").is_some();
    if smoke {
        // One calibrated sample per case; keeps CI runs to seconds.
        std::env::set_var("ODC_BENCH_QUICK", "1");
    }
    println!("E12 — DIMSAT kernel: trail backtracking, oracle agreement, parallel battery");

    let mut json = String::from("{\n");

    // ── 1. trail vs clone ────────────────────────────────────────────
    let grid = scaling_by_n();
    let grid = if smoke { &grid[..3] } else { &grid[..] };
    let mut g1 = Group::new("trail_vs_clone");
    g1.sample_size(10);
    json.push_str("  \"trail_vs_clone\": [\n");
    for (i, (label, ds, bottom)) in grid.iter().enumerate() {
        let trail_opts = DimsatOptions::default();
        let clone_opts = DimsatOptions::default().without_trail();
        let (trail_min, _) = g1.bench_timed(&format!("{label}/trail"), || {
            let _ = Dimsat::with_options(ds, trail_opts).enumerate_frozen(*bottom);
        });
        let (clone_min, _) = g1.bench_timed(&format!("{label}/clone"), || {
            let _ = Dimsat::with_options(ds, clone_opts).enumerate_frozen(*bottom);
        });
        let (_, trail_out) = Dimsat::with_options(ds, trail_opts).enumerate_frozen(*bottom);
        let (_, clone_out) = Dimsat::with_options(ds, clone_opts).enumerate_frozen(*bottom);
        let apn = |s: &SearchStats| s.struct_clones as f64 / s.expand_calls.max(1) as f64;
        println!(
            "{label:10} allocations-per-node: trail {:.3}  clone {:.3}",
            apn(&trail_out.stats),
            apn(&clone_out.stats)
        );
        let _ = writeln!(
            json,
            "    {{\"label\": \"{label}\", \"trail_ns\": {}, \"clone_ns\": {}, \
             \"trail_allocs_per_node\": {:.4}, \"clone_allocs_per_node\": {:.4}, \
             \"expand_calls\": {}}}{}",
            trail_min.as_nanos(),
            clone_min.as_nanos(),
            apn(&trail_out.stats),
            apn(&clone_out.stats),
            trail_out.stats.expand_calls,
            if i + 1 < grid.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");

    // ── 2. oracle agreement ──────────────────────────────────────────
    println!("\n== oracle_agreement ==");
    json.push_str("  \"oracle_agreement\": [\n");
    let fixtures = [
        ("figure4", odc_workload::location_sch(), "Store"),
        ("cyclic", cyclic_sch(), "Store"),
    ];
    for (i, (name, ds, root)) in fixtures.iter().enumerate() {
        let Some(root) = ds.hierarchy().category_by_name(root) else {
            continue;
        };
        let trail = enumerate_fingerprints(ds, root, DimsatOptions::default());
        let clone = enumerate_fingerprints(ds, root, DimsatOptions::default().without_trail());
        let oracle: BTreeSet<Vec<(u32, u32)>> = ExhaustiveEnumerator::new(ds, root)
            .enumerate()
            .iter()
            .map(fingerprint)
            .collect();
        let identical = trail == oracle && clone == oracle;
        println!(
            "{name:10} trail {}  clone {}  oracle {}  identical: {identical}",
            trail.len(),
            clone.len(),
            oracle.len()
        );
        assert!(identical, "{name}: kernel disagrees with the Theorem-3 oracle");
        let _ = writeln!(
            json,
            "    {{\"fixture\": \"{name}\", \"frozen\": {}, \"identical\": {identical}}}{}",
            oracle.len(),
            if i + 1 < fixtures.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");

    // ── 3. serial vs parallel Theorem-1 battery ──────────────────────
    println!("\n== parallel_battery ==");
    let ds = battery_sch();
    let target = ds.hierarchy().category_by_name("T").unwrap();
    let source = ds.hierarchy().category_by_name("S").unwrap();
    let bottoms = ds
        .hierarchy()
        .bottom_categories()
        .iter()
        .filter(|c| !c.is_all())
        .count();
    let jobs = bottoms;
    let battery = |jobs: usize| {
        let mut gov = Governor::unlimited();
        let run = Run::new(&mut gov).jobs(jobs);
        is_summarizable_in_schema_run(&ds, target, &[source], DimsatOptions::default(), run)
    };
    let serial = timed(|| battery(1));
    let parallel = timed(|| battery(jobs));
    assert_eq!(
        serial.value.verdict, parallel.value.verdict,
        "battery verdicts must agree"
    );
    assert!(
        serial.value.not_summarizable(),
        "the fixture is built to fail on its last bottom"
    );
    let speedup = serial.elapsed.as_secs_f64() / parallel.elapsed.as_secs_f64().max(1e-9);
    println!(
        "battery over {bottoms} bottoms: serial {:?}  parallel(x{jobs}) {:?}  speedup {speedup:.2}x",
        serial.elapsed, parallel.elapsed
    );
    let _ = writeln!(
        json,
        "  \"parallel_battery\": {{\"bottoms\": {bottoms}, \"jobs\": {jobs}, \
         \"serial_ns\": {}, \"parallel_ns\": {}, \"speedup\": {speedup:.3}, \
         \"verdict\": \"not_summarizable\"}}",
        serial.elapsed.as_nanos(),
        parallel.elapsed.as_nanos(),
    );
    json.push_str(",\n");

    // ── 4. observer overhead ─────────────────────────────────────────
    println!("\n== observer_overhead ==");
    json.push_str("  \"observer_overhead\": [\n");
    let obs_grid = scaling_by_n();
    let obs_grid = if smoke { &obs_grid[..3] } else { &obs_grid[..4] };
    let mut g4 = Group::new("observer_overhead");
    g4.sample_size(10);
    let sink_path = std::env::temp_dir().join("odc-bench-observer-events.jsonl");
    for (i, (label, ds, bottom)) in obs_grid.iter().enumerate() {
        // One solver per arm, reused across iterations — matching how the
        // CLI and the batch drivers hold a solver for many solves.
        let off_solver = Dimsat::new(ds);
        let (off_min, _) = g4.bench_timed(&format!("{label}/off"), || {
            let _ = off_solver.enumerate_frozen(*bottom);
        });
        let null_solver = Dimsat::new(ds).with_observer(Obs::new(Arc::new(NullObserver)));
        let (null_min, _) = g4.bench_timed(&format!("{label}/null"), || {
            let _ = null_solver.enumerate_frozen(*bottom);
        });
        let jsonl_solver = Dimsat::new(ds).with_observer(Obs::new(Arc::new(
            JsonlObserver::to_file(&sink_path.to_string_lossy()).expect("open events sink"),
        )));
        let (jsonl_min, _) = g4.bench_timed(&format!("{label}/jsonl"), || {
            let _ = jsonl_solver.enumerate_frozen(*bottom);
        });
        let ratio = |on: std::time::Duration| {
            on.as_secs_f64() / off_min.as_secs_f64().max(1e-12)
        };
        println!(
            "{label:10} null-sink overhead {:.2}%  jsonl overhead {:.2}%",
            (ratio(null_min) - 1.0) * 100.0,
            (ratio(jsonl_min) - 1.0) * 100.0,
        );
        let _ = writeln!(
            json,
            "    {{\"label\": \"{label}\", \"off_ns\": {}, \"null_ns\": {}, \
             \"jsonl_ns\": {}, \"null_ratio\": {:.4}, \"jsonl_ratio\": {:.4}}}{}",
            off_min.as_nanos(),
            null_min.as_nanos(),
            jsonl_min.as_nanos(),
            ratio(null_min),
            ratio(jsonl_min),
            if i + 1 < obs_grid.len() { "," } else { "" },
        );
    }
    let _ = std::fs::remove_file(&sink_path);
    json.push_str("  ],\n");

    // ── 5. checkpoint/resume overhead ────────────────────────────────
    // The acceptance bar for the robustness work: interrupting an E8
    // (Theorem-4 SAT-reduction) solve at its midpoint, serializing the
    // cursor through the text format, and resuming to completion must
    // cost under 5% of the uninterrupted solve time — i.e. checkpoints
    // are cheap enough to take routinely.
    println!("\n== resume_overhead ==");
    json.push_str("  \"resume_overhead\": [\n");
    let e8_sizes: &[usize] = if smoke { &[10] } else { &[10, 12, 14] };
    let iters = if smoke { 1 } else { 15 };
    for (i, &n) in e8_sizes.iter().enumerate() {
        let mut rng = odc_rand::rngs::StdRng::seed_from_u64(0xE8);
        let formula = odc_workload::random_3sat(n, (n as f64 * 4.3).round() as usize, &mut rng);
        let (ds, bottom) = odc_workload::encode_sat(&formula);
        let solver = Dimsat::new(&ds);
        let (clean_frozen, clean_out) = solver.enumerate_frozen(bottom);
        // Interrupt at the midpoint CHECK boundary (a node budget could
        // trip deep inside one CHECK's assignment search, whose full redo
        // on resume would measure the frame-granularity redo rule rather
        // than the checkpoint machinery), round-trip the checkpoint text,
        // resume to completion. The two arms run back-to-back inside each
        // iteration, in ABBA order (which arm goes first alternates per
        // iteration, cancelling any first-position advantage), and the
        // headline overhead is the MEDIAN of the per-iteration
        // resumed/clean ratios: on a shared single-core box a load spike
        // lands on one whole iteration (inflating both arms of its ratio
        // roughly equally) and the median discards the iterations it
        // skews, where a min-of-blocks comparison lets one spiked block
        // fabricate double-digit overhead.
        let midpoint = clean_out.stats.check_calls / 2;
        let mut clean_min = std::time::Duration::MAX;
        let mut resumed_min = std::time::Duration::MAX;
        let mut ratios = Vec::with_capacity(iters);
        for it in 0..iters {
            let run_clean = || timed(|| solver.enumerate_frozen(bottom)).elapsed;
            let run_resumed = || {
                let t = timed(|| {
                    let mut gov = solver
                        .governor_with_budget(Budget::unlimited().with_check_limit(midpoint.max(1)));
                    let (_, out) = solver.enumerate_frozen_governed(bottom, &mut gov);
                    let cp = out.checkpoint.expect("midpoint budget interrupts");
                    let cp = solver.load_checkpoint(&cp.to_text()).expect("roundtrip");
                    solver.resume(&cp).expect("same schema resumes")
                });
                let (resumed_frozen, resumed_out) = &t.value;
                assert_eq!(resumed_frozen.len(), clean_frozen.len(), "n={n}");
                assert_eq!(
                    resumed_out.stats.expand_calls, clean_out.stats.expand_calls,
                    "n={n}: resumed search explored a different tree"
                );
                t.elapsed
            };
            let (clean_t, resumed_t) = if it % 2 == 0 {
                let c = run_clean();
                (c, run_resumed())
            } else {
                let r = run_resumed();
                (run_clean(), r)
            };
            clean_min = clean_min.min(clean_t);
            resumed_min = resumed_min.min(resumed_t);
            ratios.push(resumed_t.as_secs_f64() / clean_t.as_secs_f64().max(1e-12));
        }
        ratios.sort_by(|a, b| a.total_cmp(b));
        let overhead = ratios[ratios.len() / 2] - 1.0;
        println!(
            "E8 n={n:2} clean {clean_min:?}  interrupt+roundtrip+resume {resumed_min:?}  overhead {:.2}%",
            overhead * 100.0
        );
        let _ = writeln!(
            json,
            "    {{\"family\": \"E8\", \"vars\": {n}, \"clean_ns\": {}, \"resumed_ns\": {}, \
             \"overhead_pct\": {:.3}, \"frozen\": {}}}{}",
            clean_min.as_nanos(),
            resumed_min.as_nanos(),
            overhead * 100.0,
            clean_frozen.len(),
            if i + 1 < e8_sizes.len() { "," } else { "" },
        );
    }
    json.push_str("  ],\n");

    // ── 6. battery planner ───────────────────────────────────────────
    // The E20 record: the cross-query planner against the parallel
    // baseline on the E8 (Theorem-4 SAT-reduction) adversarial gadget
    // under a depth-10 rollup spine — the audit-stress shape, where the
    // rewrite matrix (one battery per reachable category pair, ~90
    // pairs) is the dominant cost. Each of its structurally-implied
    // constraints can only be proved by the unplanned battery by
    // exhausting the gadget's exponential search space; the planner
    // answers the whole matrix from the census witness pools, so its
    // win scales with the matrix's solve count, not a constant factor.
    // The formula is satisfiable (below the threshold ratio), so the
    // pools hold real witnesses rather than degenerating to the
    // unsat-root shortcut.
    println!("\n== planner ==");
    let n = if smoke { 8 } else { 12 };
    let mut rng = odc_rand::rngs::StdRng::seed_from_u64(0xE8);
    let formula = odc_workload::random_3sat(n, 3 * n / 2, &mut rng);
    assert!(formula.is_satisfiable(), "E20 needs non-empty witness pools");
    let ds = sat_audit_sch(&formula, 10);
    let pairs = advisor::rewrite_pairs(ds.hierarchy()).len();
    let jobs = 4;
    let unplanned = timed(|| {
        advisor::audit_parallel(&ds, Budget::unlimited(), &CancelToken::new(), jobs)
    });
    let collector = Arc::new(CollectingObserver::new());
    let facts = SharedFacts::new(ds.hierarchy().num_categories());
    let planned = timed(|| {
        planned_audit(&ds, jobs, Obs::new(collector.clone()), &facts)
    });
    assert_eq!(
        planned.value.render(&ds),
        unplanned.value.render(&ds),
        "planned and unplanned audits must agree verbatim"
    );
    let plan_ev = collector
        .events()
        .iter()
        .find_map(|e| match e {
            odc_core::obs::Event::Plan(p) => Some(p.clone()),
            _ => None,
        })
        .expect("planned audit emits one plan summary");
    // Warm rerun over the same shared facts: the cross-query hit rate a
    // second audit of the same schema (or a repo-seeded one) enjoys.
    let warm_collector = Arc::new(CollectingObserver::new());
    let warm = timed(|| {
        planned_audit(&ds, jobs, Obs::new(warm_collector.clone()), &facts)
    });
    assert_eq!(warm.value.render(&ds), unplanned.value.render(&ds));
    let warm_ev = warm_collector
        .events()
        .iter()
        .find_map(|e| match e {
            odc_core::obs::Event::Plan(p) => Some(p.clone()),
            _ => None,
        })
        .expect("warm audit emits one plan summary");
    let dedup_rate = plan_ev.deduped as f64 / plan_ev.queries.max(1) as f64;
    let fact_hit_rate = warm_ev.fact_hits as f64 / warm_ev.queries.max(1) as f64;
    let search_reduction = unplanned.value.stats.expand_calls as f64
        / planned.value.stats.expand_calls.max(1) as f64;
    let speedup = unplanned.elapsed.as_secs_f64() / planned.elapsed.as_secs_f64().max(1e-9);
    println!(
        "E8-spine n={n} ({pairs} pairs) audit(x{jobs}): unplanned {:?}  planned {:?}  \
         speedup {speedup:.2}x",
        unplanned.elapsed, planned.elapsed
    );
    println!(
        "  plan: {} queries, {} deduped ({:.1}%), {} reordered, {} pool-batched",
        plan_ev.queries,
        plan_ev.deduped,
        dedup_rate * 100.0,
        plan_ev.reordered,
        plan_ev.batched
    );
    println!(
        "  warm rerun: {} fact hits ({:.1}%)  search reduction {search_reduction:.1}x expand calls",
        warm_ev.fact_hits,
        fact_hit_rate * 100.0
    );
    if !smoke {
        assert!(
            speedup >= 5.0,
            "acceptance: planned audit must beat the parallel baseline 5x (got {speedup:.2}x)"
        );
    }
    let _ = writeln!(
        json,
        "  \"planner\": {{\"family\": \"E8-spine\", \"vars\": {n}, \"spine_depth\": 10, \
         \"rewrite_pairs\": {pairs}, \"jobs\": {jobs}, \
         \"queries\": {}, \"deduped\": {}, \"dedup_rate\": {dedup_rate:.4}, \
         \"reordered\": {}, \"batched\": {}, \"warm_fact_hits\": {}, \
         \"warm_fact_hit_rate\": {fact_hit_rate:.4}, \
         \"unplanned_expand_calls\": {}, \"planned_expand_calls\": {}, \
         \"search_reduction\": {search_reduction:.3}, \
         \"unplanned_ns\": {}, \"planned_ns\": {}, \"warm_ns\": {}, \
         \"speedup\": {speedup:.3}}}\n}}",
        plan_ev.queries,
        plan_ev.deduped,
        plan_ev.reordered,
        plan_ev.batched,
        warm_ev.fact_hits,
        unplanned.value.stats.expand_calls,
        planned.value.stats.expand_calls,
        unplanned.elapsed.as_nanos(),
        planned.elapsed.as_nanos(),
        warm.elapsed.as_nanos(),
    );

    // ── persist ──────────────────────────────────────────────────────
    // Smoke runs (CI) use 1-iteration timings; persisting them would
    // clobber the committed full-run results with noise.
    if smoke {
        println!("\nsmoke run: results/BENCH_dimsat.json left untouched");
        return;
    }
    let dir = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    let _ = std::fs::create_dir_all(&dir);
    let path = format!("{dir}/BENCH_dimsat.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
}

/// Enumerates the frozen dimensions with the given kernel options and
/// reduces them to structural fingerprints (sorted edge lists).
fn enumerate_fingerprints(
    ds: &DimensionSchema,
    root: Category,
    opts: DimsatOptions,
) -> BTreeSet<Vec<(u32, u32)>> {
    let (frozen, out) = Dimsat::with_options(ds, opts).enumerate_frozen(root);
    assert!(out.interrupted.is_none());
    frozen.iter().map(fingerprint).collect()
}

fn fingerprint(f: &FrozenDimension) -> Vec<(u32, u32)> {
    let mut edges: Vec<(u32, u32)> = f
        .subhierarchy()
        .edges()
        .map(|(c, p)| (c.index() as u32, p.index() as u32))
        .collect();
    edges.sort_unstable();
    edges
}

/// The cyclic fixture (Example 4): Store below SaleDistrict and City,
/// which point at each other — the schema has a cycle, the frozen
/// dimensions do not.
fn cyclic_sch() -> DimensionSchema {
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
    let g = Arc::new(b.build().expect("fixture builds"));
    DimensionSchema::parse(g, "").expect("fixture parses")
}

/// The Theorem-4 SAT gadget (E8) under a rollup spine of `depth`
/// categories: `B` below `V1..Vn` (the variable edges the CNF
/// constraints range over) and below `D0 > D1 > … > All` (the spine).
/// The spine multiplies the audit's rewrite matrix — every `(Di, Dj)`
/// and `(Di, B)` pair is a Theorem-1 battery rooted at `B` — without
/// changing the gadget's census or its constraint set, which is exactly
/// the shape where batch planning pays.
fn sat_audit_sch(formula: &odc_workload::CnfFormula, depth: usize) -> DimensionSchema {
    let mut b = HierarchySchema::builder();
    let bottom = b.category("B");
    let spine: Vec<Category> = (0..depth).map(|i| b.category(&format!("D{i}"))).collect();
    b.edge(bottom, spine[0]);
    for w in spine.windows(2) {
        b.edge(w[0], w[1]);
    }
    b.edge_to_all(spine[depth - 1]);
    let vars: Vec<Category> = (1..=formula.num_vars)
        .map(|v| {
            let c = b.category(&format!("V{v}"));
            b.edge(bottom, c);
            b.edge_to_all(c);
            c
        })
        .collect();
    let g = Arc::new(b.build().expect("fixture builds"));
    let mut sigma: Vec<DimensionConstraint> = Vec::new();
    // The spine keeps B satisfiable structurally (C7/Definition 7),
    // mirroring `encode_sat`.
    sigma.push(DimensionConstraint::new(
        bottom,
        Constraint::path(vec![bottom, spine[0]]),
    ));
    for clause in &formula.clauses {
        let disjuncts: Vec<Constraint> = clause
            .iter()
            .map(|&lit| {
                let atom =
                    Constraint::path(vec![bottom, vars[(lit.unsigned_abs() - 1) as usize]]);
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

/// Five bottoms over one target `T` and source `S`. Bottoms `B0..B3`
/// each sit atop a dense two-layer diamond that funnels through `S`, so
/// proving their battery constraint implied means exhausting the whole
/// subhierarchy space. `B4` (created last, so queried last by the serial
/// battery) also has a direct edge to `T` that bypasses `S` — a
/// countermodel DIMSAT finds almost immediately.
fn battery_sch() -> DimensionSchema {
    let mut b = HierarchySchema::builder();
    let t = b.category("T");
    let s = b.category("S");
    for i in 0..4 {
        let bottom = b.category(&format!("B{i}"));
        let lower: Vec<_> = (0..4).map(|j| b.category(&format!("M{i}L{j}"))).collect();
        let upper: Vec<_> = (0..3).map(|j| b.category(&format!("N{i}U{j}"))).collect();
        for &m in &lower {
            b.edge(bottom, m);
            for &n in &upper {
                b.edge(m, n);
            }
        }
        for &n in &upper {
            b.edge(n, s);
        }
    }
    let b4 = b.category("B4");
    b.edge(b4, s);
    b.edge(b4, t);
    b.edge(s, t);
    b.edge_to_all(t);
    let g = Arc::new(b.build().expect("fixture builds"));
    DimensionSchema::parse(g, "").expect("fixture parses")
}

/// The planned audit over `jobs` workers, starting from `facts`, with a
/// run-local memo-cache.
fn planned_audit(
    ds: &DimensionSchema,
    jobs: usize,
    obs: Obs,
    facts: &SharedFacts,
) -> advisor::SchemaReport {
    let mut gov = Governor::unlimited().with_observer(obs);
    let cache = odc_core::dimsat::ImplicationCache::for_schema(ds);
    let run = Run::new(&mut gov)
        .jobs(jobs)
        .planned(true)
        .session(cache.begin_session())
        .facts(facts);
    advisor::audit_run(ds, run)
}
