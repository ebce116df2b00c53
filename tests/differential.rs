//! Differential test suites: DIMSAT against the exhaustive Theorem-3
//! oracle, the SAT reduction against DPLL, and the ablated search modes
//! against the full algorithm — all over seeded random workloads.

use olap_dimension_constraints::prelude::*;
use olap_dimension_constraints::workload::{
    encode_sat, random_3sat, random_schema, SchemaGenParams,
};
use odc_rand::rngs::StdRng;
use odc_rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

fn edge_fingerprint(f: &FrozenDimension) -> BTreeSet<(usize, usize)> {
    f.subhierarchy()
        .edges()
        .map(|(a, b)| (a.index(), b.index()))
        .collect()
}

/// DIMSAT enumeration equals the naive 2^E oracle on 30 random schemas.
#[test]
fn dimsat_equals_exhaustive_oracle_on_random_schemas() {
    let mut rng = StdRng::seed_from_u64(0xD1F5A7);
    for round in 0..30 {
        let params = SchemaGenParams {
            layers: rng.gen_range(2..4),
            width: rng.gen_range(1..3),
            extra_edge_prob: 0.4,
            into_fraction: rng.gen_range(0.0..1.0),
            constants_per_category: 2,
            exceptions: rng.gen_range(0..4),
            ordered_exceptions: 0,
        };
        let ds = random_schema(&params, &mut rng).unwrap();
        if ds.hierarchy().num_edges() > 14 {
            continue; // keep the 2^E oracle cheap
        }
        let bottom = ds.hierarchy().category_by_name("B").unwrap();
        let (dimsat_frozen, out) = Dimsat::new(&ds).enumerate_frozen(bottom);
        let mut oracle = ExhaustiveEnumerator::new(&ds, bottom);
        let oracle_frozen = oracle.enumerate();
        let a: BTreeSet<_> = dimsat_frozen.iter().map(edge_fingerprint).collect();
        let b: BTreeSet<_> = oracle_frozen.iter().map(edge_fingerprint).collect();
        assert_eq!(a, b, "round {round}: {}", ds);
        assert_eq!(
            out.stats.late_rejections, 0,
            "round {round}: eager pruning leaked"
        );
        for f in &dimsat_frozen {
            assert_eq!(f.verify(&ds), Ok(()), "round {round}");
        }
    }
}

/// All three search configurations agree on satisfiability, for every
/// category of every random schema.
#[test]
fn ablations_agree_on_random_schemas() {
    let mut rng = StdRng::seed_from_u64(0xAB1A7E);
    for round in 0..15 {
        let ds = random_schema(
            &SchemaGenParams {
                layers: 3,
                width: 2,
                extra_edge_prob: 0.35,
                into_fraction: 0.7,
                constants_per_category: 2,
                exceptions: 2,
                ordered_exceptions: 0,
            },
            &mut rng,
        ).unwrap();
        for c in ds.hierarchy().categories() {
            if c.is_all() {
                continue;
            }
            let full = Dimsat::new(&ds).category_satisfiable(c).is_sat();
            let no_into = Dimsat::with_options(&ds, DimsatOptions::without_into_pruning())
                .category_satisfiable(c)
                .is_sat();
            let gt = Dimsat::with_options(&ds, DimsatOptions::generate_and_test())
                .category_satisfiable(c)
                .is_sat();
            assert_eq!(full, no_into, "round {round}, cat {c:?}");
            assert_eq!(full, gt, "round {round}, cat {c:?}");
        }
    }
}

/// The Theorem-4 reduction agrees with DPLL across the easy/hard spectrum
/// of random 3-SAT (ratio 2–6 clauses per variable).
#[test]
fn sat_reduction_differential_sweep() {
    let mut rng = StdRng::seed_from_u64(0x3547);
    for n_vars in [4, 6, 8] {
        for ratio in [2, 4, 6] {
            for _ in 0..5 {
                let formula = random_3sat(n_vars, n_vars * ratio, &mut rng);
                let expected = formula.is_satisfiable();
                let (ds, bottom) = encode_sat(&formula);
                let got = Dimsat::new(&ds).category_satisfiable(bottom).is_sat();
                assert_eq!(got, expected, "n={n_vars} ratio={ratio}: {formula:?}");
            }
        }
    }
}

/// Theorem 2 soundness against generated data: when `ds ⊨ α`, every
/// generated instance satisfies α; when not, the countermodel is a
/// genuine frozen dimension of the extended schema.
#[test]
fn implication_consistent_with_generated_instances() {
    use olap_dimension_constraints::workload::random_instance;
    let ds = olap_dimension_constraints::workload::location_sch();
    let g = ds.hierarchy();
    let store = g.category_by_name("Store").unwrap();
    let alphas = [
        "Store.Country -> Store.City.Country",
        "Store.Country",
        "Store.SaleRegion",
        "Store.Country = Canada -> Store_City_Province",
        "Store.Country = Canada",
        "Store_City_Province",
        "Store.Country -> (Store.State.Country ^ Store.Province.Country)",
    ];
    let mut rng = StdRng::seed_from_u64(77);
    let instances: Vec<DimensionInstance> = (0..8)
        .map(|_| random_instance(&ds, store, 25, 0.5, &mut rng).unwrap())
        .collect();
    for src in alphas {
        let alpha = parse_constraint(g, src).unwrap();
        let out = implies(&ds, &alpha);
        if out.implied() {
            for (i, d) in instances.iter().enumerate() {
                assert!(
                    odc_core::constraint::eval::satisfies(d, &alpha),
                    "{src} implied but violated by generated instance {i}"
                );
            }
        } else {
            let cx = out.counterexample.expect("countermodel for {src}");
            let negated = alpha.with_formula(Constraint::not(alpha.formula().clone()));
            assert_eq!(cx.verify(&ds.with_constraint(negated)), Ok(()), "{src}");
        }
    }
}

/// Proposition 1 over random schemas: the empty instance (only `all`) is
/// always admitted, so every dimension schema is satisfiable.
#[test]
fn proposition_1_every_schema_satisfiable() {
    let mut rng = StdRng::seed_from_u64(1);
    for _ in 0..20 {
        let ds = random_schema(&SchemaGenParams::default(), &mut rng).unwrap();
        let empty = DimensionInstance::builder(ds.hierarchy_arc())
            .build()
            .unwrap();
        assert!(ds.admits(&empty));
    }
}

/// Generated instances are always over their schema (validity + Σ), and
/// instance-level truths never contradict schema-level implication.
#[test]
fn generated_instances_are_models() {
    use olap_dimension_constraints::workload::random_instance;
    let mut rng = StdRng::seed_from_u64(0xBEEF);
    for round in 0..10 {
        let ds = random_schema(
            &SchemaGenParams {
                layers: 2,
                width: 2,
                extra_edge_prob: 0.4,
                into_fraction: 0.8,
                constants_per_category: 2,
                exceptions: 1,
                ordered_exceptions: 0,
            },
            &mut rng,
        ).unwrap();
        let bottom = ds.hierarchy().category_by_name("B").unwrap();
        let Ok(d) = random_instance(&ds, bottom, 20, 0.5, &mut rng) else {
            continue; // bottom unsatisfiable in this draw
        };
        assert!(odc_core::instance::validate(&d).is_ok(), "round {round}");
        assert!(ds.admits(&d), "round {round}");
    }
}

/// With ordered-atom exceptions in Σ (the Section 6 extension), DIMSAT
/// still matches the exhaustive oracle — the region-based value domains
/// are complete.
#[test]
fn dimsat_equals_oracle_with_ordered_constraints() {
    let mut rng = StdRng::seed_from_u64(0x04D3);
    for round in 0..20 {
        let params = SchemaGenParams {
            layers: 2,
            width: 2,
            extra_edge_prob: 0.45,
            into_fraction: 0.5,
            constants_per_category: 2,
            exceptions: 1,
            ordered_exceptions: rng.gen_range(1..4),
        };
        let ds = random_schema(&params, &mut rng).unwrap();
        if ds.hierarchy().num_edges() > 13 {
            continue;
        }
        let bottom = ds.hierarchy().category_by_name("B").unwrap();
        let (dimsat_frozen, _) = Dimsat::new(&ds).enumerate_frozen(bottom);
        let mut oracle = ExhaustiveEnumerator::new(&ds, bottom);
        let oracle_frozen = oracle.enumerate();
        let a: BTreeSet<_> = dimsat_frozen.iter().map(edge_fingerprint).collect();
        let b: BTreeSet<_> = oracle_frozen.iter().map(edge_fingerprint).collect();
        assert_eq!(a, b, "round {round}: {}", ds);
        for f in &dimsat_frozen {
            assert_eq!(f.verify(&ds), Ok(()), "round {round}");
        }
    }
}

/// The cross-query battery planner never changes an answer: on seeded
/// random schema families (into constraints, exceptions, ordered
/// atoms), the planned audit — serial and parallel — renders
/// byte-identically to the unplanned audit.
#[test]
fn planned_audit_matches_unplanned_on_seeded_families() {
    use olap_dimension_constraints::summarizability::advisor;
    let mut rng = StdRng::seed_from_u64(0x914AA);
    for round in 0..6 {
        let ds = random_schema(
            &SchemaGenParams {
                layers: rng.gen_range(2..4),
                width: rng.gen_range(2..4),
                extra_edge_prob: 0.35,
                into_fraction: rng.gen_range(0.0..1.0),
                constants_per_category: 2,
                exceptions: rng.gen_range(0..3),
                ordered_exceptions: rng.gen_range(0..2),
            },
            &mut rng,
        ).unwrap();
        let unplanned = advisor::audit(&ds);
        let planned = advisor::audit_planned(&ds);
        assert_eq!(
            planned.render(&ds),
            unplanned.render(&ds),
            "round {round}: {ds}"
        );
        for jobs in [2usize, 4] {
            let mut gov = Governor::unlimited();
            let par = advisor::audit_run(&ds, Run::new(&mut gov).jobs(jobs).planned(true))
                .expect("nothing to resume");
            assert_eq!(
                par.render(&ds),
                unplanned.render(&ds),
                "round {round} jobs {jobs}: {ds}"
            );
        }
    }
}

/// Planner parity on the adversarial end of the spectrum: Theorem-4
/// SAT-reduction schemas, where categories are genuinely unsatisfiable
/// exactly when the encoded 3-SAT formula is. Sweep and Theorem-1
/// battery verdicts are identical planned and unplanned, and every
/// planned countermodel is a genuine frozen dimension that structurally
/// refutes its battery constraint.
#[test]
fn planned_verdicts_match_unplanned_on_sat_adversarial_schemas() {
    use olap_dimension_constraints::plan::SharedFacts;
    use olap_dimension_constraints::summarizability::advisor::rewrite_pairs;
    use olap_dimension_constraints::summarizability::{
        is_summarizable_in_schema_run, summarizability_constraints, SummarizabilityVerdict,
    };
    let mut rng = StdRng::seed_from_u64(0xADA547);
    for n_vars in [4usize, 6] {
        for ratio in [2usize, 4, 6] {
            let formula = random_3sat(n_vars, n_vars * ratio, &mut rng);
            let (ds, _bottom) = encode_sat(&formula);
            let g = ds.hierarchy();
            let solver = Dimsat::new(&ds);

            // Sweep parity: witness sharing and biggest-region-first
            // execution must not change a single verdict.
            let full = solver.unsatisfiable_categories();
            assert!(full.is_complete());
            let mut gov = Governor::unlimited();
            let facts = SharedFacts::new(g.num_categories());
            let planned = solver
                .unsatisfiable_categories_run(Run::new(&mut gov).planned(true).facts(&facts))
                .expect("nothing to resume");
            assert!(planned.is_complete(), "n={n_vars} ratio={ratio}");
            assert_eq!(planned.unsat, full.unsat, "n={n_vars} ratio={ratio}");
            assert_eq!(planned.sat, full.sat, "n={n_vars} ratio={ratio}");

            // Theorem-1 battery parity over the rewrite pairs.
            for &(coarse, fine) in rewrite_pairs(g).iter().take(6) {
                let battery = |plan: bool| {
                    let mut gov = Governor::unlimited();
                    let run = Run::new(&mut gov).planned(plan);
                    let opts = DimsatOptions::default();
                    is_summarizable_in_schema_run(&ds, coarse, &[fine], opts, run)
                        .expect("nothing to resume")
                };
                let serial = battery(false);
                let planned = battery(true);
                let ctx = format!(
                    "n={n_vars} ratio={ratio} {}<-{}",
                    g.name(coarse),
                    g.name(fine)
                );
                assert_eq!(planned.verdict, serial.verdict, "{ctx}");
                if planned.verdict == SummarizabilityVerdict::NotSummarizable {
                    // The planned countermodel may be a different witness
                    // than the serial one, but it must be a genuine frozen
                    // dimension that structurally refutes its constraint.
                    let cx = planned.counterexample.as_ref().expect("countermodel");
                    assert_eq!(cx.verify(&ds), Ok(()), "{ctx}");
                    let b = planned.failing_bottom.expect("failing bottom");
                    let dc = summarizability_constraints(g, coarse, &[fine])
                        .into_iter()
                        .find(|dc| dc.root() == b)
                        .expect("constraint for failing bottom");
                    assert_eq!(
                        olap_dimension_constraints::plan::eval_structural(
                            cx.subhierarchy(),
                            dc.formula()
                        ),
                        Some(false),
                        "{ctx}: countermodel does not refute the constraint"
                    );
                }
            }
        }
    }
}

/// The incremental In* bookkeeping (Figure 6's own data structure) and
/// the DFS-recomputation mode explore identical search trees.
#[test]
fn instar_modes_explore_identical_trees() {
    let mut rng = StdRng::seed_from_u64(0x1257A6);
    for round in 0..12 {
        let ds = random_schema(
            &SchemaGenParams {
                layers: 3,
                width: 3,
                extra_edge_prob: 0.4,
                into_fraction: 0.6,
                constants_per_category: 2,
                exceptions: 2,
                ordered_exceptions: 1,
            },
            &mut rng,
        ).unwrap();
        let bottom = ds.hierarchy().category_by_name("B").unwrap();
        let (f1, o1) = Dimsat::new(&ds).enumerate_frozen(bottom);
        let (f2, o2) =
            Dimsat::with_options(&ds, DimsatOptions::full().without_incremental_instar())
                .enumerate_frozen(bottom);
        let a: BTreeSet<_> = f1.iter().map(edge_fingerprint).collect();
        let b: BTreeSet<_> = f2.iter().map(edge_fingerprint).collect();
        assert_eq!(a, b, "round {round}");
        assert_eq!(
            o1.stats.expand_calls, o2.stats.expand_calls,
            "round {round}"
        );
        assert_eq!(o1.stats.check_calls, o2.stats.check_calls, "round {round}");
    }
}

/// Forbidden-into pruning (`¬(c_c')` drops the edge from every expansion)
/// does not change answers, and Example 11's negated constraint now
/// short-circuits the search.
#[test]
fn forbidden_into_pruning_is_sound() {
    let ds = olap_dimension_constraints::workload::location_sch();
    let g = ds.hierarchy();
    // Forbid Store→SaleRegion: the USA structures lose their direct sale
    // region edge; only Canada and Mexico remain.
    let ds2 = ds.with_constraint(parse_constraint(g, "!Store_SaleRegion").unwrap());
    let store = g.category_by_name("Store").unwrap();
    let (frozen, _) = Dimsat::new(&ds2).enumerate_frozen(store);
    let (frozen_no_into, _) =
        Dimsat::with_options(&ds2, DimsatOptions::without_into_pruning()).enumerate_frozen(store);
    let a: BTreeSet<_> = frozen.iter().map(edge_fingerprint).collect();
    let b: BTreeSet<_> = frozen_no_into.iter().map(edge_fingerprint).collect();
    assert_eq!(a, b, "pruned and unpruned searches disagree");
    assert_eq!(
        frozen.len(),
        2,
        "only the Canada and Mexico structures survive"
    );
    let sale_region = g.category_by_name("SaleRegion").unwrap();
    for f in &frozen {
        assert!(!f.subhierarchy().has_edge(store, sale_region));
        assert_eq!(f.verify(&ds2), Ok(()));
    }
    // And on random schemas with random forbidden edges:
    let mut rng = StdRng::seed_from_u64(0xF0B1D);
    for round in 0..10 {
        let base = random_schema(
            &SchemaGenParams {
                layers: 2,
                width: 2,
                extra_edge_prob: 0.5,
                into_fraction: 0.3,
                constants_per_category: 2,
                exceptions: 1,
                ordered_exceptions: 0,
            },
            &mut rng,
        ).unwrap();
        let gg = base.hierarchy();
        // Forbid one random multi-parent edge.
        let multi: Vec<_> = gg
            .categories()
            .filter(|&c| !c.is_all() && gg.parents(c).len() >= 2)
            .collect();
        if multi.is_empty() {
            continue;
        }
        let c = multi[rng.gen_range(0..multi.len())];
        let p = gg.parents(c)[rng.gen_range(0..gg.parents(c).len())];
        let forbid = parse_constraint(gg, &format!("!{}_{}", gg.name(c), gg.name(p))).unwrap();
        let ds3 = base.with_constraint(forbid);
        let bottom = gg.category_by_name("B").unwrap();
        let (f1, _) = Dimsat::new(&ds3).enumerate_frozen(bottom);
        let (f2, _) = Dimsat::with_options(&ds3, DimsatOptions::without_into_pruning())
            .enumerate_frozen(bottom);
        let a: BTreeSet<_> = f1.iter().map(edge_fingerprint).collect();
        let b: BTreeSet<_> = f2.iter().map(edge_fingerprint).collect();
        assert_eq!(a, b, "round {round}");
    }
}
