//! Property test: for seeded batch streams from `crates/workload`,
//! incremental delta validation accepts/rejects exactly when the
//! full-revalidation oracle does — including batches that are invalid
//! only in combination with earlier batches — and the two paths leave
//! byte-identical stores behind. `check_batch` is checked to be pure on
//! every batch: repeating it gives the same errors, and a store it ran
//! on ingests exactly like one it never touched.

use odc_core::hierarchy::Category;
use odc_core::instance::text::quote;
use odc_core::instance::{DimensionInstance, Member};
use odc_core::olap::AggFn;
use odc_core::prelude::DimensionSchema;
use odc_rand::rngs::StdRng;
use odc_rand::SeedableRng;
use odc_store::{parse_batch, FactStore, IngestError};
use odc_workload::facts::random_fact_rows;
use odc_workload::{catalog, random_instance};

/// Serializes an instance's members parents-first, so any batch prefix
/// only references already-seen (or same-batch) parents.
fn member_lines(d: &DimensionInstance) -> Vec<String> {
    let mut members: Vec<Member> = d.members().filter(|&m| m != Member::ALL).collect();
    // Parents have strictly fewer ancestors than their children.
    members.sort_by_key(|&m| d.ancestors(m).len());
    members
        .iter()
        .map(|&m| {
            let mut line = format!(
                "{} : {}",
                quote(d.key(m)),
                d.schema().name(d.category_of(m))
            );
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
            if !parents.is_empty() {
                line.push_str(&format!(" < {}", parents.join(", ")));
            }
            line
        })
        .collect()
}

/// Drives one batch through three stores and asserts acceptance parity.
/// `inc` is checked with `check_batch` twice before it ingests, `plain`
/// never is, and `full` takes the full-revalidation oracle. On
/// rejection, the full oracle's condition (when it names one) must be
/// among the conditions the incremental path collects.
fn step(
    inc: &mut FactStore,
    plain: &mut FactStore,
    full: &mut FactStore,
    src: &str,
    line: usize,
    label: &str,
) -> Result<odc_store::BatchStats, IngestError> {
    let batch = parse_batch(src, line).expect(label);
    let all_inc = inc.check_batch(&batch);
    assert_eq!(inc.check_batch(&batch), all_inc, "{label}: check_batch is not repeatable");
    let i = inc.ingest_batch(&batch);
    let p = plain.ingest_batch(&batch);
    assert_eq!(i, p, "{label}: check_batch changed what ingest does");
    assert_same_store(inc, plain, label);
    let f = full.ingest_batch_full(&batch);
    assert_eq!(
        i.is_ok(),
        f.is_ok(),
        "{label}: incremental {i:?} vs full {f:?}\nbatch:\n{src}"
    );
    assert_eq!(i.is_ok(), all_inc.is_empty(), "{label}: check_batch disagrees");
    if let (Err(ie), Err(fe)) = (&i, &f) {
        if let Some(fc) = fe.condition() {
            let inc_conditions: Vec<u8> = all_inc.iter().filter_map(|e| e.condition()).collect();
            assert!(
                inc_conditions.contains(&fc),
                "{label}: full found C{fc}, incremental found {inc_conditions:?} \
                 (first: {ie})\nbatch:\n{src}"
            );
        }
    }
    i
}

/// Same members (keys, names, categories, parents in plane order), same
/// facts, and the same cuboid at every single-category level.
fn assert_same_store(a: &FactStore, b: &FactStore, label: &str) {
    assert_eq!(a.num_dims(), b.num_dims());
    assert_eq!(a.num_facts(), b.num_facts(), "{label}: fact counts differ");
    assert_eq!(a.batches(), b.batches(), "{label}: batch counts differ");
    for dim in 0..a.num_dims() {
        let (da, db) = (a.instance(dim), b.instance(dim));
        assert_eq!(da.num_members(), db.num_members(), "{label}: member counts differ");
        for m in da.members() {
            assert_eq!(da.key(m), db.key(m), "{label}: keys differ");
            assert_eq!(da.name(m), db.name(m), "{label}: names differ");
            assert_eq!(da.category_of(m), db.category_of(m), "{label}: categories differ");
            assert_eq!(da.parents(m), db.parents(m), "{label}: parents differ");
        }
    }
    let g = a.schema(0).hierarchy();
    for c in g.categories() {
        let mut levels: Vec<Category> = vec![c];
        for dim in 1..a.num_dims() {
            levels.push(a.schema(dim).hierarchy().bottom_categories()[0]);
        }
        assert_eq!(
            a.materialize(&levels, AggFn::Sum),
            b.materialize(&levels, AggFn::Sum),
            "{label}: cuboid divergence at {}",
            g.name(c)
        );
    }
}

fn stream_parity(ds: &DimensionSchema, bottom: Category, seed: u64, batch_size: usize) {
    let mut rng = StdRng::seed_from_u64(seed);
    let d = match random_instance(ds, bottom, 60, 0.6, &mut rng) {
        Ok(d) => d,
        Err(_) => return, // unsatisfiable bottom: nothing to stream
    };
    let mut lines = member_lines(&d);
    for (m, v) in random_fact_rows(&d, 120, &mut rng) {
        lines.push(format!("{} -> {}", quote(d.key(m)), v));
    }

    let mut inc = FactStore::new(vec![ds.clone()]);
    let mut plain = FactStore::new(vec![ds.clone()]);
    let mut full = FactStore::new(vec![ds.clone()]);
    let mut line_no = 1;
    for chunk in lines.chunks(batch_size) {
        let src = chunk.join("\n");
        let r = step(&mut inc, &mut plain, &mut full, &src, line_no, "valid stream");
        assert!(r.is_ok(), "valid stream rejected: {r:?}");
        line_no += chunk.len();
    }
    assert_eq!(inc.num_facts(), 120);
    assert_eq!(inc.num_members(0), d.num_members());
    assert_eq!(full.num_members(0), inc.num_members(0));
    assert!(inc.revalidate().is_empty());

    // Adversarial tail batches: each must be rejected by BOTH paths and
    // leave both stores untouched. They reuse committed members, so they
    // are invalid only in combination with the earlier batches.
    let g = ds.hierarchy();
    let mut adversarial: Vec<(String, &str)> = Vec::new();
    // A batch valid on its own but C2-invalid against committed history:
    // a fresh member with two committed parents in the same category.
    'c2: for c in g.categories() {
        if c.is_all() {
            continue;
        }
        let in_c: Vec<Member> = d
            .members()
            .filter(|&m| d.category_of(m) == c && m != Member::ALL)
            .collect();
        if in_c.len() < 2 {
            continue;
        }
        for &child in g.children(c) {
            if child.is_all() {
                continue;
            }
            adversarial.push((
                format!(
                    "zz·c2 : {} < {}, {}",
                    g.name(child),
                    quote(d.key(in_c[0])),
                    quote(d.key(in_c[1]))
                ),
                "cross-batch C2",
            ));
            break 'c2;
        }
    }
    // An orphan (C7) in the bottom category.
    adversarial.push((format!("zz·orphan : {}", g.name(bottom)), "orphan C7"));
    // A fact keying a committed upper (non-base) member.
    if let Some(upper) = d
        .members()
        .find(|&m| m != Member::ALL && !d.base_members().contains(&m))
    {
        adversarial.push((format!("{} -> 1", quote(d.key(upper))), "non-base fact"));
    }
    // An unknown parent and a duplicate of a committed key.
    adversarial.push((
        format!("zz·dangling : {} < zz·nowhere", g.name(bottom)),
        "unknown parent",
    ));
    if let Some(m) = d.members().find(|&m| m != Member::ALL) {
        adversarial.push((
            format!("{} : {} < all", quote(d.key(m)), g.name(d.category_of(m))),
            "duplicate member",
        ));
    }

    let members_before = inc.num_members(0);
    let facts_before = inc.num_facts();
    for (src, label) in adversarial {
        let r = step(&mut inc, &mut plain, &mut full, &src, line_no, label);
        assert!(r.is_err(), "{label} accepted:\n{src}");
        assert_eq!(inc.num_members(0), members_before, "{label} leaked members");
        assert_eq!(inc.num_facts(), facts_before, "{label} leaked facts");
        assert_eq!(full.num_members(0), members_before);
        assert_eq!(full.num_facts(), facts_before);
    }

    // After identical accept/reject histories the two stores materialize
    // identical cuboids at every single-category granularity.
    for c in g.categories() {
        for agg in [AggFn::Sum, AggFn::Count] {
            assert_eq!(
                inc.materialize(&[c], agg),
                full.materialize(&[c], agg),
                "cuboid divergence at {}",
                g.name(c)
            );
        }
    }
}

#[test]
fn seeded_streams_agree_with_full_oracle() {
    for entry in catalog() {
        let ds = &entry.schema;
        let bottoms = ds.hierarchy().bottom_categories();
        let Some(&bottom) = bottoms.first() else {
            continue;
        };
        for seed in [1u64, 7, 42] {
            stream_parity(ds, bottom, seed, 17);
        }
    }
}

#[test]
fn batch_size_does_not_change_the_verdict() {
    // The same stream chopped into different batch sizes must commit the
    // same store (batching is an ingest detail, not a semantic one).
    let entry = &catalog()[0];
    let ds = &entry.schema;
    let bottom = ds.hierarchy().bottom_categories()[0];
    for batch_size in [1, 5, 64, 1000] {
        stream_parity(ds, bottom, 99, batch_size);
    }
}

#[test]
fn rejected_batch_then_its_correction() {
    // Every batch declares members before their parents (forward
    // references). The first also declares `s1` twice; the second keys a
    // fact to `s2`, which it never declares. The corrected batch declares
    // `s2` and must commit the same store on every path.
    let ds = odc_workload::location_sch();
    let mut inc = FactStore::new(vec![ds.clone()]);
    let mut plain = FactStore::new(vec![ds.clone()]);
    let mut full = FactStore::new(vec![ds]);
    let rejected = "s1 : Store < Toronto\nToronto : City < Canada\ns1 : Store < Toronto\n\
                    Canada : Country < all\ns1 -> 4\n";
    let err = step(&mut inc, &mut plain, &mut full, rejected, 1, "duplicate in batch")
        .expect_err("a duplicate inside the batch is rejected");
    assert!(matches!(err, IngestError::DuplicateMember { row: 3, dim: 0, .. }), "{err}");
    assert_eq!(inc.num_members(0), 1, "the rejected batch leaked members");
    let dangling = "s2 -> 1\ns1 : Store < Toronto\nToronto : City < Canada\n\
                    Canada : Country < all\n";
    let err = step(&mut inc, &mut plain, &mut full, dangling, 6, "unknown fact member")
        .expect_err("a fact keying an undeclared member is rejected");
    assert!(matches!(err, IngestError::UnknownFactMember { row: 6, .. }), "{err}");
    let corrected = "s1 : Store < Toronto\nToronto : City < Canada\ns2 : Store < Toronto\n\
                     Canada : Country < all\ns1 -> 4\ns2 -> 1\n";
    let stats = step(&mut inc, &mut plain, &mut full, corrected, 10, "corrected")
        .expect("the corrected batch commits");
    assert_eq!(stats.members, 4);
    assert_eq!(stats.facts, 2);
    assert_same_store(&inc, &full, "corrected vs full oracle");
    assert!(inc.revalidate().is_empty());
}
