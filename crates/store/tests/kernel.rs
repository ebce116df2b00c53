//! Differential tests for the group-by kernel behind
//! `FactStore::materialize` and `odc_olap::roll_up`: both must agree
//! cell for cell with the naive `odc_olap::cuboid` over the store's
//! exported fact table, on seeded heterogeneous stores, under all four
//! aggregates, on an empty store, and on a store whose cell space
//! exceeds its row count (the kernel's sorted path).

use odc_core::hierarchy::Category;
use odc_core::instance::text::quote;
use odc_core::instance::{DimensionInstance, Member, RollupTable};
use odc_core::olap::{cuboid, roll_up, AggFn};
use odc_core::prelude::DimensionSchema;
use odc_rand::rngs::StdRng;
use odc_rand::SeedableRng;
use odc_store::FactStore;
use odc_workload::facts::random_fact_rows;
use odc_workload::{catalog, location_sch, random_instance};

/// Member lines of dimension `dim`, parents first.
fn member_lines(d: &DimensionInstance, dim: usize) -> Vec<String> {
    let mut members: Vec<Member> = d.members().filter(|&m| m != Member::ALL).collect();
    members.sort_by_key(|&m| d.ancestors(m).len());
    let prefix = if dim == 0 {
        String::new()
    } else {
        format!("@{dim} ")
    };
    members
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
            format!(
                "{prefix}{} : {} < {}",
                quote(d.key(m)),
                d.schema().name(d.category_of(m)),
                parents.join(", ")
            )
        })
        .collect()
}

/// A one-dimension store over a seeded random instance of `ds`, with
/// `facts` rows whose measures span `[-100, 100]`.
fn seeded_store(ds: &DimensionSchema, seed: u64, base: usize, facts: usize) -> FactStore {
    let bottom = ds.hierarchy().bottom_categories()[0];
    let mut rng = StdRng::seed_from_u64(seed);
    let d = random_instance(ds, bottom, base, 0.5, &mut rng).expect("instance");
    let mut lines = member_lines(&d, 0);
    for (m, v) in random_fact_rows(&d, facts, &mut rng) {
        lines.push(format!("{} -> {v}", quote(d.key(m))));
    }
    let mut s = FactStore::new(vec![ds.clone()]);
    s.ingest_text(&lines.join("\n"), 1)
        .expect("seeded stream ingests");
    s
}

/// Every granularity vector of the store: one category per dimension.
fn granularities(s: &FactStore) -> Vec<Vec<Category>> {
    let mut out = vec![Vec::new()];
    for dim in 0..s.num_dims() {
        let cats: Vec<Category> = s.schema(dim).hierarchy().categories().collect();
        out = out
            .into_iter()
            .flat_map(|prefix| {
                cats.iter().map(move |&c| {
                    let mut v = prefix.clone();
                    v.push(c);
                    v
                })
            })
            .collect();
    }
    out
}

/// The differential check: `materialize` against `cuboid` at every
/// granularity, and `roll_up` against `cuboid` at every pair the store's
/// own verdicts call summarizable in every dimension. Returns how many
/// roll-ups were compared.
fn check_against_oracle(s: &FactStore, aggs: &[AggFn]) -> usize {
    let f = s.to_multi_fact_table();
    let rollups: Vec<RollupTable> = f.dims().iter().map(|d| RollupTable::new(d)).collect();
    let levels = granularities(s);
    let mut rolled = 0;
    for &agg in aggs {
        let stored: Vec<_> = levels.iter().map(|l| s.materialize(l, agg)).collect();
        for (l, c) in levels.iter().zip(&stored) {
            let direct = cuboid(&f, &rollups, l, agg);
            assert_eq!(c, &direct, "materialize at {l:?} under {agg}");
            assert_eq!(c.name, direct.name);
        }
        for (from, src) in levels.iter().zip(&stored) {
            for (to, direct) in levels.iter().zip(&stored) {
                let safe =
                    (0..s.num_dims()).all(|dim| s.summarizability_verdict(dim, from[dim], to[dim]));
                if !safe {
                    continue;
                }
                assert_eq!(
                    &roll_up(src, &rollups, to),
                    direct,
                    "roll_up {from:?} -> {to:?} under {agg}"
                );
                rolled += 1;
            }
        }
    }
    rolled
}

#[test]
fn seeded_heterogeneous_stores_match_the_oracle() {
    for entry in catalog() {
        for seed in [3u64, 11] {
            let s = seeded_store(&entry.schema, seed, 40, 600);
            assert!(check_against_oracle(&s, &AggFn::ALL) > 0);
        }
    }
}

#[test]
fn rows_without_an_ancestor_drop_out() {
    // The seeded location store is heterogeneous: some stores have no
    // SaleRegion (or no State), so those cuboids lose rows.
    let ds = location_sch();
    let s = seeded_store(&ds, 5, 60, 2_000);
    let g = ds.hierarchy();
    let total = s.materialize(&[g.category_by_name("Store").unwrap()], AggFn::Count);
    let total: i64 = total.cells.values().sum();
    assert_eq!(total, 2_000);
    let dropped = ["City", "Province", "State", "SaleRegion", "Country"]
        .iter()
        .any(|n| {
            let c = s.materialize(&[g.category_by_name(n).unwrap()], AggFn::Count);
            c.cells.values().sum::<i64>() < total
        });
    assert!(dropped, "the seeded instance should be heterogeneous");
}

#[test]
fn empty_store_materializes_empty_cuboids() {
    let s = FactStore::new(vec![location_sch()]);
    check_against_oracle(&s, &AggFn::ALL);
    for l in granularities(&s) {
        assert!(s.materialize(&l, AggFn::Count).is_empty());
    }
}

#[test]
fn sparse_two_dimension_store_takes_the_sorted_path() {
    let time = odc_core::parse_schema(
        "
hierarchy:
  Day > Month
  Month > Year
  Year > All
constraints:
",
    )
    .unwrap();
    let ds = location_sch();
    let mut rng = StdRng::seed_from_u64(29);
    let store_c = ds.hierarchy().category_by_name("Store").unwrap();
    let d = random_instance(&ds, store_c, 30, 0.5, &mut rng).expect("instance");
    let stores = d.base_members();
    let mut lines = member_lines(&d, 0);
    for y in 0..2 {
        lines.push(format!("@1 y{y} : Year < all"));
        for mo in 0..6 {
            lines.push(format!("@1 m{y}_{mo} : Month < y{y}"));
            for day in 0..5 {
                lines.push(format!("@1 d{y}_{mo}_{day} : Day < m{y}_{mo}"));
            }
        }
    }
    let facts = 250;
    for i in 0..facts {
        let st = stores[(i * 7 + i / 3) % stores.len()];
        lines.push(format!(
            "{}, d{}_{}_{} -> {}",
            quote(d.key(st)),
            i % 2,
            (i / 2) % 6,
            (i * 13) % 5,
            (i as i64 * 37) % 201 - 100
        ));
    }
    let mut s = FactStore::new(vec![ds.clone(), time.clone()]);
    s.ingest_text(&lines.join("\n"), 1)
        .expect("two-dimension stream");
    let day = time.hierarchy().category_by_name("Day").unwrap();
    // The premise: the base cell space is larger than the fact count.
    assert!(s.cardinality(0, store_c) * s.cardinality(1, day) > s.num_facts());
    assert!(check_against_oracle(&s, &AggFn::ALL) > 0);
}
