//! Heap-allocation budgets of the store's ingest, save and load paths.
//!
//! A counting global allocator tallies the allocations (and
//! reallocations) the calling thread makes, so parallel tests do not
//! disturb each other. Parse + ingest of a fact-only or a member-only
//! batch, `save` and `load` must each allocate a fixed number of times
//! however many rows or members they handle.

use odc_core::hierarchy::Category;
use odc_core::instance::text::quote;
use odc_core::instance::{DimensionInstance, Member};
use odc_rand::rngs::StdRng;
use odc_rand::SeedableRng;
use odc_store::{parse_batch, FactStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::path::PathBuf;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Runs `f`, returning its result and how many allocations it made on
/// this thread.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

/// `load`'s allocation budget per file it reads, whatever the files
/// hold (parsing a schema file takes most of it).
const LOAD_ALLOCS_PER_FILE: u64 = 96;

fn scratch_dir(tag: &str) -> PathBuf {
    std::env::temp_dir().join(format!("odc-store-allocs-{tag}-{}", std::process::id()))
}

/// A store over `locationSch` holding a seeded instance with `n_base`
/// base members and `n_facts` facts, plus one of its base keys.
fn seeded_store(n_base: usize, n_facts: usize) -> (FactStore, String) {
    let ds = odc_workload::location_sch();
    let bottom = ds.hierarchy().category_by_name("Store").unwrap();
    let mut rng = StdRng::seed_from_u64(5);
    let d = odc_workload::random_instance(&ds, bottom, n_base, 0.6, &mut rng).unwrap();
    let mut lines = member_lines(&d);
    for (m, v) in odc_workload::facts::random_fact_rows(&d, n_facts, &mut rng) {
        lines.push(format!("{} -> {v}", quote(d.key(m))));
    }
    let mut s = FactStore::new(vec![ds]);
    s.ingest_text(&lines.join("\n"), 1).unwrap();
    let base = d.base_members()[0];
    (s, d.key(base).to_string())
}

/// Member lines, parents first.
fn member_lines(d: &DimensionInstance) -> Vec<String> {
    let g = d.schema();
    let mut members: Vec<Member> = d.members().filter(|&m| m != Member::ALL).collect();
    members.sort_by_key(|&m| g.reachable_from(d.category_of(m)).len());
    members
        .iter()
        .map(|&m| {
            let mut line = format!("{} : {}", quote(d.key(m)), g.name(d.category_of(m)));
            for (i, &p) in d.parents(m).iter().enumerate() {
                line.push_str(if i == 0 { " < " } else { ", " });
                line.push_str(&if p == Member::ALL {
                    "all".into()
                } else {
                    quote(d.key(p))
                });
            }
            line
        })
        .collect()
}

/// Allocations to parse and ingest `rows` fact rows into a store that
/// holds members but no facts yet.
fn fact_batch_allocs(rows: usize) -> u64 {
    let (mut s, key) = seeded_store(50, 0);
    let key = quote(&key);
    let text: String = (0..rows).map(|k| format!("{key} -> {k}\n")).collect();
    let (stats, n) = counted(|| {
        let batch = parse_batch(&text, 1).unwrap();
        s.ingest_batch(&batch).unwrap()
    });
    assert_eq!(stats.facts, rows);
    assert_eq!(s.num_facts(), rows);
    n
}

#[test]
fn fact_batch_ingest_allocates_per_batch_not_per_row() {
    fact_batch_allocs(16); // warm this thread's lazily built state
    let small = fact_batch_allocs(1024);
    let large = fact_batch_allocs(65_536);
    assert_eq!(
        small, large,
        "1k rows: {small} allocations, 64k rows: {large}"
    );
    assert!(large <= 32, "{large} allocations for one fact batch");
}

/// Allocations to parse and ingest the member lines of a seeded
/// instance with `n_base` base members into a fresh store, and how
/// many members that committed.
fn member_batch_allocs(n_base: usize) -> (usize, u64) {
    let ds = odc_workload::location_sch();
    let bottom = ds.hierarchy().category_by_name("Store").unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let d = odc_workload::random_instance(&ds, bottom, n_base, 0.6, &mut rng).unwrap();
    let text = member_lines(&d).join("\n");
    let mut s = FactStore::new(vec![ds]);
    let (stats, n) = counted(|| {
        let batch = parse_batch(&text, 1).unwrap();
        s.ingest_batch(&batch).unwrap()
    });
    assert_eq!(stats.members + 1, d.num_members());
    (stats.members, n)
}

#[test]
fn member_batch_ingest_allocates_per_batch_not_per_member() {
    member_batch_allocs(20); // warm this thread's lazily built state
    let small = member_batch_allocs(500);
    let large = member_batch_allocs(20_000);
    assert!(large.0 > 20 * small.0, "{small:?} vs {large:?}");
    assert_eq!(
        small.1, large.1,
        "(members, allocations): {small:?} vs {large:?}"
    );
    assert!(
        large.1 <= 64,
        "{} allocations for one member batch",
        large.1
    );
}

#[test]
fn save_allocates_per_file_not_per_member() {
    let mut counts = Vec::new();
    for (n_base, n_facts) in [(200, 1_000), (4_000, 64_000)] {
        let (s, _) = seeded_store(n_base, n_facts);
        let dir = scratch_dir(&format!("save-{n_base}"));
        let (r, n) = counted(|| s.save(&dir));
        r.unwrap();
        std::fs::remove_dir_all(&dir).ok();
        counts.push((s.num_members(0), n));
    }
    assert_eq!(
        counts[0].1, counts[1].1,
        "(members, allocations): {counts:?}"
    );
}

#[test]
fn load_allocates_per_file_not_per_member() {
    let mut counts = Vec::new();
    for (n_base, n_facts) in [(200, 1_000), (4_000, 64_000)] {
        let (s, _) = seeded_store(n_base, n_facts);
        let dir = scratch_dir(&format!("load-{n_base}"));
        s.save(&dir).unwrap();
        let (loaded, n) = counted(|| FactStore::load(&dir));
        std::fs::remove_dir_all(&dir).ok();
        let loaded = loaded.unwrap();
        assert_eq!(loaded.num_members(0), s.num_members(0));
        assert_eq!(loaded.num_facts(), s.num_facts());
        let store = loaded
            .schema(0)
            .hierarchy()
            .category_by_name("Store")
            .unwrap();
        assert_ne!(store, Category::ALL);
        assert_eq!(loaded.cardinality(0, store), s.cardinality(0, store));
        counts.push((s.num_members(0), n));
    }
    assert_eq!(
        counts[0].1, counts[1].1,
        "(members, allocations): {counts:?}"
    );
    // meta.txt, then per dimension its schema and member files, then
    // facts.bin.
    let dims = 1;
    let files = 2 + 2 * dims;
    assert!(
        counts[1].1 <= LOAD_ALLOCS_PER_FILE * files,
        "{} allocations to load {files} files",
        counts[1].1
    );
}
