//! Heap-allocation budgets of the store's ingest, save and load paths.
//!
//! A counting global allocator tallies the allocations (and
//! reallocations) the calling thread makes, so parallel tests do not
//! disturb each other. Parse + ingest of a fact-only batch and `save`
//! must allocate a fixed number of times however many rows or members
//! they handle; `load` must stay far below one allocation per member
//! line.

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

/// The per-member-line load path this budget replaced made 1,262,447
/// allocations to load a 90,762-member store; `load` must stay under a
/// quarter of that ratio.
const OLD_LOAD_ALLOCS: u64 = 1_262_447;
const OLD_LOAD_MEMBERS: u64 = 90_762;

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
fn load_allocates_far_less_than_once_per_member() {
    let (s, _) = seeded_store(2_000, 10_000);
    let dir = scratch_dir("load");
    s.save(&dir).unwrap();
    let (loaded, n) = counted(|| FactStore::load(&dir));
    std::fs::remove_dir_all(&dir).ok();
    let loaded = loaded.unwrap();
    let members = loaded.num_members(0) as u64;
    assert_eq!(members, s.num_members(0) as u64);
    assert!(
        4 * n * OLD_LOAD_MEMBERS <= OLD_LOAD_ALLOCS * members,
        "{n} allocations to load {members} members"
    );
    let store = loaded
        .schema(0)
        .hierarchy()
        .category_by_name("Store")
        .unwrap();
    assert_ne!(store, Category::ALL);
    assert_eq!(loaded.cardinality(0, store), s.cardinality(0, store));
}
