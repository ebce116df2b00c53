//! The crash matrix: every combination of truncation offset, record
//! boundary, index presence, and reader concurrency must yield the
//! correct verdict or a clean miss — never a wrong answer.
//!
//! The matrix simulates SIGKILL-at-any-byte by truncating a pristine
//! segment at every record boundary plus a seeded sample of mid-record
//! offsets, then reopening under four regimes (index kept/absent ×
//! writer/concurrent-reader). The companion test drives twenty seeded
//! schema edits through the footprint-based invalidation path and
//! checks each incremental re-audit against a from-scratch audit.
//!
//! The checkpoint file (a saved [`ResumeCache`]) gets the same
//! treatment: every I/O fault kind at each of two successive writes
//! leaves the last committed file or one refused with a typed error,
//! and seeded byte mutations of a valid file load cleanly — never with
//! an answer the original did not hold — or fail typed, never panic.

use odc_constraint::DimensionSchema;
use odc_dimsat::{AuditItem, ItemCache, Run};
use odc_govern::{Budget, CheckpointError, Governor, IoFaultKind, IoFaultPlan};
use odc_hierarchy::{Category, HierarchySchema};
use odc_obs::Obs;
use odc_rand::rngs::StdRng;
use odc_rand::{Rng, SeedableRng};
use odc_repo::{atomic_write, ResumeCache, StoredVerdict, VerdictKey, VerdictRepo};
use odc_summarizability::advisor;
use std::collections::BTreeSet;
use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

const SEGMENT_HEADER: &[u8] = b"odc-repo-segment v1\n";

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("odc-repo-matrix-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&d);
    d
}

fn key(i: usize) -> VerdictKey {
    VerdictKey {
        fingerprint: 42,
        options: "defaults".to_string(),
        kind: "sat".to_string(),
        query: format!("q{i}"),
    }
}

fn verdict(i: usize) -> StoredVerdict {
    StoredVerdict {
        value: format!("v{i}"),
        payload: format!("payload {i}\n"),
        footprint: vec![format!("C{i}")],
    }
}

/// Byte offsets of the frame boundaries in a segment: the header end,
/// then the end of each `rec <len> <crc>\n<body>` frame.
fn frame_boundaries(bytes: &[u8]) -> Vec<usize> {
    assert!(bytes.starts_with(SEGMENT_HEADER), "not a segment file");
    let mut pos = SEGMENT_HEADER.len();
    let mut out = vec![pos];
    while pos < bytes.len() {
        let nl = bytes[pos..]
            .iter()
            .position(|&b| b == b'\n')
            .expect("torn pristine segment");
        let head = std::str::from_utf8(&bytes[pos..pos + nl]).unwrap();
        let len: usize = head
            .split(' ')
            .nth(1)
            .and_then(|t| t.parse().ok())
            .expect("malformed frame head");
        pos += nl + 1 + len;
        out.push(pos);
    }
    out
}

#[test]
fn crash_matrix_correct_verdict_or_clean_miss_never_wrong() {
    const N: usize = 10;
    // Pristine store: N records, index flushed on drop.
    let base = tmpdir("base");
    {
        let repo = VerdictRepo::open(&base, Obs::none(), None).unwrap();
        for i in 0..N {
            repo.put(key(i), verdict(i)).unwrap();
        }
    }
    let seg = fs::read(base.join("segments").join("seg-000001.log")).unwrap();
    let boundaries = frame_boundaries(&seg);
    assert_eq!(boundaries.len(), N + 1, "one frame per record");

    // Truncation offsets: every record boundary (the clean-kill cases),
    // the degenerate prefixes of the header, and a seeded sample of
    // mid-record tears.
    let mut offsets: BTreeSet<usize> = boundaries.iter().copied().collect();
    offsets.insert(0);
    offsets.insert(SEGMENT_HEADER.len() / 2);
    let mut rng = StdRng::seed_from_u64(0x0DC_0C7A5);
    for _ in 0..40 {
        offsets.insert(rng.gen_range(1..seg.len()));
    }

    for &off in &offsets {
        for keep_index in [false, true] {
            for reader in [false, true] {
                let tag = format!("cell-{off}-{}{}", keep_index as u8, reader as u8);
                let d = tmpdir(&tag);
                fs::create_dir_all(d.join("segments")).unwrap();
                fs::write(d.join("segments").join("seg-000001.log"), &seg[..off]).unwrap();
                if keep_index {
                    fs::copy(base.join("index.v1"), d.join("index.v1")).unwrap();
                }
                if reader {
                    // A live writer holds the lock: our own pid.
                    fs::write(d.join("LOCK"), format!("{}\n", std::process::id())).unwrap();
                }
                let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
                assert_eq!(repo.read_only(), reader, "{tag}: lock regime");
                for i in 0..N {
                    let got = repo.get(&key(i));
                    if boundaries[i + 1] <= off {
                        // The record's last byte survived the kill:
                        // it must be served, exactly as written.
                        assert_eq!(got.as_deref(), Some(&verdict(i)), "{tag}: record {i} lost");
                    } else {
                        // Anything at or past the tear is a clean
                        // miss; a wrong verdict is the one outcome
                        // the format must make impossible.
                        assert!(
                            got.is_none(),
                            "{tag}: record {i} served from a torn tail: {got:?}"
                        );
                    }
                }
                if reader {
                    // Readers must not mutate a store they don't own.
                    assert!(!d.join(".quarantine").exists(), "{tag}: reader quarantined");
                    assert_eq!(
                        fs::read(d.join("segments").join("seg-000001.log")).unwrap(),
                        &seg[..off],
                        "{tag}: reader truncated the segment"
                    );
                } else {
                    // The writer recovered: the store accepts and
                    // serves fresh appends.
                    repo.put(key(777), verdict(777)).unwrap();
                    assert_eq!(
                        repo.get(&key(777)).as_deref(),
                        Some(&verdict(777)),
                        "{tag}: append"
                    );
                }
                drop(repo);
                let _ = fs::remove_dir_all(&d);
            }
        }
    }
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn writer_recovery_is_idempotent_and_reopenable() {
    // Tear mid-record, recover as writer, append, reopen: the second
    // open must see the recovered prefix plus the new record, and the
    // quarantined tail must still be on disk for forensics.
    const N: usize = 4;
    let base = tmpdir("idem");
    {
        let repo = VerdictRepo::open(&base, Obs::none(), None).unwrap();
        for i in 0..N {
            repo.put(key(i), verdict(i)).unwrap();
        }
    }
    let seg_path = base.join("segments").join("seg-000001.log");
    let seg = fs::read(&seg_path).unwrap();
    let boundaries = frame_boundaries(&seg);
    fs::write(&seg_path, &seg[..boundaries[N] - 3]).unwrap();
    let _ = fs::remove_file(base.join("index.v1"));
    {
        let repo = VerdictRepo::open(&base, Obs::none(), None).unwrap();
        assert!(repo.stats().quarantined_bytes > 0);
        repo.put(key(N), verdict(N)).unwrap();
    }
    let repo = VerdictRepo::open(&base, Obs::none(), None).unwrap();
    assert_eq!(repo.stats().quarantined_bytes, 0, "second open is clean");
    for i in 0..N - 1 {
        assert_eq!(repo.get(&key(i)).as_deref(), Some(&verdict(i)));
    }
    assert_eq!(repo.get(&key(N - 1)), None, "torn record stays gone");
    assert_eq!(
        repo.get(&key(N)).as_deref(),
        Some(&verdict(N)),
        "post-recovery append"
    );
    assert!(base.join(".quarantine").read_dir().unwrap().next().is_some());
    drop(repo);
    let _ = fs::remove_dir_all(&base);
}

#[test]
fn concurrent_reader_stays_read_only_and_never_lies() {
    let d = tmpdir("concurrent");
    let writer = VerdictRepo::open(&d, Obs::none(), None).unwrap();
    writer.put(key(1), verdict(1)).unwrap();
    let reader = VerdictRepo::open(&d, Obs::none(), None).unwrap();
    assert!(!writer.read_only());
    assert!(reader.read_only());
    assert_eq!(reader.get(&key(1)).as_deref(), Some(&verdict(1)));
    // A record appended after the reader's open may be invisible to
    // it (snapshot semantics) but must never surface corrupted.
    writer.put(key(2), verdict(2)).unwrap();
    let got = reader.get(&key(2));
    assert!(got.is_none() || got.as_deref() == Some(&verdict(2)));
    // Dropping the reader must not release the writer's lock.
    drop(reader);
    assert!(d.join("LOCK").exists(), "reader stole the writer's lock");
    writer.put(key(3), verdict(3)).unwrap();
    drop(writer);
    let again = VerdictRepo::open(&d, Obs::none(), None).unwrap();
    assert!(!again.read_only(), "lock released after writer drop");
    assert_eq!(again.get(&key(3)).as_deref(), Some(&verdict(3)));
    drop(again);
    let _ = fs::remove_dir_all(&d);
}

// ---------------------------------------------------------------------
// Incremental invalidation vs from-scratch audit.
// ---------------------------------------------------------------------

/// A `k`-branch star schema: Store fans out to B{i} -> T{i} -> All.
/// Constraint edits are branch-local, so their deltas are too —
/// which is exactly what the footprint machinery is supposed to
/// exploit.
fn branch_schema(k: usize, skip_edges: &BTreeSet<usize>, sigma: &[String]) -> DimensionSchema {
    let mut b = HierarchySchema::builder();
    let store = b.category("Store");
    for i in 0..k {
        let bi = b.category(&format!("B{i}"));
        let ti = b.category(&format!("T{i}"));
        b.edge(store, bi);
        b.edge(bi, ti);
        b.edge(ti, Category::ALL);
        if skip_edges.contains(&i) {
            // Structural edit: a shortcut from the bottom straight to
            // the branch top.
            b.edge(store, ti);
        }
    }
    let g = Arc::new(b.build().unwrap());
    let src = sigma.join("\n");
    DimensionSchema::parse(g, &src).unwrap()
}

#[test]
fn twenty_seeded_edits_incremental_audit_matches_from_scratch() {
    const K: usize = 5;
    // Pool of candidate constraints, each rooted in one branch.
    let pool: Vec<String> = (0..K)
        .flat_map(|i| {
            [
                format!("B{i}_T{i}"),
                format!("T{i} = v{i}"),
                format!("B{i}.T{i} = w{i} -> B{i}_T{i}"),
            ]
        })
        .collect();
    let mut active: BTreeSet<usize> = (0..pool.len()).step_by(2).collect();
    let mut skips: BTreeSet<usize> = BTreeSet::new();

    let sigma = |active: &BTreeSet<usize>| -> Vec<String> {
        active.iter().map(|&i| pool[i].clone()).collect()
    };

    let d = tmpdir("edits");
    let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
    let base = branch_schema(K, &skips, &sigma(&active));
    repo.sync_schema(&base, "base", "base").unwrap();
    let mut gov = Governor::unlimited();
    odc_repo::audit_with_repo(&base, &repo, &mut gov);

    let mut rng = StdRng::seed_from_u64(0x0DC_ED175);
    let mut migrations_seen = 0u32;
    for step in 0..20 {
        let structural = step % 5 == 4;
        if structural {
            let j = rng.gen_range(0..K);
            if !skips.remove(&j) {
                skips.insert(j);
            }
        } else {
            let c = rng.gen_range(0..pool.len());
            if !active.remove(&c) {
                active.insert(c);
            }
        }
        let ds = branch_schema(K, &skips, &sigma(&active));
        let sync = repo
            .sync_schema(&ds, "edited", &format!("edit {step}"))
            .unwrap();
        assert!(!sync.known, "every edit lands a fresh fingerprint");
        if !structural {
            // A branch-local constraint edit must carry some verdicts
            // from disjoint branches across the edit.
            assert!(
                sync.migrated > 0,
                "edit {step}: constraint edit migrated nothing \
                 (invalidated {})",
                sync.invalidated
            );
            migrations_seen += 1;
        }
        let fresh = advisor::audit(&ds);
        let mut gov = Governor::unlimited();
        let incremental = odc_repo::audit_with_repo(&ds, &repo, &mut gov);
        assert_eq!(
            incremental.render(&ds),
            fresh.render(&ds),
            "edit {step}: incremental audit diverged from from-scratch"
        );
    }
    assert_eq!(migrations_seen, 16, "4 structural + 16 constraint edits");
    drop(repo);
    let _ = fs::remove_dir_all(&d);
}

// ---------------------------------------------------------------------
// The checkpoint file: crash faults and hostile bytes.
// ---------------------------------------------------------------------

/// The audit of `ds` cut at `nodes` through a fresh cache.
fn cut_audit(ds: &DimensionSchema, nodes: u64) -> ResumeCache {
    let cache = ResumeCache::new(ds);
    let mut gov = Governor::from_budget(Budget::unlimited().with_node_limit(nodes));
    let report = advisor::audit_run(ds, Run::new(&mut gov).cache(&cache));
    assert!(report.interrupted.is_some(), "{nodes} nodes must cut the audit");
    cache
}

/// Every item the audit of `ds` asks about.
fn audit_items(ds: &DimensionSchema) -> Vec<AuditItem> {
    let g = ds.hierarchy();
    let mut items: Vec<AuditItem> = g.categories().map(AuditItem::Sat).collect();
    items.extend((0..ds.constraints().len()).map(AuditItem::Redundant));
    items.extend(g.bottom_categories().into_iter().map(AuditItem::Census));
    items.extend(advisor::rewrite_pairs(g).into_iter().map(|(c, f)| AuditItem::Rewrite(c, f)));
    items
}

#[test]
fn checkpoint_file_faults_leave_the_last_committed_file_or_a_typed_refusal() {
    let ds = branch_schema(3, &BTreeSet::new(), &["B0_T0".into(), "T1 = v1".into()]);
    let clean = advisor::audit(&ds).render(&ds);
    let (first, second) = (cut_audit(&ds, 40).to_bytes(), cut_audit(&ds, 400).to_bytes());
    assert_ne!(first, second, "the two generations must differ");
    let d = tmpdir("ckpt-faults");
    fs::create_dir_all(&d).unwrap();
    for kind in [IoFaultKind::TornWrite, IoFaultKind::SkipRename, IoFaultKind::StaleLock] {
        for nth in [1, 2] {
            let path = d.join(format!("{}-{nth}.ckpt", kind.as_str()));
            let plan = IoFaultPlan::new(kind, nth);
            atomic_write(&path, &first, Some(&plan)).unwrap();
            atomic_write(&path, &second, Some(&plan)).unwrap();
            let ctx = format!("{} at write {nth}", kind.as_str());
            let committed = match (kind, nth) {
                (IoFaultKind::TornWrite, 2) => None,
                (IoFaultKind::SkipRename, 2) => Some(&first),
                _ => Some(&second),
            };
            match (ResumeCache::load(&ds, &fs::read(&path).unwrap()), committed) {
                (Ok(cache), Some(want)) => {
                    assert_eq!(&cache.to_bytes(), want, "{ctx}: not the last committed file");
                    let mut gov = Governor::unlimited();
                    let resumed = advisor::audit_run(&ds, Run::new(&mut gov).cache(&cache));
                    assert_eq!(resumed.render(&ds), clean, "{ctx}: resume diverged");
                }
                (Err(CheckpointError::Malformed(_)), None) => {}
                (got, want) => panic!("{ctx}: loaded {:?}, expected {want:?}", got.err()),
            }
        }
    }
    let _ = fs::remove_dir_all(&d);
}

#[test]
fn mutated_checkpoint_files_load_cleanly_or_fail_typed() {
    let ds = branch_schema(3, &BTreeSet::new(), &["B0_T0".into(), "T1 = v1".into()]);
    let items = audit_items(&ds);
    // The first cut that leaves a pending cursor next to decided items.
    let original = (20..4000u64)
        .step_by(13)
        .map(|nodes| cut_audit(&ds, nodes))
        .find(|c| items.iter().any(|i| c.pending(&ds, i).is_some()))
        .expect("some cut leaves a pending cursor");
    let bytes = original.to_bytes();
    let mut rng = StdRng::seed_from_u64(0x0DC_C4EC);
    let (mut clean, mut refused) = (0, 0);
    for round in 0..3000 {
        let mut m = bytes.clone();
        let at = rng.gen_range(0..m.len());
        match rng.gen_range(0u32..4) {
            0 => m[at] ^= rng.gen_range(1u32..256) as u8,
            1 => m.truncate(at),
            2 => m.insert(at, rng.gen_range(0u32..256) as u8),
            _ => {
                m.remove(at);
            }
        }
        match ResumeCache::load(&ds, &m) {
            // A clean load may have lost whole records, never changed one.
            Ok(cache) => {
                clean += 1;
                for item in &items {
                    let got = cache.get(&ds, item);
                    assert!(got.is_none() || got == original.get(&ds, item), "round {round}: {item:?}");
                    let got = cache.pending(&ds, item);
                    assert!(got.is_none() || got == original.pending(&ds, item), "round {round}: {item:?}");
                }
            }
            Err(_) => refused += 1,
        }
    }
    assert!(refused > 2000, "only {refused} of 3000 mutants refused ({clean} loaded)");
}
