//! The on-disk verdict repository.
//!
//! Layout under the repository directory:
//!
//! ```text
//! <dir>/LOCK                    single-writer lock (holds the pid)
//! <dir>/segments/seg-000001.log append-only record segments
//! <dir>/index.v1                rebuildable index snapshot
//! <dir>/.quarantine/...         corrupt tails cut off by recovery
//! ```
//!
//! Segments are the source of truth: a header line followed by
//! CRC-framed record bodies (`rec <len> <crc32hex>\n` + `len` body
//! bytes). Appends are fsynced; a crash mid-append leaves a torn tail
//! that the next open detects (length or CRC mismatch), copies into
//! `.quarantine/`, and truncates away — every record before the tear
//! survives, and the torn record reads as a clean miss, never a wrong
//! verdict.
//!
//! The index is an atomic snapshot of the live key→verdict map plus
//! `covers` lines recording how many segment bytes it reflects. On
//! open, fully-covered segments are skipped and only appended tails
//! are scanned; a missing, corrupt, or stale index simply degrades to
//! a full rescan. Deleting `index.v1` is always safe.
//!
//! One process holds the writer lock; other processes degrade to
//! lockless read-only mode (appends are fsynced before the index is
//! rewritten, so readers see a prefix-consistent store).

use std::collections::HashMap;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use odc_constraint::DimensionSchema;
use odc_govern::{IoFaultKind, IoFaultPlan};
use odc_obs::{Obs, RepoEvent};

use crate::crc::crc32;
use crate::footprint::{survives, SchemaSummary};
use crate::fsutil::{append_frame, atomic_write};
use crate::record::{RecordBody, StoredVerdict, VerdictKey};

const SEGMENT_HEADER: &str = "odc-repo-segment v1\n";
const INDEX_HEADER: &str = "odc-repo-index v1\n";
/// Roll to a fresh segment once the current one exceeds this.
const SEGMENT_ROLL_BYTES: u64 = 4 * 1024 * 1024;

/// Counters exposed by [`VerdictRepo::stats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepoStats {
    /// Lookups answered from the store.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Verdicts appended this session.
    pub puts: u64,
    /// Records loaded from disk at open.
    pub loaded_records: u64,
    /// Records dropped by recovery at open (torn tails).
    pub recovered_records: u64,
    /// Bytes moved to `.quarantine/` at open.
    pub quarantined_bytes: u64,
}

/// Result of [`VerdictRepo::sync_schema`]: how the store reconciled a
/// (possibly edited) schema against what it has on disk.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SchemaSync {
    /// The schema fingerprint after syncing.
    pub fingerprint: u64,
    /// `true` if this exact fingerprint was already known (pure warm
    /// start, nothing migrated).
    pub known: bool,
    /// Verdicts carried over from the nearest prior schema because
    /// their footprints were disjoint from the edit delta.
    pub migrated: usize,
    /// Verdicts of the nearest prior schema that the edit
    /// invalidated (footprint overlapped the delta).
    pub invalidated: usize,
    /// Number of categories the edit touched (delta size), when a
    /// prior schema was found.
    pub delta: usize,
}

struct Inner {
    /// Shared so that a lookup hands out the verdict without copying
    /// its strings.
    map: HashMap<VerdictKey, Arc<StoredVerdict>>,
    pending: HashMap<VerdictKey, String>,
    /// fingerprint → (catalog name, schema source, summary lines).
    schemas: HashMap<u64, (String, String, Vec<String>)>,
    /// Current segment index (1-based) and its on-disk length.
    seg: u32,
    seg_len: u64,
    /// Per-segment lengths reflected in memory, for index `covers`.
    covered: HashMap<u32, u64>,
    stats: RepoStats,
    dirty: bool,
}

/// A crash-safe persistent verdict repository. All methods take
/// `&self`; the handle is `Sync` and shared freely across the
/// parallel batteries.
pub struct VerdictRepo {
    dir: PathBuf,
    read_only: bool,
    obs: Obs,
    faults: Option<IoFaultPlan>,
    inner: Mutex<Inner>,
}

fn lock_path(dir: &Path) -> PathBuf {
    dir.join("LOCK")
}

fn seg_name(i: u32) -> String {
    format!("seg-{i:06}.log")
}

fn seg_path(dir: &Path, i: u32) -> PathBuf {
    dir.join("segments").join(seg_name(i))
}

fn parse_seg_name(name: &str) -> Option<u32> {
    name.strip_prefix("seg-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

fn pid_alive(pid: u32) -> bool {
    Path::new(&format!("/proc/{pid}")).exists()
}

/// Scan one segment's bytes starting at `from`, applying each decoded
/// record via `apply`. Returns `(valid_end, records)` — the offset
/// just past the last intact record and how many were applied. Any
/// framing, CRC, or decode failure stops the scan at the previous
/// record boundary.
pub(crate) fn scan_frames(
    bytes: &[u8],
    from: usize,
    mut apply: impl FnMut(RecordBody),
) -> (usize, u64) {
    let mut pos = from;
    let mut records = 0u64;
    loop {
        if pos >= bytes.len() {
            return (pos, records);
        }
        let Some(nl) = bytes[pos..].iter().position(|&b| b == b'\n') else {
            return (pos, records);
        };
        let header = match std::str::from_utf8(&bytes[pos..pos + nl]) {
            Ok(h) => h,
            Err(_) => return (pos, records),
        };
        let mut parts = header.split(' ');
        let (Some("rec"), Some(len), Some(crc), None) =
            (parts.next(), parts.next(), parts.next(), parts.next())
        else {
            return (pos, records);
        };
        let (Ok(len), Ok(crc)) = (len.parse::<usize>(), u32::from_str_radix(crc, 16)) else {
            return (pos, records);
        };
        let body_start = pos + nl + 1;
        let Some(body) = body_start
            .checked_add(len)
            .and_then(|end| bytes.get(body_start..end))
        else {
            return (pos, records);
        };
        if crc32(body) != crc {
            return (pos, records);
        }
        let Ok(text) = std::str::from_utf8(body) else {
            return (pos, records);
        };
        let Some(rec) = RecordBody::decode(text) else {
            return (pos, records);
        };
        apply(rec);
        records += 1;
        pos = body_start + len;
    }
}

pub(crate) fn frame(body: &str) -> Vec<u8> {
    let bytes = body.as_bytes();
    let mut out = format!("rec {} {:08x}\n", bytes.len(), crc32(bytes)).into_bytes();
    out.extend_from_slice(bytes);
    out
}

impl Inner {
    fn apply(&mut self, rec: RecordBody) {
        match rec {
            RecordBody::Put { key, verdict } => {
                self.pending.remove(&key);
                self.map.insert(key, Arc::new(verdict));
            }
            RecordBody::Schema {
                fingerprint,
                name,
                source,
                summary,
            } => {
                self.schemas.insert(fingerprint, (name, source, summary));
            }
            RecordBody::Pending { key, cursor } => {
                self.pending.insert(key, cursor);
            }
        }
    }
}

impl VerdictRepo {
    /// Open (creating if needed) the repository at `dir`.
    ///
    /// Acquires the single-writer lock if free (removing it first
    /// when its holder is a dead pid); otherwise opens in lockless
    /// read-only mode. Runs recovery on every segment: torn tails are
    /// quarantined and truncated (writer) or skipped (reader), and a
    /// `repo_recovery` event is emitted per affected segment.
    pub fn open(dir: &Path, obs: Obs, faults: Option<IoFaultPlan>) -> io::Result<VerdictRepo> {
        fs::create_dir_all(dir.join("segments"))?;
        // A due stale-lock fault plants a LOCK owned by a pid that
        // cannot exist, so the takeover path below runs for real.
        if faults
            .as_ref()
            .is_some_and(|f| f.due(IoFaultKind::StaleLock))
        {
            let _ = fs::write(lock_path(dir), "4194305\n");
        }
        let read_only = !Self::acquire_lock(dir, &obs)?;
        let mut inner = Inner {
            map: HashMap::new(),
            pending: HashMap::new(),
            schemas: HashMap::new(),
            seg: 1,
            seg_len: 0,
            covered: HashMap::new(),
            stats: RepoStats::default(),
            dirty: false,
        };
        let covers = Self::load_index(dir, &mut inner);
        Self::load_segments(dir, &mut inner, &covers, read_only, &obs)?;
        obs.repo(&RepoEvent {
            phase: "open",
            path: dir.display().to_string(),
            detail: if read_only {
                "read-only".to_string()
            } else {
                "writer".to_string()
            },
            records: inner.stats.loaded_records,
            bytes: inner.seg_len,
        });
        Ok(VerdictRepo {
            dir: dir.to_path_buf(),
            read_only,
            obs,
            faults,
            inner: Mutex::new(inner),
        })
    }

    /// `true` when another live process holds the writer lock and
    /// this handle persists nothing.
    pub fn read_only(&self) -> bool {
        self.read_only
    }

    /// The repository directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn acquire_lock(dir: &Path, obs: &Obs) -> io::Result<bool> {
        for attempt in 0..2 {
            match fs::OpenOptions::new()
                .write(true)
                .create_new(true)
                .open(lock_path(dir))
            {
                Ok(f) => {
                    use std::io::Write as _;
                    let mut f = f;
                    writeln!(&mut f, "{}", std::process::id())?;
                    return Ok(true);
                }
                Err(e) if e.kind() == io::ErrorKind::AlreadyExists => {
                    let holder = fs::read_to_string(lock_path(dir))
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    let stale = match holder {
                        Some(pid) => pid != std::process::id() && !pid_alive(pid),
                        // Unreadable/garbled lock: treat as stale once.
                        None => true,
                    };
                    if stale && attempt == 0 {
                        obs.repo(&RepoEvent {
                            phase: "lock_stale",
                            path: lock_path(dir).display().to_string(),
                            detail: format!(
                                "removing lock held by dead pid {}",
                                holder.map_or_else(|| "?".to_string(), |p| p.to_string())
                            ),
                            records: 0,
                            bytes: 0,
                        });
                        let _ = fs::remove_file(lock_path(dir));
                        continue;
                    }
                    obs.repo(&RepoEvent {
                        phase: "read_only",
                        path: dir.display().to_string(),
                        detail: format!(
                            "writer lock held by pid {}",
                            holder.map_or_else(|| "?".to_string(), |p| p.to_string())
                        ),
                        records: 0,
                        bytes: 0,
                    });
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        Ok(false)
    }

    /// Load the index snapshot if present and sane. Returns the
    /// per-segment `covers` offsets it vouches for (empty on a
    /// missing or rejected index, which forces a full rescan).
    fn load_index(dir: &Path, inner: &mut Inner) -> HashMap<u32, u64> {
        let Ok(bytes) = fs::read(dir.join("index.v1")) else {
            return HashMap::new();
        };
        let Some(rest) = bytes.strip_prefix(INDEX_HEADER.as_bytes()) else {
            return HashMap::new();
        };
        // covers lines come first, then record frames.
        let mut covers = HashMap::new();
        let mut pos = 0usize;
        while let Some(nl) = rest[pos..].iter().position(|&b| b == b'\n') {
            let Ok(line) = std::str::from_utf8(&rest[pos..pos + nl]) else {
                break;
            };
            let Some(body) = line.strip_prefix("covers ") else {
                break;
            };
            let Some((name, len)) = body.split_once(' ') else {
                break;
            };
            let (Some(seg), Ok(len)) = (parse_seg_name(name), len.parse::<u64>()) else {
                break;
            };
            covers.insert(seg, len);
            pos += nl + 1;
        }
        // A `covers` claim longer than the segment on disk means the
        // segment was truncated behind the index's back (recovery, or
        // a torn index rewrite): the snapshot may hold records that no
        // longer exist. Reject it and rescan from the segments.
        for (&seg, &len) in &covers {
            let actual = fs::metadata(seg_path(dir, seg)).map(|m| m.len()).unwrap_or(0);
            if actual < len {
                return HashMap::new();
            }
        }
        let mut staged = Vec::new();
        let (end, loaded) = scan_frames(&rest[pos..], 0, |rec| staged.push(rec));
        // An index that does not parse to its end is torn (the atomic
        // write protocol makes this near-impossible, but a corrupt
        // disk can still hand it to us): reject wholesale.
        if end != rest.len() - pos {
            return HashMap::new();
        }
        for rec in staged {
            inner.apply(rec);
        }
        inner.stats.loaded_records += loaded;
        covers
    }

    fn load_segments(
        dir: &Path,
        inner: &mut Inner,
        covers: &HashMap<u32, u64>,
        read_only: bool,
        obs: &Obs,
    ) -> io::Result<()> {
        let mut segs: Vec<u32> = Vec::new();
        for entry in fs::read_dir(dir.join("segments"))? {
            let entry = entry?;
            if let Some(i) = entry.file_name().to_str().and_then(parse_seg_name) {
                segs.push(i);
            }
        }
        segs.sort_unstable();
        for &i in &segs {
            let path = seg_path(dir, i);
            let bytes = fs::read(&path)?;
            let covered = covers.get(&i).copied().unwrap_or(0);
            let from = if covered > 0 {
                // Covered prefix already reflected via the index.
                usize::try_from(covered).unwrap_or(0)
            } else if bytes.starts_with(SEGMENT_HEADER.as_bytes()) {
                SEGMENT_HEADER.len()
            } else if bytes.is_empty() {
                0
            } else {
                // Unrecognized header: quarantine the whole file.
                Self::quarantine(dir, &path, &bytes, 0, read_only, obs, inner)?;
                inner.covered.insert(i, 0);
                continue;
            };
            let (valid_end, records) = scan_frames(&bytes, from, |rec| inner.apply(rec));
            inner.stats.loaded_records += records;
            if valid_end < bytes.len() {
                Self::quarantine(dir, &path, &bytes, valid_end, read_only, obs, inner)?;
            }
            let kept = if read_only { bytes.len() } else { valid_end };
            inner.covered.insert(i, kept as u64);
            if i >= inner.seg {
                inner.seg = i;
                inner.seg_len = kept as u64;
            }
        }
        Ok(())
    }

    /// Cut the tail `bytes[valid_end..]` off `path`: copy it into
    /// `.quarantine/`, truncate the segment (writer only), and emit a
    /// `repo_recovery` event.
    fn quarantine(
        dir: &Path,
        path: &Path,
        bytes: &[u8],
        valid_end: usize,
        read_only: bool,
        obs: &Obs,
        inner: &mut Inner,
    ) -> io::Result<()> {
        let tail = &bytes[valid_end..];
        let detail = if read_only {
            format!("torn tail of {} byte(s) skipped (read-only)", tail.len())
        } else {
            let qdir = dir.join(".quarantine");
            fs::create_dir_all(&qdir)?;
            let fname = path
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or("segment");
            let qpath = qdir.join(format!("{fname}.{valid_end}.tail"));
            atomic_write(&qpath, tail, None)?;
            let f = fs::OpenOptions::new().write(true).open(path)?;
            f.set_len(valid_end as u64)?;
            f.sync_all()?;
            format!(
                "torn tail of {} byte(s) quarantined to {}",
                tail.len(),
                qpath.display()
            )
        };
        inner.stats.recovered_records += 1;
        inner.stats.quarantined_bytes += tail.len() as u64;
        obs.repo(&RepoEvent {
            phase: "recovery",
            path: path.display().to_string(),
            detail,
            records: 1,
            bytes: tail.len() as u64,
        });
        Ok(())
    }

    fn locked(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Append one record body to the current segment (rolling to a
    /// new segment when full). No-op in read-only mode.
    fn append(&self, inner: &mut Inner, body: &RecordBody) -> io::Result<()> {
        if self.read_only {
            return Ok(());
        }
        if inner.seg_len >= SEGMENT_ROLL_BYTES {
            inner.seg += 1;
            inner.seg_len = 0;
        }
        let path = seg_path(&self.dir, inner.seg);
        if inner.seg_len == 0 {
            append_frame(&path, SEGMENT_HEADER.as_bytes(), None)?;
            inner.seg_len = SEGMENT_HEADER.len() as u64;
        }
        let f = frame(&body.encode());
        append_frame(&path, &f, self.faults.as_ref())?;
        inner.seg_len += f.len() as u64;
        inner.covered.insert(inner.seg, inner.seg_len);
        inner.dirty = true;
        Ok(())
    }

    /// Look up a decided verdict.
    pub fn get(&self, key: &VerdictKey) -> Option<Arc<StoredVerdict>> {
        let mut inner = self.locked();
        let hit = inner.map.get(key).cloned();
        if hit.is_some() {
            inner.stats.hits += 1;
        } else {
            inner.stats.misses += 1;
        }
        hit
    }

    /// Store a decided verdict (clearing any pending cursor for the
    /// same key) and append it durably.
    pub fn put(&self, key: VerdictKey, verdict: StoredVerdict) -> io::Result<()> {
        let mut inner = self.locked();
        let body = RecordBody::Put {
            key: key.clone(),
            verdict: verdict.clone(),
        };
        self.append(&mut inner, &body)?;
        inner.stats.puts += 1;
        inner.pending.remove(&key);
        inner.map.insert(key, Arc::new(verdict));
        Ok(())
    }

    /// Look up an interrupted solve's checkpoint cursor.
    pub fn pending(&self, key: &VerdictKey) -> Option<String> {
        self.locked().pending.get(key).cloned()
    }

    /// Persist a checkpoint cursor for an interrupted solve, to warm
    /// start the next attempt at the same key.
    pub fn put_pending(&self, key: VerdictKey, cursor: String) -> io::Result<()> {
        let mut inner = self.locked();
        let body = RecordBody::Pending {
            key: key.clone(),
            cursor: cursor.clone(),
        };
        self.append(&mut inner, &body)?;
        inner.pending.insert(key, cursor);
        Ok(())
    }

    /// Reconcile a schema with the store.
    ///
    /// If `fingerprint(ds)` is already known this is a no-op warm
    /// start. Otherwise the nearest stored schema (smallest edit
    /// delta) is located and every one of its verdicts whose
    /// footprint is disjoint from the delta is re-appended under the
    /// new fingerprint — those survive the edit; overlapping verdicts
    /// are left behind (invalidated) and will be re-solved, warm
    /// where pending cursors exist. Records of the old fingerprint
    /// are kept: they are still correct for the old schema.
    pub fn sync_schema(
        &self,
        ds: &DimensionSchema,
        name: &str,
        source: &str,
    ) -> io::Result<SchemaSync> {
        let fingerprint = odc_dimsat::schema_fingerprint(ds);
        let summary = SchemaSummary::of(ds);
        let mut inner = self.locked();
        if inner.schemas.contains_key(&fingerprint) {
            return Ok(SchemaSync {
                fingerprint,
                known: true,
                ..SchemaSync::default()
            });
        }
        // Nearest prior schema by delta size.
        let nearest = inner
            .schemas
            .iter()
            .map(|(&fp, (_, _, lines))| {
                let old = SchemaSummary::decode_lines(lines);
                (fp, old.distance(&summary), old)
            })
            .min_by_key(|&(_, d, _)| d);
        let mut sync = SchemaSync {
            fingerprint,
            ..SchemaSync::default()
        };
        if let Some((old_fp, _, old_summary)) = nearest {
            let delta = old_summary.delta(&summary);
            sync.delta = delta.len();
            let carried: Vec<(VerdictKey, Arc<StoredVerdict>)> = inner
                .map
                .iter()
                .filter(|(k, _)| k.fingerprint == old_fp)
                .map(|(k, v)| (k.clone(), v.clone()))
                .collect();
            for (k, v) in carried {
                if survives(&v.footprint, &delta) {
                    let new_key = VerdictKey {
                        fingerprint,
                        ..k
                    };
                    let body = RecordBody::Put {
                        key: new_key.clone(),
                        verdict: StoredVerdict::clone(&v),
                    };
                    self.append(&mut inner, &body)?;
                    inner.map.insert(new_key, v);
                    sync.migrated += 1;
                } else {
                    sync.invalidated += 1;
                }
            }
        }
        let body = RecordBody::Schema {
            fingerprint,
            name: name.to_string(),
            source: source.to_string(),
            summary: summary.encode_lines(),
        };
        self.append(&mut inner, &body)?;
        inner
            .schemas
            .insert(fingerprint, (name.to_string(), source.to_string(), summary.encode_lines()));
        if sync.migrated + sync.invalidated > 0 {
            self.obs.repo(&RepoEvent {
                phase: "migrate",
                path: self.dir.display().to_string(),
                detail: format!(
                    "schema '{name}' edit touched {} categorie(s): {} verdict(s) migrated, {} invalidated",
                    sync.delta, sync.migrated, sync.invalidated
                ),
                records: sync.migrated as u64,
                bytes: 0,
            });
        }
        Ok(sync)
    }

    /// Every stored schema as `(fingerprint, name, source)` — the
    /// restart-warm preload set for `odc-serve`.
    pub fn schemas(&self) -> Vec<(u64, String, String)> {
        self.locked()
            .schemas
            .iter()
            .map(|(&fp, (n, s, _))| (fp, n.clone(), s.clone()))
            .collect()
    }

    /// Number of live verdict records.
    pub fn record_count(&self) -> usize {
        self.locked().map.len()
    }

    /// Number of live verdicts for one schema fingerprint.
    pub fn record_count_for(&self, fingerprint: u64) -> usize {
        self.locked()
            .map
            .keys()
            .filter(|k| k.fingerprint == fingerprint)
            .count()
    }

    /// Session counters.
    pub fn stats(&self) -> RepoStats {
        self.locked().stats.clone()
    }

    /// Rewrite the index snapshot to reflect the in-memory state.
    /// Called automatically on drop; call explicitly before a
    /// long-running phase if crash-freshness of the index matters
    /// (the segments alone always suffice for correctness).
    pub fn flush(&self) -> io::Result<()> {
        let mut inner = self.locked();
        if self.read_only || !inner.dirty {
            return Ok(());
        }
        let mut out = String::from(INDEX_HEADER);
        let mut covered: Vec<(u32, u64)> = inner.covered.iter().map(|(&s, &l)| (s, l)).collect();
        covered.sort_unstable();
        for (seg, len) in covered {
            out.push_str(&format!("covers {} {len}\n", seg_name(seg)));
        }
        let mut bodies = Vec::new();
        for (fp, (name, source, summary)) in &inner.schemas {
            bodies.push(RecordBody::Schema {
                fingerprint: *fp,
                name: name.clone(),
                source: source.clone(),
                summary: summary.clone(),
            });
        }
        for (key, verdict) in &inner.map {
            bodies.push(RecordBody::Put {
                key: key.clone(),
                verdict: StoredVerdict::clone(verdict),
            });
        }
        for (key, cursor) in &inner.pending {
            bodies.push(RecordBody::Pending {
                key: key.clone(),
                cursor: cursor.clone(),
            });
        }
        let mut buf = out.into_bytes();
        for body in bodies {
            buf.extend_from_slice(&frame(&body.encode()));
        }
        atomic_write(&self.dir.join("index.v1"), &buf, self.faults.as_ref())?;
        inner.dirty = false;
        Ok(())
    }
}

impl Drop for VerdictRepo {
    fn drop(&mut self) {
        let _ = self.flush();
        if !self.read_only {
            let _ = fs::remove_file(lock_path(&self.dir));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("odc-repo-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn key(q: &str) -> VerdictKey {
        VerdictKey {
            fingerprint: 7,
            options: "defaults".to_string(),
            kind: "sat".to_string(),
            query: q.to_string(),
        }
    }

    fn verdict(v: &str) -> StoredVerdict {
        StoredVerdict {
            value: v.to_string(),
            payload: format!("payload for {v}\n"),
            footprint: vec!["A".to_string(), "All".to_string()],
        }
    }

    #[test]
    fn put_get_survives_reopen() {
        let d = tmpdir("reopen");
        {
            let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
            repo.put(key("q1"), verdict("sat")).unwrap();
            repo.put(key("q2"), verdict("unsat")).unwrap();
        }
        let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
        assert_eq!(repo.get(&key("q1")).as_deref(), Some(&verdict("sat")));
        assert_eq!(repo.get(&key("q2")).as_deref(), Some(&verdict("unsat")));
        assert_eq!(repo.get(&key("q3")), None);
        assert_eq!(repo.record_count(), 2);
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn reopen_without_index_rescans_segments() {
        let d = tmpdir("noindex");
        {
            let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
            repo.put(key("q1"), verdict("sat")).unwrap();
        }
        fs::remove_file(d.join("index.v1")).unwrap();
        let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
        assert_eq!(repo.get(&key("q1")).as_deref(), Some(&verdict("sat")));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn torn_tail_is_quarantined_and_earlier_records_survive() {
        let d = tmpdir("torn");
        {
            let plan = IoFaultPlan::new(IoFaultKind::TornWrite, 2);
            let repo = VerdictRepo::open(&d, Obs::none(), Some(plan)).unwrap();
            repo.put(key("q1"), verdict("sat")).unwrap();
            repo.put(key("q2"), verdict("unsat")).unwrap(); // torn
            // Index must not cover the torn record: drop without flush
            // would persist a fresh index, so remove it after drop.
        }
        let _ = fs::remove_file(d.join("index.v1"));
        let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
        assert_eq!(repo.get(&key("q1")).as_deref(), Some(&verdict("sat")));
        assert_eq!(repo.get(&key("q2")), None, "torn record is a clean miss");
        let st = repo.stats();
        assert_eq!(st.recovered_records, 1);
        assert!(st.quarantined_bytes > 0);
        assert!(d.join(".quarantine").read_dir().unwrap().next().is_some());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn pending_cursor_round_trips_and_clears_on_put() {
        let d = tmpdir("pending");
        {
            let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
            repo.put_pending(key("q1"), "cursor-text".to_string()).unwrap();
        }
        {
            let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
            assert_eq!(repo.pending(&key("q1")), Some("cursor-text".to_string()));
            repo.put(key("q1"), verdict("sat")).unwrap();
            assert_eq!(repo.pending(&key("q1")), None);
        }
        let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
        assert_eq!(repo.pending(&key("q1")), None);
        assert_eq!(repo.get(&key("q1")).as_deref(), Some(&verdict("sat")));
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn second_open_degrades_to_read_only() {
        let d = tmpdir("lock");
        let writer = VerdictRepo::open(&d, Obs::none(), None).unwrap();
        assert!(!writer.read_only());
        let reader = VerdictRepo::open(&d, Obs::none(), None).unwrap();
        assert!(reader.read_only());
        drop(writer);
        let writer2 = VerdictRepo::open(&d, Obs::none(), None).unwrap();
        assert!(!writer2.read_only());
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn stale_lock_is_taken_over() {
        let d = tmpdir("stale");
        fs::create_dir_all(&d).unwrap();
        // pid 4194305 exceeds the kernel's pid_max; it can never be alive.
        fs::write(lock_path(&d), "4194305\n").unwrap();
        let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
        assert!(!repo.read_only(), "dead holder's lock must be broken");
        let _ = fs::remove_dir_all(&d);
    }

    #[test]
    fn injected_stale_lock_fault_exercises_takeover() {
        let d = tmpdir("stalefault");
        let plan = IoFaultPlan::new(IoFaultKind::StaleLock, 1);
        let repo = VerdictRepo::open(&d, Obs::none(), Some(plan.clone())).unwrap();
        assert!(!repo.read_only());
        assert_eq!(plan.injections(), 1);
        let _ = fs::remove_dir_all(&d);
    }
}
