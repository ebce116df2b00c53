//! The in-memory item cache behind a checkpoint file.
//!
//! Every item a battery decides is a deterministic verdict, so a resumed
//! run needs the decided items and the interrupted items' cursors — not
//! a cursor into a stage loop. [`ResumeCache`] holds exactly that for
//! one run: `odc check`/`odc summarizable` run every `--retry` attempt
//! against one, `--checkpoint FILE` saves it when the run ends
//! undecided, and `--resume FILE` loads it back. Items are keyed and
//! encoded as the verdict repository keys and encodes them
//! ([`crate::drivers`]).
//!
//! The file is the repository's record framing under its own header:
//!
//! ```text
//! odc-item-cache v1 <schema fingerprint, 16 hex digits>
//! rec <len> <crc32hex>
//! <record body: a `put` or `pending` record, see `crate::record`>
//! ...
//! ```
//!
//! It is written whole through [`crate::atomic_write`], so a crash
//! leaves the previous file or the new one. Loading is strict: a file
//! for another schema, a record that is torn or fails its CRC, or an
//! `odc-checkpoint v1` envelope from before this format is refused with
//! a typed [`CheckpointError`], never partly read.

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use odc_constraint::DimensionSchema;
use odc_dimsat::{implication, AuditItem, ItemAnswer, ItemCache};
use odc_govern::{CheckpointEnvelope, CheckpointError};

use crate::drivers::{decode_answer, encode_answer, item_key};
use crate::record::{RecordBody, VerdictKey};
use crate::store::{frame, scan_frames};

const MAGIC: &str = "odc-item-cache v1";

/// A run-local [`ItemCache`] that a checkpoint file saves and loads.
pub struct ResumeCache {
    fingerprint: u64,
    /// Each item's `put` or `pending` record.
    records: Mutex<HashMap<VerdictKey, RecordBody>>,
}

impl ResumeCache {
    /// An empty cache for `ds`.
    pub fn new(ds: &DimensionSchema) -> Self {
        ResumeCache {
            fingerprint: implication::schema_fingerprint(ds),
            records: Mutex::new(HashMap::new()),
        }
    }

    /// Loads a file written by [`ResumeCache::to_bytes`] for `ds`.
    pub fn load(ds: &DimensionSchema, bytes: &[u8]) -> Result<Self, CheckpointError> {
        let nl = bytes
            .iter()
            .position(|&b| b == b'\n')
            .unwrap_or(bytes.len());
        let header = String::from_utf8_lossy(&bytes[..nl]);
        if header.starts_with("odc-checkpoint") {
            let env = CheckpointEnvelope::parse(&String::from_utf8_lossy(bytes))?;
            return Err(CheckpointError::Retired { kind: env.kind });
        }
        let fingerprint = header
            .strip_prefix(MAGIC)
            .and_then(|fp| fp.strip_prefix(' '))
            .filter(|fp| fp.len() == 16)
            .and_then(|fp| u64::from_str_radix(fp, 16).ok())
            .ok_or_else(|| {
                CheckpointError::malformed(format!("not an item-cache file: {header:?}"))
            })?;
        let cache = ResumeCache::new(ds);
        CheckpointError::check_fingerprint(fingerprint, cache.fingerprint)?;
        let mut records = Vec::new();
        let (end, _) = scan_frames(bytes, (nl + 1).min(bytes.len()), |r| records.push(r));
        if end != bytes.len() {
            return Err(CheckpointError::malformed(format!(
                "record at byte {end} is torn or fails its CRC"
            )));
        }
        let mut map = cache.lock();
        for record in records {
            let (RecordBody::Put { key, .. } | RecordBody::Pending { key, .. }) = &record else {
                return Err(CheckpointError::malformed(
                    "a schema record in an item cache",
                ));
            };
            CheckpointError::check_fingerprint(key.fingerprint, fingerprint)?;
            map.insert(key.clone(), record);
        }
        drop(map);
        Ok(cache)
    }

    /// Whether the cache holds no record (a checkpoint of it would
    /// resume nothing).
    pub fn is_empty(&self) -> bool {
        self.lock().is_empty()
    }

    /// The file form: the header, then one record per item in key order
    /// (so equal caches save equal bytes).
    pub fn to_bytes(&self) -> Vec<u8> {
        let map = self.lock();
        let mut sorted: Vec<(&VerdictKey, &RecordBody)> = map.iter().collect();
        sorted.sort_by_cached_key(|(key, _)| key.to_string());
        let mut out = format!("{MAGIC} {:016x}\n", self.fingerprint).into_bytes();
        for (_, record) in sorted {
            out.extend_from_slice(&frame(&record.encode()));
        }
        out
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, HashMap<VerdictKey, RecordBody>> {
        self.records.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl ItemCache for ResumeCache {
    fn get(&self, ds: &DimensionSchema, item: &AuditItem) -> Option<ItemAnswer> {
        match self.lock().get(&item_key(ds, item)?)? {
            RecordBody::Put { verdict, .. } => decode_answer(ds, item, verdict),
            _ => None,
        }
    }

    fn put(&self, ds: &DimensionSchema, item: &AuditItem, answer: ItemAnswer) {
        if let Some(key) = item_key(ds, item) {
            let verdict = encode_answer(ds, item, answer);
            self.lock()
                .insert(key.clone(), RecordBody::Put { key, verdict });
        }
    }

    fn pending(&self, ds: &DimensionSchema, item: &AuditItem) -> Option<String> {
        match self.lock().get(&item_key(ds, item)?)? {
            RecordBody::Pending { cursor, .. } => Some(cursor.clone()),
            _ => None,
        }
    }

    fn put_pending(&self, ds: &DimensionSchema, item: &AuditItem, cursor: String) {
        if let Some(key) = item_key(ds, item) {
            let mut map = self.lock();
            if !matches!(map.get(&key), Some(RecordBody::Put { .. })) {
                map.insert(key.clone(), RecordBody::Pending { key, cursor });
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_hierarchy::{Category, HierarchySchema};
    use std::sync::Arc;

    fn schema(sigma: &str) -> DimensionSchema {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        b.edge(store, city);
        b.edge(city, Category::ALL);
        DimensionSchema::parse(Arc::new(b.build().unwrap()), sigma).unwrap()
    }

    #[test]
    fn a_saved_cache_loads_back_for_its_schema_only() {
        let ds = schema("Store_City\n");
        let g = ds.hierarchy();
        let (store, city) = (
            g.category_by_name("Store").unwrap(),
            g.category_by_name("City").unwrap(),
        );
        let cache = ResumeCache::new(&ds);
        cache.put(&ds, &AuditItem::Sat(store), ItemAnswer::Sat);
        let query = AuditItem::Query(Category::ALL, vec![city]);
        cache.put_pending(&ds, &query, "implied\nStore\n".into());
        let bytes = cache.to_bytes();
        let back = ResumeCache::load(&ds, &bytes).unwrap();
        assert_eq!(back.to_bytes(), bytes);
        assert_eq!(back.get(&ds, &AuditItem::Sat(store)), Some(ItemAnswer::Sat));
        assert_eq!(
            back.pending(&ds, &query).as_deref(),
            Some("implied\nStore\n")
        );
        // A decided answer replaces the cursor, and a late cursor does
        // not replace the answer.
        back.put(&ds, &query, ItemAnswer::Holds);
        back.put_pending(&ds, &query, "implied\n".into());
        assert_eq!(
            (back.get(&ds, &query), back.pending(&ds, &query)),
            (Some(ItemAnswer::Holds), None)
        );
        let other = schema("");
        assert!(matches!(
            ResumeCache::load(&other, &bytes),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
    }

    #[test]
    fn envelopes_of_earlier_releases_are_refused_by_kind() {
        let ds = schema("");
        for kind in ["category-sweep", "theorem1-battery", "advisor-audit"] {
            let text = format!("odc-checkpoint v1\nkind {kind}\nfingerprint 3\nnext 0\nend\n");
            let err = ResumeCache::load(&ds, text.as_bytes()).err();
            assert_eq!(err, Some(CheckpointError::Retired { kind: kind.into() }));
            let shown = err.map(|e| e.to_string()).unwrap_or_default();
            assert!(
                shown.contains("odc-checkpoint v1") && shown.contains(kind),
                "{shown}"
            );
        }
        assert!(matches!(
            ResumeCache::load(&ds, b"odc-item-cache v2 0\n"),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
