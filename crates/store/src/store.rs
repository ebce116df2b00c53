//! The columnar fact store.
//!
//! Members live in struct-of-arrays *dimension planes*: parallel `u32`
//! columns for interned key, interned display name, and category, plus a
//! flat parent column with per-member end offsets. Alongside the raw
//! columns each plane maintains the indexes incremental validation and
//! rollup execution read:
//!
//! * a dense symbol → member column (fact-key resolution: one keyed
//!   string hash in the interner, one array read);
//! * per-category membership bitsets (cuboid cardinalities, C4);
//! * the base-member bitset (fact admission);
//! * dense rollup columns `rollup[c][m]` — the unique ancestor of member
//!   `m` in category `c`, mirroring `odc_instance::RollupTable`
//!   (reflexive at the member's own category, `NONE` when unreachable).
//!
//! Ingest is batch-atomic: a staged batch either commits whole or is
//! rejected with a typed [`IngestError`]. Validation of C1–C7 is
//! *incremental* — the delta is checked against the maintained indexes,
//! not the world. The invariant making this sound: members are declared
//! at most once (duplicates are typed errors, as in `parse_instance`),
//! so every new link originates at a batch member and committed members
//! can never acquire new violations. [`FactStore::ingest_batch_full`]
//! keeps the full-revalidation path alive as the differential oracle.
//!
//! The staged delta is columnar too: members as columns borrowing the
//! batch text, fact coordinates as one flat column (`nd` entries per
//! row), and each staged member's ancestor row computed once, during
//! validation, into one flat column (`nc` entries per member) that the
//! commit appends as is.
//!
//! Known limitation: when the staged members form a `<`-cycle, the
//! incremental path reports the C6 cycle and skips the closure-based
//! checks (C2, same-category C6, C5) for that dimension, exactly as the
//! full validator skips C2 on cyclic instances.

use crate::batch::{parse_batch, parse_into, StagedBatch};
use crate::bitset::BitSet;
use crate::error::IngestError;
use crate::intern::{probe, Interner, EMPTY};
use odc_core::constraint::DimensionSchema;
use odc_core::hierarchy::{Category, HierarchySchema};
use odc_core::instance::text::{has_readable_form, push_quoted};
use odc_core::instance::{validate, DimensionInstance, Member};
use odc_core::olap::{group_by, AggFn, Cuboid, GroupColumn, MultiFactTable, NO_GROUP};
use std::path::Path;
use std::sync::Arc;

/// "No ancestor" sentinel in rollup columns.
const NONE: u32 = u32::MAX;

/// What one committed batch added.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchStats {
    /// Members committed by the batch.
    pub members: usize,
    /// Fact rows committed by the batch.
    pub facts: usize,
}

/// One dimension's columnar plane.
#[derive(Debug)]
struct DimPlane {
    schema: Arc<HierarchySchema>,
    /// Interned key per member; index 0 is always `all`.
    keys: Vec<u32>,
    /// Interned display name per member.
    names: Vec<u32>,
    /// Category index per member.
    category: Vec<u32>,
    /// Direct parents (member indices) of every member, member after
    /// member; member `v`'s run ends at `parent_end[v]`.
    parents: Vec<u32>,
    /// End offset of each member's run in `parents`.
    parent_end: Vec<u32>,
    /// Key symbol → member index (`NONE` for symbols that key no member
    /// of this dimension, or past the end).
    member_of: Vec<u32>,
    /// Per-category membership.
    members_in: Vec<BitSet>,
    /// Members of bottom categories (fact admission).
    base: BitSet,
    /// `bottom[c]`: whether category `c` is a bottom category.
    bottom: Vec<bool>,
    /// `rollup[c][m]`: unique ancestor of `m` in category `c`, or `NONE`.
    rollup: Vec<Vec<u32>>,
}

impl DimPlane {
    fn new(schema: Arc<HierarchySchema>, interner: &mut Interner) -> DimPlane {
        let nc = schema.num_categories();
        let all_sym = interner.intern("all");
        let mut members_in: Vec<BitSet> = (0..nc).map(|_| BitSet::new()).collect();
        members_in[Category::ALL.index()].insert(0);
        let mut bottom = vec![false; nc];
        for c in schema.bottom_categories() {
            bottom[c.index()] = true;
        }
        let rollup = (0..nc)
            .map(|c| vec![if c == Category::ALL.index() { 0 } else { NONE }])
            .collect();
        let mut member_of = vec![NONE; all_sym as usize + 1];
        member_of[all_sym as usize] = 0;
        DimPlane {
            schema,
            keys: vec![all_sym],
            names: vec![all_sym],
            category: vec![Category::ALL.index() as u32],
            parents: Vec::new(),
            parent_end: vec![0],
            member_of,
            members_in,
            base: BitSet::new(),
            bottom,
            rollup,
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }

    /// Member `v`'s direct parents.
    fn parents(&self, v: usize) -> &[u32] {
        run(&self.parents, &self.parent_end, v)
    }

    /// The committed member keyed by `key` (whose interner hash is
    /// `hash`), if any.
    fn member(&self, interner: &Interner, key: &str, hash: u64) -> Option<u32> {
        let sym = interner.get_hashed(key, hash)?;
        self.member_of
            .get(sym as usize)
            .copied()
            .filter(|&v| v != NONE)
    }
}

/// One dimension's staged members, as columns in staged (= commit)
/// order. Keys and names borrow the batch text; nothing is interned
/// before commit. Parents hold *final* member indices: committed
/// members keep their index, batch members get the index they will
/// occupy after the commit appends them in staged order.
#[derive(Debug)]
struct DimDelta<'b> {
    rows: Vec<usize>,
    keys: Vec<&'b str>,
    /// Each key's interner hash, taken once at staging and reused by
    /// the batch-local table and the commit's interning.
    hashes: Vec<u64>,
    names: Vec<&'b str>,
    category: Vec<u32>,
    /// Whether the source line declared any parent (distinguishes C7
    /// orphans from members whose parents merely failed to resolve).
    had_parents: Vec<bool>,
    /// Resolved parents, member after member; member `i`'s run ends at
    /// `parent_end[i]`.
    parents: Vec<u32>,
    parent_end: Vec<u32>,
    /// Batch-local key → staged index: an open-addressing table over
    /// `hashes`, at least twice as long as the dimension's member lines
    /// in the batch.
    by_key: Vec<u32>,
    /// Unique-ancestor rows, `nc` entries per staged member, filled once
    /// by validation (or by the unchecked path) and appended by commit.
    anc: Vec<u32>,
}

impl DimDelta<'_> {
    /// Empty columns sized for `members` member lines declaring
    /// `parents` parent keys in all.
    fn with_capacity(members: usize, parents: usize) -> Self {
        DimDelta {
            rows: Vec::with_capacity(members),
            keys: Vec::with_capacity(members),
            hashes: Vec::with_capacity(members),
            names: Vec::with_capacity(members),
            category: Vec::with_capacity(members),
            had_parents: Vec::with_capacity(members),
            parents: Vec::with_capacity(parents),
            parent_end: Vec::with_capacity(members),
            by_key: if members == 0 {
                Vec::new()
            } else {
                vec![EMPTY; (2 * members).next_power_of_two()]
            },
            anc: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.rows.len()
    }

    /// The `by_key` slot holding `key`, or the free slot where it
    /// belongs. The table must not be empty.
    fn slot(&self, key: &str, hash: u64) -> usize {
        probe(&self.by_key, hash, |s| {
            self.hashes[s as usize] == hash && self.keys[s as usize] == key
        })
    }

    /// The staged index of `key` (hashed as `hash`), if staged.
    fn get(&self, key: &str, hash: u64) -> Option<u32> {
        if self.by_key.is_empty() {
            return None;
        }
        let s = self.by_key[self.slot(key, hash)];
        (s != EMPTY).then_some(s)
    }

    /// Staged member `i`'s resolved parents.
    fn parents(&self, i: usize) -> &[u32] {
        run(&self.parents, &self.parent_end, i)
    }
}

/// A resolved, not-yet-validated batch.
#[derive(Debug, Default)]
struct Delta<'b> {
    /// Per dimension: the staged members.
    members: Vec<DimDelta<'b>>,
    /// Stream line per fact row.
    fact_rows: Vec<usize>,
    /// Final member index per fact row and dimension, `nd` per row.
    coords: Vec<u32>,
    /// Measure per fact row.
    measures: Vec<i64>,
    errors: Vec<IngestError>,
}

/// The columnar fact store: one [`DimPlane`] per dimension, shared
/// interner, and fact columns (one member column per dimension plus the
/// measure column).
#[derive(Debug)]
pub struct FactStore {
    schemas: Vec<DimensionSchema>,
    planes: Vec<DimPlane>,
    interner: Interner,
    fact_cols: Vec<Vec<u32>>,
    measures: Vec<i64>,
    batches: usize,
}

impl FactStore {
    /// An empty store over the given dimension schemas (each plane starts
    /// with just its `all` member).
    pub fn new(schemas: Vec<DimensionSchema>) -> FactStore {
        let mut interner = Interner::new();
        let planes = schemas
            .iter()
            .map(|ds| DimPlane::new(ds.hierarchy_arc(), &mut interner))
            .collect::<Vec<_>>();
        let fact_cols = (0..schemas.len()).map(|_| Vec::new()).collect();
        FactStore {
            schemas,
            planes,
            interner,
            fact_cols,
            measures: Vec::new(),
            batches: 0,
        }
    }

    /// Number of dimensions.
    pub fn num_dims(&self) -> usize {
        self.planes.len()
    }

    /// Number of committed fact rows.
    pub fn num_facts(&self) -> usize {
        self.measures.len()
    }

    /// Number of members in one dimension (including `all`).
    pub fn num_members(&self, dim: usize) -> usize {
        self.planes[dim].len()
    }

    /// Number of committed batches.
    pub fn batches(&self) -> usize {
        self.batches
    }

    /// The schema of one dimension.
    pub fn schema(&self, dim: usize) -> &DimensionSchema {
        &self.schemas[dim]
    }

    /// Measured cardinality of a category: how many members it holds.
    pub fn cardinality(&self, dim: usize, c: Category) -> usize {
        self.planes[dim].members_in[c.index()].count()
    }

    /// Parses and ingests one batch of stream text with incremental
    /// validation. `first_line` is the 1-based stream position of the
    /// first line (for global diagnostics).
    pub fn ingest_text(&mut self, src: &str, first_line: usize) -> Result<BatchStats, IngestError> {
        let batch = parse_batch(src, first_line)?;
        self.ingest_batch(&batch)
    }

    /// Ingests one staged batch: incremental C1–C7 validation of the
    /// delta against the maintained indexes, then an atomic commit.
    /// On error nothing is committed and the smallest-row error returns.
    pub fn ingest_batch(&mut self, batch: &StagedBatch<'_>) -> Result<BatchStats, IngestError> {
        let mut delta = self.stage(batch);
        self.validate_delta(&mut delta);
        if !delta.errors.is_empty() {
            delta.errors.sort_by_key(IngestError::row);
            return Err(delta.errors.remove(0));
        }
        Ok(self.commit(delta))
    }

    /// Validates one staged batch incrementally *without* committing,
    /// returning every violation found (sorted by row). The store is left
    /// untouched: staging interns nothing.
    pub fn check_batch(&self, batch: &StagedBatch<'_>) -> Vec<IngestError> {
        let mut delta = self.stage(batch);
        self.validate_delta(&mut delta);
        delta.errors.sort_by_key(IngestError::row);
        delta.errors
    }

    /// The differential oracle: ingests the batch by committing it
    /// unchecked, re-validating **the whole store** with
    /// `odc_instance::validate` plus a full fact scan, and rolling the
    /// commit back if anything is wrong. Slow by design — this is what
    /// incremental validation is benchmarked (and fuzzed) against.
    pub fn ingest_batch_full(&mut self, batch: &StagedBatch<'_>) -> Result<BatchStats, IngestError> {
        let mut delta = self.stage(batch);
        if !delta.errors.is_empty() {
            delta.errors.sort_by_key(IngestError::row);
            return Err(delta.errors.remove(0));
        }
        for (dim, dd) in delta.members.iter_mut().enumerate() {
            dd.anc = self.anc_rows(dim, dd);
        }
        let snap_members: Vec<usize> = self.planes.iter().map(DimPlane::len).collect();
        let snap_facts = self.measures.len();
        let stats = self.commit(delta);
        let mut errors = self.revalidate();
        if !errors.is_empty() {
            self.rollback(&snap_members, snap_facts);
            self.batches -= 1;
            errors.sort_by_key(IngestError::row);
            return Err(errors.remove(0));
        }
        Ok(stats)
    }

    /// Full revalidation of the entire store: rebuilds every dimension
    /// instance, runs the complete C1–C7 validator, and rescans every
    /// fact row. Member violations carry row 0 (the stream position is
    /// gone after commit); fact violations carry the 1-based fact index.
    pub fn revalidate(&self) -> Vec<IngestError> {
        let mut out = Vec::new();
        let mut bases: Vec<std::collections::HashSet<usize>> = Vec::new();
        for dim in 0..self.planes.len() {
            let d = self.instance(dim);
            for v in validate(&d).violations() {
                let member = match *v {
                    odc_core::instance::ConditionViolation::Connectivity { child, .. } => child,
                    odc_core::instance::ConditionViolation::Partitioning { member, .. } => member,
                    odc_core::instance::ConditionViolation::TopCategory { .. } => Member::ALL,
                    odc_core::instance::ConditionViolation::Shortcut { child, .. } => child,
                    odc_core::instance::ConditionViolation::Stratification { x, .. } => x,
                    odc_core::instance::ConditionViolation::UpConnectivity { member } => member,
                };
                out.push(IngestError::Condition {
                    row: 0,
                    dim,
                    condition: v.condition_number(),
                    member: d.key(member).to_string(),
                    detail: v.describe(&d),
                });
            }
            bases.push(d.base_members().into_iter().map(Member::index).collect());
        }
        for i in 0..self.measures.len() {
            for (dim, col) in self.fact_cols.iter().enumerate() {
                let m = col[i] as usize;
                if !bases[dim].contains(&m) {
                    let plane = &self.planes[dim];
                    out.push(IngestError::NonBaseFact {
                        row: i + 1,
                        dim,
                        key: self.interner.resolve(plane.keys[m]).to_string(),
                        category: plane
                            .schema
                            .name(Category::from_index(plane.category[m] as usize))
                            .to_string(),
                    });
                }
            }
        }
        out
    }

    // ---- staging ---------------------------------------------------

    /// Resolves a batch against the store: resolves categories and
    /// parents (forward references inside the batch are legal) and fact
    /// coordinates, keeping new keys in batch-local tables. Collects
    /// resolution errors without stopping, skipping unresolvable items.
    /// Every key is hashed once, and that hash probes both the interner
    /// and the batch-local table.
    fn stage<'b>(&self, batch: &StagedBatch<'b>) -> Delta<'b> {
        let nd = self.planes.len();
        // Size each dimension's columns once: its member lines and their
        // parent keys.
        let mut sizes = vec![(0usize, 0usize); nd];
        for rm in &batch.members {
            if let Some((members, parents)) = sizes.get_mut(rm.dim) {
                *members += 1;
                *parents += rm.line.parents.len();
            }
        }
        let mut delta = Delta {
            members: sizes
                .iter()
                .map(|&(members, parents)| DimDelta::with_capacity(members, parents))
                .collect(),
            ..Delta::default()
        };
        // Pass 1: member identities.
        for rm in &batch.members {
            let row = rm.row;
            if rm.dim >= nd {
                delta.errors.push(IngestError::Syntax {
                    row,
                    message: format!("dimension @{} out of range (store has {nd})", rm.dim),
                });
                continue;
            }
            let plane = &self.planes[rm.dim];
            let Some(cat) = plane.schema.category_by_name(rm.line.category) else {
                delta.errors.push(IngestError::UnknownCategory {
                    row,
                    dim: rm.dim,
                    name: rm.line.category.to_string(),
                });
                continue;
            };
            if cat.is_all() {
                delta.errors.push(IngestError::Condition {
                    row,
                    dim: rm.dim,
                    condition: 4,
                    member: rm.line.key.to_string(),
                    detail: "a second member in All (All must be exactly {all})".into(),
                });
                continue;
            }
            let key = rm.line.key;
            let hash = self.interner.hash(key);
            let dd = &mut delta.members[rm.dim];
            let slot = dd.slot(key, hash);
            if dd.by_key[slot] != EMPTY || plane.member(&self.interner, key, hash).is_some() {
                delta.errors.push(IngestError::DuplicateMember {
                    row,
                    dim: rm.dim,
                    key: key.to_string(),
                });
                continue;
            }
            if !has_readable_form(key) {
                delta.errors.push(IngestError::UnreadableKey {
                    row,
                    dim: rm.dim,
                    key: key.to_string(),
                });
                continue;
            }
            dd.by_key[slot] = dd.len() as u32;
            dd.rows.push(row);
            dd.keys.push(key);
            dd.hashes.push(hash);
            dd.names.push(rm.line.name.unwrap_or(key));
            dd.category.push(cat.index() as u32);
            dd.had_parents.push(!rm.line.parents.is_empty());
        }
        // Pass 2: parent links (staged keys may be referenced forward, so
        // this runs after all identities exist). Walk the batch again;
        // per dimension, the accepted lines come back in staged order, so
        // a cursor routes each to its slot and skips lines pass 1
        // rejected.
        let mut next = vec![0usize; nd];
        for rm in &batch.members {
            if rm.dim >= nd {
                continue;
            }
            let dd = &mut delta.members[rm.dim];
            let i = next[rm.dim];
            if dd.rows.get(i) != Some(&rm.row) {
                continue; // rejected in pass 1
            }
            next[rm.dim] += 1;
            let plane = &self.planes[rm.dim];
            let n_old = plane.len() as u32;
            for &p in batch.parents(rm) {
                let resolved = if p == "all" {
                    Some(0u32)
                } else {
                    let hash = self.interner.hash(p);
                    plane
                        .member(&self.interner, p, hash)
                        .or_else(|| dd.get(p, hash).map(|s| n_old + s))
                };
                match resolved {
                    Some(v) => dd.parents.push(v),
                    None => delta.errors.push(IngestError::UnknownParent {
                        row: rm.row,
                        dim: rm.dim,
                        key: rm.line.key.to_string(),
                        parent: p.to_string(),
                    }),
                }
            }
            dd.parent_end.push(dd.parents.len() as u32);
        }
        // Facts.
        delta.fact_rows.reserve(batch.facts.len());
        delta.coords.reserve(batch.facts.len() * nd);
        delta.measures.reserve(batch.facts.len());
        'facts: for rf in &batch.facts {
            let keys = batch.keys(rf);
            if keys.len() != nd {
                delta.errors.push(IngestError::Syntax {
                    row: rf.row,
                    message: format!("fact keys {} dimension(s), store has {nd}", keys.len()),
                });
                continue;
            }
            let start = delta.coords.len();
            for (dim, &key) in keys.iter().enumerate() {
                let plane = &self.planes[dim];
                let n_old = plane.len() as u32;
                let hash = self.interner.hash(key);
                let resolved = plane
                    .member(&self.interner, key, hash)
                    .or_else(|| delta.members[dim].get(key, hash).map(|s| n_old + s));
                match resolved {
                    Some(v) => delta.coords.push(v),
                    None => {
                        delta.errors.push(IngestError::UnknownFactMember {
                            row: rf.row,
                            dim,
                            key: key.to_string(),
                        });
                        delta.coords.truncate(start);
                        continue 'facts;
                    }
                }
            }
            delta.fact_rows.push(rf.row);
            delta.measures.push(rf.measure);
        }
        delta
    }

    // ---- incremental validation ------------------------------------

    /// Checks the staged delta against the maintained indexes ("validate
    /// the batch, not the world"), appends any violation to
    /// `delta.errors`, and leaves each dimension's ancestor rows in its
    /// [`DimDelta`] for the commit.
    fn validate_delta(&self, delta: &mut Delta<'_>) {
        for dim in 0..self.planes.len() {
            if delta.members[dim].len() > 0 {
                self.validate_dim_delta(dim, &mut delta.members[dim], &mut delta.errors);
            }
        }
        // Facts: every coordinate must sit in a bottom category. New
        // members count — the whole batch commits together.
        let nd = self.planes.len();
        for (&row, coords) in delta.fact_rows.iter().zip(delta.coords.chunks_exact(nd)) {
            for (dim, &v) in coords.iter().enumerate() {
                let plane = &self.planes[dim];
                let n_old = plane.len() as u32;
                let cat = if v < n_old {
                    plane.category[v as usize]
                } else {
                    delta.members[dim].category[(v - n_old) as usize]
                };
                if !plane.bottom[cat as usize] {
                    let key = if v < n_old {
                        self.interner.resolve(plane.keys[v as usize])
                    } else {
                        delta.members[dim].keys[(v - n_old) as usize]
                    };
                    delta.errors.push(IngestError::NonBaseFact {
                        row,
                        dim,
                        key: key.to_string(),
                        category: plane
                            .schema
                            .name(Category::from_index(cat as usize))
                            .to_string(),
                    });
                }
            }
        }
    }

    fn validate_dim_delta(&self, dim: usize, staged: &mut DimDelta<'_>, errs: &mut Vec<IngestError>) {
        let plane = &self.planes[dim];
        let g = &plane.schema;
        let nc = g.num_categories();
        let n_old = plane.len() as u32;
        let key_of = |staged: &DimDelta<'_>, v: u32| -> String {
            if v < n_old {
                self.interner.resolve(plane.keys[v as usize]).to_string()
            } else {
                staged.keys[(v - n_old) as usize].to_string()
            }
        };
        let cat_of = |staged: &DimDelta<'_>, v: u32| -> u32 {
            if v < n_old {
                plane.category[v as usize]
            } else {
                staged.category[(v - n_old) as usize]
            }
        };
        // C1 (connectivity) and C7 (up-connectivity). Only delta members
        // can violate them: committed members never gain or lose links.
        for i in 0..staged.len() {
            let v = n_old + i as u32;
            let (row, category) = (staged.rows[i], staged.category[i]);
            if staged.parents(i).is_empty() {
                if !staged.had_parents[i] {
                    // Parents that merely failed to resolve already
                    // produced UnknownParent; a genuine orphan is C7.
                    errs.push(IngestError::Condition {
                        row,
                        dim,
                        condition: 7,
                        member: key_of(staged, v),
                        detail: "member has no parent".into(),
                    });
                }
                continue;
            }
            for &p in staged.parents(i) {
                let (cc, pc) = (
                    Category::from_index(category as usize),
                    Category::from_index(cat_of(staged, p) as usize),
                );
                if !g.has_edge(cc, pc) {
                    errs.push(IngestError::Condition {
                        row,
                        dim,
                        condition: 1,
                        member: key_of(staged, v),
                        detail: format!(
                            "link to `{}` crosses {} ↗ {}, not a schema edge",
                            key_of(staged, p),
                            g.name(cc),
                            g.name(pc)
                        ),
                    });
                }
            }
        }
        // C6, cycle half. New links always originate at staged members,
        // so any new cycle lies entirely within the batch.
        if let Some(i) = staged_cycle(staged, n_old) {
            errs.push(IngestError::Condition {
                row: staged.rows[i],
                dim,
                condition: 6,
                member: key_of(staged, n_old + i as u32),
                detail: "link cycle among batch members".into(),
            });
            // No closure on a cyclic delta (mirrors the full validator,
            // which skips C2 on cyclic instances).
            return;
        }
        // Closure of the delta: per staged member, the unique-ancestor
        // row across all categories, merged from parent rows (committed
        // parents read their plane rollup columns). Clashes are C2;
        // same-category proper ancestors are C6; rows then drive C5.
        staged.anc = self.anc_rows(dim, staged);
        let staged = &*staged;
        let anc_of = |p: u32, c: usize| -> u32 {
            if p < n_old {
                plane.rollup[c][p as usize]
            } else {
                staged.anc[(p - n_old) as usize * nc + c]
            }
        };
        let mut reported = vec![false; nc];
        for i in 0..staged.len() {
            let v = n_old + i as u32;
            let (row, category) = (staged.rows[i], staged.category[i] as usize);
            reported.fill(false);
            for &p in staged.parents(i) {
                for (c, seen) in reported.iter_mut().enumerate() {
                    let cand = anc_of(p, c);
                    if cand == NONE {
                        continue;
                    }
                    if c == category {
                        if cand != v && !*seen {
                            *seen = true;
                            errs.push(IngestError::Condition {
                                row,
                                dim,
                                condition: 6,
                                member: key_of(staged, v),
                                detail: format!(
                                    "rolls up to `{}` within its own category {}",
                                    key_of(staged, cand),
                                    g.name(Category::from_index(c))
                                ),
                            });
                        }
                        continue;
                    }
                    let have = staged.anc[i * nc + c];
                    debug_assert_ne!(have, NONE, "anc row missing a merged ancestor");
                    if have != cand && !*seen {
                        *seen = true;
                        errs.push(IngestError::Condition {
                            row,
                            dim,
                            condition: 2,
                            member: key_of(staged, v),
                            detail: format!(
                                "rolls up to both `{}` and `{}` in category {}",
                                key_of(staged, have),
                                key_of(staged, cand),
                                g.name(Category::from_index(c))
                            ),
                        });
                    }
                }
            }
        }
        // C5 (no shortcuts): the direct link x < y is redundant when a
        // sibling parent p already reaches y.
        for i in 0..staged.len() {
            let v = n_old + i as u32;
            let parents = staged.parents(i);
            for &y in parents {
                let yc = cat_of(staged, y) as usize;
                if parents.iter().any(|&p| p != y && anc_of(p, yc) == y) {
                    errs.push(IngestError::Condition {
                        row: staged.rows[i],
                        dim,
                        condition: 5,
                        member: key_of(staged, v),
                        detail: format!(
                            "direct link to `{}` is shortcut by a longer chain",
                            key_of(staged, y)
                        ),
                    });
                }
            }
        }
    }

    /// Unique-ancestor rows for the staged members of one dimension, in
    /// staged order, `nc` entries per member. Keep-first on clashes and
    /// tolerant of cycles (the validating caller detects both
    /// separately); committed parents contribute their plane rollup
    /// columns.
    fn anc_rows(&self, dim: usize, staged: &DimDelta<'_>) -> Vec<u32> {
        let plane = &self.planes[dim];
        let nc = plane.schema.num_categories();
        let n_old = plane.len() as u32;
        let mut anc = vec![NONE; staged.len() * nc];
        // 0 = untouched, 1 = entered, 2 = done.
        let mut state = vec![0u8; staged.len()];
        enum Task {
            Enter(usize),
            Exit(usize),
        }
        let mut todo = Vec::new();
        let mut row = vec![NONE; nc];
        for start in 0..staged.len() {
            if state[start] != 0 {
                continue;
            }
            todo.push(Task::Enter(start));
            while let Some(task) = todo.pop() {
                match task {
                    Task::Enter(u) => {
                        if state[u] != 0 {
                            continue;
                        }
                        state[u] = 1;
                        todo.push(Task::Exit(u));
                        for &p in staged.parents(u) {
                            if p >= n_old && state[(p - n_old) as usize] == 0 {
                                todo.push(Task::Enter((p - n_old) as usize));
                            }
                        }
                    }
                    Task::Exit(u) => {
                        row.fill(NONE);
                        row[staged.category[u] as usize] = n_old + u as u32;
                        for &p in staged.parents(u) {
                            for (c, slot) in row.iter_mut().enumerate() {
                                let cand = if p < n_old {
                                    plane.rollup[c][p as usize]
                                } else {
                                    let s = (p - n_old) as usize;
                                    // On a cycle the parent row may not be
                                    // done yet; skip its contribution.
                                    if state[s] == 2 { anc[s * nc + c] } else { NONE }
                                };
                                if cand != NONE && *slot == NONE {
                                    *slot = cand;
                                }
                            }
                        }
                        anc[u * nc..(u + 1) * nc].copy_from_slice(&row);
                        state[u] = 2;
                    }
                }
            }
        }
        anc
    }

    // ---- commit / rollback -----------------------------------------

    /// Appends a validated delta: interns its keys (under the hashes
    /// staging took) and names, extends the member columns and indexes
    /// (reusing the ancestor rows validation computed), and extends the
    /// fact columns. Every column and index grows once per batch.
    fn commit(&mut self, delta: Delta<'_>) -> BatchStats {
        let mut stats = BatchStats::default();
        // Room for every key and distinct name, were all of them new.
        let (strings, bytes) = delta
            .members
            .iter()
            .flat_map(|dd| dd.keys.iter().zip(&dd.names))
            .fold((0, 0), |(n, b), (&key, &name)| {
                if name == key {
                    (n + 1, b + key.len())
                } else {
                    (n + 2, b + key.len() + name.len())
                }
            });
        self.interner.reserve(strings, bytes);
        // No symbol this batch interns reaches past this bound.
        let syms = self.interner.len() + strings;
        for (plane, staged) in self.planes.iter_mut().zip(delta.members) {
            let n = staged.len();
            if n == 0 {
                continue;
            }
            let nc = plane.rollup.len();
            let n_old = plane.len() as u32;
            plane.keys.reserve(n);
            plane.names.reserve(n);
            if plane.member_of.len() < syms {
                plane.member_of.resize(syms, NONE);
            }
            let members = n_old as usize + n;
            for set in &mut plane.members_in {
                set.reserve(members);
            }
            plane.base.reserve(members);
            for (i, (&key, &name)) in staged.keys.iter().zip(&staged.names).enumerate() {
                let v = n_old + i as u32;
                let key_sym = self.interner.intern_hashed(key, staged.hashes[i]);
                let name_sym = if name == key {
                    key_sym
                } else {
                    self.interner.intern(name)
                };
                plane.keys.push(key_sym);
                plane.names.push(name_sym);
                plane.member_of[key_sym as usize] = v;
                let c = staged.category[i];
                plane.members_in[c as usize].insert(v);
                if plane.bottom[c as usize] {
                    plane.base.insert(v);
                }
            }
            plane.category.extend_from_slice(&staged.category);
            let base = *plane.parent_end.last().unwrap_or(&0);
            plane.parents.extend_from_slice(&staged.parents);
            plane
                .parent_end
                .extend(staged.parent_end.iter().map(|&e| base + e));
            for (c, col) in plane.rollup.iter_mut().enumerate() {
                col.extend(staged.anc.iter().skip(c).step_by(nc));
            }
            stats.members += n;
        }
        let nd = self.fact_cols.len();
        for (dim, col) in self.fact_cols.iter_mut().enumerate() {
            col.extend(delta.coords.iter().skip(dim).step_by(nd));
        }
        self.measures.extend_from_slice(&delta.measures);
        stats.facts = delta.measures.len();
        self.batches += 1;
        stats
    }

    fn rollback(&mut self, snap_members: &[usize], snap_facts: usize) {
        for (plane, &n0) in self.planes.iter_mut().zip(snap_members) {
            for v in n0..plane.len() {
                plane.member_of[plane.keys[v] as usize] = NONE;
                plane.members_in[plane.category[v] as usize].remove(v as u32);
                plane.base.remove(v as u32);
            }
            plane.keys.truncate(n0);
            plane.names.truncate(n0);
            plane.category.truncate(n0);
            plane.parent_end.truncate(n0);
            let parents = *plane.parent_end.last().unwrap_or(&0);
            plane.parents.truncate(parents as usize);
            for col in &mut plane.rollup {
                col.truncate(n0);
            }
        }
        for col in &mut self.fact_cols {
            col.truncate(snap_facts);
        }
        self.measures.truncate(snap_facts);
    }

    // ---- materialization & rollup execution ------------------------

    /// Rebuilds one dimension as a [`DimensionInstance`]. Member indices
    /// align with plane indices (the builder's `all` is index 0, then
    /// insertion order), so cuboid cells are directly comparable.
    pub fn instance(&self, dim: usize) -> DimensionInstance {
        let plane = &self.planes[dim];
        let mut ib = DimensionInstance::builder(plane.schema.clone());
        for v in 1..plane.len() {
            let m = ib.member_named(
                self.interner.resolve(plane.keys[v]),
                Category::from_index(plane.category[v] as usize),
                self.interner.resolve(plane.names[v]),
            );
            debug_assert_eq!(m.index(), v);
        }
        for v in 1..plane.len() {
            for &p in plane.parents(v) {
                ib.link(Member::from_index(v), Member::from_index(p as usize));
            }
        }
        ib.build_unchecked()
    }

    /// Exports the facts as a row-oriented [`MultiFactTable`] over the
    /// rebuilt instances (the bridge to `odc-olap`'s cuboid machinery,
    /// and the anchor of the byte-parity tests).
    pub fn to_multi_fact_table(&self) -> MultiFactTable {
        let dims: Vec<Arc<DimensionInstance>> = (0..self.planes.len())
            .map(|k| Arc::new(self.instance(k)))
            .collect();
        let mut f = MultiFactTable::new(dims);
        for i in 0..self.measures.len() {
            let coords = self
                .fact_cols
                .iter()
                .map(|col| Member::from_index(col[i] as usize))
                .collect();
            f.push(coords, self.measures[i]);
        }
        f
    }

    /// Materializes the cuboid at one category per dimension straight
    /// from the columns — same grouping, drop-row, and naming semantics
    /// as `odc_olap::cuboid`, so results are byte-identical, but reading
    /// the maintained rollup columns instead of rebuilding a
    /// `RollupTable`.
    ///
    /// Per dimension, the members of the level category are ranked in
    /// index order (`members_in[level]`), and every fact row gets the
    /// rank of its ancestor there as its group id. The
    /// [`group_by`] kernel then folds the measure column in one pass.
    pub fn materialize(&self, levels: &[Category], agg: AggFn) -> Cuboid {
        assert_eq!(levels.len(), self.planes.len(), "level arity mismatch");
        let mut members: Vec<Vec<Member>> = Vec::with_capacity(levels.len());
        let mut ids: Vec<Vec<u32>> = Vec::with_capacity(levels.len());
        for ((plane, col), &level) in self.planes.iter().zip(&self.fact_cols).zip(levels) {
            let mut rank = vec![NO_GROUP; plane.len()];
            let mut ranked = Vec::new();
            for m in plane.members_in[level.index()].iter() {
                rank[m as usize] = ranked.len() as u32;
                ranked.push(Member::from_index(m as usize));
            }
            // Each member's group: the rank of its ancestor at `level`.
            let group: Vec<u32> = plane.rollup[level.index()]
                .iter()
                .map(|&a| {
                    if a == NONE {
                        NO_GROUP
                    } else {
                        rank[a as usize]
                    }
                })
                .collect();
            ids.push(col.iter().map(|&m| group[m as usize]).collect());
            members.push(ranked);
        }
        let cols: Vec<GroupColumn<'_>> = ids
            .iter()
            .zip(&members)
            .map(|(ids, members)| GroupColumn { ids, members })
            .collect();
        let name = levels
            .iter()
            .enumerate()
            .map(|(k, &c)| self.planes[k].schema.name(c))
            .collect::<Vec<_>>()
            .join("/");
        Cuboid {
            name,
            levels: levels.to_vec(),
            agg,
            cells: group_by(&cols, &self.measures, agg),
        }
    }

    /// The instance-derived summarizability verdict, read off the rollup
    /// columns: `to` is summarizable from `{from}` in dimension `dim` iff
    /// every base member's direct `to`-ancestor equals the one routed
    /// through its `from`-ancestor. This is what gates
    /// `odc_olap::choose_source` when no advisor verdicts are supplied.
    pub fn summarizability_verdict(&self, dim: usize, from: Category, to: Category) -> bool {
        let plane = &self.planes[dim];
        let (fc, tc) = (from.index(), to.index());
        plane.base.iter().all(|m| {
            let direct = plane.rollup[tc][m as usize];
            let step = plane.rollup[fc][m as usize];
            let via = if step == NONE {
                NONE
            } else {
                plane.rollup[tc][step as usize]
            };
            direct == via
        })
    }

    /// A witness refuting [`FactStore::summarizability_verdict`]: the
    /// first base member (in plane order) whose direct `to`-ancestor
    /// differs from the one routed through `from`, together with the
    /// bottom category it sits in — the "failing bottom" a refused
    /// rollup reports.
    pub fn summarizability_witness(
        &self,
        dim: usize,
        from: Category,
        to: Category,
    ) -> Option<(String, Category)> {
        let plane = &self.planes[dim];
        let (fc, tc) = (from.index(), to.index());
        plane.base.iter().find_map(|m| {
            let direct = plane.rollup[tc][m as usize];
            let step = plane.rollup[fc][m as usize];
            let via = if step == NONE {
                NONE
            } else {
                plane.rollup[tc][step as usize]
            };
            if direct == via {
                None
            } else {
                Some((
                    self.interner.resolve(plane.keys[m as usize]).to_string(),
                    Category::from_index(plane.category[m as usize] as usize),
                ))
            }
        })
    }

    // ---- persistence -----------------------------------------------

    /// Writes the store to a directory: per-dimension schema
    /// (`schema.<k>.odcs`) and member file (`members.<k>.odct`, the
    /// instance member grammar in plane order), the fact columns
    /// (`facts.bin`, magic `ODCSTORE1`), and `meta.txt`.
    pub fn save(&self, dir: &Path) -> Result<(), IngestError> {
        let io = |e: std::io::Error| IngestError::Io(e.to_string());
        std::fs::create_dir_all(dir).map_err(io)?;
        std::fs::write(
            dir.join("meta.txt"),
            format!(
                "dims {}\nfacts {}\nbatches {}\n",
                self.planes.len(),
                self.measures.len(),
                self.batches
            ),
        )
        .map_err(io)?;
        for (k, plane) in self.planes.iter().enumerate() {
            std::fs::write(
                dir.join(format!("schema.{k}.odcs")),
                odc_core::schema_to_text(&self.schemas[k]),
            )
            .map_err(io)?;
            std::fs::write(dir.join(format!("members.{k}.odct")), self.member_text(plane))
                .map_err(io)?;
        }
        let mut buf = Vec::with_capacity(16 + self.measures.len() * (4 * self.planes.len() + 8));
        buf.extend_from_slice(b"ODCSTORE1");
        buf.extend_from_slice(&(self.planes.len() as u32).to_le_bytes());
        buf.extend_from_slice(&(self.measures.len() as u64).to_le_bytes());
        for col in &self.fact_cols {
            for &v in col {
                buf.extend_from_slice(&v.to_le_bytes());
            }
        }
        for &m in &self.measures {
            buf.extend_from_slice(&m.to_le_bytes());
        }
        std::fs::write(dir.join("facts.bin"), buf).map_err(io)
    }

    /// One plane's member file: the instance member grammar, one line
    /// per member in plane order, written into one buffer sized up
    /// front.
    fn member_text(&self, plane: &DimPlane) -> String {
        let text = |v: u32| self.interner.resolve(v);
        let cat = |v: usize| plane.schema.name(Category::from_index(plane.category[v] as usize));
        // Per line at most: a quoted key, ` : `, the category, ` = "…"`,
        // and each parent quoted after `, ` or ` < `, then a newline.
        let cap: usize = (1..plane.len())
            .map(|v| {
                let parents: usize = plane
                    .parents(v)
                    .iter()
                    .map(|&p| text(plane.keys[p as usize]).len() + 4)
                    .sum();
                text(plane.keys[v]).len() + text(plane.names[v]).len() + cat(v).len() + 12 + parents
            })
            .sum();
        let mut txt = String::with_capacity(cap);
        for v in 1..plane.len() {
            let key = text(plane.keys[v]);
            let name = text(plane.names[v]);
            push_quoted(&mut txt, key);
            txt.push_str(" : ");
            txt.push_str(cat(v));
            if name != key {
                txt.push_str(" = \"");
                txt.push_str(name);
                txt.push('"');
            }
            for (i, &p) in plane.parents(v).iter().enumerate() {
                txt.push_str(if i == 0 { " < " } else { ", " });
                if p == 0 {
                    txt.push_str("all");
                } else {
                    push_quoted(&mut txt, text(plane.keys[p as usize]));
                }
            }
            txt.push('\n');
        }
        txt
    }

    /// Loads a store saved by [`FactStore::save`], with the batch count
    /// `meta.txt` records.
    ///
    /// Reopening costs one member batch plus one pass over the facts.
    /// Every member is re-validated: the member files are parsed and
    /// ingested as one batch through the incremental C1–C7 validator,
    /// so a corrupted member file is rejected with the same typed
    /// errors as live ingest, and this part grows with the member
    /// count — on a 90,761-member, million-fact store it is about four
    /// fifths of the reopen. The fact columns decode from `facts.bin`
    /// column by column, with length, bounds and base-member checks
    /// but no C1–C7 work. The `dims` and `facts` that `meta.txt`
    /// records must match the files. Each failure is a typed
    /// [`IngestError`].
    pub fn load(dir: &Path) -> Result<FactStore, IngestError> {
        let io = |e: std::io::Error| IngestError::Io(e.to_string());
        let mut schemas = Vec::new();
        loop {
            let path = dir.join(format!("schema.{}.odcs", schemas.len()));
            if !path.exists() {
                break;
            }
            let text = std::fs::read_to_string(&path).map_err(io)?;
            schemas.push(
                odc_core::parse_schema(&text)
                    .map_err(|e| IngestError::Io(format!("{}: {e}", path.display())))?,
            );
        }
        if schemas.is_empty() {
            return Err(IngestError::Io(format!(
                "no schema.<k>.odcs files in {}",
                dir.display()
            )));
        }
        let meta = Meta::read(dir)?;
        if meta.dims != schemas.len() {
            return Err(IngestError::Io(format!(
                "meta.txt: dims {} but {} schema file(s)",
                meta.dims,
                schemas.len()
            )));
        }
        let mut store = FactStore::new(schemas);
        let texts = (0..store.num_dims())
            .map(|k| std::fs::read_to_string(dir.join(format!("members.{k}.odct"))))
            .collect::<Result<Vec<String>, _>>()
            .map_err(io)?;
        let bin = std::fs::read(dir.join("facts.bin")).map_err(io)?;
        let corrupt = |what: &str| IngestError::Io(format!("facts.bin: {what}"));
        if bin.len() < 21 || &bin[..9] != b"ODCSTORE1" {
            return Err(corrupt("bad magic"));
        }
        let truncated = || corrupt("truncated");
        let nd = u32::from_le_bytes([bin[9], bin[10], bin[11], bin[12]]) as usize;
        let nf = u64::from_le_bytes([
            bin[13], bin[14], bin[15], bin[16], bin[17], bin[18], bin[19], bin[20],
        ]);
        if nd != store.num_dims() {
            return Err(corrupt("dimension count mismatch"));
        }
        // `nf` comes from the file: a hostile count must not wrap the
        // expected length back onto the real one.
        let nf = usize::try_from(nf).map_err(|_| truncated())?;
        let expected = (4 * nd + 8).checked_mul(nf).and_then(|n| n.checked_add(21));
        if expected != Some(bin.len()) {
            return Err(truncated());
        }
        if meta.facts != nf {
            return Err(IngestError::Io(format!(
                "meta.txt: facts {} but facts.bin holds {nf}",
                meta.facts
            )));
        }
        let mut members = StagedBatch::default();
        for (k, text) in texts.iter().enumerate() {
            let start = members.members.len();
            parse_into(&mut members, text, 1)?;
            for rm in &mut members.members[start..] {
                rm.dim = k;
            }
        }
        store.ingest_batch(&members)?;
        store.batches = meta.batches;
        let (cols, measures) = bin[21..].split_at(4 * nd * nf);
        for (dim, plane) in store.planes.iter().enumerate() {
            let col: Vec<u32> = cols[4 * nf * dim..4 * nf * (dim + 1)]
                .chunks_exact(4)
                .map(|b| u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect();
            if !col.iter().all(|&v| (v as usize) < plane.len() && plane.base.contains(v)) {
                return Err(corrupt("fact keys a non-base member index"));
            }
            store.fact_cols[dim] = col;
        }
        store.measures = measures
            .chunks_exact(8)
            .map(|b| i64::from_le_bytes([b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7]]))
            .collect();
        Ok(store)
    }
}

/// The counts `meta.txt` records: `dims`, `facts` and `batches`, one
/// `name value` line each.
struct Meta {
    dims: usize,
    facts: usize,
    batches: usize,
}

impl Meta {
    fn read(dir: &Path) -> Result<Meta, IngestError> {
        let bad = |what: String| IngestError::Io(format!("meta.txt: {what}"));
        let text = std::fs::read_to_string(dir.join("meta.txt")).map_err(|e| bad(e.to_string()))?;
        let mut counts = [None; 3];
        for line in text.lines() {
            let (name, value) = line
                .split_once(' ')
                .ok_or_else(|| bad(format!("bad line `{line}`")))?;
            let slot = match name {
                "dims" => &mut counts[0],
                "facts" => &mut counts[1],
                "batches" => &mut counts[2],
                _ => return Err(bad(format!("unknown field `{name}`"))),
            };
            *slot = Some(value.parse().map_err(|_| bad(format!("bad {name} `{value}`")))?);
        }
        match counts {
            [Some(dims), Some(facts), Some(batches)] => Ok(Meta {
                dims,
                facts,
                batches,
            }),
            _ => Err(bad("needs dims, facts and batches".into())),
        }
    }
}

/// Run `i` of a flat column whose runs end at `ends`.
fn run<'a>(flat: &'a [u32], ends: &[u32], i: usize) -> &'a [u32] {
    let start = if i == 0 { 0 } else { ends[i - 1] };
    &flat[start as usize..ends[i] as usize]
}

/// Finds a `<`-cycle confined to the staged members, returning the
/// staged index of one member on it.
fn staged_cycle(staged: &DimDelta<'_>, n_old: u32) -> Option<usize> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; staged.len()];
    let mut stack: Vec<(usize, usize)> = Vec::new();
    for start in 0..staged.len() {
        if color[start] != WHITE {
            continue;
        }
        stack.push((start, 0));
        color[start] = GRAY;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if let Some(&p) = staged.parents(node).get(*next) {
                *next += 1;
                if p < n_old {
                    continue; // committed members never link back in
                }
                let s = (p - n_old) as usize;
                match color[s] {
                    WHITE => {
                        color[s] = GRAY;
                        stack.push((s, 0));
                    }
                    GRAY => return Some(s),
                    _ => {}
                }
            } else {
                color[node] = BLACK;
                stack.pop();
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_core::instance::text::quote;
    use odc_core::olap::{cuboid, RollupPlan};
    use odc_core::prelude::RollupTable;
    use odc_rand::rngs::StdRng;
    use odc_rand::{Rng, SeedableRng};

    /// Figure-1-style geography: Store → {City, State} → Country → All,
    /// plus the Store → Country schema edge for DC-style exceptional
    /// stores (and instance-level shortcut tests).
    const SCHEMA: &str = "
hierarchy:
  Store > City, State, Country
  City > Country
  State > Country
  Country > All
constraints:
";

    fn store() -> FactStore {
        FactStore::new(vec![odc_core::parse_schema(SCHEMA).unwrap()])
    }

    fn cat(s: &FactStore, dim: usize, name: &str) -> Category {
        s.schema(dim).hierarchy().category_by_name(name).unwrap()
    }

    #[test]
    fn streaming_ingest_happy_path() {
        let mut s = store();
        let stats = s
            .ingest_text(
                "Canada : Country < all\nToronto : City < Canada\ns1 : Store < Toronto\ns1 -> 10\n",
                1,
            )
            .unwrap();
        assert_eq!(stats, BatchStats { members: 3, facts: 1 });
        // Second batch: forward reference within the batch, link into the
        // committed part, more facts.
        let stats = s
            .ingest_text(
                "s2 : Store < Austin\nAustin : City < USA\nUSA : Country < all\ns2 -> 5\ns1 -> 7\n",
                5,
            )
            .unwrap();
        assert_eq!(stats, BatchStats { members: 3, facts: 2 });
        assert_eq!(s.num_facts(), 3);
        assert_eq!(s.num_members(0), 7); // all + 6
        assert_eq!(s.batches(), 2);
        assert_eq!(s.cardinality(0, cat(&s, 0, "Store")), 2);
        assert_eq!(s.cardinality(0, cat(&s, 0, "Country")), 2);
        assert!(s.revalidate().is_empty());
    }

    #[test]
    fn unknown_category_and_parent() {
        let mut s = store();
        let err = s.ingest_text("x : Planet < all\n", 1).unwrap_err();
        assert!(
            matches!(err, IngestError::UnknownCategory { row: 1, dim: 0, ref name } if name == "Planet")
        );
        let err = s.ingest_text("x : Country < nowhere\n", 1).unwrap_err();
        assert!(
            matches!(err, IngestError::UnknownParent { row: 1, ref parent, .. } if parent == "nowhere")
        );
        // Nothing committed by the failed batches.
        assert_eq!(s.num_members(0), 1);
    }

    #[test]
    fn duplicate_member_rejected() {
        let mut s = store();
        s.ingest_text("Canada : Country < all\n", 1).unwrap();
        // Against the store…
        let err = s.ingest_text("Canada : Country < all\n", 2).unwrap_err();
        assert!(matches!(err, IngestError::DuplicateMember { row: 2, .. }));
        // …and within a batch.
        let err = s
            .ingest_text("USA : Country < all\nUSA : Country < all\n", 3)
            .unwrap_err();
        assert!(matches!(err, IngestError::DuplicateMember { row: 4, .. }));
    }

    #[test]
    fn condition_violations_name_row_column_and_condition() {
        let mut s = store();
        s.ingest_text("Canada : Country < all\nToronto : City < Canada\n", 1)
            .unwrap();
        // C1: City ↗ All is not a schema edge.
        let err = s.ingest_text("Ottawa : City < all\n", 3).unwrap_err();
        assert_eq!(err.condition(), Some(1));
        assert_eq!(err.row(), 3);
        // C4: a second member of All.
        let err = s.ingest_text("all2 : All\n", 3).unwrap_err();
        assert_eq!(err.condition(), Some(4));
        // C7: an orphan.
        let err = s.ingest_text("s9 : Store\n", 3).unwrap_err();
        assert_eq!(err.condition(), Some(7));
        // C2: two Country ancestors, one committed route, one staged.
        let err = s
            .ingest_text("USA : Country < all\ns1 : Store < Toronto, Dallas\nDallas : State < USA\n", 3)
            .unwrap_err();
        assert_eq!(err.condition(), Some(2), "{err}");
        assert_eq!(err.row(), 4);
        let msg = err.to_string();
        assert!(msg.contains("dim 0") && msg.contains("C2"), "{msg}");
        // C5: the direct Store < Country link is shortcut by the chain
        // through Toronto.
        let err = s
            .ingest_text("s1 : Store < Toronto, Canada\n", 3)
            .unwrap_err();
        assert_eq!(err.condition(), Some(5), "{err}");
        assert_eq!(s.num_members(0), 3, "failed batches committed nothing");
    }

    #[test]
    fn fact_errors() {
        let mut s = store();
        s.ingest_text("Canada : Country < all\nToronto : City < Canada\ns1 : Store < Toronto\n", 1)
            .unwrap();
        let err = s.ingest_text("ghost -> 3\n", 4).unwrap_err();
        assert!(matches!(err, IngestError::UnknownFactMember { row: 4, dim: 0, .. }));
        let err = s.ingest_text("Toronto -> 3\n", 4).unwrap_err();
        assert!(
            matches!(err, IngestError::NonBaseFact { row: 4, dim: 0, ref category, .. } if category == "City")
        );
        let err = s.ingest_text("s1, s1 -> 3\n", 4).unwrap_err();
        assert!(matches!(err, IngestError::Syntax { row: 4, .. }));
    }

    #[test]
    fn incremental_agrees_with_full_oracle() {
        let batches = [
            "Canada : Country < all\nToronto : City < Canada\n",
            "s1 : Store < Toronto\ns1 -> 10\ns1 -> -2\n",
            "USA : Country < all\nTexas : State < USA\ns2 : Store < Texas\ns2 -> 4\n",
            // Invalid only in combination with batch 1: Rome's parent
            // country clashes with Toronto's committed one.
            "Rome : City < USA\ns3 : Store < Toronto, Rome\n",
        ];
        let mut inc = store();
        let mut full = store();
        let mut line = 1;
        for b in batches {
            let batch = parse_batch(b, line).unwrap();
            line += b.lines().count();
            let i = inc.ingest_batch(&batch);
            let f = full.ingest_batch_full(&batch);
            assert_eq!(i.is_ok(), f.is_ok(), "incremental {i:?} vs full {f:?}");
            if let (Err(ie), Err(fe)) = (&i, &f) {
                assert_eq!(ie.condition(), fe.condition());
            }
        }
        assert_eq!(inc.num_facts(), full.num_facts());
        assert_eq!(inc.num_members(0), full.num_members(0));
        assert!(inc.revalidate().is_empty());
    }

    #[test]
    fn materialize_matches_cuboid_byte_for_byte() {
        let mut s = store();
        s.ingest_text(
            "Canada : Country < all\nUSA : Country < all\nToronto : City < Canada\n\
             Texas : State < USA\ns1 : Store < Toronto\ns2 : Store < Texas\n\
             s1 -> 10\ns1 -> 20\ns2 -> 5\n",
            1,
        )
        .unwrap();
        let f = s.to_multi_fact_table();
        let rollups = [RollupTable::new(&f.dims()[0])];
        for level in ["Store", "City", "State", "Country"] {
            let c = cat(&s, 0, level);
            for agg in [AggFn::Sum, AggFn::Count, AggFn::Min, AggFn::Max] {
                let direct = cuboid(&f, &rollups, &[c], agg);
                let stored = s.materialize(&[c], agg);
                assert_eq!(stored, direct, "level {level} agg {agg:?}");
                assert_eq!(stored.name, direct.name);
            }
        }
    }

    #[test]
    fn verdicts_gate_rollup_sources() {
        // s2 links straight to USA (no State): Country is summarizable
        // from Store but not from State.
        let mut s = store();
        s.ingest_text(
            "USA : Country < all\nTexas : State < USA\ns1 : Store < Texas\ns2 : Store < USA\n\
             s1 -> 10\ns2 -> 5\n",
            1,
        )
        .unwrap();
        let (store_c, state_c, country_c) =
            (cat(&s, 0, "Store"), cat(&s, 0, "State"), cat(&s, 0, "Country"));
        assert!(s.summarizability_verdict(0, store_c, country_c));
        assert!(!s.summarizability_verdict(0, state_c, country_c));
        let plan = RollupPlan {
            source: vec![state_c],
            target: vec![country_c],
        };
        assert!(!plan.is_safe(|dim, from, to| s.summarizability_verdict(dim, from, to)));
    }

    #[test]
    fn save_load_round_trip() {
        let dir = std::env::temp_dir().join(format!("odc-store-test-{}", std::process::id()));
        let mut s = store();
        s.ingest_text(
            "Canada : Country < all\n\"New York\" : City = \"NY # east\" < Canada\n\
             Ontario : State < Canada\ns1 : Store < \"New York\", Ontario\n\
             s1 -> 10\ns1 -> -3\n",
            1,
        )
        .unwrap();
        s.save(&dir).unwrap();
        assert_eq!(
            std::fs::read_to_string(dir.join("members.0.odct")).unwrap(),
            "Canada : Country < all\n\
             \"New York\" : City = \"NY # east\" < Canada\n\
             Ontario : State < Canada\n\
             s1 : Store < \"New York\", Ontario\n"
        );
        assert_eq!(
            std::fs::read_to_string(dir.join("meta.txt")).unwrap(),
            "dims 1\nfacts 2\nbatches 1\n"
        );
        let loaded = FactStore::load(&dir).unwrap();
        assert_eq!(loaded.num_members(0), s.num_members(0));
        assert_eq!(loaded.num_facts(), s.num_facts());
        assert_eq!(loaded.batches(), s.batches());
        let c = cat(&s, 0, "Country");
        assert_eq!(
            loaded.materialize(&[c], AggFn::Sum),
            s.materialize(&[c], AggFn::Sum)
        );
        let d = loaded.instance(0);
        let ny = d.member_by_key("New York").unwrap();
        assert_eq!(d.name(ny), "NY # east");
        assert!(loaded.revalidate().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn quoted_separators_survive_ingest_save_and_load() {
        let dir = std::env::temp_dir().join(format!("odc-store-quoted-{}", std::process::id()));
        let mut s = store();
        let mut src = String::new();
        let tokens = ['#', ':', '<', ',', '=', ' ', '\t'];
        for ch in tokens {
            let (country, city, shop) = (format!("co{ch}1"), format!("ci{ch}2"), format!("s{ch}3"));
            src.push_str(&format!("{} : Country < all\n", quote(&country)));
            src.push_str(&format!(
                "{} : City = \"n{ch}c\" < {}\n",
                quote(&city),
                quote(&country)
            ));
            src.push_str(&format!("{} : Store < {}\n", quote(&shop), quote(&city)));
            src.push_str(&format!("{} -> 5\n", quote(&shop)));
        }
        s.ingest_text(&src, 1).unwrap();
        assert_eq!(s.num_facts(), tokens.len());
        s.save(&dir).unwrap();
        let loaded = FactStore::load(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        let (d, d2) = (s.instance(0), loaded.instance(0));
        assert_eq!(d.num_members(), d2.num_members());
        for m in d.members() {
            let m2 = d2.member_by_key(d.key(m)).unwrap();
            assert_eq!(d.name(m), d2.name(m2));
            let keys = |d: &DimensionInstance, m| -> Vec<String> {
                d.parents(m).iter().map(|&p| d.key(p).to_string()).collect()
            };
            assert_eq!(keys(&d, m), keys(&d2, m2));
        }
        let shop = cat(&s, 0, "Store");
        assert_eq!(
            loaded.materialize(&[shop], AggFn::Sum),
            s.materialize(&[shop], AggFn::Sum)
        );
    }

    /// A key over the hostile alphabet (`# : < = , " -> ·`, whitespace)
    /// that the grammar can carry: every separator comes before the
    /// first `"` — a `"` ends a quoted token, so a separator behind one
    /// would be read as a separator, however the key is written.
    fn hostile_key(rng: &mut StdRng) -> String {
        const LEAD: [&str; 13] = ["a", "b", "#", ":", "<", "=", ",", "-", ">", "->", "·", " ", "\t"];
        const TAIL: [&str; 6] = ["a", "\"", "·", " ", "\t", "b"];
        let mut key = String::new();
        for _ in 0..rng.gen_range(0usize..5) {
            key.push_str(LEAD[rng.gen_range(0..LEAD.len())]);
        }
        if key.is_empty() || rng.gen_bool(0.3) {
            key.push('"');
            for _ in 0..rng.gen_range(0usize..3) {
                key.push_str(TAIL[rng.gen_range(0..TAIL.len())]);
            }
        }
        key
    }

    #[test]
    fn hostile_keys_round_trip_save_load_save() {
        let time = "
hierarchy:
  Day > Month
  Month > All
constraints:
";
        let schemas = || {
            vec![
                odc_core::parse_schema(SCHEMA).unwrap(),
                odc_core::parse_schema(time).unwrap(),
            ]
        };
        let mut rng = StdRng::seed_from_u64(24);
        let mut seen = std::collections::HashSet::from(["all".to_string()]);
        let mut fresh = |rng: &mut StdRng| loop {
            let key = hostile_key(rng);
            if seen.insert(key.clone()) {
                return key;
            }
        };
        let (mut src, mut keys) = (String::new(), Vec::new());
        for i in 0..200 {
            let [country, city, shop, month, day] = [(); 5].map(|_| fresh(&mut rng));
            let name = hostile_key(&mut rng).replace('"', "");
            src.push_str(&format!("{} : Country < all\n", quote(&country)));
            src.push_str(&format!("{} : City = \"{name}\" < {}\n", quote(&city), quote(&country)));
            src.push_str(&format!("{} : Store < {}\n", quote(&shop), quote(&city)));
            src.push_str(&format!("@1 {} : Month < all\n", quote(&month)));
            src.push_str(&format!("@1 {} : Day < {}\n", quote(&day), quote(&month)));
            src.push_str(&format!("{}, {} -> {i}\n", quote(&shop), quote(&day)));
            keys.push([country, city, shop, month, day]);
        }
        let mut s = FactStore::new(schemas());
        s.ingest_text(&src, 1).unwrap();
        let (d0, d1) = (s.instance(0), s.instance(1));
        for [country, city, shop, month, day] in &keys {
            for key in [country, city, shop] {
                assert!(d0.member_by_key(key).is_some(), "ingest lost key {key:?}");
            }
            for key in [month, day] {
                assert!(d1.member_by_key(key).is_some(), "ingest lost key {key:?}");
            }
        }
        let base = std::env::temp_dir().join(format!("odc-store-hostile-{}", std::process::id()));
        let (first, second) = (base.join("first"), base.join("second"));
        s.save(&first).unwrap();
        let loaded = FactStore::load(&first).unwrap();
        loaded.save(&second).unwrap();
        let files = ["meta.txt", "members.0.odct", "members.1.odct", "facts.bin"];
        let bytes = |dir: &Path| files.map(|f| std::fs::read(dir.join(f)).unwrap());
        let (a, b) = (bytes(&first), bytes(&second));
        std::fs::remove_dir_all(&base).ok();
        for (f, (a, b)) in files.iter().zip(a.iter().zip(&b)) {
            assert!(a == b, "{f} changed across save → load → save");
        }
        for dim in 0..2 {
            let (d, d2) = (s.instance(dim), loaded.instance(dim));
            assert_eq!(d.num_members(), d2.num_members());
            for m in d.members() {
                let m2 = d2.member_by_key(d.key(m)).unwrap();
                assert_eq!(d.name(m), d2.name(m2));
                let keys = |d: &DimensionInstance, m| -> Vec<String> {
                    d.parents(m).iter().map(|&p| d.key(p).to_string()).collect()
                };
                assert_eq!(keys(&d, m), keys(&d2, m2));
            }
        }
        let levels = [cat(&s, 0, "City"), cat(&s, 1, "Day")];
        assert_eq!(loaded.materialize(&levels, AggFn::Sum), s.materialize(&levels, AggFn::Sum));
        assert!(loaded.revalidate().is_empty());
    }

    #[test]
    fn load_keeps_the_batch_count_and_checks_meta_against_the_files() {
        let dir = std::env::temp_dir().join(format!("odc-store-meta-{}", std::process::id()));
        let mut s = store();
        s.ingest_text("Canada : Country < all\nToronto : City < Canada\n", 1)
            .unwrap();
        s.ingest_text("s1 : Store < Toronto\ns1 -> 10\n", 3).unwrap();
        s.save(&dir).unwrap();
        let mut loaded = FactStore::load(&dir).unwrap();
        assert_eq!(loaded.batches(), 2);
        loaded.ingest_text("s1 -> 4\n", 5).unwrap();
        assert_eq!(loaded.batches(), 3, "a reopened store counts on");
        let meta = dir.join("meta.txt");
        let load_with = |text: &str| {
            std::fs::write(&meta, text).unwrap();
            FactStore::load(&dir).err()
        };
        let io = |msg: &str| Some(IngestError::Io(msg.into()));
        assert_eq!(
            load_with("dims 1\nfacts 2\nbatches 2\n"),
            io("meta.txt: facts 2 but facts.bin holds 1")
        );
        assert_eq!(
            load_with("dims 2\nfacts 1\nbatches 2\n"),
            io("meta.txt: dims 2 but 1 schema file(s)")
        );
        assert_eq!(
            load_with("dims 1\nfacts 1\n"),
            io("meta.txt: needs dims, facts and batches")
        );
        assert_eq!(load_with("dims 1\nfacts 1\nbatches x\n"), io("meta.txt: bad batches `x`"));
        std::fs::remove_file(&meta).unwrap();
        let err = FactStore::load(&dir).err();
        std::fs::remove_dir_all(&dir).ok();
        assert!(matches!(err, Some(IngestError::Io(ref m)) if m.starts_with("meta.txt: ")), "{err:?}");
    }

    #[test]
    fn load_rejects_a_fact_count_that_wraps_the_length_check() {
        let dir = std::env::temp_dir().join(format!("odc-store-wrap-{}", std::process::id()));
        let mut s = store();
        s.ingest_text(
            "Canada : Country < all\nToronto : City < Canada\n\
             s1 : Store < Toronto\ns1 -> 10\ns1 -> -3\n",
            1,
        )
        .unwrap();
        s.save(&dir).unwrap();
        // One dimension: a fact is 12 bytes, and 12 * 2^62 wraps to 0
        // in 64 bits, so the forged count passes an unchecked length
        // test and then asks for a 2^62-element column.
        let path = dir.join("facts.bin");
        let mut bin = std::fs::read(&path).unwrap();
        let forged = s.num_facts() as u64 + (1 << 62);
        bin[13..21].copy_from_slice(&forged.to_le_bytes());
        std::fs::write(&path, bin).unwrap();
        let err = FactStore::load(&dir).err();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(err, Some(IngestError::Io("facts.bin: truncated".into())));
    }

    /// Saves `s` to a fresh directory and returns the member file's
    /// bytes and the reopened store.
    fn save_and_reopen(s: &FactStore, tag: &str) -> (String, FactStore) {
        let dir = std::env::temp_dir().join(format!("odc-store-{tag}-{}", std::process::id()));
        s.save(&dir).unwrap();
        let text = std::fs::read_to_string(dir.join("members.0.odct")).unwrap();
        let loaded = FactStore::load(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        (text, loaded)
    }

    #[test]
    fn saved_keys_read_back_and_keys_without_a_form_are_refused() {
        let mut s = store();
        s.ingest_text("\"a<b\"c : Country < all\nx : City < \"a<b\"c\ns : Store < x\n", 1)
            .unwrap();
        assert!(s.instance(0).member_by_key("\"a<b\"c").is_some(), "the key keeps its quotes");
        let (first, loaded) = save_and_reopen(&s, "forms-1");
        let (second, _) = save_and_reopen(&loaded, "forms-2");
        assert_eq!(first, second, "save → load → save is a fixed point");
        assert!(first.contains("\"a<b\"c : Country"), "{first}");
        // The key `x","y` reads as one key, but no form of it survives
        // a parent list or a fact row: a `"` followed by a separator.
        let err = store().ingest_text("\"x\",\"y\" : Country < all\n", 1).unwrap_err();
        assert!(matches!(err, IngestError::UnreadableKey { row: 1, dim: 0, .. }), "{err}");
    }

    #[test]
    fn multi_dim_store() {
        let time = "
hierarchy:
  Day > Month
  Month > All
constraints:
";
        let mut s = FactStore::new(vec![
            odc_core::parse_schema(SCHEMA).unwrap(),
            odc_core::parse_schema(time).unwrap(),
        ]);
        s.ingest_text(
            "Canada : Country < all\nToronto : City < Canada\ns1 : Store < Toronto\n\
             @1 Jan : Month < all\n@1 d1 : Day < Jan\n\
             s1, d1 -> 10\ns1, d1 -> 5\n",
            1,
        )
        .unwrap();
        assert_eq!(s.num_facts(), 2);
        let levels = [cat(&s, 0, "Country"), cat(&s, 1, "Month")];
        let cub = s.materialize(&levels, AggFn::Sum);
        assert_eq!(cub.len(), 1);
        assert_eq!(cub.cells.values().copied().sum::<i64>(), 15);
        assert_eq!(cub.name, "Country/Month");
        let f = s.to_multi_fact_table();
        let rollups = [
            RollupTable::new(&f.dims()[0]),
            RollupTable::new(&f.dims()[1]),
        ];
        assert_eq!(cub, cuboid(&f, &rollups, &levels, AggFn::Sum));

        // Keys holding the fact-row separator survive save and load in
        // both dimensions.
        s.ingest_text(
            "\"s,2\" : Store < Toronto\n@1 \"d,2\" : Day < Jan\n\"s,2\", \"d,2\" -> 7\n",
            8,
        )
        .unwrap();
        let dir = std::env::temp_dir().join(format!("odc-store-2d-{}", std::process::id()));
        s.save(&dir).unwrap();
        let loaded = FactStore::load(&dir).unwrap();
        std::fs::remove_dir_all(&dir).ok();
        assert_eq!(loaded.num_facts(), 3);
        for dim in 0..2 {
            assert_eq!(loaded.num_members(dim), s.num_members(dim));
        }
        for levels in [
            [cat(&s, 0, "Store"), cat(&s, 1, "Day")],
            [cat(&s, 0, "City"), cat(&s, 1, "Month")],
            levels,
        ] {
            assert_eq!(
                loaded.materialize(&levels, AggFn::Sum),
                s.materialize(&levels, AggFn::Sum)
            );
        }
        assert!(loaded.revalidate().is_empty());
    }

}
