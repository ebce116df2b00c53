//! The columnar fact store.
//!
//! Members live in struct-of-arrays *dimension planes*: parallel `u32`
//! columns for interned key, interned display name, and category, plus a
//! ragged parent column. Alongside the raw columns each plane maintains
//! the indexes incremental validation and rollup execution read:
//!
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
//! Known limitation: when the staged members form a `<`-cycle, the
//! incremental path reports the C6 cycle and skips the closure-based
//! checks (C2, same-category C6, C5) for that dimension, exactly as the
//! full validator skips C2 on cyclic instances.

use crate::batch::{parse_batch, StagedBatch};
use crate::bitset::BitSet;
use crate::error::IngestError;
use crate::intern::Interner;
use odc_core::constraint::DimensionSchema;
use odc_core::hierarchy::{Category, HierarchySchema};
use odc_core::instance::text::quote;
use odc_core::instance::{validate, DimensionInstance, Member};
use odc_core::olap::{group_by, AggFn, Cuboid, GroupColumn, MultiFactTable, NO_GROUP};
use std::collections::HashMap;
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
    /// Direct parents (member indices) per member.
    parents: Vec<Vec<u32>>,
    /// Key symbol → member index.
    by_key: HashMap<u32, u32>,
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
        DimPlane {
            schema,
            keys: vec![all_sym],
            names: vec![all_sym],
            category: vec![Category::ALL.index() as u32],
            parents: vec![Vec::new()],
            by_key: HashMap::from([(all_sym, 0)]),
            members_in,
            base: BitSet::new(),
            bottom,
            rollup,
        }
    }

    fn len(&self) -> usize {
        self.keys.len()
    }
}

/// A member staged for commit. `parents` hold *final* member indices:
/// committed members keep their index, batch members get the index they
/// will occupy after the commit appends them in staged order.
#[derive(Debug)]
struct StagedMember {
    row: usize,
    key: u32,
    name: u32,
    category: u32,
    parents: Vec<u32>,
    /// Whether the source line declared any parent (distinguishes C7
    /// orphans from members whose parents merely failed to resolve).
    had_parents: bool,
}

/// A resolved, not-yet-validated batch.
#[derive(Debug, Default)]
struct Delta {
    /// Per dimension: members in staged (= commit) order.
    members: Vec<Vec<StagedMember>>,
    /// Fact rows: stream line, final member index per dimension, measure.
    facts: Vec<(usize, Vec<u32>, i64)>,
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
    pub fn ingest_batch(&mut self, batch: &StagedBatch) -> Result<BatchStats, IngestError> {
        let mut delta = self.stage(batch);
        self.validate_delta(&mut delta);
        if !delta.errors.is_empty() {
            delta.errors.sort_by_key(IngestError::row);
            return Err(delta.errors.remove(0));
        }
        Ok(self.commit(delta))
    }

    /// Validates one staged batch incrementally *without* committing,
    /// returning every violation found (sorted by row). The interner may
    /// grow; no other state changes.
    pub fn check_batch(&mut self, batch: &StagedBatch) -> Vec<IngestError> {
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
    pub fn ingest_batch_full(&mut self, batch: &StagedBatch) -> Result<BatchStats, IngestError> {
        let mut delta = self.stage(batch);
        if !delta.errors.is_empty() {
            delta.errors.sort_by_key(IngestError::row);
            return Err(delta.errors.remove(0));
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

    /// Resolves a batch against the store: interns keys, resolves
    /// categories and parents (forward references inside the batch are
    /// legal), and resolves fact coordinates. Collects resolution errors
    /// without stopping, skipping unresolvable items.
    fn stage(&mut self, batch: &StagedBatch) -> Delta {
        let nd = self.planes.len();
        let mut delta = Delta {
            members: (0..nd).map(|_| Vec::new()).collect(),
            ..Delta::default()
        };
        let mut staged_by_key: Vec<HashMap<u32, u32>> = (0..nd).map(|_| HashMap::new()).collect();
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
            let Some(cat) = self.planes[rm.dim].schema.category_by_name(&rm.line.category) else {
                delta.errors.push(IngestError::UnknownCategory {
                    row,
                    dim: rm.dim,
                    name: rm.line.category.clone(),
                });
                continue;
            };
            if cat.is_all() {
                delta.errors.push(IngestError::Condition {
                    row,
                    dim: rm.dim,
                    condition: 4,
                    member: rm.line.key.clone(),
                    detail: "a second member in All (All must be exactly {all})".into(),
                });
                continue;
            }
            let key = self.interner.intern(&rm.line.key);
            if self.planes[rm.dim].by_key.contains_key(&key)
                || staged_by_key[rm.dim].contains_key(&key)
            {
                delta.errors.push(IngestError::DuplicateMember {
                    row,
                    dim: rm.dim,
                    key: rm.line.key.clone(),
                });
                continue;
            }
            let name = match &rm.line.name {
                Some(n) => self.interner.intern(n),
                None => key,
            };
            staged_by_key[rm.dim].insert(key, delta.members[rm.dim].len() as u32);
            delta.members[rm.dim].push(StagedMember {
                row,
                key,
                name,
                category: cat.index() as u32,
                parents: Vec::new(),
                had_parents: !rm.line.parents.is_empty(),
            });
        }
        // Pass 2: parent links (staged keys may be referenced forward, so
        // this runs after all identities exist). Walk the batch again and
        // route each line to its staged slot, skipping lines pass 1
        // rejected.
        for rm in &batch.members {
            if rm.dim >= nd {
                continue;
            }
            let Some(sym) = self.interner.get(&rm.line.key) else {
                continue;
            };
            let Some(&sidx) = staged_by_key[rm.dim].get(&sym) else {
                continue;
            };
            let sm = &delta.members[rm.dim][sidx as usize];
            if sm.row != rm.row {
                continue; // a later duplicate of an accepted key
            }
            let n_old = self.planes[rm.dim].len() as u32;
            let mut parents = Vec::with_capacity(rm.line.parents.len());
            for p in &rm.line.parents {
                let resolved = if p == "all" {
                    Some(0u32)
                } else {
                    self.interner.get(p).and_then(|psym| {
                        self.planes[rm.dim]
                            .by_key
                            .get(&psym)
                            .copied()
                            .or_else(|| staged_by_key[rm.dim].get(&psym).map(|&s| n_old + s))
                    })
                };
                match resolved {
                    Some(v) => parents.push(v),
                    None => delta.errors.push(IngestError::UnknownParent {
                        row: rm.row,
                        dim: rm.dim,
                        key: rm.line.key.clone(),
                        parent: p.clone(),
                    }),
                }
            }
            delta.members[rm.dim][sidx as usize].parents = parents;
        }
        // Facts.
        for rf in &batch.facts {
            if rf.keys.len() != nd {
                delta.errors.push(IngestError::Syntax {
                    row: rf.row,
                    message: format!(
                        "fact keys {} dimension(s), store has {nd}",
                        rf.keys.len()
                    ),
                });
                continue;
            }
            let mut coords = Vec::with_capacity(nd);
            let mut ok = true;
            for (dim, key) in rf.keys.iter().enumerate() {
                let n_old = self.planes[dim].len() as u32;
                let resolved = self.interner.get(key).and_then(|sym| {
                    self.planes[dim]
                        .by_key
                        .get(&sym)
                        .copied()
                        .or_else(|| staged_by_key[dim].get(&sym).map(|&s| n_old + s))
                });
                match resolved {
                    Some(v) => coords.push(v),
                    None => {
                        delta.errors.push(IngestError::UnknownFactMember {
                            row: rf.row,
                            dim,
                            key: key.clone(),
                        });
                        ok = false;
                        break;
                    }
                }
            }
            if ok {
                delta.facts.push((rf.row, coords, rf.measure));
            }
        }
        delta
    }

    // ---- incremental validation ------------------------------------

    /// Checks the staged delta against the maintained indexes ("validate
    /// the batch, not the world") and appends any violation to
    /// `delta.errors`.
    fn validate_delta(&self, delta: &mut Delta) {
        for dim in 0..self.planes.len() {
            let mut errs = Vec::new();
            {
                let staged = &delta.members[dim];
                if !staged.is_empty() {
                    self.validate_dim_delta(dim, staged, &mut errs);
                }
            }
            delta.errors.append(&mut errs);
        }
        // Facts: every coordinate must sit in a bottom category. New
        // members count — the whole batch commits together.
        let mut errs = Vec::new();
        for &(row, ref coords, _) in &delta.facts {
            for (dim, &v) in coords.iter().enumerate() {
                let plane = &self.planes[dim];
                let n_old = plane.len() as u32;
                let (cat, key) = if v < n_old {
                    (plane.category[v as usize], plane.keys[v as usize])
                } else {
                    let sm = &delta.members[dim][(v - n_old) as usize];
                    (sm.category, sm.key)
                };
                if !plane.bottom[cat as usize] {
                    errs.push(IngestError::NonBaseFact {
                        row,
                        dim,
                        key: self.interner.resolve(key).to_string(),
                        category: plane
                            .schema
                            .name(Category::from_index(cat as usize))
                            .to_string(),
                    });
                }
            }
        }
        delta.errors.append(&mut errs);
    }

    fn validate_dim_delta(&self, dim: usize, staged: &[StagedMember], errs: &mut Vec<IngestError>) {
        let plane = &self.planes[dim];
        let g = &plane.schema;
        let nc = g.num_categories();
        let n_old = plane.len() as u32;
        let cat_of = |v: u32| -> u32 {
            if v < n_old {
                plane.category[v as usize]
            } else {
                staged[(v - n_old) as usize].category
            }
        };
        let key_of = |v: u32| -> &str {
            if v < n_old {
                self.interner.resolve(plane.keys[v as usize])
            } else {
                self.interner.resolve(staged[(v - n_old) as usize].key)
            }
        };
        // C1 (connectivity) and C7 (up-connectivity). Only delta members
        // can violate them: committed members never gain or lose links.
        for (i, sm) in staged.iter().enumerate() {
            let v = n_old + i as u32;
            if sm.parents.is_empty() {
                if !sm.had_parents {
                    // Parents that merely failed to resolve already
                    // produced UnknownParent; a genuine orphan is C7.
                    errs.push(IngestError::Condition {
                        row: sm.row,
                        dim,
                        condition: 7,
                        member: key_of(v).to_string(),
                        detail: "member has no parent".into(),
                    });
                }
                continue;
            }
            for &p in &sm.parents {
                let (cc, pc) = (
                    Category::from_index(sm.category as usize),
                    Category::from_index(cat_of(p) as usize),
                );
                if !g.has_edge(cc, pc) {
                    errs.push(IngestError::Condition {
                        row: sm.row,
                        dim,
                        condition: 1,
                        member: key_of(v).to_string(),
                        detail: format!(
                            "link to `{}` crosses {} ↗ {}, not a schema edge",
                            key_of(p),
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
                row: staged[i].row,
                dim,
                condition: 6,
                member: key_of(n_old + i as u32).to_string(),
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
        let anc = self.anc_rows(dim, staged);
        for (i, sm) in staged.iter().enumerate() {
            let v = n_old + i as u32;
            let mut reported = vec![false; nc];
            for &p in &sm.parents {
                for c in 0..nc {
                    let cand = if p < n_old {
                        plane.rollup[c][p as usize]
                    } else {
                        anc[(p - n_old) as usize][c]
                    };
                    if cand == NONE {
                        continue;
                    }
                    if c == sm.category as usize {
                        if cand != v && !reported[c] {
                            reported[c] = true;
                            errs.push(IngestError::Condition {
                                row: sm.row,
                                dim,
                                condition: 6,
                                member: key_of(v).to_string(),
                                detail: format!(
                                    "rolls up to `{}` within its own category {}",
                                    key_of(cand),
                                    g.name(Category::from_index(c))
                                ),
                            });
                        }
                        continue;
                    }
                    let have = anc[i][c];
                    debug_assert_ne!(have, NONE, "anc row missing a merged ancestor");
                    if have != cand && !reported[c] {
                        reported[c] = true;
                        errs.push(IngestError::Condition {
                            row: sm.row,
                            dim,
                            condition: 2,
                            member: key_of(v).to_string(),
                            detail: format!(
                                "rolls up to both `{}` and `{}` in category {}",
                                key_of(have),
                                key_of(cand),
                                g.name(Category::from_index(c))
                            ),
                        });
                    }
                }
            }
        }
        // C5 (no shortcuts): the direct link x < y is redundant when a
        // sibling parent p already reaches y.
        for (i, sm) in staged.iter().enumerate() {
            let v = n_old + i as u32;
            for &y in &sm.parents {
                let yc = cat_of(y) as usize;
                let duplicated = sm.parents.iter().any(|&p| {
                    p != y && {
                        let a = if p < n_old {
                            plane.rollup[yc][p as usize]
                        } else {
                            anc[(p - n_old) as usize][yc]
                        };
                        a == y
                    }
                });
                if duplicated {
                    errs.push(IngestError::Condition {
                        row: sm.row,
                        dim,
                        condition: 5,
                        member: key_of(v).to_string(),
                        detail: format!(
                            "direct link to `{}` is shortcut by a longer chain",
                            key_of(y)
                        ),
                    });
                }
            }
        }
    }

    /// Unique-ancestor rows for the staged members of one dimension, in
    /// staged order. Keep-first on clashes and tolerant of cycles (the
    /// validating caller detects both separately); committed parents
    /// contribute their plane rollup columns.
    fn anc_rows(&self, dim: usize, staged: &[StagedMember]) -> Vec<Vec<u32>> {
        let plane = &self.planes[dim];
        let nc = plane.schema.num_categories();
        let n_old = plane.len() as u32;
        let mut anc: Vec<Vec<u32>> = vec![Vec::new(); staged.len()];
        // 0 = untouched, 1 = entered, 2 = done.
        let mut state = vec![0u8; staged.len()];
        enum Task {
            Enter(usize),
            Exit(usize),
        }
        for start in 0..staged.len() {
            if state[start] != 0 {
                continue;
            }
            let mut todo = vec![Task::Enter(start)];
            while let Some(task) = todo.pop() {
                match task {
                    Task::Enter(u) => {
                        if state[u] != 0 {
                            continue;
                        }
                        state[u] = 1;
                        todo.push(Task::Exit(u));
                        for &p in &staged[u].parents {
                            if p >= n_old && state[(p - n_old) as usize] == 0 {
                                todo.push(Task::Enter((p - n_old) as usize));
                            }
                        }
                    }
                    Task::Exit(u) => {
                        let mut row = vec![NONE; nc];
                        row[staged[u].category as usize] = n_old + u as u32;
                        for &p in &staged[u].parents {
                            for (c, slot) in row.iter_mut().enumerate() {
                                let cand = if p < n_old {
                                    plane.rollup[c][p as usize]
                                } else {
                                    let s = (p - n_old) as usize;
                                    // On a cycle the parent row may not be
                                    // done yet; skip its contribution.
                                    if state[s] == 2 { anc[s][c] } else { NONE }
                                };
                                if cand != NONE && *slot == NONE {
                                    *slot = cand;
                                }
                            }
                        }
                        anc[u] = row;
                        state[u] = 2;
                    }
                }
            }
        }
        anc
    }

    // ---- commit / rollback -----------------------------------------

    fn commit(&mut self, delta: Delta) -> BatchStats {
        let mut stats = BatchStats::default();
        for (dim, staged) in delta.members.into_iter().enumerate() {
            if staged.is_empty() {
                continue;
            }
            let anc = self.anc_rows(dim, &staged);
            let plane = &mut self.planes[dim];
            let n_old = plane.len() as u32;
            for (i, sm) in staged.iter().enumerate() {
                let v = n_old + i as u32;
                plane.keys.push(sm.key);
                plane.names.push(sm.name);
                plane.category.push(sm.category);
                plane.parents.push(sm.parents.clone());
                plane.by_key.insert(sm.key, v);
                plane.members_in[sm.category as usize].insert(v);
                if plane.bottom[sm.category as usize] {
                    plane.base.insert(v);
                }
                for (col, &a) in plane.rollup.iter_mut().zip(&anc[i]) {
                    col.push(a);
                }
            }
            stats.members += staged.len();
        }
        for (_, coords, measure) in delta.facts {
            for (dim, v) in coords.into_iter().enumerate() {
                self.fact_cols[dim].push(v);
            }
            self.measures.push(measure);
            stats.facts += 1;
        }
        self.batches += 1;
        stats
    }

    fn rollback(&mut self, snap_members: &[usize], snap_facts: usize) {
        for (plane, &n0) in self.planes.iter_mut().zip(snap_members) {
            for v in n0..plane.len() {
                plane.by_key.remove(&plane.keys[v]);
                plane.members_in[plane.category[v] as usize].remove(v as u32);
                plane.base.remove(v as u32);
            }
            plane.keys.truncate(n0);
            plane.names.truncate(n0);
            plane.category.truncate(n0);
            plane.parents.truncate(n0);
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
            for &p in &plane.parents[v] {
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
            let mut txt = String::new();
            for v in 1..plane.len() {
                let key = self.interner.resolve(plane.keys[v]);
                let name = self.interner.resolve(plane.names[v]);
                let cat = plane
                    .schema
                    .name(Category::from_index(plane.category[v] as usize));
                txt.push_str(&format!("{} : {}", quote(key), cat));
                if name != key {
                    txt.push_str(&format!(" = \"{name}\""));
                }
                if !plane.parents[v].is_empty() {
                    let ps: Vec<String> = plane.parents[v]
                        .iter()
                        .map(|&p| {
                            if p == 0 {
                                "all".to_string()
                            } else {
                                quote(self.interner.resolve(plane.keys[p as usize]))
                            }
                        })
                        .collect();
                    txt.push_str(&format!(" < {}", ps.join(", ")));
                }
                txt.push('\n');
            }
            std::fs::write(dir.join(format!("members.{k}.odct")), txt).map_err(io)?;
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

    /// Loads a store saved by [`FactStore::save`]. Members re-ingest
    /// through the incremental validator (one batch per store), so a
    /// corrupted member file is rejected with the same typed errors as
    /// live ingest; fact columns reload binary with bounds/base checks.
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
        let mut store = FactStore::new(schemas);
        let mut combined = StagedBatch::default();
        for k in 0..store.num_dims() {
            let text =
                std::fs::read_to_string(dir.join(format!("members.{k}.odct"))).map_err(io)?;
            let mut batch = parse_batch(&text, 1)?;
            for rm in &mut batch.members {
                rm.dim = k;
            }
            combined.members.append(&mut batch.members);
        }
        store.ingest_batch(&combined)?;
        store.batches = 0;
        let bin = std::fs::read(dir.join("facts.bin")).map_err(io)?;
        let corrupt = |what: &str| IngestError::Io(format!("facts.bin: {what}"));
        if bin.len() < 21 || &bin[..9] != b"ODCSTORE1" {
            return Err(corrupt("bad magic"));
        }
        let truncated = || corrupt("truncated");
        let nd = u32::from_le_bytes(le_at(&bin, 9).ok_or_else(truncated)?) as usize;
        let nf = u64::from_le_bytes(le_at(&bin, 13).ok_or_else(truncated)?);
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
        let mut off = 21;
        for dim in 0..nd {
            let plane = &store.planes[dim];
            let mut col = Vec::with_capacity(nf);
            for _ in 0..nf {
                let v = u32::from_le_bytes(le_at(&bin, off).ok_or_else(truncated)?);
                off += 4;
                if v as usize >= plane.len() || !plane.base.contains(v) {
                    return Err(corrupt("fact keys a non-base member index"));
                }
                col.push(v);
            }
            store.fact_cols[dim] = col;
        }
        let mut measures = Vec::with_capacity(nf);
        for _ in 0..nf {
            measures.push(i64::from_le_bytes(le_at(&bin, off).ok_or_else(truncated)?));
            off += 8;
        }
        store.measures = measures;
        Ok(store)
    }
}

/// The `N` bytes of a saved fact matrix at `off`, or `None` past its end.
fn le_at<const N: usize>(bin: &[u8], off: usize) -> Option<[u8; N]> {
    bin.get(off..off.checked_add(N)?)?.try_into().ok()
}

/// Finds a `<`-cycle confined to the staged members, returning the
/// staged index of one member on it.
fn staged_cycle(staged: &[StagedMember], n_old: u32) -> Option<usize> {
    const WHITE: u8 = 0;
    const GRAY: u8 = 1;
    const BLACK: u8 = 2;
    let mut color = vec![WHITE; staged.len()];
    for start in 0..staged.len() {
        if color[start] != WHITE {
            continue;
        }
        let mut stack: Vec<(usize, usize)> = vec![(start, 0)];
        color[start] = GRAY;
        while let Some(&mut (node, ref mut next)) = stack.last_mut() {
            if let Some(&p) = staged[node].parents.get(*next) {
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
    use odc_core::olap::{cuboid, RollupPlan};
    use odc_core::prelude::RollupTable;

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
             s1 : Store < \"New York\"\ns1 -> 10\ns1 -> -3\n",
            1,
        )
        .unwrap();
        s.save(&dir).unwrap();
        let loaded = FactStore::load(&dir).unwrap();
        assert_eq!(loaded.num_members(0), s.num_members(0));
        assert_eq!(loaded.num_facts(), s.num_facts());
        let c = cat(&s, 0, "Country");
        assert_eq!(
            loaded.materialize(&[c], AggFn::Sum),
            s.materialize(&[c], AggFn::Sum)
        );
        let d = loaded.instance(0);
        let ny = d.member_by_key("New York").unwrap();
        assert_eq!(d.name(ny), "NY # east");
        std::fs::remove_dir_all(&dir).ok();
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
    }

}
