//! `ingest-nav`: the store's write path beside its read path, with no
//! DIMSAT and no server.
//!
//! A stream over `locationSch` (25k base members, parents first, then a
//! million facts) goes through `parse_batch` + `ingest_batch` in 64k-row
//! batches, into fresh stores, until the batch-time p90 has ten samples
//! beyond it. The last store is saved, reopened, and navigated: a
//! five-step drill (City, SaleRegion, Province, State, Country) where
//! each step rolls up from the smallest cuboid the store's measured
//! summarizability verdict allows (`choose_source` + `roll_up`).

use crate::stats::{self, median, samples_needed, tail_percentile};
use crate::trace::Tracer;
use crate::{metric, samples, timed, Ctx, Outcome, Workload};
use odc_core::instance::text::quote;
use odc_core::olap::{choose_source, roll_up, AggFn, Cuboid};
use odc_core::prelude::*;
use odc_rand::rngs::StdRng;
use odc_rand::SeedableRng;
use odc_store::FactStore;
use std::collections::BTreeMap;
use std::hash::{DefaultHasher, Hash, Hasher};
use std::path::Path;
use std::time::Instant;

const BASE_MEMBERS: usize = 25_000;
const FACTS: usize = 1_000_000;
const BATCH_ROWS: usize = 65_536;
const DRILL: [&str; 5] = ["City", "SaleRegion", "Province", "State", "Country"];

struct Inputs {
    ds: DimensionSchema,
    /// Stream text, one string per batch.
    batches: Vec<String>,
    members: usize,
    /// Fingerprint of the stream, to check set-up is deterministic.
    hash: u64,
}

/// Serializes an instance into member lines, parents before children:
/// a parent's category reaches strictly fewer categories than its
/// child's, the hierarchy being acyclic.
fn member_lines(d: &DimensionInstance) -> Vec<String> {
    let g = d.schema();
    let mut members: Vec<Member> = d.members().filter(|&m| m != Member::ALL).collect();
    members.sort_by_key(|&m| g.reachable_from(d.category_of(m)).len());
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
            let mut line = format!("{} : {}", quote(d.key(m)), g.name(d.category_of(m)));
            if !parents.is_empty() {
                line.push_str(&format!(" < {}", parents.join(", ")));
            }
            line
        })
        .collect()
}

fn inputs(seed: u64) -> Result<Inputs, String> {
    let ds = odc_workload::location_sch();
    let store = ds
        .hierarchy()
        .category_by_name("Store")
        .ok_or("locationSch has no Store")?;
    let mut rng = StdRng::seed_from_u64(seed);
    let d = odc_workload::random_instance(&ds, store, BASE_MEMBERS, 0.6, &mut rng)
        .map_err(|e| format!("instance: {e:?}"))?;
    let mut lines = member_lines(&d);
    let members = lines.len();
    for (m, v) in odc_workload::facts::random_fact_rows(&d, FACTS, &mut rng) {
        lines.push(format!("{} -> {v}", quote(d.key(m))));
    }
    let batches: Vec<String> = lines.chunks(BATCH_ROWS).map(|c| c.join("\n")).collect();
    let mut h = DefaultHasher::new();
    batches.hash(&mut h);
    Ok(Inputs {
        ds,
        batches,
        members,
        hash: h.finish(),
    })
}

/// A cuboid's cells with member ids resolved to keys.
fn resolved(c: &Cuboid, d: &DimensionInstance) -> BTreeMap<Vec<String>, i64> {
    c.cells
        .iter()
        .map(|(coords, &v)| (coords.iter().map(|&m| d.key(m).to_string()).collect(), v))
        .collect()
}

fn bytes_under(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// One navigation session: the base cuboid, then each drill step from
/// the smallest safe materialized source, falling back to the base
/// facts. Returns each step's answer and how many steps rolled up.
fn nav_session(
    store: &FactStore,
    d0: &DimensionInstance,
    levels: &[Category],
    t: &Tracer,
) -> (Vec<Cuboid>, usize) {
    let bottom = d0
        .schema()
        .category_by_name("Store")
        .expect("locationSch has Store");
    let table = t.span("olap.rollup_table", || RollupTable::new(d0));
    let mut pool = vec![t.span("olap.materialize", || {
        store.materialize(&[bottom], AggFn::Sum)
    })];
    let mut hits = 0;
    for &level in levels {
        let source = t
            .span("olap.choose_source", || {
                choose_source(&pool, &[level], |_, from, to| {
                    t.span("store.verdict", || {
                        store.summarizability_verdict(0, from, to)
                    })
                })
            })
            .cloned();
        let answer = match source {
            Some(src) => {
                hits += 1;
                t.span("olap.roll_up", || {
                    roll_up(&src, std::slice::from_ref(&table), &[level])
                })
            }
            None => t.span("olap.materialize", || {
                store.materialize(&[level], AggFn::Sum)
            }),
        };
        pool.push(answer);
    }
    (pool.split_off(1), hits)
}

/// The stream, and the samples so far.
pub struct Ingest {
    inp: Inputs,
    levels: Vec<Category>,
    batch_ms: Vec<f64>,
    /// Seconds spent in `parse_batch` + `ingest_batch`.
    busy: f64,
    rows: usize,
    streams: usize,
    saves: Vec<f64>,
    opens: Vec<f64>,
    sessions: Vec<f64>,
    saved_bytes: u64,
    hit_share: f64,
    /// Each drill step's answer by direct materialization, from the
    /// first reopened store.
    direct: Vec<BTreeMap<Vec<String>, i64>>,
    /// The last reopened store, kept in a traced run to re-validate.
    last: Option<FactStore>,
}

/// The first set-up's stream fingerprint in this process.
static FIRST_HASH: std::sync::OnceLock<u64> = std::sync::OnceLock::new();

pub fn setup(ctx: &Ctx, o: &mut Outcome) -> Result<Box<dyn Workload>, String> {
    let inp = inputs(ctx.seed)?;
    // Set-up runs several times per run; each must produce one stream.
    let first = *FIRST_HASH.get_or_init(|| inp.hash);
    o.check(inp.hash == first, || {
        "set-up produced a different stream".to_string()
    });
    let g = inp.ds.hierarchy();
    let levels = DRILL
        .iter()
        .map(|n| g.category_by_name(n).ok_or(format!("no category {n}")))
        .collect::<Result<Vec<_>, _>>()?;
    let rows = inp.batches.iter().map(|b| b.lines().count()).sum();
    Ok(Box::new(Ingest {
        inp,
        levels,
        batch_ms: Vec::new(),
        busy: 0.0,
        rows,
        streams: 0,
        saves: Vec::new(),
        opens: Vec::new(),
        sessions: Vec::new(),
        saved_bytes: 0,
        hit_share: 0.0,
        direct: Vec::new(),
        last: None,
    }))
}

impl Ingest {
    fn facts(&self) -> usize {
        self.rows - self.inp.members
    }

    fn counts_ok(&self, s: &FactStore) -> bool {
        s.num_facts() == self.facts() && s.num_members(0) == self.inp.members + 1
    }

    /// The whole stream into a fresh store, batch by batch.
    fn stream(&mut self, t: &Tracer, o: &mut Outcome) -> FactStore {
        let mut s = FactStore::new(vec![self.inp.ds.clone()]);
        for (i, text) in self.inp.batches.iter().enumerate() {
            let start = Instant::now();
            let committed = t.span("store.batch", || -> Result<(), String> {
                let b = t
                    .span("store.parse", || {
                        odc_store::parse_batch(text, i * BATCH_ROWS + 1)
                    })
                    .map_err(|e| format!("parse: {e}"))?;
                if t.enabled() {
                    // An untimed first check leaves the store as warm
                    // (interned keys, cached indexes) as `ingest_batch`
                    // will find it, so ingest minus check is the append.
                    s.check_batch(&b);
                    let errors = t.span("store.check", || s.check_batch(&b));
                    if let Some(e) = errors.first() {
                        return Err(format!("check: {e}"));
                    }
                }
                t.span("store.ingest", || s.ingest_batch(&b))
                    .map(|_| ())
                    .map_err(|e| format!("ingest: {e}"))
            });
            let secs = start.elapsed().as_secs_f64();
            self.busy += secs;
            self.batch_ms.push(secs * 1e3);
            o.check(committed.is_ok(), || {
                format!("batch {i} rejected: {committed:?}")
            });
        }
        self.streams += 1;
        s
    }
}

impl Workload for Ingest {
    fn round(&mut self, ctx: &Ctx, t: &Tracer, o: &mut Outcome) -> Result<(), String> {
        let store = self.stream(t, o);
        o.check(self.counts_ok(&store), || {
            format!(
                "ingested store holds {} facts, {} members",
                store.num_facts(),
                store.num_members(0)
            )
        });
        let dir = ctx.dir("store");
        let (secs, r) = timed(|| t.span("store.save", || store.save(&dir)));
        r.map_err(|e| format!("save: {e}"))?;
        self.saves.push(secs * 1e3);
        self.saved_bytes = bytes_under(&dir);
        drop(store);

        let (secs, r) = timed(|| t.span("store.load", || FactStore::load(&dir)));
        let store = r.map_err(|e| format!("load: {e}"))?;
        self.opens.push(secs * 1e3);
        let _ = std::fs::remove_dir_all(&dir);
        o.check(self.counts_ok(&store), || {
            format!(
                "reopened store holds {} facts, {} members",
                store.num_facts(),
                store.num_members(0)
            )
        });

        let d0 = store.instance(0);
        if self.direct.is_empty() {
            self.direct = self
                .levels
                .iter()
                .map(|&l| resolved(&store.materialize(&[l], AggFn::Sum), &d0))
                .collect();
        }
        let (secs, (answers, hits)) = timed(|| {
            t.span("olap.nav_session", || {
                nav_session(&store, &d0, &self.levels, t)
            })
        });
        self.sessions.push(secs * 1e3);
        self.hit_share = hits as f64 / self.levels.len() as f64;
        for (k, (a, want)) in answers.iter().zip(&self.direct).enumerate() {
            o.check(&resolved(a, &d0) == want, || {
                format!(
                    "drill step {} differs from direct materialization",
                    DRILL[k]
                )
            });
        }
        if t.enabled() {
            self.last = Some(store);
        }
        Ok(())
    }

    fn enough(&self) -> bool {
        self.batch_ms.len() >= samples_needed(0.9)
    }

    fn finish(self: Box<Self>, _: &Ctx, t: &Tracer, o: &mut Outcome) -> Result<(), String> {
        let mut sorted = self.batch_ms.clone();
        let sorted = stats::sorted(&mut sorted);
        if let Some(q) = stats::highest_percentile(sorted.len()) {
            eprintln!(
                "ingest: {} streams, {} batches; p{:.1} batch {:.1} ms",
                self.streams,
                sorted.len(),
                q * 100.0,
                sorted[stats::rank(sorted.len(), q) - 1]
            );
        }
        let per_stream: Vec<f64> = self
            .batch_ms
            .chunks(self.inp.batches.len())
            .map(median)
            .collect();
        eprintln!(
            "ingest: per-stream median batch ms [{}]",
            samples(&per_stream)
        );
        eprintln!("ingest: save ms [{}]", samples(&self.saves));
        eprintln!("ingest: open ms [{}]", samples(&self.opens));
        eprintln!("ingest: nav ms [{}]", samples(&self.sessions));
        o.e2e.push(metric(
            "ingest_rows_per_s",
            (self.rows * self.streams) as f64 / self.busy,
            "1/s",
        ));
        o.e2e.push(metric(
            "ingest_batch_p50_ms",
            tail_percentile(sorted, 0.5).ok_or("too few batches")?,
            "ms",
        ));
        o.e2e.push(metric(
            "ingest_batch_p90_ms",
            tail_percentile(sorted, 0.9).ok_or("too few batches")?,
            "ms",
        ));
        o.e2e
            .push(metric("ingest_save_ms", median(&self.saves), "ms"));
        o.e2e
            .push(metric("store_open_ms", median(&self.opens), "ms"));
        o.e2e
            .push(metric("nav_session_ms", median(&self.sessions), "ms"));
        if !t.enabled() {
            return Ok(());
        }
        let store = self.last.as_ref().ok_or("no reopened store")?;
        let errors = t.span("store.revalidate", || store.revalidate());
        o.check(errors.is_empty(), || {
            format!("reopened store fails re-validation: {:?}", errors.first())
        });
        let ms = |name: &str| median(&t.durations(name)) / 1e6;
        let us = |v: Vec<f64>| median(&v) / 1e3;
        let appends: Vec<f64> = t
            .durations("store.ingest")
            .iter()
            .zip(t.durations("store.check"))
            .map(|(i, c)| i - c)
            .collect();
        o.layer
            .push(metric("store.parse_ms", ms("store.parse"), "ms"));
        o.layer
            .push(metric("store.check_ms", ms("store.check"), "ms"));
        o.layer
            .push(metric("store.append_ms", median(&appends) / 1e6, "ms"));
        o.layer.push(metric(
            "store.bytes_per_fact",
            self.saved_bytes as f64 / self.facts() as f64,
            "B",
        ));
        o.layer
            .push(metric("store.revalidate_ms", ms("store.revalidate"), "ms"));
        o.layer
            .push(metric("olap.materialize_ms", ms("olap.materialize"), "ms"));
        o.layer.push(metric(
            "olap.choose_source_us",
            us(t.self_times_of("olap.choose_source")),
            "us",
        ));
        o.layer
            .push(metric("olap.rollup_ms", ms("olap.roll_up"), "ms"));
        o.layer
            .push(metric("olap.rollup_hit_share", self.hit_share, "ratio"));
        o.layer.push(metric(
            "store.verdict_us",
            us(t.durations("store.verdict")),
            "us",
        ));
        Ok(())
    }
}
