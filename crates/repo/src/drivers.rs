//! The verdict repository as the batteries' per-item cache.
//!
//! [`VerdictRepo`] implements [`ItemCache`], so the sweep, the
//! Theorem-1 battery and the one audit driver (`advisor::audit_run`)
//! consult it through `Run::cache`: every item (`Sat`, `Redundant`,
//! `Census`, `Rewrite`, `Query`) is answered from disk when stored,
//! solved and stored with its proof footprint when not, and an
//! interrupted item leaves its cursor as a pending record that the next
//! attempt resumes. Keys are [`sub_key`]s of the schema's fingerprint,
//! so a schema edit re-solves only the items whose footprint it touches.
//! [`ResumeCache`](crate::ResumeCache), the in-memory cache behind a
//! checkpoint file, keys and encodes items the same way.
//!
//! The solver is deterministic, so a stored answer is what a fresh
//! solve would decide: the repository changes *when* work happens,
//! never *what* the report says.

use odc_constraint::{printer, DimensionSchema};
use odc_dimsat::checkpoint::options_key;
use odc_dimsat::{implication, AuditItem, DimsatOptions, ItemAnswer, ItemCache, Run};
use odc_govern::{Governor, InterruptReason};
use odc_summarizability::advisor::{audit_run, SchemaReport};

use crate::footprint::{failing_bottom, region, summarizable_footprint};
use crate::record::{StoredVerdict, VerdictKey};
use crate::store::VerdictRepo;

/// Key for one audit sub-query of `ds` under the default options.
pub fn sub_key(ds: &DimensionSchema, kind: &str, query: &str) -> VerdictKey {
    VerdictKey {
        fingerprint: implication::schema_fingerprint(ds),
        options: options_key(&DimsatOptions::default()),
        kind: kind.to_string(),
        query: query.to_string(),
    }
}

/// The key of an item; `None` for a constraint index outside `Σ`. A
/// `Query` is the record `odc summarizable` has always written.
pub(crate) fn item_key(ds: &DimensionSchema, item: &AuditItem) -> Option<VerdictKey> {
    let g = ds.hierarchy();
    Some(match item {
        AuditItem::Sat(c) => sub_key(ds, "sat", g.name(*c)),
        AuditItem::Redundant(i) => {
            let dc = ds.constraints().get(*i)?;
            sub_key(ds, "redundant", &printer::display_dc(g, dc).to_string())
        }
        AuditItem::Census(c) => sub_key(ds, "census", g.name(*c)),
        AuditItem::Rewrite(coarse, fine) => sub_key(
            ds,
            "rewrite",
            &format!("{}<-{}", g.name(*coarse), g.name(*fine)),
        ),
        AuditItem::Query(target, sources) => {
            let sources: Vec<&str> = sources.iter().map(|&c| g.name(c)).collect();
            let query = format!("{}<-{}", g.name(*target), sources.join("+"));
            sub_key(ds, "cli-summarizable", &query)
        }
    })
}

/// A stored record read back as `item`'s answer; another shape is a
/// miss.
pub(crate) fn decode_answer(
    ds: &DimensionSchema,
    item: &AuditItem,
    hit: &StoredVerdict,
) -> Option<ItemAnswer> {
    let value = hit.value.as_str();
    match item {
        AuditItem::Sat(_) => match value {
            "sat" => Some(ItemAnswer::Sat),
            "unsat" => Some(ItemAnswer::Unsat),
            "aborted" => Some(ItemAnswer::Aborted(InterruptReason::FanoutOverflow)),
            _ => None,
        },
        AuditItem::Census(_) => value.parse().ok().map(ItemAnswer::Count),
        AuditItem::Redundant(_) | AuditItem::Rewrite(..) => match value {
            "yes" => Some(ItemAnswer::Holds),
            "no" => Some(ItemAnswer::Fails(
                hit.payload
                    .lines()
                    .find_map(|l| l.strip_prefix("failing-bottom "))
                    .and_then(|n| ds.hierarchy().category_by_name(n)),
                None,
            )),
            _ => None,
        },
        AuditItem::Query(..) => match value {
            "true" => Some(ItemAnswer::Holds),
            "false" => Some(ItemAnswer::Fails(
                failing_bottom(ds.hierarchy(), hit),
                hit.payload
                    .lines()
                    .find_map(|l| l.strip_prefix("countermodel: "))
                    .map(str::to_string),
            )),
            _ => None,
        },
    }
}

/// The record storing `answer` as `item`'s. A `Query` record's payload
/// is what `odc summarizable` prints for the answer.
pub(crate) fn encode_answer(
    ds: &DimensionSchema,
    item: &AuditItem,
    answer: ItemAnswer,
) -> StoredVerdict {
    let g = ds.hierarchy();
    let (fb, countermodel) = match &answer {
        ItemAnswer::Fails(fb, cx) => (*fb, cx.as_deref()),
        _ => (None, None),
    };
    if let AuditItem::Query(target, _) = item {
        let holds = answer == ItemAnswer::Holds;
        let mut payload = format!("summarizable: {holds}\n");
        if let Some(cx) = countermodel {
            payload.push_str(&format!("countermodel: {cx}\n"));
        }
        // A negative verdict is witnessed by one failing bottom; a
        // positive one depended on the whole battery.
        let footprint = summarizable_footprint(g, *target, fb);
        return StoredVerdict {
            value: holds.to_string(),
            payload,
            footprint: footprint.into_iter().collect(),
        };
    }
    let value = match answer {
        ItemAnswer::Sat => "sat".to_string(),
        ItemAnswer::Unsat => "unsat".to_string(),
        ItemAnswer::Aborted(_) => "aborted".to_string(),
        ItemAnswer::Count(n) => n.to_string(),
        ItemAnswer::Holds => "yes".to_string(),
        ItemAnswer::Fails(..) => "no".to_string(),
    };
    let payload = fb.map_or_else(String::new, |b| format!("failing-bottom {}\n", g.name(b)));
    // A proof only examines its root's region; a rewrite verdict's
    // footprint is its battery's (the failing bottom's region alone
    // when refuted).
    let footprint = match item {
        AuditItem::Sat(c) | AuditItem::Census(c) => region(g, *c),
        AuditItem::Redundant(i) => region(g, ds.constraints()[*i].root()),
        AuditItem::Rewrite(coarse, _) | AuditItem::Query(coarse, _) => {
            summarizable_footprint(g, *coarse, fb)
        }
    };
    StoredVerdict {
        value,
        payload,
        footprint: footprint.into_iter().collect(),
    }
}

impl ItemCache for VerdictRepo {
    fn get(&self, ds: &DimensionSchema, item: &AuditItem) -> Option<ItemAnswer> {
        let hit = VerdictRepo::get(self, &item_key(ds, item)?)?;
        decode_answer(ds, item, &hit)
    }

    fn put(&self, ds: &DimensionSchema, item: &AuditItem, answer: ItemAnswer) {
        if let Some(key) = item_key(ds, item) {
            // A failed append degrades to cache-miss-next-time; the
            // verdict itself was already proved, so the caller's answer
            // stands.
            let _ = VerdictRepo::put(self, key, encode_answer(ds, item, answer));
        }
    }

    fn pending(&self, ds: &DimensionSchema, item: &AuditItem) -> Option<String> {
        VerdictRepo::pending(self, &item_key(ds, item)?)
    }

    fn put_pending(&self, ds: &DimensionSchema, item: &AuditItem, cursor: String) {
        if let Some(key) = item_key(ds, item) {
            let _ = VerdictRepo::put_pending(self, key, cursor);
        }
    }
}

/// The reference audit (serial, unplanned) through `repo`.
pub fn audit_with_repo(
    ds: &DimensionSchema,
    repo: &VerdictRepo,
    gov: &mut Governor,
) -> SchemaReport {
    audit_run(ds, Run::new(gov).cache(repo))
}

#[cfg(test)]
mod tests {
    use super::*;
    use odc_govern::Budget;
    use odc_hierarchy::HierarchySchema;
    use odc_obs::Obs;
    use odc_summarizability::advisor;
    use std::sync::Arc;

    fn sample_schema() -> DimensionSchema {
        let mut b = HierarchySchema::builder();
        let store = b.category("Store");
        let city = b.category("City");
        let state = b.category("State");
        let region = b.category("SaleRegion");
        let country = b.category("Country");
        b.edge(store, city);
        b.edge(store, region);
        b.edge(city, state);
        b.edge(state, region);
        b.edge(state, country);
        b.edge(region, country);
        b.edge(country, odc_hierarchy::Category::ALL);
        let g = Arc::new(b.build().unwrap());
        DimensionSchema::parse(
            g,
            "Store_City\nState.Country = Mexico | State.Country = USA\n",
        )
        .unwrap()
    }

    fn tmp_repo(tag: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("odc-repo-drv-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&d);
        d
    }

    #[test]
    fn repo_audit_matches_plain_audit_cold_and_warm() {
        let ds = sample_schema();
        let plain = advisor::audit(&ds);
        let d = tmp_repo("audit");
        let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
        let mut gov = Governor::unlimited();
        let cold = audit_with_repo(&ds, &repo, &mut gov);
        assert_eq!(cold.render(&ds), plain.render(&ds));
        // Warm pass: answered entirely from the store, same bytes.
        let mut gov = Governor::unlimited();
        let warm = audit_with_repo(&ds, &repo, &mut gov);
        assert_eq!(warm.render(&ds), plain.render(&ds));
        assert_eq!(warm.stats.expand_calls, 0, "warm audit searches nothing");
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn warm_audit_survives_process_restart() {
        let ds = sample_schema();
        let plain = advisor::audit(&ds);
        let d = tmp_repo("restart");
        {
            let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
            let mut gov = Governor::unlimited();
            audit_with_repo(&ds, &repo, &mut gov);
        }
        let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
        let mut gov = Governor::unlimited();
        let warm = audit_with_repo(&ds, &repo, &mut gov);
        assert_eq!(warm.render(&ds), plain.render(&ds));
        assert_eq!(warm.stats.expand_calls, 0);
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn interrupted_audit_leaves_pending_cursors_and_resumes() {
        let ds = sample_schema();
        let d = tmp_repo("resume");
        let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
        // Starve the budget until the audit completes; every attempt
        // reuses stored verdicts and pending cursors from the previous.
        let mut nodes = 8u64;
        let mut attempts = 0;
        let report = loop {
            attempts += 1;
            let mut gov = Governor::from_budget(Budget::unlimited().with_node_limit(nodes));
            let r = audit_with_repo(&ds, &repo, &mut gov);
            if r.interrupted.is_none() {
                break r;
            }
            nodes *= 2;
            assert!(attempts < 30, "audit never completed");
        };
        let plain = advisor::audit(&ds);
        assert_eq!(report.render(&ds), plain.render(&ds));
        let _ = std::fs::remove_dir_all(&d);
    }

    #[test]
    fn rewrite_items_store_their_real_failing_bottom() {
        let ds = sample_schema();
        let g = ds.hierarchy();
        let d = tmp_repo("rewrite");
        let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
        let mut gov = Governor::unlimited();
        audit_with_repo(&ds, &repo, &mut gov);
        let mut refuted = 0;
        for (coarse, fine) in advisor::rewrite_pairs(g) {
            let plain = odc_summarizability::is_summarizable_in_schema(&ds, coarse, &[fine]);
            let want = if plain.summarizable() {
                ItemAnswer::Holds
            } else {
                refuted += 1;
                ItemAnswer::Fails(plain.failing_bottom, None)
            };
            let item = AuditItem::Rewrite(coarse, fine);
            assert_eq!(ItemCache::get(&repo, &ds, &item), Some(want));
        }
        assert!(refuted > 0, "the sample schema has unsafe rewrites");
        let _ = std::fs::remove_dir_all(&d);
    }
}
