//! Repository-backed reasoning drivers.
//!
//! Each driver answers the same question as its plain counterpart
//! (`advisor::audit_run`, `is_summarizable_in_schema_run`, ...) but
//! consults a [`VerdictRepo`] first: decided sub-queries are answered
//! from disk, fresh ones are solved and stored with their
//! proof footprint, and interrupted ones leave a pending checkpoint
//! cursor behind that the next attempt resumes as a warm start
//! (PR 4's battery and solve checkpoints, persisted per key).
//!
//! Findings are reported in exactly the order of the plain drivers,
//! and the solver's determinism means a stored payload is
//! byte-identical to what a fresh solve would print — the repository
//! changes *when* work happens, never *what* the answer is.

use odc_constraint::{printer, DimensionConstraint, DimensionSchema};
use odc_dimsat::checkpoint::options_key;
use odc_dimsat::{implication, Dimsat, DimsatOptions, Run, Verdict};
use odc_govern::{Governor, InterruptReason};
use odc_hierarchy::Category;
use odc_plan::SharedFacts;
use odc_summarizability::advisor::{rewrite_pairs, SchemaReport};
use odc_summarizability::checkpoint::load_battery_checkpoint;
use odc_summarizability::{
    is_summarizable_in_schema_run, SummarizabilityOutcome, SummarizabilityVerdict,
};

use crate::footprint::{region, summarizable_footprint};
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

fn put(repo: &VerdictRepo, key: VerdictKey, value: &str, payload: String, footprint: Vec<String>) {
    // A failed append degrades to cache-miss-next-time; the verdict
    // itself was already proved, so the caller's answer stands.
    let _ = repo.put(
        key,
        StoredVerdict {
            value: value.to_string(),
            payload,
            footprint,
        },
    );
}

/// Enumerate the frozen dimensions rooted at `c` through the
/// repository. A hit returns only the stored *count* (the audit's
/// census needs nothing more). Interrupts persist the solve cursor as
/// a pending warm start and return the interrupt.
fn census_with_repo(
    ds: &DimensionSchema,
    solver: &Dimsat<'_>,
    repo: &VerdictRepo,
    c: Category,
    gov: &mut Governor,
) -> Result<(usize, odc_dimsat::SearchStats), odc_govern::Interrupt> {
    let g = ds.hierarchy();
    let key = sub_key(ds, "census", g.name(c));
    if let Some(hit) = repo.get(&key) {
        if let Ok(n) = hit.value.parse::<usize>() {
            return Ok((n, Default::default()));
        }
    }
    let resumed = repo
        .pending(&key)
        .and_then(|text| solver.load_checkpoint(&text).ok())
        .and_then(|cp| solver.resume_governed(&cp, gov).ok());
    let (frozen, out) = match resumed {
        Some(r) => r,
        None => solver.enumerate_frozen_governed(c, gov),
    };
    if let Some(intr) = out.interrupted {
        if let Some(cp) = &out.checkpoint {
            let _ = repo.put_pending(key, cp.to_text());
        }
        return Err(intr);
    }
    put(
        repo,
        key,
        &frozen.len().to_string(),
        String::new(),
        region(g, c).into_iter().collect(),
    );
    Ok((frozen.len(), out.stats))
}

/// [`odc_summarizability::advisor::audit_run`] through a
/// [`VerdictRepo`]: every sub-query of all four stages (satisfiability
/// sweep, constraint redundancy, structure census, safe rewrites) is
/// keyed, cached, and footprinted individually, so a re-audit after a
/// schema edit re-solves only the sub-queries the edit could have
/// changed. Findings appear in the same order as the plain audit and
/// the rendered report is byte-identical.
pub fn audit_with_repo(
    ds: &DimensionSchema,
    repo: &VerdictRepo,
    gov: &mut Governor,
) -> SchemaReport {
    let g = ds.hierarchy();
    let solver = Dimsat::new(ds);
    let mut report = SchemaReport::default();

    // Stage 1: satisfiability sweep, one record per category.
    let cats: Vec<Category> = g.categories().filter(|c| !c.is_all()).collect();
    for (i, &c) in cats.iter().enumerate() {
        let key = sub_key(ds, "sat", g.name(c));
        if let Some(hit) = repo.get(&key) {
            match hit.value.as_str() {
                "unsat" => report.unsatisfiable.push(c),
                "aborted" => report
                    .aborted_categories
                    .push((c, InterruptReason::FanoutOverflow)),
                _ => {}
            }
            continue;
        }
        let out = solver.category_satisfiable_governed(c, gov);
        report.stats.absorb(&out.stats);
        let footprint: Vec<String> = region(g, c).into_iter().collect();
        match out.verdict {
            Verdict::Sat(_) => put(repo, key, "sat", String::new(), footprint),
            Verdict::Unsat => {
                report.unsatisfiable.push(c);
                put(repo, key, "unsat", String::new(), footprint);
            }
            Verdict::Unknown(intr)
                if intr.reason == InterruptReason::FanoutOverflow && gov.interrupt().is_none() =>
            {
                // Structural: permanent for this region, so cacheable.
                report.aborted_categories.push((c, intr.reason));
                put(repo, key, "aborted", String::new(), footprint);
            }
            Verdict::Unknown(intr) => {
                report.interrupted = Some(intr);
                report.undecided_categories = cats[i..].to_vec();
                return report;
            }
        }
    }

    // Stage 2: a constraint σ is redundant iff (G, Σ \ {σ}) ⊨ σ.
    for (i, dc) in ds.constraints().iter().enumerate() {
        let key = sub_key(
            ds,
            "redundant",
            &format!("{}", printer::display_dc(g, dc)),
        );
        if let Some(hit) = repo.get(&key) {
            if hit.value == "yes" {
                report.redundant_constraints.push(i);
            }
            continue;
        }
        let mut rest: Vec<DimensionConstraint> = ds.constraints().to_vec();
        rest.remove(i);
        let reduced = DimensionSchema::new(ds.hierarchy_arc(), rest);
        let out = implication::implies_governed(&reduced, dc, DimsatOptions::default(), gov);
        report.stats.absorb(&out.stats);
        if let Some(intr) = out.interrupt() {
            report.interrupted = Some(intr);
            return report;
        }
        let footprint: Vec<String> = region(g, dc.root()).into_iter().collect();
        if out.implied() {
            report.redundant_constraints.push(i);
            put(repo, key, "yes", String::new(), footprint);
        } else {
            put(repo, key, "no", String::new(), footprint);
        }
    }

    // Stage 3: structure census over the bottom categories.
    let bottoms: Vec<Category> = g
        .bottom_categories()
        .into_iter()
        .filter(|c| !c.is_all())
        .collect();
    for &c in &bottoms {
        match census_with_repo(ds, &solver, repo, c, gov) {
            Ok((n, stats)) => {
                report.stats.absorb(&stats);
                report.structure_census.push((c, n));
            }
            Err(intr) => {
                report.interrupted = Some(intr);
                return report;
            }
        }
    }

    // Stage 4: safe single-view rewrites.
    for &(coarse, fine) in &rewrite_pairs(g) {
        let out = rewrite_with_repo(ds, repo, coarse, fine, gov);
        report.stats.absorb(&out.stats);
        if let Some(intr) = out.interrupt() {
            report.interrupted = Some(intr);
            return report;
        }
        if out.summarizable() {
            report.safe_rewrites.push((coarse, fine));
        }
    }
    report
}

/// Answers a full audit *from the store alone*: every sub-query of all
/// four stages must be a decided hit, or the probe reports `None`.
/// Unlike running [`audit_with_repo`] under a zero-node budget — the
/// old warm-probe trick — this never solves, never emits solve events,
/// accumulates no partial [`SearchStats`](odc_dimsat::SearchStats), and
/// (the actual bug) never overwrites a previous run's deep pending
/// cursors with useless zero-progress checkpoints. A warm report's
/// event stream and counters therefore have exactly a fully-cached
/// audit's shape: silent and all-zero.
pub fn warm_audit_from_repo(ds: &DimensionSchema, repo: &VerdictRepo) -> Option<SchemaReport> {
    let g = ds.hierarchy();
    let mut report = SchemaReport::default();
    for c in g.categories().filter(|c| !c.is_all()) {
        let hit = repo.get(&sub_key(ds, "sat", g.name(c)))?;
        match hit.value.as_str() {
            "unsat" => report.unsatisfiable.push(c),
            "aborted" => report
                .aborted_categories
                .push((c, InterruptReason::FanoutOverflow)),
            _ => {}
        }
    }
    for (i, dc) in ds.constraints().iter().enumerate() {
        let key = sub_key(ds, "redundant", &format!("{}", printer::display_dc(g, dc)));
        if repo.get(&key)?.value == "yes" {
            report.redundant_constraints.push(i);
        }
    }
    for c in g.bottom_categories().into_iter().filter(|c| !c.is_all()) {
        let n = repo.get(&sub_key(ds, "census", g.name(c)))?.value.parse::<usize>().ok()?;
        report.structure_census.push((c, n));
    }
    for (coarse, fine) in rewrite_pairs(g) {
        let key = sub_key(
            ds,
            "rewrite",
            &format!("{}<-{}", g.name(coarse), g.name(fine)),
        );
        if repo.get(&key)?.value == "yes" {
            report.safe_rewrites.push((coarse, fine));
        }
    }
    Some(report)
}

/// Seeds a planner scratchpad from the store's satisfiability verdicts,
/// so a planned audit over a partially-warm repository skips every
/// category sweep solve the store already proves. Only decided
/// `sat`/`unsat` records seed facts; structural aborts stay unseeded
/// (the planner re-derives them, preserving abort parity).
pub fn warm_facts(ds: &DimensionSchema, repo: &VerdictRepo) -> SharedFacts {
    let g = ds.hierarchy();
    let facts = SharedFacts::new(g.num_categories());
    for c in g.categories().filter(|c| !c.is_all()) {
        if let Some(hit) = repo.get(&sub_key(ds, "sat", g.name(c))) {
            match hit.value.as_str() {
                "sat" => facts.note_sat(c),
                "unsat" => facts.note_unsat(c),
                _ => {}
            }
        }
    }
    facts
}

/// Write-through for a completed audit produced *outside* the
/// repository drivers — the parallel audit path. Every conclusion the
/// report states is stored under the same keys [`audit_with_repo`]
/// uses, so a later run (serial or parallel) answers warm from disk.
/// Negative rewrite cells get the conservative positive footprint (the
/// report does not record which bottom witnessed them); an interrupted
/// report stores nothing, since its stage ordering is unknown.
pub fn store_report(ds: &DimensionSchema, repo: &VerdictRepo, report: &SchemaReport) {
    if report.interrupted.is_some() {
        return;
    }
    let g = ds.hierarchy();
    for c in g.categories().filter(|c| !c.is_all()) {
        let key = sub_key(ds, "sat", g.name(c));
        if repo.get(&key).is_some() {
            continue;
        }
        let value = if report.unsatisfiable.contains(&c) {
            "unsat"
        } else if report.aborted_categories.iter().any(|(a, _)| *a == c) {
            "aborted"
        } else {
            "sat"
        };
        put(repo, key, value, String::new(), region(g, c).into_iter().collect());
    }
    for (i, dc) in ds.constraints().iter().enumerate() {
        let key = sub_key(ds, "redundant", &format!("{}", printer::display_dc(g, dc)));
        if repo.get(&key).is_some() {
            continue;
        }
        let value = if report.redundant_constraints.contains(&i) {
            "yes"
        } else {
            "no"
        };
        put(
            repo,
            key,
            value,
            String::new(),
            region(g, dc.root()).into_iter().collect(),
        );
    }
    for &(c, n) in &report.structure_census {
        let key = sub_key(ds, "census", g.name(c));
        if repo.get(&key).is_some() {
            continue;
        }
        put(
            repo,
            key,
            &n.to_string(),
            String::new(),
            region(g, c).into_iter().collect(),
        );
    }
    for &(coarse, fine) in &rewrite_pairs(g) {
        let key = sub_key(
            ds,
            "rewrite",
            &format!("{}<-{}", g.name(coarse), g.name(fine)),
        );
        if repo.get(&key).is_some() {
            continue;
        }
        let safe = report.safe_rewrites.contains(&(coarse, fine));
        let fp = summarizable_footprint(g, coarse, None);
        put(
            repo,
            key,
            if safe { "yes" } else { "no" },
            String::new(),
            fp.into_iter().collect(),
        );
    }
}

/// One rewrite-matrix cell through the repository (kind `rewrite`,
/// query `coarse<-fine`).
pub fn rewrite_with_repo(
    ds: &DimensionSchema,
    repo: &VerdictRepo,
    coarse: Category,
    fine: Category,
    gov: &mut Governor,
) -> SummarizabilityOutcome {
    let g = ds.hierarchy();
    let key = sub_key(
        ds,
        "rewrite",
        &format!("{}<-{}", g.name(coarse), g.name(fine)),
    );
    if let Some(hit) = repo.get(&key) {
        let verdict = if hit.value == "yes" {
            SummarizabilityVerdict::Summarizable
        } else {
            SummarizabilityVerdict::NotSummarizable
        };
        return SummarizabilityOutcome {
            verdict,
            failing_bottom: hit
                .payload
                .lines()
                .find_map(|l| l.strip_prefix("failing-bottom "))
                .and_then(|n| g.category_by_name(n)),
            counterexample: None,
            stats: Default::default(),
            checkpoint: None,
        };
    }
    let mut pending = repo
        .pending(&key)
        .and_then(|text| load_battery_checkpoint(ds, &text).ok());
    let out = loop {
        let run = Run::new(&mut *gov).resume(pending.as_ref());
        match is_summarizable_in_schema_run(ds, coarse, &[fine], DimsatOptions::default(), run) {
            Ok(out) => break out,
            // A pending cursor that no longer fits: solve afresh.
            Err(_) => pending = None,
        }
    };
    match &out.verdict {
        SummarizabilityVerdict::Summarizable => {
            let fp = summarizable_footprint(g, coarse, None);
            put(repo, key, "yes", String::new(), fp.into_iter().collect());
        }
        SummarizabilityVerdict::NotSummarizable => {
            let fp = summarizable_footprint(g, coarse, out.failing_bottom);
            let payload = out
                .failing_bottom
                .map(|b| format!("failing-bottom {}\n", g.name(b)))
                .unwrap_or_default();
            put(repo, key, "no", payload, fp.into_iter().collect());
        }
        SummarizabilityVerdict::Unknown(_) => {
            if let Some(cp) = &out.checkpoint {
                let _ = repo.put_pending(key, cp.to_text());
            }
        }
    }
    out
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
    fn rewrite_driver_round_trips() {
        let ds = sample_schema();
        let g = ds.hierarchy();
        let country = g.category_by_name("Country").unwrap();
        let city = g.category_by_name("City").unwrap();
        let d = tmp_repo("rewrite");
        let repo = VerdictRepo::open(&d, Obs::none(), None).unwrap();
        let mut gov = Governor::unlimited();
        let cold = rewrite_with_repo(&ds, &repo, country, city, &mut gov);
        let mut gov = Governor::unlimited();
        let warm = rewrite_with_repo(&ds, &repo, country, city, &mut gov);
        assert_eq!(cold.verdict, warm.verdict);
        assert_eq!(cold.failing_bottom, warm.failing_bottom);
        assert_eq!(warm.stats.expand_calls, 0);
        let _ = std::fs::remove_dir_all(&d);
    }
}
