//! E23: the columnar data-plane experiments behind `BENCH_store.json`.
//!
//! A million-fact stream over the paper's `locationSch` schema (Figure
//! 3) is ingested into an [`odc_store::FactStore`] batch by batch, then
//! the store answers a navigation workload three ways:
//!
//! 1. **ingest** — members (parents-first) and fact rows stream through
//!    the text format in fixed-size batches; every batch commits under
//!    incremental C1–C7 delta validation.
//! 2. **incremental vs full** — at full scale, one more batch is
//!    validated both ways: `check_batch` (the delta check the ingest
//!    path runs) against `revalidate` (the whole-world re-validation it
//!    replaces). The delta path must be ≥ 10× faster.
//! 3. **navigation** — a drill sequence (City, SaleRegion, Province,
//!    State, Country) answered by constraint-aware rollup (materialized
//!    cuboids + `choose_source` gated on measured summarizability +
//!    `roll_up`) against the two literature baselines: null padding
//!    (LMW96-style; every step rescans the padded base facts) and DNF
//!    flattening (SSDBM 1998; rescans the flattened facts, and *cannot
//!    answer* steps whose category the transformation dropped). Every
//!    answer every strategy produces is checked cell-for-cell against a
//!    direct materialization from the raw facts (null cells excluded —
//!    padding invents them, the raw facts don't have them).
//!
//! Run with: `cargo run --release -p odc-bench --bin exp_store`
//! (`--smoke` or `ODC_BENCH_QUICK=1` for a small stream that skips the
//! thresholds and leaves `results/` untouched).

use odc_core::olap::baselines::{dnf_flatten, null_pad};
use odc_core::olap::{choose_source, cuboid, roll_up, AggFn, Cuboid, MultiFactTable};
use odc_core::prelude::*;
use odc_rand::rngs::StdRng;
use odc_rand::SeedableRng;
use odc_store::FactStore;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Serializes an instance into ingest member lines, parents before
/// children (a member's parents have strictly fewer ancestors).
fn member_lines(d: &DimensionInstance) -> Vec<String> {
    use odc_core::instance::text::quote;
    let g = d.schema();
    let mut members: Vec<Member> = d.members().filter(|&m| m != Member::ALL).collect();
    members.sort_by_key(|&m| d.ancestors(m).len());
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

/// A cuboid's cells with member ids resolved to keys — the
/// representation-independent form the parity audit compares.
fn resolved_cells(c: &Cuboid, d: &DimensionInstance, drop_nulls: bool) -> BTreeMap<Vec<String>, i64> {
    c.cells
        .iter()
        .filter_map(|(coords, &v)| {
            let keys: Vec<String> = coords.iter().map(|&m| d.key(m).to_string()).collect();
            if drop_nulls && keys.iter().any(|k| k.starts_with('⊥')) {
                None
            } else {
                Some((keys, v))
            }
        })
        .collect()
}

/// Rebuilds the store's fact rows over a transformed instance (null
/// padding and DNF keep the original base-member keys).
fn retable(rows: &[(String, i64)], d: &Arc<DimensionInstance>) -> MultiFactTable {
    let mut t = MultiFactTable::new(vec![d.clone()]);
    for (key, v) in rows {
        let m = d
            .member_by_key(key)
            .expect("transformed instance keeps base member keys");
        t.push(vec![m], *v);
    }
    t
}

fn main() {
    let smoke =
        std::env::args().any(|a| a == "--smoke") || std::env::var_os("ODC_BENCH_QUICK").is_some();
    // Full scale is a million facts over ~90k members. The base-member
    // count balances two pressures: full re-validation cost grows with
    // the member count (too few members and the delta-vs-full gap
    // collapses into fixed costs), while the null-padding *baseline*'s
    // transform is superquadratic in members (at 50k bases it runs for
    // over half an hour before answering anything).
    let (n_base, n_facts, batch_rows) = if smoke {
        (2_000usize, 50_000usize, 8_192usize)
    } else {
        (25_000, 1_000_000, 65_536)
    };
    println!("E23 — columnar data plane: {n_base} base members, {n_facts} facts, batches of {batch_rows}");

    let ds = odc_workload::location_sch();
    let store_cat = ds
        .hierarchy()
        .category_by_name("Store")
        .expect("locationSch has Store");
    let mut rng = StdRng::seed_from_u64(23);
    let d = odc_workload::random_instance(&ds, store_cat, n_base, 0.6, &mut rng)
        .expect("locationSch bottom is satisfiable");

    // ── phase 1: streamed ingest under incremental validation ────────
    use odc_core::instance::text::quote;
    let mut lines = member_lines(&d);
    let n_members = lines.len();
    for (m, v) in odc_workload::facts::random_fact_rows(&d, n_facts, &mut rng) {
        lines.push(format!("{} -> {v}", quote(d.key(m))));
    }

    let mut store = FactStore::new(vec![ds.clone()]);
    let mut batch_micros: Vec<u64> = Vec::new();
    let t0 = Instant::now();
    for (i, chunk) in lines.chunks(batch_rows).enumerate() {
        let text = chunk.join("\n");
        let batch = odc_store::parse_batch(&text, i * batch_rows + 1)
            .expect("generated stream parses");
        let tb = Instant::now();
        store
            .ingest_batch(&batch)
            .expect("generated stream is C1–C7 clean");
        batch_micros.push(tb.elapsed().as_micros() as u64);
    }
    let ingest_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let rows_per_sec = (lines.len() as f64 / (ingest_ms / 1000.0)) as u64;
    assert_eq!(store.num_facts(), n_facts, "every fact row committed");
    println!(
        "  ingest                {ingest_ms:9.2} ms ({} batches, {n_members} members, {n_facts} facts, {rows_per_sec} rows/s)",
        batch_micros.len()
    );

    // ── phase 2: delta check vs whole-world re-validation at scale ───
    let extra_lines: Vec<String> = odc_workload::facts::random_fact_rows(&d, batch_rows, &mut rng)
        .into_iter()
        .map(|(m, v)| format!("{} -> {v}", quote(d.key(m))))
        .collect();
    let extra_text = extra_lines.join("\n");
    let extra = odc_store::parse_batch(&extra_text, lines.len() + 1)
        .expect("extra batch parses");
    let t_inc = Instant::now();
    let inc_errors = store.check_batch(&extra);
    let inc_check_micros = t_inc.elapsed().as_micros() as u64;
    assert!(inc_errors.is_empty(), "extra batch is clean");
    let t_full = Instant::now();
    let full_errors = store.revalidate();
    let full_revalidate_micros = t_full.elapsed().as_micros() as u64;
    assert!(full_errors.is_empty(), "committed store re-validates clean");
    let validation_speedup = full_revalidate_micros as f64 / inc_check_micros.max(1) as f64;
    println!(
        "  delta check           {:9.2} ms for {batch_rows} rows at {n_facts} facts",
        inc_check_micros as f64 / 1000.0
    );
    println!(
        "  full re-validation    {:9.2} ms (delta is {validation_speedup:.1}x faster)",
        full_revalidate_micros as f64 / 1000.0
    );

    // ── phase 3: the navigation workload ─────────────────────────────
    let g = ds.hierarchy();
    let workload: Vec<Category> = ["City", "SaleRegion", "Province", "State", "Country"]
        .iter()
        .map(|n| g.category_by_name(n).expect("locationSch category"))
        .collect();
    let agg = AggFn::Sum;
    let d0 = Arc::new(store.instance(0));
    let base_rows: Vec<(String, i64)> = {
        let mft = store.to_multi_fact_table();
        mft.rows()
            .iter()
            .map(|(coords, v)| (d0.key(coords[0]).to_string(), *v))
            .collect()
    };

    // Constraint-aware: one base materialization, then every step rolls
    // up from the smallest *safe* cuboid in the pool, where safe means
    // the store's measured per-bottom verdict — never a rescan unless
    // no safe source exists.
    let t_ca = Instant::now();
    let table0 = RollupTable::new(&d0);
    let mut pool: Vec<Cuboid> = vec![store.materialize(&[store_cat], agg)];
    let mut ca_answers: Vec<BTreeMap<Vec<String>, i64>> = Vec::new();
    let mut rollup_hits = 0usize;
    for &level in &workload {
        let source = choose_source(&pool, &[level], |k, from, to| {
            debug_assert_eq!(k, 0);
            store.summarizability_verdict(0, from, to)
        })
        .cloned();
        let answer = match source {
            Some(src) => {
                rollup_hits += 1;
                roll_up(&src, std::slice::from_ref(&table0), &[level])
            }
            None => store.materialize(&[level], agg),
        };
        ca_answers.push(resolved_cells(&answer, &d0, false));
        pool.push(answer);
    }
    let ca_ms = t_ca.elapsed().as_secs_f64() * 1000.0;

    // Null padding: transform once, then every step rescans the padded
    // base facts. Null cells are the padding's own invention — they are
    // dropped before parity, exactly the "null members may cause
    // problems in the analysis" caveat the paper quotes.
    let t_np = Instant::now();
    let np = null_pad(&d0).expect("locationSch is acyclic");
    let np_transform_ms = t_np.elapsed().as_secs_f64() * 1000.0;
    let np_d = Arc::new(np.instance);
    let np_facts = retable(&base_rows, &np_d);
    let np_table = RollupTable::new(&np_d);
    let mut np_answers: Vec<BTreeMap<Vec<String>, i64>> = Vec::new();
    for &level in &workload {
        let c = cuboid(&np_facts, std::slice::from_ref(&np_table), &[level], agg);
        np_answers.push(resolved_cells(&c, &np_d, true));
    }
    let np_ms = t_np.elapsed().as_secs_f64() * 1000.0;

    // DNF flattening: transform once, rescan per step — but steps whose
    // category the flattening dropped are simply unanswerable (the
    // granularity is gone from the hierarchy).
    let t_dnf = Instant::now();
    let dnf = dnf_flatten(&d0);
    let dnf_transform_ms = t_dnf.elapsed().as_secs_f64() * 1000.0;
    let dnf_d = Arc::new(dnf.instance.clone());
    let dnf_g = dnf_d.schema();
    let dnf_facts = retable(&base_rows, &dnf_d);
    let dnf_table = RollupTable::new(&dnf_d);
    let mut dnf_answers: Vec<Option<BTreeMap<Vec<String>, i64>>> = Vec::new();
    for &level in &workload {
        let name = g.name(level);
        let answer = dnf_g.category_by_name(name).map(|flat_level| {
            let c = cuboid(&dnf_facts, std::slice::from_ref(&dnf_table), &[flat_level], agg);
            resolved_cells(&c, &dnf_d, false)
        });
        dnf_answers.push(answer);
    }
    let dnf_ms = t_dnf.elapsed().as_secs_f64() * 1000.0;
    let dnf_answered = dnf_answers.iter().flatten().count();

    // ── parity: constraint-aware and DNF answers must be
    // byte-identical to a direct materialization from the raw facts.
    // Null padding is audited but not required to match: its *adoption*
    // rule (a member inheriting a real ancestor its descendants
    // already use — the Texas/USRegion situation) re-routes bases that
    // the raw facts leave out of the level entirely, so divergence on
    // real cells is the transformation's measurable distortion, not a
    // bug in this harness.
    let mut parity_matched = 0usize;
    let mut parity_total = 0usize;
    let mut nullpad_divergent_cells = 0usize;
    for (i, &level) in workload.iter().enumerate() {
        let direct = resolved_cells(&store.materialize(&[level], agg), &d0, false);
        parity_total += 1;
        parity_matched += (ca_answers[i] == direct) as usize;
        if let Some(df) = &dnf_answers[i] {
            parity_total += 1;
            parity_matched += (df == &direct) as usize;
        }
        let np_cells = &np_answers[i];
        nullpad_divergent_cells += np_cells
            .iter()
            .filter(|(k, v)| direct.get(*k) != Some(v))
            .count()
            + direct.keys().filter(|k| !np_cells.contains_key(*k)).count();
    }

    println!(
        "  navigation ({} steps) constraint-aware {ca_ms:9.2} ms ({rollup_hits} rollup hits)",
        workload.len()
    );
    println!(
        "                        null padding     {np_ms:9.2} ms (transform {np_transform_ms:.2} ms, {} nulls, valid={}, {nullpad_divergent_cells} divergent cells)",
        np.nulls_added, np.valid
    );
    println!(
        "                        DNF flattening   {dnf_ms:9.2} ms (transform {dnf_transform_ms:.2} ms, answered {dnf_answered}/{}, dropped: {})",
        workload.len(),
        dnf.dropped.join(", ")
    );
    println!("  answer parity         {parity_matched}/{parity_total}");

    let mid = batch_micros.len() / 2;
    let mut sorted = batch_micros.clone();
    sorted.sort_unstable();
    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"experiment\": \"E23 columnar data plane\",");
    let _ = writeln!(json, "  \"base_members\": {n_base},");
    let _ = writeln!(json, "  \"members\": {n_members},");
    let _ = writeln!(json, "  \"facts\": {n_facts},");
    let _ = writeln!(json, "  \"batch_rows\": {batch_rows},");
    let _ = writeln!(json, "  \"batches\": {},", batch_micros.len());
    let _ = writeln!(json, "  \"ingest_ms\": {ingest_ms:.3},");
    let _ = writeln!(json, "  \"rows_per_sec\": {rows_per_sec},");
    let _ = writeln!(json, "  \"batch_micros_median\": {},", sorted[mid]);
    let _ = writeln!(
        json,
        "  \"batch_micros_max\": {},",
        sorted.last().copied().unwrap_or(0)
    );
    let _ = writeln!(json, "  \"delta_check_micros\": {inc_check_micros},");
    let _ = writeln!(json, "  \"full_revalidate_micros\": {full_revalidate_micros},");
    let _ = writeln!(json, "  \"validation_speedup\": {validation_speedup:.2},");
    let _ = writeln!(json, "  \"nav_steps\": {},", workload.len());
    let _ = writeln!(json, "  \"nav_rollup_hits\": {rollup_hits},");
    let _ = writeln!(json, "  \"nav_constraint_aware_ms\": {ca_ms:.3},");
    let _ = writeln!(json, "  \"nav_nullpad_ms\": {np_ms:.3},");
    let _ = writeln!(json, "  \"nav_nullpad_transform_ms\": {np_transform_ms:.3},");
    let _ = writeln!(json, "  \"nav_nullpad_nulls_added\": {},", np.nulls_added);
    let _ = writeln!(json, "  \"nav_nullpad_valid\": {},", np.valid);
    let _ = writeln!(json, "  \"nav_nullpad_divergent_cells\": {nullpad_divergent_cells},");
    let _ = writeln!(json, "  \"nav_dnf_ms\": {dnf_ms:.3},");
    let _ = writeln!(json, "  \"nav_dnf_transform_ms\": {dnf_transform_ms:.3},");
    let _ = writeln!(json, "  \"nav_dnf_answered\": {dnf_answered},");
    let _ = writeln!(json, "  \"parity_matched\": {parity_matched},");
    let _ = writeln!(json, "  \"parity_total\": {parity_total}");
    json.push_str("}\n");

    if smoke {
        // The small stream can't honour the timing bars (fixed costs
        // dominate); parity must still hold.
        assert_eq!(parity_matched, parity_total, "parity failed in smoke run");
        println!("\nsmoke run: results/BENCH_store.json left untouched");
        return;
    }

    let mut failures = Vec::new();
    if parity_matched != parity_total {
        failures.push(format!("parity {parity_matched}/{parity_total}"));
    }
    if validation_speedup < 10.0 {
        failures.push(format!(
            "delta validation only {validation_speedup:.1}x faster than full (< 10x)"
        ));
    }
    if ca_ms >= np_ms {
        failures.push(format!(
            "constraint-aware {ca_ms:.1} ms not faster than null padding {np_ms:.1} ms"
        ));
    }
    if ca_ms >= dnf_ms {
        failures.push(format!(
            "constraint-aware {ca_ms:.1} ms not faster than DNF {dnf_ms:.1} ms"
        ));
    }
    if rollup_hits == 0 {
        failures.push("no navigation step was answered by rollup".to_string());
    }

    let results = format!("{}/../../results", env!("CARGO_MANIFEST_DIR"));
    let _ = std::fs::create_dir_all(&results);
    let path = format!("{results}/BENCH_store.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("\nwrote {path}"),
        Err(e) => println!("\ncould not write {path}: {e}"),
    }
    if !failures.is_empty() {
        eprintln!("E23 FAILED: {}", failures.join("; "));
        std::process::exit(1);
    }
}
