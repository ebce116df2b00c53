//! The repository's benchmark: served requests, schema audits, and fact
//! ingest with navigation, measured end to end and per layer.
//!
//! ```text
//! perfbench --workload <serve-mixed|audit|ingest-nav> --seed <n>
//!           --seconds <s> --trace <0|1> --odc <path to the odc CLI>
//! ```
//!
//! Every run measures all three workloads, the named one first, because
//! every run reports every end-to-end metric. `--trace 0` reports the
//! end-to-end metrics; `--trace 1` runs the same measurement twice, once
//! untraced and once with spans around each call into a layer, and
//! reports the per-layer metrics plus the tracing overhead (traced minus
//! untraced end-to-end figures). Every figure is printed one per line;
//! the last line of standard output is one JSON object: `correct`,
//! `attempted`, `failed`, `metrics`. `perfbench/manifest.json` maps each
//! per-layer metric to the end-to-end metric and workload it should move.

mod audit;
mod ingest;
mod serve;
mod stats;
mod trace;

use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;
use trace::Tracer;

/// The workloads in their canonical order.
const WORKLOADS: [&str; 3] = ["serve-mixed", "audit", "ingest-nav"];

/// One named metric value with its unit.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Median over the workload's repeated set-ups, in seconds.
    pub setup_s: f64,
    pub e2e: Vec<Metric>,
    /// Filled only when tracing.
    pub layer: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Outcome {
    /// Counts one checked operation, recording `what` when it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failures.len() < 20 {
                self.failures.push(what());
            }
        }
    }
}

/// Run-wide inputs every workload reads.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    /// Scratch space inside the working directory, removed at exit.
    pub scratch: PathBuf,
    /// The one-shot `odc` CLI, which fixes the serve workload's
    /// expected answers at set-up.
    pub odc: PathBuf,
}

impl Ctx {
    /// A fresh, empty scratch subdirectory.
    pub fn dir(&self, tag: &str) -> PathBuf {
        let d = self.scratch.join(tag);
        let _ = std::fs::remove_dir_all(&d);
        d
    }
}

/// A run's samples of one figure, for the diagnostic lines on stderr.
pub fn samples(v: &[f64]) -> String {
    v.iter()
        .map(|x| format!("{x:.1}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Times `f` in seconds.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let t0 = Instant::now();
    let r = f();
    (t0.elapsed().as_secs_f64(), r)
}

/// End-to-end figures every run prints but the JSON line reports only
/// with the per-layer metrics of a traced run, from its untraced pass.
/// On the 2-vCPU VM the benchmark was written on, their IQR/median over
/// ten runs went above 0.25, the largest bound a gated metric may have:
/// closed-loop throughput split between runs near 30k and near 50k
/// req/s, the served p99 swung with neighbours' load, and the
/// repository fill and edit, one fsync per verdict, split between runs
/// near 155 and near 235 ms as the shared disk's latency changed.
const UNGATED: [&str; 4] = [
    "serve_rps",
    "serve_p99_us",
    "audit_fill_ms",
    "audit_edit_ms",
];

/// Set-ups per workload and run; the reported set-up time is their
/// median.
const SETUPS: usize = 3;
/// Fewest and most measurement rounds per run.
const MIN_ROUNDS: usize = 6;
const MAX_ROUNDS: usize = 40;

/// A workload measured in rounds. Each round takes one slice of every
/// measurement; the run interleaves the workloads' rounds, so a
/// disturbance of a few seconds lands in a few slices of each metric
/// rather than in the whole of one, and the reported medians ride over
/// it.
pub trait Workload {
    fn round(&mut self, ctx: &Ctx, t: &Tracer, o: &mut Outcome) -> Result<(), String>;
    /// Whether enough samples are in for every percentile reported.
    fn enough(&self) -> bool;
    /// Runs the checks that need the whole run and reports the metrics.
    fn finish(self: Box<Self>, ctx: &Ctx, t: &Tracer, o: &mut Outcome) -> Result<(), String>;
}

/// A workload's set-up: builds its inputs and warm state.
type SetUp = fn(&Ctx, &mut Outcome) -> Result<Box<dyn Workload>, String>;

/// Sets up [`SETUPS`] times, dropping each instance before building the
/// next, and records the median set-up time.
fn set_up(ctx: &Ctx, o: &mut Outcome, f: SetUp) -> Result<Box<dyn Workload>, String> {
    let mut times = Vec::new();
    let mut last = None;
    for _ in 0..SETUPS {
        drop(last.take());
        let (secs, w) = timed(|| f(ctx, o));
        times.push(secs);
        last = Some(w?);
    }
    o.setup_s = stats::median(&times);
    last.ok_or_else(|| "no set-up".to_string())
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    odc: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut odc = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            "--odc" => odc = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}` ({})",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(20.0);
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".to_string());
    }
    let odc = odc.ok_or("--odc is required")?;
    if !odc.is_file() {
        return Err(format!("no odc CLI at {}", odc.display()));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.unwrap_or(false),
        odc,
    })
}

/// Runs every workload under one tracer: set-ups first, the named
/// workload first, then interleaved rounds until the time budget is
/// spent and every workload has the samples it needs.
fn measure(ctx: &Ctx, first: &str, t: &Tracer) -> Result<Vec<(&'static str, Outcome)>, String> {
    let mut order: Vec<&'static str> = WORKLOADS.to_vec();
    order.sort_by_key(|w| *w != first);
    let mut live: Vec<(&'static str, Box<dyn Workload>, Outcome)> = Vec::new();
    for w in order {
        let mut o = Outcome::default();
        let f: SetUp = match w {
            "serve-mixed" => serve::setup,
            "audit" => audit::setup,
            _ => ingest::setup,
        };
        let wl = set_up(ctx, &mut o, f)?;
        live.push((w, wl, o));
    }
    let t0 = Instant::now();
    let mut rounds = 0;
    while rounds < MAX_ROUNDS
        && (rounds < MIN_ROUNDS
            || t0.elapsed().as_secs_f64() < ctx.seconds
            || !live.iter().all(|(_, w, _)| w.enough()))
    {
        for (_, w, o) in live.iter_mut() {
            w.round(ctx, t, o)?;
        }
        rounds += 1;
    }
    eprintln!("{rounds} rounds in {:.1}s", t0.elapsed().as_secs_f64());
    let mut out = Vec::new();
    for (name, w, mut o) in live {
        w.finish(ctx, t, &mut o)?;
        println!(
            "workload {name}: attempted {} failed {} setup {:.3}s",
            o.attempted, o.failed, o.setup_s
        );
        for f in &o.failures {
            eprintln!("  FAILED: {f}");
        }
        out.push((name, o));
    }
    Ok(out)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// End-to-end figures across workloads: each workload's own metrics,
/// plus the summed set-up time.
fn end_to_end(outcomes: &[(&str, Outcome)]) -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();
    let mut setup = 0.0;
    for (_, o) in outcomes {
        setup += o.setup_s;
        for x in &o.e2e {
            m.push(metric(x.name.clone(), x.value, x.unit));
        }
    }
    m.push(metric("setup_s", setup, "s"));
    m
}

fn json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.iter().enumerate() {
        let _ = write!(
            s,
            "{}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            if i > 0 { ", " } else { "" },
            m.name,
            m.value,
            m.unit
        );
    }
    s.push_str("}}");
    s
}

fn run(args: &Args) -> Result<String, String> {
    let scratch = Path::new(".perfbench").join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        scratch: scratch.clone(),
        odc: args.odc.clone(),
    };

    let plain = measure(&ctx, &args.workload, &Tracer::new(false));
    let traced = match (&plain, args.trace) {
        (Ok(_), true) => {
            let t = Tracer::new(true);
            let r = measure(&ctx, &args.workload, &t);
            let path = Path::new(".perfbench")
                .join(format!("trace-{}-seed{}.tsv", args.workload, args.seed));
            std::fs::write(&path, t.to_tsv()).map_err(|e| format!("{}: {e}", path.display()))?;
            eprintln!("spans written to {}", path.display());
            Some((r, t))
        }
        _ => None,
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let plain = plain?;

    let mut attempted: u64 = plain.iter().map(|(_, o)| o.attempted).sum();
    let mut failed: u64 = plain.iter().map(|(_, o)| o.failed).sum();
    let mut e2e = end_to_end(&plain);
    e2e.push(metric("rss_peak_mb", rss_peak_mb(), "MB"));
    for m in &e2e {
        println!("{:<24} {:>14.4} {}", m.name, m.value, m.unit);
    }
    let metrics = match traced {
        None => e2e
            .into_iter()
            .filter(|m| !UNGATED.contains(&m.name.as_str()))
            .collect(),
        Some((r, t)) => {
            let r = r?;
            attempted += r.iter().map(|(_, o)| o.attempted).sum::<u64>();
            failed += r.iter().map(|(_, o)| o.failed).sum::<u64>();
            let mut layer: Vec<Metric> = e2e
                .iter()
                .filter(|m| UNGATED.contains(&m.name.as_str()))
                .map(|m| metric(m.name.clone(), m.value, m.unit))
                .collect();
            for (_, o) in &r {
                layer.extend(
                    o.layer
                        .iter()
                        .map(|m| metric(m.name.clone(), m.value, m.unit)),
                );
            }
            for (l, ns) in trace::self_time_by_layer(&t.spans()) {
                layer.push(metric(format!("self_ms.{l}"), ns as f64 / 1e6, "ms"));
            }
            // Tracing overhead: traced minus untraced, per end-to-end
            // figure (set-up time and peak memory excepted: the traced
            // pass shares the untraced pass's process).
            for m in end_to_end(&r) {
                if m.name == "setup_s" {
                    continue;
                }
                if let Some(base) = e2e.iter().find(|b| b.name == m.name) {
                    layer.push(metric(
                        format!("overhead.{}", m.name),
                        m.value - base.value,
                        m.unit,
                    ));
                }
            }
            for m in &layer {
                println!("{:<32} {:>14.4} {}", m.name, m.value, m.unit);
            }
            layer
        }
    };
    if let Some(m) = metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("metric {} was not measured", m.name));
    }
    Ok(json(failed == 0, attempted.max(1), failed, &metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
    const MANIFEST: &str = include_str!("../manifest.json");

    /// The `"name": "…"` values after `section` in BENCHMARK.json.
    fn names_after(section: &str) -> Vec<&'static str> {
        let rest = &BENCHMARK[BENCHMARK.find(section).expect("section present")..];
        rest.split("\"name\": \"")
            .skip(1)
            .map(|s| &s[..s.find('"').expect("closing quote")])
            .collect()
    }

    #[test]
    fn manifest_maps_every_per_layer_metric() {
        let names = names_after("\"per_layer\"");
        assert!(names.len() > 40);
        for n in names {
            assert!(
                MANIFEST.contains(&format!("\"{n}\": {{")),
                "{n} missing from manifest.json"
            );
        }
    }

    #[test]
    fn manifest_records_the_fixed_rate() {
        let rate = format!("\"offered_rps\": {}", crate::serve::OPEN_LOOP_RPS);
        assert!(MANIFEST.contains(&rate), "manifest.json must record {rate}");
    }

    #[test]
    fn json_line_has_the_contract_keys() {
        let line = super::json(true, 3, 0, &[super::metric("setup_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
