//! `serve-mixed`: the seeded 200-request mix (implies / summarizable /
//! frozen / audit over the seven catalog schemas) sent to an in-process
//! event-loop server with one solver shard and a warm catalog.
//!
//! The working set fits the per-schema implication caches, so solving
//! does little and the event loop's queue, dispatch and write dominate.
//! Load comes from one generator thread: closed-loop pipelined slices
//! over [`CONNS`] connections (throughput), and open-loop slices over
//! one connection at the fixed rate [`OPEN_LOOP_RPS`] (latency from each
//! request's scheduled send time, so a stall is charged to every
//! request it delays).

use crate::stats::{self, median, tail_percentile};
use crate::trace::Tracer;
use crate::{metric, samples, Ctx, Outcome, Workload};
use odc_core::constraint::{parse_constraint, printer::display_dc};
use odc_core::dimsat::{implies_memo_session, Dimsat, DimsatOptions, ImplicationVerdict};
use odc_core::summarizability::{
    advisor, is_summarizable_in_schema_session, SummarizabilityVerdict,
};
use odc_core::Governor;
use odc_rand::rngs::StdRng;
use odc_rand::{Rng, SeedableRng};
use odc_serve::{CatalogEntry, Client, Command, Response, SchemaCatalog, ServeConfig, Server};
use std::collections::HashMap;
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Requests in the seeded mix.
const REQUESTS: usize = 200;
/// Solver shards in the server.
const SHARDS: usize = 1;
/// Closed-loop connections: the machine's core count (2) when the
/// benchmark was written, driven from one thread. The open loop uses
/// one connection, so its generator and reader threads keep the client
/// to two threads beside the server's two (event loop and shard).
const CONNS: usize = 2;
/// Requests each connection keeps in flight in the closed loop.
const DEPTH: usize = 64;
/// The open-loop offered rate, requests per second: about half the
/// closed-loop peak measured when the benchmark was written (2 cores,
/// one shard). Fixed, never recomputed per run, so two commits are
/// offered the same load.
pub const OPEN_LOOP_RPS: f64 = 12_000.0;
/// Each round runs [`CLOSED_SLICES`] closed-loop slices and one
/// open-loop slice. Throughput is the median over closed-loop slices;
/// open-loop latency percentiles are taken per window of [`WINDOW`]
/// consecutive requests (so the p99 has ten samples beyond it) and
/// reported as the median over windows. A VM on a shared host stalls
/// for milliseconds at a time; short windows leave most of them clean,
/// so the median window measures the server rather than the stalls,
/// which still show in `serve.gen_late_p99_us`.
const CLOSED_SLICE: Duration = Duration::from_millis(100);
const CLOSED_SLICES: usize = 3;
const OPEN_SLICE: Duration = Duration::from_millis(600);
const WINDOW: usize = 1000;
/// A slice whose backlog (sent, not yet answered) exceeds this when its
/// schedule ends has fallen behind: over 5 ms of arrivals at the
/// offered rate, where a server keeping up holds one or two.
const BACKLOG_LIMIT: u64 = 64;
/// A reply slower than this counts as missing.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
enum Kind {
    Implies,
    Summarizable,
    Frozen,
    Audit,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Implies, Kind::Summarizable, Kind::Frozen, Kind::Audit];

    fn name(self) -> &'static str {
        match self {
            Kind::Implies => "implies",
            Kind::Summarizable => "summarizable",
            Kind::Frozen => "frozen",
            Kind::Audit => "audit",
        }
    }
}

/// One request: the protocol line and its one-shot CLI twin.
struct Req {
    kind: Kind,
    line: String,
    schema: &'static str,
    /// CLI argv; `<schema>` stands for the schema file.
    cli: Vec<String>,
}

/// The seeded mix over the catalog: 40% summarizability queries from
/// each schema's battery, 30% implication of one of its own
/// constraints, 20% frozen enumeration, 10% full audit.
fn build_mix(catalog: &[odc_workload::CatalogEntry], seed: u64) -> Vec<Req> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut out = Vec::with_capacity(REQUESTS);
    let s = |x: &str| x.to_string();
    while out.len() < REQUESTS {
        let e = &catalog[rng.gen_range(0usize..catalog.len())];
        let g = e.schema.hierarchy();
        let req = match rng.gen_range(0u32..10) {
            0..=3 if !e.queries.is_empty() => {
                let (target, sources) = &e.queries[rng.gen_range(0usize..e.queries.len())];
                let mut line = format!("summarizable {} {}", e.name, g.name(*target));
                let mut cli = vec![s("summarizable"), s("<schema>"), s(g.name(*target))];
                for src in sources {
                    line.push(' ');
                    line.push_str(g.name(*src));
                    cli.push(s(g.name(*src)));
                }
                Req {
                    kind: Kind::Summarizable,
                    line,
                    schema: e.name,
                    cli,
                }
            }
            4..=6 if !e.schema.constraints().is_empty() => {
                let cs = e.schema.constraints();
                let text = display_dc(g, &cs[rng.gen_range(0usize..cs.len())]).to_string();
                Req {
                    kind: Kind::Implies,
                    line: format!("implies {} \"{text}\"", e.name),
                    schema: e.name,
                    cli: vec![s("implies"), s("<schema>"), text],
                }
            }
            7..=8 => {
                let cats: Vec<_> = g.categories().filter(|c| !c.is_all()).collect();
                let root = g.name(cats[rng.gen_range(0usize..cats.len())]);
                Req {
                    kind: Kind::Frozen,
                    line: format!("frozen {} {root}", e.name),
                    schema: e.name,
                    cli: vec![s("frozen"), s("<schema>"), s(root)],
                }
            }
            _ => Req {
                kind: Kind::Audit,
                line: format!("audit {}", e.name),
                schema: e.name,
                cli: vec![s("check"), s("<schema>")],
            },
        };
        out.push(req);
    }
    out
}

fn first_line(s: &str) -> &str {
    s.lines().next().unwrap_or("")
}

/// Whether a reply is the expected verdict.
fn answer_ok(resp: &Response, expected: &str) -> bool {
    resp.is_ok() && first_line(&resp.payload) == expected
}

/// A running server with its warm catalog, the expected verdicts, and
/// the per-slice figures so far.
pub struct Serve {
    reqs: Vec<Req>,
    /// Expected verdict line per request, from the one-shot CLI.
    expected: Vec<String>,
    addr: SocketAddr,
    handle: odc_serve::ShutdownHandle,
    join: Option<JoinHandle<std::io::Result<odc_serve::ServeStats>>>,
    schemas: Vec<(&'static str, String)>,
    rps: Vec<f64>,
    p50: Vec<f64>,
    p99: Vec<f64>,
    late_us: Vec<f64>,
    backlog_ends: Vec<u64>,
}

impl Serve {
    fn stop(&mut self) -> Result<(), String> {
        self.handle.drain();
        match self.join.take() {
            None => Ok(()),
            Some(j) => j
                .join()
                .map_err(|_| "server thread panicked".to_string())?
                .map(|_| ())
                .map_err(|e| format!("server: {e}")),
        }
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

pub fn setup(ctx: &Ctx, o: &mut Outcome) -> Result<Box<dyn Workload>, String> {
    let catalog = odc_workload::catalog();
    let schemas: Vec<(&'static str, String)> = catalog
        .iter()
        .map(|e| (e.name, odc_core::schema_to_text(&e.schema)))
        .collect();
    let reqs = build_mix(&catalog, ctx.seed);

    // Expected verdicts: one CLI run per distinct request, against
    // schema files holding the same text the server loads.
    let dir = ctx.dir("serve-schemas");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut files = HashMap::new();
    for (name, text) in &schemas {
        let path = dir.join(format!("{name}.odcs"));
        std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))?;
        files.insert(*name, path);
    }
    let mut cli_answers: HashMap<&str, String> = HashMap::new();
    for r in &reqs {
        if cli_answers.contains_key(r.line.as_str()) {
            continue;
        }
        let args = r.cli.iter().map(|a| {
            if a == "<schema>" {
                files[r.schema].as_os_str().to_owned()
            } else {
                a.into()
            }
        });
        let out = std::process::Command::new(&ctx.odc)
            .args(args)
            .output()
            .map_err(|e| format!("spawn {}: {e}", ctx.odc.display()))?;
        let text = String::from_utf8_lossy(&out.stdout);
        // A failed CLI run leaves an answer no reply can match.
        let answer = if out.status.success() {
            first_line(&text).to_string()
        } else {
            format!("<cli exit {:?}>", out.status.code())
        };
        cli_answers.insert(&r.line, answer);
    }
    let expected: Vec<String> = reqs
        .iter()
        .map(|r| cli_answers[r.line.as_str()].clone())
        .collect();

    let server = Server::bind(ServeConfig {
        workers: SHARDS,
        queue_cap: 64,
        ..ServeConfig::default()
    })
    .map_err(|e| format!("bind: {e}"))?;
    for (name, text) in &schemas {
        server
            .catalog()
            .load_text(name, text)
            .map_err(|e| format!("load {name}: {e}"))?;
    }
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let join = Some(std::thread::spawn(move || server.run()));
    let s = Serve {
        reqs,
        expected,
        addr,
        handle,
        join,
        schemas,
        rps: Vec::new(),
        p50: Vec::new(),
        p99: Vec::new(),
        late_us: Vec::new(),
        backlog_ends: Vec::new(),
    };

    // Warm-up: every request once, answers checked.
    let mut c = Client::connect(s.addr).map_err(|e| format!("connect: {e}"))?;
    for (r, want) in s.reqs.iter().zip(&s.expected) {
        match c.request(&r.line) {
            Ok(resp) => o.check(answer_ok(&resp, want), || {
                format!(
                    "warm-up `{}` answered `{}` / `{}`",
                    r.line,
                    resp.status,
                    first_line(&resp.payload)
                )
            }),
            Err(e) => o.check(false, || format!("warm-up `{}`: {e}", r.line)),
        }
    }
    let _ = c.quit();
    Ok(Box::new(s))
}

fn connect(addr: SocketAddr) -> Result<(TcpStream, BufReader<TcpStream>), String> {
    let w = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    w.set_nodelay(true).map_err(|e| format!("nodelay: {e}"))?;
    w.set_read_timeout(Some(REPLY_TIMEOUT))
        .map_err(|e| format!("timeout: {e}"))?;
    let r = BufReader::new(w.try_clone().map_err(|e| format!("clone: {e}"))?);
    Ok((w, r))
}

/// Closed loop: one thread keeps [`DEPTH`] requests in flight on each of
/// [`CONNS`] connections (write every connection's batch, then read
/// every batch back) until `dur` has passed. Returns requests per second.
fn closed_loop(s: &Serve, dur: Duration, o: &mut Outcome) -> Result<f64, String> {
    let n = s.reqs.len();
    let mut conns = (0..CONNS)
        .map(|_| connect(s.addr))
        .collect::<Result<Vec<_>, _>>()?;
    let mut cursor: Vec<usize> = (0..CONNS).map(|c| c * n / CONNS).collect();
    let mut done = 0u64;
    let t0 = Instant::now();
    while t0.elapsed() < dur {
        let mut batch = String::new();
        for (c, (w, _)) in conns.iter_mut().enumerate() {
            batch.clear();
            for k in 0..DEPTH {
                batch.push_str(&s.reqs[(cursor[c] + k) % n].line);
                batch.push('\n');
            }
            w.write_all(batch.as_bytes())
                .map_err(|e| format!("closed-loop write: {e}"))?;
        }
        for (c, (_, r)) in conns.iter_mut().enumerate() {
            for _ in 0..DEPTH {
                let i = cursor[c] % n;
                cursor[c] += 1;
                match Response::read_from(r) {
                    Ok(Some(resp)) => o.check(answer_ok(&resp, &s.expected[i]), || {
                        format!(
                            "closed loop `{}` answered `{}`",
                            s.reqs[i].line, resp.status
                        )
                    }),
                    other => {
                        o.check(false, || format!("closed loop: no reply ({other:?})"));
                        return Err("closed loop lost its connection".to_string());
                    }
                }
                done += 1;
            }
        }
    }
    Ok(done as f64 / t0.elapsed().as_secs_f64())
}

struct OpenLoop {
    /// Per request, reply time minus scheduled send time (µs); `inf`
    /// for a wrong or missing reply.
    latency_us: Vec<f64>,
    /// Per request, actual minus scheduled send time (µs).
    late_us: Vec<f64>,
    /// Requests sent but not answered when the schedule ended.
    backlog_end: u64,
}

/// Open loop at `rate` requests per second for `dur`: request `i` is
/// due at `start + i / rate`, whatever the replies are doing. The
/// generator thread sends each request when due; one reader thread
/// times each reply against its due time.
fn open_loop(s: &Serve, rate: f64, dur: Duration, o: &mut Outcome) -> Result<OpenLoop, String> {
    let n = s.reqs.len();
    let total = (rate * dur.as_secs_f64()).ceil() as usize;
    let start = Instant::now() + Duration::from_millis(20);
    let due = move |i: usize| start + Duration::from_secs_f64(i as f64 / rate);
    let answered = Arc::new(AtomicU64::new(0));
    let (mut w, mut r) = connect(s.addr)?;
    let reader = {
        let answered = answered.clone();
        let expected = s.expected.clone();
        std::thread::spawn(move || {
            let mut got: Vec<Result<f64, String>> = Vec::with_capacity(total);
            while got.len() < total {
                let Ok(Some(resp)) = Response::read_from(&mut r) else {
                    break;
                };
                let at = Instant::now();
                answered.fetch_add(1, Ordering::Relaxed);
                let i = got.len();
                got.push(if answer_ok(&resp, &expected[i % n]) {
                    Ok(at.saturating_duration_since(due(i)).as_secs_f64() * 1e6)
                } else {
                    Err(resp.status)
                });
            }
            got
        })
    };

    let mut late_us = vec![0.0; total];
    let mut buf = String::new();
    let mut i = 0;
    while i < total {
        let now = Instant::now();
        let first = i;
        while i < total && due(i) <= now {
            buf.push_str(&s.reqs[i % n].line);
            buf.push('\n');
            i += 1;
        }
        if let Err(e) = w.write_all(buf.as_bytes()) {
            // The reader sees the connection close and stops; every
            // request without a reply fails below.
            let _ = w.shutdown(std::net::Shutdown::Both);
            o.check(false, || format!("open-loop send: {e}"));
            break;
        }
        buf.clear();
        let sent = Instant::now();
        for (k, l) in late_us.iter_mut().enumerate().take(i).skip(first) {
            *l = sent.saturating_duration_since(due(k)).as_secs_f64() * 1e6;
        }
        if i < total {
            std::thread::sleep(due(i).saturating_duration_since(Instant::now()));
        }
    }
    let backlog_end = i as u64 - answered.load(Ordering::Relaxed);
    let got = reader
        .join()
        .map_err(|_| "open-loop reader panicked".to_string())?;
    let mut latency_us = vec![f64::INFINITY; total];
    for (k, lat) in latency_us.iter_mut().enumerate() {
        if let Some(Ok(us)) = got.get(k) {
            *lat = *us;
        }
        o.check(lat.is_finite(), || match got.get(k) {
            Some(Err(status)) => format!("open loop `{}` answered `{status}`", s.reqs[k % n].line),
            _ => format!("open loop request {k}: no reply"),
        });
    }
    Ok(OpenLoop {
        latency_us,
        late_us,
        backlog_end,
    })
}

/// Sums `hits`/`cross_hits`/`misses` over the `stats` reply's schema
/// lines.
fn cache_hit_rate(stats: &str) -> f64 {
    let field = |line: &str, key: &str| -> f64 {
        line.split_whitespace()
            .skip_while(|w| *w != key)
            .nth(1)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0)
    };
    let (mut hit, mut miss) = (0.0, 0.0);
    for line in stats.lines().filter(|l| l.starts_with("schema ")) {
        hit += field(line, "hits") + field(line, "cross_hits");
        miss += field(line, "misses");
    }
    hit / (hit + miss).max(1.0)
}

/// Answers one request in process through the library call the
/// server's command path makes, against the entry's warm state.
/// Returns the verdict line.
fn solve_in_process(entry: &CatalogEntry, cmd: &Command) -> Result<String, String> {
    let ds = entry.schema();
    let g = ds.hierarchy();
    let cat = |n: &str| {
        g.category_by_name(n)
            .ok_or_else(|| format!("unknown category `{n}`"))
    };
    let mut gov = Governor::unlimited();
    Ok(match cmd {
        Command::Implies { constraint, .. } => {
            let alpha = parse_constraint(g, constraint).map_err(|e| format!("constraint: {e}"))?;
            let out = implies_memo_session(
                ds,
                &alpha,
                DimsatOptions::default(),
                &mut gov,
                entry.cache().begin_session(),
            );
            match out.verdict {
                ImplicationVerdict::Implied => "implied: true".to_string(),
                ImplicationVerdict::NotImplied => "implied: false".to_string(),
                ImplicationVerdict::Unknown(i) => format!("implied: unknown ({i})"),
            }
        }
        Command::Summarizable {
            target, sources, ..
        } => {
            let s = sources
                .iter()
                .map(|n| cat(n))
                .collect::<Result<Vec<_>, _>>()?;
            let out = is_summarizable_in_schema_session(
                ds,
                cat(target)?,
                &s,
                DimsatOptions::default(),
                &mut gov,
                entry.cache().begin_session(),
            );
            match out.verdict {
                SummarizabilityVerdict::Summarizable => "summarizable: true".to_string(),
                SummarizabilityVerdict::NotSummarizable => "summarizable: false".to_string(),
                SummarizabilityVerdict::Unknown(i) => format!("summarizable: unknown ({i})"),
            }
        }
        Command::Frozen { root, .. } => {
            let (frozen, outcome) = Dimsat::new(ds).enumerate_frozen_governed(cat(root)?, &mut gov);
            format!(
                "{} frozen dimension(s) with root {root} ({} EXPAND, {} CHECK):",
                frozen.len(),
                outcome.stats.expand_calls,
                outcome.stats.check_calls
            )
        }
        Command::Audit { .. } => {
            let report = advisor::audit_planned_memo(
                ds,
                &mut gov,
                entry.cache(),
                entry.plan(),
                entry.facts(),
            );
            std::hint::black_box(advisor::suggest_into_constraints(ds));
            first_line(&report.render(ds)).to_string()
        }
        other => return Err(format!("not a mix request: {}", other.name())),
    })
}

/// Per-layer probes, traced runs only: lone round trips per request
/// kind over a quiet connection, the same requests solved in process
/// against a catalog warmed the same way, and the server's cache
/// counters.
fn probes(s: &Serve, t: &Tracer, o: &mut Outcome) -> Result<(), String> {
    let mut c = Client::connect(s.addr).map_err(|e| format!("connect: {e}"))?;
    for _ in 0..REQUESTS {
        t.span("serve.ping", || c.request("ping"))
            .map_err(|e| format!("ping: {e}"))?;
    }
    for (r, want) in s.reqs.iter().zip(&s.expected) {
        let resp = t.span(&format!("serve.rtt.{}", r.kind.name()), || {
            c.request(&r.line)
        });
        let ok = resp.as_ref().is_ok_and(|resp| answer_ok(resp, want));
        o.check(ok, || format!("lone `{}` answered {resp:?}", r.line));
    }
    let stats = c.request("stats").map_err(|e| format!("stats: {e}"))?;
    let _ = c.quit();

    let catalog = SchemaCatalog::new();
    for (name, text) in &s.schemas {
        catalog
            .load_text(name, text)
            .map_err(|e| format!("load {name}: {e}"))?;
    }
    let cmds = s
        .reqs
        .iter()
        .map(|r| Command::parse(&r.line))
        .collect::<Result<Vec<_>, _>>()?;
    for pass in 0..2 {
        for ((r, cmd), want) in s.reqs.iter().zip(&cmds).zip(&s.expected) {
            let entry = catalog
                .get(r.schema)
                .ok_or_else(|| format!("no schema {}", r.schema))?;
            // Pass 0 warms the caches as the server's warm-up pass did.
            let got = if pass == 0 {
                solve_in_process(&entry, cmd)?
            } else {
                t.span(&format!("serve.solve.{}", r.kind.name()), || {
                    solve_in_process(&entry, cmd)
                })?
            };
            o.check(&got == want, || {
                format!("in-process `{}` gave `{got}`", r.line)
            });
        }
    }

    let med_us = |name: &str| median(&t.durations(name)) / 1e3;
    o.layer
        .push(metric("serve.ping_rtt_us", med_us("serve.ping"), "us"));
    for k in Kind::ALL {
        o.layer.push(metric(
            format!("serve.rtt_us.{}", k.name()),
            med_us(&format!("serve.rtt.{}", k.name())),
            "us",
        ));
        o.layer.push(metric(
            format!("serve.solve_us.{}", k.name()),
            med_us(&format!("serve.solve.{}", k.name())),
            "us",
        ));
    }
    o.layer.push(metric(
        "serve.cache_hit_rate",
        cache_hit_rate(&stats.payload),
        "ratio",
    ));
    Ok(())
}

impl Workload for Serve {
    fn round(&mut self, _: &Ctx, t: &Tracer, o: &mut Outcome) -> Result<(), String> {
        for _ in 0..CLOSED_SLICES {
            let rps = t.span("serve.closed_loop", || closed_loop(self, CLOSED_SLICE, o))?;
            self.rps.push(rps);
        }
        let ol = t.span("serve.open_loop", || {
            open_loop(self, OPEN_LOOP_RPS, OPEN_SLICE, o)
        })?;
        for w in ol.latency_us.chunks_exact(WINDOW) {
            let mut lat = w.to_vec();
            let lat = stats::sorted(&mut lat);
            self.p50
                .push(tail_percentile(lat, 0.5).ok_or("window too small for p50")?);
            self.p99
                .push(tail_percentile(lat, 0.99).ok_or("window too small for p99")?);
        }
        self.late_us.extend(ol.late_us);
        self.backlog_ends.push(ol.backlog_end);
        Ok(())
    }

    fn enough(&self) -> bool {
        true
    }

    fn finish(mut self: Box<Self>, _: &Ctx, t: &Tracer, o: &mut Outcome) -> Result<(), String> {
        eprintln!("serve: closed-loop slices req/s [{}]", samples(&self.rps));
        eprintln!("serve: open-loop windows p99 us [{}]", samples(&self.p99));
        eprintln!(
            "serve: open-loop backlog at slice ends {:?}",
            self.backlog_ends
        );
        let mut late = std::mem::take(&mut self.late_us);
        let late_p99 = tail_percentile(stats::sorted(&mut late), 0.99).unwrap_or(f64::NAN);
        eprintln!("serve: generator ran late by {late_p99:.0} us at p99");
        let ends: Vec<f64> = self.backlog_ends.iter().map(|&b| b as f64).collect();
        let backlog = median(&ends);
        o.check(
            !stats::backlog_grew(&self.backlog_ends, BACKLOG_LIMIT),
            || {
                format!(
                    "open-loop backlog grew {:?}; its latencies are not valid",
                    self.backlog_ends
                )
            },
        );
        o.e2e.push(metric("serve_rps", median(&self.rps), "1/s"));
        o.e2e.push(metric("serve_p50_us", median(&self.p50), "us"));
        o.e2e.push(metric("serve_p99_us", median(&self.p99), "us"));
        if t.enabled() {
            o.layer
                .push(metric("serve.gen_late_p99_us", late_p99, "us"));
            o.layer.push(metric("serve.backlog_end", backlog, "count"));
            probes(&self, t, o)?;
        }
        self.stop()
    }
}
