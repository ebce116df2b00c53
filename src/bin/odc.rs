//! `odc` — command-line reasoning over OLAP dimension schemas.
//!
//! Schemas are written in the compact text format of
//! [`odc_core::parse_schema`] (a `hierarchy:` section with
//! `child > parent, parent` lines and a `constraints:` section in the
//! dimension-constraint syntax; see `examples/location.odcs`).
//!
//! ```text
//! odc check <schema>                        audit the schema
//! odc frozen <schema> <root>                frozen dimensions of a category
//! odc trace <schema> <root>                 traced DIMSAT run
//! odc implies <schema> <constraint>         decide ds ⊨ α
//! odc summarizable <schema> <target> <src>… decide summarizability
//! odc dot <schema>                          Graphviz output
//! odc serve                                 resident reasoning server
//! odc client <addr> <command> [args…]       script against a server
//! ```
//!
//! Reasoning commands accept `--time-limit <dur>` (e.g. `500ms`, `2s`)
//! and `--node-limit <n>`; a search that exhausts its budget reports
//! `unknown` and exits with code 2 (distinct from code 1, used for
//! errors). `--jobs <n>` fans the batch commands (`check`,
//! `summarizable`) out over worker threads sharing the one budget.
//!
//! Interrupted work is recoverable: `--checkpoint <path>` saves what an
//! undecided `check`/`summarizable` run decided (and the cursors of the
//! items it was cut in) as an item-cache file, `--resume <path>` runs a
//! later invocation against it, and `--retry <n>` retries in-process
//! with a doubling budget, every attempt answering from what the earlier
//! ones decided. `frozen` saves and resumes the one solve's cursor.
//! `--fault <spec>` arms deterministic fault injection (e.g.
//! `interrupt:node:500`) for chaos-testing those paths.
//!
//! `--repo <dir>` points `check`/`implies`/`summarizable`/`frozen` (and
//! `serve`) at a crash-safe on-disk verdict repository: decided queries
//! answer from disk, undecided ones leave resume cursors behind, and a
//! schema edit invalidates only the verdicts whose proof footprints the
//! edit touches. The repository subsumes `--checkpoint`/`--resume`.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use odc_core::dimsat::trace::render_trace;
use odc_core::dimsat::{AnytimeDriver, ImplicationCache, ItemCache};
use odc_core::govern::{FaultKind, FaultPlan, FaultTrigger, IoFaultKind, IoFaultPlan};
use odc_core::hierarchy::dot;
use odc_core::prelude::*;
use odc_core::repo::{self as vrepo, VerdictRepo};
use odc_core::summarizability::advisor;
use odc_serve::{ServeConfig, Server};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(out) => {
            print!("{}", out.text);
            if out.unknown {
                // Distinct from error: the budget ran out before an answer.
                ExitCode::from(2)
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  odc check <schema>                         audit (unsatisfiable categories, redundant constraints, structures, safe rewrites)
  odc frozen <schema> <root>                 enumerate the frozen dimensions rooted at a category
  odc trace <schema> <root>                  run DIMSAT with an execution trace (Figure 7 style)
  odc implies <schema> <constraint>          decide whether the schema implies a constraint
  odc summarizable <schema> <target> <src>…  decide whether <target> is summarizable from the sources
  odc validate <schema> <instance>           check an instance file against C1–C7 and Σ
  odc infer <schema> <instance>              mine the constraints an instance already obeys
  odc ingest <store-dir> [<schema>…]         stream members and facts (stdin or --facts) into
                                             a columnar store, validating C1–C7 incrementally
  odc cube <store-dir> <level>…              materialize a rollup at one category per dimension
                                             (verdict-gated when answering --via a cuboid)
  odc dot <schema>                           emit the hierarchy as Graphviz DOT
  odc serve [serve options]                  run the resident reasoning server (drains on
                                             SIGTERM or a `shutdown` request)
  odc client <addr> <command> [args…]        send one protocol command to a server
  odc fuzz [fuzz options]                    differential fuzzing across the executor pairs
                                             (exit 2 when divergences are found)
serve options:
  --addr <ip:port>     bind address (default 127.0.0.1:7421; port 0 picks a free one)
  --workers <n>        solver shards behind the readiness loop (default 4)
  --queue <n>          admission bound: max resident connections; beyond it
                       connections get `overloaded` (default 1024)
  --time-limit/--node-limit   server-wide per-request budget cap (client asks
                       are intersected with it — tighten only, never loosen)
  --checkpoint-dir <d> write odc-checkpoint v1 envelopes for solves interrupted
                       by drain or client disconnect
  --cache-dir <d>      persist each schema + its warm implication cache on
                       drain and reload them on start (warm restarts without
                       --repo or traffic replay)
  --preload <name>=<schema-file>   load a schema into the catalog at startup
                       (repeatable)
  --repo <dir>         persist audit verdicts in an on-disk repository; loaded
                       schemas and their verdicts survive server restarts
client options:
  --retry-connect <n>  retry a refused connection (or an `overloaded`
                       rejection) up to <n> times with exponential backoff
  --tag <n>            tag the request with a sequence number and verify the
                       response echoes it (a mismatch is a protocol desync)
fuzz options:
  --seed <n>           corpus seed (default 1; the whole run is a pure
                       function of it)
  --cases <n>          corpus case ids to draw (default 64)
  --pairs <a,b,…>      executor pairs to differentiate (default all):
                       trail-clone, serial-jobs, planned-noplan, fault-resume,
                       repo-warm-cold, serve-cli, ingest-full
  --repro-dir <dir>    where minimized repro directories go (default .odc-repro)
  --no-minimize        write repros without delta-debugging them first
  --replay <dir>       re-execute a repro directory (or a directory of them,
                       e.g. corpus/v1); exit 2 if any entry fails to replay
  --write-corpus <dir> emit replayable corpus entries (catalog fixtures plus
                       seeded draws) with expected verdicts
  --sabotage           plant a deliberate clone-kernel corruption (self-test:
                       the fuzzer must find, minimize, and replay it)
  --time-limit <dur>   wall-clock cutoff for the whole run
store options:
  --facts <path>       ingest: read the member/fact stream from a file
                       instead of stdin (`-` is stdin)
  --batch-rows <n>     ingest: stream lines per validated batch (default 4096)
  --full               ingest: full re-validation after every batch (the
                       differential oracle) instead of delta checks
  --agg <fn>           cube: sum (default), count, min, or max
  --via <lvl[,lvl…]>   cube: answer from the materialized cuboid at this
                       granularity instead of the base facts; refused (exit 2,
                       failing bottom named) unless every moved dimension's
                       summarizability verdict allows the reuse
  --verdicts           cube: print the verdicts that gated the source choice
  --limit <n>          cube: cells to print (default 20)
options (reasoning commands):
  --time-limit <dur>   wall-clock budget, e.g. 500ms or 2s (exit code 2 when exceeded)
  --node-limit <n>     search-node budget (exit code 2 when exceeded)
  --jobs <n>           worker threads for check/summarizable (one shared budget,
                       first countermodel cancels the rest of the batch)
  --plan / --no-plan   check/summarizable: plan the query battery (dedup shared
                       sub-formulas, order cheap-first, share learned facts,
                       batch per-bottom implications) or run it query-by-query;
                       planned is the default and the verdicts are identical
  --stats-json <path>  write structured solve events (JSON lines) to <path>
  --progress           report heartbeats and solve verdicts on stderr
checkpoint/resume (check, summarizable, frozen):
  --checkpoint <path>  when the budget runs out undecided, write what the run
                       decided and the cursors of the items it was cut in to
                       <path> (frozen: the solve's cursor; exit code 2 still
                       signals undecided)
  --resume <path>      run against a file written by --checkpoint: decided
                       items answer from it, cut items continue from their
                       cursors; refused if the schema changed in between, and
                       for the envelopes of earlier releases (rerun without)
  --retry <n>          on budget exhaustion, retry up to <n> more times
                       in-process, doubling the budget; each attempt answers
                       what the earlier ones decided
verdict repository (check, implies, summarizable, frozen, cube, serve):
  --repo <dir>         consult and grow a crash-safe on-disk verdict store:
                       hits answer from disk, misses solve and persist, and
                       undecided runs leave warm-start cursors behind (subsumes
                       --checkpoint/--resume; combine with --retry to finish)
fault injection (deterministic chaos testing, serial runs only):
  --fault <spec>       arm a fault plan: kind:trigger with kind one of
                       interrupt|cancel and trigger one of node:<n>, check:<n>,
                       depth:<d>, seed:<seed>:<per-mille>; append :max:<k> to
                       cap total injections (e.g. interrupt:node:500:max:1).
                       With --repo, also torn-write:<n>[:abort],
                       skip-rename:<n>[:abort], and stale-lock — inject the
                       nth repository write torn/unrenamed (optionally
                       aborting the process) or a dead writer's lock file";

/// What a dispatched command produced.
pub struct RunOutput {
    /// Text to print on stdout.
    pub text: String,
    /// The search budget ran out before the command reached a definite
    /// answer (exit code 2).
    pub unknown: bool,
}

impl RunOutput {
    fn answered(text: String) -> Self {
        RunOutput {
            text,
            unknown: false,
        }
    }
}

/// Dispatches a command line; returns the text to print plus whether the
/// run ended `unknown` (budget exhausted).
pub fn run(args: &[String]) -> Result<RunOutput, String> {
    let flags = parse_budget_flags(args)?;
    let (budget, jobs) = (flags.budget, flags.jobs);
    let obs = build_observer(&flags)?;
    let (cmd, rest) = flags.positional.split_first().ok_or("missing command")?;
    let rest: &[String] = rest;
    // `--jobs` only fans out the batch commands; accepting it silently on
    // a serial command would promise parallelism the run never delivers.
    if jobs > 1 && !matches!(cmd.as_str(), "check" | "summarizable" | "fuzz") {
        return Err(format!(
            "--jobs applies only to check/summarizable/fuzz; `{cmd}` runs serially"
        ));
    }
    // Same honesty rule for the recovery flags: only the commands below
    // produce (and accept) checkpoints.
    let resumable = matches!(cmd.as_str(), "check" | "summarizable" | "frozen");
    if !resumable {
        for (flag, set) in [
            ("--checkpoint", flags.checkpoint.is_some()),
            ("--resume", flags.resume.is_some()),
            ("--retry", flags.retry > 0),
        ] {
            if set {
                return Err(format!(
                    "{flag} applies only to check/summarizable/frozen; `{cmd}` cannot checkpoint"
                ));
            }
        }
    }
    // Fault plans attach to the one serial governor; the parallel drivers
    // build their worker governors internally.
    if flags.fault.is_some() && jobs > 1 {
        return Err("--fault applies to serial runs only (drop --jobs)".into());
    }
    // The verdict repository serves the reasoning commands and the
    // server; accepting it elsewhere would promise persistence the run
    // never delivers.
    if flags.repo.is_some()
        && !matches!(
            cmd.as_str(),
            "check" | "implies" | "summarizable" | "frozen" | "cube" | "serve"
        )
    {
        return Err(format!(
            "--repo applies only to check/implies/summarizable/frozen/cube/serve; \
             `{cmd}` has nothing to persist"
        ));
    }
    if flags.repo.is_some() && (flags.checkpoint.is_some() || flags.resume.is_some()) {
        return Err(
            "--repo persists pending cursors itself; drop --checkpoint/--resume".into(),
        );
    }
    if flags.io_fault.is_some() && flags.repo.is_none() {
        return Err(
            "--fault torn-write/skip-rename/stale-lock target the verdict repository; \
             add --repo <dir>"
                .into(),
        );
    }
    if flags.io_fault.is_some() && cmd.as_str() == "serve" {
        return Err("repository fault injection applies to one-shot commands, not serve".into());
    }
    if flags.retry_connect > 0 && cmd.as_str() != "client" {
        return Err(format!(
            "--retry-connect applies only to client; `{cmd}` opens no connection"
        ));
    }
    // The battery planner reorders multi-query batteries; single-query
    // commands have nothing to plan.
    if flags.plan.is_some() && !matches!(cmd.as_str(), "check" | "summarizable") {
        return Err(format!(
            "--plan/--no-plan apply only to check/summarizable; `{cmd}` runs one query"
        ));
    }
    let plan = flags.plan.unwrap_or(true);
    match cmd.as_str() {
        "check" => {
            let file = rest.first().ok_or("check needs a schema file")?;
            let (ds, src) = load_schema_text(file)?;
            let repo = open_repo(&flags, &obs)?;
            if let Some(r) = &repo {
                // Reconciles an edited schema against the store: verdicts
                // whose footprints the edit missed migrate, the rest die.
                r.sync_schema(&ds, file, &src)
                    .map_err(|e| format!("--repo: {e}"))?;
            }
            let local = resume_cache(&ds, &flags)?;
            let cache = item_cache(&repo, &local);
            // Every attempt is the same run: planned or not, over `jobs`
            // workers, through one memo-cache and one item cache.
            let memo = ImplicationCache::for_schema(&ds);
            let mut attempt_budget = budget;
            let mut attempts = 0u32;
            let report = loop {
                attempts += 1;
                let mut gov = make_governor(attempt_budget, &obs, &flags.fault);
                let run = Run::new(&mut gov).jobs(jobs).planned(plan);
                let run = Run {
                    cache,
                    ..run.session(memo.begin_session())
                };
                let report = advisor::audit_run(&ds, run);
                if report.interrupted.is_none() || attempts > flags.retry {
                    break report;
                }
                attempt_budget = attempt_budget.scaled(2);
            };
            let unknown = report.interrupted.is_some();
            let mut out = report.render(&ds);
            if attempts > 1 {
                out.push_str(&format!("({attempts} attempts, budget doubled per retry)\n"));
            }
            if let Some(i) = &report.interrupted {
                if let Some(hint) = interrupt_hint(i) {
                    out.push_str(&format!("{hint}\n"));
                }
            }
            if unknown {
                if let Some(line) = save_checkpoint(&flags, &local)? {
                    out.push_str(&line);
                }
                if let Some(dir) = &flags.repo {
                    out.push_str(&format!(
                        "pending cursors persisted; rerun with --repo {dir} to continue\n"
                    ));
                }
            } else {
                let suggestions = advisor::suggest_into_constraints(&ds);
                if !suggestions.is_empty() {
                    out.push_str(
                        "suggested into constraints (implied; make them explicit to help DIMSAT):\n",
                    );
                    for dc in suggestions {
                        out.push_str(&format!(
                            "  {}\n",
                            odc_core::constraint::printer::display_dc(ds.hierarchy(), &dc)
                        ));
                    }
                }
            }
            Ok(RunOutput { text: out, unknown })
        }
        "frozen" => {
            let [file, root] = rest else {
                return Err("frozen needs <schema> <root>".into());
            };
            let (ds, src) = load_schema_text(file)?;
            let repo = open_repo(&flags, &obs)?;
            if let Some(r) = &repo {
                r.sync_schema(&ds, file, &src)
                    .map_err(|e| format!("--repo: {e}"))?;
            }
            let c = category(&ds, root)?;
            let key = vrepo::sub_key(&ds, "cli-frozen", root);
            if let Some(hit) = repo.as_ref().and_then(|r| r.get(&key)) {
                // The enumeration is deterministic, so the stored text is
                // what this run would have printed.
                return Ok(RunOutput::answered(hit.payload.clone()));
            }
            let solver = Dimsat::new(&ds).with_observer(obs);
            let start = match &flags.resume {
                Some(path) => {
                    let cp = solver
                        .load_checkpoint(&read_file(path)?)
                        .map_err(|e| format!("--resume {path}: {e}"))?;
                    // The cursor encodes the decision stack of one solve;
                    // resuming it under a different root would silently
                    // continue the old enumeration.
                    if cp.root != c {
                        return Err(format!(
                            "--resume {path}: checkpoint is for root {}, but root {root} \
                             was requested",
                            ds.hierarchy().name(cp.root),
                        ));
                    }
                    Some(cp)
                }
                // A pending cursor in the repository warm starts the
                // enumeration exactly like `--resume` would.
                None => repo.as_ref().and_then(|r| {
                    r.pending(&key)
                        .and_then(|t| solver.load_checkpoint(&t).ok())
                        .filter(|cp| cp.root == c)
                }),
            };
            let mut driver = AnytimeDriver::new(budget).with_max_attempts(flags.retry + 1);
            if let Some(plan) = &flags.fault {
                driver = driver.with_fault_plan(plan.clone());
            }
            let report = driver.solve_from(&solver, c, false, start);
            let (frozen, outcome) = (report.found, report.outcome);
            // Interrupted enumerations cap the partial listing exactly
            // like the server does (`odc_serve::PARTIAL_LISTING_CAP`) —
            // a cancelled exponential enumeration can hold tens of
            // thousands of partial results, and the two outputs must
            // stay byte-identical.
            let shown = if outcome.interrupted.is_some() {
                frozen.len().min(odc_serve::PARTIAL_LISTING_CAP)
            } else {
                frozen.len()
            };
            let mut core = format!(
                "{} frozen dimension(s) with root {} ({} EXPAND, {} CHECK):\n",
                frozen.len(),
                root,
                outcome.stats.expand_calls,
                outcome.stats.check_calls
            );
            for (i, f) in frozen.iter().take(shown).enumerate() {
                core.push_str(&format!("  f{}: {}\n", i + 1, f.display(&ds)));
            }
            if frozen.len() > shown {
                core.push_str(&format!(
                    "  ... {} more partial result(s) not shown\n",
                    frozen.len() - shown
                ));
            }
            let mut out = core.clone();
            if report.attempts > 1 {
                out.push_str(&format!(
                    "({} attempts, {} resumed from checkpoints, budget doubled per retry)\n",
                    report.attempts, report.resumed
                ));
            }
            let unknown = outcome.interrupted.is_some();
            if let Some(i) = &outcome.interrupted {
                out.push_str(&format!("enumeration interrupted ({i}); listing is partial\n"));
            }
            if unknown {
                if let (Some(path), Some(c)) = (&flags.checkpoint, &outcome.checkpoint) {
                    write_checkpoint(path, c.to_text().as_bytes())?;
                    out.push_str(&format!(
                        "checkpoint written to {path}; continue with --resume {path}\n"
                    ));
                }
                if let (Some(r), Some(dir), Some(cpt)) =
                    (&repo, &flags.repo, &outcome.checkpoint)
                {
                    let _ = r.put_pending(key.clone(), cpt.to_text());
                    out.push_str(&format!(
                        "pending cursor persisted; rerun with --repo {dir} to continue\n"
                    ));
                }
            } else if let Some(r) = &repo {
                let _ = r.put(
                    key,
                    vrepo::StoredVerdict {
                        value: frozen.len().to_string(),
                        payload: core,
                        footprint: vrepo::region(ds.hierarchy(), c).into_iter().collect(),
                    },
                );
            }
            Ok(RunOutput { text: out, unknown })
        }
        "trace" => {
            let [file, root] = rest else {
                return Err("trace needs <schema> <root>".into());
            };
            let ds = load_schema(file)?;
            let c = category(&ds, root)?;
            let outcome = Dimsat::with_options(&ds, DimsatOptions::full().with_trace())
                .with_budget(budget)
                .with_observer(obs)
                .category_satisfiable(c);
            let (answer, unknown) = verdict_text(&outcome.verdict);
            Ok(RunOutput {
                text: format!(
                    "{}\nsatisfiable: {}\n",
                    render_trace(&ds, &outcome.trace),
                    answer
                ),
                unknown,
            })
        }
        "implies" => {
            let [file, constraint] = rest else {
                return Err("implies needs <schema> <constraint>".into());
            };
            let (ds, src) = load_schema_text(file)?;
            let repo = open_repo(&flags, &obs)?;
            if let Some(r) = &repo {
                r.sync_schema(&ds, file, &src)
                    .map_err(|e| format!("--repo: {e}"))?;
            }
            let alpha = parse_constraint(ds.hierarchy(), constraint)
                .map_err(|e| format!("constraint: {e}"))?;
            let key = vrepo::sub_key(&ds, "cli-implies", constraint);
            if let Some(hit) = repo.as_ref().and_then(|r| r.get(&key)) {
                return Ok(RunOutput::answered(hit.payload.clone()));
            }
            let mut gov = Governor::from_budget(budget).with_observer(obs);
            // Through the run's schema-fingerprinted memo cache, like the
            // audit's batteries (a bare `implies_governed` here ran every
            // repeated query cold).
            let cache = ImplicationCache::for_schema(&ds);
            let out = odc_core::dimsat::implies_memo(
                &ds,
                &alpha,
                DimsatOptions::default(),
                &mut gov,
                &cache,
            );
            let (answer, unknown) = match &out.verdict {
                ImplicationVerdict::Implied => ("true".to_string(), false),
                ImplicationVerdict::NotImplied => ("false".to_string(), false),
                ImplicationVerdict::Unknown(i) => (format!("unknown ({i})"), true),
            };
            let mut text = format!("implied: {answer}\n");
            if let Some(cx) = out.counterexample {
                text.push_str(&format!("countermodel: {}\n", cx.display(&ds)));
            }
            if !unknown {
                if let Some(r) = &repo {
                    // An implication proof explores the constraint root's
                    // region only.
                    let _ = r.put(
                        key,
                        vrepo::StoredVerdict {
                            value: answer,
                            payload: text.clone(),
                            footprint: vrepo::region(ds.hierarchy(), alpha.root())
                                .into_iter()
                                .collect(),
                        },
                    );
                }
            }
            Ok(RunOutput { text, unknown })
        }
        "summarizable" => {
            let (file, q) = rest.split_first().ok_or("summarizable needs arguments")?;
            let (target, sources) = q
                .split_first()
                .ok_or("summarizable needs <target> <source>…")?;
            if sources.is_empty() {
                return Err("summarizable needs at least one source category".into());
            }
            let (ds, src) = load_schema_text(file)?;
            let repo = open_repo(&flags, &obs)?;
            if let Some(r) = &repo {
                r.sync_schema(&ds, file, &src)
                    .map_err(|e| format!("--repo: {e}"))?;
            }
            let t = category(&ds, target)?;
            let s: Result<Vec<Category>, String> =
                sources.iter().map(|n| category(&ds, n)).collect();
            let s = s?;
            let local = resume_cache(&ds, &flags)?;
            let cache = item_cache(&repo, &local);
            // Every attempt is the same run, through one item cache.
            let mut attempt_budget = budget;
            let mut attempts = 0u32;
            let out = loop {
                attempts += 1;
                let mut gov = make_governor(attempt_budget, &obs, &flags.fault);
                let run = Run {
                    cache,
                    ..Run::new(&mut gov).jobs(jobs).planned(plan)
                };
                let out = is_summarizable_in_schema_run(&ds, t, &s, DimsatOptions::default(), run);
                if !out.is_unknown() || attempts > flags.retry {
                    break out;
                }
                attempt_budget = attempt_budget.scaled(2);
            };
            let (answer, unknown) = match &out.verdict {
                SummarizabilityVerdict::Summarizable => ("true".to_string(), false),
                SummarizabilityVerdict::NotSummarizable => ("false".to_string(), false),
                SummarizabilityVerdict::Unknown(i) => match interrupt_hint(i) {
                    Some(hint) => (format!("unknown ({i})\n{hint}"), true),
                    None => (format!("unknown ({i})"), true),
                },
            };
            let mut text = format!("summarizable: {answer}\n");
            if attempts > 1 {
                text.push_str(&format!("({attempts} attempts, budget doubled per retry)\n"));
            }
            if unknown {
                if let Some(line) = save_checkpoint(&flags, &local)? {
                    text.push_str(&line);
                }
                if let Some(dir) = &flags.repo {
                    text.push_str(&format!(
                        "pending cursor persisted; rerun with --repo {dir} to continue\n"
                    ));
                }
            }
            if let Some(cx) = out.countermodel_text(&ds) {
                text.push_str(&format!("countermodel: {cx}\n"));
            }
            Ok(RunOutput { text, unknown })
        }
        "validate" => {
            let [schema_file, instance_file] = rest else {
                return Err("validate needs <schema> <instance>".into());
            };
            let ds = load_schema(schema_file)?;
            let d = load_instance(&ds, instance_file)?;
            let violated = ds.violated_by(&d);
            let mut text = format!("instance: {} members, satisfies C1–C7 ✓\n", d.num_members());
            if violated.is_empty() {
                text.push_str("satisfies Σ ✓ — the instance is over the schema\n");
            } else {
                text.push_str(&format!(
                    "violates {} constraint(s) of Σ:\n",
                    violated.len()
                ));
                for dc in violated {
                    let bad = odc_core::constraint::eval::violating_members(&d, dc);
                    text.push_str(&format!(
                        "  {}  (members: {})\n",
                        odc_core::constraint::printer::display_dc(ds.hierarchy(), dc),
                        bad.iter().map(|&m| d.key(m)).collect::<Vec<_>>().join(", ")
                    ));
                }
            }
            Ok(RunOutput::answered(text))
        }
        "infer" => {
            let [schema_file, instance_file] = rest else {
                return Err("infer needs <schema> <instance>".into());
            };
            let ds = load_schema(schema_file)?;
            let d = load_instance(&ds, instance_file)?;
            let sigma = odc_core::summarizability::infer::infer_constraints(
                &d,
                &odc_core::summarizability::infer::InferenceOptions::default(),
            );
            let mut text = format!("{} inferred constraint(s):\n", sigma.len());
            for dc in &sigma {
                text.push_str(&format!(
                    "  {}\n",
                    odc_core::constraint::printer::display_dc(ds.hierarchy(), dc)
                ));
            }
            Ok(RunOutput::answered(text))
        }
        "ingest" => {
            if flags.fault.is_some() {
                return Err("--fault does not apply to ingest".into());
            }
            let (dir, rest_args) = rest
                .split_first()
                .ok_or("ingest needs <store-dir> [<schema>…]")?;
            let mut facts_path: Option<String> = None;
            let mut batch_rows = 4096usize;
            let mut full = false;
            let mut schema_files: Vec<String> = Vec::new();
            let mut it = rest_args.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--facts" => {
                        facts_path = Some(it.next().ok_or("--facts needs a path")?.clone())
                    }
                    "--batch-rows" => {
                        let v = it.next().ok_or("--batch-rows needs a count")?;
                        batch_rows = v
                            .parse()
                            .map_err(|_| format!("--batch-rows: not a number: {v}"))?;
                        if batch_rows == 0 {
                            return Err("--batch-rows: must be at least 1".into());
                        }
                    }
                    "--full" => full = true,
                    other if other.starts_with("--") => {
                        return Err(format!("ingest: unexpected argument `{other}`"))
                    }
                    _ => schema_files.push(a.clone()),
                }
            }
            let store_dir = Path::new(dir);
            let mut store = if store_dir.join("meta.txt").exists() {
                if !schema_files.is_empty() {
                    return Err(format!(
                        "{dir}: store already initialised; drop the schema arguments to append"
                    ));
                }
                odc_store::FactStore::load(store_dir).map_err(|e| format!("{dir}: {e}"))?
            } else {
                if schema_files.is_empty() {
                    return Err("ingest needs at least one schema file for a new store".into());
                }
                let schemas: Result<Vec<DimensionSchema>, String> =
                    schema_files.iter().map(|f| load_schema(f)).collect();
                odc_store::FactStore::new(schemas?)
            };
            let stream = match facts_path.as_deref() {
                None | Some("-") => {
                    use std::io::Read as _;
                    let mut s = String::new();
                    std::io::stdin()
                        .read_to_string(&mut s)
                        .map_err(|e| format!("stdin: {e}"))?;
                    s
                }
                Some(path) => read_file(path)?,
            };
            let lines: Vec<&str> = stream.lines().collect();
            let t0 = std::time::Instant::now();
            let (mut batch_no, mut members, mut facts, mut rows) = (0u64, 0u64, 0u64, 0u64);
            for (i, chunk) in lines.chunks(batch_rows).enumerate() {
                let text = chunk.join("\n");
                let batch = odc_store::parse_batch(&text, i * batch_rows + 1)
                    .map_err(|e| format!("ingest: {e}"))?;
                if batch.is_empty() {
                    continue;
                }
                let bt = std::time::Instant::now();
                let stats = if full {
                    store.ingest_batch_full(&batch)
                } else {
                    store.ingest_batch(&batch)
                }
                .map_err(|e| format!("ingest rejected: {e}"))?;
                let micros = bt.elapsed().as_micros() as u64;
                batch_no += 1;
                members += stats.members as u64;
                facts += stats.facts as u64;
                rows += batch.len() as u64;
                obs.ingest(&odc_core::obs::IngestEvent {
                    phase: "batch",
                    path: dir.clone(),
                    batch: batch_no,
                    members: stats.members as u64,
                    facts: stats.facts as u64,
                    micros,
                    rows_per_sec: batch.len() as u64 * 1_000_000 / micros.max(1),
                });
            }
            store.save(store_dir).map_err(|e| format!("{dir}: {e}"))?;
            let micros = t0.elapsed().as_micros() as u64;
            let rate = rows * 1_000_000 / micros.max(1);
            obs.ingest(&odc_core::obs::IngestEvent {
                phase: "done",
                path: dir.clone(),
                batch: batch_no,
                members,
                facts,
                micros,
                rows_per_sec: rate,
            });
            Ok(RunOutput::answered(format!(
                "ingested {batch_no} batch(es) ({} validation): {members} member(s), \
                 {facts} fact(s), {rate} rows/s\nstore: {dir} — {} dimension(s), {} fact(s) total\n",
                if full { "full" } else { "incremental" },
                store.num_dims(),
                store.num_facts(),
            )))
        }
        "cube" => {
            if flags.fault.is_some() {
                return Err("--fault does not apply to cube".into());
            }
            let (dir, rest_args) = rest.split_first().ok_or("cube needs <store-dir> <level>…")?;
            let mut agg = AggFn::Sum;
            let mut via_spec: Option<String> = None;
            let mut show_verdicts = false;
            let mut limit = 20usize;
            let mut level_names: Vec<String> = Vec::new();
            let mut it = rest_args.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--agg" => {
                        let v = it.next().ok_or("--agg needs sum|count|min|max")?;
                        agg = match v.as_str() {
                            "sum" => AggFn::Sum,
                            "count" => AggFn::Count,
                            "min" => AggFn::Min,
                            "max" => AggFn::Max,
                            _ => return Err(format!("--agg: unknown function `{v}`")),
                        };
                    }
                    "--via" => {
                        via_spec = Some(it.next().ok_or("--via needs <level[,level…]>")?.clone())
                    }
                    "--verdicts" => show_verdicts = true,
                    "--limit" => {
                        let v = it.next().ok_or("--limit needs a count")?;
                        limit = v.parse().map_err(|_| format!("--limit: not a number: {v}"))?;
                    }
                    other if other.starts_with("--") => {
                        return Err(format!("cube: unexpected argument `{other}`"))
                    }
                    _ => level_names.push(a.clone()),
                }
            }
            let store =
                odc_store::FactStore::load(Path::new(dir)).map_err(|e| format!("{dir}: {e}"))?;
            if level_names.len() != store.num_dims() {
                return Err(format!(
                    "cube needs one level per dimension ({} given, store has {})",
                    level_names.len(),
                    store.num_dims()
                ));
            }
            let target: Vec<Category> = level_names
                .iter()
                .enumerate()
                .map(|(k, n)| category(store.schema(k), n))
                .collect::<Result<_, _>>()?;
            let via: Option<Vec<Category>> = match &via_spec {
                None => None,
                Some(spec) => {
                    let names: Vec<&str> = spec.split(',').map(|s| s.trim()).collect();
                    if names.len() != store.num_dims() {
                        return Err(format!(
                            "--via needs one level per dimension ({} given, store has {})",
                            names.len(),
                            store.num_dims()
                        ));
                    }
                    Some(
                        names
                            .iter()
                            .enumerate()
                            .map(|(k, n)| category(store.schema(k), n))
                            .collect::<Result<_, _>>()?,
                    )
                }
            };
            let repo = open_repo(&flags, &obs)?;
            if let Some(r) = &repo {
                for k in 0..store.num_dims() {
                    let path = Path::new(dir).join(format!("schema.{k}.odcs"));
                    let src = std::fs::read_to_string(&path)
                        .map_err(|e| format!("{}: {e}", path.display()))?;
                    r.sync_schema(store.schema(k), &path.display().to_string(), &src)
                        .map_err(|e| format!("--repo: {e}"))?;
                }
            }
            let mut text = String::new();
            // Gate the reuse plan: every dimension that actually moves
            // levels (`via_k != target_k`) needs a summarizability
            // verdict before its cuboid may stand in for the facts.
            let mut safe = vec![true; store.num_dims()];
            let mut refusal: Option<String> = None;
            if let Some(vl) = &via {
                for k in 0..store.num_dims() {
                    let (from, to) = (vl[k], target[k]);
                    if from == to {
                        continue;
                    }
                    let ds = store.schema(k);
                    let g = ds.hierarchy();
                    let (ok, failing) = match &repo {
                        // Schema-level verdicts, shared with
                        // `odc summarizable` and solved as it solves them.
                        Some(r) => {
                            let mut gov = make_governor(budget, &obs, &None);
                            let run = Run::new(&mut gov).planned(true).cache(r);
                            let out = is_summarizable_in_schema_run(
                                ds,
                                to,
                                &[from],
                                DimsatOptions::default(),
                                run,
                            );
                            let (ok, fb) = match &out.verdict {
                                SummarizabilityVerdict::Summarizable => (true, None),
                                SummarizabilityVerdict::NotSummarizable => {
                                    (false, out.failing_bottom)
                                }
                                SummarizabilityVerdict::Unknown(i) => {
                                    return Err(format!(
                                        "cube: dim {k} verdict unknown ({i}); raise \
                                         --time-limit/--node-limit"
                                    ))
                                }
                            };
                            (ok, fb.map(|c| g.name(c).to_string()))
                        }
                        // Measured verdicts straight off the rollup
                        // columns of the loaded instance.
                        None => {
                            let ok = store.summarizability_verdict(k, from, to);
                            let failing = if ok {
                                None
                            } else {
                                store.summarizability_witness(k, from, to).map(
                                    |(member, c)| {
                                        format!("{} (witness member `{member}`)", g.name(c))
                                    },
                                )
                            };
                            (ok, failing)
                        }
                    };
                    safe[k] = ok;
                    if show_verdicts {
                        text.push_str(&format!(
                            "verdict: dim {k}: {} from {{{}}}: {}\n",
                            g.name(to),
                            g.name(from),
                            if ok { "summarizable" } else { "NOT summarizable" }
                        ));
                    }
                    if !ok && refusal.is_none() {
                        refusal = Some(format!(
                            "rollup forbidden: dim {k}: {} is not summarizable from \
                             {{{}}} (failing bottom: {})\n",
                            g.name(to),
                            g.name(from),
                            failing.unwrap_or_else(|| "unnamed".into())
                        ));
                    }
                }
            }
            if let Some(line) = refusal {
                text.push_str(&line);
                return Ok(RunOutput {
                    text,
                    unknown: true,
                });
            }
            let insts: Vec<DimensionInstance> =
                (0..store.num_dims()).map(|k| store.instance(k)).collect();
            let (cube, source_desc) = match &via {
                Some(vl) => {
                    let candidates = vec![store.materialize(vl, agg)];
                    // `choose_source` re-checks the gated plan:
                    // cost-ranked, name-tie-broken, safe per the
                    // verdicts above.
                    let chosen =
                        odc_core::olap::choose_source(&candidates, &target, |k, _, _| safe[k])
                            .ok_or("cube: internal: gated plan rejected by choose_source")?;
                    let tables: Vec<RollupTable> = insts.iter().map(RollupTable::new).collect();
                    let desc = format!("cuboid {} ({} cells)", chosen.name, chosen.len());
                    (odc_core::olap::roll_up(chosen, &tables, &target), desc)
                }
                None => (store.materialize(&target, agg), "base facts".to_string()),
            };
            // The reuse answer must be byte-identical to direct
            // materialization; a divergence means the verdict that
            // allowed the plan was wrong for this instance (e.g. a
            // schema-level verdict over an instance that violates Σ).
            if via.is_some() {
                let direct = store.materialize(&target, agg);
                if cube.cells == direct.cells {
                    text.push_str("verified: cells identical to direct materialization ✓\n");
                } else {
                    return Err(
                        "cube: rolled-up cells diverge from direct materialization; the \
                         instance does not satisfy the constraints the verdict assumed"
                            .into(),
                    );
                }
            }
            let agg_name = match agg {
                AggFn::Sum => "sum",
                AggFn::Count => "count",
                AggFn::Min => "min",
                AggFn::Max => "max",
            };
            text.push_str(&format!(
                "cuboid {}: {} cell(s), agg {agg_name}, source: {source_desc}\n",
                level_names.join("/"),
                cube.len(),
            ));
            let shown = cube.cells.len().min(limit);
            for (coords, v) in cube.cells.iter().take(shown) {
                let cell = coords
                    .iter()
                    .enumerate()
                    .map(|(k, &m)| insts[k].key(m).to_string())
                    .collect::<Vec<_>>()
                    .join(", ");
                text.push_str(&format!("  {cell} -> {v}\n"));
            }
            if cube.cells.len() > shown {
                text.push_str(&format!("  ... {} more cell(s)\n", cube.cells.len() - shown));
            }
            Ok(RunOutput::answered(text))
        }
        "dot" => {
            let ds = load_schema(rest.first().ok_or("dot needs a schema file")?)?;
            Ok(RunOutput::answered(dot::schema_to_dot(ds.hierarchy())))
        }
        "serve" => {
            if flags.fault.is_some() {
                return Err("--fault does not apply to serve".into());
            }
            let mut addr = "127.0.0.1:7421".to_string();
            let mut workers = 4usize;
            let mut queue_cap = 1024usize;
            let mut checkpoint_dir: Option<String> = None;
            let mut cache_dir: Option<String> = None;
            let mut preload: Vec<(String, String)> = Vec::new();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => addr = it.next().ok_or("--addr needs a value")?.clone(),
                    "--workers" => {
                        let v = it.next().ok_or("--workers needs a value")?;
                        workers = v
                            .parse()
                            .map_err(|_| format!("--workers: not a number: {v}"))?;
                        if workers == 0 {
                            return Err("--workers: must be at least 1".into());
                        }
                    }
                    "--queue" => {
                        let v = it.next().ok_or("--queue needs a value")?;
                        queue_cap = v
                            .parse()
                            .map_err(|_| format!("--queue: not a number: {v}"))?;
                    }
                    "--checkpoint-dir" => {
                        checkpoint_dir =
                            Some(it.next().ok_or("--checkpoint-dir needs a path")?.clone());
                    }
                    "--cache-dir" => {
                        cache_dir = Some(it.next().ok_or("--cache-dir needs a path")?.clone());
                    }
                    "--preload" => {
                        let v = it.next().ok_or("--preload needs <name>=<schema-file>")?;
                        let (name, path) = v
                            .split_once('=')
                            .ok_or_else(|| format!("--preload: expected name=path, got {v}"))?;
                        preload.push((name.to_string(), path.to_string()));
                    }
                    other => return Err(format!("serve: unexpected argument `{other}`")),
                }
            }
            let server = Server::bind(ServeConfig {
                addr,
                workers,
                queue_cap,
                policy: budget,
                checkpoint_dir: checkpoint_dir.map(std::path::PathBuf::from),
                cache_dir: cache_dir.map(std::path::PathBuf::from),
                repo: flags.repo.clone().map(std::path::PathBuf::from),
                obs,
                handle_sigterm: true,
            })
            .map_err(|e| format!("bind: {e}"))?;
            for (name, path) in &preload {
                server
                    .catalog()
                    .load_text(name, &read_file(path)?)
                    .map_err(|e| format!("--preload {name}: {e}"))?;
            }
            // Announced before blocking so scripts binding port 0 can
            // learn the picked port.
            println!(
                "serving on {} ({} workers, queue {})",
                server.local_addr(),
                workers,
                queue_cap
            );
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            let stats = server.run().map_err(|e| format!("serve: {e}"))?;
            Ok(RunOutput::answered(format!(
                "drained: served {} request(s), rejected {}, {} checkpoint(s) written, {} warm cache(s) persisted\n",
                stats.served, stats.rejected, stats.checkpoints, stats.caches_persisted
            )))
        }
        "client" => {
            if flags.fault.is_some() {
                return Err("--fault does not apply to client".into());
            }
            let (addr, cmd_args) = rest.split_first().ok_or("client needs <addr> <command…>")?;
            let (verb, verb_args) = cmd_args
                .split_first()
                .ok_or("client needs a command after the address")?;
            let retries = flags.retry_connect;
            let mut overload_attempt = 0u32;
            let response = loop {
                // Refused connections retry inside `connect_with_retry`;
                // `overloaded` rejections (the server answered, then
                // closed) retry out here with the same backoff.
                let mut client = odc_serve::Client::connect_with_retry(addr.as_str(), retries)
                    .map_err(|e| format!("connect {addr}: {e}"))?;
                let response = if verb == "load" {
                    let [name, file] = verb_args else {
                        return Err("client load needs <name> <schema-file>".into());
                    };
                    client
                        .load(name, &read_file(file)?)
                        .map_err(|e| format!("{addr}: {e}"))?
                } else {
                    // `--tag <n>` is handled client-side: the request is
                    // tagged and the response's echo is verified, so a
                    // reordered delivery surfaces as a typed desync
                    // (`expected seq N, got M`), not a payload mixup.
                    let mut tag: Option<u64> = None;
                    let mut toks: Vec<&String> = Vec::new();
                    let mut vi = verb_args.iter();
                    while let Some(t) = vi.next() {
                        if t == "--tag" {
                            let v = vi.next().ok_or("--tag needs a sequence number")?;
                            tag = Some(
                                v.parse().map_err(|_| format!("--tag: not a number: {v}"))?,
                            );
                        } else {
                            toks.push(t);
                        }
                    }
                    let mut line = std::iter::once(verb)
                        .chain(toks)
                        .map(|t| odc_serve::protocol::quote_token(t))
                        .collect::<Vec<_>>()
                        .join(" ");
                    // Budget flags were swallowed by the shared flag parser;
                    // forward them onto the wire so the server intersects
                    // them with its policy.
                    if let Some(d) = budget.deadline {
                        line.push_str(&format!(" --time-limit {}ms", d.as_secs_f64() * 1000.0));
                    }
                    if let Some(n) = budget.node_limit {
                        line.push_str(&format!(" --node-limit {n}"));
                    }
                    match tag {
                        Some(t) => client
                            .request_tagged(&line, t)
                            .map_err(|e| format!("{addr}: {e}"))?,
                        None => client
                            .request(&line)
                            .map_err(|e| format!("{addr}: {e}"))?,
                    }
                };
                if response.status_word() == "overloaded" && overload_attempt < retries {
                    overload_attempt += 1;
                    std::thread::sleep(odc_serve::retry_backoff(overload_attempt));
                    continue;
                }
                break response;
            };
            match response.status_word() {
                "ok" | "bye" => Ok(RunOutput::answered(response.payload)),
                "unknown" => Ok(RunOutput {
                    text: response.payload,
                    unknown: true,
                }),
                "overloaded" => Err("server overloaded (admission queue full)".into()),
                _ => Err(response
                    .status
                    .strip_prefix("error ")
                    .unwrap_or(&response.status)
                    .to_string()),
            }
        }
        "fuzz" => {
            if flags.fault.is_some() {
                return Err(
                    "--fault does not apply to fuzz (the fault-resume pair injects its own)"
                        .into(),
                );
            }
            let mut seed = 1u64;
            let mut cases = 64u64;
            let mut pairs: Vec<odc_fuzz::Pair> = odc_fuzz::Pair::ALL.to_vec();
            let mut sabotage = false;
            let mut minimize = true;
            let mut replay_dir: Option<String> = None;
            let mut write_corpus: Option<String> = None;
            let mut repro_dir = ".odc-repro".to_string();
            let mut it = rest.iter();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--seed" => {
                        let v = it.next().ok_or("--seed needs a value")?;
                        seed = v.parse().map_err(|_| format!("--seed: not a number: {v}"))?;
                    }
                    "--cases" => {
                        let v = it.next().ok_or("--cases needs a value")?;
                        cases = v.parse().map_err(|_| format!("--cases: not a number: {v}"))?;
                    }
                    "--pairs" => {
                        let v = it.next().ok_or("--pairs needs a comma-separated list")?;
                        pairs = v
                            .split(',')
                            .map(|name| {
                                odc_fuzz::Pair::parse(name.trim())
                                    .ok_or_else(|| format!("--pairs: unknown pair `{name}`"))
                            })
                            .collect::<Result<Vec<_>, _>>()?;
                    }
                    "--sabotage" => sabotage = true,
                    "--no-minimize" => minimize = false,
                    "--replay" => {
                        replay_dir = Some(it.next().ok_or("--replay needs a directory")?.clone());
                    }
                    "--write-corpus" => {
                        write_corpus =
                            Some(it.next().ok_or("--write-corpus needs a directory")?.clone());
                    }
                    "--repro-dir" => {
                        repro_dir = it.next().ok_or("--repro-dir needs a directory")?.clone();
                    }
                    other => return Err(format!("fuzz: unexpected argument `{other}`")),
                }
            }
            if let Some(dir) = replay_dir {
                return fuzz_replay(Path::new(&dir));
            }
            if let Some(dir) = write_corpus {
                return fuzz_write_corpus(Path::new(&dir), seed, cases);
            }
            let cfg = odc_fuzz::FuzzConfig {
                seed,
                cases,
                time_limit: budget.deadline,
                pairs,
                sabotage,
                minimize,
                repro_dir: Some(std::path::PathBuf::from(repro_dir)),
                obs,
            };
            let report = odc_fuzz::run_fuzz(&cfg);
            let mut text = format!(
                "fuzz seed {}: {} case(s) run, {} degenerate skip(s), {:.1} cases/sec\n",
                report.seed,
                report.cases_run,
                report.skipped,
                report.cases_per_sec()
            );
            text.push_str(&format!("axis coverage: {}\n", counts(&report.axis_counts)));
            text.push_str(&format!("pairs run: {}\n", counts(&report.pair_counts)));
            for note in &report.notes {
                text.push_str(&format!("note: {note}\n"));
            }
            text.push_str(&format!("divergences: {}\n", report.divergences.len()));
            for d in &report.divergences {
                text.push_str(&format!(
                    "  case {} [{}] {} on `{}`: {} vs {}\n",
                    d.case_id, d.pair, d.kind, d.query, d.left, d.right
                ));
            }
            for dir in &report.repro_dirs {
                text.push_str(&format!("  repro written: {}\n", dir.display()));
            }
            Ok(RunOutput {
                text,
                unknown: !report.divergences.is_empty(),
            })
        }
        other => Err(format!("unknown command `{other}`")),
    }
}

/// Renders a count map as `key=value` pairs on one line.
fn counts(m: &std::collections::BTreeMap<String, u64>) -> String {
    m.iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// `odc fuzz --replay <dir>`: re-execute one repro directory, or every
/// repro directory under `dir` (e.g. `corpus/v1/`). Exit 2 when any
/// entry fails to replay.
fn fuzz_replay(dir: &Path) -> Result<RunOutput, String> {
    let entries: Vec<std::path::PathBuf> = if dir.join("schema.txt").exists() {
        vec![dir.to_path_buf()]
    } else {
        let mut subs: Vec<std::path::PathBuf> = std::fs::read_dir(dir)
            .map_err(|e| format!("{}: {e}", dir.display()))?
            .filter_map(|r| r.ok())
            .map(|e| e.path())
            .filter(|p| p.join("schema.txt").exists())
            .collect();
        subs.sort();
        subs
    };
    if entries.is_empty() {
        return Err(format!("{}: no repro directories found", dir.display()));
    }
    let mut text = String::new();
    let mut failures = 0usize;
    for entry in &entries {
        let out = odc_fuzz::replay(entry)?;
        if out.ok() {
            let what = match &out.expected_divergence {
                Some(kind) => format!("divergence ({kind}) reproduced"),
                None => format!("clean across {} pair(s)", out.pairs_run.len()),
            };
            text.push_str(&format!("{}: ok — {what}\n", entry.display()));
        } else {
            failures += 1;
            text.push_str(&format!("{}: FAILED\n", entry.display()));
            for d in &out.divergences {
                text.push_str(&format!(
                    "  unexpected {} [{}] on `{}`: {} vs {}\n",
                    d.kind, d.pair, d.query, d.left, d.right
                ));
            }
            for m in &out.verdict_mismatches {
                text.push_str(&format!("  verdict drift: {m}\n"));
            }
            if out.expected_divergence.is_some() && out.divergences.is_empty() {
                text.push_str("  expected a divergence; none reproduced\n");
            }
        }
    }
    text.push_str(&format!(
        "replayed {}: {} ok, {failures} failed\n",
        entries.len(),
        entries.len() - failures
    ));
    Ok(RunOutput {
        text,
        unknown: failures > 0,
    })
}

/// `odc fuzz --write-corpus <dir>`: emit replayable corpus entries —
/// the catalog fixtures plus `cases` seeded corpus draws — each with
/// expected verdicts from the canonical executor.
fn fuzz_write_corpus(dir: &Path, seed: u64, cases: u64) -> Result<RunOutput, String> {
    let mut written = 0usize;
    let mut text = String::new();
    for entry in odc_workload::catalog() {
        let ds = &entry.schema;
        let g = ds.hierarchy();
        let Some(&bottom_c) = g.bottom_categories().first() else {
            continue;
        };
        let bottom = g.name(bottom_c).to_string();
        let schema_text = odc_core::schema_to_text(ds);
        let parsed = odc_core::parse_schema(&schema_text)
            .map_err(|e| format!("fixture {}: {e:?}", entry.name))?;
        let case = odc_fuzz::FuzzCase {
            id: written as u64,
            axis: "fixture".into(),
            label: entry.name.to_string(),
            schema_text,
            bottom: bottom.clone(),
            queries: odc_fuzz::queries_for(&parsed, &bottom),
        };
        let sub = dir.join(format!("fixture-{}", entry.name));
        odc_fuzz::write_corpus_entry(&sub, &case, 0)
            .map_err(|e| format!("{}: {e}", sub.display()))?;
        text.push_str(&format!("wrote {}\n", sub.display()));
        written += 1;
    }
    for id in 0..cases {
        let cc = match odc_workload::case_for(seed, id) {
            Ok(cc) => cc,
            Err(_) => continue,
        };
        let case = odc_fuzz::FuzzCase::from_corpus(&cc)?;
        let sub = dir.join(format!("s{seed}-c{id}-{}", case.axis));
        odc_fuzz::write_corpus_entry(&sub, &case, seed)
            .map_err(|e| format!("{}: {e}", sub.display()))?;
        text.push_str(&format!("wrote {}\n", sub.display()));
        written += 1;
    }
    text.push_str(&format!("{written} corpus entr(ies) written under {}\n", dir.display()));
    Ok(RunOutput::answered(text))
}

/// Flags shared by the reasoning commands, parsed off the command line.
pub struct Flags {
    budget: Budget,
    jobs: usize,
    stats_json: Option<String>,
    progress: bool,
    checkpoint: Option<String>,
    resume: Option<String>,
    retry: u32,
    fault: Option<FaultPlan>,
    repo: Option<String>,
    io_fault: Option<IoFaultPlan>,
    retry_connect: u32,
    /// `Some(false)` when `--no-plan` asked for the single-query
    /// execution order; `None` means the default (planned).
    plan: Option<bool>,
    positional: Vec<String>,
}

/// Extracts `--time-limit`/`--node-limit`/`--jobs`/`--stats-json`/
/// `--progress`/`--checkpoint`/`--resume`/`--retry`/`--fault` (anywhere
/// on the command line), returning them plus the remaining positional
/// arguments.
fn parse_budget_flags(args: &[String]) -> Result<Flags, String> {
    let mut budget = Budget::unlimited();
    let mut jobs = 1usize;
    let mut stats_json = None;
    let mut progress = false;
    let mut checkpoint = None;
    let mut resume = None;
    let mut retry = 0u32;
    let mut fault = None;
    let mut repo = None;
    let mut io_fault = None;
    let mut retry_connect = 0u32;
    let mut plan = None;
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--time-limit" => {
                let v = it.next().ok_or("--time-limit needs a value (e.g. 500ms, 2s)")?;
                budget = budget.with_deadline(parse_duration(v)?);
            }
            "--node-limit" => {
                let v = it.next().ok_or("--node-limit needs a value")?;
                let n: u64 = v
                    .parse()
                    .map_err(|_| format!("--node-limit: not a number: {v}"))?;
                budget = budget.with_node_limit(n);
            }
            "--jobs" => {
                let v = it.next().ok_or("--jobs needs a value")?;
                let n: usize = v
                    .parse()
                    .map_err(|_| format!("--jobs: not a number: {v}"))?;
                if n == 0 {
                    return Err("--jobs: must be at least 1".into());
                }
                jobs = n;
            }
            "--stats-json" => {
                let v = it.next().ok_or("--stats-json needs a file path")?;
                stats_json = Some(v.clone());
            }
            "--progress" => progress = true,
            "--checkpoint" => {
                let v = it.next().ok_or("--checkpoint needs a file path")?;
                checkpoint = Some(v.clone());
            }
            "--resume" => {
                let v = it.next().ok_or("--resume needs a file path")?;
                resume = Some(v.clone());
            }
            "--retry" => {
                let v = it.next().ok_or("--retry needs a count")?;
                retry = v
                    .parse()
                    .map_err(|_| format!("--retry: not a number: {v}"))?;
            }
            "--fault" => {
                let v = it.next().ok_or(
                    "--fault needs a spec, e.g. interrupt:node:500 or interrupt:seed:42:5",
                )?;
                // Repository I/O faults and solver faults share the flag;
                // the kind word disambiguates.
                match parse_io_fault_spec(v)? {
                    Some(plan) => io_fault = Some(plan),
                    None => fault = Some(parse_fault_spec(v)?),
                }
            }
            "--repo" => {
                let v = it.next().ok_or("--repo needs a directory path")?;
                repo = Some(v.clone());
            }
            "--retry-connect" => {
                let v = it.next().ok_or("--retry-connect needs a count")?;
                retry_connect = v
                    .parse()
                    .map_err(|_| format!("--retry-connect: not a number: {v}"))?;
            }
            "--plan" => plan = Some(true),
            "--no-plan" => plan = Some(false),
            _ => positional.push(arg.clone()),
        }
    }
    Ok(Flags {
        budget,
        jobs,
        stats_json,
        progress,
        checkpoint,
        resume,
        retry,
        fault,
        repo,
        io_fault,
        retry_connect,
        plan,
        positional,
    })
}

/// Parses the repository I/O fault kinds of `--fault`:
/// `torn-write:<n>[:abort]`, `skip-rename:<n>[:abort]`, `stale-lock`.
/// Returns `Ok(None)` when the spec names a solver fault instead.
fn parse_io_fault_spec(spec: &str) -> Result<Option<IoFaultPlan>, String> {
    let bad = || format!("--fault: bad spec `{spec}` (see usage)");
    let mut parts = spec.split(':');
    let kind = match parts.next() {
        Some("torn-write") => IoFaultKind::TornWrite,
        Some("skip-rename") => IoFaultKind::SkipRename,
        Some("stale-lock") => {
            if parts.next().is_some() {
                return Err(bad());
            }
            return Ok(Some(IoFaultPlan::new(IoFaultKind::StaleLock, 1)));
        }
        _ => return Ok(None),
    };
    let nth: u64 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(bad)?;
    if nth == 0 {
        return Err("--fault: the write ordinal must be at least 1".into());
    }
    let mut plan = IoFaultPlan::new(kind, nth);
    match parts.next() {
        None => {}
        Some("abort") => plan = plan.with_abort(),
        Some(_) => return Err(bad()),
    }
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(Some(plan))
}

/// Parses a `--fault` spec: `kind:trigger[:max:<k>]` with kind
/// `interrupt` or `cancel` and trigger `node:<n>`, `check:<n>`,
/// `depth:<d>`, or `seed:<seed>:<per-mille>`. Panic injection is
/// deliberately not reachable from the CLI — it exists for crash tests
/// of the parallel drivers, not for users.
fn parse_fault_spec(spec: &str) -> Result<FaultPlan, String> {
    let bad = || format!("--fault: bad spec `{spec}` (see usage)");
    let mut parts = spec.split(':');
    let kind = match parts.next() {
        Some("interrupt") => FaultKind::Interrupt,
        Some("cancel") => FaultKind::Cancel,
        Some("panic") => {
            return Err("--fault: panic injection is test-only; use interrupt or cancel".into())
        }
        _ => return Err(bad()),
    };
    let num = |v: Option<&str>| -> Result<u64, String> {
        v.and_then(|s| s.parse().ok()).ok_or_else(bad)
    };
    let trigger = match parts.next() {
        Some("node") => FaultTrigger::EveryNthNode(num(parts.next())?),
        Some("check") => FaultTrigger::EveryNthCheck(num(parts.next())?),
        Some("depth") => FaultTrigger::AtDepth(num(parts.next())? as usize),
        Some("seed") => {
            let seed = num(parts.next())?;
            let per_mille = num(parts.next())?;
            if per_mille > 1000 {
                return Err("--fault: per-mille must be 0..=1000".into());
            }
            FaultTrigger::Seeded {
                seed,
                per_mille: per_mille as u32,
            }
        }
        _ => return Err(bad()),
    };
    let mut plan = FaultPlan::new(kind, trigger);
    match parts.next() {
        None => {}
        Some("max") => plan = plan.with_max_injections(num(parts.next())?),
        Some(_) => return Err(bad()),
    }
    if parts.next().is_some() {
        return Err(bad());
    }
    Ok(plan)
}

/// Builds the observer requested by `--stats-json`/`--progress`; detached
/// ([`Obs::none`], zero overhead) when neither flag was given.
fn build_observer(flags: &Flags) -> Result<Obs, String> {
    let mut sinks: Vec<Arc<dyn Observer>> = Vec::new();
    if let Some(path) = &flags.stats_json {
        let jsonl = JsonlObserver::to_file(path).map_err(|e| format!("--stats-json {path}: {e}"))?;
        sinks.push(Arc::new(jsonl));
    }
    if flags.progress {
        sinks.push(Arc::new(ProgressObserver::to_stderr()));
    }
    Ok(match sinks.len() {
        0 => Obs::none(),
        1 => Obs::new(sinks.remove(0)),
        _ => Obs::new(Arc::new(MultiObserver::new(sinks))),
    })
}

/// A serial governor carrying the run's observer and (if armed) the
/// fault-injection plan.
fn make_governor(budget: Budget, obs: &Obs, fault: &Option<FaultPlan>) -> Governor {
    let mut gov = Governor::from_budget(budget).with_observer(obs.clone());
    if let Some(plan) = fault {
        gov = gov.with_fault_plan(plan.clone());
    }
    gov
}

fn read_file(path: &str) -> Result<String, String> {
    std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
}

/// Checkpoint files are written atomically (temp file + rename +
/// fsync): a crash mid-write leaves the previous file intact instead of
/// a truncated one that `--resume` would refuse.
fn write_checkpoint(path: &str, bytes: &[u8]) -> Result<(), String> {
    vrepo::atomic_write(Path::new(path), bytes, None)
        .map_err(|e| format!("--checkpoint {path}: {e}"))
}

/// The run-local item cache of `check`/`summarizable`: loaded from the
/// `--resume` file, or empty for `--checkpoint`/`--retry`; `None` when
/// the run asks for none of them or keeps its items in `--repo`.
fn resume_cache(ds: &DimensionSchema, flags: &Flags) -> Result<Option<vrepo::ResumeCache>, String> {
    if let Some(path) = &flags.resume {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        return vrepo::ResumeCache::load(ds, &bytes)
            .map(Some)
            .map_err(|e| format!("--resume {path}: {e}"));
    }
    let wanted = flags.repo.is_none() && (flags.checkpoint.is_some() || flags.retry > 0);
    Ok(wanted.then(|| vrepo::ResumeCache::new(ds)))
}

/// The item cache a run asks and tells: the repository, else the
/// run-local cache.
fn item_cache<'a>(
    repo: &'a Option<VerdictRepo>,
    local: &'a Option<vrepo::ResumeCache>,
) -> Option<&'a dyn ItemCache> {
    match (repo, local) {
        (Some(r), _) => Some(r),
        (None, Some(l)) => Some(l),
        (None, None) => None,
    }
}

/// Saves an undecided run's item cache to `--checkpoint`, returning the
/// line that says so.
fn save_checkpoint(
    flags: &Flags,
    local: &Option<vrepo::ResumeCache>,
) -> Result<Option<String>, String> {
    let (Some(path), Some(cache)) = (&flags.checkpoint, local) else {
        return Ok(None);
    };
    write_checkpoint(path, &cache.to_bytes())?;
    Ok(Some(format!(
        "checkpoint written to {path}; continue with --resume {path}\n"
    )))
}

/// Opens the verdict repository named by `--repo`, threading the run's
/// observer (for `repo_recovery` events) and any armed I/O fault plan.
fn open_repo(flags: &Flags, obs: &Obs) -> Result<Option<VerdictRepo>, String> {
    match &flags.repo {
        Some(dir) => VerdictRepo::open(Path::new(dir), obs.clone(), flags.io_fault.clone())
            .map(Some)
            .map_err(|e| format!("--repo {dir}: {e}")),
        None => Ok(None),
    }
}

/// Loads a schema plus its raw source text (the repository persists the
/// source so a restarted process can diff edited schemas against it).
fn load_schema_text(path: &str) -> Result<(DimensionSchema, String), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let ds = odc_core::parse_schema(&src).map_err(|e| format!("{path}: {e}"))?;
    Ok((ds, src))
}

/// An extra line of advice for interrupts the user can act on.
fn interrupt_hint(i: &Interrupt) -> Option<&'static str> {
    match i.reason {
        InterruptReason::FanoutOverflow => Some(
            "hint: some category has 63 or more admissible parents, which the \
             subset-mask search cannot enumerate; tighten the schema with into \
             constraints to narrow the fan-out",
        ),
        _ => None,
    }
}

/// Parses `750ms`, `2s`, or a bare number of seconds (fractions allowed).
fn parse_duration(s: &str) -> Result<Duration, String> {
    let (num, scale) = if let Some(ms) = s.strip_suffix("ms") {
        (ms, 1e-3)
    } else if let Some(sec) = s.strip_suffix('s') {
        (sec, 1.0)
    } else {
        (s, 1.0)
    };
    let v: f64 = num
        .trim()
        .parse()
        .map_err(|_| format!("bad duration: {s} (expected e.g. 500ms or 2s)"))?;
    if !v.is_finite() || v < 0.0 {
        return Err(format!("bad duration: {s}"));
    }
    Ok(Duration::from_secs_f64(v * scale))
}

fn verdict_text(v: &Verdict) -> (String, bool) {
    match v {
        Verdict::Sat(_) => ("true".to_string(), false),
        Verdict::Unsat => ("false".to_string(), false),
        Verdict::Unknown(i) => (format!("unknown ({i})"), true),
    }
}

fn load_schema(path: &str) -> Result<DimensionSchema, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    odc_core::parse_schema(&src).map_err(|e| format!("{path}: {e}"))
}

fn load_instance(ds: &DimensionSchema, path: &str) -> Result<DimensionInstance, String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    odc_core::instance::text::parse_instance(ds.hierarchy_arc(), &src)
        .map_err(|e| format!("{path}: {e}"))
}

fn category(ds: &DimensionSchema, name: &str) -> Result<Category, String> {
    ds.hierarchy()
        .category_by_name(name)
        .ok_or_else(|| format!("unknown category `{name}`"))
}
