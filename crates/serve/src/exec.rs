//! Command execution, kept apart from the wire.
//!
//! The event loop ([`crate::event`]) turns bytes into a parsed
//! [`Command`] and puts the [`Response`] back on the wire. Everything
//! in between — catalog lookup, governor construction (policy ∩ ask,
//! drain-child token, request-tagging observer), the per-command
//! reasoning closures, and checkpoint persistence for interrupted
//! solves — lives here. The CLI-parity guarantee (`tests/serve.rs`,
//! `exp_serve`'s 200/200 audit) rides on this single implementation.

use crate::catalog::CatalogEntry;
use crate::protocol::{Command, Response};
use crate::server::Shared;
use odc_core::constraint::{parse_constraint, printer::display_dc};
use odc_core::dimsat::{
    implies_memo_session, Dimsat, DimsatOptions, ImplicationVerdict, Run, Verdict,
};
use odc_core::obs::{Obs, Observer, SolveEnd, SolveStart};
use odc_core::summarizability::advisor;
use odc_core::summarizability::{is_summarizable_in_schema_session, SummarizabilityVerdict};
use odc_core::{CancelToken, Governor};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// What the caller should do with the connection after writing the
/// response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Effect {
    /// Keep serving requests on this connection.
    Keep,
    /// Close the connection after the response is flushed (`quit`,
    /// `shutdown`, a failed `load` block read).
    Close,
}

/// Whether the command runs a governed solve (and therefore routes to a
/// solver shard).
pub(crate) fn is_solve(cmd: &Command) -> bool {
    matches!(
        cmd,
        Command::Check { .. }
            | Command::Audit { .. }
            | Command::Implies { .. }
            | Command::Summarizable { .. }
            | Command::Frozen { .. }
    )
}

/// The uniform "unknown schema" error.
pub(crate) fn no_such_schema(name: &str) -> Response {
    Response::error(&format!("no such schema `{name}` (use `load`)"))
}

/// How many partial results an *interrupted* frozen enumeration lists.
/// A cancelled exponential enumeration can hold tens of thousands of
/// partial frozen dimensions; listing them all makes the `unknown`
/// response unboundedly large (hundreds of MB on a depth-40 ladder),
/// which a draining server cannot flush before its grace expires. The
/// decided listing is never capped. The CLI applies the same cap
/// (`src/bin/odc.rs`) so the two stay byte-identical.
pub const PARTIAL_LISTING_CAP: usize = 32;

/// Runs one non-solve command. `load_text` carries the dot-framed
/// schema block for `load` (the event loop reads it off the wire
/// before calling in). Solve commands are routed by the caller through
/// [`execute_solve`]; passing one here is a caller bug reported as a
/// protocol error, never a panic.
pub(crate) fn execute_fast(
    shared: &Shared,
    cmd: &Command,
    load_text: Option<&str>,
) -> (Response, Effect) {
    match cmd {
        Command::Ping => (Response::ok("pong\n".to_string()), Effect::Keep),
        Command::Quit => (
            Response {
                status: "bye".to_string(),
                payload: String::new(),
            },
            Effect::Close,
        ),
        Command::Shutdown => {
            shared.begin_drain();
            (Response::ok("draining\n".to_string()), Effect::Close)
        }
        Command::Load { name } => {
            let Some(text) = load_text else {
                return (Response::error("reading schema text: missing block"), Effect::Close);
            };
            match shared.catalog.load_text(name, text) {
                Ok(entry) => {
                    if let Some(r) = &shared.repo {
                        // Persist the schema (and migrate any verdicts
                        // whose footprints its edit did not touch); a
                        // full repository degrades to memory-only.
                        let _ = r.sync_schema(entry.schema(), name, text);
                    }
                    (
                        Response::ok(format!(
                            "loaded {name} fingerprint {} categories {} constraints {}\n",
                            entry.fingerprint(),
                            entry.schema().hierarchy().num_categories(),
                            entry.schema().constraints().len(),
                        )),
                        Effect::Keep,
                    )
                }
                Err(e) => (Response::error(&format!("{name}: {e}")), Effect::Keep),
            }
        }
        Command::Unload { name } => {
            if shared.catalog.remove(name) {
                (Response::ok(format!("unloaded {name}\n")), Effect::Keep)
            } else {
                (
                    Response::error(&format!("no such schema `{name}`")),
                    Effect::Keep,
                )
            }
        }
        Command::Schemas => {
            let entries = shared.catalog.snapshot();
            let mut out = format!("{} schema(s)\n", entries.len());
            for e in entries {
                out.push_str(&format!(
                    "{} fingerprint {} categories {} constraints {}\n",
                    e.name(),
                    e.fingerprint(),
                    e.schema().hierarchy().num_categories(),
                    e.schema().constraints().len(),
                ));
            }
            (Response::ok(out), Effect::Keep)
        }
        Command::Stats => {
            let mut out = format!(
                "served {} rejected {} draining {}\n",
                shared.served.load(Ordering::SeqCst),
                shared.rejected.load(Ordering::SeqCst),
                shared.is_draining(),
            );
            for e in shared.catalog.snapshot() {
                let c = e.cache();
                out.push_str(&format!(
                    "schema {} entries {} hits {} cross_hits {} misses {} collisions {}\n",
                    e.name(),
                    c.len(),
                    c.hits(),
                    c.cross_hits(),
                    c.misses(),
                    c.collisions(),
                ));
            }
            if let Some(r) = &shared.repo {
                let s = r.stats();
                out.push_str(&format!(
                    "repo records {} hits {} misses {} puts {} recovered {}\n",
                    r.record_count(),
                    s.hits,
                    s.misses,
                    s.puts,
                    s.recovered_records,
                ));
            }
            (Response::ok(out), Effect::Keep)
        }
        // Solve commands never reach this path; see the doc comment.
        _ => (
            Response::error(&format!("internal: `{}` misrouted", cmd.name())),
            Effect::Keep,
        ),
    }
}

/// Runs one solve command against a pre-resolved catalog entry.
///
/// The IO thread resolves the entry before dispatching to the entry's
/// affinity shard, so shard workers never touch the catalog map — the
/// hot path holds no cross-shard lock.
pub(crate) fn execute_solve(
    shared: &Shared,
    cmd: &Command,
    entry: &Arc<CatalogEntry>,
    request_id: u64,
    worker_id: u64,
    token: &CancelToken,
) -> Response {
    let resp = match cmd {
        Command::Check { category, ask, .. } => solve(
            shared, entry, *ask, request_id, worker_id, token,
            |entry, gov| {
                let c = find_category(entry, category)?;
                let outcome = Dimsat::new(entry.schema())
                    .category_satisfiable_governed(c, gov);
                let (answer, unknown) = match &outcome.verdict {
                    Verdict::Sat(_) => ("true".to_string(), None),
                    Verdict::Unsat => ("false".to_string(), None),
                    Verdict::Unknown(i) => (format!("unknown ({i})"), Some(i.to_string())),
                };
                Ok(Solved {
                    payload: format!("satisfiable: {answer}\n"),
                    unknown,
                    checkpoint: outcome.checkpoint.map(|c| c.to_text()),
                })
            },
        ),
        Command::Implies { constraint, ask, .. } => solve(
            shared, entry, *ask, request_id, worker_id, token,
            |entry, gov| {
                let ds = entry.schema();
                let alpha = parse_constraint(ds.hierarchy(), constraint)
                    .map_err(|e| format!("constraint: {e}"))?;
                let out = implies_memo_session(
                    ds,
                    &alpha,
                    DimsatOptions::default(),
                    gov,
                    entry.cache().begin_session(),
                );
                let (answer, unknown) = match &out.verdict {
                    ImplicationVerdict::Implied => ("true".to_string(), None),
                    ImplicationVerdict::NotImplied => ("false".to_string(), None),
                    ImplicationVerdict::Unknown(i) => {
                        (format!("unknown ({i})"), Some(i.to_string()))
                    }
                };
                let mut payload = format!("implied: {answer}\n");
                if let Some(cx) = out.counterexample {
                    payload.push_str(&format!("countermodel: {}\n", cx.display(ds)));
                }
                Ok(Solved {
                    payload,
                    unknown,
                    checkpoint: None,
                })
            },
        ),
        Command::Summarizable { target, sources, ask, .. } => solve(
            shared, entry, *ask, request_id, worker_id, token,
            |entry, gov| {
                let ds = entry.schema();
                let t = find_category(entry, target)?;
                let s: Result<Vec<_>, String> =
                    sources.iter().map(|n| find_category(entry, n)).collect();
                let out = is_summarizable_in_schema_session(
                    ds,
                    t,
                    &s?,
                    DimsatOptions::default(),
                    gov,
                    entry.cache().begin_session(),
                );
                let (answer, unknown) = match &out.verdict {
                    SummarizabilityVerdict::Summarizable => ("true".to_string(), None),
                    SummarizabilityVerdict::NotSummarizable => ("false".to_string(), None),
                    SummarizabilityVerdict::Unknown(i) => {
                        (format!("unknown ({i})"), Some(i.to_string()))
                    }
                };
                let mut payload = format!("summarizable: {answer}\n");
                if let Some(cx) = out.counterexample {
                    payload.push_str(&format!("countermodel: {}\n", cx.display(ds)));
                }
                Ok(Solved {
                    payload,
                    unknown,
                    checkpoint: out.checkpoint.map(|c| c.to_text()),
                })
            },
        ),
        Command::Frozen { root, ask, .. } => solve(
            shared, entry, *ask, request_id, worker_id, token,
            |entry, gov| {
                let ds = entry.schema();
                let c = find_category(entry, root)?;
                let (frozen, outcome) =
                    Dimsat::new(ds).enumerate_frozen_governed(c, gov);
                let shown = if outcome.interrupted.is_some() {
                    frozen.len().min(PARTIAL_LISTING_CAP)
                } else {
                    frozen.len()
                };
                let mut payload = format!(
                    "{} frozen dimension(s) with root {} ({} EXPAND, {} CHECK):\n",
                    frozen.len(),
                    root,
                    outcome.stats.expand_calls,
                    outcome.stats.check_calls,
                );
                for (i, f) in frozen.iter().take(shown).enumerate() {
                    payload.push_str(&format!("  f{}: {}\n", i + 1, f.display(ds)));
                }
                if frozen.len() > shown {
                    payload.push_str(&format!(
                        "  ... {} more partial result(s) not shown\n",
                        frozen.len() - shown
                    ));
                }
                let unknown = outcome.interrupted.as_ref().map(|i| {
                    payload.push_str(&format!(
                        "enumeration interrupted ({i}); listing is partial\n"
                    ));
                    i.to_string()
                });
                Ok(Solved {
                    payload,
                    unknown,
                    checkpoint: outcome.checkpoint.map(|c| c.to_text()),
                })
            },
        ),
        Command::Audit { ask, .. } => solve(
            shared, entry, *ask, request_id, worker_id, token,
            |entry, gov| {
                let ds = entry.schema();
                // Planned, through the entry's warm cache, battery plan
                // and fact scratchpad: a second audit of a resident schema
                // re-plans nothing and re-proves no category's
                // satisfiability. A repository answers and records every
                // item across restarts.
                let mut run = Run::new(gov)
                    .planned(true)
                    .session(entry.cache().begin_session())
                    .warm(entry.plan(), entry.facts());
                if let Some(r) = &shared.repo {
                    run = run.cache(&**r);
                }
                let report = advisor::audit_run(ds, run).map_err(|e| e.to_string())?;
                let mut payload = report.render(ds);
                let unknown = report.interrupted.as_ref().map(|i| i.to_string());
                if unknown.is_none() {
                    let suggestions = advisor::suggest_into_constraints(ds);
                    if !suggestions.is_empty() {
                        payload.push_str(
                            "suggested into constraints (implied; make them explicit to help DIMSAT):\n",
                        );
                        for dc in suggestions {
                            payload.push_str(&format!("  {}\n", display_dc(ds.hierarchy(), &dc)));
                        }
                    }
                }
                Ok(Solved {
                    payload,
                    unknown,
                    checkpoint: report.checkpoint.map(|c| c.to_text()),
                })
            },
        ),
        other => Response::error(&format!("internal: `{}` misrouted", other.name())),
    };
    // Echo the client's sequence tag so pipelining clients can detect a
    // misordered response (reorder-buffer desync) on the status line.
    match cmd.ask().and_then(|a| a.tag) {
        Some(tag) => resp.with_tag(tag),
        None => resp,
    }
}

/// What a reasoning closure hands back to the request harness.
struct Solved {
    /// CLI-identical payload text.
    payload: String,
    /// `Some(reason)` when the verdict is undecided.
    unknown: Option<String>,
    /// Envelope text of the resume checkpoint, when the solve was
    /// interrupted and produced one.
    checkpoint: Option<String>,
}

fn find_category(
    entry: &CatalogEntry,
    name: &str,
) -> Result<odc_core::hierarchy::Category, String> {
    entry
        .schema()
        .hierarchy()
        .category_by_name(name)
        .ok_or_else(|| format!("unknown category `{name}`"))
}

/// The request harness shared by every reasoning command: governor
/// construction (policy ∩ ask, the caller's cancel token, a
/// request-tagging observer) and checkpoint persistence for
/// interrupted solves.
fn solve<F>(
    shared: &Shared,
    entry: &Arc<CatalogEntry>,
    ask: crate::protocol::BudgetAsk,
    request_id: u64,
    worker_id: u64,
    token: &CancelToken,
    f: F,
) -> Response
where
    F: FnOnce(&CatalogEntry, &mut Governor) -> Result<Solved, String>,
{
    let budget = shared.policy.intersect(ask.to_budget());
    let obs = if shared.obs.enabled() {
        Obs::new(Arc::new(RequestTagger {
            inner: shared.obs.clone(),
            request: request_id,
        }))
    } else {
        Obs::none()
    };
    let mut gov = Governor::new(budget, token.clone())
        .with_observer(obs)
        .with_worker_id(worker_id);
    match f(entry, &mut gov) {
        Err(e) => Response::error(&e),
        Ok(solved) => {
            let mut payload = solved.payload;
            match solved.unknown {
                None => Response::ok(payload),
                Some(reason) => {
                    if let (Some(dir), Some(text)) =
                        (&shared.checkpoint_dir, &solved.checkpoint)
                    {
                        let path = dir.join(format!("request-{request_id}.ckpt"));
                        // Atomic (temp + rename + fsync): a crash during
                        // drain cannot leave a truncated envelope that a
                        // later `--resume` would refuse.
                        if odc_core::repo::atomic_write(&path, text.as_bytes(), None).is_ok() {
                            shared.checkpoints.fetch_add(1, Ordering::SeqCst);
                            payload.push_str(&format!(
                                "checkpoint written to {}; continue with --resume {}\n",
                                path.display(),
                                path.display(),
                            ));
                        }
                    }
                    Response::unknown(&reason, payload)
                }
            }
        }
    }
}

/// Wraps the server's sink, stamping the request id onto solve
/// lifecycle events so one JSONL stream interleaves concurrent requests
/// unambiguously. Every other event forwards untouched.
struct RequestTagger {
    inner: Obs,
    request: u64,
}

impl Observer for RequestTagger {
    fn solve_started(&self, e: &SolveStart) {
        let mut e = e.clone();
        e.request = Some(self.request);
        if let Some(o) = self.inner.get() {
            o.solve_started(&e);
        }
    }

    fn solve_finished(&self, e: &SolveEnd) {
        let mut e = e.clone();
        e.request = Some(self.request);
        if let Some(o) = self.inner.get() {
            o.solve_finished(&e);
        }
    }

    fn prune(&self, solve_id: u64, reason: odc_core::obs::PruneReason) {
        self.inner.prune(solve_id, reason);
    }

    fn backtrack(&self, solve_id: u64, depth: u32) {
        self.inner.backtrack(solve_id, depth);
    }

    fn check_outcome(&self, solve_id: u64, induced: bool) {
        self.inner.check_outcome(solve_id, induced);
    }

    fn cache_access(&self, outcome: odc_core::obs::CacheOutcome) {
        self.inner.cache_access(outcome);
    }

    fn heartbeat(&self, hb: &odc_core::obs::Heartbeat) {
        self.inner.heartbeat(hb);
    }

    fn worker_finished(&self, w: &odc_core::obs::WorkerStats) {
        self.inner.worker_finished(w);
    }

    fn fault(&self, f: &odc_core::obs::FaultEvent) {
        self.inner.fault(f);
    }

    fn repo(&self, e: &odc_core::obs::RepoEvent) {
        self.inner.repo(e);
    }
}
