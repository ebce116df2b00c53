//! # odc-fuzz
//!
//! A cross-stack differential fuzzer for the *OLAP Dimension
//! Constraints* reproduction. The same reasoning question — is this
//! category satisfiable, is this constraint implied, is this rewriting
//! summarizable — is answered by the codebase through half a dozen
//! independent code paths: the trail-based kernel and the clone-based
//! one, the serial category sweep and the striped parallel one,
//! the planned implication battery and the naive one, a fresh solve and
//! a fault-interrupted-then-resumed one, a repo-warm audit and a cold
//! one, a resident `odc serve` process and the one-shot library call.
//! Per Theorems 2–4 they must all agree; any disagreement is a bug in
//! *one* of them. This crate industrializes that observation:
//!
//! * [`case`] — the textual fuzz case: a schema (round-tripped through
//!   [`odc_core::schema_to_text`] so every executor parses identical
//!   bytes) plus a deterministic query battery.
//! * [`exec`] — one executor per code path, each answering a query with
//!   a canonical verdict string, a CLI-convention exit code, and a
//!   witness-validity bit (countermodels are re-verified against C1–C7
//!   and Σ).
//! * [`diff`] — the differential driver: the corpus engine
//!   ([`odc_workload::corpus`]) streams adversarial schemas, each case
//!   fans out across the executor pairs, and every verdict,
//!   countermodel-validity, stats-coherence, exit-code, or
//!   protocol-desync disagreement is recorded as a [`Divergence`].
//! * [`minimize`] — delta-debugging on the schema *text*: drop
//!   constraints, categories, and edges while the divergence persists;
//!   every intermediate candidate must re-parse (C1–C7 well-formedness)
//!   before it is even tried. Deterministic and idempotent.
//! * [`repro`] — self-contained repro directories (`.odc-repro/`):
//!   schema text, query battery, expected/actual verdicts, and the
//!   command lines to re-run by hand. `odc fuzz --replay <dir>`
//!   re-executes them; `corpus/v1/` is a shipped set replayed by CI.
//!
//! The planted-divergence acceptance test rides on [`FuzzConfig::sabotage`]:
//! a test-only switch that corrupts the clone-kernel executor's verdict
//! for the bottom category, which the driver must find, minimize, and
//! replay.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod case;
pub mod diff;
pub mod exec;
pub mod minimize;
pub mod repro;

pub use case::{queries_for, FuzzCase, Query};
pub use diff::{
    compare, first_divergence, run_fuzz, Divergence, DivergenceKind, FuzzConfig, FuzzReport, Pair,
};
pub use exec::{
    answer_direct, run_pair, Observation, PairContext, PairError, PairResult, ServerHarness,
};
pub use minimize::{minimize, minimize_with};
pub use repro::{
    expected_verdicts, read_repro, replay, write_corpus_entry, write_divergence_repro,
    ReplayOutcome, Repro,
};
