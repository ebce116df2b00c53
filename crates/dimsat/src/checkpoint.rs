//! Serializable cursors for interrupted DIMSAT solves.
//!
//! When a governed solve is interrupted, the search serializes its
//! enumeration cursor — the per-level subset-mask decision stack of
//! Figure 6 — together with the witnesses found so far and the counters
//! already paid for, into a [`SolveCheckpoint`]. [`Dimsat::resume`]
//! continues *exactly* where the search stopped: the replayed run
//! re-enters the recorded frames without re-ticking the governor or
//! re-counting statistics, so the concatenation of the interrupted
//! attempt and the resumed attempt is byte-identical (verdict,
//! enumeration order, merged [`SearchStats`]) to an uninterrupted run.
//!
//! A cursor rides inside the versioned, schema-fingerprinted
//! [`CheckpointEnvelope`] of `odc-govern`; a fingerprint or options
//! mismatch refuses the resume instead of walking a meaningless cursor.
//! It is `odc frozen`'s `--checkpoint` file, and the pending record an
//! interrupted `Sat` or `Census` item leaves in an item cache (see
//! [`crate::ItemCache`]).
//!
//! Resume is exact: the deepest interrupted frame re-executes from its
//! first mask (it had processed none when it was interrupted), every
//! shallower frame restarts at its recorded mask.
//! [`InterruptReason::FanoutOverflow`] never yields a checkpoint: the
//! node is structurally unexplorable and retrying cannot help.
//!
//! [`Dimsat::resume`]: crate::Dimsat::resume
//! [`InterruptReason::FanoutOverflow`]: odc_govern::InterruptReason::FanoutOverflow
//! [`SearchStats`]: crate::SearchStats

use crate::options::{DimsatOptions, TopOrder};
use crate::stats::SearchStats;
use odc_frozen::{CAssignment, FrozenDimension, Slot};
use odc_govern::{CheckpointEnvelope, CheckpointError};
use odc_hierarchy::{Category, Subhierarchy};
use std::time::Duration;

/// Envelope kind of a single-solve cursor.
pub const SOLVE_KIND: &str = "dimsat-solve";

/// Canonical encoding of the [`DimsatOptions`] that shape the search
/// path. A checkpoint only resumes under the options it was taken with —
/// the cursor indexes a specific exploration order. `trace` is excluded:
/// it records the search without steering it.
pub fn options_key(opts: &DimsatOptions) -> String {
    format!(
        "into={} eager={} order={} instar={} trail={}",
        u8::from(opts.into_pruning),
        u8::from(opts.eager_structure_pruning),
        match opts.order {
            TopOrder::Lifo => "lifo",
            TopOrder::Fifo => "fifo",
        },
        u8::from(opts.incremental_instar),
        u8::from(opts.trail_backtracking),
    )
}

/// Encodes a [`SearchStats`] as one `stats …` payload record.
fn encode_stats(s: &SearchStats) -> String {
    format!(
        "stats {} {} {} {} {} {} {} {} {} {} {}",
        s.expand_calls,
        s.check_calls,
        s.dead_ends,
        s.late_rejections,
        s.assignments_tested,
        s.frozen_found,
        s.struct_clones,
        s.cache_hits,
        s.cache_misses,
        s.cache_collisions,
        s.elapsed.as_micros()
    )
}

/// Inverse of [`encode_stats`] (the `stats ` prefix already stripped).
fn decode_stats(rest: &str) -> Result<SearchStats, CheckpointError> {
    let nums: Vec<u64> = rest
        .split_whitespace()
        .map(|t| {
            t.parse::<u64>()
                .map_err(|_| CheckpointError::malformed(format!("bad stats token {t:?}")))
        })
        .collect::<Result<_, _>>()?;
    let [expand_calls, check_calls, dead_ends, late_rejections, assignments_tested, frozen_found, struct_clones, cache_hits, cache_misses, cache_collisions, elapsed_us] =
        nums[..]
    else {
        return Err(CheckpointError::malformed(format!(
            "stats record has {} fields, expected 11",
            nums.len()
        )));
    };
    Ok(SearchStats {
        expand_calls,
        elapsed: Duration::from_micros(elapsed_us),
        check_calls,
        dead_ends,
        late_rejections,
        assignments_tested,
        frozen_found,
        struct_clones,
        cache_hits,
        cache_misses,
        cache_collisions,
    })
}

/// Parses one unsigned payload token.
fn parse_u64(tok: &str) -> Result<u64, CheckpointError> {
    tok.parse::<u64>()
        .map_err(|_| CheckpointError::malformed(format!("bad integer {tok:?}")))
}

/// Parses a category index token, range-checked against the schema's
/// category count.
fn parse_category(tok: &str, universe: usize) -> Result<Category, CheckpointError> {
    let i = parse_u64(tok)? as usize;
    if i >= universe {
        return Err(CheckpointError::malformed(format!(
            "category index {i} out of range (universe {universe})"
        )));
    }
    Ok(Category::from_index(i))
}

/// Splits a payload line into its leading key and the remainder.
fn split_key(line: &str) -> (&str, &str) {
    match line.split_once(' ') {
        Some((k, rest)) => (k, rest),
        None => (line, ""),
    }
}

/// Serializes the categories of a witness list record.
fn encode_witness(f: &FrozenDimension) -> String {
    let mut edges: Vec<(usize, usize)> = f
        .subhierarchy()
        .edges()
        .map(|(a, b)| (a.index(), b.index()))
        .collect();
    edges.sort_unstable();
    let mut line = String::from("witness edges");
    for (a, b) in edges {
        line.push_str(&format!(" {a}:{b}"));
    }
    line.push_str(" slots");
    for c in f.subhierarchy().categories().iter() {
        match f.assignment().get(c) {
            Slot::Nk => {}
            Slot::Str(k) => line.push_str(&format!(" {}:s{k}", c.index())),
            Slot::Num(v) => line.push_str(&format!(" {}:i{v}", c.index())),
        }
    }
    line
}

fn decode_witness(
    rest: &str,
    root: Category,
    universe: usize,
) -> Result<FrozenDimension, CheckpointError> {
    let mut sub = Subhierarchy::new(root, universe);
    let mut ca = CAssignment::all_nk(universe);
    let mut section = "";
    for tok in rest.split_whitespace() {
        match tok {
            "edges" | "slots" => section = tok,
            _ if section == "edges" => {
                let (a, b) = tok.split_once(':').ok_or_else(|| {
                    CheckpointError::malformed(format!("bad edge token {tok:?}"))
                })?;
                sub.add_edge(parse_category(a, universe)?, parse_category(b, universe)?);
            }
            _ if section == "slots" => {
                let (c, v) = tok.split_once(':').ok_or_else(|| {
                    CheckpointError::malformed(format!("bad slot token {tok:?}"))
                })?;
                let c = parse_category(c, universe)?;
                let slot = if let Some(k) = v.strip_prefix('s') {
                    Slot::Str(parse_u64(k)? as u32)
                } else if let Some(n) = v.strip_prefix('i') {
                    Slot::Num(n.parse::<i64>().map_err(|_| {
                        CheckpointError::malformed(format!("bad numeric slot {v:?}"))
                    })?)
                } else {
                    return Err(CheckpointError::malformed(format!(
                        "bad slot value {v:?}"
                    )));
                };
                ca.set(c, slot);
            }
            _ => {
                return Err(CheckpointError::malformed(format!(
                    "witness token {tok:?} outside edges/slots sections"
                )))
            }
        }
    }
    Ok(FrozenDimension::new(sub, ca))
}

/// The resumable state of one interrupted DIMSAT solve.
#[derive(Debug, Clone)]
pub struct SolveCheckpoint {
    /// Fingerprint of the schema the search ran against.
    pub fingerprint: u64,
    /// The query category.
    pub root: Category,
    /// `true` for decision mode, `false` for enumeration.
    pub stop_at_first: bool,
    /// [`options_key`] of the options the cursor was recorded under.
    pub options_key: String,
    /// The decision stack at the interrupt: `cursor[d]` is the subset
    /// mask frame `d` was exploring. The deepest (interrupted) frame is
    /// excluded — it had processed no masks and re-executes in full.
    pub cursor: Vec<u64>,
    /// Witnesses enumerated before the interrupt, in discovery order.
    pub found: Vec<FrozenDimension>,
    /// Counters already paid for, *excluding* the work the resumed run
    /// will redo (the interrupted frame's expand tick and any partially
    /// evaluated CHECK) — so interrupted-plus-resumed totals equal an
    /// uninterrupted run's.
    pub stats: SearchStats,
}

impl SolveCheckpoint {
    /// Serializes into a [`SOLVE_KIND`] envelope.
    pub fn to_envelope(&self) -> CheckpointEnvelope {
        let mut env = CheckpointEnvelope::new(SOLVE_KIND, self.fingerprint);
        for line in self.payload_lines() {
            env.line(line);
        }
        env
    }

    /// The checkpoint's text form (see `odc-govern`'s envelope format).
    pub fn to_text(&self) -> String {
        self.to_envelope().to_text()
    }

    pub(crate) fn payload_lines(&self) -> Vec<String> {
        let mut lines = vec![
            format!("root {}", self.root.index()),
            format!(
                "mode {}",
                if self.stop_at_first { "decide" } else { "enumerate" }
            ),
            format!("options {}", self.options_key),
            self.cursor.iter().fold(String::from("cursor"), |mut s, m| {
                s.push_str(&format!(" {m}"));
                s
            }),
            encode_stats(&self.stats),
        ];
        lines.extend(self.found.iter().map(encode_witness));
        lines
    }

    /// Parses a solve checkpoint from envelope payload lines. `universe`
    /// is the schema's category count (callers already validated the
    /// fingerprint, so indices are checked only defensively).
    pub fn decode(
        payload: &[String],
        fingerprint: u64,
        universe: usize,
    ) -> Result<Self, CheckpointError> {
        let mut root = None;
        let mut stop_at_first = None;
        let mut options_key = None;
        let mut cursor = None;
        let mut stats = None;
        let mut found = Vec::new();
        for line in payload {
            let (key, rest) = split_key(line);
            match key {
                "root" => root = Some(parse_category(rest, universe)?),
                "mode" => {
                    stop_at_first = Some(match rest {
                        "decide" => true,
                        "enumerate" => false,
                        other => {
                            return Err(CheckpointError::malformed(format!(
                                "unknown mode {other:?}"
                            )))
                        }
                    })
                }
                "options" => options_key = Some(rest.to_string()),
                "cursor" => {
                    cursor = Some(
                        rest.split_whitespace()
                            .map(parse_u64)
                            .collect::<Result<Vec<_>, _>>()?,
                    )
                }
                "stats" => stats = Some(decode_stats(rest)?),
                "witness" => {
                    let root = root.ok_or_else(|| {
                        CheckpointError::malformed("witness record before root record")
                    })?;
                    found.push(decode_witness(rest, root, universe)?);
                }
                other => {
                    return Err(CheckpointError::malformed(format!(
                        "unknown solve-checkpoint field {other:?}"
                    )))
                }
            }
        }
        Ok(SolveCheckpoint {
            fingerprint,
            root: root.ok_or_else(|| CheckpointError::malformed("missing root record"))?,
            stop_at_first: stop_at_first
                .ok_or_else(|| CheckpointError::malformed("missing mode record"))?,
            options_key: options_key
                .ok_or_else(|| CheckpointError::malformed("missing options record"))?,
            cursor: cursor.ok_or_else(|| CheckpointError::malformed("missing cursor record"))?,
            found,
            stats: stats.ok_or_else(|| CheckpointError::malformed("missing stats record"))?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn options_key_ignores_trace() {
        let a = options_key(&DimsatOptions::default());
        let b = options_key(&DimsatOptions::default().with_trace());
        assert_eq!(a, b);
        let c = options_key(&DimsatOptions::default().without_trail());
        assert_ne!(a, c, "kernel choice is part of the cursor's identity");
    }

    #[test]
    fn stats_roundtrip() {
        let s = SearchStats {
            expand_calls: 7,
            check_calls: 3,
            dead_ends: 1,
            late_rejections: 0,
            assignments_tested: 19,
            frozen_found: 2,
            struct_clones: 5,
            cache_hits: 8,
            cache_misses: 9,
            cache_collisions: 1,
            elapsed: Duration::from_micros(12345),
        };
        let line = encode_stats(&s);
        let rest = line.strip_prefix("stats ").unwrap();
        let back = decode_stats(rest).unwrap();
        assert_eq!(back.expand_calls, 7);
        assert_eq!(back.assignments_tested, 19);
        assert_eq!(back.elapsed, Duration::from_micros(12345));
    }

    #[test]
    fn solve_checkpoint_text_roundtrip() {
        let universe = 4;
        let mut sub = Subhierarchy::new(Category::from_index(1), universe);
        sub.add_edge(Category::from_index(1), Category::from_index(2));
        sub.add_edge(Category::from_index(2), Category::ALL);
        let mut ca = CAssignment::all_nk(universe);
        ca.set(Category::from_index(2), Slot::Str(3));
        ca.set(Category::from_index(1), Slot::Num(-7));
        let cp = SolveCheckpoint {
            fingerprint: 99,
            root: Category::from_index(1),
            stop_at_first: false,
            options_key: options_key(&DimsatOptions::default()),
            cursor: vec![3, 0, 5],
            found: vec![FrozenDimension::new(sub, ca)],
            stats: SearchStats {
                expand_calls: 11,
                ..Default::default()
            },
        };
        let text = cp.to_text();
        let env = CheckpointEnvelope::parse(&text).unwrap();
        let payload = env.expect(SOLVE_KIND, 99).unwrap();
        let back = SolveCheckpoint::decode(payload, env.fingerprint, universe).unwrap();
        assert_eq!(back.root, cp.root);
        assert!(!back.stop_at_first);
        assert_eq!(back.cursor, vec![3, 0, 5]);
        assert_eq!(back.stats.expand_calls, 11);
        assert_eq!(back.found.len(), 1);
        let w = &back.found[0];
        assert!(w
            .subhierarchy()
            .has_edge(Category::from_index(1), Category::from_index(2)));
        assert_eq!(w.assignment().get(Category::from_index(2)), Slot::Str(3));
        assert_eq!(w.assignment().get(Category::from_index(1)), Slot::Num(-7));
        assert_eq!(w.assignment().get(Category::from_index(3)), Slot::Nk);
    }

    #[test]
    fn truncated_and_alien_payloads_are_rejected() {
        assert!(matches!(
            SolveCheckpoint::decode(&["root 0".into()], 0, 2),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(matches!(
            SolveCheckpoint::decode(&["flux-capacitor 88".into()], 0, 2),
            Err(CheckpointError::Malformed(_))
        ));
        // Category index beyond the universe: refused, not mis-indexed.
        assert!(matches!(
            SolveCheckpoint::decode(&["root 9".into()], 0, 2),
            Err(CheckpointError::Malformed(_))
        ));
    }
}
