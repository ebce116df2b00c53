//! In-memory spans recorded around the benchmark's calls into each
//! layer, and the self-time arithmetic over them.
//!
//! A span is `(name, start, end, parent)` in nanoseconds since the
//! tracer's epoch. Spans stay in memory while the run measures and are
//! written out once it ends. A disabled tracer records nothing.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: String,
    pub start: u64,
    pub end: u64,
    /// Index of the enclosing span in the tracer's list.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

/// Records spans from one thread.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
    open: RefCell<Vec<usize>>,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
            open: RefCell::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.on
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the innermost open
    /// span. Disabled, it only runs `f`.
    pub fn span<R>(&self, name: &str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let idx = {
            let mut spans = self.spans.borrow_mut();
            let parent = self.open.borrow().last().copied();
            spans.push(Span {
                name: name.to_string(),
                start: self.now(),
                end: 0,
                parent,
            });
            spans.len() - 1
        };
        self.open.borrow_mut().push(idx);
        let out = f();
        self.open.borrow_mut().pop();
        let end = self.now();
        self.spans.borrow_mut()[idx].end = end;
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Durations in nanoseconds of the spans named `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration() as f64)
            .collect()
    }

    /// Self times in nanoseconds of the spans named `name`.
    pub fn self_times_of(&self, name: &str) -> Vec<f64> {
        let spans = self.spans.borrow();
        let own = self_times(&spans);
        spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t as f64)
            .collect()
    }

    /// The spans as tab-separated lines: index, parent, name, start, end.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("index\tparent\tname\tstart_ns\tend_ns\n");
        for (i, s) in self.spans.borrow().iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            let _ = writeln!(out, "{i}\t{parent}\t{}\t{}\t{}", s.name, s.start, s.end);
        }
        out
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its direct children. Children may nest further
/// (a grandchild counts against its own parent only), overlap each
/// other (the covered part is their union), or run past the parent's
/// end (only the part inside the parent counts).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (ps, pe) = (spans[p].start, spans[p].end);
            let (a, b) = (s.start.max(ps), s.end.min(pe));
            if a < b {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut iv)| s.duration().saturating_sub(union_len(&mut iv)))
        .collect()
}

/// Total length of the union of half-open intervals.
fn union_len(iv: &mut [(u64, u64)]) -> u64 {
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for &(a, b) in iv.iter() {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// Summed self time per layer, where a span's layer is the part of its
/// name before the first `.`.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<String, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        let layer = s.name.split('.').next().unwrap_or(&s.name).to_string();
        *out.entry(layer).or_insert(0) += t;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name: name.to_string(),
            start,
            end,
            parent,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("a", 5, 12, None)]), vec![7]);
    }

    #[test]
    fn nested_children_count_against_their_own_parent() {
        // root [0,100) ⊃ child [10,60) ⊃ grandchild [20,30)
        let spans = [
            span("root", 0, 100, None),
            span("child", 10, 60, Some(0)),
            span("grand", 20, 30, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two children overlapping on [30,40) and a disjoint third.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)),
            span("c", 70, 80, Some(0)),
        ];
        // Covered: [10,50) ∪ [70,80) = 50.
        assert_eq!(self_times(&spans)[0], 50);
        // A child wholly inside another adds nothing.
        let spans = [
            span("root", 0, 100, None),
            span("a", 10, 90, Some(0)),
            span("b", 20, 30, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that started before and ends after its parent (work
        // handed across threads) covers the parent wholly, never more.
        let spans = [span("root", 10, 20, None), span("a", 0, 50, Some(0))];
        assert_eq!(self_times(&spans), vec![0, 50]);
        let spans = [span("root", 10, 20, None), span("a", 15, 50, Some(0))];
        assert_eq!(self_times(&spans)[0], 5);
    }

    #[test]
    fn tracer_records_nesting_and_layers() {
        let t = Tracer::new(true);
        t.span("store.batch", || {
            t.span("store.parse", || ());
            t.span("olap.rollup", || t.span("store.verdict", || ()));
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 4);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert_eq!(spans[3].parent, Some(2));
        assert!(spans.iter().all(|s| s.start <= s.end));
        let by_layer = self_time_by_layer(&spans);
        let total: u64 = by_layer.values().sum();
        // Self times partition the root's duration exactly.
        assert_eq!(total, spans[0].duration());
        assert_eq!(by_layer.keys().collect::<Vec<_>>(), ["olap", "store"]);
        assert_eq!(t.to_tsv().lines().count(), 5);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        assert_eq!(t.span("a", || 7), 7);
        assert!(t.spans().is_empty());
    }
}
