//! # odc-govern
//!
//! Resource governance for the reasoning stack. DIMSAT is worst-case
//! exponential (Proposition 4) and category satisfiability is NP-complete
//! (Theorem 4), so every solve entrypoint in this workspace accepts a
//! [`Budget`] and a [`CancelToken`] and polls a [`Governor`] at bounded
//! intervals. When a limit trips, the solver stops cooperatively and
//! reports `Unknown(`[`Interrupt`]`)` together with the statistics of the
//! partial search — bounded, interruptible, panic-free reasoning instead
//! of an unbounded run.
//!
//! ```
//! use odc_govern::{Budget, CancelToken, Governor};
//! use std::time::Duration;
//!
//! let budget = Budget::unlimited()
//!     .with_deadline(Duration::from_millis(10))
//!     .with_node_limit(10_000);
//! let cancel = CancelToken::new();
//! let mut gov = Governor::new(budget, cancel.clone());
//! assert!(gov.tick_node().is_ok());
//! cancel.cancel();
//! assert!(gov.tick_check().is_err());
//! ```

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use odc_obs::{FaultEvent, Heartbeat, Obs, DEFAULT_HEARTBEAT_INTERVAL};

mod checkpoint;
mod fault;
mod runner;

pub use checkpoint::{CheckpointEnvelope, CheckpointError, CHECKPOINT_VERSION};
pub use fault::{FaultKind, FaultPlan, FaultTrigger, InjectedPanic, IoFaultKind, IoFaultPlan};
pub use runner::{run_items, Flow, Ran};
use fault::FaultState;

/// Why a governed search stopped early.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InterruptReason {
    /// The wall-clock deadline passed.
    Deadline,
    /// The explored-node (subhierarchy expansion) limit was reached.
    NodeLimit,
    /// The CHECK-invocation limit was reached.
    CheckLimit,
    /// The recursion-depth guard tripped.
    DepthLimit,
    /// The [`CancelToken`] was flipped (typically from another thread).
    Cancelled,
    /// A category's admissible parent set is too wide for the subset-mask
    /// fan-out (≥ 63 parents); the expansion cannot be enumerated. This is
    /// a structural limit of the search encoding, not budget exhaustion.
    FanoutOverflow,
    /// A planned fault from a [`FaultPlan`] fired. Only the fault-injection
    /// harness produces this; a production search never does.
    FaultInjected,
}

impl fmt::Display for InterruptReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            InterruptReason::Deadline => "deadline exceeded",
            InterruptReason::NodeLimit => "node limit exceeded",
            InterruptReason::CheckLimit => "CHECK limit exceeded",
            InterruptReason::DepthLimit => "recursion depth limit exceeded",
            InterruptReason::Cancelled => "cancelled",
            InterruptReason::FanoutOverflow => "parent fan-out too wide for the subset mask",
            InterruptReason::FaultInjected => "injected fault (test harness)",
        };
        f.write_str(s)
    }
}

/// A cooperative interruption: the search gave up without an answer.
///
/// Carried by the `Unknown` arm of every solver verdict. The counters
/// describe how much budget had been consumed when the search stopped;
/// the full per-run statistics ride on the outcome struct next to the
/// verdict.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Interrupt {
    /// What tripped.
    pub reason: InterruptReason,
    /// Search nodes (EXPAND activations / enumeration steps) consumed.
    pub nodes: u64,
    /// CHECK invocations consumed.
    pub checks: u64,
}

impl Interrupt {
    /// An interrupt with zeroed counters (used where no meter ran).
    pub fn new(reason: InterruptReason) -> Self {
        Interrupt {
            reason,
            nodes: 0,
            checks: 0,
        }
    }
}

impl fmt::Display for Interrupt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} after {} node(s), {} check(s)",
            self.reason, self.nodes, self.checks
        )
    }
}

impl std::error::Error for Interrupt {}

/// Resource limits for one reasoning call (or one batch of calls sharing
/// a [`Governor`]). The default is unlimited — classical, potentially
/// exponential search.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Budget {
    /// Wall-clock allowance, measured from [`Governor`] creation.
    pub deadline: Option<Duration>,
    /// Maximum search nodes (EXPAND activations, enumeration steps,
    /// c-assignment nodes — anything the solver counts as one unit of
    /// exploration).
    pub node_limit: Option<u64>,
    /// Maximum CHECK (complete-subhierarchy test) invocations.
    pub check_limit: Option<u64>,
    /// Maximum recursion depth of the search.
    pub depth_limit: Option<usize>,
}

impl Budget {
    /// No limits at all (the classical posture; use with care).
    pub fn unlimited() -> Self {
        Budget::default()
    }

    /// A wall-clock allowance.
    pub fn with_deadline(mut self, d: Duration) -> Self {
        self.deadline = Some(d);
        self
    }

    /// A search-node allowance.
    pub fn with_node_limit(mut self, n: u64) -> Self {
        self.node_limit = Some(n);
        self
    }

    /// A CHECK-invocation allowance.
    pub fn with_check_limit(mut self, n: u64) -> Self {
        self.check_limit = Some(n);
        self
    }

    /// A recursion-depth guard.
    pub fn with_depth_limit(mut self, n: usize) -> Self {
        self.depth_limit = Some(n);
        self
    }

    /// Every set limit multiplied by `factor` (saturating) — the budget
    /// escalation step of anytime retry loops. Unset limits stay unset.
    pub fn scaled(self, factor: u32) -> Self {
        Budget {
            deadline: self.deadline.map(|d| d * factor),
            node_limit: self.node_limit.map(|n| n.saturating_mul(u64::from(factor))),
            check_limit: self.check_limit.map(|n| n.saturating_mul(u64::from(factor))),
            depth_limit: self.depth_limit.map(|n| n.saturating_mul(factor as usize)),
        }
    }

    /// The pointwise minimum of two budgets: each limit is the tighter of
    /// the two (an unset limit imposes nothing). A serving policy caps
    /// per-request budgets with this — a client may ask for *less* than
    /// the server allows, never more.
    pub fn intersect(self, other: Budget) -> Budget {
        fn min_opt<T: Ord>(a: Option<T>, b: Option<T>) -> Option<T> {
            match (a, b) {
                (Some(a), Some(b)) => Some(a.min(b)),
                (x, None) | (None, x) => x,
            }
        }
        Budget {
            deadline: min_opt(self.deadline, other.deadline),
            node_limit: min_opt(self.node_limit, other.node_limit),
            check_limit: min_opt(self.check_limit, other.check_limit),
            depth_limit: min_opt(self.depth_limit, other.depth_limit),
        }
    }

    /// Whether any limit is set.
    pub fn is_limited(&self) -> bool {
        self.deadline.is_some()
            || self.node_limit.is_some()
            || self.check_limit.is_some()
            || self.depth_limit.is_some()
    }
}

/// A shareable cancellation flag. Clone it into another thread and call
/// [`CancelToken::cancel`] to stop a governed search cooperatively; the
/// search observes the flag at its next poll and returns
/// `Unknown(Cancelled)`.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    parent: Option<Arc<CancelToken>>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// A child token: cancelling the child does not affect this token,
    /// but cancelling this token (or any ancestor) cancels the child.
    /// Batch drivers hand children to their workers so first-countermodel
    /// cancellation stays internal to the batch while the caller's token
    /// still reaches every worker.
    pub fn child(&self) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            parent: Some(Arc::new(self.clone())),
        }
    }

    /// Requests cancellation. Idempotent; visible to every clone (and to
    /// child tokens, but not to the parent this token was derived from).
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether cancellation has been requested, here or on an ancestor.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::Acquire) {
            return true;
        }
        self.parent.as_ref().is_some_and(|p| p.is_cancelled())
    }
}

/// How many ticks pass between wall-clock polls. `Instant::now` is a
/// syscall-ish operation; checking it on every node would dominate tight
/// search loops, so deadline and cancellation are observed every
/// `POLL_INTERVAL` ticks (and on every CHECK, which is coarse).
const POLL_INTERVAL: u64 = 64;

/// The runtime meter for one governed search (or batch). Created from a
/// [`Budget`] and a [`CancelToken`]; solvers call the `tick_*` methods at
/// bounded intervals and stop when one returns an [`Interrupt`].
///
/// Interrupts are sticky: once tripped, every later tick reports the same
/// interrupt, so deep recursive searches unwind promptly.
#[derive(Debug, Clone)]
pub struct Governor {
    budget: Budget,
    cancel: CancelToken,
    start: Instant,
    deadline_at: Option<Instant>,
    nodes: u64,
    checks: u64,
    tripped: Option<Interrupt>,
    /// When minted by a [`SharedGovernor`], ticks also land in these
    /// cross-thread counters and limits are enforced against the totals.
    shared: Option<Arc<SharedCounters>>,
    obs: Obs,
    worker_id: Option<u64>,
    hb_interval: Option<Duration>,
    last_hb: Instant,
    fault: Option<FaultState>,
}

/// A degenerate budget (zero deadline, zero node/CHECK allowance) trips
/// *at governor creation*, with zeroed counters: the search must not
/// consume a single node before noticing — `POLL_INTERVAL` amortization
/// would otherwise let a zero-deadline solve run ~64 nodes and possibly
/// fabricate a complete verdict out of a budget that allowed nothing.
fn degenerate_trip(budget: &Budget) -> Option<Interrupt> {
    if budget.deadline == Some(Duration::ZERO) {
        Some(Interrupt::new(InterruptReason::Deadline))
    } else if budget.node_limit == Some(0) {
        Some(Interrupt::new(InterruptReason::NodeLimit))
    } else if budget.check_limit == Some(0) {
        Some(Interrupt::new(InterruptReason::CheckLimit))
    } else {
        None
    }
}

impl Governor {
    /// A governor measuring from now.
    pub fn new(budget: Budget, cancel: CancelToken) -> Self {
        Governor {
            budget,
            cancel,
            start: Instant::now(),
            deadline_at: budget.deadline.map(|d| Instant::now() + d),
            nodes: 0,
            checks: 0,
            tripped: degenerate_trip(&budget),
            shared: None,
            obs: Obs::none(),
            worker_id: None,
            hb_interval: None,
            last_hb: Instant::now(),
            fault: None,
        }
    }

    /// Attaches a fault-injection plan: ticks matching the plan's trigger
    /// fire the planned fault (see [`FaultPlan`]).
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(FaultState::new(plan, self.worker_id));
        self
    }

    /// Attaches an observer. [`Governor::poll`] starts emitting budget
    /// heartbeats at [`DEFAULT_HEARTBEAT_INTERVAL`] (override with
    /// [`Governor::with_heartbeat_interval`]), and solvers built on this
    /// governor forward their structured events to the same sink.
    pub fn with_observer(mut self, obs: Obs) -> Self {
        if obs.enabled() && self.hb_interval.is_none() {
            self.hb_interval = Some(DEFAULT_HEARTBEAT_INTERVAL);
        }
        self.obs = obs;
        self
    }

    /// Sets the minimum spacing between heartbeats. `Duration::ZERO`
    /// emits on every poll (deterministic for tests).
    pub fn with_heartbeat_interval(mut self, interval: Duration) -> Self {
        self.hb_interval = Some(interval);
        self
    }

    /// Tags this governor's events with a worker id. [`SharedGovernor`]
    /// assigns ids automatically; a server worker pool minting one
    /// governor per request sets the pool thread's id here so heartbeats
    /// and solve events attribute to the right worker.
    pub fn with_worker_id(mut self, id: u64) -> Self {
        self.worker_id = Some(id);
        self
    }

    /// The observer sink this governor (and any solver driving it)
    /// reports to.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// The worker id assigned by [`SharedGovernor::worker`], when this
    /// governor serves a parallel batch.
    pub fn worker_id(&self) -> Option<u64> {
        self.worker_id
    }

    /// A governor with no cancellation channel.
    pub fn from_budget(budget: Budget) -> Self {
        Governor::new(budget, CancelToken::new())
    }

    /// An unlimited governor (counts, never interrupts unless cancelled).
    pub fn unlimited() -> Self {
        Governor::from_budget(Budget::unlimited())
    }

    /// The budget this governor enforces.
    pub fn budget(&self) -> &Budget {
        &self.budget
    }

    /// Search nodes consumed so far by this governor (this worker's share
    /// when minted from a [`SharedGovernor`]).
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// CHECK invocations consumed so far by this governor.
    pub fn checks(&self) -> u64 {
        self.checks
    }

    /// Nodes counted against the budget: the cross-thread total when this
    /// governor shares counters, its own tally otherwise.
    fn budget_nodes(&self) -> u64 {
        match &self.shared {
            Some(s) => s.nodes.load(Ordering::Relaxed),
            None => self.nodes,
        }
    }

    /// CHECKs counted against the budget (cross-thread total if shared).
    fn budget_checks(&self) -> u64 {
        match &self.shared {
            Some(s) => s.checks.load(Ordering::Relaxed),
            None => self.checks,
        }
    }

    /// Wall-clock time since creation.
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// The interrupt, if one has tripped.
    pub fn interrupt(&self) -> Option<Interrupt> {
        self.tripped
    }

    fn trip(&mut self, reason: InterruptReason) -> Interrupt {
        let i = Interrupt {
            reason,
            nodes: self.budget_nodes(),
            checks: self.budget_checks(),
        };
        self.tripped = Some(i);
        i
    }

    /// Fires a planned fault at tick site `site` (the trigger has already
    /// matched). Consumes one injection from the plan's allowance; when
    /// the allowance is exhausted the fault is a no-op and the tick
    /// proceeds normally.
    fn inject(&mut self, site: &'static str) -> Result<(), Interrupt> {
        let Some(state) = &self.fault else {
            return Ok(());
        };
        if !state.plan.try_consume() {
            return Ok(());
        }
        let kind = state.plan.kind();
        if self.obs.enabled() {
            self.obs.fault(&FaultEvent {
                kind: kind.as_str(),
                site,
                trigger: state.plan.trigger().describe(),
                nodes: self.nodes,
                checks: self.checks,
                worker: self.worker_id,
            });
        }
        match kind {
            FaultKind::Interrupt => Err(self.trip(InterruptReason::FaultInjected)),
            FaultKind::Cancel => {
                self.cancel.cancel();
                Err(self.trip(InterruptReason::Cancelled))
            }
            // The planned fault *is* a panic: the harness arms it to
            // prove worker panics propagate. It is the one panic site the
            // crate's gate admits.
            #[allow(clippy::panic)]
            FaultKind::Panic => std::panic::panic_any(InjectedPanic { site }),
        }
    }

    /// The largest fraction consumed of any configured limit (nodes,
    /// checks, deadline), or `None` when the budget is unlimited. Shared
    /// governors report the batch-wide fraction.
    pub fn budget_fraction(&self) -> Option<f64> {
        let mut fraction: Option<f64> = None;
        let mut fold = |x: f64| fraction = Some(fraction.map_or(x, |f: f64| f.max(x)));
        if let Some(limit) = self.budget.node_limit.filter(|&l| l > 0) {
            fold(self.budget_nodes() as f64 / limit as f64);
        }
        if let Some(limit) = self.budget.check_limit.filter(|&l| l > 0) {
            fold(self.budget_checks() as f64 / limit as f64);
        }
        if let Some(deadline) = self.budget.deadline.filter(|d| !d.is_zero()) {
            fold(self.start.elapsed().as_secs_f64() / deadline.as_secs_f64());
        }
        fraction
    }

    /// Emits a budget heartbeat when an observer is attached and the
    /// heartbeat interval has elapsed since the last one.
    fn maybe_heartbeat(&mut self) {
        let Some(interval) = self.hb_interval else {
            return;
        };
        if !self.obs.enabled() {
            return;
        }
        let now = Instant::now();
        if now.duration_since(self.last_hb) < interval {
            return;
        }
        self.last_hb = now;
        let elapsed = now.duration_since(self.start);
        let nodes = self.budget_nodes();
        self.obs.heartbeat(&Heartbeat {
            nodes,
            checks: self.budget_checks(),
            elapsed_us: elapsed.as_micros() as u64,
            nodes_per_sec: if elapsed.is_zero() {
                0.0
            } else {
                nodes as f64 / elapsed.as_secs_f64()
            },
            budget_fraction: self.budget_fraction(),
            worker: self.worker_id,
        });
    }

    /// Polls deadline and cancellation unconditionally (used on coarse
    /// boundaries, e.g. between batch items), emitting a budget heartbeat
    /// when an observer is attached and the interval has elapsed.
    pub fn poll(&mut self) -> Result<(), Interrupt> {
        if let Some(i) = self.tripped {
            return Err(i);
        }
        self.maybe_heartbeat();
        if self.cancel.is_cancelled() {
            return Err(self.trip(InterruptReason::Cancelled));
        }
        if let Some(at) = self.deadline_at {
            if Instant::now() >= at {
                return Err(self.trip(InterruptReason::Deadline));
            }
        }
        Ok(())
    }

    /// Accounts one search node; checks the node limit on every call and
    /// deadline/cancellation every [`POLL_INTERVAL`] nodes.
    pub fn tick_node(&mut self) -> Result<(), Interrupt> {
        if let Some(i) = self.tripped {
            return Err(i);
        }
        self.nodes += 1;
        let counted = match &self.shared {
            Some(s) => s.nodes.fetch_add(1, Ordering::Relaxed) + 1,
            None => self.nodes,
        };
        let nodes = self.nodes;
        if self
            .fault
            .as_mut()
            .is_some_and(|f| f.due_node(nodes))
        {
            self.inject("node")?;
        }
        if let Some(limit) = self.budget.node_limit {
            if counted > limit {
                return Err(self.trip(InterruptReason::NodeLimit));
            }
        }
        if self.nodes.is_multiple_of(POLL_INTERVAL) {
            self.poll()
        } else {
            Ok(())
        }
    }

    /// Accounts one CHECK invocation; checks every limit (CHECK calls are
    /// coarse enough that polling the clock each time is fine).
    pub fn tick_check(&mut self) -> Result<(), Interrupt> {
        if let Some(i) = self.tripped {
            return Err(i);
        }
        self.checks += 1;
        let counted = match &self.shared {
            Some(s) => s.checks.fetch_add(1, Ordering::Relaxed) + 1,
            None => self.checks,
        };
        let checks = self.checks;
        if self
            .fault
            .as_mut()
            .is_some_and(|f| f.due_check(checks))
        {
            self.inject("check")?;
        }
        if let Some(limit) = self.budget.check_limit {
            if counted > limit {
                return Err(self.trip(InterruptReason::CheckLimit));
            }
        }
        self.poll()
    }

    /// Charges work done on this governor's behalf by a batch of worker
    /// governors (see [`run_items`]): the counts land in this governor's
    /// tallies, and in its shared counters when it has them.
    fn charge(&mut self, nodes: u64, checks: u64) {
        self.nodes += nodes;
        self.checks += checks;
        if let Some(s) = &self.shared {
            s.nodes.fetch_add(nodes, Ordering::Relaxed);
            s.checks.fetch_add(checks, Ordering::Relaxed);
        }
    }

    /// Guards a recursion depth against the depth limit.
    pub fn guard_depth(&mut self, depth: usize) -> Result<(), Interrupt> {
        if let Some(i) = self.tripped {
            return Err(i);
        }
        if self
            .fault
            .as_mut()
            .is_some_and(|f| f.due_depth(depth))
        {
            self.inject("depth")?;
        }
        if let Some(limit) = self.budget.depth_limit {
            if depth > limit {
                return Err(self.trip(InterruptReason::DepthLimit));
            }
        }
        Ok(())
    }
}

/// Cross-thread node/check tallies behind a [`SharedGovernor`].
#[derive(Debug, Default)]
struct SharedCounters {
    nodes: AtomicU64,
    checks: AtomicU64,
}

impl SharedCounters {
    /// Counters that start from work already charged elsewhere.
    fn seeded(nodes: u64, checks: u64) -> Self {
        SharedCounters {
            nodes: AtomicU64::new(nodes),
            checks: AtomicU64::new(checks),
        }
    }
}

/// One budget shared by a batch of worker threads.
///
/// A parallel batch driver creates a `SharedGovernor` and mints one
/// [`Governor`] per worker with [`SharedGovernor::worker`]. Every worker
/// tick lands in a common pair of atomic counters, and node/check limits
/// are enforced against the cross-thread totals, so the whole batch —
/// not each worker — gets the budget. Deadline and cancellation are
/// shared too: the deadline is anchored at the `SharedGovernor`'s
/// creation, and all workers watch the same [`CancelToken`].
#[derive(Debug, Clone)]
pub struct SharedGovernor {
    budget: Budget,
    cancel: CancelToken,
    start: Instant,
    deadline_at: Option<Instant>,
    counters: Arc<SharedCounters>,
    obs: Obs,
    hb_interval: Option<Duration>,
    next_worker: Arc<AtomicU64>,
    fault: Option<FaultPlan>,
}

impl SharedGovernor {
    /// A shared governor measuring from now.
    pub fn new(budget: Budget, cancel: CancelToken) -> Self {
        SharedGovernor {
            budget,
            cancel,
            start: Instant::now(),
            deadline_at: budget.deadline.map(|d| Instant::now() + d),
            counters: Arc::new(SharedCounters::default()),
            obs: Obs::none(),
            hb_interval: None,
            next_worker: Arc::new(AtomicU64::new(0)),
            fault: None,
        }
    }

    /// Attaches a fault-injection plan inherited by every minted worker
    /// governor. The plan's injection allowance is shared batch-wide;
    /// seeded schedules give each worker a distinct deterministic stream.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.fault = Some(plan);
        self
    }

    /// Attaches an observer inherited by every minted worker governor;
    /// worker heartbeats carry the batch-wide counters plus a worker id.
    pub fn with_observer(mut self, obs: Obs) -> Self {
        if obs.enabled() && self.hb_interval.is_none() {
            self.hb_interval = Some(DEFAULT_HEARTBEAT_INTERVAL);
        }
        self.obs = obs;
        self
    }

    /// Sets the per-worker heartbeat spacing (see
    /// [`Governor::with_heartbeat_interval`]).
    pub fn with_heartbeat_interval(mut self, interval: Duration) -> Self {
        self.hb_interval = Some(interval);
        self
    }

    /// Mints a per-worker governor charging this shared budget. Send the
    /// result into the worker thread; it behaves like a normal governor
    /// except that limits trip on the batch-wide totals. Workers are
    /// numbered in minting order.
    pub fn worker(&self) -> Governor {
        let worker_id = Some(self.next_worker.fetch_add(1, Ordering::Relaxed));
        Governor {
            budget: self.budget,
            cancel: self.cancel.clone(),
            start: self.start,
            deadline_at: self.deadline_at,
            nodes: 0,
            checks: 0,
            tripped: degenerate_trip(&self.budget),
            shared: Some(Arc::clone(&self.counters)),
            obs: self.obs.clone(),
            worker_id,
            hb_interval: self.hb_interval,
            last_hb: Instant::now(),
            fault: self
                .fault
                .as_ref()
                .map(|p| FaultState::new(p.clone(), worker_id)),
        }
    }

    /// The cancellation token every worker watches.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// Total search nodes consumed across all workers.
    pub fn nodes(&self) -> u64 {
        self.counters.nodes.load(Ordering::Relaxed)
    }

    /// Total CHECK invocations consumed across all workers.
    pub fn checks(&self) -> u64 {
        self.counters.checks.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_trips() {
        let mut gov = Governor::unlimited();
        for _ in 0..100_000 {
            gov.tick_node().unwrap();
        }
        gov.tick_check().unwrap();
        gov.guard_depth(1_000_000).unwrap();
        assert_eq!(gov.nodes(), 100_000);
        assert_eq!(gov.checks(), 1);
        assert!(gov.interrupt().is_none());
    }

    #[test]
    fn node_limit_trips_and_sticks() {
        let mut gov = Governor::from_budget(Budget::unlimited().with_node_limit(10));
        for _ in 0..10 {
            gov.tick_node().unwrap();
        }
        let i = gov.tick_node().unwrap_err();
        assert_eq!(i.reason, InterruptReason::NodeLimit);
        assert_eq!(i.nodes, 11);
        // Sticky: everything fails from now on, with the same interrupt.
        assert_eq!(gov.tick_check().unwrap_err(), i);
        assert_eq!(gov.guard_depth(0).unwrap_err(), i);
        assert_eq!(gov.interrupt(), Some(i));
    }

    #[test]
    fn check_limit_trips() {
        let mut gov = Governor::from_budget(Budget::unlimited().with_check_limit(2));
        gov.tick_check().unwrap();
        gov.tick_check().unwrap();
        assert_eq!(
            gov.tick_check().unwrap_err().reason,
            InterruptReason::CheckLimit
        );
    }

    #[test]
    fn depth_limit_trips() {
        let mut gov = Governor::from_budget(Budget::unlimited().with_depth_limit(5));
        gov.guard_depth(5).unwrap();
        assert_eq!(
            gov.guard_depth(6).unwrap_err().reason,
            InterruptReason::DepthLimit
        );
    }

    #[test]
    fn zero_deadline_trips_within_poll_interval() {
        let mut gov = Governor::from_budget(Budget::unlimited().with_deadline(Duration::ZERO));
        let mut tripped = None;
        for _ in 0..(POLL_INTERVAL + 1) {
            if let Err(i) = gov.tick_node() {
                tripped = Some(i);
                break;
            }
        }
        assert_eq!(tripped.unwrap().reason, InterruptReason::Deadline);
    }

    #[test]
    fn cancel_token_is_shared() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        let mut gov = Governor::new(Budget::unlimited(), clone);
        assert_eq!(gov.poll().unwrap_err().reason, InterruptReason::Cancelled);
    }

    #[test]
    fn cancellation_from_another_thread() {
        let token = CancelToken::new();
        let remote = token.clone();
        let handle = std::thread::spawn(move || remote.cancel());
        handle.join().unwrap();
        let mut gov = Governor::new(Budget::unlimited(), token);
        assert_eq!(
            gov.tick_check().unwrap_err().reason,
            InterruptReason::Cancelled
        );
    }

    #[test]
    fn budget_builder_composes() {
        let b = Budget::unlimited()
            .with_deadline(Duration::from_millis(5))
            .with_node_limit(7)
            .with_check_limit(3)
            .with_depth_limit(9);
        assert!(b.is_limited());
        assert_eq!(b.node_limit, Some(7));
        assert_eq!(b.check_limit, Some(3));
        assert_eq!(b.depth_limit, Some(9));
        assert!(!Budget::unlimited().is_limited());
    }

    #[test]
    fn budget_intersection_takes_the_tighter_limit() {
        let policy = Budget::unlimited()
            .with_deadline(Duration::from_millis(100))
            .with_node_limit(1_000);
        let ask = Budget::unlimited()
            .with_deadline(Duration::from_millis(500))
            .with_node_limit(10)
            .with_check_limit(5);
        let capped = policy.intersect(ask);
        assert_eq!(capped.deadline, Some(Duration::from_millis(100)));
        assert_eq!(capped.node_limit, Some(10));
        assert_eq!(capped.check_limit, Some(5));
        assert_eq!(capped.depth_limit, None);
        // Unlimited on both sides stays unlimited; intersection with an
        // unlimited budget is the identity.
        assert_eq!(Budget::unlimited().intersect(Budget::unlimited()), Budget::unlimited());
        assert_eq!(Budget::unlimited().intersect(policy), policy);
    }

    #[test]
    fn interrupt_display_names_reason() {
        let i = Interrupt::new(InterruptReason::Deadline);
        assert!(i.to_string().contains("deadline"));
        assert!(InterruptReason::Cancelled.to_string().contains("cancel"));
        assert!(InterruptReason::FanoutOverflow.to_string().contains("fan-out"));
    }

    #[test]
    fn child_token_does_not_cancel_parent() {
        let parent = CancelToken::new();
        let child = parent.child();
        child.cancel();
        assert!(child.is_cancelled());
        assert!(!parent.is_cancelled());
    }

    #[test]
    fn parent_cancellation_reaches_children() {
        let parent = CancelToken::new();
        let child = parent.child();
        let grandchild = child.child();
        parent.cancel();
        assert!(child.is_cancelled());
        assert!(grandchild.is_cancelled());
    }

    #[test]
    fn shared_node_limit_is_batch_wide() {
        let shared = SharedGovernor::new(
            Budget::unlimited().with_node_limit(10),
            CancelToken::new(),
        );
        let mut a = shared.worker();
        let mut b = shared.worker();
        for _ in 0..5 {
            a.tick_node().unwrap();
        }
        for _ in 0..5 {
            b.tick_node().unwrap();
        }
        // Each worker is well under the limit alone, but the pooled total
        // is exhausted: the next tick on either worker trips.
        let i = a.tick_node().unwrap_err();
        assert_eq!(i.reason, InterruptReason::NodeLimit);
        assert!(i.nodes > 10);
        assert_eq!(shared.nodes(), 11);
        assert_eq!(a.nodes(), 6);
        assert_eq!(b.nodes(), 5);
    }

    #[test]
    fn shared_check_limit_is_batch_wide() {
        let shared = SharedGovernor::new(
            Budget::unlimited().with_check_limit(2),
            CancelToken::new(),
        );
        let mut a = shared.worker();
        let mut b = shared.worker();
        a.tick_check().unwrap();
        b.tick_check().unwrap();
        assert_eq!(
            a.tick_check().unwrap_err().reason,
            InterruptReason::CheckLimit
        );
        assert_eq!(shared.checks(), 3);
    }

    #[test]
    fn shared_counters_accumulate_across_threads() {
        let shared = SharedGovernor::new(Budget::unlimited(), CancelToken::new());
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let mut gov = shared.worker();
                scope.spawn(move || {
                    for _ in 0..1000 {
                        gov.tick_node().unwrap();
                    }
                    gov.tick_check().unwrap();
                });
            }
        });
        assert_eq!(shared.nodes(), 4000);
        assert_eq!(shared.checks(), 4);
    }

    #[test]
    fn shared_cancellation_stops_every_worker() {
        let shared = SharedGovernor::new(Budget::unlimited(), CancelToken::new());
        shared.cancel_token().cancel();
        let mut gov = shared.worker();
        assert_eq!(gov.poll().unwrap_err().reason, InterruptReason::Cancelled);
    }

    #[test]
    fn poll_emits_heartbeats_at_zero_interval() {
        let sink = Arc::new(odc_obs::CollectingObserver::new());
        let mut gov = Governor::from_budget(Budget::unlimited().with_node_limit(1000))
            .with_observer(Obs::new(sink.clone()))
            .with_heartbeat_interval(Duration::ZERO);
        for _ in 0..10 {
            gov.tick_node().unwrap();
        }
        gov.poll().unwrap();
        gov.poll().unwrap();
        let beats: Vec<Heartbeat> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                odc_obs::Event::Heartbeat(hb) => Some(hb),
                _ => None,
            })
            .collect();
        assert_eq!(beats.len(), 2);
        assert_eq!(beats[1].nodes, 10);
        let frac = beats[1].budget_fraction.unwrap();
        assert!((frac - 0.01).abs() < 1e-9, "10/1000 of the node budget");
    }

    #[test]
    fn default_interval_spaces_heartbeats_out() {
        let sink = Arc::new(odc_obs::CollectingObserver::new());
        let mut gov = Governor::unlimited().with_observer(Obs::new(sink.clone()));
        // Well under DEFAULT_HEARTBEAT_INTERVAL: no heartbeat yet.
        gov.poll().unwrap();
        gov.poll().unwrap();
        assert!(sink.events().is_empty());
    }

    #[test]
    fn budget_fraction_takes_the_max_limit() {
        let mut gov = Governor::from_budget(
            Budget::unlimited().with_node_limit(100).with_check_limit(4),
        );
        assert_eq!(gov.budget_fraction(), Some(0.0));
        for _ in 0..10 {
            gov.tick_node().unwrap();
        }
        gov.tick_check().unwrap();
        // 10/100 nodes vs 1/4 checks: checks dominate.
        assert_eq!(gov.budget_fraction(), Some(0.25));
        assert_eq!(Governor::unlimited().budget_fraction(), None);
    }

    #[test]
    fn zero_node_limit_pre_trips_with_zeroed_counters() {
        let mut gov = Governor::from_budget(Budget::unlimited().with_node_limit(0));
        let i = gov.interrupt().expect("pre-tripped at creation");
        assert_eq!(i.reason, InterruptReason::NodeLimit);
        assert_eq!((i.nodes, i.checks), (0, 0));
        // The very first tick fails; nothing was consumed.
        assert_eq!(gov.tick_node().unwrap_err(), i);
        assert_eq!(gov.nodes(), 0);
    }

    #[test]
    fn zero_deadline_pre_trips_before_any_node() {
        let mut gov = Governor::from_budget(Budget::unlimited().with_deadline(Duration::ZERO));
        assert_eq!(
            gov.tick_node().unwrap_err().reason,
            InterruptReason::Deadline
        );
        assert_eq!(gov.nodes(), 0, "no node consumed under a zero deadline");
    }

    #[test]
    fn zero_check_limit_pre_trips() {
        let mut gov = Governor::from_budget(Budget::unlimited().with_check_limit(0));
        assert_eq!(
            gov.tick_check().unwrap_err().reason,
            InterruptReason::CheckLimit
        );
        assert_eq!(gov.checks(), 0);
    }

    #[test]
    fn shared_workers_inherit_degenerate_pre_trip() {
        let shared =
            SharedGovernor::new(Budget::unlimited().with_node_limit(0), CancelToken::new());
        let mut w = shared.worker();
        assert_eq!(
            w.tick_node().unwrap_err().reason,
            InterruptReason::NodeLimit
        );
        assert_eq!(shared.nodes(), 0);
    }

    #[test]
    fn fault_interrupt_fires_every_nth_node() {
        let plan = FaultPlan::new(FaultKind::Interrupt, FaultTrigger::EveryNthNode(5));
        let mut gov = Governor::unlimited().with_fault_plan(plan.clone());
        for _ in 0..4 {
            gov.tick_node().unwrap();
        }
        let i = gov.tick_node().unwrap_err();
        assert_eq!(i.reason, InterruptReason::FaultInjected);
        assert_eq!(plan.injections(), 1);
        // Sticky, like any interrupt.
        assert_eq!(gov.tick_node().unwrap_err(), i);
    }

    #[test]
    fn fault_cancel_reaches_sibling_workers() {
        let cancel = CancelToken::new();
        let plan = FaultPlan::new(FaultKind::Cancel, FaultTrigger::EveryNthCheck(1));
        let shared = SharedGovernor::new(Budget::unlimited(), cancel.clone())
            .with_fault_plan(plan);
        let mut a = shared.worker();
        let mut b = shared.worker();
        assert_eq!(
            a.tick_check().unwrap_err().reason,
            InterruptReason::Cancelled
        );
        // The injected cancellation is visible to the sibling too.
        assert_eq!(b.poll().unwrap_err().reason, InterruptReason::Cancelled);
        assert!(cancel.is_cancelled());
    }

    #[test]
    fn fault_panic_carries_injected_payload() {
        let plan = FaultPlan::new(FaultKind::Panic, FaultTrigger::AtDepth(3));
        let mut gov = Governor::unlimited().with_fault_plan(plan);
        gov.guard_depth(2).unwrap();
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ = gov.guard_depth(3);
        }))
        .unwrap_err();
        let injected = err.downcast_ref::<InjectedPanic>().expect("typed payload");
        assert_eq!(injected.site, "depth");
    }

    #[test]
    fn fault_allowance_is_shared_and_bounded() {
        let plan = FaultPlan::new(FaultKind::Interrupt, FaultTrigger::EveryNthNode(1))
            .with_max_injections(2);
        // First governor consumes one injection.
        let mut a = Governor::unlimited().with_fault_plan(plan.clone());
        assert!(a.tick_node().is_err());
        // Second consumes the last.
        let mut b = Governor::unlimited().with_fault_plan(plan.clone());
        assert!(b.tick_node().is_err());
        // Exhausted: a third governor runs unharmed.
        let mut c = Governor::unlimited().with_fault_plan(plan.clone());
        for _ in 0..100 {
            c.tick_node().unwrap();
        }
        assert_eq!(plan.injections(), 2);
    }

    #[test]
    fn seeded_fault_schedule_is_reproducible() {
        let fire_points = |seed: u64| -> Vec<u64> {
            let plan = FaultPlan::new(
                FaultKind::Interrupt,
                FaultTrigger::Seeded {
                    seed,
                    per_mille: 40,
                },
            );
            // Re-arm a fresh governor after each firing to observe several
            // points of the same per-governor stream... a single governor
            // is sticky, so instead collect the first firing for a range
            // of prefixes: identical seeds must fire at identical nodes.
            let mut gov = Governor::unlimited().with_fault_plan(plan);
            let mut n = 0;
            loop {
                n += 1;
                if gov.tick_node().is_err() {
                    return vec![n];
                }
                assert!(n < 10_000, "seeded schedule never fired");
            }
        };
        assert_eq!(fire_points(7), fire_points(7));
        assert_ne!(fire_points(7), fire_points(8), "distinct seeds diverge");
    }

    #[test]
    fn fault_events_are_tagged_in_observer_output() {
        let sink = Arc::new(odc_obs::CollectingObserver::new());
        let plan = FaultPlan::new(FaultKind::Interrupt, FaultTrigger::EveryNthNode(3));
        let mut gov = Governor::unlimited()
            .with_observer(Obs::new(sink.clone()))
            .with_fault_plan(plan);
        while gov.tick_node().is_ok() {}
        let faults: Vec<FaultEvent> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                odc_obs::Event::Fault(f) => Some(f),
                _ => None,
            })
            .collect();
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].kind, "interrupt");
        assert_eq!(faults[0].site, "node");
        assert_eq!(faults[0].nodes, 3);
        assert!(faults[0].trigger.contains("every 3th node"));
    }

    #[test]
    fn checkpoint_envelope_roundtrips() {
        let mut env = CheckpointEnvelope::new("dimsat-solve", 0xDEAD_BEEF);
        env.line("root 3");
        env.line("cursor 0 5 2");
        let text = env.to_text();
        assert!(text.starts_with("odc-checkpoint v1\n"));
        assert!(text.ends_with("end\n"));
        let parsed = CheckpointEnvelope::parse(&text).unwrap();
        assert_eq!(parsed, env);
        let payload = parsed.expect("dimsat-solve", 0xDEAD_BEEF).unwrap();
        assert_eq!(payload, ["root 3".to_string(), "cursor 0 5 2".to_string()]);
    }

    #[test]
    fn checkpoint_envelope_rejects_mismatches() {
        let env = CheckpointEnvelope::new("dimsat-solve", 1);
        let parsed = CheckpointEnvelope::parse(&env.to_text()).unwrap();
        assert!(matches!(
            parsed.expect("category-sweep", 1),
            Err(CheckpointError::KindMismatch { .. })
        ));
        assert!(matches!(
            parsed.expect("dimsat-solve", 2),
            Err(CheckpointError::FingerprintMismatch { .. })
        ));
        assert!(matches!(
            CheckpointEnvelope::parse("odc-checkpoint v999\nkind x\nfingerprint 0\nend\n"),
            Err(CheckpointError::VersionMismatch {
                found: 999,
                supported: CHECKPOINT_VERSION
            })
        ));
        // Truncation (lost tail) is detected via the terminator.
        assert!(matches!(
            CheckpointEnvelope::parse("odc-checkpoint v1\nkind x\nfingerprint 0\npartial"),
            Err(CheckpointError::Malformed(_))
        ));
        assert!(CheckpointEnvelope::parse("not a checkpoint").is_err());
    }

    #[test]
    fn shared_workers_get_distinct_ids_and_the_shared_sink() {
        let sink = Arc::new(odc_obs::CollectingObserver::new());
        let shared = SharedGovernor::new(Budget::unlimited(), CancelToken::new())
            .with_observer(Obs::new(sink.clone()))
            .with_heartbeat_interval(Duration::ZERO);
        let mut a = shared.worker();
        let mut b = shared.worker();
        assert_eq!(a.worker_id(), Some(0));
        assert_eq!(b.worker_id(), Some(1));
        a.poll().unwrap();
        b.poll().unwrap();
        let workers: Vec<Option<u64>> = sink
            .events()
            .into_iter()
            .filter_map(|e| match e {
                odc_obs::Event::Heartbeat(hb) => Some(hb.worker),
                _ => None,
            })
            .collect();
        assert_eq!(workers, vec![Some(0), Some(1)]);
    }
}
