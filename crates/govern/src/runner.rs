//! The one worker runner behind every reasoning battery (the category
//! sweep, the Theorem-1 battery, each stage of the advisor audit): a
//! list of independent items decided under one budget.

use crate::{Governor, Interrupt, SharedCounters, SharedGovernor};
use odc_obs::WorkerStats;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// What one item tells the runner once it has run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// The item is decided; go on with the next one.
    Next,
    /// The item is decided and settles the whole battery (a
    /// countermodel): every worker stops after its current item.
    Settle,
    /// The item was interrupted; this worker stops.
    Stop(Interrupt),
}

/// The merged result of one battery run.
#[derive(Debug)]
pub struct Ran<T> {
    /// Item results by item index; `None` for items that never ran.
    pub items: Vec<Option<T>>,
    /// The lowest-index interrupted item, with its interrupt.
    pub interrupt: Option<(usize, Interrupt)>,
}

/// Runs the items `order` yields (indices into `0..n`) through `f`
/// on `jobs` workers and merges the results by index.
///
/// With `jobs <= 1` (or a single item) the items run inline on `gov` in
/// `order`, stopping at the first [`Flow::Settle`] or [`Flow::Stop`]: no
/// thread and no extra event. Otherwise worker `w` runs the order's
/// positions `w`, `w + jobs`, …, charging one [`SharedGovernor`] budget
/// seeded with what `gov` has already consumed and watching a
/// battery-internal child of `gov`'s cancel token (so [`Flow::Settle`]
/// stops the siblings without flipping the caller's token); each worker
/// emits one `worker_finished` event labelled `battery`, and a worker
/// panic is re-raised on the caller's thread. When the workers return,
/// their counters are charged to `gov`, and an interrupt that was not a
/// settlement trips `gov` like a serial interrupt would.
pub fn run_items<T: Send>(
    gov: &mut Governor,
    jobs: usize,
    n: usize,
    order: impl Iterator<Item = usize> + Clone + Send,
    battery: &'static str,
    f: impl Fn(usize, &mut Governor) -> (T, Flow) + Sync,
) -> Ran<T> {
    let mut items: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let jobs = jobs.clamp(1, order.clone().count().max(1));
    if jobs == 1 {
        for i in order {
            let (t, flow) = f(i, gov);
            items[i] = Some(t);
            match flow {
                Flow::Next => {}
                Flow::Settle => break,
                Flow::Stop(e) => {
                    return Ran {
                        items,
                        interrupt: Some((i, e)),
                    }
                }
            }
        }
        return Ran {
            items,
            interrupt: None,
        };
    }

    let settle = gov.cancel.child();
    let settled = AtomicBool::new(false);
    let (nodes_before, checks_before) = (gov.budget_nodes(), gov.budget_checks());
    let shared = SharedGovernor {
        budget: gov.budget,
        cancel: settle.clone(),
        start: gov.start,
        deadline_at: gov.deadline_at,
        counters: Arc::new(SharedCounters::seeded(nodes_before, checks_before)),
        obs: gov.obs.clone(),
        hb_interval: gov.hb_interval,
        next_worker: Default::default(),
        fault: gov.fault.as_ref().map(|s| s.plan.clone()),
    };
    type Slice<T> = (Vec<(usize, T)>, Option<(usize, Interrupt)>);
    let slices: Vec<Slice<T>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let mut wgov = shared.worker();
                let stripe = order.clone().skip(w).step_by(jobs);
                let (f, settle, settled) = (&f, &settle, &settled);
                scope.spawn(move || {
                    let mut done = Vec::new();
                    let mut stop = None;
                    for i in stripe {
                        let (t, flow) = f(i, &mut wgov);
                        done.push((i, t));
                        match flow {
                            Flow::Next => {}
                            Flow::Settle => {
                                settled.store(true, Ordering::Relaxed);
                                settle.cancel();
                                break;
                            }
                            Flow::Stop(e) => {
                                stop = Some((i, e));
                                break;
                            }
                        }
                    }
                    wgov.obs().worker_finished(&WorkerStats {
                        battery,
                        worker: wgov.worker_id().unwrap_or(w as u64),
                        nodes: wgov.nodes(),
                        checks: wgov.checks(),
                        items: done.len() as u64,
                    });
                    (done, stop)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(slice) => slice,
                // A worker panic is a bug, not a verdict: re-raise it
                // instead of reporting the worker's items as undecided.
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect()
    });

    let mut interrupt: Option<(usize, Interrupt)> = None;
    for (done, stop) in slices {
        for (i, t) in done {
            items[i] = Some(t);
        }
        if let Some((i, e)) = stop {
            if interrupt.is_none_or(|(j, _)| i < j) {
                interrupt = Some((i, e));
            }
        }
    }
    gov.charge(
        shared.nodes().saturating_sub(nodes_before),
        shared.checks().saturating_sub(checks_before),
    );
    if let Some((_, e)) = interrupt {
        if !settled.load(Ordering::Relaxed) {
            gov.tripped.get_or_insert(e);
        }
    }
    Ran { items, interrupt }
}
