//! The resident server: configuration, shared state, and graceful
//! drain.
//!
//! ## IO
//!
//! A single readiness loop over nonblocking sockets plus
//! schema-affinity solver shards serves every connection; see
//! [`crate::event`]. Idle connections cost a buffer, not a thread.
//! Commands execute through [`crate::exec`], so responses are
//! byte-identical to the CLI. The loop needs a unix readiness poller;
//! on other targets [`Server::run`] fails with
//! [`io::ErrorKind::Unsupported`].
//!
//! ## Budgets and drain
//!
//! Every reasoning request runs under its own [`Governor`]: budget =
//! `policy.intersect(client ask)`, cancel token = child of the server's
//! drain token. `shutdown` (or `SIGTERM` when installed) cancels the
//! drain token, which reaches every in-flight solve; each interrupted
//! solve's checkpoint is written as an `odc-checkpoint v1` envelope to
//! the checkpoint directory, so no work is silently lost. When a cache
//! directory is configured, drain also persists every resident
//! schema's warm cache ([`crate::persist`]) so the next start answers
//! warm.
//!
//! [`Governor`]: odc_core::Governor

use crate::catalog::SchemaCatalog;
use crate::protocol::Command;
use odc_core::obs::{ConnEvent, Obs, RequestEvent};
use odc_core::{Budget, CancelToken};
use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Server configuration.
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port).
    pub addr: String,
    /// Number of solver shards.
    pub workers: usize,
    /// Admission bound: the maximum resident connections — one past it
    /// answers `overloaded` and is closed. `0` rejects everything
    /// (useful for testing admission control).
    pub queue_cap: usize,
    /// Server-wide per-request budget cap; each request runs under
    /// `policy.intersect(client ask)`.
    pub policy: Budget,
    /// Where drain/disconnect checkpoints are written (one
    /// `request-<id>.ckpt` envelope per interrupted solve). `None`
    /// disables checkpoint persistence.
    pub checkpoint_dir: Option<PathBuf>,
    /// Warm-cache directory. When set, `bind` reloads every schema
    /// persisted there (with its implication cache and proved facts),
    /// and drain writes the current warm state back — restart-warm
    /// without `--repo` and without traffic replay. See
    /// [`crate::persist`].
    pub cache_dir: Option<PathBuf>,
    /// Directory of a crash-safe [`VerdictRepo`]. When set, schemas
    /// loaded into the catalog (and their audit verdicts) persist
    /// across server restarts: `bind` re-loads every stored schema and
    /// `audit` requests answer warm from disk.
    ///
    /// [`VerdictRepo`]: odc_core::repo::VerdictRepo
    pub repo: Option<PathBuf>,
    /// Structured-event sink; receives conn/request lifecycle events and
    /// every solve event with the request id stamped on.
    pub obs: Obs,
    /// Also drain on `SIGTERM` (unix only; the CLI sets this, tests
    /// usually do not).
    pub handle_sigterm: bool,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 4,
            queue_cap: 1024,
            policy: Budget::unlimited(),
            checkpoint_dir: None,
            cache_dir: None,
            repo: None,
            obs: Obs::none(),
            handle_sigterm: false,
        }
    }
}

/// Counters reported when the server exits.
#[derive(Debug, Clone, Default)]
pub struct ServeStats {
    /// Requests that received a response.
    pub served: u64,
    /// Connections rejected by admission control.
    pub rejected: u64,
    /// Drain checkpoints written.
    pub checkpoints: u64,
    /// Schemas whose warm caches were persisted on drain.
    pub caches_persisted: u64,
}

/// State shared by the IO thread and the solver shards: catalog,
/// policy, counters, drain.
pub(crate) struct Shared {
    pub(crate) catalog: SchemaCatalog,
    pub(crate) policy: Budget,
    pub(crate) checkpoint_dir: Option<PathBuf>,
    pub(crate) cache_dir: Option<PathBuf>,
    pub(crate) repo: Option<Arc<odc_core::repo::VerdictRepo>>,
    pub(crate) obs: Obs,
    pub(crate) queue_cap: usize,
    /// Root of every request's cancel token; cancelled exactly when
    /// drain starts.
    pub(crate) drain: CancelToken,
    pub(crate) next_request: AtomicU64,
    pub(crate) served: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) checkpoints: AtomicU64,
    /// The event loop's wakeup channel (see [`crate::poller`]), set for
    /// the duration of a run so cross-thread drain triggers interrupt
    /// the poll immediately.
    pub(crate) wake: Mutex<Option<TcpStream>>,
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

impl Shared {
    pub(crate) fn begin_drain(&self) {
        self.drain.cancel();
        #[cfg(unix)]
        if let Some(w) = &*lock(&self.wake) {
            crate::poller::wake(w);
        }
    }

    pub(crate) fn is_draining(&self) -> bool {
        self.drain.is_cancelled()
    }
}

/// A handle for triggering drain from another thread (tests, the CLI's
/// signal path).
#[derive(Clone)]
pub struct ShutdownHandle(Arc<Shared>);

impl ShutdownHandle {
    /// Starts the graceful drain: stop accepting, interrupt in-flight
    /// solves, checkpoint them, exit [`Server::run`].
    pub fn drain(&self) {
        self.0.begin_drain();
    }

    /// Whether drain has started.
    pub fn is_draining(&self) -> bool {
        self.0.is_draining()
    }
}

/// The bound server. Preload schemas via [`Server::catalog`], then call
/// [`Server::run`].
pub struct Server {
    listener: TcpListener,
    addr: SocketAddr,
    shared: Arc<Shared>,
    handle_sigterm: bool,
    workers: usize,
}

impl Server {
    /// Binds the listener and builds the shared state. Nothing runs
    /// until [`Server::run`].
    pub fn bind(config: ServeConfig) -> io::Result<Server> {
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        if let Some(dir) = &config.checkpoint_dir {
            std::fs::create_dir_all(dir)?;
        }
        let repo = match &config.repo {
            Some(dir) => Some(Arc::new(odc_core::repo::VerdictRepo::open(
                dir,
                config.obs.clone(),
                None,
            )?)),
            None => None,
        };
        let shared = Arc::new(Shared {
            catalog: SchemaCatalog::new(),
            policy: config.policy,
            checkpoint_dir: config.checkpoint_dir,
            cache_dir: config.cache_dir,
            repo,
            obs: config.obs,
            queue_cap: config.queue_cap,
            drain: CancelToken::new(),
            next_request: AtomicU64::new(1),
            served: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            checkpoints: AtomicU64::new(0),
            wake: Mutex::new(None),
        });
        // Restart-warm catalog: every schema the repository has seen
        // comes back resident before the first request, and its stored
        // verdicts are immediately reachable by fingerprint. A source
        // that no longer parses (format drift) is skipped, not fatal.
        if let Some(r) = &shared.repo {
            for (_fp, name, source) in r.schemas() {
                let _ = shared.catalog.load_text(&name, &source);
            }
        }
        // Warm-cache persistence: schemas drained to the cache dir come
        // back with their implication caches and proved facts seeded,
        // so the first request after a restart is a cache hit, not a
        // fresh proof.
        if let Some(dir) = &shared.cache_dir {
            let _ = crate::persist::load(&shared.catalog, dir);
        }
        Ok(Server {
            listener,
            addr,
            shared,
            handle_sigterm: config.handle_sigterm,
            workers: config.workers.max(1),
        })
    }

    /// The bound address (resolves `:0` to the picked port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The resident schema catalog (for preloading before `run`).
    pub fn catalog(&self) -> &SchemaCatalog {
        &self.shared.catalog
    }

    /// A drain trigger usable from another thread.
    pub fn shutdown_handle(&self) -> ShutdownHandle {
        ShutdownHandle(Arc::clone(&self.shared))
    }

    /// Serves until drained (`shutdown` command, [`ShutdownHandle`], or
    /// `SIGTERM` when configured). Returns the run's counters.
    pub fn run(self) -> io::Result<ServeStats> {
        if self.handle_sigterm {
            sigterm::install();
        }
        let shared = self.shared;
        #[cfg(unix)]
        let result = crate::event::run(self.listener, &shared, self.workers, self.handle_sigterm);
        #[cfg(not(unix))]
        let result = Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "odc-serve needs a unix readiness poller",
        ));

        // Teardown: persist warm caches, flush the repository index,
        // report counters.
        let mut caches_persisted = 0u64;
        if let Some(dir) = &shared.cache_dir {
            if let Ok((schemas, _entries)) = crate::persist::save(&shared.catalog, dir) {
                caches_persisted = schemas as u64;
            }
        }
        if let Some(r) = &shared.repo {
            // Persist the index before exit so the next open needs no
            // segment rescan (the segments themselves are already safe).
            let _ = r.flush();
        }
        let stats = ServeStats {
            served: shared.served.load(Ordering::SeqCst),
            rejected: shared.rejected.load(Ordering::SeqCst),
            checkpoints: shared.checkpoints.load(Ordering::SeqCst),
            caches_persisted,
        };
        result.map(|()| stats)
    }
}

pub(crate) fn emit_conn(obs: &Obs, conn_id: u64, phase: &'static str, peer: &str) {
    if obs.enabled() {
        obs.conn(&ConnEvent {
            conn_id,
            phase,
            peer: peer.to_string(),
        });
    }
}

#[allow(clippy::too_many_arguments)]
pub(crate) fn emit_request(
    shared: &Shared,
    request_id: u64,
    conn_id: u64,
    phase: &'static str,
    cmd: &Command,
    status: Option<String>,
    elapsed_us: Option<u64>,
    worker: Option<u64>,
) {
    if shared.obs.enabled() {
        shared.obs.request(&RequestEvent {
            request_id,
            conn_id,
            phase,
            command: cmd.name().to_string(),
            schema: cmd.schema().map(str::to_string),
            status,
            elapsed_us,
            worker,
        });
    }
}

/// Raw `SIGTERM` handling (unix): a C signal handler flipping a static
/// flag the event loop polls. No `libc` crate — the `signal`
/// symbol comes from the C runtime `std` already links.
#[cfg(unix)]
pub(crate) mod sigterm {
    use std::sync::atomic::{AtomicBool, Ordering};

    static TERM: AtomicBool = AtomicBool::new(false);
    const SIGTERM: i32 = 15;

    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    pub fn install() {
        unsafe {
            signal(SIGTERM, on_term);
        }
    }

    pub fn pending() -> bool {
        TERM.load(Ordering::SeqCst)
    }
}

#[cfg(not(unix))]
pub(crate) mod sigterm {
    pub fn install() {}
}
