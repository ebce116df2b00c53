//! The server's IO path: one readiness loop, many connections,
//! schema-affinity solver shards.
//!
//! ## Shape
//!
//! A single IO thread owns every socket. It polls them (epoll on
//! Linux, `poll(2)` elsewhere — [`crate::poller`]) and runs a small
//! state machine per connection: `Idle` (parsing request lines),
//! `AwaitBlock` (collecting a `load` command's dot-framed schema
//! text), `Solving` (a reasoning request is in flight on a shard).
//! Reads and writes are nonblocking with per-connection buffers, so a
//! slow or idle peer costs a buffer, not a thread: five thousand idle
//! connections are five thousand epoll registrations and zero
//! runnable threads.
//!
//! Fast commands (`ping`, `stats`, `load`, …) run inline on the IO
//! thread — they are microseconds of work and never block. Reasoning
//! commands are dispatched to a *shard*: requests hash by schema name,
//! so one shard owns all traffic against a given schema and that
//! schema's [`ImplicationCache`]/plan/fact state is touched by one
//! worker at a time — warm-cache reuse without cross-shard lock
//! traffic. The IO thread resolves the catalog `Arc` before
//! dispatching, so shards never take the catalog lock at all.
//! Completions come back through a queue plus a loopback wake socket.
//!
//! ## Ordering and framing
//!
//! Responses always come back in request order, but execution is
//! pipelined: each connection may have up to [`DISPATCH_WINDOW`]
//! reasoning requests in flight across shards at once. Every
//! response-producing unit (solve, fast command, parse error) takes a
//! per-connection sequence number when its request line is consumed;
//! completions land in a reorder buffer and only flush to the write
//! buffer in sequence. Past the window (or the read-buffer soft cap)
//! the loop simply stops consuming input, which is backpressure by
//! TCP. Each response is serialized into the connection's write buffer
//! as one contiguous dot-framed block, and buffers only ever drain
//! in-order from the front, so concurrent clients can never observe
//! interleaved or torn frames regardless of how many shards are
//! solving.
//!
//! ## Disconnects and drain
//!
//! EOF/hangup arrives as a readiness event. A peer
//! that vanishes mid-solve flips the [`CancelToken`] of every request
//! it has in flight; each interrupted solve still checkpoints. Drain
//! (`shutdown`, [`crate::server::ShutdownHandle`], SIGTERM) stops
//! accepting, tells idle connections `error server draining`, cancels
//! in-flight solves, and still *delivers* their `unknown …` responses
//! (checkpoint pointers included) before closing.
//!
//! [`ImplicationCache`]: odc_core::dimsat::ImplicationCache

use crate::catalog::CatalogEntry;
use crate::exec::{self, Effect};
use crate::poller::{self, Interest, Poller};
use crate::protocol::{Command, Response};
use crate::server::{emit_conn, emit_request, lock, sigterm, Shared};
use odc_core::CancelToken;
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

const TOK_LISTENER: u64 = 0;
const TOK_WAKE: u64 = 1;
/// First token handed to an accepted connection.
const TOK_BASE: u64 = 2;

/// Read-buffer size past which the loop stops draining a connection's
/// socket while a solve is in flight (resumed on completion). TCP's
/// own flow control then pushes back on the client.
const RBUF_SOFT_CAP: usize = 1 << 20;
/// A single request line (or `load` block) larger than this is a
/// protocol error, not a memory commitment.
const LINE_CAP: usize = 1 << 20;
const BLOCK_CAP: usize = 16 << 20;
/// How long drain waits for unflushed responses before force-closing.
const DRAIN_GRACE: Duration = Duration::from_secs(10);
/// After the drain deadline, responses still buffered get one bounded
/// *blocking* flush each before the connection drops. Cutting a
/// dot-framed response off mid-block corrupts the protocol for the
/// peer; this grace only runs out on a peer that stopped reading.
const FINAL_FLUSH_GRACE: Duration = Duration::from_secs(5);
/// Maximum reasoning requests one connection may have in flight across
/// shards. Pipelined clients amortize the IO-thread/shard handoff over
/// the whole window instead of ping-ponging per request.
const DISPATCH_WINDOW: usize = 64;

/// One reasoning request in flight on a shard.
struct Job {
    conn: u64,
    /// The connection-local response slot this job's answer fills.
    seq: u64,
    request_id: u64,
    cmd: Command,
    entry: Arc<CatalogEntry>,
    token: CancelToken,
    started: Instant,
}

/// A finished solve on its way back to the IO thread.
struct Done {
    conn: u64,
    seq: u64,
    response: Response,
}

/// The shards' return channel: completed jobs plus a latched wake flag
/// so a busy burst costs one wake byte, not one syscall per response.
struct Completions {
    list: Mutex<Vec<Done>>,
    /// True while a wake byte is in flight / the IO thread has not yet
    /// drained. Cleared by the IO thread right before it takes `list`.
    wake_armed: AtomicBool,
}

/// One shard's mailbox. `stop` + empty queue terminates the worker;
/// queued jobs are always finished first (during drain their tokens
/// are already cancelled, so they finish fast — but they finish).
struct ShardQueue {
    q: Mutex<VecDeque<Job>>,
    cv: Condvar,
    stop: AtomicBool,
}

impl ShardQueue {
    fn new() -> Self {
        ShardQueue {
            q: Mutex::new(VecDeque::new()),
            cv: Condvar::new(),
            stop: AtomicBool::new(false),
        }
    }

    fn halt(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.cv.notify_all();
    }
}

/// Per-connection protocol state.
enum ConnState {
    /// Between requests: the read buffer is scanned for request lines.
    Idle,
    /// A `load` line arrived; collecting its dot-framed schema block.
    AwaitBlock {
        cmd: Command,
        request_id: u64,
        seq: u64,
        started: Instant,
    },
}

/// One reasoning request this connection has on a shard.
struct Inflight {
    seq: u64,
    token: CancelToken,
}

/// One nonblocking connection owned by the IO thread.
struct EConn {
    stream: TcpStream,
    id: u64,
    peer: String,
    /// Bytes read but not yet consumed; `rpos` is the consumed prefix.
    rbuf: Vec<u8>,
    rpos: usize,
    /// Bytes serialized but not yet written; `wpos` is the flushed
    /// prefix. Partial writes and `WouldBlock` leave the tail here and
    /// arm write interest.
    wbuf: Vec<u8>,
    wpos: usize,
    state: ConnState,
    /// Reasoning requests currently on shards (at most
    /// [`DISPATCH_WINDOW`]).
    inflight: Vec<Inflight>,
    /// Next response sequence number to assign.
    next_seq: u64,
    /// Next sequence number the write buffer is waiting for.
    flush_seq: u64,
    /// Responses completed out of order, parked until their turn.
    outbox: BTreeMap<u64, Response>,
    /// Peer sent EOF (half-close); buffered requests still complete.
    read_closed: bool,
    /// Close once the write buffer drains.
    closing: bool,
    /// Hard socket error: close now, deliver nothing.
    dead: bool,
    /// Read interest withheld (buffer soft cap hit mid-solve).
    paused_read: bool,
    /// Interest currently registered with the poller.
    registered: Interest,
}

impl EConn {
    fn pending_read(&self) -> usize {
        self.rbuf.len() - self.rpos
    }

    fn pending_write(&self) -> bool {
        self.wpos < self.wbuf.len()
    }

    fn solving(&self) -> bool {
        !self.inflight.is_empty()
    }

    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// The interest this connection should be polled with right now.
    fn wanted(&self) -> Interest {
        Interest {
            read: !self.read_closed && !self.paused_read && !self.closing,
            write: self.pending_write(),
        }
    }
}

/// Immutable context threaded through the helpers.
struct Ctx<'a> {
    shared: &'a Arc<Shared>,
    shards: &'a [Arc<ShardQueue>],
    /// Worker id stamped on requests the IO thread answers inline
    /// (one past the last shard id, so shard ids stay dense).
    io_worker: u64,
}

fn shard_for(shards: &[Arc<ShardQueue>], schema: &str) -> usize {
    let mut h = DefaultHasher::new();
    schema.hash(&mut h);
    (h.finish() % shards.len() as u64) as usize
}

fn shard_loop(
    shared: &Arc<Shared>,
    shard: &ShardQueue,
    completions: &Completions,
    wake: &TcpStream,
    shard_id: u64,
) {
    loop {
        let job = {
            let mut q = lock(&shard.q);
            loop {
                if let Some(j) = q.pop_front() {
                    break Some(j);
                }
                if shard.stop.load(Ordering::SeqCst) {
                    break None;
                }
                q = shard.cv.wait(q).unwrap_or_else(|e| e.into_inner());
            }
        };
        let Some(job) = job else { return };
        let response = exec::execute_solve(
            shared,
            &job.cmd,
            &job.entry,
            job.request_id,
            shard_id,
            &job.token,
        );
        shared.served.fetch_add(1, Ordering::SeqCst);
        emit_request(
            shared,
            job.request_id,
            job.conn,
            "end",
            &job.cmd,
            Some(response.status_word().to_string()),
            Some(job.started.elapsed().as_micros() as u64),
            Some(shard_id),
        );
        lock(&completions.list).push(Done {
            conn: job.conn,
            seq: job.seq,
            response,
        });
        if !completions.wake_armed.swap(true, Ordering::SeqCst) {
            poller::wake(wake);
        }
    }
}

/// Appends a serialized response block to the connection's write
/// buffer (a `Vec` write cannot fail).
fn push_response(conn: &mut EConn, resp: &Response) {
    let _ = resp.write_to(&mut conn.wbuf);
}

/// Files a response into its sequence slot and flushes every response
/// that is now contiguous — responses leave in request order no matter
/// which shard finished first.
fn emit_response(conn: &mut EConn, seq: u64, resp: Response) {
    if seq == conn.flush_seq && conn.outbox.is_empty() {
        push_response(conn, &resp);
        conn.flush_seq += 1;
    } else {
        conn.outbox.insert(seq, resp);
    }
    while let Some(r) = conn.outbox.remove(&conn.flush_seq) {
        push_response(conn, &r);
        conn.flush_seq += 1;
    }
}

/// Writes as much buffered output as the socket accepts. Returns false
/// when the connection died.
fn try_flush(conn: &mut EConn) -> bool {
    while conn.pending_write() {
        match (&conn.stream).write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return false,
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return false,
        }
    }
    if !conn.pending_write() {
        conn.wbuf.clear();
        conn.wpos = 0;
    }
    true
}

/// Finishes a connection's buffered output with bounded blocking
/// writes. Runs once per connection at loop teardown: a nonblocking
/// `try_flush` there would truncate any response larger than the
/// socket's send buffer inside its dot-framed block. The deadline
/// bounds a peer that stops reading; a peer that keeps consuming gets
/// the whole response.
fn flush_remaining(conn: &mut EConn, grace: Duration) {
    if conn.dead || !conn.pending_write() {
        let _ = try_flush(conn);
        return;
    }
    if conn.stream.set_nonblocking(false).is_err() {
        return;
    }
    let deadline = Instant::now() + grace;
    while conn.pending_write() {
        let left = deadline.saturating_duration_since(Instant::now());
        if left.is_zero() || conn.stream.set_write_timeout(Some(left)).is_err() {
            return;
        }
        match (&conn.stream).write(&conn.wbuf[conn.wpos..]) {
            Ok(0) => return,
            Ok(n) => conn.wpos += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // A write timeout surfaces as WouldBlock or TimedOut
            // depending on the platform; either way the grace is spent.
            Err(_) => return,
        }
    }
}

/// Drains the socket into `rbuf` until `WouldBlock`, EOF, the soft cap
/// (mid-solve), or a hard error.
fn fill_rbuf(conn: &mut EConn) {
    let mut chunk = [0u8; 16384];
    loop {
        if conn.solving() && conn.pending_read() >= RBUF_SOFT_CAP {
            conn.paused_read = true;
            return;
        }
        match conn.stream.read(&mut chunk) {
            Ok(0) => {
                conn.read_closed = true;
                return;
            }
            Ok(n) => conn.rbuf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Takes one `\n`-terminated line off the read buffer.
/// `Some(Err(()))` means the line cap was blown.
fn take_line(conn: &mut EConn) -> Option<Result<String, ()>> {
    let buf = &conn.rbuf[conn.rpos..];
    match buf.iter().position(|&b| b == b'\n') {
        Some(idx) => {
            let line = String::from_utf8_lossy(&buf[..idx]).into_owned();
            conn.rpos += idx + 1;
            Some(Ok(line))
        }
        None if buf.len() > LINE_CAP => Some(Err(())),
        None => None,
    }
}

/// Takes one dot-terminated block off the read buffer, undoing
/// dot-stuffing. `None` means the terminator has not arrived yet;
/// `Some(Err(msg))` means the block is unparseable (bad UTF-8) or over
/// the cap.
fn take_block(conn: &mut EConn) -> Option<Result<String, String>> {
    let buf = &conn.rbuf[conn.rpos..];
    let mut pos = 0;
    while let Some(nl) = buf[pos..].iter().position(|&b| b == b'\n') {
        let mut line = &buf[pos..pos + nl];
        if let [rest @ .., b'\r'] = line {
            line = rest;
        }
        if line == b"." {
            let consumed = pos + nl + 1;
            let mut reader = io::BufReader::new(&buf[..consumed]);
            let result = crate::protocol::read_block(&mut reader)
                .map_err(|e| format!("reading schema text: {e}"));
            conn.rpos += consumed;
            return Some(result);
        }
        pos += nl + 1;
    }
    if buf.len() > BLOCK_CAP {
        return Some(Err(format!(
            "reading schema text: block exceeds {BLOCK_CAP} bytes"
        )));
    }
    None
}

/// Runs one non-solve command inline on the IO thread, with full
/// request lifecycle events.
fn run_fast(ctx: &Ctx<'_>, conn: &mut EConn, cmd: &Command, load_text: Option<&str>) {
    let request_id = ctx.shared.next_request.fetch_add(1, Ordering::SeqCst);
    let seq = conn.take_seq();
    let started = Instant::now();
    emit_request(ctx.shared, request_id, conn.id, "start", cmd, None, None, None);
    let (response, effect) = exec::execute_fast(ctx.shared, cmd, load_text);
    finish_fast(ctx, conn, cmd, request_id, seq, started, response, effect);
}

/// Counts, emits, and sequences an inline command's response.
#[allow(clippy::too_many_arguments)]
fn finish_fast(
    ctx: &Ctx<'_>,
    conn: &mut EConn,
    cmd: &Command,
    request_id: u64,
    seq: u64,
    started: Instant,
    response: Response,
    effect: Effect,
) {
    ctx.shared.served.fetch_add(1, Ordering::SeqCst);
    emit_request(
        ctx.shared,
        request_id,
        conn.id,
        "end",
        cmd,
        Some(response.status_word().to_string()),
        Some(started.elapsed().as_micros() as u64),
        Some(ctx.io_worker),
    );
    emit_response(conn, seq, response);
    if effect == Effect::Close {
        conn.closing = true;
    }
}

/// Hands a reasoning command to its schema's affinity shard (or answers
/// the catalog miss inline).
fn dispatch_solve(ctx: &Ctx<'_>, conn: &mut EConn, cmd: Command) {
    let request_id = ctx.shared.next_request.fetch_add(1, Ordering::SeqCst);
    let seq = conn.take_seq();
    let started = Instant::now();
    emit_request(ctx.shared, request_id, conn.id, "start", &cmd, None, None, None);
    let name = cmd.schema().unwrap_or("").to_string();
    let Some(entry) = ctx.shared.catalog.get(&name) else {
        let response = exec::no_such_schema(&name);
        finish_fast(ctx, conn, &cmd, request_id, seq, started, response, Effect::Keep);
        return;
    };
    let token = ctx.shared.drain.child();
    conn.inflight.push(Inflight {
        seq,
        token: token.clone(),
    });
    let shard = &ctx.shards[shard_for(ctx.shards, &name)];
    lock(&shard.q).push_back(Job {
        conn: conn.id,
        seq,
        request_id,
        cmd,
        entry,
        token,
        started,
    });
    shard.cv.notify_one();
}

/// Consumes as much buffered input as the protocol state allows: whole
/// request lines while `Idle` (dispatching up to [`DISPATCH_WINDOW`]
/// solves ahead), a schema block while `AwaitBlock`.
fn process_input(ctx: &Ctx<'_>, conn: &mut EConn) {
    loop {
        if conn.closing || conn.dead {
            break;
        }
        match std::mem::replace(&mut conn.state, ConnState::Idle) {
            ConnState::AwaitBlock {
                cmd,
                request_id,
                seq,
                started,
            } => match take_block(conn) {
                None => {
                    conn.state = ConnState::AwaitBlock {
                        cmd,
                        request_id,
                        seq,
                        started,
                    };
                    break;
                }
                Some(Ok(text)) => {
                    let (response, effect) = exec::execute_fast(ctx.shared, &cmd, Some(&text));
                    finish_fast(ctx, conn, &cmd, request_id, seq, started, response, effect);
                }
                Some(Err(msg)) => {
                    // A broken block is unrecoverable (framing is
                    // lost): answer and close.
                    finish_fast(
                        ctx,
                        conn,
                        &cmd,
                        request_id,
                        seq,
                        started,
                        Response::error(&msg),
                        Effect::Close,
                    );
                }
            },
            ConnState::Idle => {
                if conn.inflight.len() >= DISPATCH_WINDOW {
                    // Window full: stop consuming; completions re-enter
                    // here and pick the buffered lines back up.
                    break;
                }
                let line = match take_line(conn) {
                    None => break,
                    Some(Err(())) => {
                        let seq = conn.take_seq();
                        emit_response(
                            conn,
                            seq,
                            Response::error(&format!("request line exceeds {LINE_CAP} bytes")),
                        );
                        conn.closing = true;
                        break;
                    }
                    Some(Ok(l)) => l,
                };
                let request = line.trim();
                if request.is_empty() {
                    continue;
                }
                match Command::parse(request) {
                    Err(e) => {
                        let seq = conn.take_seq();
                        emit_response(conn, seq, Response::error(&e));
                    }
                    Ok(Command::Load { name }) => {
                        let request_id = ctx.shared.next_request.fetch_add(1, Ordering::SeqCst);
                        let seq = conn.take_seq();
                        let cmd = Command::Load { name };
                        emit_request(ctx.shared, request_id, conn.id, "start", &cmd, None, None, None);
                        conn.state = ConnState::AwaitBlock {
                            cmd,
                            request_id,
                            seq,
                            started: Instant::now(),
                        };
                    }
                    Ok(cmd) if exec::is_solve(&cmd) => dispatch_solve(ctx, conn, cmd),
                    Ok(cmd) => run_fast(ctx, conn, &cmd, None),
                }
            }
        }
    }
    // Compact the consumed prefix so a long-lived connection's buffer
    // does not grow with traffic served.
    if conn.rpos > 0 {
        conn.rbuf.drain(..conn.rpos);
        conn.rpos = 0;
    }
}

/// Post-event fixup for one connection: close it if it is finished or
/// dead, otherwise reconcile poller interest. Also cancels every
/// in-flight solve of a vanished peer.
fn settle(
    conns: &mut HashMap<u64, EConn>,
    poller: &mut Poller,
    shared: &Shared,
    id: u64,
) {
    let Some(conn) = conns.get_mut(&id) else { return };
    let mut close = conn.dead;
    if !close && conn.read_closed && conn.pending_read() == 0 {
        if conn.solving() {
            // Peer hung up with nothing left to deliver its responses
            // to: stop the solves (they still checkpoint) and forget
            // the connection; completions are discarded on arrival.
            for f in &conn.inflight {
                f.token.cancel();
            }
            close = true;
        } else if !conn.pending_write() {
            close = true;
        }
    }
    if !close && conn.closing && !conn.pending_write() && !conn.solving() {
        close = true;
    }
    if close {
        for f in &conn.inflight {
            f.token.cancel();
        }
        poller.remove(poller::fd_of(&conn.stream));
        emit_conn(&shared.obs, conn.id, "closed", &conn.peer);
        conns.remove(&id);
        return;
    }
    let want = conn.wanted();
    if want != conn.registered {
        let fd = poller::fd_of(&conn.stream);
        if poller.modify(fd, id, want).is_err() {
            conn.dead = true;
            poller.remove(fd);
            emit_conn(&shared.obs, conn.id, "closed", &conn.peer);
            conns.remove(&id);
            return;
        }
        conn.registered = want;
    }
}

/// Accepts every pending connection; over-capacity peers get
/// `overloaded` and are closed (admission control). fd exhaustion
/// backs off instead of killing the server.
fn accept_ready(
    ctx: &Ctx<'_>,
    listener: &TcpListener,
    conns: &mut HashMap<u64, EConn>,
    poller: &mut Poller,
    next_token: &mut u64,
) {
    loop {
        match listener.accept() {
            Ok((stream, peer)) => {
                let peer = peer.to_string();
                if ctx.shared.is_draining() {
                    let mut s = stream;
                    let _ = Response::error("server draining").write_to(&mut s);
                    continue;
                }
                if conns.len() >= ctx.shared.queue_cap {
                    ctx.shared.rejected.fetch_add(1, Ordering::SeqCst);
                    let id = *next_token;
                    *next_token += 1;
                    emit_conn(&ctx.shared.obs, id, "rejected_overloaded", &peer);
                    let mut s = stream;
                    let _ = s.set_nonblocking(true);
                    let _ = Response::overloaded().write_to(&mut s);
                    continue;
                }
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let id = *next_token;
                *next_token += 1;
                let registered = Interest::READ;
                if poller
                    .add(poller::fd_of(&stream), id, registered)
                    .is_err()
                {
                    continue;
                }
                emit_conn(&ctx.shared.obs, id, "accepted", &peer);
                conns.insert(
                    id,
                    EConn {
                        stream,
                        id,
                        peer,
                        rbuf: Vec::new(),
                        rpos: 0,
                        wbuf: Vec::new(),
                        wpos: 0,
                        state: ConnState::Idle,
                        inflight: Vec::new(),
                        next_seq: 0,
                        flush_seq: 0,
                        outbox: BTreeMap::new(),
                        read_closed: false,
                        closing: false,
                        dead: false,
                        paused_read: false,
                        registered,
                    },
                );
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            // EMFILE/ENFILE and other transient accept failures: a
            // resident server backs off and retries on the next tick
            // rather than dying under fd pressure.
            Err(_) => break,
        }
    }
}

/// Hands a completed solve's response back to its connection and lets
/// it dispatch more buffered input. Flushing and poller reconciliation
/// are left to the caller so a burst of completions costs one write
/// per connection, not one per response. Returns the touched
/// connection id.
fn deliver(ctx: &Ctx<'_>, conns: &mut HashMap<u64, EConn>, done: Done) -> Option<u64> {
    let conn = conns.get_mut(&done.conn)?;
    // The peer may have vanished mid-solve (conn gone / cancel ran):
    // completions for unknown slots are simply dropped.
    let slot = conn.inflight.iter().position(|f| f.seq == done.seq)?;
    conn.inflight.swap_remove(slot);
    emit_response(conn, done.seq, done.response);
    if ctx.shared.is_draining() && !conn.solving() {
        conn.closing = true;
    }
    if conn.paused_read {
        conn.paused_read = false;
    }
    if !conn.closing {
        // Pipelined requests buffered during the solve run now.
        process_input(ctx, conn);
    }
    Some(done.conn)
}

/// The server body: runs until drained. Counter/teardown bookkeeping
/// (cache persistence, repo flush, stats) happens in
/// [`crate::server::Server::run`].
pub(crate) fn run(
    listener: TcpListener,
    shared: &Arc<Shared>,
    workers: usize,
    handle_sigterm: bool,
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    let mut poller = Poller::new()?;
    let (wake_w, wake_r) = poller::wake_pair()?;
    *lock(&shared.wake) = Some(wake_w.try_clone()?);
    poller.add(poller::fd_of(&listener), TOK_LISTENER, Interest::READ)?;
    poller.add(poller::fd_of(&wake_r), TOK_WAKE, Interest::READ)?;

    let shards: Vec<Arc<ShardQueue>> =
        (0..workers.max(1)).map(|_| Arc::new(ShardQueue::new())).collect();
    let completions = Arc::new(Completions {
        list: Mutex::new(Vec::new()),
        wake_armed: AtomicBool::new(false),
    });
    let handles: Vec<_> = shards
        .iter()
        .enumerate()
        .map(|(i, shard)| {
            let shared = Arc::clone(shared);
            let shard = Arc::clone(shard);
            let completions = Arc::clone(&completions);
            let wake = wake_w.try_clone();
            std::thread::spawn(move || {
                if let Ok(wake) = wake {
                    shard_loop(&shared, &shard, &completions, &wake, i as u64);
                }
            })
        })
        .collect();

    let ctx = Ctx {
        shared,
        shards: &shards,
        io_worker: shards.len() as u64,
    };
    let mut conns: HashMap<u64, EConn> = HashMap::new();
    let mut next_token = TOK_BASE;
    let mut events = Vec::new();
    let mut drain_started = false;
    let mut drain_deadline = Instant::now();
    let mut fatal: Option<io::Error> = None;

    loop {
        let timeout = if drain_started { 20 } else { 100 };
        if let Err(e) = poller.wait(timeout, &mut events) {
            fatal = Some(e);
            shared.begin_drain();
        }
        if handle_sigterm && sigterm::pending() {
            shared.begin_drain();
        }
        for &ev in &events {
            match ev.token {
                TOK_LISTENER => {
                    accept_ready(&ctx, &listener, &mut conns, &mut poller, &mut next_token)
                }
                TOK_WAKE => poller::drain_wakeups(&wake_r),
                id => {
                    let Some(conn) = conns.get_mut(&id) else { continue };
                    if ev.readable {
                        fill_rbuf(conn);
                        if !conn.dead {
                            process_input(&ctx, conn);
                        }
                    }
                    if !conn.dead && (ev.writable || conn.pending_write()) && !try_flush(conn) {
                        conn.dead = true;
                    }
                    settle(&mut conns, &mut poller, shared, id);
                }
            }
        }
        completions.wake_armed.store(false, Ordering::SeqCst);
        let done: Vec<Done> = std::mem::take(&mut *lock(&completions.list));
        let mut touched: Vec<u64> = Vec::with_capacity(done.len());
        for d in done {
            if let Some(id) = deliver(&ctx, &mut conns, d) {
                touched.push(id);
            }
        }
        touched.sort_unstable();
        touched.dedup();
        for id in touched {
            if let Some(conn) = conns.get_mut(&id) {
                if !try_flush(conn) {
                    conn.dead = true;
                }
            }
            settle(&mut conns, &mut poller, shared, id);
        }
        if shared.is_draining() {
            if !drain_started {
                drain_started = true;
                drain_deadline = Instant::now() + DRAIN_GRACE;
                poller.remove(poller::fd_of(&listener));
                // Finish what is queued, then stop: cancelled tokens
                // make queued/in-flight solves return fast, but every
                // one still gets its checkpointed `unknown` response.
                for shard in &shards {
                    shard.halt();
                }
                let ids: Vec<u64> = conns.keys().copied().collect();
                for id in ids {
                    let Some(conn) = conns.get_mut(&id) else { continue };
                    if !conn.solving() && !conn.closing {
                        push_response(conn, &Response::error("server draining"));
                        conn.closing = true;
                    }
                    if !try_flush(conn) {
                        conn.dead = true;
                    }
                    settle(&mut conns, &mut poller, shared, id);
                }
            }
            let idle = conns
                .values()
                .all(|c| !c.solving() && !c.pending_write());
            if conns.is_empty() || (idle && lock(&completions.list).is_empty()) {
                break;
            }
            if Instant::now() >= drain_deadline {
                break;
            }
        }
    }

    for shard in &shards {
        shard.halt();
    }
    for h in handles {
        let _ = h.join();
    }
    // Completions that raced the shutdown still deliver.
    let done: Vec<Done> = std::mem::take(&mut *lock(&completions.list));
    for d in done {
        deliver(&ctx, &mut conns, d);
    }
    for conn in conns.values_mut() {
        flush_remaining(conn, FINAL_FLUSH_GRACE);
    }
    for (_, conn) in conns.drain() {
        emit_conn(&shared.obs, conn.id, "closed", &conn.peer);
    }
    *lock(&shared.wake) = None;
    match fatal {
        Some(e) => Err(e),
        None => Ok(()),
    }
}
