//! Integration battery for the resident server: warm-catalog reuse,
//! budget policy intersection, admission control, disconnect
//! cancellation, and graceful drain with checkpointing.

use odc_core::obs::{CollectingObserver, Event, Obs};
use odc_core::Budget;
use odc_serve::{Client, Response, ServeConfig, Server, ShutdownHandle};
use std::io::Write;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn location_text() -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("examples/location.odcs");
    std::fs::read_to_string(&p).unwrap()
}

/// A diamond ladder of depth `n`: frozen enumeration from `Root` is
/// exponential in `n`, so an ungoverned solve effectively never
/// finishes — the knife for cancellation and drain tests.
fn ladder_text(n: usize) -> String {
    let mut s = String::from("hierarchy:\n  Root > A0, B0\n");
    for i in 0..n - 1 {
        let j = i + 1;
        s.push_str(&format!("  A{i} > A{j}, B{j}\n  B{i} > A{j}, B{j}\n"));
    }
    let k = n - 1;
    s.push_str(&format!("  A{k} > All\n  B{k} > All\n"));
    s.push_str("constraints:\n");
    s
}

struct Running {
    addr: std::net::SocketAddr,
    handle: ShutdownHandle,
    join: std::thread::JoinHandle<std::io::Result<odc_serve::ServeStats>>,
}

fn start(config: ServeConfig, schemas: &[(&str, &str)]) -> Running {
    let server = Server::bind(config).unwrap();
    for (name, text) in schemas {
        server.catalog().load_text(name, text).unwrap();
    }
    let addr = server.local_addr();
    let handle = server.shutdown_handle();
    let join = std::thread::spawn(move || server.run());
    Running { addr, handle, join }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("odc-serve-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn serves_reasoning_commands_with_a_warm_catalog() {
    let loc = location_text();
    let run = start(
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
        &[("loc", &loc)],
    );
    let mut c = Client::connect(run.addr).unwrap();

    let pong = c.request("ping").unwrap();
    assert!(pong.is_ok());
    assert_eq!(pong.payload, "pong\n");

    let schemas = c.request("schemas").unwrap();
    assert!(schemas.is_ok());
    assert!(schemas.payload.contains("loc fingerprint"), "{}", schemas.payload);

    // A warm pair: the second identical implication answers from the
    // catalog's resident cache, across two *requests*.
    let q = r#"implies loc "Store.Country -> Store.City.Country""#;
    let first = c.request(q).unwrap();
    assert!(first.is_ok(), "{}", first.status);
    assert!(first.payload.starts_with("implied: true"), "{}", first.payload);
    let second = c.request(q).unwrap();
    assert_eq!(second.payload.lines().next(), first.payload.lines().next());

    let stats = c.request("stats").unwrap();
    let cache_line = stats
        .payload
        .lines()
        .find(|l| l.starts_with("schema loc"))
        .unwrap_or_else(|| panic!("no cache line in {}", stats.payload));
    let cross: u64 = cache_line
        .split_whitespace()
        .skip_while(|w| *w != "cross_hits")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(cross > 0, "warm pair produced no cross-request hits: {cache_line}");

    let s = c.request("summarizable loc Country City").unwrap();
    assert!(s.is_ok());
    assert!(s.payload.starts_with("summarizable: true"), "{}", s.payload);

    let ns = c.request("summarizable loc Country State Province").unwrap();
    assert!(ns.payload.starts_with("summarizable: false"), "{}", ns.payload);

    let chk = c.request("check loc Store").unwrap();
    assert!(chk.payload.starts_with("satisfiable: true"), "{}", chk.payload);

    let fr = c.request("frozen loc Store").unwrap();
    assert!(fr.is_ok());
    assert!(fr.payload.contains("frozen dimension(s) with root Store"), "{}", fr.payload);

    let audit = c.request("audit loc").unwrap();
    assert!(audit.is_ok());
    assert!(audit.payload.contains("unsatisfiable categories:"), "{}", audit.payload);

    // Errors are responses, not connection drops.
    let missing = c.request("implies nope \"Store_City\"").unwrap();
    assert_eq!(missing.status_word(), "error");
    let badcat = c.request("check loc Nope").unwrap();
    assert_eq!(badcat.status_word(), "error");
    let badcmd = c.request("frobnicate").unwrap();
    assert_eq!(badcmd.status_word(), "error");

    // Load / unload round trip on a second schema.
    let lad = ladder_text(3);
    let loaded = c.load("lad", &lad).unwrap();
    assert!(loaded.is_ok(), "{}", loaded.status);
    assert!(c.request("unload lad").unwrap().is_ok());
    assert_eq!(c.request("audit lad").unwrap().status_word(), "error");

    c.quit().unwrap();

    let mut c2 = Client::connect(run.addr).unwrap();
    let bye = c2.request("shutdown").unwrap();
    assert!(bye.is_ok());
    let stats = run.join.join().unwrap().unwrap();
    assert!(stats.served >= 10, "served {}", stats.served);
    assert_eq!(stats.rejected, 0);
}

#[test]
fn budget_asks_and_server_policy_intersect() {
    let loc = location_text();
    // Per-request ask tighter than the (unlimited) policy.
    let run = start(ServeConfig::default(), &[("loc", &loc)]);
    let mut c = Client::connect(run.addr).unwrap();
    let r = c
        .request("summarizable loc Country State Province --node-limit 1")
        .unwrap();
    assert_eq!(r.status_word(), "unknown", "{}", r.status);
    assert!(r.payload.starts_with("summarizable: unknown"), "{}", r.payload);
    run.handle.drain();
    run.join.join().unwrap().unwrap();

    // Policy tighter than the (absent) ask: the server caps it.
    let run = start(
        ServeConfig {
            policy: Budget::unlimited().with_node_limit(1),
            ..ServeConfig::default()
        },
        &[("loc", &loc)],
    );
    let mut c = Client::connect(run.addr).unwrap();
    let r = c.request("summarizable loc Country State Province").unwrap();
    assert_eq!(r.status_word(), "unknown", "{}", r.status);
    run.handle.drain();
    run.join.join().unwrap().unwrap();
}

#[test]
fn admission_control_answers_overloaded() {
    let run = start(
        ServeConfig {
            workers: 1,
            queue_cap: 0,
            ..ServeConfig::default()
        },
        &[],
    );
    let mut c = Client::connect(run.addr).unwrap();
    let r = c.read_response().unwrap();
    assert_eq!(r.status_word(), "overloaded");
    run.handle.drain();
    let stats = run.join.join().unwrap().unwrap();
    assert!(stats.rejected >= 1);
}

#[test]
fn client_disconnect_cancels_the_inflight_solve() {
    let collector = Arc::new(CollectingObserver::new());
    let dir = temp_dir("disconnect");
    let lad = ladder_text(40);
    let run = start(
        ServeConfig {
            workers: 1,
            checkpoint_dir: Some(dir.clone()),
            obs: Obs::new(collector.clone()),
            ..ServeConfig::default()
        },
        &[("lad", &lad)],
    );

    // Connect raw, pipeline two effectively-infinite enumerations, hang
    // up. One shard owns the schema, so the second request is still
    // queued behind the first when the peer vanishes.
    let started = Instant::now();
    {
        let mut s = std::net::TcpStream::connect(run.addr).unwrap();
        s.write_all(b"frozen lad Root\nfrozen lad Root\n").unwrap();
        s.flush().unwrap();
    } // dropped: the event loop reads EOF with both solves in flight

    // The hangup must flip both requests' CancelTokens; without that
    // each solve would grind on a 2^40 enumeration for hours.
    let deadline = Instant::now() + Duration::from_secs(30);
    let finished = loop {
        let done: Vec<_> = collector
            .events()
            .into_iter()
            .filter_map(|e| match e {
                Event::Request(r) if r.phase == "end" && r.command == "frozen" => Some(r),
                _ => None,
            })
            .collect();
        if done.len() == 2 {
            break done;
        }
        assert!(Instant::now() < deadline, "{} of 2 frozen requests finished", done.len());
        std::thread::sleep(Duration::from_millis(20));
    };
    assert!(
        started.elapsed() < Duration::from_secs(20),
        "cancellation took {:?}",
        started.elapsed()
    );
    // Each solve ended on the cancellation interrupt, not on a budget.
    let events = collector.events();
    for r in &finished {
        assert_eq!(r.status.as_deref(), Some("unknown"), "{r:?}");
        let cancelled = events.iter().any(|e| {
            matches!(e, Event::End(s) if s.request == Some(r.request_id)
                && s.interrupt.as_deref().is_some_and(|i| i.contains("cancelled")))
        });
        assert!(cancelled, "request {} not cancelled: {r:?}", r.request_id);
    }

    // The interrupted solve left a resumable envelope behind.
    let ckpt = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".ckpt"));
    assert!(ckpt.is_some(), "no checkpoint written on disconnect");

    // And the server is still alive for the next client.
    let mut c = Client::connect(run.addr).unwrap();
    assert!(c.request("ping").unwrap().is_ok());
    c.request("shutdown").unwrap();
    run.join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn drain_interrupts_solves_and_writes_resumable_checkpoints() {
    let dir = temp_dir("drain");
    let lad = ladder_text(40);
    let run = start(
        ServeConfig {
            workers: 1,
            checkpoint_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
        &[("lad", &lad)],
    );

    let mut c = Client::connect(run.addr).unwrap();
    let handle = run.handle.clone();
    let drainer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        handle.drain();
    });
    let r = c.request("frozen lad Root").unwrap();
    drainer.join().unwrap();
    assert_eq!(r.status_word(), "unknown", "{}", r.status);
    assert!(r.status.contains("cancelled"), "{}", r.status);
    assert!(r.payload.contains("checkpoint written to"), "{}", r.payload);
    // The interrupted listing is capped: an uncapped partial
    // enumeration on this ladder runs to tens of thousands of entries
    // (hundreds of MB), which a draining server cannot flush in time.
    let listed = r.payload.lines().filter(|l| l.starts_with("  f")).count();
    assert!(
        listed <= odc_serve::PARTIAL_LISTING_CAP,
        "partial listing not capped: {listed} entries"
    );

    let stats = run.join.join().unwrap().unwrap();
    assert!(stats.checkpoints >= 1, "{stats:?}");

    // The envelope is a valid odc-checkpoint v1 the solver accepts for
    // resuming the same schema.
    let entry = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .find(|e| e.file_name().to_string_lossy().ends_with(".ckpt"))
        .expect("drain left no checkpoint");
    let text = std::fs::read_to_string(entry.path()).unwrap();
    assert!(text.starts_with("odc-checkpoint v1"), "{text}");
    let ds = odc_core::parse_schema(&lad).unwrap();
    let cp = odc_core::dimsat::Dimsat::new(&ds)
        .load_checkpoint(&text)
        .expect("checkpoint should parse and match the schema");
    assert_eq!(ds.hierarchy().name(cp.root), "Root");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A `summarizable` or `audit` request cut by its budget on a server
/// with a checkpoint directory leaves its item cache there, unless it
/// holds nothing to resume, and the CLI resumes that file to the clean
/// answer.
#[test]
fn cut_batteries_leave_item_cache_checkpoints() {
    let dir = temp_dir("battery-ckpt");
    // Three bottoms, so a cut battery can have proved one implied.
    let wh = "hierarchy:\n  WA > City\n  WB > City\n  WC > City, Region\n  \
              City > Region, Country\n  Region > Country\n  Country > All\n\
              constraints:\n  WA_City\n  WB_City\n  WC.City\n";
    let wh_path = dir.join("wh.odcs");
    std::fs::write(&wh_path, wh).unwrap();
    let wh_path = wh_path.to_str().unwrap().to_string();
    let mut loc_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    loc_path.push("examples/location.odcs");
    let loc_path = loc_path.to_str().unwrap().to_string();
    let run = start(
        ServeConfig {
            checkpoint_dir: Some(dir.clone()),
            ..ServeConfig::default()
        },
        &[("loc", &location_text()), ("wh", wh)],
    );
    let mut c = Client::connect(run.addr).unwrap();
    // Location has one bottom: a battery cut in it proved nothing, so
    // it leaves no file.
    let r = c.request("summarizable loc Country State Province --node-limit 1").unwrap();
    assert_eq!(r.status_word(), "unknown", "{}", r.status);
    assert!(!r.payload.contains("checkpoint written"), "{}", r.payload);
    let cases = [
        ("summarizable wh Country City", vec!["summarizable", &wh_path, "Country", "City"]),
        ("audit loc", vec!["check", &loc_path]),
    ];
    for (request, cli) in cases {
        let path = (1..2000)
            .find_map(|limit| {
                let r = c.request(&format!("{request} --node-limit {limit}")).unwrap();
                let line = r.payload.lines().find_map(|l| l.strip_prefix("checkpoint written to "));
                line.and_then(|l| l.split(';').next()).map(str::to_string)
            })
            .unwrap_or_else(|| panic!("{request}: no cut left a checkpoint"));
        let bytes = std::fs::read(&path).unwrap();
        assert!(bytes.starts_with(b"odc-item-cache v1"), "{request}");
        let odc = |extra: &[&str]| {
            let out = std::process::Command::new(env!("CARGO_BIN_EXE_odc"))
                .args(&cli)
                .args(extra)
                .output()
                .unwrap();
            assert!(out.status.success(), "{cli:?} {extra:?}");
            out.stdout
        };
        assert_eq!(odc(&["--resume", &path]), odc(&[]), "{request}: resumed answer diverged");
    }
    c.request("shutdown").unwrap();
    run.join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn server_payloads_match_the_serial_cli_byte_for_byte() {
    let mut schema_path = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    schema_path.push("examples/location.odcs");
    let schema_file = schema_path.to_str().unwrap().to_string();
    let loc = location_text();
    let run = start(ServeConfig::default(), &[("loc", &loc)]);
    let mut c = Client::connect(run.addr).unwrap();

    // (CLI argv, server request line) pairs for every reasoning command
    // whose output the server mirrors.
    let cases: Vec<(Vec<&str>, String)> = vec![
        (
            vec!["implies", &schema_file, "Store.Country -> Store.City.Country"],
            r#"implies loc "Store.Country -> Store.City.Country""#.to_string(),
        ),
        (
            vec!["summarizable", &schema_file, "Country", "City"],
            "summarizable loc Country City".to_string(),
        ),
        (
            vec!["frozen", &schema_file, "Store"],
            "frozen loc Store".to_string(),
        ),
        (
            vec!["check", &schema_file],
            "audit loc".to_string(),
        ),
    ];
    for (cli_args, server_line) in cases {
        let out = std::process::Command::new(env!("CARGO_BIN_EXE_odc"))
            .args(&cli_args)
            .output()
            .unwrap();
        assert!(out.status.success(), "cli {cli_args:?} failed");
        let cli_text = String::from_utf8(out.stdout).unwrap();
        let resp = c.request(&server_line).unwrap();
        assert!(resp.is_ok(), "{server_line}: {}", resp.status);
        assert_eq!(resp.payload, cli_text, "divergence on `{server_line}`");
    }

    c.request("shutdown").unwrap();
    run.join.join().unwrap().unwrap();
}

#[test]
fn odc_client_subcommand_round_trips() {
    let loc = location_text();
    let run = start(ServeConfig::default(), &[("loc", &loc)]);
    let addr = run.addr.to_string();

    let out = std::process::Command::new(env!("CARGO_BIN_EXE_odc"))
        .args(["client", &addr, "implies", "loc", "Store.Country -> Store.City.Country"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.starts_with("implied: true"), "{text}");

    // A budget-exhausted request exits 2, exactly like the CLI solver.
    let out = std::process::Command::new(env!("CARGO_BIN_EXE_odc"))
        .args([
            "client", &addr, "summarizable", "loc", "Country", "State", "Province",
            "--node-limit", "1",
        ])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2), "{out:?}");

    run.handle.drain();
    run.join.join().unwrap().unwrap();
}

#[test]
fn client_retries_refused_connections_until_the_listener_binds() {
    // Reserve a port, release it, and bind it again only after a
    // delay: the first connect attempts are refused, the retry loop
    // must outlast the gap.
    let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = probe.local_addr().unwrap();
    drop(probe);
    assert!(
        Client::connect_with_retry(addr, 0).is_err(),
        "no retries: a refused connection surfaces immediately"
    );
    let binder = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(250));
        let listener = std::net::TcpListener::bind(addr).unwrap();
        let _conn = listener.accept().unwrap();
    });
    let started = Instant::now();
    Client::connect_with_retry(addr, 10).expect("retry loop outlasts the bind gap");
    assert!(started.elapsed() >= Duration::from_millis(200), "connected before the bind?");
    binder.join().unwrap();
}

/// Satellite: N clients pipelining M requests each must read back M
/// byte-exact dot-framed responses in order — no interleaving, no
/// short writes. Exercises the event loop's per-connection write
/// buffering under partial writes and the one-request-at-a-time state
/// machine under pipelined input.
fn pipelined_clients_get_exact_frames(workers: usize) {
    let loc = location_text();
    let run = start(
        ServeConfig {
            workers,
            ..ServeConfig::default()
        },
        &[("loc", &loc)],
    );

    let lines = [
        "ping",
        "check loc Store",
        r#"implies loc "Store.Country -> Store.City.Country""#,
        "summarizable loc Country City",
        "frozen loc Store",
    ];
    // Reference transcript from one serial client; every pipelined
    // client must reproduce it byte for byte, four times over.
    let mut reference = Vec::new();
    {
        let mut c = Client::connect(run.addr).unwrap();
        for l in &lines {
            let r = c.request(l).unwrap();
            assert!(r.is_ok(), "{l}: {}", r.status);
            reference.push((r.status, r.payload));
        }
        c.quit().unwrap();
    }

    const CLIENTS: usize = 6;
    const ROUNDS: usize = 4;
    let addr = run.addr;
    let reference = Arc::new(reference);
    let clients: Vec<_> = (0..CLIENTS)
        .map(|_| {
            let refs = reference.clone();
            std::thread::spawn(move || {
                let mut s = std::net::TcpStream::connect(addr).unwrap();
                let mut batch = String::new();
                for _ in 0..ROUNDS {
                    for l in &lines {
                        batch.push_str(l);
                        batch.push('\n');
                    }
                }
                // One write: all ROUNDS * lines requests land in the
                // server's read buffer at once.
                s.write_all(batch.as_bytes()).unwrap();
                s.flush().unwrap();
                let mut rd = std::io::BufReader::new(s);
                for round in 0..ROUNDS {
                    for (i, (status, payload)) in refs.iter().enumerate() {
                        let resp = Response::read_from(&mut rd)
                            .unwrap()
                            .unwrap_or_else(|| panic!("stream ended at round {round} line {i}"));
                        assert_eq!(&resp.status, status, "round {round} line {i}");
                        assert_eq!(&resp.payload, payload, "round {round} line {i}");
                    }
                }
            })
        })
        .collect();
    for t in clients {
        t.join().unwrap();
    }

    run.handle.drain();
    let stats = run.join.join().unwrap().unwrap();
    assert!(
        stats.served as usize >= CLIENTS * ROUNDS * lines.len(),
        "{stats:?}"
    );
}

#[test]
fn pipelined_clients_get_exact_frames_one_shard() {
    pipelined_clients_get_exact_frames(1);
}

#[test]
fn pipelined_clients_get_exact_frames_many_shards() {
    pipelined_clients_get_exact_frames(8);
}

/// Tentpole: drain persists each schema's warm implication cache next
/// to the schema, and a restarted server over the same `--cache-dir`
/// answers its first identical query from the persisted cache — no
/// `--repo`, no preloading, no traffic replay.
#[test]
fn warm_caches_persist_across_server_restarts() {
    let cache = temp_dir("warmcache");
    let loc = location_text();
    let q = r#"implies loc "Store.Country -> Store.City.Country""#;

    let run = start(
        ServeConfig {
            cache_dir: Some(cache.clone()),
            ..ServeConfig::default()
        },
        &[("loc", &loc)],
    );
    let mut c = Client::connect(run.addr).unwrap();
    let first = c.request(q).unwrap();
    assert!(first.payload.starts_with("implied: true"), "{}", first.payload);
    c.quit().unwrap();
    run.handle.drain();
    let stats = run.join.join().unwrap().unwrap();
    assert!(stats.caches_persisted >= 1, "{stats:?}");

    // Fresh server, same cache dir, nothing preloaded: the schema is
    // resident at bind and the very first query hits the seeded cache.
    let run2 = start(
        ServeConfig {
            cache_dir: Some(cache.clone()),
            ..ServeConfig::default()
        },
        &[],
    );
    let mut c = Client::connect(run2.addr).unwrap();
    let schemas = c.request("schemas").unwrap();
    assert!(
        schemas.payload.contains("loc fingerprint"),
        "persisted schema not resident after restart: {}",
        schemas.payload
    );
    let again = c.request(q).unwrap();
    assert!(again.payload.starts_with("implied: true"), "{}", again.payload);
    let stats_resp = c.request("stats").unwrap();
    let cache_line = stats_resp
        .payload
        .lines()
        .find(|l| l.starts_with("schema loc"))
        .unwrap_or_else(|| panic!("no cache line in {}", stats_resp.payload));
    let cross: u64 = cache_line
        .split_whitespace()
        .skip_while(|w| *w != "cross_hits")
        .nth(1)
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(cross > 0, "restarted server answered cold: {cache_line}");
    c.quit().unwrap();
    run2.handle.drain();
    run2.join.join().unwrap().unwrap();
    let _ = std::fs::remove_dir_all(&cache);
}

#[cfg(target_os = "linux")]
fn thread_count() -> usize {
    std::fs::read_to_string("/proc/self/status")
        .unwrap()
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|v| v.trim().parse().ok())
        .unwrap()
}

#[cfg(not(target_os = "linux"))]
fn thread_count() -> usize {
    0
}

/// Tentpole: idle connections are poller registrations, not threads.
/// A herd of 300 idle sockets must not grow the thread count (a
/// thread-per-connection design would add ~300) and must not starve an
/// active client.
#[cfg(unix)]
#[test]
fn idle_connections_do_not_cost_threads() {
    let loc = location_text();
    let run = start(
        ServeConfig {
            workers: 2,
            queue_cap: 2048,
            ..ServeConfig::default()
        },
        &[("loc", &loc)],
    );
    let mut probe = Client::connect(run.addr).unwrap();
    assert!(probe.request("ping").unwrap().is_ok());
    let before = thread_count();

    let mut idle = Vec::new();
    for _ in 0..300 {
        idle.push(std::net::TcpStream::connect(run.addr).unwrap());
    }
    // Let the event loop accept and register the whole herd.
    std::thread::sleep(Duration::from_millis(300));
    assert!(
        probe.request("ping").unwrap().is_ok(),
        "active request starved by the idle herd"
    );
    let after = thread_count();
    // The count is process-wide and other tests run in parallel, so
    // allow churn slack — far below the ~300 a thread-per-connection
    // server would add.
    assert!(
        after <= before + 20,
        "idle connections spawned threads: {before} -> {after}"
    );

    // Idle sockets are full connections: any of them can still ask.
    let last = idle.pop().unwrap();
    let mut w = last.try_clone().unwrap();
    w.write_all(b"check loc Store\n").unwrap();
    w.flush().unwrap();
    let mut rd = std::io::BufReader::new(last);
    let r = Response::read_from(&mut rd).unwrap().unwrap();
    assert!(r.payload.starts_with("satisfiable: true"), "{}", r.payload);

    drop(idle);
    probe.request("shutdown").unwrap();
    run.join.join().unwrap().unwrap();
}

#[test]
fn retry_backoff_grows_and_stays_bounded() {
    let mut prev = Duration::ZERO;
    for attempt in 1..=6 {
        let d = odc_serve::retry_backoff(attempt);
        assert!(d >= prev.min(Duration::from_secs(2)), "backoff shrank at {attempt}");
        prev = d;
    }
    // Past the doubling horizon the delay plateaus: at least the
    // largest base, at most the cap plus 50% jitter.
    for attempt in [7u32, 10, 31] {
        let d = odc_serve::retry_backoff(attempt);
        assert!(d >= Duration::from_millis(1600), "plateau floor at {attempt}: {d:?}");
        assert!(d <= Duration::from_secs(3), "cap + jitter ceiling at {attempt}: {d:?}");
    }
}
