//! End-to-end tests of the `odc` command-line tool, driving the real
//! binary against the shipped `examples/location.odcs` schema file.

use std::path::PathBuf;
use std::process::{Command, Output};

fn schema_file() -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("examples/location.odcs");
    p.to_string_lossy().into_owned()
}

fn odc(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_odc"))
        .args(args)
        .output()
        .expect("failed to launch odc")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn check_audits_the_schema() {
    let out = odc(&["check", &schema_file()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("unsatisfiable categories: none"), "{text}");
    assert!(text.contains("redundant constraints: none"), "{text}");
    assert!(text.contains("bottom Store mixes 4 structure(s)"), "{text}");
    assert!(text.contains("safe rewrite: Country ← {City}"), "{text}");
    assert!(text.contains("suggested into constraints"), "{text}");
}

#[test]
fn frozen_lists_figure_4() {
    let out = odc(&["frozen", &schema_file(), "Store"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(
        text.starts_with("4 frozen dimension(s) with root Store"),
        "{text}"
    );
    assert!(text.contains("City=Washington"), "{text}");
}

#[test]
fn trace_runs_dimsat() {
    let out = odc(&["trace", &schema_file(), "Store"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("EXPAND"));
    assert!(text.contains("CHECK"));
    assert!(text.trim_end().ends_with("satisfiable: true"));
}

#[test]
fn implies_positive_and_negative() {
    let out = odc(&[
        "implies",
        &schema_file(),
        "Store.Country -> Store.City.Country",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("implied: true"));

    let out = odc(&["implies", &schema_file(), "Store.Country = Canada"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("implied: false"));
    assert!(text.contains("countermodel:"), "{text}");
}

/// `summarizable --jobs N` runs through the one battery driver, so it
/// honours `--plan`: serial and parallel planned runs each emit exactly
/// one `theorem1_battery` plan event, `--no-plan` emits none, and every
/// run prints the serial run's verdict line.
#[test]
fn summarizable_jobs_honours_plan() {
    let dir = std::env::temp_dir().join(format!("odc-cli-plan-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    // Three bottoms, two of which can skip X on their way to Y.
    let schema = dir.join("three-bottoms.odcs");
    std::fs::write(
        &schema,
        "hierarchy:\n  A > X, Y\n  B > X, Y\n  C > X\n  X > Y\n  Y > All\n\n\
         constraints:\n  A.Y\n  B.Y\n  C_X\n",
    )
    .expect("write schema");
    let stats = dir.join("stats.jsonl");
    let (schema, stats_path) = (schema.to_str().unwrap(), stats.to_str().unwrap());
    for (target, source, verdict) in [("Y", "X", "false"), ("All", "Y", "true")] {
        let run = |extra: &[&str]| -> (String, usize) {
            let _ = std::fs::remove_file(&stats);
            let mut args = vec!["summarizable", schema, target, source, "--stats-json", stats_path];
            args.extend_from_slice(extra);
            let out = odc(&args);
            assert!(out.status.success(), "{extra:?}");
            let events = std::fs::read_to_string(&stats).expect("stats file written");
            let plans: Vec<&str> =
                events.lines().filter(|l| l.contains("\"event\":\"plan\"")).collect();
            for p in &plans {
                assert!(p.contains("\"battery\":\"theorem1_battery\""), "{p}");
            }
            let text = stdout(&out);
            (text.lines().next().unwrap_or_default().to_string(), plans.len())
        };
        let (serial, n) = run(&[]);
        assert_eq!(serial, format!("summarizable: {verdict}"));
        assert_eq!(n, 1, "one plan event for the serial planned battery");
        let (par, n) = run(&["--jobs", "2"]);
        assert_eq!(par, serial, "--jobs 2");
        assert_eq!(n, 1, "--jobs 2 keeps the planner");
        let (unplanned, n) = run(&["--no-plan", "--jobs", "2"]);
        assert_eq!(unplanned, serial, "--no-plan --jobs 2");
        assert_eq!(n, 0, "--no-plan emits no plan event");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn summarizable_matches_example_10() {
    let out = odc(&["summarizable", &schema_file(), "Country", "City"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("summarizable: true"));

    let out = odc(&[
        "summarizable",
        &schema_file(),
        "Country",
        "State",
        "Province",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("summarizable: false"));
    assert!(
        text.contains("City=Washington"),
        "the countermodel is Washington: {text}"
    );
}

#[test]
fn dot_emits_graphviz() {
    let out = odc(&["dot", &schema_file()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.starts_with("digraph hierarchy {"));
    assert!(text.contains("\"Store\" -> \"City\""));
}

fn instance_file() -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push("examples/location.odci");
    p.to_string_lossy().into_owned()
}

#[test]
fn validate_accepts_figure_1b() {
    let out = odc(&["validate", &schema_file(), &instance_file()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("19 members"), "{text}");
    assert!(text.contains("satisfies Σ ✓"), "{text}");
}

#[test]
fn validate_reports_sigma_violations() {
    // An instance whose only store skips City: violates Store_City.
    let dir = std::env::temp_dir();
    let bad = dir.join("odc-cli-bad-instance.odci");
    std::fs::write(
        &bad,
        "USA : Country < all\nUSRegion : SaleRegion < USA\ns1 : Store < USRegion\n",
    )
    .unwrap();
    let out = odc(&["validate", &schema_file(), bad.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("violates"), "{text}");
    assert!(text.contains("Store_City"), "{text}");
    assert!(text.contains("s1"), "{text}");
}

#[test]
fn infer_mines_the_structural_core() {
    let out = odc(&["infer", &schema_file(), &instance_file()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("Store_City"), "{text}");
    assert!(text.contains("inferred constraint"), "{text}");
}

#[test]
fn jobs_on_a_serial_command_is_an_error() {
    // `frozen` runs serially; silently dropping --jobs would promise
    // parallelism the run never delivers.
    let out = odc(&["frozen", &schema_file(), "Store", "--jobs", "4"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("--jobs applies only to"), "{err}");

    // On the batch commands it keeps working.
    let out = odc(&["check", &schema_file(), "--jobs", "4"]);
    assert!(out.status.success());
}

#[test]
fn stats_json_emits_structured_solve_events() {
    let dir = std::env::temp_dir();
    let path = dir.join("odc-cli-stats.jsonl");
    let _ = std::fs::remove_file(&path);
    // --jobs 2 exercises the full vocabulary: the parallel audit shares
    // an implication memo-cache (cache events) across labeled workers.
    let out = odc(&[
        "check",
        &schema_file(),
        "--jobs",
        "2",
        "--stats-json",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let events = std::fs::read_to_string(&path).expect("stats file written");
    assert!(!events.trim().is_empty());
    for line in events.lines() {
        assert!(line.starts_with('{') && line.ends_with('}'), "not JSON: {line}");
    }
    assert!(events.contains("\"event\":\"solve_start\""), "{events}");
    assert!(events.contains("\"event\":\"solve_end\""), "{events}");
    assert!(events.contains("\"expand_calls\":"), "{events}");
    assert!(events.contains("\"check_calls\":"), "{events}");
    assert!(events.contains("\"schema_fingerprint\":"), "{events}");
    assert!(events.contains("\"event\":\"worker\""), "{events}");
    // The default audit is planned: it reports its planning summary.
    assert!(events.contains("\"event\":\"plan\""), "{events}");
    assert!(events.contains("\"battery\":\"schema_audit\""), "{events}");

    // The unplanned audit answers repeated rewrite queries through the
    // shared memo-cache instead of the planner's witness pools, so the
    // cache vocabulary appears on this path.
    let _ = std::fs::remove_file(&path);
    let out = odc(&[
        "check",
        &schema_file(),
        "--jobs",
        "2",
        "--no-plan",
        "--stats-json",
        path.to_str().unwrap(),
    ]);
    assert!(out.status.success());
    let events = std::fs::read_to_string(&path).expect("stats file written");
    assert!(events.contains("\"event\":\"cache\""), "{events}");
    assert!(!events.contains("\"event\":\"plan\""), "{events}");
}

#[test]
fn progress_reports_on_stderr_without_polluting_stdout() {
    let plain = odc(&["frozen", &schema_file(), "Store"]);
    let out = odc(&["frozen", &schema_file(), "Store", "--progress"]);
    assert!(out.status.success());
    assert_eq!(stdout(&out), stdout(&plain), "stdout must be unchanged");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("progress: solve #"), "{err}");
}

#[test]
fn errors_are_reported_with_usage() {
    let out = odc(&["bogus"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown command"));
    assert!(err.contains("usage:"));

    let out = odc(&["check", "/nonexistent.odcs"]);
    assert!(!out.status.success());

    let out = odc(&["frozen", &schema_file(), "Nowhere"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown category"));
}

#[test]
fn checkpoint_file_survives_a_crashed_rewrite() {
    use odc_core::govern::{IoFaultKind, IoFaultPlan};
    let dir = std::env::temp_dir().join(format!("odc-cli-ckpt-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let cp = dir.join("audit.ckpt");
    let cps = cp.to_string_lossy().into_owned();
    // Starve the audit so it exits undecided and writes a cursor.
    let out = odc(&[
        "check",
        &schema_file(),
        "--node-limit",
        "1",
        "--checkpoint",
        &cps,
    ]);
    assert_eq!(out.status.code(), Some(2), "undecided exits 2");
    let original = std::fs::read(&cp).expect("checkpoint written");
    assert!(!original.is_empty());
    // A crashed rewrite: the replacement reaches the temp file but the
    // rename never happens. The previous cursor must be untouched —
    // the regression a bare fs::write cannot provide.
    let plan = IoFaultPlan::new(IoFaultKind::SkipRename, 1);
    odc_core::repo::atomic_write(&cp, b"half-written replacement", Some(&plan)).unwrap();
    assert_eq!(std::fs::read(&cp).unwrap(), original, "old cursor clobbered");
    // The intact cursor resumes to the clean verdict.
    let resumed = odc(&["check", &schema_file(), "--resume", &cps]);
    assert!(resumed.status.success(), "{}", String::from_utf8_lossy(&resumed.stderr));
    assert!(stdout(&resumed).contains("unsatisfiable categories: none"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repo_warm_and_cold_runs_are_byte_identical() {
    let dir = std::env::temp_dir().join(format!("odc-cli-repo-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dirs = dir.to_string_lossy().into_owned();
    let plain = odc(&["check", &schema_file()]);
    let cold = odc(&["check", &schema_file(), "--repo", &dirs]);
    let warm = odc(&["check", &schema_file(), "--repo", &dirs]);
    assert!(plain.status.success() && cold.status.success() && warm.status.success());
    assert_eq!(stdout(&cold), stdout(&plain), "cold repo run diverged");
    assert_eq!(stdout(&warm), stdout(&plain), "warm repo run diverged");
    assert!(dir.join("index.v1").exists(), "index flushed on exit");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repo_recovers_from_an_aborted_torn_write() {
    let dir = std::env::temp_dir().join(format!("odc-cli-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dirs = dir.to_string_lossy().into_owned();
    // The third repository write is torn and the process aborts —
    // a deterministic SIGKILL mid-append.
    let crash = odc(&[
        "check",
        &schema_file(),
        "--repo",
        &dirs,
        "--fault",
        "torn-write:3:abort",
    ]);
    assert!(!crash.status.success(), "aborted run must not exit 0");
    // Recovery on the next open: the torn tail is quarantined and the
    // rerun reaches the same bytes as a repository-free run.
    let plain = odc(&["check", &schema_file()]);
    let again = odc(&["check", &schema_file(), "--repo", &dirs]);
    assert!(again.status.success(), "{}", String::from_utf8_lossy(&again.stderr));
    assert_eq!(stdout(&again), stdout(&plain), "post-recovery run diverged");
    assert!(
        dir.join(".quarantine").read_dir().unwrap().next().is_some(),
        "torn tail preserved for forensics"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn repo_flag_honesty() {
    // --repo only applies to commands with verdicts to persist.
    let out = odc(&["dot", &schema_file(), "--repo", "/tmp/nope"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--repo applies only to"));
    // --repo subsumes --checkpoint/--resume.
    let out = odc(&[
        "check",
        &schema_file(),
        "--repo",
        "/tmp/nope",
        "--checkpoint",
        "/tmp/cp",
    ]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("persists pending cursors itself"));
    // IO faults target the repository; without one they are refused.
    let out = odc(&["check", &schema_file(), "--fault", "torn-write:1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("--repo"));
    // --retry-connect is client-only.
    let out = odc(&["check", &schema_file(), "--retry-connect", "2"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("applies only to client"));
}

fn corpus_schema(case: &str) -> String {
    let mut p = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    p.push(format!("corpus/v1/{case}/schema.txt"));
    p.to_string_lossy().into_owned()
}

/// Regression (bug: `cube --repo` stored a `false` verdict without its
/// countermodel, and a later `summarizable --repo` printed that stub):
/// `cube` and `summarizable` share one record, written as a cold
/// `summarizable` prints it, and `cube` answers it from disk.
#[test]
fn cube_repo_verdicts_are_what_summarizable_prints() {
    let tmp = std::env::temp_dir().join(format!("odc-cli-cube-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    let (store, repo) = (tmp.join("store"), tmp.join("repo"));
    let (store, repo) = (store.to_string_lossy(), repo.to_string_lossy());
    let out = odc(&["ingest", &store, &schema_file()]);
    assert!(out.status.success(), "{}", String::from_utf8_lossy(&out.stderr));
    let cube = odc(&["cube", &store, "Country", "--via", "Province", "--repo", &repo]);
    assert_eq!(cube.status.code(), Some(2), "an unsafe rollup is refused");
    assert!(stdout(&cube).contains("(failing bottom: Store)"));
    let clean = odc(&["summarizable", &schema_file(), "Country", "Province"]);
    assert!(stdout(&clean).contains("countermodel:"));
    let stored = odc(&["summarizable", &schema_file(), "Country", "Province", "--repo", &repo]);
    assert_eq!(stdout(&stored), stdout(&clean));
    // The stored refusal answers the next cube without a solve.
    let events = tmp.join("events.jsonl");
    let again = odc(&[
        "cube",
        &store,
        "Country",
        "--via",
        "Province",
        "--repo",
        &repo,
        "--stats-json",
        &events.to_string_lossy(),
    ]);
    assert_eq!(stdout(&again), stdout(&cube));
    let events = std::fs::read_to_string(&events).unwrap_or_default();
    assert!(!events.contains("\"solve_start\""), "a stored verdict is re-solved");
    let _ = std::fs::remove_dir_all(&tmp);
}

/// Regression (bug: a retried battery dropped to the serial unplanned
/// driver, so when several bottoms fail its countermodel depended on
/// the budget): a starved, retried `summarizable` prints what the clean
/// run prints, apart from the attempt-count line.
#[test]
fn retried_summarizable_prints_the_clean_answer() {
    let schema = corpus_schema("s2002-c9-vocabulary");
    let query = ["L1C0", "L0C2", "L0C1"];
    let mut clean_args = vec!["summarizable", schema.as_str()];
    clean_args.extend(query);
    let clean = odc(&clean_args);
    assert!(clean.status.success());
    let mut retried_args = clean_args.clone();
    retried_args.extend(["--node-limit", "1", "--retry", "8"]);
    let retried = odc(&retried_args);
    assert!(retried.status.success(), "{}", stdout(&retried));
    let text = stdout(&retried);
    assert!(text.contains(" attempts, budget doubled per retry)"), "{text}");
    let report: String = text
        .lines()
        .filter(|l| !l.ends_with(" attempts, budget doubled per retry)"))
        .map(|l| format!("{l}\n"))
        .collect();
    assert_eq!(report, stdout(&clean));
}
