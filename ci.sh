#!/usr/bin/env bash
# Offline CI gate: build, test, lint. The workspace has no crates.io
# dependencies, so everything runs with --offline — a network-less
# environment is the supported configuration, not a degraded one.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo build --release =="
cargo build --offline --release --workspace --bins --examples --benches

echo "== cargo test -q =="
cargo test --offline -q --workspace

echo "== cargo clippy -D warnings =="
cargo clippy --offline --workspace --all-targets -- -D warnings

echo "== bench smoke (exp_dimsat) =="
ODC_BENCH_QUICK=1 cargo run --offline --release -p odc-bench --bin exp_dimsat -- --smoke

echo "== observability smoke (odc check --stats-json) =="
STATS_JSON="$(mktemp /tmp/odc-ci-stats.XXXXXX.jsonl)"
trap 'rm -f "$STATS_JSON"' EXIT
cargo run --offline --release --bin odc -- \
  check examples/location.odcs --jobs 2 --stats-json "$STATS_JSON" > /dev/null
python3 - "$STATS_JSON" <<'PYEOF'
import json, sys
events = []
with open(sys.argv[1]) as f:
    for line in f:
        events.append(json.loads(line))  # every line must parse
kinds = {e["event"] for e in events}
missing = {"solve_start", "solve_end"} - kinds
assert not missing, f"missing event kinds: {missing}"
ends = [e for e in events if e["event"] == "solve_end"]
for counter in ("expand_calls", "check_calls", "cache_hits", "elapsed_us"):
    assert all(counter in e for e in ends), f"solve_end missing {counter}"
print(f"stats stream OK: {len(events)} events, kinds {sorted(kinds)}")
PYEOF

echo "== fault-injection smoke (checkpoint -> resume parity) =="
WORK="$(mktemp -d /tmp/odc-ci-fault.XXXXXX)"
trap 'rm -f "$STATS_JSON"; rm -rf "$WORK"' EXIT
ODC="cargo run --offline --release --quiet --bin odc --"
$ODC frozen examples/location.odcs Store > "$WORK/clean.txt"
for seed in 7 19 42; do
  # A capped seeded interrupt strikes once; the run must exit 2 (undecided
  # with checkpoint), and resuming must reproduce the clean run verbatim.
  FAULT_JSON="$WORK/fault-$seed.jsonl"
  rc=0
  $ODC frozen examples/location.odcs Store \
    --fault "interrupt:seed:$seed:300:max:1" \
    --checkpoint "$WORK/cp-$seed.txt" \
    --stats-json "$FAULT_JSON" > /dev/null || rc=$?
  if [ "$rc" -eq 2 ]; then
    test -s "$WORK/cp-$seed.txt" || { echo "seed $seed: exit 2 but no checkpoint"; exit 1; }
    grep -q '"event":"fault"' "$FAULT_JSON" || { echo "seed $seed: fault event untagged"; exit 1; }
    $ODC frozen examples/location.odcs Store --resume "$WORK/cp-$seed.txt" > "$WORK/resumed-$seed.txt"
    diff "$WORK/clean.txt" "$WORK/resumed-$seed.txt" \
      || { echo "seed $seed: resumed run diverged from clean run"; exit 1; }
    echo "seed $seed: interrupted, resumed, identical"
  elif [ "$rc" -eq 0 ]; then
    echo "seed $seed: schedule never fired (ok)"
  else
    echo "seed $seed: unexpected exit code $rc"; exit 1
  fi
done
python3 - "$WORK" <<'PYEOF'
import glob, json, os, sys
# Fault-tagged events must carry the kind, site, and trigger description,
# so chaos-run telemetry is distinguishable from organic interrupts.
checked = 0
for path in glob.glob(os.path.join(sys.argv[1], "fault-*.jsonl")):
    with open(path) as f:
        for line in f:
            e = json.loads(line)
            if e["event"] != "fault":
                continue
            assert e["kind"] == "interrupt", e
            assert e["site"] in ("node", "check", "depth"), e
            assert "seeded schedule" in e["trigger"], e
            checked += 1
print(f"fault events OK: {checked} tagged injections validated")
PYEOF

echo "== planner smoke (planned vs unplanned parity) =="
$ODC check examples/location.odcs --stats-json "$WORK/plan.jsonl" > "$WORK/planned.txt"
$ODC check examples/location.odcs --no-plan > "$WORK/unplanned.txt"
diff "$WORK/planned.txt" "$WORK/unplanned.txt" \
  || { echo "planned audit diverged from unplanned audit"; exit 1; }
$ODC check examples/location.odcs --jobs 2 --stats-json "$WORK/plan-par.jsonl" \
  > "$WORK/planned-par.txt"
diff "$WORK/planned.txt" "$WORK/planned-par.txt" \
  || { echo "planned --jobs 2 audit diverged from serial"; exit 1; }
python3 - "$WORK/plan.jsonl" "$WORK/plan-par.jsonl" <<'PYEOF'
import json, sys
for path in sys.argv[1:]:
    events = [json.loads(l) for l in open(path)]  # every line must parse
    plans = [e for e in events if e["event"] == "plan"]
    assert len(plans) == 1, f"{path}: want exactly one plan event, got {len(plans)}"
    p = plans[0]
    assert p["battery"] == "schema_audit", p
    for k in ("queries", "deduped", "reordered", "fact_hits", "batched"):
        assert isinstance(p.get(k), int) and p[k] >= 0, (path, k, p)
    assert p["queries"] > 0, p
    assert p["batched"] > 0, f"{path}: the location matrix is pool-answerable"
print("plan events OK: planned output byte-identical, one schema_audit plan per run")
PYEOF

echo "== battery parity over corpus/v1 (plan x jobs, budget-cut and retried) =="
# Every corpus schema audits identically (stdout and exit code) planned
# or not, serial or over 3 workers; and an audit cut at 200 nodes and
# retried 8 times, doubling the budget, ends with the clean report. A
# retry that still runs out (the fan-out schemas enumerate hundreds of
# thousands of structures) leaves a checkpoint whose resume must.
PAR="$WORK/parity"
mkdir -p "$PAR"
for schema in corpus/v1/*/schema.txt; do
  ref_rc=0
  $ODC check "$schema" > "$PAR/ref.txt" || ref_rc=$?
  for plan in --plan --no-plan; do
    for jobs in 1 3; do
      what="$schema $plan --jobs $jobs"
      rc=0
      $ODC check "$schema" $plan --jobs $jobs > "$PAR/run.txt" || rc=$?
      [ "$rc" -eq "$ref_rc" ] || { echo "$what: exit $rc, clean run exited $ref_rc"; exit 1; }
      diff "$PAR/ref.txt" "$PAR/run.txt" || { echo "$what: report diverged"; exit 1; }
      rm -f "$PAR/cp.txt"
      rc=0
      $ODC check "$schema" $plan --jobs $jobs --node-limit 200 --retry 8 \
        --checkpoint "$PAR/cp.txt" > "$PAR/retry.txt" || rc=$?
      if [ "$rc" -eq 2 ]; then
        test -s "$PAR/cp.txt" || { echo "$what: undecided retry left no checkpoint"; exit 1; }
        rc=0
        $ODC check "$schema" $plan --jobs $jobs --resume "$PAR/cp.txt" > "$PAR/retry.txt" || rc=$?
      else
        # The retried report carries one attempt-count line on top.
        grep -v '^([0-9]* attempts, budget doubled per retry)$' "$PAR/retry.txt" \
          > "$PAR/retry-report.txt" || true
        mv "$PAR/retry-report.txt" "$PAR/retry.txt"
      fi
      [ "$rc" -eq "$ref_rc" ] || { echo "$what: retried run exited $rc"; exit 1; }
      diff "$PAR/ref.txt" "$PAR/retry.txt" || { echo "$what: retried report diverged"; exit 1; }
      # Through a fresh verdict repository, cold then warm: the same
      # report and exit code as the repository-free run.
      rm -rf "$PAR/repo"
      for pass in cold warm; do
        rc=0
        $ODC check "$schema" $plan --jobs $jobs --repo "$PAR/repo" > "$PAR/run.txt" || rc=$?
        [ "$rc" -eq "$ref_rc" ] || { echo "$what --repo ($pass): exit $rc"; exit 1; }
        diff "$PAR/ref.txt" "$PAR/run.txt" || { echo "$what --repo ($pass): report diverged"; exit 1; }
      done
      # Budget-cut and retried through a fresh repository; a run still
      # undecided leaves pending cursors that a rerun finishes.
      rm -rf "$PAR/repo"
      rc=0
      $ODC check "$schema" $plan --jobs $jobs --repo "$PAR/repo" --node-limit 200 --retry 8 \
        > "$PAR/retry.txt" || rc=$?
      if [ "$rc" -eq 2 ]; then
        rc=0
        $ODC check "$schema" $plan --jobs $jobs --repo "$PAR/repo" > "$PAR/retry.txt" || rc=$?
      else
        grep -v '^([0-9]* attempts, budget doubled per retry)$' "$PAR/retry.txt" \
          > "$PAR/retry-report.txt" || true
        mv "$PAR/retry-report.txt" "$PAR/retry.txt"
      fi
      [ "$rc" -eq "$ref_rc" ] || { echo "$what --repo: retried run exited $rc"; exit 1; }
      diff "$PAR/ref.txt" "$PAR/retry.txt" || { echo "$what --repo: retried report diverged"; exit 1; }
    done
  done
done
# Every corpus summarizability query, starved to one node and retried
# serially, prints the clean answer apart from the attempt line; a run
# still undecided leaves a checkpoint whose resume prints it.
for dir in corpus/v1/*/; do
  while read -r _ target _ sources; do
    what="$dir: summarizable $target from $sources"
    ref_rc=0
    $ODC summarizable "$dir/schema.txt" "$target" $sources < /dev/null > "$PAR/ref.txt" \
      || ref_rc=$?
    rm -f "$PAR/cp.txt"
    rc=0
    $ODC summarizable "$dir/schema.txt" "$target" $sources --node-limit 1 --retry 8 \
      --checkpoint "$PAR/cp.txt" < /dev/null > "$PAR/retry.txt" || rc=$?
    if [ "$rc" -eq 2 ]; then
      test -s "$PAR/cp.txt" || { echo "$what: undecided retry left no checkpoint"; exit 1; }
      rc=0
      $ODC summarizable "$dir/schema.txt" "$target" $sources --resume "$PAR/cp.txt" \
        < /dev/null > "$PAR/retry.txt" || rc=$?
    else
      grep -v '^([0-9]* attempts, budget doubled per retry)$' "$PAR/retry.txt" \
        > "$PAR/retry-report.txt" || true
      mv "$PAR/retry-report.txt" "$PAR/retry.txt"
    fi
    [ "$rc" -eq "$ref_rc" ] || { echo "$what: retried run exited $rc"; exit 1; }
    diff "$PAR/ref.txt" "$PAR/retry.txt" || { echo "$what: retried answer diverged"; exit 1; }
  done < <(grep '^summarizable ' "$dir/queries.txt" || true)
done
echo "battery parity OK: $(ls corpus/v1/*/schema.txt | wc -l) schemas x 4 runs, clean, retried and through a repository"

echo "== crash-recovery smoke (verdict repository) =="
REPODIR="$(mktemp -d /tmp/odc-ci-repo.XXXXXX)"
trap 'rm -f "$STATS_JSON"; rm -rf "$WORK" "$REPODIR"' EXIT
$ODC check examples/location.odcs > "$REPODIR/clean.txt"
# Cold populate + warm reread: both must match the repository-free run
# byte for byte.
$ODC check examples/location.odcs --repo "$REPODIR/store" > "$REPODIR/cold.txt"
$ODC check examples/location.odcs --repo "$REPODIR/store" > "$REPODIR/warm.txt"
diff "$REPODIR/clean.txt" "$REPODIR/cold.txt" \
  || { echo "cold --repo run diverged from clean run"; exit 1; }
diff "$REPODIR/clean.txt" "$REPODIR/warm.txt" \
  || { echo "warm --repo run diverged from clean run"; exit 1; }
# Kill mid-write: the third repository write is torn and the process
# aborts — a deterministic SIGKILL landing halfway through an append.
rc=0
$ODC check examples/location.odcs --repo "$REPODIR/crash" \
  --fault torn-write:3:abort > /dev/null 2> "$REPODIR/abort.err" || rc=$?
[ "$rc" -ne 0 ] || { echo "aborted run exited 0"; exit 1; }
# Recovery rerun: the torn tail must be quarantined (with a tagged
# repo_recovery event) and the verdicts re-derived to the same bytes.
$ODC check examples/location.odcs --repo "$REPODIR/crash" \
  --stats-json "$REPODIR/recover.jsonl" > "$REPODIR/recovered.txt"
diff "$REPODIR/clean.txt" "$REPODIR/recovered.txt" \
  || { echo "post-recovery run diverged from clean run"; exit 1; }
ls "$REPODIR/crash/.quarantine"/* > /dev/null 2>&1 \
  || { echo "no quarantined tail after recovery"; exit 1; }
python3 - "$REPODIR/recover.jsonl" <<'PYEOF'
import json, sys
events = [json.loads(l) for l in open(sys.argv[1])]
rec = [e for e in events if e["event"] == "repo_recovery"]
assert rec, "no repo_recovery event in the recovery run"
for e in rec:
    assert e["phase"] == "recovery", e
    assert e["bytes"] > 0, e          # a real torn tail was cut
    assert ".quarantine" in e["detail"], e
opens = [e for e in events if e["event"] == "repo" and e["phase"] == "open"]
assert opens, "store never reported its open"
assert opens[-1]["detail"] == "writer", opens[-1]
solves = [e for e in events if e["event"] == "solve_end"]
assert solves, "no solves: lost verdicts were never re-derived"
print(f"recovery OK: {len(rec)} torn tail(s) quarantined, "
      f"{sum(e['records'] for e in rec)} record(s) salvaged before the tear")
PYEOF
echo "crashed mid-write, recovered, identical"

echo "== server smoke (odc serve / odc client) =="
SRVDIR="$(mktemp -d /tmp/odc-ci-serve.XXXXXX)"
trap 'rm -f "$STATS_JSON"; rm -rf "$WORK" "$REPODIR" "$SRVDIR"; kill "${SRVPID:-}" 2>/dev/null || true' EXIT
ODCBIN=./target/release/odc
# A deep diamond ladder: frozen enumeration from Root is effectively
# unbounded, so a solve is guaranteed to still be in flight when the
# drain signal lands.
python3 - "$SRVDIR/ladder.odcs" <<'PYEOF'
import sys
n = 40
lines = ["hierarchy:", "  Root > A0, B0"]
for i in range(n - 1):
    lines.append(f"  A{i} > A{i+1}, B{i+1}")
    lines.append(f"  B{i} > A{i+1}, B{i+1}")
lines += [f"  A{n-1} > All", f"  B{n-1} > All", "constraints:"]
open(sys.argv[1], "w").write("\n".join(lines) + "\n")
PYEOF
"$ODCBIN" serve --addr 127.0.0.1:0 --workers 2 \
  --checkpoint-dir "$SRVDIR/ckpt" --stats-json "$SRVDIR/serve.jsonl" \
  --preload loc=examples/location.odcs --preload lad="$SRVDIR/ladder.odcs" \
  > "$SRVDIR/serve.out" &
SRVPID=$!
ADDR=""
for _ in $(seq 1 100); do
  ADDR="$(sed -n 's/^serving on \([0-9.:]*\).*/\1/p' "$SRVDIR/serve.out")"
  [ -n "$ADDR" ] && break
  sleep 0.1
done
[ -n "$ADDR" ] || { echo "server never announced its address"; exit 1; }

# Warm pair: the second answer comes from the resident cache and both
# must match the one-shot CLI byte for byte.
Q='Store.Country -> Store.City.Country'
"$ODCBIN" client "$ADDR" implies loc "$Q" > "$SRVDIR/warm1.txt"
"$ODCBIN" client "$ADDR" implies loc "$Q" > "$SRVDIR/warm2.txt"
"$ODCBIN" implies examples/location.odcs "$Q" > "$SRVDIR/cli.txt"
diff "$SRVDIR/warm1.txt" "$SRVDIR/warm2.txt" \
  || { echo "warm pair diverged"; exit 1; }
diff "$SRVDIR/warm1.txt" "$SRVDIR/cli.txt" \
  || { echo "server diverged from one-shot CLI"; exit 1; }

# A per-request budget that the solve exhausts must surface as the
# CLI's undecided exit code (2), not an error.
rc=0
"$ODCBIN" client "$ADDR" summarizable loc Country State Province \
  --node-limit 1 > /dev/null || rc=$?
[ "$rc" -eq 2 ] || { echo "budget-exceeded: expected exit 2, got $rc"; exit 1; }
echo "warm pair identical; budget-exceeded undecided"

# SIGTERM mid-solve: graceful drain must still answer the in-flight
# client and leave a resumable checkpoint envelope behind.
rc=0
"$ODCBIN" client "$ADDR" frozen lad Root > "$SRVDIR/drained.txt" 2>&1 &
CLIPID=$!
sleep 1
kill -TERM "$SRVPID"
wait "$CLIPID" || rc=$?
wait "$SRVPID"
[ "$rc" -eq 2 ] || { echo "drained client: expected exit 2, got $rc"; exit 1; }
grep -q "drained:" "$SRVDIR/serve.out" \
  || { echo "server did not report its drain"; cat "$SRVDIR/serve.out"; exit 1; }
grep -q "checkpoint written to" "$SRVDIR/drained.txt" \
  || { echo "drain response lacks a checkpoint"; cat "$SRVDIR/drained.txt"; exit 1; }
CKPT="$(ls "$SRVDIR"/ckpt/*.ckpt | head -1)"
head -1 "$CKPT" | grep -q '^odc-checkpoint v1' \
  || { echo "bad checkpoint envelope: $(head -1 "$CKPT")"; exit 1; }
echo "drain answered the in-flight solve and checkpointed it"

python3 - "$SRVDIR/serve.jsonl" <<'PYEOF'
import json, sys
events = [json.loads(l) for l in open(sys.argv[1])]
conns = [e for e in events if e["event"] == "conn"]
phases = {e["phase"] for e in conns}
assert {"accepted", "closed"} <= phases, f"conn phases: {phases}"
reqs = [e for e in events if e["event"] == "request"]
starts = [e for e in reqs if e["phase"] == "start"]
ends = [e for e in reqs if e["phase"] == "end"]
assert starts and ends, "no request lifecycle events"
ids = {e["request_id"] for e in starts}
assert {e["request_id"] for e in ends} <= ids, "end without start"
assert all(e["elapsed_us"] is not None and e["worker"] is not None for e in ends)
assert any(e["status"] == "unknown" for e in ends), "no drained/undecided request"
# Solves triggered by requests must carry the request id end to end.
tagged = [e for e in events if e["event"] == "solve_start" and e.get("request") is not None]
assert tagged, "no request-scoped solve_start events"
solve_reqs = {e["request"] for e in tagged}
assert solve_reqs <= ids, f"solve request ids {solve_reqs} not among requests"
print(f"server stream OK: {len(conns)} conn, {len(reqs)} request, {len(tagged)} request-scoped solves")
PYEOF

echo "== event-loop smoke (idle herd, bounded threads, warm-restart drain) =="
EVDIR="$(mktemp -d /tmp/odc-ci-event.XXXXXX)"
trap 'rm -f "$STATS_JSON"; rm -rf "$WORK" "$REPODIR" "$SRVDIR" "$EVDIR"; kill "${SRVPID:-}" "${EVPID:-}" 2>/dev/null || true' EXIT
"$ODCBIN" serve --addr 127.0.0.1:0 --workers 2 \
  --checkpoint-dir "$EVDIR/ckpt" --cache-dir "$EVDIR/cache" \
  --stats-json "$EVDIR/serve.jsonl" \
  --preload loc=examples/location.odcs --preload lad="$SRVDIR/ladder.odcs" \
  > "$EVDIR/serve.out" &
EVPID=$!
EVADDR=""
for _ in $(seq 1 100); do
  EVADDR="$(sed -n 's/^serving on \([0-9.:]*\).*/\1/p' "$EVDIR/serve.out")"
  [ -n "$EVADDR" ] && break
  sleep 0.1
done
[ -n "$EVADDR" ] || { echo "event server never announced its address"; exit 1; }

# A herd of 200 parked sockets plus live traffic through the same
# loop: the readiness loop must not spawn a thread per socket, and
# verdicts answered around the herd must match the one-shot CLI.
THREADS_BEFORE="$(awk '/^Threads:/ {print $2}' "/proc/$EVPID/status")"
python3 - "$EVADDR" "$EVDIR/herd.up" "$EVDIR/herd.stop" <<'PYEOF' &
import os, socket, sys, time
host, port = sys.argv[1].rsplit(":", 1)
herd = [socket.create_connection((host, int(port)), timeout=10) for _ in range(200)]
open(sys.argv[2], "w").write(str(len(herd)))
deadline = time.time() + 30
while not os.path.exists(sys.argv[3]) and time.time() < deadline:
    time.sleep(0.05)
for s in herd:
    s.close()
PYEOF
HERDPID=$!
for _ in $(seq 1 200); do
  [ -f "$EVDIR/herd.up" ] && break
  sleep 0.1
done
[ -f "$EVDIR/herd.up" ] || { echo "idle herd never connected"; exit 1; }
"$ODCBIN" client "$EVADDR" implies loc "$Q" > "$EVDIR/ev.txt"
diff "$EVDIR/ev.txt" "$SRVDIR/cli.txt" \
  || { echo "event loop diverged from one-shot CLI"; exit 1; }
"$ODCBIN" client "$EVADDR" check loc Store > /dev/null
THREADS_WITH="$(awk '/^Threads:/ {print $2}' "/proc/$EVPID/status")"
[ "$THREADS_WITH" -le "$THREADS_BEFORE" ] \
  || { echo "idle herd grew threads: $THREADS_BEFORE -> $THREADS_WITH"; exit 1; }
touch "$EVDIR/herd.stop"
wait "$HERDPID" || { echo "idle herd failed"; exit 1; }
echo "200 idle conns parked: threads $THREADS_BEFORE -> $THREADS_WITH, verdicts identical"

# SIGTERM mid-solve: the drain must answer the in-flight client with a
# resumable checkpoint AND persist both schemas' warm caches.
rc=0
"$ODCBIN" client "$EVADDR" frozen lad Root > "$EVDIR/drained.txt" 2>&1 &
EVCLI=$!
sleep 1
kill -TERM "$EVPID"
wait "$EVCLI" || rc=$?
wait "$EVPID"
[ "$rc" -eq 2 ] || { echo "event drain client: expected exit 2, got $rc"; exit 1; }
grep -q "checkpoint written to" "$EVDIR/drained.txt" \
  || { echo "event drain response lacks a checkpoint"; cat "$EVDIR/drained.txt"; exit 1; }
EVCKPT="$(ls "$EVDIR"/ckpt/*.ckpt | head -1)"
head -1 "$EVCKPT" | grep -q '^odc-checkpoint v1' \
  || { echo "bad event checkpoint envelope: $(head -1 "$EVCKPT")"; exit 1; }
grep -qF "2 warm cache(s) persisted" "$EVDIR/serve.out" \
  || { echo "drain did not persist both warm caches"; cat "$EVDIR/serve.out"; exit 1; }
ls "$EVDIR"/cache/*.cache > /dev/null 2>&1 \
  || { echo "no warm-cache files after drain"; exit 1; }

python3 - "$EVDIR/serve.jsonl" <<'PYEOF'
import json, sys
events = [json.loads(l) for l in open(sys.argv[1])]  # every line must parse
conns = [e for e in events if e["event"] == "conn"]
accepted = [e for e in conns if e["phase"] == "accepted"]
closed = [e for e in conns if e["phase"] == "closed"]
assert len(accepted) >= 201, f"herd not visible: only {len(accepted)} accepts"
assert {e["conn_id"] for e in closed} <= {e["conn_id"] for e in accepted}
reqs = [e for e in events if e["event"] == "request"]
starts = {e["request_id"] for e in reqs if e["phase"] == "start"}
ends = [e for e in reqs if e["phase"] == "end"]
assert starts and ends, "no request lifecycle events"
assert {e["request_id"] for e in ends} <= starts, "end without start"
assert any(e["status"] == "unknown" for e in ends), "no drained/undecided request"
print(f"event stream OK: {len(accepted)} accepts ({len(closed)} closes), "
      f"{len(ends)} requests answered")
PYEOF

# Warm restart from the persisted caches alone: no --preload, yet the
# restarted server must know `loc`, answer the same bytes as the CLI,
# and answer it out of the restored (cross-session) cache.
"$ODCBIN" serve --addr 127.0.0.1:0 --workers 2 \
  --cache-dir "$EVDIR/cache" > "$EVDIR/serve2.out" &
EVPID=$!
EVADDR2=""
for _ in $(seq 1 100); do
  EVADDR2="$(sed -n 's/^serving on \([0-9.:]*\).*/\1/p' "$EVDIR/serve2.out")"
  [ -n "$EVADDR2" ] && break
  sleep 0.1
done
[ -n "$EVADDR2" ] || { echo "restarted server never announced its address"; exit 1; }
"$ODCBIN" client "$EVADDR2" implies loc "$Q" > "$EVDIR/warm-restart.txt"
diff "$EVDIR/warm-restart.txt" "$SRVDIR/cli.txt" \
  || { echo "warm-restarted server diverged from one-shot CLI"; exit 1; }
"$ODCBIN" client "$EVADDR2" stats > "$EVDIR/stats2.txt"
python3 - "$EVDIR/stats2.txt" <<'PYEOF'
import sys
hits = 0
for line in open(sys.argv[1]):
    f = line.split()
    if f[:1] == ["schema"] and "cross_hits" in f:
        hits += int(f[f.index("cross_hits") + 1])
assert hits > 0, "restarted server answered without touching the restored cache"
print(f"warm restart OK: first answer served from the persisted cache ({hits} cross hit(s))")
PYEOF
kill -TERM "$EVPID"
wait "$EVPID"

echo "== load-harness smoke (exp_serve) =="
cargo run --offline --release --quiet -p odc-bench --bin exp_serve -- --smoke

echo "== differential fuzz smoke (odc fuzz) =="
FUZZDIR="$(mktemp -d /tmp/odc-ci-fuzz.XXXXXX)"
trap 'rm -f "$STATS_JSON"; rm -rf "$WORK" "$REPODIR" "$SRVDIR" "$EVDIR" "$FUZZDIR" "${STOREDIR:-}"; kill "${SRVPID:-}" "${EVPID:-}" 2>/dev/null || true' EXIT

# Clean sweep: a fixed-seed batch across every executor pair must agree
# with itself — exit 0, zero divergences, all six pairs exercised.
"$ODCBIN" fuzz --seed 2002 --cases 12 --repro-dir "$FUZZDIR/clean-repros" \
  --stats-json "$FUZZDIR/clean.jsonl" > "$FUZZDIR/clean.txt"
grep -q "divergences: 0" "$FUZZDIR/clean.txt" \
  || { echo "clean fuzz sweep diverged:"; cat "$FUZZDIR/clean.txt"; exit 1; }
for p in trail-clone serial-jobs planned-noplan fault-resume repo-warm-cold serve-cli ingest-full; do
  grep "pairs run:" "$FUZZDIR/clean.txt" | grep -q "$p" \
    || { echo "pair $p never ran:"; cat "$FUZZDIR/clean.txt"; exit 1; }
done

# Planted fault: the test-only clone-kernel sabotage must be found
# (exit 2), minimized to a repro directory, and the repro must replay.
if "$ODCBIN" fuzz --seed 2002 --cases 2 --sabotage --pairs trail-clone \
  --repro-dir "$FUZZDIR/repros" --stats-json "$FUZZDIR/sab.jsonl" \
  > "$FUZZDIR/sab.txt"; then
  echo "sabotage run exited 0 — planted divergence went unnoticed"
  cat "$FUZZDIR/sab.txt"
  exit 1
else
  rc=$?
  [ "$rc" -eq 2 ] || { echo "sabotage run exited $rc (want 2)"; cat "$FUZZDIR/sab.txt"; exit 1; }
fi
grep -q "repro written:" "$FUZZDIR/sab.txt" \
  || { echo "sabotage divergence produced no repro"; cat "$FUZZDIR/sab.txt"; exit 1; }
"$ODCBIN" fuzz --replay "$FUZZDIR/repros" > "$FUZZDIR/replay.txt" \
  || { echo "minimized repro did not replay:"; cat "$FUZZDIR/replay.txt"; exit 1; }
grep -q " 0 failed" "$FUZZDIR/replay.txt" \
  || { echo "repro replay reported failures:"; cat "$FUZZDIR/replay.txt"; exit 1; }

# The shipped regression corpus must replay clean across all pairs.
"$ODCBIN" fuzz --replay corpus/v1 > "$FUZZDIR/corpus.txt" \
  || { echo "shipped corpus replay failed:"; cat "$FUZZDIR/corpus.txt"; exit 1; }
grep -q " 0 failed" "$FUZZDIR/corpus.txt" \
  || { echo "shipped corpus replay reported failures:"; cat "$FUZZDIR/corpus.txt"; exit 1; }
tail -1 "$FUZZDIR/corpus.txt"

# The observability stream: every line parses, the clean run emitted
# fuzz_case events and no fuzz_divergence; the sabotage run emitted both.
python3 - "$FUZZDIR/clean.jsonl" "$FUZZDIR/sab.jsonl" <<'PYEOF'
import json, sys
def kinds(path):
    ks = set()
    with open(path) as f:
        for line in f:
            ks.add(json.loads(line)["event"])  # every line must parse
    return ks
clean, sab = kinds(sys.argv[1]), kinds(sys.argv[2])
assert "fuzz_case" in clean, f"clean run emitted no fuzz_case events: {sorted(clean)}"
assert "fuzz_divergence" not in clean, "clean run emitted fuzz_divergence"
assert "fuzz_case" in sab and "fuzz_divergence" in sab, \
    f"sabotage run missing fuzz events: {sorted(sab)}"
print(f"fuzz event stream OK: clean {sorted(clean)}, sabotage {sorted(sab)}")
PYEOF

echo "== fuzz-harness smoke (exp_fuzz) =="
ODC_BENCH_QUICK=1 cargo run --offline --release --quiet -p odc-bench --bin exp_fuzz -- --smoke

echo "== store data-plane smoke (odc ingest / odc cube) =="
STOREDIR="$(mktemp -d /tmp/odc-ci-store.XXXXXX)"
# A seeded 50k-fact stream over the Figure 1 geography: Washington has
# no SaleRegion ancestor, so Country is summarizable from City but NOT
# from SaleRegion — exactly the distinction the cube gate must enforce.
python3 - "$STOREDIR/facts.txt" <<'PYEOF'
import random, sys
random.seed(4242)
lines = [
    "Canada : Country < all",
    "USA : Country < all",
    "East : SaleRegion < Canada",
    "Ontario : Province < East",
    "Toronto : City < Ontario",
    "Washington : City < USA",
    "s1 : Store < Toronto",
    "s2 : Store < Washington",
]
for _ in range(50_000):
    lines.append(f"s{random.randint(1, 2)} -> {random.randint(-100, 100)}")
open(sys.argv[1], "w").write("\n".join(lines) + "\n")
PYEOF
"$ODCBIN" ingest "$STOREDIR/inc" examples/location.odcs \
  --facts "$STOREDIR/facts.txt" --batch-rows 4096 \
  --stats-json "$STOREDIR/ingest.jsonl" > "$STOREDIR/ingest.txt"
grep -q "50000 fact(s)" "$STOREDIR/ingest.txt" \
  || { echo "ingest lost facts:"; cat "$STOREDIR/ingest.txt"; exit 1; }

# The observability stream: every line parses, per-batch events add up
# to the end-of-stream summary.
python3 - "$STOREDIR/ingest.jsonl" <<'PYEOF'
import json, sys
batches, done = [], None
with open(sys.argv[1]) as f:
    for line in f:
        e = json.loads(line)  # every line must parse
        if e["event"] != "ingest":
            continue
        if e["phase"] == "batch":
            batches.append(e)
        elif e["phase"] == "done":
            done = e
assert batches, "no ingest batch events"
assert done is not None, "no ingest done event"
assert done["facts"] == 50_000, f"done event lost facts: {done}"
assert done["batch"] == len(batches), (done["batch"], len(batches))
assert all(e["rows_per_sec"] > 0 for e in batches), "zero ingest rate"
print(f"ingest event stream OK: {len(batches)} batches, {done['facts']} facts")
PYEOF

# An oracle independent of Rust: Python folds the same stream by hand,
# and under every aggregate the Store, SaleRegion and Country cuboids
# must print exactly its cells. Washington has no SaleRegion, so s2's
# rows drop out of that level.
for agg in sum count min max; do
  for level in Store SaleRegion Country; do
    "$ODCBIN" cube "$STOREDIR/inc" "$level" --agg "$agg" > "$STOREDIR/cube-$level-$agg.txt"
  done
done
python3 - "$STOREDIR" <<'PYEOF'
import sys
d = sys.argv[1]
rows = []
for line in open(f"{d}/facts.txt"):
    if "->" in line:
        k, v = line.split("->")
        rows.append((k.strip(), int(v)))
# Each store's ancestor per level (None: no rollup), and each level's
# members in declaration order, which is the order cells print in.
anc = {
    "Store": {"s1": "s1", "s2": "s2"},
    "SaleRegion": {"s1": "East", "s2": None},
    "Country": {"s1": "Canada", "s2": "USA"},
}
order = {"Store": ["s1", "s2"], "SaleRegion": ["East"], "Country": ["Canada", "USA"]}
fold = {"sum": sum, "count": len, "min": min, "max": max}
checked = 0
for agg, f in fold.items():
    for level, up in anc.items():
        groups = {}
        for k, v in rows:
            if up[k] is not None:
                groups.setdefault(up[k], []).append(v)
        cells = [(m, f(groups[m])) for m in order[level] if m in groups]
        want = [f"cuboid {level}: {len(cells)} cell(s), agg {agg}, source: base facts"]
        want += [f"  {m} -> {v}" for m, v in cells]
        got = open(f"{d}/cube-{level}-{agg}.txt").read().splitlines()
        assert got == want, f"{level} --agg {agg}: odc printed {got}, oracle wants {want}"
        checked += 1
print(f"cube oracle OK: {checked} cuboids match the Python fold")
PYEOF

# Safe rollup: Country from a City cuboid, verified cell-for-cell
# against direct materialization from the raw facts.
"$ODCBIN" cube "$STOREDIR/inc" Country --via City --verdicts > "$STOREDIR/cube-safe.txt"
grep -q "verified: cells identical" "$STOREDIR/cube-safe.txt" \
  || { echo "safe rollup not verified:"; cat "$STOREDIR/cube-safe.txt"; exit 1; }

# Forbidden rollup: the summarizability gate must refuse (exit 2) and
# name the failing bottom category.
if "$ODCBIN" cube "$STOREDIR/inc" Country --via SaleRegion > "$STOREDIR/cube-bad.txt"; then
  echo "forbidden rollup exited 0:"; cat "$STOREDIR/cube-bad.txt"; exit 1
else
  rc=$?
  [ "$rc" -eq 2 ] || { echo "forbidden rollup exited $rc (want 2)"; cat "$STOREDIR/cube-bad.txt"; exit 1; }
fi
grep -q "failing bottom" "$STOREDIR/cube-bad.txt" \
  || { echo "refusal names no failing bottom:"; cat "$STOREDIR/cube-bad.txt"; exit 1; }

# Incremental vs full validation: the same stream committed under
# --full (whole-world re-validation per batch) must answer identically.
"$ODCBIN" ingest "$STOREDIR/full" examples/location.odcs \
  --facts "$STOREDIR/facts.txt" --batch-rows 4096 --full > /dev/null
"$ODCBIN" cube "$STOREDIR/inc" Country --limit 100 > "$STOREDIR/cells-inc.txt"
"$ODCBIN" cube "$STOREDIR/full" Country --limit 100 > "$STOREDIR/cells-full.txt"
diff "$STOREDIR/cells-inc.txt" "$STOREDIR/cells-full.txt" \
  || { echo "incremental and full ingest answer differently"; exit 1; }
echo "store smoke OK: incremental and full ingest agree"

echo "== store-harness smoke (exp_store) =="
ODC_BENCH_QUICK=1 cargo run --offline --release --quiet -p odc-bench --bin exp_store -- --smoke

echo "CI OK"
