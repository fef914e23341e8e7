#!/usr/bin/env bash
# Crash-recovery smoke test for the online scheduler service.
#
# Runs the same trace twice through jigsaw_daemon in virtual-clock mode,
# each time followed by the same cancel, fail and repair, so the log holds
# every input record type: once uninterrupted (the reference), once with
# the daemon killed -9 in the middle of the drain and restarted with
# --recover. Asserts that
#
#   1. the restarted daemon reports a successful recovery audit and that
#      the interrupted drain resumed to completion, and
#   2. the recovered run's final SimMetrics are bit-identical to the
#      reference (excluding the wall-clock scheduling-time fields, which
#      no two runs reproduce).
#
# Every kill -9 waits until the drain has logged its marker and its first
# release, and the script fails if the drain finished first. Every WAL
# daemon is held to group commit: at most one fsync per acknowledged
# input, plus two per snapshot rotation.
#
# Then exercises the live observability plane:
#
#   3. a --metrics daemon is scraped over HTTP (GET /metrics on the same
#      unix listener) in the middle of a live drain; the reply must be
#      valid Prometheus text exposition (format-checked line by line,
#      histogram bucket monotonicity included), and
#   4. a daemon started WITHOUT --metrics must refuse the metrics op
#      (bad_state), answer the HTTP scrape with 503, and report
#      "obs_enabled":false in stats — the disabled hot loop does no
#      observability work.
#
# Then the snapshot subsystem:
#
#   5. a --snapshot-every daemon is killed -9 mid-drain after at least
#      one WAL compaction; the restart restores the snapshot, replays
#      only the post-snapshot tail (O(tail), asserted against the input
#      count), and drains to metrics bit-identical to the reference.
#
# Usage: scripts/service_smoke.sh [BUILD_DIR]   (default: build)

set -euo pipefail

BUILD_DIR="${1:-build}"
DAEMON="$BUILD_DIR/examples/jigsaw_daemon"
CLIENT="$BUILD_DIR/examples/jigsaw_client"
JOBS="${JOBS:-300}"

for bin in "$DAEMON" "$CLIENT"; do
  [ -x "$bin" ] || { echo "missing binary: $bin" >&2; exit 1; }
done

WORK="$(mktemp -d "${TMPDIR:-/tmp}/jigsaw_smoke.XXXXXX")"
DAEMON_PID=""
cleanup() {
  [ -n "$DAEMON_PID" ] && kill "$DAEMON_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

SOCK="$WORK/jigsaw.sock"

start_daemon() {  # start_daemon [extra flags...]
  "$DAEMON" --listen "unix:$SOCK" "$@" 2> "$WORK/daemon.log" &
  DAEMON_PID=$!
  # Wait until the socket answers (the daemon prints "listening on ..."
  # before entering the reactor, but ping is the real readiness signal).
  for _ in $(seq 1 100); do
    if "$CLIENT" --connect "unix:$SOCK" --op ping > /dev/null 2>&1; then
      return 0
    fi
    kill -0 "$DAEMON_PID" 2>/dev/null || {
      echo "daemon died during startup:" >&2
      cat "$WORK/daemon.log" >&2
      exit 1
    }
    sleep 0.1
  done
  echo "daemon never became ready" >&2
  exit 1
}

stop_daemon() {
  "$CLIENT" --connect "unix:$SOCK" --op shutdown > /dev/null
  wait "$DAEMON_PID" 2>/dev/null || true
  DAEMON_PID=""
}

wal_bytes() { wc -c < "$1"; }

# kill_mid_drain WAL PRE_BYTES DRAIN_OUT: kill -9 the daemon once the WAL
# holds, past PRE_BYTES (its size before the drain), the drain marker and
# the drain's first release record; then fail if the drain had finished
# first (its ok reply reached the drain client's output DRAIN_OUT), which
# would leave the mid-drain recovery path untested.
kill_mid_drain() {
  python3 - "$1" "$2" <<'EOF'
import struct, sys, time
path, pre = sys.argv[1], int(sys.argv[2])
RELEASE = 6  # WalRecordType::kRelease
deadline = time.monotonic() + 120
while time.monotonic() < deadline:
    with open(path, "rb") as f:
        f.seek(pre)
        data = f.read()
    off = 0
    while off + 8 <= len(data):
        length, kind = struct.unpack_from("<II", data, off)
        if off + 12 + length > len(data):
            break
        if kind == RELEASE:
            sys.exit(0)
        off += 12 + length
    time.sleep(0.002)
sys.exit(f"{path}: the drain logged no release within 120 s")
EOF
  kill -9 "$DAEMON_PID"
  wait "$DAEMON_PID" 2>/dev/null || true
  DAEMON_PID=""
  wait "$DRAIN_PID" 2>/dev/null || true
  if grep -q '"ok":true' "$3"; then
    echo "drain finished before the kill; mid-drain recovery untested" >&2
    exit 1
  fi
}

# check_fsyncs STATS_JSON INPUTS: group commit made at most one fsync per
# acknowledged input, plus two per snapshot rotation (one for the
# retiring segment, one for the new segment's marker).
check_fsyncs() {
  python3 - "$1" "$2" <<'EOF'
import json, sys
stats = json.loads(open(sys.argv[1]).read().splitlines()[-1])["stats"]
inputs = int(sys.argv[2])
snapshots = stats.get("snapshots", 0)
bound = inputs + 2 * snapshots
syncs = stats["wal_syncs"]
assert syncs <= bound, \
    f"{syncs} WAL fsyncs for {inputs} acked inputs (bound {bound}): {stats}"
print(f"group commit: {syncs} WAL fsyncs for {inputs} acked inputs "
      f"and {snapshots} snapshots")
EOF
}

# send_inputs: the cancel, fail and repair that follow the trace in both
# the reference and the crash run. Every job is still queued (the virtual
# clock stands still until the drain), and the leaf-switch failure at
# t=500 kills running jobs.
SENT_INPUTS=3
send_inputs() {
  local c="$CLIENT --connect unix:$SOCK"
  $c --op cancel --job 7 > /dev/null
  $c --op fail --target "leafswitch 2" --time 500 > /dev/null
  $c --op repair --target "leafswitch 2" --time 2000 > /dev/null
}

# ---- 1. reference: uninterrupted run ----------------------------------------
echo "== reference run ($JOBS jobs) =="
start_daemon
"$CLIENT" --connect "unix:$SOCK" --op submit-trace --jobs "$JOBS" > /dev/null
send_inputs
"$CLIENT" --connect "unix:$SOCK" --op drain > "$WORK/reference_drain.json"
stop_daemon

# ---- 2. crash run: kill -9 mid-drain ----------------------------------------
echo "== crash run: kill -9 mid-drain =="
# step-delay widens the drain so the kill reliably lands inside it.
start_daemon --wal "$WORK/run.wal" --step-delay-us 2000
"$CLIENT" --connect "unix:$SOCK" --op submit-trace --jobs "$JOBS" > /dev/null
send_inputs
"$CLIENT" --connect "unix:$SOCK" --op stats > "$WORK/run_stats.json"
check_fsyncs "$WORK/run_stats.json" "$((JOBS + SENT_INPUTS))"
PRE_DRAIN=$(wal_bytes "$WORK/run.wal")
"$CLIENT" --connect "unix:$SOCK" --op drain > "$WORK/run_drain.json" 2>&1 &
DRAIN_PID=$!
kill_mid_drain "$WORK/run.wal" "$PRE_DRAIN" "$WORK/run_drain.json"

# ---- 3. restart with --recover ----------------------------------------------
echo "== recovery run =="
start_daemon --wal "$WORK/run.wal" --recover
grep -q "recovered WAL" "$WORK/daemon.log" || {
  echo "daemon did not report a recovery:" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
}
grep -q "drain resumed to completion" "$WORK/daemon.log" || {
  echo "recovery did not resume the interrupted drain:" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
}
"$CLIENT" --connect "unix:$SOCK" --op stats > "$WORK/stats.json"
grep -q '"recovery_audit_ok":true' "$WORK/stats.json" || {
  echo "recovery audit failed:" >&2
  cat "$WORK/stats.json" >&2
  exit 1
}
# drain on a recovered (already drained) daemon returns the cached metrics.
"$CLIENT" --connect "unix:$SOCK" --op drain > "$WORK/recovered_drain.json"
stop_daemon

# ---- 4. metrics must match bit for bit --------------------------------------
python3 - "$WORK/reference_drain.json" "$WORK/recovered_drain.json" <<'EOF'
import json, sys

WALL_FIELDS = {"sched_wall_seconds", "mean_sched_time_per_job"}

def metrics(path):
    with open(path) as f:
        doc = json.loads(f.read().splitlines()[-1])
    assert doc.get("ok") is True, f"{path}: drain not ok: {doc}"
    return {k: v for k, v in doc["metrics"].items() if k not in WALL_FIELDS}

ref, rec = metrics(sys.argv[1]), metrics(sys.argv[2])
diff = {k for k in ref.keys() | rec.keys() if ref.get(k) != rec.get(k)}
assert not diff, f"metrics diverge after recovery: {sorted(diff)}"
print(f"recovered metrics bit-identical to reference "
      f"({len(ref)} fields compared)")
EOF

# ---- 5. live metrics scrape mid-drain ---------------------------------------
echo "== live metrics scrape mid-drain =="
rm -f "$SOCK"
# step-delay widens the drain so the scrape reliably lands inside it.
start_daemon --metrics --step-delay-us 2000
"$CLIENT" --connect "unix:$SOCK" --op submit-trace --jobs "$JOBS" > /dev/null
"$CLIENT" --connect "unix:$SOCK" --op drain > /dev/null 2>&1 &
DRAIN_PID=$!
sleep 0.3
if ! kill -0 "$DRAIN_PID" 2>/dev/null; then
  echo "warning: drain finished before the scrape; endpoint still exercised" >&2
fi
# HTTP on the protocol listener. curl when available, python fallback.
if command -v curl > /dev/null 2>&1; then
  curl -sf --max-time 10 --unix-socket "$SOCK" http://localhost/metrics \
    > "$WORK/scrape.txt"
else
  python3 - "$SOCK" > "$WORK/scrape.txt" <<'EOF'
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.settimeout(10)
s.connect(sys.argv[1])
s.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
data = b""
while chunk := s.recv(65536):
    data += chunk
head, _, body = data.partition(b"\r\n\r\n")
status = head.split(b"\r\n", 1)[0]
assert b" 200 " in status, f"scrape failed: {status!r}"
sys.stdout.write(body.decode())
EOF
fi
wait "$DRAIN_PID" 2>/dev/null || true
python3 - "$WORK/scrape.txt" <<'EOF'
import re, sys
from collections import defaultdict

text = open(sys.argv[1]).read()
assert text.endswith("\n"), "exposition must end with a newline"
sample_re = re.compile(
    r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (-?[0-9.eE+-]+|[+-]?Inf|NaN)$")
types, samples, buckets = {}, [], defaultdict(list)
for line in text.splitlines():
    if not line:
        continue
    if line.startswith("#"):
        m = re.match(r"^# (HELP|TYPE) ([a-zA-Z_:][a-zA-Z0-9_:]*) ", line)
        assert m, f"malformed comment line: {line!r}"
        if m.group(1) == "TYPE":
            types[m.group(2)] = line.split()[-1]
        continue
    m = sample_re.match(line)
    assert m, f"malformed sample line: {line!r}"
    name, labels, value = m.groups()
    samples.append(name)
    if name.endswith("_bucket"):
        le = re.search(r'le="([^"]*)"', labels or "")
        assert le, f"_bucket without le label: {line!r}"
        buckets[name[:-len("_bucket")]].append(
            (float("inf") if le.group(1) == "+Inf" else float(le.group(1)),
             float(value)))
assert samples, "no samples in the scrape"
for required in ("jigsaw_cluster_utilization", "jigsaw_queue_depth",
                 "jigsaw_jobs_running", "jigsaw_frag_free_nodes",
                 "jigsaw_service_ack_seconds_count"):
    assert required in samples, f"missing expected series: {required}"
assert any(t == "histogram" for t in types.values()), "no histogram TYPE"
for base, series in buckets.items():
    series.sort()
    counts = [c for _, c in series]
    assert counts == sorted(counts), f"{base}: buckets not cumulative"
    assert series[-1][0] == float("inf"), f"{base}: missing +Inf bucket"
print(f"valid Prometheus exposition: {len(samples)} samples, "
      f"{len(buckets)} histograms")
EOF
# The metrics op returns the same exposition through the line protocol.
"$CLIENT" --connect "unix:$SOCK" --op metrics > "$WORK/metrics_op.json"
grep -q '"format":"prometheus"' "$WORK/metrics_op.json" || {
  echo "metrics op did not return prometheus payload:" >&2
  cat "$WORK/metrics_op.json" >&2
  exit 1
}
stop_daemon

# ---- 6. disabled observability must stay disabled ---------------------------
echo "== disabled-obs daemon =="
rm -f "$SOCK"
start_daemon
"$CLIENT" --connect "unix:$SOCK" --op stats > "$WORK/noobs_stats.json"
grep -q '"obs_enabled":false' "$WORK/noobs_stats.json" || {
  echo "disabled-obs daemon did not report obs_enabled:false:" >&2
  cat "$WORK/noobs_stats.json" >&2
  exit 1
}
if "$CLIENT" --connect "unix:$SOCK" --op metrics > "$WORK/noobs_metrics.json" \
    2>/dev/null; then
  echo "metrics op unexpectedly succeeded without --metrics" >&2
  exit 1
fi
grep -q '"error":"bad_state"' "$WORK/noobs_metrics.json" || {
  echo "metrics op without --metrics did not return bad_state:" >&2
  cat "$WORK/noobs_metrics.json" >&2
  exit 1
}
python3 - "$SOCK" <<'EOF'
import socket, sys
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.settimeout(10)
s.connect(sys.argv[1])
s.sendall(b"GET /metrics HTTP/1.0\r\n\r\n")
data = b""
while chunk := s.recv(65536):
    data += chunk
status = data.split(b"\r\n", 1)[0]
assert b" 503 " in status, f"expected 503 without --metrics, got {status!r}"
print("HTTP scrape correctly answers 503 without --metrics")
EOF
stop_daemon

# ---- 7. snapshot compaction: kill -9 after a compaction, O(tail) recovery ---
echo "== snapshot run: kill -9 mid-drain after compaction =="
rm -f "$SOCK"
# Cadence well below the job count so at least one compaction happens
# before the drain; step-delay widens the drain for a reliable kill.
start_daemon --wal "$WORK/snap.wal" --snapshot-every 100 \
  --step-delay-us 2000
"$CLIENT" --connect "unix:$SOCK" --op submit-trace --jobs "$JOBS" > /dev/null
send_inputs  # the reference's inputs: its metrics are the yardstick below
"$CLIENT" --connect "unix:$SOCK" --op stats > "$WORK/snap_stats.json"
grep -q '"snapshots":0' "$WORK/snap_stats.json" && {
  echo "no compaction happened before the crash:" >&2
  cat "$WORK/snap_stats.json" >&2
  exit 1
}
check_fsyncs "$WORK/snap_stats.json" "$((JOBS + SENT_INPUTS))"
PRE_DRAIN=$(wal_bytes "$WORK/snap.wal")
"$CLIENT" --connect "unix:$SOCK" --op drain > "$WORK/snap_crash_drain.json" \
  2>&1 &
DRAIN_PID=$!
kill_mid_drain "$WORK/snap.wal" "$PRE_DRAIN" "$WORK/snap_crash_drain.json"

start_daemon --wal "$WORK/snap.wal" --snapshot-every 100 \
  --recover
grep -q "snapshot epoch" "$WORK/daemon.log" || {
  echo "recovery did not restore from a snapshot:" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
}
"$CLIENT" --connect "unix:$SOCK" --op stats > "$WORK/snap_recover_stats.json"
python3 - "$WORK/snap_recover_stats.json" "$((JOBS + SENT_INPUTS))" <<'EOF'
import json, sys
doc = json.loads(open(sys.argv[1]).read().splitlines()[-1])
doc = doc.get("stats", doc)
inputs = int(sys.argv[2])
assert doc.get("recovery_audit_ok") is True, f"audit failed: {doc}"
assert doc.get("recovery_used_snapshot") is True, \
    f"recovery ignored the snapshot: {doc}"
assert doc.get("recovery_snapshot_fallback") is False, \
    f"unexpected fallback: {doc}"
# O(tail): only the inputs logged after the last compaction replay. The
# cadence is 100, so the tail holds < 100 inputs + the drain marker —
# never the whole history.
replayed = doc["recovery_inputs_replayed"]
assert replayed <= 101, f"tail replay too large: {replayed} of {inputs}"
print(f"snapshot recovery replayed {replayed} tail inputs "
      f"(of {inputs + 1} logged), epoch {doc['recovery_snapshot_epoch']}")
EOF
"$CLIENT" --connect "unix:$SOCK" --op drain > "$WORK/snap_drain.json"
stop_daemon
python3 - "$WORK/reference_drain.json" "$WORK/snap_drain.json" <<'EOF'
import json, sys

WALL_FIELDS = {"sched_wall_seconds", "mean_sched_time_per_job"}

def metrics(path):
    with open(path) as f:
        doc = json.loads(f.read().splitlines()[-1])
    assert doc.get("ok") is True, f"{path}: drain not ok: {doc}"
    return {k: v for k, v in doc["metrics"].items() if k not in WALL_FIELDS}

ref, rec = metrics(sys.argv[1]), metrics(sys.argv[2])
diff = {k for k in ref.keys() | rec.keys() if ref.get(k) != rec.get(k)}
assert not diff, f"metrics diverge after snapshot recovery: {sorted(diff)}"
print(f"snapshot-recovered metrics bit-identical to reference "
      f"({len(ref)} fields compared)")
EOF

# ---- 8. defrag daemon: kill -9 mid-migration, recovery drains cleanly -------
echo "== defrag run: migration under crash recovery =="
# The hand-crafted stall workload from tests/test_defrag.cpp, scaled to
# the radix-8 tree (FatTree(4,4,8), 128 nodes): two leaf-sharing 2-node
# pairs in tree 0, seven whole-tree fillers in trees 1-7. After the two
# 100 s leaf-mates finish, the 12-node head sees 12 free nodes but only
# two fully-free leaves -- blocked on leaf_spread until the defrag
# engine migrates one 2-node job; the drain must report exactly one
# migration.
submit_defrag_workload() {
  local c="$CLIENT --connect unix:$SOCK --timeout 30"
  $c --op submit --id 1 --arrival 0 --nodes 2 --runtime 100 > /dev/null
  $c --op submit --id 2 --arrival 0 --nodes 2 --runtime 10000 > /dev/null
  $c --op submit --id 3 --arrival 0 --nodes 2 --runtime 100 > /dev/null
  $c --op submit --id 4 --arrival 0 --nodes 2 --runtime 10000 > /dev/null
  local id
  for id in 5 6 7 8 9 10 11; do
    $c --op submit --id "$id" --arrival 0 --nodes 16 --runtime 10000 > /dev/null
  done
  $c --op submit --id 12 --arrival 10 --nodes 12 --runtime 50 > /dev/null
}
rm -f "$SOCK"
start_daemon --radix 8 --defrag --migration-cost 40
submit_defrag_workload
"$CLIENT" --connect "unix:$SOCK" --op drain > "$WORK/defrag_reference.json"
grep -q '"migrations":1' "$WORK/defrag_reference.json" || {
  echo "defrag reference run performed no migration:" >&2
  cat "$WORK/defrag_reference.json" >&2
  exit 1
}
grep -q '"head_unblocks":1' "$WORK/defrag_reference.json" || {
  echo "defrag reference run did not unblock the head:" >&2
  cat "$WORK/defrag_reference.json" >&2
  exit 1
}
stop_daemon

rm -f "$SOCK"
# The step delay stretches the ~10-step drain to ~1.5 s of wall time; the
# first release is the t=100 completion of a leaf-mate, so the kill lands
# around the migration steps.
start_daemon --radix 8 --defrag --migration-cost 40 \
  --wal "$WORK/defrag.wal" --step-delay-us 150000
submit_defrag_workload
"$CLIENT" --connect "unix:$SOCK" --op stats > "$WORK/defrag_run_stats.json"
check_fsyncs "$WORK/defrag_run_stats.json" 12
PRE_DRAIN=$(wal_bytes "$WORK/defrag.wal")
"$CLIENT" --connect "unix:$SOCK" --op drain > "$WORK/defrag_crash_drain.json" \
  2>&1 &
DRAIN_PID=$!
kill_mid_drain "$WORK/defrag.wal" "$PRE_DRAIN" "$WORK/defrag_crash_drain.json"

start_daemon --radix 8 --defrag --migration-cost 40 \
  --wal "$WORK/defrag.wal" --recover
grep -q "recovered WAL" "$WORK/daemon.log" || {
  echo "defrag daemon did not report a recovery:" >&2
  cat "$WORK/daemon.log" >&2
  exit 1
}
"$CLIENT" --connect "unix:$SOCK" --op stats > "$WORK/defrag_stats.json"
grep -q '"recovery_audit_ok":true' "$WORK/defrag_stats.json" || {
  echo "defrag recovery audit failed (migration grants must replay):" >&2
  cat "$WORK/defrag_stats.json" >&2
  exit 1
}
"$CLIENT" --connect "unix:$SOCK" --op drain > "$WORK/defrag_drain.json"
stop_daemon
python3 - "$WORK/defrag_reference.json" "$WORK/defrag_drain.json" <<'EOF'
import json, sys

WALL_FIELDS = {"sched_wall_seconds", "mean_sched_time_per_job"}

def metrics(path):
    with open(path) as f:
        doc = json.loads(f.read().splitlines()[-1])
    assert doc.get("ok") is True, f"{path}: drain not ok: {doc}"
    return {k: v for k, v in doc["metrics"].items() if k not in WALL_FIELDS}

ref, rec = metrics(sys.argv[1]), metrics(sys.argv[2])
assert ref["migrations"] == 1, f"reference lost its migration: {ref}"
diff = {k for k in ref.keys() | rec.keys() if ref.get(k) != rec.get(k)}
assert not diff, f"metrics diverge after defrag recovery: {sorted(diff)}"
print(f"defrag recovery: migration replayed, metrics bit-identical "
      f"({len(ref)} fields compared)")
EOF

echo "service smoke: PASS"
