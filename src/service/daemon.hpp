// ServiceDaemon: protocol semantics, write-ahead logging, and recovery.
//
// The daemon turns request lines into engine operations and replies. It
// is transport-agnostic — handle_line() maps one request line to one
// reply line, so tests and the load bench can drive it directly while
// jigsaw_daemon plugs it into a Reactor. State changes follow a strict
// order: validate, append to the WAL, apply to the engine, then ack —
// the engine never gets ahead of the log, so a failed append rejects
// the request with no state change (a torn record from a crash between
// append and apply replays as an unacknowledged but consistent input),
// and every acknowledged input is recoverable.
//
// Durable acks: an input (submit, cancel, fault, drain) is fsynced before
// its ack leaves. handle_line() syncs it inside the WAL append, before
// the engine applies it, so a failed fsync refuses the request with no
// state change. Socket traffic is group-committed: attach_reactor()
// installs commit() as the reactor's turn-end handler, and the turn's
// lines leave their sync to it (one fsync per turn that appended an
// input, before any reply of the turn is written). If that fsync fails
// the turn's replies are dropped and the service stops (jigsaw_daemon
// exits non-zero for a --recover restart): the engine has applied inputs
// the log may not hold, so it must not serve on. Grant and release
// records are audit facts that recovery re-derives: they never force an
// fsync of their own and ride along with the next one.
//
// A daemon serves one cluster on one thread. Several clusters run as
// several daemons, each with its own socket, WAL and snapshot chain.
//
// Clock modes:
//  * kVirtual — the engine's event clock only advances during `drain`,
//    which runs every pending event and finalizes SimMetrics. A trace
//    replayed this way produces metrics bit-identical to the batch
//    simulator (pinned by tests/test_service.cpp).
//  * kWall — on_idle() (wired as the reactor's idle handler) maps wall
//    time elapsed since startup, scaled by `time_scale`, onto the event
//    clock and advances the engine between requests; `drain` is refused
//    (bad_state) since the wall clock cannot jump.
//
// Recovery (--recover): read_wal() yields the longest valid record
// prefix; the writer truncates the torn tail; inputs (submit / cancel /
// fault / drain) replay through a fresh engine in log order. When the
// log opens with a kSnapshot marker (the daemon compacted it at some
// point), the engine is seeded from that epoch's snapshot file instead
// and only the records after the marker replay — O(events since the
// snapshot), not O(history). A corrupt or missing newest snapshot falls
// back to the previous generation: restore `<wal>.snap.<epoch-1>` and
// replay the rotated-out `<wal>.prev` segment before the current tail
// (or, when no older snapshot exists, replay both segments from
// scratch). Every path ends in the same grant audit. Replay decodes
// each input record with its field list (service/wal.hpp) and applies it
// through the apply() the live handler called after logging it. Each
// input record carries the engine clock at which it was accepted live
// (`accept`); in wall mode replay advances the engine to that clock
// before applying the input, so a cancel removes its job at the same
// point in the event stream it did live — the job's tenure in the wait
// queue (and its effect on EASY reservation / backfill decisions) is
// reproduced exactly. Replay is deterministic, so the grant records it
// re-derives (job id, grant time, node count, crc32 placement digest)
// must match the logged ones byte for byte, the log an exact prefix of
// the re-derivation (RecoveryReport::audit_ok). A drain record makes
// replay finish the run and cache the final metrics, which is how a
// killed daemon's run completes with bit-identical metrics after
// restart. Recovery appends nothing, so recovering twice is idempotent.
// After a wall-mode recovery the wall epoch is shifted back by
// RecoveryReport::resume_clock so wall_elapsed()*time_scale resumes at
// the pre-crash event clock instead of re-elapsing the whole uptime.

#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "service/protocol.hpp"
#include "service/reactor.hpp"
#include "service/snapshot.hpp"
#include "service/wal.hpp"
#include "sim/engine.hpp"

namespace jigsaw::service {

enum class ClockMode { kVirtual, kWall };
/// Acks are always durable (see above). The one-value policy remains so
/// that callers which name it keep compiling.
enum class SyncPolicy { kAlways };

const char* clock_mode_name(ClockMode mode);
/// Parse "virtual"/"wall"; false on junk.
bool parse_clock_mode(const std::string& text, ClockMode* out);

struct DaemonOptions {
  ClockMode clock = ClockMode::kVirtual;
  std::string wal_path;  ///< empty: run without a WAL (no recovery)
  SyncPolicy sync = SyncPolicy::kAlways;
  bool recover = false;  ///< replay an existing WAL before serving
  /// Admission bound: submits beyond this many active (queued + running)
  /// jobs are rejected with queue_full.
  std::size_t max_queue = 4096;
  /// Wall mode: event-clock seconds per wall-clock second.
  double time_scale = 1.0;
  /// Artificial delay between drain steps (crash-window widener for the
  /// kill -9 recovery smoke test; 0 in normal operation).
  std::uint64_t step_delay_us = 0;
  /// Snapshot + compact the WAL after this many accepted inputs (submit/
  /// cancel/fault records since the last snapshot), and retry a failed
  /// one after as many more; 0 disables automatic snapshots (the
  /// `snapshot` protocol op still works).
  std::uint64_t snapshot_every = 0;
};

struct RecoveryReport {
  bool performed = false;
  std::size_t records = 0;        ///< valid records read
  std::size_t inputs_replayed = 0;
  std::size_t grants_logged = 0;  ///< kGrant records in the log
  std::size_t grants_derived = 0; ///< grants re-derived by replay
  std::uint64_t dropped_bytes = 0;///< torn tail truncated away
  bool saw_drain = false;
  bool audit_ok = true;
  bool used_snapshot = false;      ///< engine seeded from a snapshot file
  bool snapshot_fallback = false;  ///< newest snapshot bad; older chain used
  std::uint64_t snapshot_epoch = 0;  ///< epoch restored from (0 = none)
  /// Records replayed after the restored snapshot's marker — the O(tail)
  /// in "O(tail) recovery" (equals `records` when no snapshot was used).
  std::size_t tail_records = 0;
  /// Event clock the recovered run resumes at: the max of every input's
  /// logged accept clock and the last audited grant/release time. Wall
  /// mode shifts the wall epoch back by this much.
  double resume_clock = 0.0;
  std::string error;  ///< nonempty: recovery failed (daemon unusable)
};

class ServiceDaemon {
 public:
  ServiceDaemon(const FatTree& topo, const Allocator& allocator,
                const SimConfig& config, DaemonOptions options);

  /// Open (and optionally recover) the WAL, install engine hooks, start
  /// the wall clock. Must be called once before handle_line().
  bool init(std::string* error);
  const RecoveryReport& recovery() const { return recovery_; }

  /// One request line -> one reply line. The whole protocol lives here.
  /// The reply is durable: an input is fsynced before the engine applies
  /// it, and refused with no state change when that fsync fails.
  std::string handle_line(const std::string& line);
  /// Reply for a reactor overflow (oversized line / pending-queue full).
  std::string overflow_reply(bool oversized_line);

  /// Socket-facing wrapper around handle_line() that additionally answers
  /// plain HTTP `GET /metrics` on the same listener: a "GET " line earns
  /// a full HTTP response via Reactor::send_raw() plus close_client(),
  /// and the request's remaining header lines are swallowed instead of
  /// being fed to the JSON parser. Requires attach_reactor(): requests
  /// go through handle_line_deferred() and the turn-end handler commits
  /// them; without a reactor it degrades to handle_line(). Returns the
  /// reply line to queue ("" for none).
  std::string handle_socket_line(Reactor::ClientId client,
                                 std::string&& line);

  /// Current metrics as Prometheus text exposition (refreshes the
  /// point-in-time gauges first). Empty when the daemon runs without a
  /// metrics registry.
  std::string metrics_text();
  /// Full HTTP/1.0 response (headers + body, no trailing newline added)
  /// for the given request line: 200 with the exposition for
  /// `GET /metrics`, 404 otherwise, 503 when metrics are disabled.
  std::string http_metrics_response(const std::string& request_line);

  /// Reactor to stop on `shutdown` (optional; handle_line works without).
  /// Installs commit() as the reactor's turn-end handler, a slot of its
  /// own, so callers may still set their own line and idle handlers.
  void attach_reactor(Reactor* reactor);
  /// Polled between drain steps so SIGTERM can abort a long drain.
  void set_interrupt_check(std::function<bool()> check) {
    interrupt_check_ = std::move(check);
  }

  /// Reactor idle handler: advance the engine (wall mode); returns the
  /// next poll timeout in seconds (< 0 = block).
  double on_idle();

  /// fsync whatever the WAL holds unsynced (graceful-shutdown path; safe
  /// when no WAL).
  void flush();

  /// Why the WAL refuses further appends (a failed fsync, or a torn frame
  /// that could not be cut off); empty while it is healthy.
  const std::string& wal_failure() const { return wal_.failure(); }

  bool drained() const { return final_metrics_.has_value(); }
  const SimEngine& engine() const { return *engine_; }

  /// Serialize the full daemon state to `<wal>.snap.<epoch+1>` and
  /// compact the WAL: the current segment (fully synced) rotates to
  /// `<wal>.prev`, a fresh segment opens with a kSnapshot marker naming
  /// the new epoch, and the epoch-2 snapshot is retired (two-generation
  /// retention backs the corruption fallback). False with *error when no
  /// WAL is open, the daemon has drained, the engine refuses to
  /// serialize (measured-interference mode), or a file step fails.
  bool snapshot_now(std::string* error);
  std::uint64_t snapshot_epoch() const { return snapshot_epoch_; }
  std::uint64_t snapshots_taken() const { return snapshots_taken_; }

  /// Wall-clock submit->grant latencies observed so far (seconds), in
  /// grant order; `stats` reports their percentiles.
  const std::vector<double>& grant_latencies() const {
    return grant_latencies_;
  }

 private:
  /// handle_line() for group commit: an input's fsync is left to the next
  /// commit(). The reactor holds the reply until commit() succeeds and
  /// drops it otherwise.
  std::string handle_line_deferred(const std::string& line);
  /// Group commit: fsync once if an input was appended since the last
  /// sync. False when that fsync failed; the WAL then refuses every later
  /// append (wal_failure()), and the engine may hold inputs the log does
  /// not, so the reactor must stop serving.
  bool commit(std::string* error);

  std::string handle_submit(const Request& req);
  std::string handle_cancel(const Request& req);
  std::string handle_status(const Request& req);
  std::string handle_stats(const Request& req);
  std::string handle_metrics(const Request& req);
  std::string handle_fault(const Request& req);
  std::string handle_drain(const Request& req);
  std::string handle_snapshot(const Request& req);
  std::string handle_shutdown(const Request& req);

  /// Point-in-time gauges recomputed per scrape (utilization, queue
  /// depth, WAL size/replay-lag, structural fragmentation). No-op
  /// without a metrics registry.
  void refresh_gauges();

  bool recover_from_wal(const WalReadResult& log, std::string* error);
  /// Replay one WAL segment's records starting at index `first`,
  /// collecting logged grant payloads and the grant/release horizon.
  /// `resume` accumulates the max accept clock seen. A kSnapshot record
  /// anywhere past a segment head is corruption and fails the replay.
  bool replay_records(const std::vector<WalRecord>& records,
                      std::size_t first, std::vector<std::string>* logged,
                      double* horizon, double* resume, std::string* error);
  /// Apply one logged input: the one place each input changes the engine
  /// and the counters it moves (next_job_id_, next_corr_, corr_,
  /// inputs_since_snapshot_), for live handlers and replay alike. Throws
  /// when the engine refuses the input (say, a fault target outside the
  /// tree) or a drain does not finish.
  void apply(const SubmitRecord& r);
  void apply(const CancelRecord& r);
  void apply(const FaultRecord& r);
  void apply(const DrainRecord& r);
  /// Seed the daemon from one snapshot file: engine blob, id/corr
  /// counters, grant/release totals, wall target. On failure the engine
  /// may be half-written; the caller resets it before any fallback.
  bool restore_from_snapshot(const SnapshotData& data, std::string* error);
  /// Recovery-only: discard the (possibly half-restored) engine and every
  /// counter a snapshot restore touches, back to the scratch-replay state.
  void reset_recovery_state();
  /// Compact once --snapshot-every inputs have been accepted since the
  /// last snapshot or failed attempt (failure is logged, never surfaced
  /// to the triggering request — the WAL still holds every record).
  void maybe_snapshot();
  bool run_drain(std::string* error);  ///< run + finish, step-delay aware
  void install_live_hooks();
  void on_grant(double now, const Allocation& alloc);
  void on_release(double now, JobId job, bool completed);
  /// Append `rec`'s payload; an input is also synced unless the caller
  /// defers to commit(). A no-op without a WAL.
  template <typename Record>
  bool wal_append(const Record& rec, std::string* error);
  /// Log an input's record, then apply() it. The error reply when the
  /// append fails, which leaves the engine untouched.
  template <typename Record>
  std::optional<std::string> log_and_apply(const Record& rec,
                                           const std::string& seq);
  /// fsync the WAL, timed and counted in wal_syncs_.
  bool sync_wal(std::string* error);

  double wall_elapsed() const;  ///< wall seconds since init()
  /// Wall mode: map wall time onto the event clock and advance.
  void advance_wall();
  /// Engine clock an input accepted now is stamped with in the WAL: the
  /// current wall target in wall mode (the exact advance_until() bound,
  /// so replay reproduces the same processed-event prefix), the event
  /// clock in virtual mode.
  double input_clock() const;
  void emit(const char* name, JobId job = kNoJob);

  const FatTree* topo_;
  const Allocator* allocator_;  ///< kept to rebuild the engine in recovery
  DaemonOptions options_;
  SimConfig config_;
  /// Owned indirectly so fallback recovery can discard a half-restored
  /// engine (SimEngine is neither copyable nor movable).
  std::unique_ptr<SimEngine> engine_;
  Reactor* reactor_ = nullptr;
  std::function<bool()> interrupt_check_;

  WalWriter wal_;
  bool input_unsynced_ = false;  ///< an input awaits commit()
  bool defer_sync_ = false;      ///< inside handle_line_deferred()
  std::uint64_t wal_syncs_ = 0;  ///< successful fsyncs, this process
  bool recovering_ = false;  ///< replay in progress: hooks stay quiet
  RecoveryReport recovery_;

  std::uint64_t snapshot_epoch_ = 0;  ///< newest epoch written/restored
  std::uint64_t inputs_since_snapshot_ = 0;
  /// inputs_since_snapshot_ at the last failed automatic snapshot (0
  /// after a success): maybe_snapshot() backs off from there.
  std::uint64_t failed_snapshot_at_ = 0;
  std::uint64_t snapshots_taken_ = 0;  ///< this process only (not restored)

  JobId next_job_id_ = 0;
  std::optional<SimMetrics> final_metrics_;
  std::chrono::steady_clock::time_point start_;
  /// Wall mode: the last advance_until() bound (monotone; equals the
  /// recovered resume_clock right after a wall-mode recovery).
  double wall_target_ = 0.0;

  std::vector<std::string> derived_grants_;  ///< replay's grant payloads

  std::unordered_map<JobId, double> submit_wall_;  ///< id -> wall seconds
  std::vector<double> grant_latencies_;
  std::uint64_t grants_ = 0;
  std::uint64_t releases_ = 0;

  /// Correlation ids: one monotone id per accepted submit, threaded
  /// through the ack reply, the WAL submit record, grant/release trace
  /// events, and the status op, so a submission can be followed across
  /// the reactor, the engine, and the log. Recovery restores the counter
  /// past the highest replayed id.
  std::uint64_t next_corr_ = 1;
  std::unordered_map<JobId, std::uint64_t> corr_;

  /// Clients that spoke HTTP ("GET ..."): their remaining header lines
  /// are swallowed until the close completes. Pruned wholesale at a size
  /// cap — every member was close_client()ed the moment it was added, so
  /// stale ids only cost memory, never semantics.
  std::unordered_set<Reactor::ClientId> http_clients_;

  /// Pre-resolved latency histogram handles (null without a registry):
  /// request-handling (ack), wall-clock submit->grant, and WAL
  /// append/fsync. Resolved once in init() so the hot paths pay a null
  /// check, not a name lookup.
  obs::Histogram* ack_seconds_ = nullptr;
  obs::Histogram* grant_latency_seconds_ = nullptr;
  obs::Histogram* wal_append_seconds_ = nullptr;
  obs::Histogram* wal_sync_seconds_ = nullptr;
};

}  // namespace jigsaw::service
