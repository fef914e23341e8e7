// SimEngine: the discrete-event scheduling loop as a steppable object.
//
// simulate() (sim/simulator.hpp) used to own the whole event loop as one
// function. The online scheduler service (src/service/) needs the same
// loop but driven incrementally: jobs are submitted one at a time over a
// socket, fault events are injected at runtime, and the clock is either
// the virtual event clock (replay/drain mode) or the wall clock (the
// daemon's serving mode). SimEngine is that loop, extracted verbatim:
//
//   SimEngine engine(topo, allocator, config);
//   engine.submit(job);          // push an arrival event
//   engine.run();                // or step()/advance_until(t)
//   SimMetrics m = engine.finish();
//
// The batch simulate() is now a thin wrapper — construct, submit every
// trace job in order, load the failure schedule, run, finish — so a trace
// replayed through the engine (in any drive mode that processes the same
// events in the same order) produces bit-identical SimMetrics to the
// historical batch simulator. tests/test_txn_equivalence.cpp pins this.
//
// The engine additionally supports what the batch loop never needed:
// cancel() for queued jobs, per-job phase/record queries for the service
// protocol's `status`, grant/release hooks the daemon uses to write its
// WAL and latency samples, and add_fault() for protocol-injected fail and
// repair events. All of these are pay-for-use and leave the batch path's
// instruction stream unchanged.

#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "defrag/defrag.hpp"
#include "fault/failure_schedule.hpp"
#include "sim/event_queue.hpp"
#include "sim/metrics.hpp"
#include "sim/scheduler.hpp"
#include "sim/simulator.hpp"
#include "sim/speedup.hpp"
#include "topology/cluster_state.hpp"
#include "trace/trace.hpp"

namespace jigsaw {

class TrafficLoadModel;  // engine.cpp; measured-interference mode

/// Lifecycle phase of a job the engine has seen.
enum class JobPhase {
  kUnknown,    ///< never submitted
  kQueued,     ///< submitted; waiting (arrival event pending or in queue)
  kRunning,    ///< holds a partition
  kCompleted,  ///< ran to completion
  kCancelled,  ///< cancelled while queued
};

const char* job_phase_name(JobPhase phase);

class SimEngine {
 public:
  /// `config.failures` is NOT read by the engine itself — the batch
  /// wrapper lowers it through add_fault(); service callers inject faults
  /// directly. Everything else in `config` applies as in simulate().
  SimEngine(const FatTree& topo, const Allocator& allocator,
            const SimConfig& config);
  ~SimEngine();

  SimEngine(const SimEngine&) = delete;
  SimEngine& operator=(const SimEngine&) = delete;

  // -- workload injection -----------------------------------------------
  /// Push one job's arrival event. Throws std::invalid_argument when the
  /// job is larger than the cluster, reuses a known id, or arrives in the
  /// simulated past (before an already-processed event batch).
  void submit(const Job& job);

  /// Cancel a queued job (arrival pending or sitting in the wait queue).
  /// Returns false when the job is unknown, running, or already done —
  /// the engine has no preemption, so only queued work can be cancelled.
  bool cancel(JobId id);

  /// Inject one fail/repair event at `time` (>= now, same rule as
  /// submit). Throws std::invalid_argument when the target lies outside
  /// the tree (fault::validate) or the time is in the simulated past.
  /// Implies set_allow_unfinished(true): a degraded tree may strand jobs.
  void add_fault(double time, bool failure, const fault::FaultTarget& target);

  /// Whether finish() reports unfinished jobs as SimMetrics::abandoned
  /// instead of throwing. Implied by add_fault(); the batch wrapper sets
  /// it when a FailureSchedule is attached (even an empty one).
  void set_allow_unfinished(bool allow) { allow_unfinished_ = allow; }

  // -- drive modes --------------------------------------------------------
  bool idle() const { return events_.empty(); }
  double next_time() const;  ///< +inf when idle
  /// Process the next timestamp batch (all simultaneous events) plus the
  /// scheduling pass that follows it. Precondition: !idle().
  void step();
  /// step() while the next batch is at time <= t (wall-clock drive mode).
  void advance_until(double t);
  /// Drain every event (batch / virtual-clock drive mode). `interrupted`,
  /// when given, is polled between steps so a daemon can abort a long
  /// drain on SIGTERM without losing WAL consistency.
  void run(const std::function<bool()>& interrupted = nullptr);

  /// Finalize and return the run's metrics (idempotent; later calls
  /// return the cached result). Throws std::logic_error when jobs remain
  /// unfinished and no fault events ever entered the run (mirrors the
  /// batch simulator's "simulation ended with unfinished jobs" guard).
  const SimMetrics& finish();

  // -- service-facing queries ---------------------------------------------
  double now() const { return last_event_time_; }
  const FatTree& topo() const { return *topo_; }
  const ClusterState& cluster() const { return state_; }
  std::size_t queue_depth() const { return queue_.size(); }
  std::size_t running_count() const { return running_.size(); }
  std::size_t submitted_count() const { return jobs_.size(); }
  std::size_t completed_count() const { return metrics_.completed; }
  std::size_t cancelled_count() const { return cancelled_; }
  /// Jobs submitted but neither completed nor cancelled (queued+running).
  std::size_t active_count() const {
    return jobs_.size() - metrics_.completed - cancelled_;
  }

  JobPhase phase(JobId id) const;
  /// Submitted job + lifecycle times; start/end are NaN until reached.
  struct JobStatus {
    Job job;
    JobPhase phase = JobPhase::kUnknown;
    double start = std::numeric_limits<double>::quiet_NaN();
    double end = std::numeric_limits<double>::quiet_NaN();
    /// §3.2 condition class that blocked this job's last head placement,
    /// when it is the queue head the scheduler most recently failed to
    /// start under an enabled ObsContext; kNone otherwise (not blocked,
    /// not the head, or the engine runs with observability disabled).
    BlockedReason blocked_reason = BlockedReason::kNone;
  };
  std::optional<JobStatus> status(JobId id) const;

  /// Attribution of the most recent pass that left the head blocked
  /// (kNone when the last pass started its head, the queue is empty, or
  /// the engine runs with observability disabled — the attribution
  /// diagnose() is paid only under an enabled ObsContext).
  BlockedReason head_blocked_reason() const { return head_blocked_reason_; }
  JobId head_blocked_job() const { return head_blocked_job_; }
  /// Open defrag migration windows (0 or 1: plans never overlap).
  int migrations_in_flight() const { return migrations_in_flight_; }

  // -- state snapshot (service/snapshot) ----------------------------------
  /// Append the engine's complete dynamic state to `out` as a
  /// little-endian binary blob (util/binio.hpp): cluster masks, pending
  /// events with their tie-break sequence numbers, queues, running set in
  /// its exact (swap-remove) order, scheduler cache, timeline, and every
  /// metrics accumulator. A restored engine continues the run with a
  /// bit-identical event stream and %.17g-identical finish() metrics.
  /// Returns false with *error in measured-interference mode (the
  /// TrafficLoadModel's RNG-coupled link loads are not snapshotable) or
  /// mid-transaction. Hooks and observability wiring are not part of the
  /// blob; the owner re-installs them.
  bool serialize(std::string* out, std::string* error) const;
  /// Replace this engine's state with a serialized blob. The engine must
  /// have been constructed with an identical topology, allocator, and
  /// config (guard fields are checked). Returns false with *error on a
  /// truncated/corrupt blob or a compat mismatch, leaving the engine in
  /// an unspecified state — callers discard it on failure.
  bool deserialize(std::string_view blob, std::string* error);

  // -- hooks (service WAL / latency accounting) ---------------------------
  /// After every applied grant (post grant_audit). The allocation is
  /// live; do not retain the reference.
  using GrantHook = std::function<void(double now, const Allocation&)>;
  /// After every release; `completed` distinguishes normal completion
  /// from a kill-and-requeue eviction.
  using ReleaseHook = std::function<void(double now, JobId job,
                                         bool completed)>;
  void set_grant_hook(GrantHook hook) { grant_hook_ = std::move(hook); }
  void set_release_hook(ReleaseHook hook) { release_hook_ = std::move(hook); }

 private:
  struct SimObs {
    const obs::ObsContext* ctx = nullptr;  ///< null when fully disabled
    bool tracing = false;
    obs::Counter* arrived = nullptr;
    obs::Counter* started = nullptr;
    obs::Counter* completed = nullptr;
    obs::Counter* passes = nullptr;
    obs::Gauge* queue_depth = nullptr;
    obs::Histogram* pass_seconds = nullptr;
    obs::Histogram* queue_depth_hist = nullptr;
    obs::Histogram* wait_seconds = nullptr;
    obs::Counter* defrag_plans = nullptr;
    obs::Counter* defrag_plan_failures = nullptr;
    obs::Counter* defrag_aborted = nullptr;
    obs::Counter* defrag_migrations = nullptr;
    obs::Counter* defrag_unblocks = nullptr;
    obs::Counter* defrag_unblock_failures = nullptr;

    explicit SimObs(const obs::ObsContext& o);
  };

  double effective_runtime(const Job& j) const {
    return speedups_ ? model_.isolated_runtime(j) : j.runtime;
  }
  void handle_fault_event(double now, const Event& e);
  void handle_arrival(double now, const Job& job);
  void handle_completion(double now, const Event& e, const Job& job);
  void release_running(double now, std::size_t ri, const Job& job);
  void scheduling_pass(double now);
  /// Remove the queue positions in started_positions_ from queue_ and
  /// queue_job_index_, keeping every other job in order.
  void drop_started_from_queue();
  /// End-of-pass stall detector: when the head is blocked on a condition
  /// class a migration could fix, search for a plan and schedule a
  /// kMigrationStart event (defrag enabled only; no-op otherwise).
  void maybe_plan_defrag(double now);
  void handle_migration_start(double now);
  void handle_migration_done(double now);

  /// State the snapshot blob holds in a canonical form rather than as
  /// the engine keeps it: the cluster's raw masks and the pending events
  /// in seq order (engine_snapshot.cpp).
  struct BlobParts;
  /// The snapshot blob's one field list (engine_snapshot.cpp): serialize()
  /// runs it with a BufWriter over `const SimEngine`, deserialize() with
  /// a BufReader over the engine being restored.
  template <typename IO, typename Self>
  static void blob_fields(IO& io, Self& engine, BlobParts& parts);

  const FatTree* topo_;
  const Allocator* allocator_;
  SimConfig config_;
  bool speedups_;
  SpeedupModel model_;
  SimObs so_;

  ClusterState state_;
  EasyScheduler scheduler_;
  EasyScheduler::Cache sched_cache_;
  std::unique_ptr<TrafficLoadModel> traffic_;
  EventQueue events_;

  std::vector<Job> jobs_;  ///< every submitted job, submission order
  std::unordered_map<JobId, std::size_t> job_index_;  ///< id -> jobs_ index
  std::unordered_map<JobId, JobPhase> phase_;
  std::vector<fault::FaultEvent> fault_events_;

  std::deque<PendingJob> queue_;
  std::deque<std::size_t> queue_job_index_;  ///< parallel to queue_
  /// Queue positions the current pass started; scratch that keeps its
  /// capacity across passes, not part of the engine's state.
  std::vector<std::size_t> started_positions_;
  std::vector<RunningJob> running_;
  std::unordered_map<JobId, std::size_t> running_index_;

  /// Attribution of the most recent pass that left the head blocked
  /// (kNone/kNoJob when the last pass started its head or obs is off).
  BlockedReason head_blocked_reason_ = BlockedReason::kNone;
  JobId head_blocked_job_ = kNoJob;

  // -- live defragmentation (config_.defrag.enabled only) -----------------
  std::unique_ptr<DefragPlanner> defrag_planner_;  ///< null when disabled
  /// Plan adopted by the stall detector, awaiting its kMigrationStart
  /// event (executes at the same timestamp, next step).
  std::optional<DefragPlan> pending_plan_;
  int migrations_in_flight_ = 0;
  /// Head job whose unblock outcome the next pass must record.
  JobId unblock_job_ = kNoJob;
  bool unblock_check_pending_ = false;
  /// Stall-detector throttle: at most one plan search per (head job,
  /// cluster revision) — re-arms whenever either changes.
  JobId last_defrag_job_ = kNoJob;
  std::uint64_t last_defrag_revision_ =
      std::numeric_limits<std::uint64_t>::max();

  UtilizationTimeline timeline_;
  SimMetrics metrics_;
  std::size_t cancelled_ = 0;
  double backlogged_seconds_ = 0.0;
  double backlogged_busy_area_ = 0.0;
  double backlogged_waste_area_ = 0.0;
  bool was_backlogged_ = false;
  bool any_event_processed_ = false;
  bool run_start_emitted_ = false;
  bool allow_unfinished_ = false;
  double last_event_time_ = 0.0;
  std::vector<std::pair<double, double>> samples_;  // (time, percent)
  std::vector<double> turnarounds_;
  double turnaround_sum_ = 0.0;
  double turnaround_large_sum_ = 0.0;
  double wait_sum_ = 0.0;
  std::unordered_map<JobId, double> start_time_;
  std::unordered_map<JobId, double> end_time_;
  /// Run generation per job: bumped on every kill-and-requeue so the dead
  /// run's still-queued completion event (EventQueue has no removal) is
  /// recognized as a ghost and skipped.
  std::unordered_map<JobId, std::int64_t> generation_;
  double first_arrival_ = std::numeric_limits<double>::infinity();
  double last_completion_ = 0.0;
  double first_backlog_ = std::numeric_limits<double>::infinity();
  double last_backlog_ = -std::numeric_limits<double>::infinity();

  GrantHook grant_hook_;
  ReleaseHook release_hook_;
  std::optional<SimMetrics> final_;
};

}  // namespace jigsaw
