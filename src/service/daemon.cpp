#include "service/daemon.hpp"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <stdexcept>

#include "core/fragmentation.hpp"
#include "fault/failure_schedule.hpp"
#include "obs/prometheus.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "util/stats.hpp"

namespace jigsaw::service {

namespace {

void append_kv(std::string& out, const char* key, double v) {
  out += ",\"";
  out += key;
  out += "\":";
  append_double(out, v);
}

void append_kv(std::string& out, const char* key, std::uint64_t v) {
  out += ",\"";
  out += key;
  out += "\":";
  out += std::to_string(v);
}

void append_kv(std::string& out, const char* key, const std::string& v) {
  out += ",\"";
  out += key;
  out += "\":\"";
  out += obs::json_escape(v);
  out += '"';
}

/// A grant as the WAL logs it and the recovery audit compares it.
GrantRecord grant_record(double now, const Allocation& alloc) {
  std::string placement;
  BufWriter w(placement);
  allocation_fields(w, alloc);
  return {alloc.job, now, alloc.allocated_nodes(),
          crc32(placement.data(), placement.size())};
}

/// Read `rec`'s payload as a Record, or throw.
template <typename Record>
Record decoded(const WalRecord& rec) {
  Record out;
  if (!read_payload(rec.payload, &out)) {
    throw std::invalid_argument("malformed payload");
  }
  return out;
}

}  // namespace

const char* clock_mode_name(ClockMode mode) {
  return mode == ClockMode::kWall ? "wall" : "virtual";
}

bool parse_clock_mode(const std::string& text, ClockMode* out) {
  if (text == "virtual") {
    *out = ClockMode::kVirtual;
  } else if (text == "wall") {
    *out = ClockMode::kWall;
  } else {
    return false;
  }
  return true;
}

ServiceDaemon::ServiceDaemon(const FatTree& topo, const Allocator& allocator,
                             const SimConfig& config, DaemonOptions options)
    : topo_(&topo),
      allocator_(&allocator),
      options_(std::move(options)),
      config_(config),
      engine_(std::make_unique<SimEngine>(topo, allocator, config)) {}

double ServiceDaemon::wall_elapsed() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start_)
      .count();
}

void ServiceDaemon::emit(const char* name, JobId job) {
  if (!config_.obs.tracing()) return;
  obs::TraceEvent e = obs::instant("service", name, engine_->now());
  if (job != kNoJob) e.arg("job", static_cast<std::int64_t>(job));
  config_.obs.emit(e);
}

void ServiceDaemon::install_live_hooks() {
  engine_->set_grant_hook([this](double now, const Allocation& alloc) {
    on_grant(now, alloc);
  });
  engine_->set_release_hook([this](double now, JobId job, bool completed) {
    on_release(now, job, completed);
  });
}

void ServiceDaemon::reset_recovery_state() {
  engine_ = std::make_unique<SimEngine>(*topo_, *allocator_, config_);
  install_live_hooks();
  derived_grants_.clear();
  next_job_id_ = 0;
  next_corr_ = 1;
  corr_.clear();
  grants_ = 0;
  releases_ = 0;
  wall_target_ = 0.0;
  final_metrics_.reset();
  inputs_since_snapshot_ = 0;
  recovery_.inputs_replayed = 0;
  recovery_.saw_drain = false;
}

template <typename Record>
bool ServiceDaemon::wal_append(const Record& rec, std::string* error) {
  if (options_.wal_path.empty()) return true;
  if (!wal_.is_open()) {
    // A snapshot rotation retired the segment but could not open the next
    // one: refuse the input rather than ack it unlogged.
    *error = "no open WAL segment after a failed rotation";
    return false;
  }
  const std::string payload = wal_payload(rec);
  {
    obs::ScopedTimer timer(wal_append_seconds_, wal_append_seconds_ != nullptr);
    if (!wal_.append(Record::kType, payload, error)) return false;
  }
  // Grants and releases ride along with the next input's sync: recovery
  // re-derives them, so losing the unsynced tail of them loses nothing.
  if (!kWalInput<Record>) return true;
  input_unsynced_ = true;
  // An input is durable before the engine applies it, unless the caller
  // holds the reply for its own commit() (group commit).
  return defer_sync_ || commit(error);
}

template <typename Record>
std::optional<std::string> ServiceDaemon::log_and_apply(
    const Record& rec, const std::string& seq) {
  std::string error;
  if (!wal_append(rec, &error)) {
    return error_reply(ErrorCode::kInternal, "WAL append failed: " + error,
                       seq);
  }
  apply(rec);
  return std::nullopt;
}

void ServiceDaemon::on_grant(double now, const Allocation& alloc) {
  ++grants_;
  const GrantRecord grant = grant_record(now, alloc);
  if (recovering_) {
    derived_grants_.push_back(wal_payload(grant));
    return;
  }
  const auto it = submit_wall_.find(alloc.job);
  if (it != submit_wall_.end()) {
    const double latency = wall_elapsed() - it->second;
    grant_latencies_.push_back(latency);
    if (grant_latency_seconds_ != nullptr) {
      grant_latency_seconds_->add(latency);
    }
    submit_wall_.erase(it);
  }
  if (wal_.is_open()) {
    std::string error;
    wal_append(grant, &error);
  }
  if (config_.obs.tracing()) {
    obs::TraceEvent e =
        obs::instant("service", "service.grant", now)
            .arg("job", static_cast<std::int64_t>(alloc.job))
            .arg("nodes", static_cast<std::int64_t>(grant.nodes));
    const auto cit = corr_.find(alloc.job);
    if (cit != corr_.end()) {
      e.arg("corr", static_cast<std::int64_t>(cit->second));
    }
    config_.obs.emit(e);
  }
}

void ServiceDaemon::on_release(double now, JobId job, bool completed) {
  ++releases_;
  if (recovering_) return;
  if (wal_.is_open()) {
    std::string error;
    wal_append(ReleaseRecord{job, now}, &error);
  }
  if (config_.obs.tracing()) {
    obs::TraceEvent e =
        obs::instant("service", "service.release", now)
            .arg("job", static_cast<std::int64_t>(job))
            .arg("completed", static_cast<std::int64_t>(completed ? 1 : 0));
    const auto cit = corr_.find(job);
    if (cit != corr_.end()) {
      e.arg("corr", static_cast<std::int64_t>(cit->second));
    }
    config_.obs.emit(e);
  }
}

bool ServiceDaemon::sync_wal(std::string* error) {
  obs::ScopedTimer timer(wal_sync_seconds_, wal_sync_seconds_ != nullptr);
  if (!wal_.sync(error)) return false;
  ++wal_syncs_;
  input_unsynced_ = false;
  return true;
}

bool ServiceDaemon::commit(std::string* error) {
  return !input_unsynced_ || sync_wal(error);
}

void ServiceDaemon::attach_reactor(Reactor* reactor) {
  reactor_ = reactor;
  reactor_->set_turn_end_handler([this] {
    std::string error;  // kept by the writer: wal_failure()
    return commit(&error);
  });
}

bool ServiceDaemon::init(std::string* error) {
  start_ = std::chrono::steady_clock::now();
  install_live_hooks();
  if (config_.obs.metering()) {
    obs::MetricsRegistry& m = *config_.obs.metrics;
    ack_seconds_ = &m.histogram("service.ack_seconds");
    grant_latency_seconds_ = &m.histogram("service.grant_latency_seconds");
    wal_append_seconds_ = &m.histogram("wal.append_seconds");
    wal_sync_seconds_ = &m.histogram("wal.sync_seconds");
  }
  if (options_.wal_path.empty()) {
    if (options_.recover) {
      *error = "--recover requires a WAL path";
      return false;
    }
    return true;
  }
  const WalReadResult log = read_wal(options_.wal_path);
  if (options_.recover) {
    recovery_.performed = true;
    recovery_.records = log.records.size();
    recovery_.dropped_bytes = log.file_bytes - log.valid_bytes;
    if (log.file_bytes > 0 && !log.header_ok) {
      recovery_.error =
          "cannot recover " + options_.wal_path + ": " + log.tail_error;
      *error = recovery_.error;
      return false;
    }
    if (!wal_.open(options_.wal_path, error,
                   log.file_bytes > 0 ? log.valid_bytes : 0)) {
      recovery_.error = *error;
      return false;
    }
    if (!recover_from_wal(log, error)) {
      recovery_.error = *error;
      return false;
    }
    if (options_.clock == ClockMode::kWall && recovery_.resume_clock > 0.0 &&
        options_.time_scale > 0.0) {
      // Resume the wall clock at the pre-crash event clock: without this
      // offset wall_elapsed() restarts at zero and every event past the
      // recovered horizon stalls until the old uptime re-elapses.
      wall_target_ = recovery_.resume_clock;
      start_ = std::chrono::steady_clock::now() -
               std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                   std::chrono::duration<double>(recovery_.resume_clock /
                                                 options_.time_scale));
    }
    emit("service.recover");
    return true;
  }
  if (log.file_bytes > 0) {
    *error = "WAL already exists (pass --recover or remove it): " +
             options_.wal_path;
    return false;
  }
  return wal_.open(options_.wal_path, error);
}

bool ServiceDaemon::recover_from_wal(const WalReadResult& log,
                                     std::string* error) {
  recovering_ = true;
  std::vector<std::string> logged;  ///< grant payloads, in log order
  double horizon = 0.0;
  double resume = 0.0;
  bool ok = true;
  bool need_marker = false;

  // Epoch named by a segment's leading kSnapshot marker (0 = none).
  const auto leading_marker = [&](const std::vector<WalRecord>& records,
                                  std::uint64_t* out) -> bool {
    *out = 0;
    if (records.empty() || records[0].type != WalRecordType::kSnapshot) {
      return true;
    }
    SnapshotMarker marker;
    if (!read_payload(records[0].payload, &marker) || marker.epoch < 1) {
      *error = "WAL snapshot marker has malformed payload";
      return false;
    }
    *out = marker.epoch;
    return true;
  };

  const auto try_restore = [&](std::uint64_t epoch) -> bool {
    SnapshotData data;
    std::string snap_error;
    const SnapshotReadStatus st = read_snapshot_file(
        snapshot_path(options_.wal_path, epoch), &data, &snap_error);
    if (st != SnapshotReadStatus::kOk) return false;
    if (!restore_from_snapshot(data, &snap_error)) {
      // The engine may be half-written; back to scratch before any
      // fallback replays into it.
      reset_recovery_state();
      return false;
    }
    recovery_.used_snapshot = true;
    recovery_.snapshot_epoch = epoch;
    resume = std::max(resume, wall_target_);
    return true;
  };

  // Newest snapshot lost: seed from the previous generation's snapshot
  // (prev's own leading marker) and replay prev's tail, then the current
  // segment from `cur_first`. When prev has no marker it holds the full
  // history and both segments replay from scratch.
  const auto fallback = [&](const WalReadResult& prev, std::uint64_t bad_epoch,
                            std::size_t cur_first) -> bool {
    recovery_.snapshot_fallback = true;
    if (prev.file_bytes == 0) {
      *error = "snapshot " + std::to_string(bad_epoch) +
               " is unusable and no previous WAL segment exists: " +
               snapshot_path(options_.wal_path, bad_epoch);
      return false;
    }
    if (!prev.header_ok) {
      *error = "previous WAL segment header corrupt: " + options_.wal_path +
               ".prev";
      return false;
    }
    if (!prev.tail_error.empty()) {
      // The old segment was fully synced before it rotated, so a torn
      // tail there is a mid-history gap — unrecoverable, unlike the
      // current segment's crash-torn tail.
      *error = "previous WAL segment is torn (" + prev.tail_error +
               "): " + options_.wal_path + ".prev";
      return false;
    }
    std::uint64_t pmarker = 0;
    if (!leading_marker(prev.records, &pmarker)) return false;
    std::size_t prev_first = 0;
    if (pmarker > 0) {
      if (!try_restore(pmarker)) {
        *error = "snapshots " + std::to_string(bad_epoch) + " and " +
                 std::to_string(pmarker) + " are both unusable: " +
                 snapshot_path(options_.wal_path, bad_epoch);
        return false;
      }
      prev_first = 1;
    }
    recovery_.tail_records = (prev.records.size() - prev_first) +
                             (log.records.size() - cur_first);
    return replay_records(prev.records, prev_first, &logged, &horizon,
                          &resume, error) &&
           replay_records(log.records, cur_first, &logged, &horizon, &resume,
                          error);
  };

  std::uint64_t marker = 0;
  ok = leading_marker(log.records, &marker);
  if (ok && marker > 0) {
    snapshot_epoch_ = marker;  // epochs never regress, even past a bad file
    if (try_restore(marker)) {
      recovery_.tail_records = log.records.size() - 1;
      ok = replay_records(log.records, 1, &logged, &horizon, &resume, error);
    } else {
      const WalReadResult prev = read_wal(options_.wal_path + ".prev");
      recovery_.records += prev.records.size();
      ok = fallback(prev, marker, 1);
    }
  } else if (ok) {
    const WalReadResult prev = read_wal(options_.wal_path + ".prev");
    if (prev.file_bytes == 0) {
      // Plain uncompacted log: replay everything (the original path).
      recovery_.tail_records = log.records.size();
      ok = replay_records(log.records, 0, &logged, &horizon, &resume, error);
    } else {
      // No marker but a .prev segment exists: a rotation crashed after
      // renaming the old segment and before stamping the fresh one. The
      // snapshot that rotation wrote (prev's epoch + 1) is the freshest
      // durable state; recovery finishes the rotation by appending the
      // missing marker afterwards.
      recovery_.records += prev.records.size();
      std::uint64_t pmarker = 0;
      if (!prev.header_ok) {
        *error = "previous WAL segment header corrupt: " +
                 options_.wal_path + ".prev";
        ok = false;
      } else if (!leading_marker(prev.records, &pmarker)) {
        ok = false;
      } else {
        snapshot_epoch_ = pmarker + 1;
        need_marker = true;
        if (try_restore(pmarker + 1)) {
          recovery_.tail_records = log.records.size();
          ok = replay_records(log.records, 0, &logged, &horizon, &resume,
                              error);
        } else {
          ok = fallback(prev, pmarker + 1, 0);
        }
      }
    }
  }

  if (ok && !drained() && horizon > 0.0) {
    // Wall-mode log: re-advance to the last audited grant/release so the
    // recovered engine resumes from the pre-crash point.
    engine_->advance_until(horizon);
  }
  recovery_.resume_clock = std::max({resume, horizon, engine_->now()});
  recovering_ = false;
  recovery_.grants_logged = logged.size();
  recovery_.grants_derived = derived_grants_.size();
  if (ok) {
    // Deterministic replay must re-derive every logged grant, in order and
    // byte for byte (the grant time bit for bit).
    recovery_.audit_ok = logged.size() <= derived_grants_.size() &&
                         std::equal(logged.begin(), logged.end(),
                                    derived_grants_.begin());
    if (!recovery_.audit_ok) {
      *error =
          "WAL grant audit failed: logged grants are not a prefix of the "
          "replayed run (" +
          std::to_string(logged.size()) + " logged, " +
          std::to_string(derived_grants_.size()) + " derived)";
      ok = false;
    }
  } else {
    recovery_.audit_ok = false;
  }
  derived_grants_.clear();
  derived_grants_.shrink_to_fit();
  if (ok && need_marker && wal_.is_open()) {
    if (!wal_.append(SnapshotMarker::kType,
                     wal_payload(SnapshotMarker{snapshot_epoch_}), error) ||
        !sync_wal(error)) {
      return false;
    }
  }
  return ok;
}

bool ServiceDaemon::replay_records(const std::vector<WalRecord>& records,
                                   std::size_t first,
                                   std::vector<std::string>* logged,
                                   double* horizon, double* resume,
                                   std::string* error) {
  // Wall-mode inputs took effect against the event stream advanced to
  // their accept clock; re-advancing before each one reproduces that
  // interleaving (a cancel must see the same queue it saw live). The
  // accept clocks are nondecreasing in log order, so each advance is a
  // forward (or no-op) move. Virtual-mode logs never advanced outside
  // drain, so their inputs apply against the unstepped engine.
  const auto replay_input = [&](const auto& input) {
    *resume = std::max(*resume, input.accept);
    if (options_.clock == ClockMode::kWall) engine_->advance_until(input.accept);
    apply(input);
    ++recovery_.inputs_replayed;
  };
  for (std::size_t ri = first; ri < records.size(); ++ri) {
    const WalRecord& rec = records[ri];
    try {
      switch (rec.type) {
        case WalRecordType::kSubmit:
          replay_input(decoded<SubmitRecord>(rec));
          break;
        case WalRecordType::kCancel:
          replay_input(decoded<CancelRecord>(rec));
          break;
        case WalRecordType::kFault:
          replay_input(decoded<FaultRecord>(rec));
          break;
        case WalRecordType::kDrain:
          recovery_.saw_drain = true;
          replay_input(decoded<DrainRecord>(rec));
          break;
        case WalRecordType::kGrant:
          *horizon = std::max(*horizon, decoded<GrantRecord>(rec).time);
          logged->push_back(rec.payload);
          break;
        case WalRecordType::kRelease:
          *horizon = std::max(*horizon, decoded<ReleaseRecord>(rec).time);
          break;
        case WalRecordType::kSnapshot:
          // Markers only ever lead a segment (a fresh file is created for
          // each rotation); one mid-stream means the log was spliced.
          throw std::invalid_argument(
              "snapshot marker past the segment head");
      }
    } catch (const std::exception& e) {
      *error = std::string("WAL replay failed at ") +
               wal_record_type_name(rec.type) + " record, offset " +
               std::to_string(rec.offset) + ": " + e.what();
      return false;
    }
  }
  return true;
}

void ServiceDaemon::apply(const SubmitRecord& r) {
  // Live submits never carry an id outside the protocol's range; one in a
  // log is damage (and would overflow next_job_id_ below).
  if (r.job.id < 0 || r.job.id > kMaxJobId) {
    throw std::invalid_argument("job id outside the protocol's range");
  }
  engine_->submit(r.job);
  next_job_id_ = std::max(next_job_id_, r.job.id + 1);
  // Bump the counter past the logged id so no later submit reuses one.
  next_corr_ = std::max(next_corr_, r.corr + 1);
  corr_[r.job.id] = r.corr;
  ++inputs_since_snapshot_;
}

void ServiceDaemon::apply(const CancelRecord& r) {
  if (!engine_->cancel(r.job)) {
    throw std::invalid_argument("cancel of job " + std::to_string(r.job) +
                                ", which is not queued");
  }
  ++inputs_since_snapshot_;
}

void ServiceDaemon::apply(const FaultRecord& r) {
  engine_->add_fault(r.event.time, r.event.failure, r.event.target);
  ++inputs_since_snapshot_;
}

void ServiceDaemon::apply(const DrainRecord& /*r*/) {
  // The drain record must be durable before the run starts: recovery
  // after a mid-drain crash re-drains only if the record survived. (On
  // replay nothing is unsynced, so the commit is a no-op.)
  std::string error;
  if (!commit(&error) || !run_drain(&error)) throw std::runtime_error(error);
}

bool ServiceDaemon::restore_from_snapshot(const SnapshotData& data,
                                          std::string* error) {
  if (data.clock != clock_mode_name(options_.clock)) {
    *error = "snapshot clock mode \"" + data.clock +
             "\" does not match daemon mode \"" +
             clock_mode_name(options_.clock) + '"';
    return false;
  }
  if (!engine_->deserialize(data.engine_blob, error)) return false;
  next_job_id_ = data.next_job_id;
  next_corr_ = data.next_corr;
  corr_.clear();
  for (const auto& [job, corr] : data.corr) corr_[job] = corr;
  grants_ = data.grants;
  releases_ = data.releases;
  wall_target_ = data.wall_target;
  inputs_since_snapshot_ = 0;
  if (data.drained) {
    try {
      final_metrics_ = engine_->finish();
    } catch (const std::exception& e) {
      *error = std::string("drained snapshot cannot finalize: ") + e.what();
      return false;
    }
  }
  return true;
}

bool ServiceDaemon::snapshot_now(std::string* error) {
  if (!wal_.is_open()) {
    *error = "snapshots require a WAL";
    return false;
  }
  SnapshotData data;
  data.epoch = snapshot_epoch_ + 1;
  data.clock = clock_mode_name(options_.clock);
  data.next_job_id = next_job_id_;
  data.next_corr = next_corr_;
  data.corr.assign(corr_.begin(), corr_.end());
  std::sort(data.corr.begin(), data.corr.end());
  data.grants = grants_;
  data.releases = releases_;
  data.wall_target = wall_target_;
  data.drained = drained();
  if (!engine_->serialize(&data.engine_blob, error)) return false;
  if (!write_snapshot_file(snapshot_path(options_.wal_path, data.epoch), data,
                           error)) {
    return false;
  }
  // Rotate the log. The old segment is fully durable before it becomes
  // .prev, so the fallback chain (snapshot epoch-1 + .prev tail) is
  // complete whenever the new snapshot turns out corrupt. A crash
  // anywhere in this sequence recovers: before the rename the marker-less
  // old segment still pairs with its own snapshot chain; between rename
  // and marker the .prev segment names the epoch (recover_from_wal's
  // rotation-crash case); after the marker the rotation simply finished.
  // The segment is renamed while still open, so a failed rename leaves it
  // in place and logging; open() then closes the retired descriptor.
  if (!sync_wal(error)) return false;
  const std::string prev = options_.wal_path + ".prev";
  if (::rename(options_.wal_path.c_str(), prev.c_str()) != 0) {
    *error = "cannot rotate WAL to " + prev + ": " + std::strerror(errno);
    return false;
  }
  if (!wal_.open(options_.wal_path, error) ||
      !wal_.append(SnapshotMarker::kType,
                   wal_payload(SnapshotMarker{data.epoch}), error) ||
      !sync_wal(error)) {
    return false;
  }
  if (data.epoch >= 2) {
    // Two-generation retention: epoch-1 backs the corruption fallback,
    // anything older is unreachable (best-effort unlink).
    ::unlink(snapshot_path(options_.wal_path, data.epoch - 2).c_str());
  }
  snapshot_epoch_ = data.epoch;
  inputs_since_snapshot_ = 0;
  failed_snapshot_at_ = 0;
  ++snapshots_taken_;
  refresh_gauges();  // wal.bytes & friends now describe the fresh segment
  emit("service.snapshot");
  return true;
}

void ServiceDaemon::maybe_snapshot() {
  if (options_.snapshot_every == 0 || !wal_.is_open() || drained()) return;
  if (inputs_since_snapshot_ < failed_snapshot_at_ + options_.snapshot_every) {
    return;
  }
  std::string error;
  if (!snapshot_now(&error)) {
    // The triggering request already committed to the WAL; a failed
    // compaction costs recovery time, not correctness. Retry after
    // another snapshot_every inputs, not on every one.
    failed_snapshot_at_ = inputs_since_snapshot_;
    emit("service.snapshot_failed");
  }
}

bool ServiceDaemon::run_drain(std::string* error) {
  emit("service.drain");
  std::function<bool()> interrupted;
  if (interrupt_check_ || options_.step_delay_us > 0) {
    interrupted = [this]() {
      if (options_.step_delay_us > 0) {
        ::usleep(static_cast<useconds_t>(options_.step_delay_us));
      }
      return interrupt_check_ ? interrupt_check_() : false;
    };
  }
  engine_->run(interrupted);
  if (interrupt_check_ && interrupt_check_()) {
    *error = "drain interrupted";
    return false;
  }
  if (!engine_->idle()) {
    *error = "drain interrupted";
    return false;
  }
  try {
    final_metrics_ = engine_->finish();
  } catch (const std::exception& e) {
    *error = e.what();
    return false;
  }
  return true;
}

void ServiceDaemon::advance_wall() {
  if (options_.clock != ClockMode::kWall || drained()) return;
  wall_target_ =
      std::max(wall_target_, wall_elapsed() * options_.time_scale);
  engine_->advance_until(wall_target_);
}

double ServiceDaemon::input_clock() const {
  return options_.clock == ClockMode::kWall ? wall_target_ : engine_->now();
}

double ServiceDaemon::on_idle() {
  if (options_.clock != ClockMode::kWall) return -1.0;
  advance_wall();
  if (engine_->idle()) return -1.0;
  const double dt =
      engine_->next_time() - wall_elapsed() * options_.time_scale;
  if (dt <= 0.0) return 0.0;
  return dt / options_.time_scale;
}

void ServiceDaemon::flush() {
  if (!wal_.is_open() || wal_.unsynced_records() == 0) return;
  std::string error;
  sync_wal(&error);
}

std::string ServiceDaemon::overflow_reply(bool oversized_line) {
  if (oversized_line) {
    return error_reply(ErrorCode::kLineTooLong,
                       "request line exceeds the size limit");
  }
  return error_reply(ErrorCode::kQueueFull,
                     "per-client pending request queue is full");
}

std::string ServiceDaemon::handle_line_deferred(const std::string& line) {
  defer_sync_ = true;
  std::string reply = handle_line(line);
  defer_sync_ = false;
  return reply;
}

std::string ServiceDaemon::handle_line(const std::string& line) {
  // Request-handling (ack) latency: parse to reply, every op. A deferred
  // input's fsync runs later, in commit(), and only wal.sync_seconds
  // times it. The timer is fully disabled without a registry (no clock
  // reads).
  obs::ScopedTimer ack_timer(ack_seconds_, ack_seconds_ != nullptr);
  Request req;
  ParseFailure failure;
  if (!parse_request(line, &req, &failure)) {
    return error_reply(failure.code, failure.message, failure.seq);
  }
  advance_wall();
  try {
    switch (req.op) {
      case RequestOp::kPing: {
        std::string body;
        append_kv(body, "time", engine_->now());
        return ok_reply(body, req.seq);
      }
      case RequestOp::kSubmit:
        return handle_submit(req);
      case RequestOp::kCancel:
        return handle_cancel(req);
      case RequestOp::kStatus:
        return handle_status(req);
      case RequestOp::kStats:
        return handle_stats(req);
      case RequestOp::kMetrics:
        return handle_metrics(req);
      case RequestOp::kFail:
      case RequestOp::kRepair:
        return handle_fault(req);
      case RequestOp::kDrain:
        return handle_drain(req);
      case RequestOp::kSnapshot:
        return handle_snapshot(req);
      case RequestOp::kShutdown:
        return handle_shutdown(req);
    }
  } catch (const std::exception& e) {
    // apply() refusing an input its handler validated (a bug), or a drain
    // that did not finish: surface it rather than ack.
    return error_reply(ErrorCode::kInternal, e.what(), req.seq);
  }
  return error_reply(ErrorCode::kInternal, "unhandled op", req.seq);
}

std::string ServiceDaemon::handle_submit(const Request& req) {
  if (drained()) {
    return error_reply(ErrorCode::kBadState,
                       "daemon already drained; no further submissions",
                       req.seq);
  }
  if (req.nodes > topo_->total_nodes()) {
    return error_reply(
        ErrorCode::kOversizedJob,
        "job wants " + std::to_string(req.nodes) + " nodes but the cluster has " +
            std::to_string(topo_->total_nodes()),
        req.seq);
  }
  if (engine_->active_count() >= options_.max_queue) {
    return error_reply(ErrorCode::kQueueFull,
                       "admission queue is full (" +
                           std::to_string(options_.max_queue) + " active jobs)",
                       req.seq);
  }
  SubmitRecord rec;
  rec.accept = input_clock();
  Job& job = rec.job;
  job.id = req.id.value_or(next_job_id_);
  job.nodes = req.nodes;
  job.runtime = req.runtime;
  job.bandwidth = req.bandwidth;
  job.arrival = req.arrival.value_or(engine_->now());
  // Pre-validate everything engine_->submit() would reject, then log
  // before applying: a request must never mutate the engine without its
  // WAL record (an unlogged admission makes every later grant unaudit-
  // able), and the failed-append path must leave no state behind.
  if (engine_->phase(job.id) != JobPhase::kUnknown) {
    return error_reply(ErrorCode::kBadRequest, "duplicate job id submitted",
                       req.seq);
  }
  if (job.id > kMaxJobId) {
    // The parser bounds a client's id, so this is an assigned one, the id
    // after a client took kMaxJobId: no request could name it again.
    return error_reply(ErrorCode::kBadRequest,
                       "job id " + std::to_string(job.id) +
                           " is past 2^53, the largest id a JSON request "
                           "carries exactly",
                       req.seq);
  }
  if (job.arrival < engine_->now()) {
    return error_reply(ErrorCode::kBadRequest,
                       "job arrival in the simulated past", req.seq);
  }
  // The correlation id is minted before the WAL append so the same id
  // reaches the log, the ack, and every later grant/release event — one
  // handle to follow the submission across reactor, engine, and log.
  rec.corr = next_corr_;
  if (auto refused = log_and_apply(rec, req.seq)) return *refused;
  submit_wall_[job.id] = wall_elapsed();
  maybe_snapshot();
  if (config_.obs.tracing()) {
    config_.obs.emit(obs::instant("service", "service.submit", engine_->now())
                         .arg("job", static_cast<std::int64_t>(job.id))
                         .arg("corr", static_cast<std::int64_t>(rec.corr)));
  }
  std::string body = ",\"job\":" + std::to_string(job.id);
  append_kv(body, "arrival", job.arrival);
  append_kv(body, "corr", rec.corr);
  return ok_reply(body, req.seq);
}

std::string ServiceDaemon::handle_cancel(const Request& req) {
  if (drained()) {
    return error_reply(ErrorCode::kBadState, "daemon already drained",
                       req.seq);
  }
  const JobPhase phase = engine_->phase(req.job);
  if (phase == JobPhase::kUnknown) {
    return error_reply(ErrorCode::kUnknownJob,
                       "job " + std::to_string(req.job) + " was never accepted",
                       req.seq);
  }
  if (phase != JobPhase::kQueued) {
    return error_reply(ErrorCode::kBadState,
                       "job " + std::to_string(req.job) + " is " +
                           job_phase_name(phase) + "; only queued jobs cancel",
                       req.seq);
  }
  // Append before applying (see handle_submit): an engine-side cancel
  // without its record would leave the job queued on replay and derail
  // every later audited grant. The record carries the accept clock so
  // wall-mode replay removes the job at the same event-stream point.
  if (auto refused = log_and_apply(CancelRecord{input_clock(), req.job},
                                    req.seq)) {
    return *refused;
  }
  submit_wall_.erase(req.job);
  maybe_snapshot();
  emit("service.cancel", req.job);
  std::string body = ",\"job\":" + std::to_string(req.job);
  append_kv(body, "phase", std::string(job_phase_name(JobPhase::kCancelled)));
  return ok_reply(body, req.seq);
}

std::string ServiceDaemon::handle_status(const Request& req) {
  const std::optional<SimEngine::JobStatus> status = engine_->status(req.job);
  if (!status.has_value()) {
    return error_reply(ErrorCode::kUnknownJob,
                       "job " + std::to_string(req.job) + " was never accepted",
                       req.seq);
  }
  std::string body = ",\"job\":" + std::to_string(req.job);
  append_kv(body, "phase", std::string(job_phase_name(status->phase)));
  append_kv(body, "nodes", static_cast<std::uint64_t>(status->job.nodes));
  append_kv(body, "arrival", status->job.arrival);
  append_kv(body, "runtime", status->job.runtime);
  if (std::isfinite(status->start)) append_kv(body, "start", status->start);
  if (std::isfinite(status->end)) append_kv(body, "end", status->end);
  if (status->blocked_reason != BlockedReason::kNone) {
    append_kv(body, "blocked_reason",
              std::string(blocked_reason_name(status->blocked_reason)));
  }
  const auto cit = corr_.find(req.job);
  if (cit != corr_.end()) append_kv(body, "corr", cit->second);
  return ok_reply(body, req.seq);
}

std::string ServiceDaemon::handle_stats(const Request& req) {
  std::string s = "{\"clock\":\"";
  s += clock_mode_name(options_.clock);
  s += '"';
  append_kv(s, "now", engine_->now());
  append_kv(s, "queue_depth", static_cast<std::uint64_t>(engine_->queue_depth()));
  append_kv(s, "running", static_cast<std::uint64_t>(engine_->running_count()));
  append_kv(s, "submitted",
            static_cast<std::uint64_t>(engine_->submitted_count()));
  append_kv(s, "completed",
            static_cast<std::uint64_t>(engine_->completed_count()));
  append_kv(s, "cancelled",
            static_cast<std::uint64_t>(engine_->cancelled_count()));
  append_kv(s, "active", static_cast<std::uint64_t>(engine_->active_count()));
  append_kv(s, "grants", grants_);
  append_kv(s, "releases", releases_);
  s += ",\"obs_enabled\":";
  s += config_.obs.metering() ? "true" : "false";
  if (wal_.is_open()) {
    append_kv(s, "wal_bytes", wal_.bytes());
    append_kv(s, "wal_unsynced_records", wal_.unsynced_records());
    append_kv(s, "wal_syncs", wal_syncs_);
    append_kv(s, "snapshot_epoch", snapshot_epoch_);
    append_kv(s, "snapshots", snapshots_taken_);
    append_kv(s, "inputs_since_snapshot", inputs_since_snapshot_);
  }
  s += ",\"drained\":";
  s += drained() ? "true" : "false";
  if (recovery_.performed) {
    s += ",\"recovered\":true,\"recovery_audit_ok\":";
    s += recovery_.audit_ok ? "true" : "false";
    append_kv(s, "recovery_records",
              static_cast<std::uint64_t>(recovery_.records));
    append_kv(s, "recovery_dropped_bytes", recovery_.dropped_bytes);
    append_kv(s, "recovery_inputs_replayed",
              static_cast<std::uint64_t>(recovery_.inputs_replayed));
    append_kv(s, "recovery_tail_records",
              static_cast<std::uint64_t>(recovery_.tail_records));
    s += ",\"recovery_used_snapshot\":";
    s += recovery_.used_snapshot ? "true" : "false";
    s += ",\"recovery_snapshot_fallback\":";
    s += recovery_.snapshot_fallback ? "true" : "false";
    append_kv(s, "recovery_snapshot_epoch", recovery_.snapshot_epoch);
  }
  const SortedSamples lat(grant_latencies_);
  s += ",\"grant_latency\":{\"count\":" + std::to_string(lat.count());
  if (!lat.empty()) {
    append_kv(s, "p50", lat.percentile(50.0));
    append_kv(s, "p99", lat.percentile(99.0));
    append_kv(s, "p999", lat.percentile(99.9));
    append_kv(s, "max", lat.max());
  }
  s += "}}";
  return ok_reply(",\"stats\":" + s, req.seq);
}

void ServiceDaemon::refresh_gauges() {
  if (!config_.obs.metering()) return;
  obs::MetricsRegistry& m = *config_.obs.metrics;
  const ClusterState& state = engine_->cluster();
  const int total = topo_->total_nodes();
  const int busy =
      total - state.total_free_nodes() - state.failed_node_count();
  m.gauge("cluster.utilization")
      .set(total > 0 ? static_cast<double>(busy) / total : 0.0);
  m.gauge("cluster.busy_nodes").set(static_cast<double>(busy));
  m.gauge("queue.depth").set(static_cast<double>(engine_->queue_depth()));
  m.gauge("jobs.running").set(static_cast<double>(engine_->running_count()));
  if (wal_.is_open()) {
    // wal.bytes describes the live segment only: a compaction rotates the
    // log, so the gauge drops back to the fresh segment's size instead of
    // reporting the retired history.
    m.gauge("wal.bytes").set(static_cast<double>(wal_.bytes()));
    m.gauge("wal.unsynced_records")
        .set(static_cast<double>(wal_.unsynced_records()));
    m.gauge("wal.snapshot_epoch").set(static_cast<double>(snapshot_epoch_));
    m.gauge("wal.inputs_since_snapshot")
        .set(static_cast<double>(inputs_since_snapshot_));
  }
  // Structural contiguity only (free leaves/subtrees, scatter histogram,
  // and the max-rect consolidation decomposition): the allocate-probe
  // bisection is far too expensive per scrape.
  const FragmentationReport frag = structural_fragmentation(state);
  m.gauge("frag.free_nodes").set(static_cast<double>(frag.free_nodes));
  m.gauge("frag.fully_free_leaves")
      .set(static_cast<double>(frag.fully_free_leaves));
  m.gauge("frag.fully_free_trees")
      .set(static_cast<double>(frag.fully_free_trees));
  m.gauge("frag.largest_free_block")
      .set(static_cast<double>(frag.largest_free_block));
  // Consolidation score in [0,1] (1 = all free capacity in one
  // shape-coverable block); its complement is the structural
  // external-fragmentation index.
  m.gauge("frag.consolidation").set(frag.consolidation);
  m.gauge("frag.external_index").set(1.0 - frag.consolidation);
}

std::string ServiceDaemon::metrics_text() {
  if (!config_.obs.metering()) return std::string();
  refresh_gauges();
  return obs::prometheus_text(*config_.obs.metrics);
}

std::string ServiceDaemon::handle_metrics(const Request& req) {
  if (!config_.obs.metering()) {
    return error_reply(ErrorCode::kBadState,
                       "metrics are disabled (run the daemon with --metrics)",
                       req.seq);
  }
  std::string body = ",\"format\":\"prometheus\",\"body\":\"";
  body += obs::json_escape(metrics_text());
  body += '"';
  return ok_reply(body, req.seq);
}

std::string ServiceDaemon::http_metrics_response(
    const std::string& request_line) {
  std::string path;
  {
    std::istringstream words(request_line);
    std::string method;
    words >> method >> path;
  }
  int status = 200;
  const char* reason = "OK";
  std::string content_type = "text/plain; version=0.0.4; charset=utf-8";
  std::string body;
  if (path != "/metrics") {
    status = 404;
    reason = "Not Found";
    content_type = "text/plain; charset=utf-8";
    body = "only /metrics is served here\n";
  } else if (!config_.obs.metering()) {
    status = 503;
    reason = "Service Unavailable";
    content_type = "text/plain; charset=utf-8";
    body = "metrics are disabled (run the daemon with --metrics)\n";
  } else {
    body = metrics_text();
  }
  std::string out =
      "HTTP/1.0 " + std::to_string(status) + " " + reason + "\r\n";
  out += "Content-Type: " + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

std::string ServiceDaemon::handle_socket_line(Reactor::ClientId client,
                                              std::string&& line) {
  if (reactor_ != nullptr) {
    if (http_clients_.count(client) != 0) {
      return std::string();  // remaining header lines of a served GET
    }
    if (line.rfind("GET ", 0) == 0) {
      // Bound the swallow set. Every member was close_client()ed the
      // moment it entered, so pruning can only stop swallowing headers
      // of long-gone connections.
      if (http_clients_.size() >= 1024) http_clients_.clear();
      http_clients_.insert(client);
      reactor_->send_raw(client, http_metrics_response(line));
      reactor_->close_client(client);
      return std::string();
    }
    // The reactor's turn-end handler commits the whole turn at once.
    return handle_line_deferred(line);
  }
  return handle_line(line);
}

std::string ServiceDaemon::handle_fault(const Request& req) {
  if (drained()) {
    return error_reply(ErrorCode::kBadState, "daemon already drained",
                       req.seq);
  }
  FaultRecord rec;
  rec.accept = input_clock();
  fault::FaultEvent& event = rec.event;
  event.failure = req.op == RequestOp::kFail;
  event.time = req.time.value_or(engine_->now());
  std::istringstream words(req.target);
  std::string error;
  if (!fault::parse_target(words, &event.target, &error)) {
    return error_reply(ErrorCode::kBadRequest, "bad target: " + error,
                       req.seq);
  }
  error = fault::validate(*topo_, event.target);
  if (!error.empty()) {
    return error_reply(ErrorCode::kBadRequest, error, req.seq);
  }
  if (event.time < engine_->now()) {
    return error_reply(ErrorCode::kBadRequest,
                       "fault event in the simulated past", req.seq);
  }
  // Append before applying (see handle_submit): there is no way to undo
  // an injected fault, so the engine must not see one the log missed.
  if (auto refused = log_and_apply(rec, req.seq)) return *refused;
  maybe_snapshot();
  emit(event.failure ? "service.fail" : "service.repair");
  std::string body;
  append_kv(body, "target", fault::describe(event.target));
  append_kv(body, "time", event.time);
  return ok_reply(body, req.seq);
}

std::string ServiceDaemon::handle_drain(const Request& req) {
  if (options_.clock == ClockMode::kWall) {
    return error_reply(ErrorCode::kBadState,
                       "drain applies to virtual-clock mode only", req.seq);
  }
  if (!drained()) {
    if (auto refused = log_and_apply(DrainRecord{input_clock()}, req.seq)) {
      return *refused;
    }
  }
  return ok_reply(",\"metrics\":" + metrics_json(*final_metrics_), req.seq);
}

std::string ServiceDaemon::handle_snapshot(const Request& req) {
  if (!wal_.is_open()) {
    return error_reply(ErrorCode::kBadState,
                       "snapshots require a WAL (run the daemon with --wal)",
                       req.seq);
  }
  std::string error;
  if (!snapshot_now(&error)) {
    return error_reply(ErrorCode::kInternal, error, req.seq);
  }
  std::string body;
  append_kv(body, "epoch", snapshot_epoch_);
  append_kv(body, "wal_bytes", wal_.bytes());
  return ok_reply(body, req.seq);
}

std::string ServiceDaemon::handle_shutdown(const Request& req) {
  emit("service.shutdown");
  flush();
  if (reactor_ != nullptr) reactor_->request_stop();
  return ok_reply(",\"stopping\":true", req.seq);
}

}  // namespace jigsaw::service
