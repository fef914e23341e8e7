// The service workload: svc-wal.
//
// An in-process wall-clock daemon (ServiceDaemon on a Reactor thread)
// listens on a unix socket, with its WAL fsynced per record. One generator
// thread (this one) drives it over three connections, in two phases, each
// on a fresh daemon and WAL:
//
//  * latency: open loop, Poisson arrivals at kRate submits/s. Each ack is
//    timed from the moment its submit was due, so a stall also delays
//    every request queued behind it.
//  * capacity: closed loop, one outstanding submit per connection.
//
// A traced run repeats each phase twice, once plain and once with the
// scheme wrapped in TimedAllocator and the reactor's line and idle
// handlers wrapped in timers, and calibrates WalWriter append+fsync on
// the same filesystem.

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <exception>
#include <cstring>
#include <filesystem>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "bench.hpp"
#include "core/jigsaw_allocator.hpp"
#include "core/shape_table.hpp"
#include "service/daemon.hpp"
#include "service/json.hpp"
#include "service/reactor.hpp"
#include "service/wal.hpp"
#include "timed_allocator.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace jigsaw::benchmark {

namespace {

constexpr int kRadix = 16;
constexpr int kConnections = 3;
constexpr double kTimeScale = 8000.0;
/// Latency phase, submits per second: at 8000 simulated seconds per wall
/// second the Synth-16 mix offers a node load of about 0.6, while the
/// reactor stays mostly idle even when fsync runs several times slower
/// than usual, so the phase measures latency, not a growing backlog.
constexpr double kRate = 200.0;
/// Capacity phase size, submits per second of its share of the run: about
/// the closed-loop rate on a 4-core Xeon KVM guest with ext4.
constexpr double kCapacitySubmitsPerSecond = 3500.0;
constexpr std::uint64_t kCapacitySlice = 2000;

/// One client connection: blocking writes, non-blocking line reads.
class Conn {
 public:
  Conn() = default;
  Conn(const Conn&) = delete;
  Conn& operator=(const Conn&) = delete;
  ~Conn() {
    if (fd_ >= 0) ::close(fd_);
  }

  void connect(const std::string& path) {
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("unix socket path too long: " + path);
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (fd_ < 0 ||
        ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      throw std::runtime_error("connect " + path + ": " + std::strerror(errno));
    }
  }

  int fd() const { return fd_; }

  void send(const std::string& line) {
    std::size_t off = 0;
    while (off < line.size()) {
      const ssize_t n = ::write(fd_, line.data() + off, line.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("write to daemon failed");
      off += static_cast<std::size_t>(n);
    }
  }

  /// Read what is available; appends each complete reply to `lines`.
  void read_lines(std::vector<std::string>* lines) {
    char buf[16 * 1024];
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), MSG_DONTWAIT);
    if (n == 0) throw std::runtime_error("daemon closed the connection");
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) return;
      throw std::runtime_error("read from daemon failed");
    }
    in_.append(buf, static_cast<std::size_t>(n));
    std::size_t start = 0;
    for (std::size_t nl; (nl = in_.find('\n', start)) != std::string::npos;
         start = nl + 1) {
      lines->push_back(in_.substr(start, nl - start));
    }
    in_.erase(0, start);
  }

 private:
  int fd_ = -1;
  std::string in_;
};

/// Reactor-thread timings of one traced phase.
struct Handlers {
  double handler_s = 0.0;
  double handler_core_s = 0.0;
  std::uint64_t handler_calls = 0;
  double idle_s = 0.0;
  /// Busy-node area over the engine clock, sampled after every idle call.
  double util_area = 0.0;
  double util_first = -1.0;
  double util_last = 0.0;
  int util_busy = 0;
};

struct PhaseOut {
  double wall = 0.0;
  std::uint64_t sent = 0;
  std::uint64_t ok = 0;
  std::vector<double> ack_us;
  std::vector<double> late_us;
  /// Per slice of the phase: the median ack (latency phase, one-second
  /// slices by due time) or the wall time per submit (capacity phase,
  /// slices of kCapacitySlice submits).
  std::vector<double> slice_us;
  std::vector<double> grant_s;
  Handlers h;
  double util = 0.0;
  std::uint64_t wal_records = 0;
  std::uint64_t wal_bytes = 0;
  bool wal_valid = false;
  bool wal_complete = false;
  bool tables_served = false;
};

std::uint64_t stat_u64(const service::JsonValue& stats, const char* key) {
  const service::JsonValue* v = stats.find(key);
  return v != nullptr ? static_cast<std::uint64_t>(v->as_int()) : 0;
}

/// A daemon brought up fresh, serving on its own thread. Set-up
/// time covers the topology, the shape table, the scheme, daemon and WAL
/// init, the listener and the client connections.
class Service {
 public:
  Service(const std::string& dir, const std::string& tables_dir, bool traced,
          std::atomic<bool>* recording)
      : dir_(dir), recording_(recording) {
    const auto t0 = Clock::now();
    std::filesystem::create_directories(dir_);
    topo_ = std::make_unique<FatTree>(FatTree::from_radix(kRadix));
    clear_shape_tables();
    std::string error;
    if (install_shape_tables(tables_dir + "/k16.jst", &error) != 1) {
      throw std::runtime_error("shape table: " + error);
    }
    reset_shape_serve_counters();
    scheme_ = std::make_unique<JigsawAllocator>();
    if (traced) timed_ = std::make_unique<TimedAllocator>(*scheme_);
    SimConfig config;
    config.admission_quick_reject = true;
    service::DaemonOptions opt;
    opt.clock = service::ClockMode::kWall;
    opt.wal_path = dir_ + "/wal";
    opt.sync = service::SyncPolicy::kAlways;
    opt.time_scale = kTimeScale;
    opt.max_queue = 1 << 20;
    daemon_ = std::make_unique<service::ServiceDaemon>(
        *topo_, traced ? static_cast<const Allocator&>(*timed_) : *scheme_,
        config, opt);
    if (!daemon_->init(&error)) throw std::runtime_error("daemon: " + error);
    socket_ = dir_ + "/sock";
    if (!reactor_.listen_unix(socket_, &error)) throw std::runtime_error(error);
    daemon_->attach_reactor(&reactor_);
    install_handlers(traced);
    thread_ = std::thread([this] {
      try {
        reactor_.run();
      } catch (...) {
        failure_ = std::current_exception();
      }
    });
    try {
      for (Conn& c : conns_) c.connect(socket_);
    } catch (...) {
      stop();
      throw;
    }
    setup_s_ = seconds_since(t0);
  }

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  ~Service() {
    stop();
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }

  double setup_s() const { return setup_s_; }
  Conn& conn(int k) { return conns_[k]; }

  /// Stop serving, then read the daemon's counters through its `stats` op
  /// and check them against the WAL on disk. A traced service adds its
  /// allocator's totals to `core`.
  void finish(PhaseOut* out, CoreTotals* core) {
    recording_->store(false);
    conns_[0].send("{\"op\":\"shutdown\"}\n");
    thread_.join();
    if (failure_) std::rethrow_exception(failure_);
    const std::string reply = daemon_->handle_line("{\"op\":\"stats\"}");
    service::JsonValue doc;
    std::string error;
    const service::JsonValue* stats = nullptr;
    if (service::parse_json(reply, &doc, &error)) stats = doc.find("stats");
    if (stats == nullptr) throw std::runtime_error("stats op failed: " + reply);
    const service::WalReadResult wal = service::read_wal(dir_ + "/wal");
    out->wal_records = wal.records.size();
    out->wal_bytes = wal.file_bytes;
    out->wal_valid = wal.header_ok && wal.valid_bytes == wal.file_bytes;
    out->wal_complete = out->wal_records == stat_u64(*stats, "submitted") +
                                                stat_u64(*stats, "grants") +
                                                stat_u64(*stats, "releases");
    out->tables_served = shape_serve_counters().two_level_table > 0;
    for (const double s : daemon_->grant_latencies()) out->grant_s.push_back(s);
    out->h = h_;
    out->util = ratio(h_.util_area, static_cast<double>(topo_->total_nodes()) *
                                        (h_.util_last - h_.util_first)) *
                100.0;
    if (timed_ != nullptr) core->add(*timed_);
  }

 private:
  /// Wake the reactor through its self-pipe and join it (idempotent).
  void stop() {
    if (!thread_.joinable()) return;
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(reactor_.notify_fd(), &byte, 1);
    thread_.join();
  }

  void install_handlers(bool traced) {
    service::ServiceDaemon& d = *daemon_;
    reactor_.set_overflow_handler([&d](service::Reactor::ClientId, bool big) {
      return d.overflow_reply(big);
    });
    if (!traced) {
      reactor_.set_line_handler(
          [&d](service::Reactor::ClientId id, std::string&& line) {
            return d.handle_socket_line(id, std::move(line));
          });
      reactor_.set_idle_handler([this] {
        const double timeout = daemon_->on_idle();
        sample_util();
        return timeout;
      });
      return;
    }
    reactor_.set_line_handler(
        [this](service::Reactor::ClientId id, std::string&& line) {
          const double core0 = timed_->total_seconds();
          const auto t0 = Clock::now();
          std::string reply = daemon_->handle_socket_line(id, std::move(line));
          if (recording_->load(std::memory_order_relaxed)) {
            h_.handler_s += seconds_since(t0);
            h_.handler_core_s += timed_->total_seconds() - core0;
            ++h_.handler_calls;
          }
          return reply;
        });
    reactor_.set_idle_handler([this] {
      const auto t0 = Clock::now();
      const double timeout = daemon_->on_idle();
      if (recording_->load(std::memory_order_relaxed)) {
        h_.idle_s += seconds_since(t0);
      }
      sample_util();
      return timeout;
    });
  }

  void sample_util() {
    if (!recording_->load(std::memory_order_relaxed)) return;
    const SimEngine& e = daemon_->engine();
    const double now = e.now();
    if (h_.util_first < 0.0) {
      h_.util_first = now;
    } else {
      h_.util_area += h_.util_busy * (now - h_.util_last);
    }
    h_.util_last = now;
    h_.util_busy = topo_->total_nodes() - e.cluster().total_free_nodes() -
                   e.cluster().failed_node_count();
  }

  std::string dir_;
  std::string socket_;
  std::atomic<bool>* recording_;
  std::unique_ptr<FatTree> topo_;
  std::unique_ptr<JigsawAllocator> scheme_;
  std::unique_ptr<TimedAllocator> timed_;
  std::unique_ptr<service::ServiceDaemon> daemon_;
  service::Reactor reactor_;
  Handlers h_;
  Conn conns_[kConnections];
  std::exception_ptr failure_;  ///< what escaped the reactor thread
  double setup_s_ = 0.0;
  std::thread thread_;  // declared last: joined before the members it uses
};

/// Submit lines for the Synth-16 job mix, no id and no arrival field (the
/// daemon assigns ids and admits each job at its current clock).
std::vector<std::string> job_lines(std::uint64_t seed, double runtime_scale) {
  SyntheticParams p;
  p.jobs = 50000;
  p.mean_size = 16.0;
  p.seed = 1601 + seed;
  std::vector<std::string> lines;
  for (const Job& j : synthetic_trace(p).jobs) {
    std::string line = "{\"op\":\"submit\",\"nodes\":" +
                       std::to_string(j.nodes) + ",\"runtime\":";
    service::append_double(line, j.runtime * runtime_scale);
    lines.push_back(line + "}\n");
  }
  return lines;
}

/// Wait until one of the connections is readable or `until` passes.
void wait_readable(Service& svc, Clock::time_point until) {
  pollfd fds[kConnections];
  for (int k = 0; k < kConnections; ++k) {
    fds[k] = pollfd{svc.conn(k).fd(), POLLIN, 0};
  }
  const long ns = std::max<long>(
      0, std::chrono::duration_cast<std::chrono::nanoseconds>(until -
                                                             Clock::now())
             .count());
  timespec ts{ns / 1000000000L, ns % 1000000000L};
  if (::ppoll(fds, kConnections, &ts, nullptr) < 0 && errno != EINTR) {
    throw std::runtime_error("ppoll failed");
  }
}

bool is_ok(const std::string& reply) {
  return reply.rfind("{\"ok\":true", 0) == 0;
}

/// Open loop: Poisson arrivals, each submit sent on a free connection and
/// its ack timed from when it was due.
void latency_phase(Service& svc, double seconds, std::uint64_t seed,
                   const std::vector<std::string>& jobs, PhaseOut* out) {
  Rng rng(0x1a7e0000ULL + seed);
  const auto start = Clock::now();
  const auto end = start + std::chrono::duration_cast<Clock::duration>(
                               std::chrono::duration<double>(seconds));
  auto due = start;
  std::vector<Clock::time_point> backlog;  // due but not yet sent
  std::size_t backlog_head = 0;
  Clock::time_point sent_due[kConnections];
  bool busy[kConnections] = {false, false, false};
  std::size_t next_job = 0;
  std::vector<std::string> replies;
  std::vector<std::vector<double>> slices;
  while (true) {
    const auto now = Clock::now();
    while (due <= now && due < end) {
      backlog.push_back(due);
      due += std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(rng.exponential(1.0 / kRate)));
    }
    for (int k = 0; k < kConnections && backlog_head < backlog.size(); ++k) {
      if (busy[k]) continue;
      sent_due[k] = backlog[backlog_head++];
      busy[k] = true;
      out->late_us.push_back(micros(Clock::now() - sent_due[k]));
      svc.conn(k).send(jobs[next_job++ % jobs.size()]);
      ++out->sent;
    }
    const bool outstanding = busy[0] || busy[1] || busy[2];
    if (due >= end && backlog_head == backlog.size() && !outstanding) break;
    wait_readable(svc,
                  due < end ? due : Clock::now() + std::chrono::seconds(5));
    for (int k = 0; k < kConnections; ++k) {
      replies.clear();
      svc.conn(k).read_lines(&replies);
      if (replies.empty()) continue;
      const auto t = Clock::now();
      for (const std::string& reply : replies) {
        if (!busy[k]) throw std::runtime_error("unexpected reply: " + reply);
        busy[k] = false;
        const double ack = micros(t - sent_due[k]);
        out->ack_us.push_back(ack);
        const auto slice = static_cast<std::size_t>(
            std::chrono::duration<double>(sent_due[k] - start).count());
        if (slices.size() <= slice) slices.resize(slice + 1);
        slices[slice].push_back(ack);
        if (is_ok(reply)) ++out->ok;
      }
    }
  }
  out->wall = seconds_since(start);
  for (const std::vector<double>& slice : slices) {
    if (slice.size() >= 50) out->slice_us.push_back(median(slice));
  }
}

/// Closed loop: each connection sends its next submit when the previous
/// one is acknowledged, until `submits` have been sent. The count is fixed
/// rather than the time, so a faster daemon does the same work sooner.
void capacity_phase(Service& svc, std::uint64_t submits,
                    const std::vector<std::string>& jobs, PhaseOut* out) {
  const auto start = Clock::now();
  auto slice_start = start;
  std::uint64_t acked = 0;
  std::size_t next_job = 0;
  int outstanding = 0;
  for (int k = 0; k < kConnections; ++k) {
    svc.conn(k).send(jobs[next_job++ % jobs.size()]);
    ++out->sent;
    ++outstanding;
  }
  std::vector<std::string> replies;
  while (outstanding > 0) {
    wait_readable(svc, Clock::now() + std::chrono::seconds(5));
    for (int k = 0; k < kConnections; ++k) {
      replies.clear();
      svc.conn(k).read_lines(&replies);
      for (const std::string& reply : replies) {
        --outstanding;
        if (is_ok(reply)) ++out->ok;
        if (++acked % kCapacitySlice == 0) {
          const auto t = Clock::now();
          out->slice_us.push_back(micros(t - slice_start) / kCapacitySlice);
          slice_start = t;
        }
        if (out->sent < submits) {
          svc.conn(k).send(jobs[next_job++ % jobs.size()]);
          ++out->sent;
          ++outstanding;
        }
      }
    }
  }
  out->wall = seconds_since(start);
}

/// Direct WalWriter append+fsync on the daemon's filesystem, microseconds.
std::vector<double> fsync_calibration(const std::string& dir) {
  std::filesystem::create_directories(dir);
  service::WalWriter wal;
  std::string error;
  if (!wal.open(dir + "/calibration.wal", &error)) {
    throw std::runtime_error("calibration WAL: " + error);
  }
  const std::string payload =
      "{\"id\":123,\"arrival\":456.5,\"nodes\":16,\"runtime\":1510.25,"
      "\"bandwidth\":1,\"now\":456.5,\"corr\":124}";
  std::vector<double> us;
  for (int k = 0; k < 200; ++k) {
    const auto t0 = Clock::now();
    if (!wal.append(service::WalRecordType::kSubmit, payload, &error) ||
        !wal.sync(&error)) {
      throw std::runtime_error("calibration WAL: " + error);
    }
    us.push_back(seconds_since(t0) * 1e6);
  }
  wal.close();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return us;
}

}  // namespace

Result run_svc(const Options& o) {
  if (o.workload != "svc-wal") {
    throw std::invalid_argument("unknown workload: " + o.workload);
  }
  // A reply to a vanished client must not kill the process.
  std::signal(SIGPIPE, SIG_IGN);
  Result r;
  std::atomic<bool> recording{true};
  CoreTotals core;  // traced phases only
  const std::vector<std::string> lat_jobs = job_lines(o.seed, 1.0);
  // Capacity submits arrive more than ten times faster than latency ones;
  // jobs a fiftieth as long keep the offered node load below saturation,
  // so the phase measures admission, not a queue growing without bound.
  const std::vector<std::string> cap_jobs = job_lines(o.seed, 0.02);

  // Phase plan: plain latency + plain capacity; a traced run measures each
  // phase plain and traced, at half the length.
  struct Plan {
    bool capacity;
    bool traced;
    double share;
  };
  std::vector<Plan> plan;
  if (o.trace) {
    plan = {{false, false, 0.3}, {false, true, 0.3}, {true, false, 0.2},
            {true, true, 0.2}};
  } else {
    plan = {{false, false, 0.6}, {true, false, 0.4}};
  }
  std::vector<double> setup;
  std::vector<PhaseOut> outs(plan.size());
  int serial = 0;
  auto dir = [&] { return o.run_dir + "/svc" + std::to_string(serial++); };
  // Extra bring-ups so the set-up median has fifteen samples.
  for (std::size_t k = plan.size(); k < 15; ++k) {
    Service svc(dir(), o.tables_dir, false, &recording);
    setup.push_back(svc.setup_s());
    PhaseOut unused;
    svc.finish(&unused, &core);
    recording.store(true);
  }
  for (std::size_t k = 0; k < plan.size(); ++k) {
    Service svc(dir(), o.tables_dir, plan[k].traced, &recording);
    setup.push_back(svc.setup_s());
    const double seconds = o.seconds * plan[k].share;
    if (plan[k].capacity) {
      const auto submits =
          static_cast<std::uint64_t>(kCapacitySubmitsPerSecond * seconds);
      capacity_phase(svc, submits, cap_jobs, &outs[k]);
    } else {
      latency_phase(svc, seconds, o.seed, lat_jobs, &outs[k]);
    }
    svc.finish(&outs[k], &core);
    recording.store(true);
  }

  bool wal_valid = true, wal_complete = true, tables = true;
  for (const PhaseOut& p : outs) {
    r.attempted += p.sent;
    r.failed += p.sent - p.ok;
    wal_valid = wal_valid && p.wal_valid;
    wal_complete = wal_complete && p.wal_complete;
    tables = tables && p.tables_served;
  }
  r.check("all_acked_ok", r.failed == 0);
  r.check("wal_valid", wal_valid);
  r.check("wal_records", wal_complete);
  r.check("tables_served", tables);
  r.note("shape_tables", "k16.jst");

  const PhaseOut& lat = outs[0];
  const PhaseOut& cap = outs[o.trace ? 2 : 1];
  const double cap_us = quiet_estimate(cap.slice_us);
  r.note("react_samples", std::to_string(lat.ack_us.size()));
  r.note("wait_samples", std::to_string(lat.grant_s.size()));
  if (!o.trace) {
    r.metric("us_per_job", cap_us, "us");
    r.metric("react_p50_us", quiet_estimate(lat.slice_us), "us");
    r.metric("util_pct", lat.util, "%");
    r.metric("setup_s", median(setup), "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return r;
  }

  // Grant latency in the engine's simulated seconds, the unit the
  // simulator workloads report job waits in.
  std::vector<double> wait;
  for (const double s : lat.grant_s) wait.push_back(s * kTimeScale);
  r.metric("react_p99_us", percentile(lat.ack_us, 99), "us");
  r.metric("grant.wait_p50_s", percentile(wait, 50), "s");
  r.metric("grant.wait_p99_s", percentile(wait, 99), "s");

  const PhaseOut& tlat = outs[1];
  const PhaseOut& tcap = outs[3];
  const std::vector<double> fsync_us = fsync_calibration(o.run_dir + "/fsync");
  const double n = static_cast<double>(tlat.h.handler_calls);
  const double handler_us = tlat.h.handler_s / n * 1e6;
  const double in_core = tlat.h.handler_core_s / n * 1e6;
  const double sched = handler_us - in_core;
  const double front = mean(tlat.ack_us) - handler_us;
  const double plain_ack = mean(lat.ack_us);
  const double jobs = static_cast<double>(tlat.ok + tcap.ok);
  const double busy = tlat.h.handler_s + tlat.h.idle_s;
  r.metric("ledger.front_us_per_job", front, "us");
  r.metric("ledger.sched_us_per_job", sched, "us");
  r.metric("ledger.core_us_per_job", in_core, "us");
  r.metric("ledger_gap_pct",
           ratio(plain_ack - (front + sched + in_core), plain_ack) * 100, "%");
  r.metric("trace_overhead_pct",
           ratio(quiet_estimate(tcap.slice_us) - cap_us, cap_us) * 100, "%");
  core.report(r, jobs);
  // The daemon's engine runs its passes inside the handlers, where they are
  // not visible from outside (their cost is in ledger.sched_us_per_job and
  // svc.idle_share_pct); defrag is off.
  r.metric("sim.passes_per_job", 0.0, "count");
  r.metric("sim.calls_per_pass", 0.0, "count");
  r.metric("defrag.migrations_per_kjob", 0.0, "count");
  r.metric("svc.reactor_busy_pct", busy / tlat.wall * 100, "%");
  r.metric("svc.idle_share_pct", ratio(tlat.h.idle_s, busy) * 100, "%");
  r.metric("svc.cap.reactor_busy_pct",
           (tcap.h.handler_s + tcap.h.idle_s) / tcap.wall * 100, "%");
  const double acked = static_cast<double>(tlat.ok);
  r.metric("svc.wal_records_per_req",
           static_cast<double>(tlat.wal_records) / acked, "count");
  r.metric("svc.wal_bytes_per_req",
           static_cast<double>(tlat.wal_bytes) / acked, "B");
  r.metric("svc.fsync_share_pct",
           percentile(fsync_us, 50) / handler_us * 100, "%");
  r.metric("svc.gen_late_p99_pct",
           percentile(tlat.late_us, 99) / (1e6 / kRate) * 100, "%");
  return r;
}

}  // namespace jigsaw::benchmark
