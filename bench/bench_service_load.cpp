// bench_service_load: load generator for the online scheduler service.
//
// Starts an in-process jigsaw_daemon-equivalent (ServiceDaemon + Reactor
// on a private Unix socket), fans out N concurrent clients that replay a
// synthetic trace's submissions over the socket, then drains and reports:
//
//   * sustained submission throughput (submits/second over the wire),
//   * submit-to-ack latency p50/p99/p999 (client-side round trip), and
//   * submit-to-grant latency p50/p99/p999 (daemon-side wall clock, read
//     back through the `stats` op).
//
// The acceptance bar this repro pins: >= 10k submissions/sec over
// loopback with 8 concurrent clients. Results go to the usual table +
// --json-out; --trace-out captures the daemon's service.* event stream.
//
// Observability modes:
//   * --metrics gives the daemon a live metrics registry: the `metrics`
//     op and HTTP `GET /metrics` answer on the bench socket while the
//     load (and drain — widen it with --step-delay-us) is in flight, so
//     `curl --unix-socket <sock> http://x/metrics` scrapes a live drain.
//   * --obs-compare runs the identical load twice — registry off, then
//     on — and reports both throughputs plus the relative overhead, the
//     measured form of the "disabled observability costs nothing"
//     contract (one row per mode in the table and in --json-out).

//
// Sharded mode: --shards N (with --clusters M, default M = N) swaps the
// socket front-end for an in-process ShardSet driven through post() —
// submissions stripe across the clusters (job index mod M) and the ack
// latency is the queue-to-reply time on the owning worker. This measures
// the service's aggregate admission capacity without loopback syscalls;
// the table gains one row per shard next to the aggregate row.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "bench_common.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/reactor.hpp"
#include "service/shard.hpp"

namespace {

using namespace jigsaw;
using namespace jigsaw::bench;

struct ClientResult {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  std::vector<double> ack_seconds;  ///< per-submit round-trip times
  std::string error;
};

void run_client(const std::string& endpoint, const Trace& trace,
                std::size_t begin, std::size_t stride, ClientResult* out) {
  service::ServiceClient client;
  std::string error;
  if (!client.connect(endpoint, &error)) {
    out->error = error;
    return;
  }
  out->ack_seconds.reserve(trace.jobs.size() / stride + 1);
  for (std::size_t k = begin; k < trace.jobs.size(); k += stride) {
    const Job& job = trace.jobs[k];
    std::string request =
        "{\"op\":\"submit\",\"id\":" + std::to_string(job.id) +
        ",\"nodes\":" + std::to_string(job.nodes) + ",\"runtime\":";
    service::append_double(request, job.runtime);
    request += ",\"bandwidth\":";
    service::append_double(request, job.bandwidth);
    request += ",\"arrival\":";
    service::append_double(request, job.arrival);
    request += "}";
    const auto t0 = std::chrono::steady_clock::now();
    std::string reply;
    if (!client.request(request, &reply, &error)) {
      out->error = error;
      return;
    }
    out->ack_seconds.push_back(
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count());
    service::JsonValue doc;
    if (service::parse_json(reply, &doc, &error) &&
        doc.find("ok") != nullptr && doc.find("ok")->as_bool()) {
      ++out->accepted;
    } else {
      ++out->rejected;
    }
  }
}

double pct(const SortedSamples& sorted, double p) {
  return sorted.empty() ? 0.0 : sorted.percentile(p);
}

/// Everything one load+drain run produces, table-ready.
struct RunOutcome {
  std::size_t accepted = 0;
  std::size_t rejected = 0;
  /// Submits/second over the load phase; 0 on per-shard rows, whose
  /// shards share one load window and so have no rate of their own.
  double throughput = 0.0;
  double ack_p50 = 0.0, ack_p99 = 0.0, ack_p999 = 0.0;  ///< seconds
  double grant_p50 = 0.0, grant_p99 = 0.0, grant_p999 = 0.0;
  double drain_seconds = 0.0;
};

struct RunSpec {
  const NamedTrace* named = nullptr;
  Scheme scheme = Scheme::kJigsaw;
  int clients = 8;
  bool drain = false;
  std::string socket_path;
  std::uint64_t step_delay_us = 0;
  obs::ObsContext obs;  ///< daemon-side observability (may be all-null)
};

/// One complete daemon lifecycle: listen, load, optional drain, stats,
/// shutdown. Throws on any client/daemon error. The daemon answers HTTP
/// `GET /metrics` on the same socket throughout (503 without a registry),
/// so an external scraper can watch the run live.
RunOutcome run_once(const RunSpec& spec) {
  service::DaemonOptions options;
  options.clock = service::ClockMode::kVirtual;
  // Submissions carry the trace arrivals, so the daemon's admission
  // queue holds the whole workload; raise the bound accordingly.
  options.max_queue = spec.named->trace.jobs.size() + 16;
  options.step_delay_us = spec.step_delay_us;

  SimConfig config;
  config.obs = spec.obs;
  const AllocatorPtr allocator = make_scheme(spec.scheme);
  service::ServiceDaemon daemon(spec.named->topo, *allocator, config,
                                options);
  std::string error;
  if (!daemon.init(&error)) {
    throw std::runtime_error("daemon init failed: " + error);
  }
  service::Reactor reactor;
  if (!reactor.listen_unix(spec.socket_path, &error)) {
    throw std::runtime_error(error);
  }
  daemon.attach_reactor(&reactor);
  reactor.set_line_handler(
      [&daemon](service::Reactor::ClientId id, std::string&& line) {
        return daemon.handle_socket_line(id, std::move(line));
      });
  reactor.set_overflow_handler(
      [&daemon](service::Reactor::ClientId, bool oversized) {
        return daemon.overflow_reply(oversized);
      });
  reactor.set_idle_handler([&daemon]() { return daemon.on_idle(); });
  std::thread daemon_thread([&reactor]() { reactor.run(); });

  RunOutcome out;
  try {
    // ---- load phase ----------------------------------------------------
    std::vector<ClientResult> results(
        static_cast<std::size_t>(spec.clients));
    std::vector<std::thread> workers;
    const auto load_start = std::chrono::steady_clock::now();
    for (int c = 0; c < spec.clients; ++c) {
      workers.emplace_back(run_client, "unix:" + spec.socket_path,
                           std::cref(spec.named->trace),
                           static_cast<std::size_t>(c),
                           static_cast<std::size_t>(spec.clients),
                           &results[static_cast<std::size_t>(c)]);
    }
    for (std::thread& w : workers) w.join();
    const double load_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      load_start)
            .count();

    std::vector<double> ack_samples;
    for (const ClientResult& r : results) {
      if (!r.error.empty()) {
        throw std::runtime_error("client error: " + r.error);
      }
      out.accepted += r.accepted;
      out.rejected += r.rejected;
      ack_samples.insert(ack_samples.end(), r.ack_seconds.begin(),
                         r.ack_seconds.end());
    }
    const SortedSamples acks(std::move(ack_samples));
    out.ack_p50 = pct(acks, 50.0);
    out.ack_p99 = pct(acks, 99.0);
    out.ack_p999 = pct(acks, 99.9);
    out.throughput =
        load_seconds > 0.0
            ? static_cast<double>(out.accepted + out.rejected) / load_seconds
            : 0.0;

    // ---- drain + teardown through the protocol -------------------------
    service::ServiceClient control;
    if (!control.connect("unix:" + spec.socket_path, &error)) {
      throw std::runtime_error(error);
    }
    if (spec.drain) {
      const auto t0 = std::chrono::steady_clock::now();
      if (!control.request_json("{\"op\":\"drain\"}", &error).has_value()) {
        throw std::runtime_error("drain failed: " + error);
      }
      out.drain_seconds =
          std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                        t0)
              .count();
    }
    const std::optional<service::JsonValue> stats_doc =
        control.request_json("{\"op\":\"stats\"}", &error);
    if (!stats_doc.has_value()) {
      throw std::runtime_error("stats failed: " + error);
    }
    const service::JsonValue* stats = stats_doc->find("stats");
    const service::JsonValue* grant_lat =
        stats != nullptr ? stats->find("grant_latency") : nullptr;
    auto grant_field = [&](const char* key) {
      const service::JsonValue* v =
          grant_lat != nullptr ? grant_lat->find(key) : nullptr;
      return v != nullptr ? v->as_double() : 0.0;
    };
    out.grant_p50 = grant_field("p50");
    out.grant_p99 = grant_field("p99");
    out.grant_p999 = grant_field("p999");
    control.request_json("{\"op\":\"shutdown\"}", &error);
  } catch (...) {
    // Wake the reactor via its self-pipe so run() returns even though
    // no shutdown op made it through.
    const char byte = 1;
    [[maybe_unused]] const ssize_t n =
        ::write(reactor.notify_fd(), &byte, 1);
    daemon_thread.join();
    ::unlink(spec.socket_path.c_str());
    throw;
  }
  daemon_thread.join();
  ::unlink(spec.socket_path.c_str());
  return out;
}

std::string submit_request(const Job& job) {
  std::string request =
      "{\"op\":\"submit\",\"id\":" + std::to_string(job.id) +
      ",\"nodes\":" + std::to_string(job.nodes) + ",\"runtime\":";
  service::append_double(request, job.runtime);
  request += ",\"bandwidth\":";
  service::append_double(request, job.bandwidth);
  request += ",\"arrival\":";
  service::append_double(request, job.arrival);
  request += "}";
  return request;
}

struct ShardedOutcome {
  RunOutcome total;
  std::vector<RunOutcome> per_shard;
};

/// Sharded mode: in-process ShardSet, submissions striped job-index mod
/// clusters, acks collected from post() callbacks on the worker threads.
/// Optional drain runs per-cluster in parallel (one drain per worker).
ShardedOutcome run_sharded(const RunSpec& spec, int clusters, int shards) {
  service::ShardOptions sopt;
  sopt.clusters = clusters;
  sopt.shards = shards;
  sopt.daemon.clock = service::ClockMode::kVirtual;
  sopt.daemon.max_queue = spec.named->trace.jobs.size() + 16;
  sopt.daemon.step_delay_us = spec.step_delay_us;
  SimConfig config;
  config.obs = spec.obs;
  std::vector<AllocatorPtr> owned;
  std::vector<const Allocator*> allocators;
  for (int c = 0; c < clusters; ++c) {
    owned.push_back(make_scheme(spec.scheme));
    allocators.push_back(owned.back().get());
  }
  service::ShardSet set(spec.named->topo, allocators, config, sopt);
  std::string error;
  if (!set.init(&error)) {
    throw std::runtime_error("shard init failed: " + error);
  }
  set.start();

  const std::vector<Job>& jobs = spec.named->trace.jobs;
  std::vector<double> ack(jobs.size(), 0.0);
  std::vector<std::atomic<std::uint64_t>> accepted(
      static_cast<std::size_t>(clusters));
  std::vector<std::atomic<std::uint64_t>> rejected(
      static_cast<std::size_t>(clusters));
  std::atomic<std::size_t> remaining{jobs.size()};
  std::mutex done_mu;
  std::condition_variable done_cv;

  const auto load_start = std::chrono::steady_clock::now();
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const std::size_t cluster = k % static_cast<std::size_t>(clusters);
    const auto t0 = std::chrono::steady_clock::now();
    set.post(
        static_cast<int>(cluster), submit_request(jobs[k]),
        [&, k, cluster, t0](const std::string& reply) {
          ack[k] = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - t0)
                       .count();
          const bool ok = reply.rfind("{\"ok\":true", 0) == 0;
          (ok ? accepted : rejected)[cluster].fetch_add(
              1, std::memory_order_relaxed);
          if (remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
            std::lock_guard<std::mutex> lock(done_mu);
            done_cv.notify_one();
          }
        });
  }
  {
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] {
      return remaining.load(std::memory_order_acquire) == 0;
    });
  }
  const double load_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                    load_start)
          .count();

  ShardedOutcome out;
  if (spec.drain) {
    std::atomic<int> drains{clusters};
    std::atomic<bool> drain_failed{false};
    const auto t0 = std::chrono::steady_clock::now();
    for (int c = 0; c < clusters; ++c) {
      set.post(c, "{\"op\":\"drain\"}",
               [&](const std::string& reply) {
                 if (reply.rfind("{\"ok\":true", 0) != 0) {
                   drain_failed.store(true, std::memory_order_relaxed);
                 }
                 if (drains.fetch_sub(1, std::memory_order_acq_rel) == 1) {
                   std::lock_guard<std::mutex> lock(done_mu);
                   done_cv.notify_one();
                 }
               });
    }
    std::unique_lock<std::mutex> lock(done_mu);
    done_cv.wait(lock, [&] {
      return drains.load(std::memory_order_acquire) == 0;
    });
    out.total.drain_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (drain_failed.load()) {
      set.stop();
      throw std::runtime_error("a per-cluster drain failed");
    }
  }
  set.stop();  // daemons are main-thread-accessible again below

  out.per_shard.resize(static_cast<std::size_t>(shards));
  std::vector<std::vector<double>> shard_acks(
      static_cast<std::size_t>(shards));
  for (std::size_t k = 0; k < jobs.size(); ++k) {
    const int shard =
        set.owner(static_cast<int>(k % static_cast<std::size_t>(clusters)));
    shard_acks[static_cast<std::size_t>(shard)].push_back(ack[k]);
  }
  std::vector<double> all_grants;
  std::vector<std::vector<double>> shard_grants(
      static_cast<std::size_t>(shards));
  for (int c = 0; c < clusters; ++c) {
    const std::vector<double>& lat = set.daemon(c).grant_latencies();
    all_grants.insert(all_grants.end(), lat.begin(), lat.end());
    auto& mine = shard_grants[static_cast<std::size_t>(set.owner(c))];
    mine.insert(mine.end(), lat.begin(), lat.end());
    const std::size_t s = static_cast<std::size_t>(set.owner(c));
    out.per_shard[s].accepted += accepted[static_cast<std::size_t>(c)].load();
    out.per_shard[s].rejected += rejected[static_cast<std::size_t>(c)].load();
  }
  for (int s = 0; s < shards; ++s) {
    RunOutcome& r = out.per_shard[static_cast<std::size_t>(s)];
    out.total.accepted += r.accepted;
    out.total.rejected += r.rejected;
    const SortedSamples acks(
        std::move(shard_acks[static_cast<std::size_t>(s)]));
    r.ack_p50 = pct(acks, 50.0);
    r.ack_p99 = pct(acks, 99.0);
    r.ack_p999 = pct(acks, 99.9);
    const SortedSamples grants(
        std::move(shard_grants[static_cast<std::size_t>(s)]));
    r.grant_p50 = pct(grants, 50.0);
    r.grant_p99 = pct(grants, 99.0);
    r.grant_p999 = pct(grants, 99.9);
  }
  out.total.throughput =
      load_seconds > 0.0
          ? static_cast<double>(out.total.accepted + out.total.rejected) /
                load_seconds
          : 0.0;
  const SortedSamples acks(std::move(ack));
  out.total.ack_p50 = pct(acks, 50.0);
  out.total.ack_p99 = pct(acks, 99.0);
  out.total.ack_p999 = pct(acks, 99.9);
  const SortedSamples grants(std::move(all_grants));
  out.total.grant_p50 = pct(grants, 50.0);
  out.total.grant_p99 = pct(grants, 99.0);
  out.total.grant_p999 = pct(grants, 99.9);
  return out;
}

/// Table row for one run. `obs` is "off" or "on"; `overhead.pct` is the
/// throughput cost of that run relative to `baseline_throughput`, and 0
/// when the baseline is 0 or the run is the baseline itself. Only the
/// --obs-compare "on" row has a baseline that means something. A run
/// with no rate of its own (a per-shard row) prints `-` as its rate.
std::vector<std::string> outcome_row(const std::string& trace_name,
                                     int clients, const std::string& shards,
                                     const std::string& obs,
                                     const RunOutcome& r,
                                     double baseline_throughput) {
  const double overhead =
      baseline_throughput > 0.0
          ? 100.0 * (baseline_throughput - r.throughput) /
                baseline_throughput
          : 0.0;
  return {trace_name,
          std::to_string(clients),
          shards,
          obs,
          std::to_string(r.accepted),
          std::to_string(r.rejected),
          r.throughput > 0.0 ? TablePrinter::fmt(r.throughput, 0) : "-",
          TablePrinter::fmt(overhead, 2),
          TablePrinter::fmt(r.ack_p50 * 1e6, 1),
          TablePrinter::fmt(r.ack_p99 * 1e6, 1),
          TablePrinter::fmt(r.ack_p999 * 1e6, 1),
          TablePrinter::fmt(r.grant_p50 * 1e3, 3),
          TablePrinter::fmt(r.grant_p99 * 1e3, 3),
          TablePrinter::fmt(r.grant_p999 * 1e3, 3),
          TablePrinter::fmt(r.drain_seconds, 2)};
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("trace", "synthetic trace to replay", "Synth-16");
  flags.define("jobs", "submissions to replay", "20000");
  flags.define("clients", "concurrent load-generator clients", "8");
  flags.define("scheduler", "daemon scheduler scheme", "jigsaw");
  flags.define("socket",
               "unix socket path for the in-process daemon (empty = "
               "per-process default under /tmp)",
               "");
  flags.define_bool("drain",
                    "after the load phase, drain the virtual clock and "
                    "report the drain wall time");
  flags.define("step-delay-us",
               "artificial delay per drain step, microseconds (keeps the "
               "drain alive long enough to scrape it)",
               "0");
  flags.define_bool("metrics",
                    "give the daemon a live metrics registry: `metrics` "
                    "op + HTTP GET /metrics on the bench socket");
  flags.define_bool("obs-compare",
                    "run the load twice, metrics registry off then on, "
                    "and report both throughputs + overhead");
  flags.define("shards",
               "worker threads for the in-process sharded service; > 1 "
               "switches from the socket bench to ShardSet::post() and "
               "adds one table row per shard",
               "1");
  flags.define("clusters",
               "clusters hosted by the sharded service (0 = one per "
               "shard); submissions stripe job-index mod clusters",
               "0");
  define_obs_flags(flags);
  try {
    if (!flags.parse(argc, argv)) return 0;
    const std::size_t jobs = static_cast<std::size_t>(flags.integer("jobs"));
    const int clients = static_cast<int>(flags.integer("clients"));
    if (clients < 1) throw std::invalid_argument("--clients must be >= 1");

    const NamedTrace named = load(flags.str("trace"), jobs);

    ObsSetup obs = make_obs(flags);
    SignalFlush signal_flush(obs);

    RunSpec spec;
    spec.named = &named;
    spec.clients = clients;
    spec.drain = flags.boolean("drain");
    spec.step_delay_us =
        static_cast<std::uint64_t>(flags.integer("step-delay-us"));
    for (const Scheme s : {Scheme::kBaseline, Scheme::kLcs, Scheme::kJigsaw,
                           Scheme::kLaas, Scheme::kTa, Scheme::kLc}) {
      if (make_scheme(s)->name() == flags.str("scheduler")) spec.scheme = s;
    }
    spec.socket_path = flags.str("socket");
    if (spec.socket_path.empty()) {
      spec.socket_path =
          "/tmp/jigsaw_bench_" + std::to_string(::getpid()) + ".sock";
    }

    TablePrinter table({"trace", "clients", "shards", "obs", "submits",
                        "rejected",
                        "submits.per.sec", "overhead.pct", "ack.p50.us",
                        "ack.p99.us", "ack.p999.us", "grant.p50.ms",
                        "grant.p99.ms", "grant.p999.ms", "drain.sec"});

    const int shard_count = static_cast<int>(flags.integer("shards"));
    int cluster_count = static_cast<int>(flags.integer("clusters"));
    if (cluster_count == 0) cluster_count = shard_count;
    if (shard_count < 1 || cluster_count < shard_count) {
      throw std::invalid_argument(
          "--shards must be >= 1 and --clusters >= --shards");
    }
    if (shard_count > 1 || cluster_count > 1) {
      if (flags.boolean("obs-compare")) {
        throw std::invalid_argument(
            "--obs-compare is a single-shard mode (use --metrics)");
      }
      spec.obs = obs.ctx;
      std::unique_ptr<obs::MetricsRegistry> registry;
      if (flags.boolean("metrics") && spec.obs.metrics == nullptr) {
        registry = std::make_unique<obs::MetricsRegistry>();
        spec.obs.metrics = registry.get();
      }
      const std::string obs_label =
          spec.obs.metrics != nullptr ? "on" : "off";
      const ShardedOutcome r = run_sharded(spec, cluster_count, shard_count);
      const std::string shards_label = std::to_string(shard_count) + "x" +
                                       std::to_string(cluster_count);
      table.add_row(outcome_row(named.trace.name, 0, shards_label, obs_label,
                                r.total, r.total.throughput));
      for (std::size_t s = 0; s < r.per_shard.size(); ++s) {
        table.add_row(outcome_row(named.trace.name + ".s" +
                                      std::to_string(s),
                                  0, shards_label, obs_label, r.per_shard[s],
                                  0.0));
      }
      std::cout << table.render();
      std::cout << "aggregate: "
                << TablePrinter::fmt(r.total.throughput, 0)
                << " submits/sec across " << shard_count << " shards / "
                << cluster_count << " clusters, ack p999 "
                << TablePrinter::fmt(r.total.ack_p999 * 1e6, 1) << " us\n";
      write_json_out(flags, "bench_service_load", table);
      return 0;
    }

    if (flags.boolean("obs-compare")) {
      // Identical runs differing only in the metrics registry. The "off"
      // run uses an all-null ObsContext (the zero-cost path); the "on"
      // run gets a fresh registry, histograms and counters live.
      spec.obs = obs::ObsContext{};
      const RunOutcome off = run_once(spec);
      obs::MetricsRegistry registry;
      spec.obs = obs::ObsContext{};
      spec.obs.metrics = &registry;
      const RunOutcome on = run_once(spec);
      table.add_row(outcome_row(named.trace.name, clients, "1", "off", off,
                                off.throughput));
      table.add_row(outcome_row(named.trace.name, clients, "1", "on", on,
                                off.throughput));
      const double overhead =
          off.throughput > 0.0
              ? 100.0 * (off.throughput - on.throughput) / off.throughput
              : 0.0;
      std::cout << table.render();
      std::cout << "metrics-enabled throughput overhead: "
                << TablePrinter::fmt(overhead, 2) << "% ("
                << TablePrinter::fmt(off.throughput, 0) << " -> "
                << TablePrinter::fmt(on.throughput, 0)
                << " submits/sec)\n";
    } else {
      spec.obs = obs.ctx;
      std::unique_ptr<obs::MetricsRegistry> registry;
      if (flags.boolean("metrics") && spec.obs.metrics == nullptr) {
        registry = std::make_unique<obs::MetricsRegistry>();
        spec.obs.metrics = registry.get();
      }
      const bool metered = spec.obs.metrics != nullptr;
      if (metered) {
        std::cerr << "scrape live: curl --unix-socket " << spec.socket_path
                  << " http://localhost/metrics\n";
      }
      const RunOutcome r = run_once(spec);
      table.add_row(outcome_row(named.trace.name, clients, "1",
                                metered ? "on" : "off", r, r.throughput));
      std::cout << table.render();
    }
    write_json_out(flags, "bench_service_load", table);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
