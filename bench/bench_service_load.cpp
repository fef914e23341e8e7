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

#include <unistd.h>

#include <chrono>
#include <thread>

#include "bench_common.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/reactor.hpp"

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
  double throughput = 0.0;  ///< submits/second over the load phase
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

/// Table row for one run. `obs` is "off" or "on"; `overhead.pct` is the
/// throughput cost of that run relative to `baseline_throughput`, and 0
/// when the baseline is 0 or the run is the baseline itself. Only the
/// --obs-compare "on" row has a baseline that means something.
std::vector<std::string> outcome_row(const std::string& trace_name,
                                     int clients, const std::string& obs,
                                     const RunOutcome& r,
                                     double baseline_throughput) {
  const double overhead =
      baseline_throughput > 0.0
          ? 100.0 * (baseline_throughput - r.throughput) /
                baseline_throughput
          : 0.0;
  return {trace_name,
          std::to_string(clients),
          obs,
          std::to_string(r.accepted),
          std::to_string(r.rejected),
          TablePrinter::fmt(r.throughput, 0),
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

    TablePrinter table({"trace", "clients", "obs", "submits", "rejected",
                        "submits.per.sec", "overhead.pct", "ack.p50.us",
                        "ack.p99.us", "ack.p999.us", "grant.p50.ms",
                        "grant.p99.ms", "grant.p999.ms", "drain.sec"});

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
      table.add_row(outcome_row(named.trace.name, clients, "off", off,
                                off.throughput));
      table.add_row(outcome_row(named.trace.name, clients, "on", on,
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
      table.add_row(outcome_row(named.trace.name, clients,
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
