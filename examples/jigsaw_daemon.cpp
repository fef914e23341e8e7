// jigsaw_daemon: the online scheduler service.
//
// Wraps a SimEngine-backed ServiceDaemon in a socket reactor: clients
// speak the newline-delimited JSON protocol (service/protocol.hpp) over a
// Unix-domain socket or loopback TCP. The daemon write-ahead-logs every
// accepted input and fsyncs it before the ack leaves (one fsync per
// reactor turn covers every request of it), so `kill -9` mid-run loses
// nothing that was acked, and a restart with --recover replays the log,
// audits the re-derived grants, and — when the log contains a drain
// marker — finishes the run with metrics bit-identical to an
// uninterrupted one (scripts/service_smoke.sh exercises exactly that).
// If such an fsync fails, the replies it covers are dropped, the clients
// closed, and the daemon exits with status 1 for a --recover restart to
// take over.
//
//   $ ./jigsaw_daemon --radix 16 --listen unix:/tmp/jigsaw.sock
//       --wal /tmp/jigsaw.wal
//   $ ./jigsaw_client --connect unix:/tmp/jigsaw.sock --op submit
//       --nodes 32 --runtime 600
//
// SIGINT/SIGTERM stop the reactor via the self-pipe (async-signal-safe),
// then the WAL and the event-trace sink are flushed before exit.
//
// One daemon serves one cluster on one thread. To host several clusters,
// run one daemon per cluster, each with its own --listen endpoint, --wal
// and snapshot chain; a Prometheus job scrapes each daemon's
// `--listen tcp:PORT` as its own target, and the target's instance label
// names the cluster.

#include <unistd.h>

#include <csignal>
#include <fstream>
#include <iostream>
#include <memory>

#include "core/baseline.hpp"
#include "core/jigsaw_allocator.hpp"
#include "core/laas.hpp"
#include "core/lc.hpp"
#include "core/shape_table.hpp"
#include "core/ta.hpp"
#include "obs/sink.hpp"
#include "service/daemon.hpp"
#include "service/reactor.hpp"
#include "util/cli.hpp"

namespace {

using namespace jigsaw;

volatile std::sig_atomic_t g_signal = 0;
int g_notify_fd = -1;

void on_signal(int) {
  g_signal = 1;
  if (g_notify_fd >= 0) {
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(g_notify_fd, &byte, 1);
  }
}

void print_recovery(const jigsaw::service::RecoveryReport& r) {
  std::cerr << "recovered WAL: " << r.records << " records, "
            << r.inputs_replayed << " inputs replayed, " << r.grants_logged
            << " grants audited against " << r.grants_derived
            << " re-derived, " << r.dropped_bytes << " torn bytes dropped";
  if (r.used_snapshot) {
    std::cerr << ", snapshot epoch " << r.snapshot_epoch << " restored ("
              << r.tail_records << " tail records"
              << (r.snapshot_fallback ? ", fallback chain" : "") << ")";
  }
  std::cerr << (r.saw_drain ? ", drain resumed to completion" : "") << "\n";
}

AllocatorPtr make_allocator(const std::string& name) {
  if (name == "jigsaw") return std::make_unique<JigsawAllocator>();
  if (name == "laas") return std::make_unique<LaasAllocator>();
  if (name == "ta") return std::make_unique<TaAllocator>();
  if (name == "lc") return std::make_unique<LeastConstrainedAllocator>(false);
  if (name == "lcs") return std::make_unique<LeastConstrainedAllocator>(true);
  if (name == "baseline") return std::make_unique<BaselineAllocator>();
  throw std::invalid_argument(
      "scheduler must be jigsaw/laas/ta/lc/lcs/baseline, got " + name);
}

}  // namespace

int main(int argc, char** argv) {
  CliFlags flags;
  flags.define("radix", "cluster switch radix", "16");
  flags.define("scheduler", "jigsaw/laas/ta/lc/lcs/baseline", "jigsaw");
  flags.define("listen",
               "unix:/path/to.sock or tcp:PORT (tcp:0 picks a free port)",
               "unix:/tmp/jigsaw.sock");
  flags.define("clock", "drive mode: virtual (drain-driven) or wall",
               "virtual");
  flags.define("time-scale",
               "wall mode: event-clock seconds per wall-clock second", "1");
  flags.define("wal",
               "write-ahead log path; every ack waits for its fsync "
               "(empty = no WAL, no recovery)",
               "");
  flags.define_bool("recover", "replay an existing WAL before serving");
  flags.define("max-queue", "admission bound on active (queued+running) jobs",
               "4096");
  flags.define("step-delay-us",
               "artificial delay per drain step, microseconds (widens the "
               "crash window for recovery tests)",
               "0");
  flags.define("trace-out",
               "write service.* and simulator event trace (JSONL) here", "");
  flags.define_bool("metrics",
                    "enable the live metrics registry: the `metrics` op and "
                    "HTTP `GET /metrics` (Prometheus text) on the same "
                    "listener, plus latency histograms and §3.2 "
                    "blocked-reason counters. Off by default: the disabled "
                    "daemon's hot loop performs no observability work");
  flags.define("snapshot-every",
               "snapshot + compact the WAL after this many accepted inputs "
               "(0 = only on the explicit `snapshot` op). Recovery then "
               "replays only the post-snapshot tail",
               "0");
  flags.define_bool("defrag",
                    "live defragmentation: when the head job stalls on a "
                    "condition-class failure (leaf_spread / "
                    "uplink_isolation), search for a bounded set of "
                    "running-job migrations that unblocks it. Off by "
                    "default; scheduling is bit-identical without it");
  flags.define("migration-cost",
               "simulated seconds a migrated job pauses (checkpoint + "
               "restore + warm-up), charged as extended occupancy",
               "60");
  flags.define("max-moves", "most jobs one defrag plan may relocate", "3");
  try {
    if (!flags.parse(argc, argv)) return 0;

    const FatTree topo =
        FatTree::from_radix(static_cast<int>(flags.integer("radix")));
    const AllocatorPtr allocator = make_allocator(flags.str("scheduler"));

    // Precomputed shape tables (JIGSAW_SHAPE_TABLE=path[:path...]): the
    // matching topology serves shape sequences zero-copy; everything
    // else falls back to runtime enumeration. Decisions are identical
    // either way, so this is a pure serving-latency knob.
    std::string table_error;
    const std::size_t shape_tables =
        install_shape_tables_from_env(&table_error);
    if (!table_error.empty()) {
      std::cerr << "JIGSAW_SHAPE_TABLE: " << table_error << "\n";
      return 1;
    }
    if (shape_tables > 0) {
      std::cerr << "shape tables installed: " << shape_tables << "\n";
    }

    std::unique_ptr<std::ofstream> trace_stream;
    std::unique_ptr<obs::TraceSink> sink;
    std::unique_ptr<obs::MetricsRegistry> metrics;
    SimConfig config;
    const std::string trace_path = flags.str("trace-out");
    if (!trace_path.empty()) {
      trace_stream = std::make_unique<std::ofstream>(trace_path);
      if (!*trace_stream) {
        std::cerr << "cannot open --trace-out file: " << trace_path << "\n";
        return 1;
      }
      sink = obs::make_sink("jsonl", *trace_stream);
      config.obs.sink = sink.get();
    }
    if (flags.boolean("metrics")) {
      metrics = std::make_unique<obs::MetricsRegistry>();
      config.obs.metrics = metrics.get();
    }
    // The screen is sound, so it changes no decision; it only skips
    // searches the allocator's capacity indices prove futile.
    config.admission_quick_reject = true;
    config.defrag.enabled = flags.boolean("defrag");
    config.defrag.migration_cost = flags.real("migration-cost");
    config.defrag.max_moves = static_cast<int>(flags.integer("max-moves"));

    service::DaemonOptions options;
    if (!service::parse_clock_mode(flags.str("clock"), &options.clock)) {
      std::cerr << "--clock must be virtual or wall\n";
      return 1;
    }
    options.wal_path = flags.str("wal");
    options.recover = flags.boolean("recover");
    options.max_queue = static_cast<std::size_t>(flags.integer("max-queue"));
    options.time_scale = flags.real("time-scale");
    if (!(options.time_scale > 0.0)) {
      std::cerr << "--time-scale must be > 0\n";
      return 1;
    }
    options.step_delay_us =
        static_cast<std::uint64_t>(flags.integer("step-delay-us"));
    options.snapshot_every =
        static_cast<std::uint64_t>(flags.integer("snapshot-every"));

    std::string error;
    service::ServiceDaemon daemon(topo, *allocator, config, options);
    daemon.set_interrupt_check([]() { return g_signal != 0; });
    if (!daemon.init(&error)) {
      std::cerr << "daemon init failed: " << error << "\n";
      return 1;
    }
    if (daemon.recovery().performed) print_recovery(daemon.recovery());

    service::Reactor reactor;
    const std::string listen = flags.str("listen");
    if (listen.rfind("tcp:", 0) == 0) {
      if (!reactor.listen_tcp(std::atoi(listen.c_str() + 4), &error)) {
        std::cerr << error << "\n";
        return 1;
      }
      std::cerr << "listening on tcp:" << reactor.port() << "\n";
    } else {
      std::string path = listen;
      if (path.rfind("unix:", 0) == 0) path = path.substr(5);
      if (!reactor.listen_unix(path, &error)) {
        std::cerr << error << "\n";
        return 1;
      }
      std::cerr << "listening on unix:" << path << "\n";
    }

    // handle_socket_line also answers HTTP `GET /metrics` on this same
    // listener, so `curl --unix-socket` works during a live run.
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

    g_notify_fd = reactor.notify_fd();
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGPIPE, SIG_IGN);

    if (!reactor.run()) {
      // A group commit failed: the replies it covered were dropped unsent
      // and every client closed. Exit non-zero so a restart with
      // --recover takes over.
      if (sink != nullptr) sink->finish();
      std::cerr << "daemon stopped: " << daemon.wal_failure()
                << "; restart with --recover\n";
      return 1;
    }

    // Graceful shutdown: sync the grant/release tail and finalize the
    // event trace before exiting.
    daemon.flush();
    if (sink != nullptr) sink->finish();
    std::cerr << "daemon stopped"
              << (g_signal != 0 ? " (signal)" : "") << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
