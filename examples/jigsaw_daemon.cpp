// jigsaw_daemon: the online scheduler service.
//
// Wraps a SimEngine-backed ServiceDaemon in a socket reactor: clients
// speak the newline-delimited JSON protocol (service/protocol.hpp) over a
// Unix-domain socket or loopback TCP. The daemon write-ahead-logs every
// accepted input, so `kill -9` mid-run loses nothing that was acked under
// --wal-sync=always, and a restart with --recover replays the log,
// audits the re-derived grants, and — when the log contains a drain
// marker — finishes the run with metrics bit-identical to an
// uninterrupted one (scripts/service_smoke.sh exercises exactly that).
//
//   $ ./jigsaw_daemon --radix 16 --listen unix:/tmp/jigsaw.sock
//       --wal /tmp/jigsaw.wal --wal-sync always
//   $ ./jigsaw_client --connect unix:/tmp/jigsaw.sock --op submit
//       --nodes 32 --runtime 600
//
// SIGINT/SIGTERM stop the reactor via the self-pipe (async-signal-safe),
// then the WAL and the event-trace sink are flushed before exit.
//
// --clusters N hosts N independent clusters behind one listener, routed
// by the request's "cluster" field and served by --shards worker threads
// (service/shard.hpp); each cluster keeps a private WAL/snapshot chain at
// `<wal>.c<k>`. With the default --clusters 1 --shards 1 the daemon runs
// the original single-threaded path, byte-identical to earlier releases.

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
#include "service/shard.hpp"
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

void print_recovery(const std::string& prefix,
                    const jigsaw::service::RecoveryReport& r) {
  std::cerr << prefix << "recovered WAL: " << r.records << " records, "
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
  flags.define("wal", "write-ahead log path (empty = no WAL, no recovery)",
               "");
  flags.define("wal-sync", "fsync policy: none, batch, or always", "batch");
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
  flags.define("clusters",
               "independent clusters hosted behind this listener; requests "
               "route by their \"cluster\" field (1 = classic single-"
               "cluster daemon)",
               "1");
  flags.define("shards",
               "worker threads serving the clusters (owner = cluster mod "
               "shards); clamped to --clusters",
               "1");
  flags.define("quick-reject",
               "admission-time quick-reject screen (1 = on): skip placement "
               "searches the allocator's O(trees) capacity-index check "
               "proves futile. Sound, so decisions are unchanged; only "
               "scheduling time and the sched.quick_reject counter move.",
               "1");
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
  flags.define("alloc-deadline-us",
               "anytime placement-search deadline per allocate() call, "
               "microseconds (0 = exhaustive search, the bit-identical "
               "default). With a deadline, candidates probe in quality-"
               "descending order and the best feasible placement found by "
               "expiry is committed.",
               "0");
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
    config.admission_quick_reject = flags.integer("quick-reject") != 0;
    config.alloc_deadline_us = flags.integer("alloc-deadline-us");
    if (config.alloc_deadline_us < 0) {
      std::cerr << "--alloc-deadline-us must be >= 0\n";
      return 1;
    }
    config.defrag.enabled = flags.boolean("defrag");
    config.defrag.migration_cost = flags.real("migration-cost");
    config.defrag.max_moves = static_cast<int>(flags.integer("max-moves"));

    service::DaemonOptions options;
    if (!service::parse_clock_mode(flags.str("clock"), &options.clock)) {
      std::cerr << "--clock must be virtual or wall\n";
      return 1;
    }
    if (!service::parse_sync_policy(flags.str("wal-sync"), &options.sync)) {
      std::cerr << "--wal-sync must be none, batch, or always\n";
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

    const int clusters = static_cast<int>(flags.integer("clusters"));
    const int shard_count = static_cast<int>(flags.integer("shards"));
    if (clusters < 1 || shard_count < 1) {
      std::cerr << "--clusters and --shards must be >= 1\n";
      return 1;
    }

    std::string error;
    std::unique_ptr<service::ServiceDaemon> daemon;
    std::unique_ptr<service::ShardSet> shards;
    std::vector<AllocatorPtr> cluster_allocators;
    if (clusters > 1) {
      service::ShardOptions sopt;
      sopt.clusters = clusters;
      sopt.shards = shard_count;
      sopt.daemon = options;
      // One allocator per cluster: allocators keep per-call scratch, so
      // worker threads must not share one instance.
      std::vector<const Allocator*> ptrs;
      for (int c = 0; c < clusters; ++c) {
        cluster_allocators.push_back(make_allocator(flags.str("scheduler")));
        ptrs.push_back(cluster_allocators.back().get());
      }
      shards = std::make_unique<service::ShardSet>(topo, ptrs, config, sopt);
      if (!shards->init(&error)) {
        std::cerr << "daemon init failed: " << error << "\n";
        return 1;
      }
      for (int c = 0; c < clusters; ++c) {
        if (shards->daemon(c).recovery().performed) {
          print_recovery("cluster " + std::to_string(c) + ": ",
                         shards->daemon(c).recovery());
        }
      }
    } else {
      daemon = std::make_unique<service::ServiceDaemon>(topo, *allocator,
                                                        config, options);
      daemon->set_interrupt_check([]() { return g_signal != 0; });
      if (!daemon->init(&error)) {
        std::cerr << "daemon init failed: " << error << "\n";
        return 1;
      }
      if (daemon->recovery().performed) {
        print_recovery("", daemon->recovery());
      }
    }

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
    if (shards != nullptr) {
      shards->attach_reactor(&reactor);
      reactor.set_line_handler(
          [&shards](service::Reactor::ClientId id, std::string&& line) {
            return shards->handle_socket_line(id, std::move(line));
          });
      reactor.set_overflow_handler(
          [&shards](service::Reactor::ClientId, bool oversized) {
            return shards->overflow_reply(oversized);
          });
      reactor.set_idle_handler([&shards]() { return shards->on_idle(); });
      shards->start();
      std::cerr << "serving " << shards->clusters() << " clusters on "
                << shards->shards() << " shards\n";
    } else {
      daemon->attach_reactor(&reactor);
      reactor.set_line_handler(
          [&daemon](service::Reactor::ClientId id, std::string&& line) {
            return daemon->handle_socket_line(id, std::move(line));
          });
      reactor.set_overflow_handler(
          [&daemon](service::Reactor::ClientId, bool oversized) {
            return daemon->overflow_reply(oversized);
          });
      reactor.set_idle_handler([&daemon]() { return daemon->on_idle(); });
    }

    g_notify_fd = reactor.notify_fd();
    std::signal(SIGINT, on_signal);
    std::signal(SIGTERM, on_signal);
    std::signal(SIGPIPE, SIG_IGN);

    reactor.run();

    // Graceful shutdown: make every acked input durable and finalize the
    // event trace before exiting.
    if (shards != nullptr) {
      shards->stop();  // drains worker inboxes, flushes every WAL
    } else {
      daemon->flush();
    }
    if (sink != nullptr) sink->finish();
    std::cerr << "daemon stopped"
              << (g_signal != 0 ? " (signal)" : "") << "\n";
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
