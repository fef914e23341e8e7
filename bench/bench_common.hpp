// Shared plumbing for the bench harnesses.
//
// Each bench binary reproduces one table or figure from the paper. By
// default traces run at a reduced job count so the whole suite finishes in
// minutes on one core; pass --full for paper-scale runs (the qualitative
// shape is stable across scales). Trace-to-cluster pairing follows §5.4.3:
// synthetic traces on their matched clusters, LLNL-like traces on the
// 1458-node radix-18 tree.

#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/baseline.hpp"
#include "core/jigsaw_allocator.hpp"
#include "core/shape_table.hpp"
#include "core/laas.hpp"
#include "core/lc.hpp"
#include "core/ta.hpp"
#include "obs/observer.hpp"
#include "obs/sink.hpp"  // json_escape
#include "sim/simulator.hpp"
#include "trace/llnl_like.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"

namespace jigsaw::bench {

struct NamedTrace {
  Trace trace;
  FatTree topo;
};

/// Paper trace by name at the requested scale (0 = paper scale), on the
/// §5.4.3 cluster: Synth-16 -> radix 16, Synth-22 -> radix 22,
/// Synth-28 -> radix 28, LLNL-like -> radix 18 (1458 nodes); plus the
/// production-radix companions Synth-48 -> radix 48 and Synth-64 ->
/// radix 64.
inline NamedTrace load(const std::string& name, std::size_t jobs) {
  auto make = [&](Trace trace, int radix) {
    Rng rng(0xBADC0FFEEULL);
    assign_bandwidth_classes(trace, rng);
    return NamedTrace{std::move(trace), FatTree::from_radix(radix)};
  };
  if (name == "Synth-16") {
    return make(named_synthetic(name, jobs == 0 ? 10000 : jobs), 16);
  }
  if (name == "Synth-22") {
    return make(named_synthetic(name, jobs == 0 ? 10000 : jobs), 22);
  }
  if (name == "Synth-28") {
    return make(named_synthetic(name, jobs == 0 ? 10000 : jobs), 28);
  }
  // Production-radix companions: same workload recipe on the k=48
  // (27648-node) and k=64 (65536-node) machines, sized for
  // scheduling-time benchmarks rather than paper figures.
  if (name == "Synth-48") {
    return make(named_synthetic(name, jobs == 0 ? 10000 : jobs), 48);
  }
  if (name == "Synth-64") {
    return make(named_synthetic(name, jobs == 0 ? 10000 : jobs), 64);
  }
  if (name == "Thunder") {
    return make(thunder_like(jobs == 0 ? 105764 : jobs), 18);
  }
  if (name == "Atlas") {
    return make(atlas_like(jobs == 0 ? 29700 : jobs), 18);
  }
  if (name.size() > 4 && name.substr(name.size() - 4) == "-Cab") {
    return make(cab_like(name.substr(0, name.size() - 4), jobs), 18);
  }
  throw std::invalid_argument("unknown trace: " + name);
}

inline const std::vector<std::string>& all_trace_names() {
  static const std::vector<std::string> kNames = {
      "Synth-16", "Synth-22", "Synth-28", "Atlas",   "Thunder",
      "Aug-Cab",  "Sep-Cab",  "Oct-Cab",  "Nov-Cab"};
  return kNames;
}

enum class Scheme { kBaseline, kLcs, kJigsaw, kLaas, kTa, kLc };

inline AllocatorPtr make_scheme(Scheme scheme) {
  switch (scheme) {
    case Scheme::kBaseline: return std::make_unique<BaselineAllocator>();
    case Scheme::kLcs: return std::make_unique<LeastConstrainedAllocator>(true);
    case Scheme::kJigsaw: return std::make_unique<JigsawAllocator>();
    case Scheme::kLaas: return std::make_unique<LaasAllocator>();
    case Scheme::kTa: return std::make_unique<TaAllocator>();
    case Scheme::kLc: return std::make_unique<LeastConstrainedAllocator>(false);
  }
  return nullptr;
}

/// The Figure 6 line-up, in the paper's legend order.
inline const std::vector<Scheme>& figure6_schemes() {
  static const std::vector<Scheme> kSchemes = {
      Scheme::kBaseline, Scheme::kLcs, Scheme::kJigsaw, Scheme::kLaas,
      Scheme::kTa};
  return kSchemes;
}

/// Standard scale flags shared by every bench.
inline void define_scale_flags(CliFlags& flags, const std::string& jobs_default) {
  flags.define("jobs", "jobs per trace (0 = paper scale)", jobs_default);
  flags.define_bool("full", "run at paper scale (overrides --jobs)");
}

inline std::size_t scaled_jobs(const CliFlags& flags) {
  if (flags.boolean("full")) return 0;
  return static_cast<std::size_t>(flags.integer("jobs"));
}

// ---- defrag plumbing (shared --defrag flags) ---------------------------

/// Live-defragmentation flags shared by the figure benches.
inline void define_defrag_flags(CliFlags& flags) {
  flags.define_bool("defrag",
                    "enable live defragmentation (head-stall migration "
                    "planning); off = bit-identical to the classic bench");
  flags.define("migration-cost",
               "simulated seconds a migrated job pauses, charged as "
               "extended occupancy",
               "60");
  flags.define("max-moves", "most jobs one defrag plan may relocate", "3");
}

/// Apply the --defrag flag set to a bench cell's SimConfig.
inline void apply_defrag_flags(const CliFlags& flags, SimConfig& config) {
  config.defrag.enabled = flags.boolean("defrag");
  config.defrag.migration_cost = flags.real("migration-cost");
  config.defrag.max_moves = static_cast<int>(flags.integer("max-moves"));
}

// ---- anytime deadline plumbing (shared --alloc-deadline-us flag) -------

/// Anytime placement-search deadline flag shared by the bench binaries.
inline void define_deadline_flag(CliFlags& flags) {
  flags.define("alloc-deadline-us",
               "anytime placement-search deadline per allocate() call, "
               "microseconds (0 = exhaustive, the bit-identical default). "
               "With a deadline, candidates probe best fit first and "
               "the best feasible placement found by expiry commits.",
               "0");
}

/// Apply --alloc-deadline-us to a bench cell's SimConfig.
inline void apply_deadline_flag(const CliFlags& flags, SimConfig& config) {
  const auto us = flags.integer("alloc-deadline-us");
  if (us < 0) throw std::invalid_argument("--alloc-deadline-us must be >= 0");
  config.alloc_deadline_us = us;
}

// ---- repeated-run statistics (shared --repeat plumbing) ----------------

inline void define_repeat_flag(CliFlags& flags) {
  flags.define("repeat",
               "independent repetitions per configuration, each with a "
               "distinct seed; > 1 reports mean and stddev columns",
               "1");
}

inline int repeat_count(const CliFlags& flags) {
  const int n = static_cast<int>(flags.integer("repeat"));
  if (n < 1) throw std::invalid_argument("--repeat must be >= 1");
  return n;
}

/// Header(s) for one repeated measurement: the base name, plus a
/// "<base>.sd" sample-stddev column when repeating. Keeping mean and
/// stddev in separate columns keeps them numeric in --json-out output.
inline void push_repeat_headers(std::vector<std::string>& headers,
                                const std::string& base, int repeats) {
  headers.push_back(base);
  if (repeats > 1) headers.push_back(base + ".sd");
}

/// Cell(s) matching push_repeat_headers for one accumulated measurement.
inline void push_repeat_cells(std::vector<std::string>& cells,
                              const Accumulator& acc, int repeats,
                              int precision = 2) {
  cells.push_back(TablePrinter::fmt(acc.mean(), precision));
  if (repeats > 1) {
    cells.push_back(TablePrinter::fmt(acc.stddev(), precision));
  }
}

// ---- observability plumbing (shared by every bench binary) -------------

/// Standard observability/output flags. Every bench binary defines these
/// next to its scale flags.
inline void define_obs_flags(CliFlags& flags) {
  flags.define("trace-out",
               "write structured event trace to this file (empty = off)", "");
  flags.define("trace-format", "event trace format: chrome or jsonl",
               "chrome");
  flags.define("metrics-out",
               "write metrics registry JSON snapshot to this file", "");
  flags.define("json-out",
               "write the result table as machine-readable JSON", "");
}

/// Owns the sink/registry behind a SimConfig's ObsContext for one bench
/// process. Null members (flags unset) keep the simulator on its
/// zero-cost path. Call finish() (or rely on the destructor) to finalize
/// the trace file and dump the metrics snapshot.
struct ObsSetup {
  std::unique_ptr<std::ofstream> trace_stream;
  std::unique_ptr<obs::TraceSink> sink;
  std::unique_ptr<obs::MetricsRegistry> metrics;
  std::string metrics_path;
  obs::ObsContext ctx;

  ObsSetup() = default;
  ObsSetup(const ObsSetup&) = delete;
  ObsSetup& operator=(const ObsSetup&) = delete;
  ObsSetup(ObsSetup&&) = default;
  ObsSetup& operator=(ObsSetup&&) = default;
  ~ObsSetup() { finish(); }

  void finish() {
    if (sink != nullptr) {
      sink->finish();
      sink.reset();
      trace_stream.reset();
    }
    if (metrics != nullptr && !metrics_path.empty()) {
      std::ofstream out(metrics_path);
      if (!out) {
        std::cerr << "cannot write metrics snapshot: " << metrics_path
                  << "\n";
      } else {
        metrics->write_json(out);
      }
      metrics_path.clear();
    }
  }

  /// Tag the event stream with run metadata (which trace/scheme the
  /// following events belong to) so multi-run bench traces stay legible.
  void annotate_run(const std::string& trace_name,
                    const std::string& scheme_name) const {
    if (ctx.sink == nullptr) return;
    ctx.emit(obs::instant("bench", "bench.run", 0.0)
                 .arg("trace", trace_name)
                 .arg("scheme", scheme_name));
  }
};

/// Build the observability context requested on the command line.
inline ObsSetup make_obs(const CliFlags& flags) {
  ObsSetup setup;
  const std::string trace_path = flags.str("trace-out");
  if (!trace_path.empty()) {
    setup.trace_stream = std::make_unique<std::ofstream>(trace_path);
    if (!*setup.trace_stream) {
      throw std::runtime_error("cannot open --trace-out file: " + trace_path);
    }
    setup.sink = obs::make_sink(flags.str("trace-format"),
                                *setup.trace_stream);
    setup.ctx.sink = setup.sink.get();
  }
  const std::string metrics_path = flags.str("metrics-out");
  if (!metrics_path.empty()) {
    setup.metrics = std::make_unique<obs::MetricsRegistry>();
    setup.metrics_path = metrics_path;
    setup.ctx.metrics = setup.metrics.get();
  }
  return setup;
}

// ---- graceful shutdown (SIGINT/SIGTERM during a long run) --------------

/// Flushes the bench's observability sinks when the process is
/// interrupted, so a half-finished multi-hour sweep still leaves a valid
/// trace file and metrics snapshot behind. RAII: install next to the
/// ObsSetup, automatically uninstalled at scope exit. The handler
/// finalizes the sinks and re-raises with the default disposition, so the
/// exit status still reflects the signal.
///
/// (Finalizing an ofstream from a handler is not strictly
/// async-signal-safe; for a bench being Ctrl-C'd, a truncated trace with
/// a closing bracket beats a corrupt one with certainty.)
class SignalFlush {
 public:
  explicit SignalFlush(ObsSetup& obs) {
    target() = &obs;
    previous_int_ = std::signal(SIGINT, handler);
    previous_term_ = std::signal(SIGTERM, handler);
  }
  ~SignalFlush() {
    target() = nullptr;
    std::signal(SIGINT, previous_int_);
    std::signal(SIGTERM, previous_term_);
  }
  SignalFlush(const SignalFlush&) = delete;
  SignalFlush& operator=(const SignalFlush&) = delete;

 private:
  static ObsSetup*& target() {
    static ObsSetup* t = nullptr;
    return t;
  }
  static void handler(int sig) {
    if (ObsSetup* obs = target()) {
      target() = nullptr;
      obs->finish();
    }
    std::signal(sig, SIG_DFL);
    std::raise(sig);
  }

  void (*previous_int_)(int) = SIG_DFL;
  void (*previous_term_)(int) = SIG_DFL;
};

// ---- parallel cell driver ----------------------------------------------

inline void define_threads_flag(CliFlags& flags) {
  flags.define("threads",
               "worker threads for bench cells (0 = hardware concurrency; "
               "1 = sequential legacy path)",
               "0");
}

/// Worker count for this run. The structured trace sink and metrics
/// registry are single-threaded, so requesting either forces the
/// sequential path (with a note, since the user asked for parallelism).
inline int resolve_threads(const CliFlags& flags, const ObsSetup& obs) {
  int n = static_cast<int>(flags.integer("threads"));
  if (n <= 0) {
    n = static_cast<int>(std::thread::hardware_concurrency());
    if (n < 1) n = 1;
  }
  if (n > 1 && (obs.ctx.sink != nullptr || obs.ctx.metrics != nullptr)) {
    std::cerr << "note: --trace-out/--metrics-out sinks are "
                 "single-threaded; forcing --threads 1\n";
    n = 1;
  }
  return n;
}

/// Run `cells` cell bodies on up to `threads` worker threads that pull
/// cell indices from a shared counter. Bodies must write results only
/// into their own pre-sized slot (results[i]) so output is deterministic
/// regardless of which thread runs which cell. With one worker (or one
/// cell) the bodies run inline in index order — the bit-exact sequential
/// path. The first exception from any cell is rethrown here after every
/// worker has joined; the remaining cells are skipped.
inline void run_cells(int threads, std::size_t cells,
                      const std::function<void(std::size_t)>& body) {
  const std::size_t workers =
      std::min<std::size_t>(threads < 1 ? 1 : static_cast<std::size_t>(threads),
                            cells);
  if (workers <= 1) {
    for (std::size_t i = 0; i < cells; ++i) body(i);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::exception_ptr error;
  std::mutex error_mu;
  std::vector<std::thread> pool;
  pool.reserve(workers);
  for (std::size_t w = 0; w < workers; ++w) {
    pool.emplace_back([&]() {
      while (true) {
        const std::size_t i = next.fetch_add(1);
        if (i >= cells) return;
        try {
          body(i);
        } catch (...) {
          std::lock_guard<std::mutex> lock(error_mu);
          if (!error) error = std::current_exception();
          next.store(cells);  // drain remaining work
          return;
        }
      }
    });
  }
  for (std::thread& t : pool) t.join();
  if (error) std::rethrow_exception(error);
}

// ---- per-cell attribution ----------------------------------------------

/// One simulated (trace x scheme x repeat) cell's cost attribution,
/// emitted as the JSON "cells" array next to the result table so
/// speedups are attributable (search pruning vs. copy elimination).
struct CellStats {
  std::string trace;
  std::string scheme;
  int repeat = 0;
  double wall_seconds = 0.0;
  std::uint64_t search_steps = 0;
  std::uint64_t allocate_calls = 0;
  // Defrag accounting (all zero with --defrag off).
  std::uint64_t migration_plans = 0;
  std::uint64_t migrations = 0;
  std::uint64_t head_unblocks = 0;
  double migration_node_seconds = 0.0;
};

/// simulate() wrapped with a wall clock, filling `stat`'s attribution
/// fields (wall time, allocator search steps, allocate calls).
inline SimMetrics timed_simulate(const FatTree& topo, const Allocator& alloc,
                                 const Trace& trace, const SimConfig& config,
                                 CellStats* stat) {
  const auto start = std::chrono::steady_clock::now();
  SimMetrics m = simulate(topo, alloc, trace, config);
  const std::chrono::duration<double> elapsed =
      std::chrono::steady_clock::now() - start;
  if (stat != nullptr) {
    stat->wall_seconds = elapsed.count();
    stat->search_steps = m.search_steps;
    stat->allocate_calls = m.allocate_calls;
    stat->migration_plans = m.migration_plans;
    stat->migrations = m.migrations;
    stat->head_unblocks = m.head_unblocks;
    stat->migration_node_seconds = m.migration_node_seconds;
  }
  return m;
}

inline std::string cells_json(const std::vector<CellStats>& cells) {
  std::ostringstream out;
  out << "\"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CellStats& c = cells[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"trace\": \""
        << obs::json_escape(c.trace) << "\", \"scheme\": \""
        << obs::json_escape(c.scheme) << "\", \"repeat\": " << c.repeat
        << ", \"wall_seconds\": " << c.wall_seconds
        << ", \"search_steps\": " << c.search_steps
        << ", \"allocate_calls\": " << c.allocate_calls
        << ", \"migration_plans\": " << c.migration_plans
        << ", \"migrations\": " << c.migrations
        << ", \"head_unblocks\": " << c.head_unblocks
        << ", \"migration_node_seconds\": " << c.migration_node_seconds
        << '}';
  }
  out << (cells.empty() ? "" : "\n  ") << ']';
  return out.str();
}

/// Honor --json-out: write the rendered table as JSON named after the
/// bench binary, with optional per-cell attribution records.
inline void write_json_out(const CliFlags& flags, const std::string& bench,
                           const TablePrinter& table,
                           const std::vector<CellStats>& cells = {}) {
  const std::string path = flags.str("json-out");
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    std::cerr << "cannot write --json-out file: " << path << "\n";
    return;
  }
  table.write_json(out, bench, cells.empty() ? "" : cells_json(cells));
}

}  // namespace jigsaw::bench
