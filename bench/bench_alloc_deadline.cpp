// Anytime deadline sweep: allocate() latency vs. schedule quality on the
// production-radix machines.
//
// For each deadline in the sweep (microseconds per allocate() call; "inf"
// is the exhaustive default path), the bench replays the trace and
// reports steady-state utilization, mean scheduling time per job, the
// allocate() wall-time p99, and the anytime counters — how often the
// deadline fired and how often an expired search still committed the
// best-so-far placement.
//
// Reproduction target (shape): at a 100 us deadline the allocate() p99
// stays within ~1.2x the deadline while Jigsaw's utilization stays within
// one percentage point of the exhaustive run — the best-fit-first probe
// order makes the first feasible candidate the best-known one, so
// cutting the tail of the scan costs latency tails, not schedule quality.

#include <sstream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace jigsaw;
  using namespace jigsaw::bench;
  CliFlags flags;
  define_scale_flags(flags, "1000");
  define_repeat_flag(flags);
  define_obs_flags(flags);
  flags.define("traces", "comma-separated traces to sweep", "Synth-48");
  flags.define("schemes", "comma-separated schemes (jigsaw, laas)",
               "jigsaw");
  flags.define("deadlines-us",
               "comma-separated allocate() deadlines in microseconds; 0 "
               "means exhaustive (no deadline)",
               "25,50,100,250,1000,5000,0");
  if (!flags.parse(argc, argv)) return 0;
  // Precomputed shape tables (JIGSAW_SHAPE_TABLE=path[:path...]) serve
  // the shape sequences; without them the allocators enumerate at
  // runtime (decisions identical, serving cost higher).
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
  const std::size_t jobs = scaled_jobs(flags);
  const int repeats = repeat_count(flags);
  ObsSetup obs_setup = make_obs(flags);

  auto split = [](std::string rest) {
    std::vector<std::string> parts;
    while (!rest.empty()) {
      const auto comma = rest.find(',');
      parts.push_back(rest.substr(0, comma));
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    }
    return parts;
  };

  std::vector<Scheme> schemes;
  for (const std::string& s : split(flags.str("schemes"))) {
    if (s == "jigsaw") {
      schemes.push_back(Scheme::kJigsaw);
    } else if (s == "laas") {
      schemes.push_back(Scheme::kLaas);
    } else {
      std::cerr << "unknown scheme: " << s << "\n";
      return 1;
    }
  }
  std::vector<std::int64_t> deadlines;
  for (const std::string& d : split(flags.str("deadlines-us"))) {
    deadlines.push_back(std::stoll(d));
    if (deadlines.back() < 0) {
      std::cerr << "--deadlines-us entries must be >= 0\n";
      return 1;
    }
  }

  // Cache traces so every (scheme, deadline) cell sees identical inputs.
  std::vector<NamedTrace> traces;
  for (const std::string& name : split(flags.str("traces"))) {
    traces.push_back(load(name, jobs));
  }

  std::cout << "=== Anytime deadline sweep: allocate() latency vs. "
               "schedule quality ===\n\n";
  std::vector<std::string> header{"Scheme", "Trace", "deadline_us"};
  push_repeat_headers(header, "util_pct", repeats);
  push_repeat_headers(header, "mean_sched_us", repeats);
  push_repeat_headers(header, "p99_alloc_us", repeats);
  header.insert(header.end(),
                {"deadline_hits", "anytime_commits", "alloc_calls"});
  TablePrinter table(header);

  auto fmt_deadline = [](std::int64_t us) {
    return us == 0 ? std::string("inf") : std::to_string(us);
  };

  // Wall-time measurements stay sequential on purpose: parallel cells
  // would contend for cores and corrupt allocate() latency tails.
  std::vector<CellStats> stats;
  for (const Scheme s : schemes) {
    const AllocatorPtr scheme = make_scheme(s);
    for (const NamedTrace& nt : traces) {
      for (const std::int64_t deadline_us : deadlines) {
        Accumulator util, sched_us, p99_us;
        std::uint64_t hits = 0, commits = 0, calls = 0;
        for (int r = 0; r < repeats; ++r) {
          // A fresh per-cell registry feeds the alloc.call_seconds
          // histogram and the anytime counters; metering never changes
          // decisions, so cells stay comparable with --metrics-out off.
          obs::MetricsRegistry registry;
          SimConfig config;
          config.obs = obs_setup.ctx;
          config.obs.metrics = &registry;
          config.alloc_deadline_us = deadline_us;
          obs_setup.annotate_run(nt.trace.name, scheme->name());
          stats.push_back(CellStats{nt.trace.name,
                                    scheme->name() + "@" +
                                        fmt_deadline(deadline_us) + "us",
                                    r, 0.0, 0, 0});
          const SimMetrics m = timed_simulate(nt.topo, *scheme, nt.trace,
                                              config, &stats.back());
          util.add(m.steady_utilization * 100.0);
          sched_us.add(m.mean_sched_time_per_job * 1e6);
          const obs::Histogram* call =
              registry.find_histogram("alloc.call_seconds");
          p99_us.add(call != nullptr ? call->percentile(99) * 1e6 : 0.0);
          const obs::Counter* dh =
              registry.find_counter("sched.deadline_hits");
          const obs::Counter* ac =
              registry.find_counter("sched.anytime_commits");
          const obs::Counter* al = registry.find_counter("alloc.calls");
          if (r + 1 == repeats) {
            hits = dh != nullptr ? dh->value() : 0;
            commits = ac != nullptr ? ac->value() : 0;
            calls = al != nullptr ? al->value() : 0;
          }
        }
        std::vector<std::string> row{scheme->name(), nt.trace.name,
                                     fmt_deadline(deadline_us)};
        push_repeat_cells(row, util, repeats, 2);
        push_repeat_cells(row, sched_us, repeats, 1);
        push_repeat_cells(row, p99_us, repeats, 1);
        row.push_back(std::to_string(hits));
        row.push_back(std::to_string(commits));
        row.push_back(std::to_string(calls));
        table.add_row(std::move(row));
      }
    }
  }
  std::cout << table.render();
  write_json_out(flags, "alloc_deadline", table, stats);
  obs_setup.finish();
  std::cout << "\nShape: p99_alloc_us tracks the deadline (within ~1.2x at "
               "100 us) while util_pct stays within ~1pp of the inf row — "
               "best-fit-first probing trades scan tails, not "
               "placements.\n";
  return 0;
}
