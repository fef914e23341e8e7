// Table 3: average scheduling time per job (seconds), smallest to largest
// cluster: Synth-16 (1024 nodes), Sep-Cab (1458), Thunder (1458),
// Synth-28 (5488).
//
// Reproduction target (shape): TA, LaaS and Jigsaw within the same order
// of magnitude (milliseconds per job), Jigsaw scaling to 5488 nodes; LC+S
// one to two orders of magnitude slower, growing steeply with cluster
// size.

#include <sstream>

#include "bench_common.hpp"

int main(int argc, char** argv) {
  using namespace jigsaw;
  using namespace jigsaw::bench;
  CliFlags flags;
  define_scale_flags(flags, "2000");
  define_repeat_flag(flags);
  define_obs_flags(flags);
  flags.define_bool("skip-lcs", "skip the slow LC+S row");
  flags.define("traces",
               "comma-separated trace subset (default: the Table 3 four)",
               "");
  if (!flags.parse(argc, argv)) return 0;
  // Precomputed shape tables (JIGSAW_SHAPE_TABLE=path[:path...]) make
  // the tables-vs-runtime A/B a pure environment toggle: decisions are
  // bit-identical, only scheduling time moves.
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

  // Wall-time measurements stay sequential on purpose: parallel cells
  // would contend for cores and corrupt per-job scheduling times.
  std::vector<std::string> names{"Synth-16", "Sep-Cab", "Thunder",
                                 "Synth-28"};
  if (!flags.str("traces").empty()) {
    names.clear();
    std::string rest = flags.str("traces");
    while (!rest.empty()) {
      const auto comma = rest.find(',');
      names.push_back(rest.substr(0, comma));
      rest = comma == std::string::npos ? "" : rest.substr(comma + 1);
    }
  }

  std::cout << "=== Table 3: average scheduling time per job (s) ===\n\n";
  std::vector<std::string> header{"Approach"};
  for (const std::string& name : names) {
    push_repeat_headers(header, name, repeats);
  }
  TablePrinter table(header);
  std::vector<Scheme> schemes{Scheme::kTa, Scheme::kLaas, Scheme::kJigsaw};
  if (!flags.boolean("skip-lcs")) schemes.push_back(Scheme::kLcs);

  // Cache traces so every scheme sees identical inputs.
  std::vector<NamedTrace> traces;
  for (const auto& name : names) traces.push_back(load(name, jobs));

  auto sci = [](double x) {
    std::ostringstream cell;
    cell.setf(std::ios::scientific);
    cell.precision(2);
    cell << x;
    return cell.str();
  };

  std::vector<CellStats> stats;
  for (const Scheme s : schemes) {
    const AllocatorPtr scheme = make_scheme(s);
    std::vector<std::string> row{scheme->name()};
    for (const NamedTrace& nt : traces) {
      Accumulator sched_time;
      for (int r = 0; r < repeats; ++r) {
        SimConfig config;
        config.obs = obs_setup.ctx;
        obs_setup.annotate_run(nt.trace.name, scheme->name());
        stats.push_back(CellStats{nt.trace.name, scheme->name(), r, 0.0, 0,
                                  0});
        const SimMetrics m = timed_simulate(nt.topo, *scheme, nt.trace,
                                            config, &stats.back());
        sched_time.add(m.mean_sched_time_per_job);
        if (r + 1 == repeats) {
          std::cerr << scheme->name() << " / " << nt.trace.name << ": "
                    << m.allocate_calls << " allocate calls, "
                    << m.budget_exhaustions << " budget exhaustions\n";
        }
      }
      row.push_back(sci(sched_time.mean()));
      if (repeats > 1) row.push_back(sci(sched_time.stddev()));
    }
    table.add_row(std::move(row));
  }
  std::cout << table.render();
  write_json_out(flags, "table3_schedtime", table, stats);
  obs_setup.finish();
  std::cout << "\nPaper shape: TA/LaaS/Jigsaw all ~1-10 ms/job; LC+S "
               "~50-255 ms/job and growing with cluster size.\n";
  return 0;
}
