// Scheduler face-off: replay one job trace under every scheduling scheme
// and compare utilization, turnaround, and makespan side by side — a
// miniature of the paper's whole evaluation.
//
//   $ ./scheduler_faceoff [--trace Synth-16] [--jobs 2000] [--scenario 10%]
//
// Observability: --trace-out FILE [--trace-format chrome|jsonl] records
// every scheduling decision as a structured event stream (open chrome
// format traces at https://ui.perfetto.dev), and --metrics-out FILE dumps
// the counters/histograms registry as JSON after the runs.

#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "core/baseline.hpp"
#include "core/jigsaw_allocator.hpp"
#include "core/laas.hpp"
#include "core/lc.hpp"
#include "core/shape_table.hpp"
#include "core/ta.hpp"
#include "obs/observer.hpp"
#include "sim/simulator.hpp"
#include "trace/llnl_like.hpp"
#include "trace/synthetic.hpp"
#include "util/cli.hpp"
#include "util/table.hpp"

namespace {

jigsaw::Trace load_trace(const std::string& name, std::size_t jobs) {
  using namespace jigsaw;
  if (name.rfind("Synth", 0) == 0) return named_synthetic(name, jobs);
  if (name == "Thunder") return thunder_like(jobs);
  if (name == "Atlas") return atlas_like(jobs);
  if (name.size() > 4 && name.substr(name.size() - 4) == "-Cab") {
    return cab_like(name.substr(0, name.size() - 4), jobs);
  }
  throw std::invalid_argument("unknown trace: " + name);
}

jigsaw::SpeedupScenario parse_scenario(const std::string& name) {
  using jigsaw::SpeedupModel;
  for (const auto s : SpeedupModel::all()) {
    if (SpeedupModel::name(s) == name) return s;
  }
  throw std::invalid_argument("unknown scenario: " + name);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace jigsaw;
  CliFlags flags;
  flags.define("trace", "Synth-16/22/28, Thunder, Atlas, or {Aug,Sep,Oct,Nov}-Cab",
               "Synth-16");
  flags.define("jobs", "number of jobs to replay", "2000");
  flags.define("scenario", "isolation speed-up scenario (None/5%/10%/20%/V2/Random)",
               "10%");
  flags.define("trace-out",
               "write structured event trace to this file (empty = off)", "");
  flags.define("trace-format", "event trace format: chrome or jsonl",
               "chrome");
  flags.define("metrics-out",
               "write metrics registry JSON snapshot to this file", "");
  flags.define("shape-table",
               "precomputed shape table file(s), colon-separated (see "
               "shape_dump); schemes whose topology matches serve shape "
               "sequences zero-copy from the table instead of enumerating "
               "per call — decisions are bit-identical either way",
               "");
  if (!flags.parse(argc, argv)) return 0;

  if (!flags.str("shape-table").empty()) {
    std::string error;
    const std::size_t installed =
        install_shape_tables(flags.str("shape-table"), &error);
    if (!error.empty()) {
      std::cerr << "--shape-table: " << error << "\n";
      return 1;
    }
    std::cout << "Installed " << installed << " shape table(s)\n";
  }

  std::ofstream trace_stream;
  std::unique_ptr<obs::TraceSink> sink;
  obs::MetricsRegistry registry;
  obs::ObsContext obs_ctx;
  if (!flags.str("trace-out").empty()) {
    trace_stream.open(flags.str("trace-out"));
    if (!trace_stream) {
      std::cerr << "cannot open --trace-out file\n";
      return 1;
    }
    sink = obs::make_sink(flags.str("trace-format"), trace_stream);
    obs_ctx.sink = sink.get();
  }
  if (!flags.str("metrics-out").empty()) obs_ctx.metrics = &registry;

  Trace trace = load_trace(flags.str("trace"),
                           static_cast<std::size_t>(flags.integer("jobs")));
  Rng bw_rng(2024);
  assign_bandwidth_classes(trace, bw_rng);

  const FatTree topo =
      trace.system_nodes > 0 ? FatTree::at_least(trace.system_nodes)
                             : FatTree::from_radix(16);
  std::cout << "Trace " << trace.name << " (" << trace.jobs.size()
            << " jobs) on " << topo.describe() << "\n\n";

  SimConfig config;
  config.scenario = parse_scenario(flags.str("scenario"));
  config.obs = obs_ctx;

  std::vector<AllocatorPtr> schemes;
  schemes.push_back(std::make_unique<BaselineAllocator>());
  schemes.push_back(std::make_unique<LeastConstrainedAllocator>(true));
  schemes.push_back(std::make_unique<JigsawAllocator>());
  schemes.push_back(std::make_unique<LaasAllocator>());
  schemes.push_back(std::make_unique<TaAllocator>());

  TablePrinter table({"scheme", "utilization %", "waste %",
                      "mean turnaround (s)", "makespan (s)",
                      "sched time/job (ms)"});
  // Per-scheme shape-serving split: how many shape sequences came from
  // the installed tables vs runtime enumeration during each run.
  TablePrinter serving({"scheme", "2L table", "2L runtime", "3L table",
                        "3L runtime", "3L general (runtime-only)"});
  for (const auto& scheme : schemes) {
    reset_shape_serve_counters();
    const SimMetrics m = simulate(topo, *scheme, trace, config);
    table.add_row({scheme->name(),
                   TablePrinter::fmt(100.0 * m.steady_utilization, 1),
                   TablePrinter::fmt(100.0 * m.steady_waste, 1),
                   TablePrinter::fmt(m.mean_turnaround_all, 0),
                   TablePrinter::fmt(m.makespan, 0),
                   TablePrinter::fmt(1e3 * m.mean_sched_time_per_job, 3)});
    const ShapeServeCounters c = shape_serve_counters();
    serving.add_row({scheme->name(), std::to_string(c.two_level_table),
                     std::to_string(c.two_level_runtime),
                     std::to_string(c.three_level_table),
                     std::to_string(c.three_level_runtime),
                     std::to_string(c.three_level_general_runtime)});
  }
  std::cout << table.render();
  std::cout << "\nShape sequence serving (table vs runtime enumeration):\n"
            << serving.render();
  if (sink != nullptr) sink->finish();
  if (obs_ctx.metrics != nullptr) {
    std::ofstream metrics_out(flags.str("metrics-out"));
    if (metrics_out) {
      registry.write_json(metrics_out);
    } else {
      std::cerr << "cannot write --metrics-out file\n";
    }
  }
  std::cout << "\nIsolating schemes (Jigsaw/LaaS/TA) and LC+S run jobs at "
               "their isolated speed under scenario "
            << flags.str("scenario") << "; Baseline never does.\n";
  return 0;
}
