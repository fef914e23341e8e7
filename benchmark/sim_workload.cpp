// The simulator workloads: sim-k48, sim-k16 and sim-atlas.
//
// A run draws several traces from its seed and cycles through them until
// the measuring time is up: the per-job cost of one trace depends on its
// job mix, so averaging over distinct traces keeps the run-to-run spread
// down. The first pass over each trace sets the decision fingerprint
// every later pass over it must reproduce bit for bit; trace 0's is set
// by a warm-up that is a plain simulate().
//
// A plain repetition drives SimEngine::step() directly, exactly as
// simulate() does, timing only each step (two clock reads per event
// batch). A traced run pairs every plain repetition with a traced one
// that also wraps the scheme in TimedAllocator, so that tracing overhead
// and the ledger gap are measured against plain repetitions of the same
// run and the same trace.

#include <cstdio>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "bench.hpp"
#include "core/jigsaw_allocator.hpp"
#include "core/shape_table.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"
#include "timed_allocator.hpp"
#include "trace/llnl_like.hpp"
#include "trace/synthetic.hpp"

namespace jigsaw::benchmark {

namespace {

struct SimSpec {
  int radix = 0;
  const char* table = nullptr;  ///< shape table file name, or null
  std::size_t traces = 0;       ///< distinct traces per run
  std::size_t jobs = 0;         ///< jobs per trace
  double mean_size = 0.0;       ///< Synth recipe; 0 = Atlas-like
  std::uint64_t base_seed = 0;  ///< trace seed at --seed 0
  SimConfig config;
};

SimSpec spec_for(const std::string& workload) {
  SimSpec s;
  // Every run also records per-job outcomes: the wait percentiles come
  // from them. Recording is the same in every repetition.
  s.config.collect_job_records = true;
  if (workload == "sim-k48") {
    s.radix = 48;
    s.table = "k48.jst";
    s.traces = 4;
    s.jobs = 1500;
    s.mean_size = 48.0;
    s.base_seed = 4801;
  } else if (workload == "sim-k16") {
    s.radix = 16;
    s.table = "k16.jst";
    s.traces = 4;
    s.jobs = 4000;
    s.mean_size = 16.0;
    s.base_seed = 1601;
  } else if (workload == "sim-atlas") {
    s.radix = 18;
    // Whole-machine jobs and heavy-tailed runtimes make the per-job cost
    // of an Atlas-like trace vary most from trace to trace.
    s.traces = 8;
    s.jobs = 3000;
    s.base_seed = 7002;
    s.config.admission_quick_reject = true;
    s.config.defrag.enabled = true;
    s.config.defrag.migration_cost = 60.0;
    s.config.defrag.max_moves = 3;
    // Far above any single call, so the deadline never fires and the
    // decisions stay deterministic, but the anytime path (ranked probe
    // order, clock checks) is the one that runs.
    s.config.alloc_deadline_us = 100000;
  } else {
    throw std::invalid_argument("unknown workload: " + workload);
  }
  return s;
}

/// Trace `i` of the run with `seed`; seed 0's trace 0 uses the named
/// trace's own seed (4801, 1601 or 7002).
Trace make_trace(const SimSpec& s, std::uint64_t seed, std::size_t i) {
  const std::uint64_t trace_seed = s.base_seed + seed * s.traces + i;
  if (s.mean_size == 0.0) return atlas_like(s.jobs, trace_seed);
  SyntheticParams p;
  p.jobs = s.jobs;
  p.mean_size = s.mean_size;
  p.seed = trace_seed;
  return synthetic_trace(p);
}

std::string g17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// The decision fingerprint two runs of one trace must share.
std::string fingerprint(const SimMetrics& m) {
  return g17(m.steady_utilization) + "/" + g17(m.makespan) + "/" +
         std::to_string(m.allocate_calls) + "/" +
         std::to_string(m.search_steps) + "/" + std::to_string(m.migrations);
}

/// One of the run's traces, its reference outcome and its repetitions.
struct TraceRun {
  Trace trace;
  std::optional<SimMetrics> ref;  ///< first pass over the trace
  std::string print;              ///< fingerprint(*ref)
  std::vector<double> plain_us;     ///< per-repetition wall per job
  std::vector<double> plain_react;  ///< per-repetition median step time
};

struct Rep {
  SimMetrics metrics;
  double wall = 0.0;       ///< engine construction through finish()
  double step_wall = 0.0;  ///< sum of step() wall times
};

/// One pass over the trace, as simulate() does it, with each step timed.
Rep run_rep(const FatTree& topo, const Allocator& alloc, const Trace& trace,
            const SimConfig& config, const TimedAllocator* timed,
            std::vector<double>* step_us) {
  Rep rep;
  const auto t0 = Clock::now();
  SimEngine engine(topo, alloc, config);
  for (const Job& job : trace.jobs) engine.submit(job);
  while (!engine.idle()) {
    if (timed != nullptr) timed->begin_step();
    const auto s0 = Clock::now();
    engine.step();
    const double dt = seconds_since(s0);
    rep.step_wall += dt;
    if (step_us != nullptr) step_us->push_back(dt * 1e6);
  }
  rep.metrics = engine.finish();
  rep.wall = seconds_since(t0);
  return rep;
}

}  // namespace

Result run_sim(const Options& o) {
  const SimSpec spec = spec_for(o.workload);
  Result r;

  // ---- set-up: traces, topology, shape table, scheme (median of 15) -----
  std::vector<double> setup;
  std::vector<TraceRun> runs;
  std::unique_ptr<FatTree> topo;
  std::unique_ptr<Allocator> alloc;
  for (int k = 0; k < 15; ++k) {
    const auto t0 = Clock::now();
    runs.assign(spec.traces, TraceRun{});
    for (std::size_t i = 0; i < spec.traces; ++i) {
      runs[i].trace = make_trace(spec, o.seed, i);
    }
    topo = std::make_unique<FatTree>(FatTree::from_radix(spec.radix));
    clear_shape_tables();
    if (spec.table != nullptr) {
      std::string error;
      const std::string path = o.tables_dir + "/" + spec.table;
      if (install_shape_tables(path, &error) != 1) {
        throw std::runtime_error("shape table " + path + ": " + error);
      }
    }
    alloc = std::make_unique<JigsawAllocator>();
    setup.push_back(seconds_since(t0));
  }
  r.note("shape_tables", spec.table != nullptr ? spec.table : "none");

  bool completed = true;
  bool deterministic = true;
  auto account = [&](TraceRun& t, const SimMetrics& m) {
    r.attempted += t.trace.jobs.size();
    r.failed += t.trace.jobs.size() - m.completed;
    completed = completed && m.completed == t.trace.jobs.size();
    if (!t.ref.has_value()) {
      t.ref = m;
      t.print = fingerprint(m);
    } else {
      deterministic = deterministic && fingerprint(m) == t.print;
    }
  };

  // ---- warm-up: the plain simulate() trace 0's repetitions must match ----
  reset_shape_serve_counters();
  account(runs[0], simulate(*topo, *alloc, runs[0].trace, spec.config));
  const ShapeServeCounters served = shape_serve_counters();

  // ---- measured repetitions, cycling through the traces -----------------
  std::vector<double> step_us;
  CoreTotals core;
  double step_wall = 0.0, pass_wall = 0.0, traced_jobs = 0.0;
  std::uint64_t passes = 0;
  bool calls_match = true;
  // Per traced repetition and the plain one right after it on the same
  // trace: how far the ledger parts are from the plain total, and how much
  // slower the traced pass was. Adjacent repetitions see the same host.
  std::vector<double> pair_gap, pair_overhead;
  const auto start = Clock::now();
  for (std::size_t i = 0; i < runs.size() || seconds_since(start) < o.seconds;
       ++i) {
    TraceRun& t = runs[i % runs.size()];
    double traced_us = 0.0, parts_us = 0.0;
    if (o.trace) {
      TimedAllocator timed(*alloc);
      const Rep rep =
          run_rep(*topo, timed, t.trace, spec.config, &timed, nullptr);
      const SimMetrics& m = rep.metrics;
      account(t, m);
      traced_us = rep.wall / static_cast<double>(m.completed) * 1e6;
      parts_us = rep.step_wall / static_cast<double>(m.completed) * 1e6;
      calls_match =
          calls_match && timed.allocate_calls().calls == m.allocate_calls;
      traced_jobs += static_cast<double>(m.completed);
      step_wall += rep.step_wall;
      pass_wall += m.sched_wall_seconds;
      passes += m.sched_passes;
      core.add(timed);
    }
    std::vector<double> rep_steps;
    const Rep rep =
        run_rep(*topo, *alloc, t.trace, spec.config, nullptr, &rep_steps);
    account(t, rep.metrics);
    const double plain_us =
        rep.wall / static_cast<double>(rep.metrics.completed) * 1e6;
    t.plain_us.push_back(plain_us);
    t.plain_react.push_back(median(rep_steps));
    if (o.trace) {
      pair_gap.push_back((plain_us - parts_us) / plain_us * 100);
      pair_overhead.push_back((traced_us - plain_us) / plain_us * 100);
    }
    step_us.insert(step_us.end(), rep_steps.begin(), rep_steps.end());
  }

  r.check("completed", completed);
  r.check("deterministic", deterministic);
  if (spec.table != nullptr) {
    r.check("tables_served", served.two_level_table > 0);
  }
  if (o.trace) {
    r.check("decorator_calls", calls_match);
    r.check("deadline_never_fired", core.search.deadline_expired == 0);
  }
  r.note("react_samples", std::to_string(step_us.size()));
  std::string rep_us;  // in run order, for reading the spread within a run
  for (std::size_t i = 0; i < runs[0].plain_us.size(); ++i) {
    for (const TraceRun& t : runs) {
      if (i < t.plain_us.size()) rep_us += std::to_string(t.plain_us[i]) + " ";
    }
  }
  r.note("plain_us_per_rep", rep_us);

  // Per trace, the quiet estimate over its repetitions; across traces, the
  // mean.
  auto per_trace = [&](std::vector<double> TraceRun::*reps) {
    double sum = 0.0;
    for (const TraceRun& t : runs) sum += quiet_estimate(t.*reps);
    return sum / static_cast<double>(runs.size());
  };
  double util = 0.0, migrations = 0.0;
  std::vector<double> waits;
  for (const TraceRun& t : runs) {
    util += t.ref->steady_utilization;
    migrations += static_cast<double>(t.ref->migrations);
    for (const JobRecord& j : t.ref->job_records) waits.push_back(j.wait());
  }
  const double n_traces = static_cast<double>(runs.size());
  if (!o.trace) {
    r.metric("us_per_job", per_trace(&TraceRun::plain_us), "us");
    r.metric("react_p50_us", per_trace(&TraceRun::plain_react), "us");
    r.metric("util_pct", util / n_traces * 100.0, "%");
    r.metric("setup_s", median(setup), "s");
    r.metric("peak_rss_mb", peak_rss_mb(), "MB");
    return r;
  }

  const double J = traced_jobs;
  const double front =
      (step_wall - pass_wall - (core.seconds - core.pass_seconds)) / J * 1e6;
  const double sched = (pass_wall - core.pass_seconds) / J * 1e6;
  const double in_core = core.seconds / J * 1e6;
  r.metric("react_p99_us", percentile(step_us, 99), "us");
  r.metric("grant.wait_p50_s", percentile(waits, 50), "s");
  r.metric("grant.wait_p99_s", percentile(waits, 99), "s");
  r.metric("ledger.front_us_per_job", front, "us");
  r.metric("ledger.sched_us_per_job", sched, "us");
  r.metric("ledger.core_us_per_job", in_core, "us");
  r.metric("ledger_gap_pct", median(pair_gap), "%");
  r.metric("trace_overhead_pct", median(pair_overhead), "%");
  core.report(r, J);
  r.metric("sim.passes_per_job", static_cast<double>(passes) / J, "count");
  r.metric("sim.calls_per_pass",
           ratio(static_cast<double>(core.allocate.calls),
                 static_cast<double>(passes)),
           "count");
  r.metric("defrag.migrations_per_kjob",
           migrations / (n_traces * static_cast<double>(spec.jobs)) * 1000.0,
           "count");
  // No service layer on the simulator's path.
  for (const char* name : {"svc.reactor_busy_pct", "svc.idle_share_pct",
                           "svc.cap.reactor_busy_pct", "svc.fsync_share_pct",
                           "svc.gen_late_p99_pct"}) {
    r.metric(name, 0.0, "%");
  }
  r.metric("svc.wal_records_per_req", 0.0, "count");
  r.metric("svc.wal_bytes_per_req", 0.0, "B");
  return r;
}

}  // namespace jigsaw::benchmark
