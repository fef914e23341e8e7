// Job queue traces.
//
// A trace is the simulator's workload: jobs with arrival times, node
// counts, baseline runtimes, and (for the link-sharing scheme) a per-link
// bandwidth demand class. Generators for the paper's synthetic and
// LLNL-like traces live in synthetic.hpp / llnl_like.hpp; swf.hpp reads
// real traces in Standard Workload Format.

#pragma once

#include <string>
#include <vector>

#include "topology/ids.hpp"
#include "util/binio.hpp"
#include "util/rng.hpp"

namespace jigsaw {

struct Job {
  JobId id = kNoJob;
  double arrival = 0.0;  ///< seconds since trace start
  int nodes = 1;
  double runtime = 0.0;  ///< baseline (non-isolated) runtime, seconds
  /// Average per-link bandwidth demand in GB/s (§5.4.2); assigned by
  /// assign_bandwidth_classes, consumed only by LC+S.
  double bandwidth = 1.0;
};

/// Job's field list (util/binio.hpp), shared by the engine snapshot blob
/// and the WAL's submit records.
inline constexpr auto job_fields = [](auto& io, auto& j) {
  io.i64(j.id);
  io.f64(j.arrival);
  io.i64(j.nodes);
  io.f64(j.runtime);
  io.f64(j.bandwidth);
};

struct Trace {
  std::string name;
  int system_nodes = 0;  ///< size of the system the trace came from
  std::vector<Job> jobs; ///< sorted by arrival
};

struct TraceStats {
  std::size_t job_count = 0;
  int max_nodes = 0;
  double min_runtime = 0.0;
  double max_runtime = 0.0;
  bool has_arrivals = false;  ///< any nonzero arrival time
  double mean_nodes = 0.0;
  double total_node_seconds = 0.0;
};

TraceStats summarize(const Trace& trace);

/// Randomly assigns each job one of the four §5.4.2 demand classes
/// (0.5, 1.0, 1.5, 2.0 GB/s per link).
void assign_bandwidth_classes(Trace& trace, Rng& rng);

/// Sorts by arrival (stable) and renumbers ids 0..n-1 in that order.
void normalize(Trace& trace);

}  // namespace jigsaw
