// Shared plumbing for the benchmark binary: options, the result record it
// prints, and small timing/statistics helpers.

#pragma once

#include <sys/resource.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "util/stats.hpp"

namespace jigsaw::benchmark {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

inline double median(std::vector<double> values) {
  return values.empty() ? 0.0 : SortedSamples(std::move(values)).percentile(50);
}

inline double percentile(const std::vector<double>& values, double p) {
  return values.empty() ? 0.0 : SortedSamples(values).percentile(p);
}

inline double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// A run's estimate of a timing measured over several windows (simulator
/// repetitions, service phase slices): their lower quartile. Noise on a
/// shared host only ever slows a window, in bursts that can cover several
/// in a row; the quieter quarter tracks the host's undisturbed speed and
/// ignores bursts that cover up to three quarters of the run.
inline double quiet_estimate(const std::vector<double>& windows) {
  return percentile(windows, 25);
}

/// Safe ratio: 0 when the base is 0 (a layer absent from the workload).
inline double ratio(double num, double den) {
  return den != 0.0 ? num / den : 0.0;
}

/// Peak resident set of this process, MB (ru_maxrss is in KiB on Linux).
inline double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string tables_dir;  ///< directory holding k16.jst / k48.jst
  std::string run_dir;     ///< working directory for sockets and WALs
};

/// What one workload run reports: correctness checks, counts, and the
/// metrics of the requested kind (end-to-end for a plain run, per-layer
/// for a traced one).
struct Result {
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };

  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<Metric> metrics;
  std::vector<std::pair<std::string, std::string>> info;

  void check(const std::string& name, bool ok) {
    checks.emplace_back(name, ok);
  }
  void metric(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void note(const std::string& key, const std::string& value) {
    info.emplace_back(key, value);
  }

  /// One JSON object; doubles are printed with all 17 significant digits,
  /// and a value that is not finite (a run gone wrong) as null.
  std::string json() const {
    auto num = [](double v) {
      if (!std::isfinite(v)) return std::string("null");
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.17g", v);
      return std::string(buf);
    };
    std::string out = "{\"attempted\": " + std::to_string(attempted) +
                      ", \"failed\": " + std::to_string(failed) +
                      ", \"checks\": {";
    for (std::size_t i = 0; i < checks.size(); ++i) {
      out += (i ? ", \"" : "\"") + checks[i].first +
             "\": " + (checks[i].second ? "true" : "false");
    }
    out += "}, \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      out += (i ? ", \"" : "\"") + metrics[i].name + "\": {\"value\": " +
             num(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit + "\"}";
    }
    out += "}, \"info\": {";
    for (std::size_t i = 0; i < info.size(); ++i) {
      out += (i ? ", \"" : "\"") + info[i].first + "\": \"" + info[i].second +
             "\"";
    }
    out += "}}";
    return out;
  }
};

Result run_sim(const Options& options);
Result run_svc(const Options& options);

}  // namespace jigsaw::benchmark
