// Metrics registry: named counters, gauges, and histograms with a JSON
// snapshot exporter.
//
// Instrumentation sites look a handle up once (by name) and then update
// it without further map lookups, so the per-event cost is an increment.
// The registry owns every metric; handles stay valid for the registry's
// lifetime (std::map nodes never move).
//
// Histograms are the lock-free log2 HdrHistogram (obs/hdr_histogram.hpp):
// power-of-two exponential buckets covering 2^-32 .. 2^32 plus an
// underflow bucket, with exact count / sum / min / max alongside, so
// means are exact and percentiles are bucket-resolution estimates.
// Because increments are relaxed atomics, a handle can be shared across
// threads without a lock. The registry itself (find-or-create, snapshot)
// is not thread-safe: resolve handles up front, mutate them from
// anywhere.

#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>

#include "obs/hdr_histogram.hpp"

namespace jigsaw::obs {

class Counter {
 public:
  void add(std::uint64_t n = 1) { value_ += n; }
  std::uint64_t value() const { return value_; }

 private:
  std::uint64_t value_ = 0;
};

class Gauge {
 public:
  void set(double v) { value_ = v; }
  double value() const { return value_; }

 private:
  double value_ = 0.0;
};

using Histogram = HdrHistogram;

class MetricsRegistry {
 public:
  /// Find-or-create by name. References stay valid for the registry's
  /// lifetime. A name may hold only one metric kind; reusing it across
  /// kinds throws std::logic_error.
  Counter& counter(const std::string& name);
  Gauge& gauge(const std::string& name);
  Histogram& histogram(const std::string& name);

  const Counter* find_counter(const std::string& name) const;
  const Gauge* find_gauge(const std::string& name) const;
  const Histogram* find_histogram(const std::string& name) const;

  /// Read-only iteration, for exporters (JSON snapshot, Prometheus).
  const std::map<std::string, Counter>& counters() const { return counters_; }
  const std::map<std::string, Gauge>& gauges() const { return gauges_; }
  const std::map<std::string, Histogram>& histograms() const {
    return histograms_;
  }

  /// Pretty-printed JSON snapshot:
  ///   {"counters": {...}, "gauges": {...}, "histograms": {name:
  ///    {count,sum,min,max,mean,p50,p90,p99,buckets:[{lo,hi,count}...]}}}
  void write_json(std::ostream& out) const;

 private:
  void check_unique(const std::string& name, int kind) const;

  std::map<std::string, Counter> counters_;
  std::map<std::string, Gauge> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace jigsaw::obs
