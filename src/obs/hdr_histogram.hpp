// Lock-free fixed-bucket log2 histogram (HDR-style).
//
// Power-of-two exponential buckets cover 2^-32 .. 2^32 — sub-nanosecond
// timings through billions of search steps — plus an underflow bucket for
// zero/negative values. Exact count / sum / min / max ride alongside the
// buckets, so means are exact and percentiles are bucket-resolution
// estimates (geometric bucket midpoint, clamped to the observed range:
// the estimate is always within a factor of sqrt(2) of a true sample in
// the same bucket).
//
// record() is a handful of relaxed atomic updates, so concurrent writers
// need no lock and never contend beyond the cache line. Readers see an
// approximate snapshot: count/sum/buckets may be mutually off by
// in-flight updates, which is the usual HDR trade — totals are exact
// once writers quiesce. merge() folds another histogram in, enabling
// per-thread recording with a single post-join aggregate.

#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <limits>

namespace jigsaw::obs {

/// The bucket layout, shared by every log2 histogram in the repo so the
/// math is defined (and unit-tested) exactly once. Bucket 0 catches
/// v <= 0; bucket 1+k covers [2^(k-kExpOffset), 2^(k-kExpOffset+1)).
struct Log2Buckets {
  static constexpr int kBuckets = 66;
  static constexpr int kExpOffset = 32;  // bucket 1 covers [2^-32, 2^-31)

  static int bucket_of(double value) {
    if (!(value > 0.0)) return 0;
    // +inf must not reach the int cast below (UB); it belongs in the
    // top bucket with every other value >= 2^32.
    if (std::isinf(value)) return kBuckets - 1;
    const int e = static_cast<int>(std::floor(std::log2(value)));
    return std::clamp(e + kExpOffset + 1, 1, kBuckets - 1);
  }
  /// Inclusive-lower bound of a bucket; bucket 0 has lower bound 0.
  static double lo(int bucket) {
    if (bucket <= 0) return 0.0;
    return std::ldexp(1.0, bucket - 1 - kExpOffset);
  }
  /// Exclusive-upper bound of a bucket.
  static double hi(int bucket) {
    if (bucket <= 0) return std::ldexp(1.0, -kExpOffset);
    return std::ldexp(1.0, bucket - kExpOffset);
  }
};

class HdrHistogram {
 public:
  static constexpr int kBuckets = Log2Buckets::kBuckets;

  HdrHistogram() = default;
  HdrHistogram(const HdrHistogram& other) { merge(other); }
  HdrHistogram& operator=(const HdrHistogram& other) {
    if (this != &other) {
      reset();
      merge(other);
    }
    return *this;
  }

  /// Record one sample. Lock-free; safe from any thread.
  void add(double value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    update_min(value);
    update_max(value);
    buckets_[Log2Buckets::bucket_of(value)].fetch_add(
        1, std::memory_order_relaxed);
  }

  /// Fold another histogram's samples into this one. Safe against
  /// concurrent add() on either side (the merge is then approximate in
  /// the same way any concurrent read is).
  void merge(const HdrHistogram& other) {
    const std::uint64_t n = other.count_.load(std::memory_order_relaxed);
    if (n == 0) return;
    count_.fetch_add(n, std::memory_order_relaxed);
    sum_.fetch_add(other.sum_.load(std::memory_order_relaxed),
                   std::memory_order_relaxed);
    update_min(other.min_.load(std::memory_order_relaxed));
    update_max(other.max_.load(std::memory_order_relaxed));
    for (int b = 0; b < kBuckets; ++b) {
      const std::uint64_t c = other.buckets_[b].load(std::memory_order_relaxed);
      if (c != 0) buckets_[b].fetch_add(c, std::memory_order_relaxed);
    }
  }

  void reset() {
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0.0, std::memory_order_relaxed);
    min_.store(std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    max_.store(-std::numeric_limits<double>::infinity(),
               std::memory_order_relaxed);
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    return count_.load(std::memory_order_relaxed);
  }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double min() const {
    return count() == 0 ? 0.0 : min_.load(std::memory_order_relaxed);
  }
  double max() const {
    return count() == 0 ? 0.0 : max_.load(std::memory_order_relaxed);
  }
  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : sum() / static_cast<double>(n);
  }
  std::uint64_t bucket_count(int bucket) const {
    return buckets_[bucket].load(std::memory_order_relaxed);
  }
  static double bucket_lo(int bucket) { return Log2Buckets::lo(bucket); }
  static double bucket_hi(int bucket) { return Log2Buckets::hi(bucket); }

  /// Bucket-resolution percentile estimate (geometric bucket midpoint),
  /// clamped to the observed [min, max]; p in [0, 100]. The extremes are
  /// exact: p0 returns the tracked min, p100 the tracked max.
  double percentile(double p) const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    const double mn = min_.load(std::memory_order_relaxed);
    const double mx = max_.load(std::memory_order_relaxed);
    if (p <= 0.0) return mn;
    if (p >= 100.0) return mx;
    const double rank = p / 100.0 * static_cast<double>(n);
    std::uint64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      seen += buckets_[b].load(std::memory_order_relaxed);
      if (static_cast<double>(seen) >= rank) {
        const double mid =
            b == 0 ? mn
                   : std::sqrt(Log2Buckets::lo(b) * Log2Buckets::hi(b));
        return std::clamp(mid, mn, mx);
      }
    }
    return mx;
  }

 private:
  void update_min(double v) {
    double cur = min_.load(std::memory_order_relaxed);
    while (v < cur &&
           !min_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }
  void update_max(double v) {
    double cur = max_.load(std::memory_order_relaxed);
    while (v > cur &&
           !max_.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  std::atomic<std::uint64_t> buckets_[kBuckets] = {};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

}  // namespace jigsaw::obs
