// First-feasible candidate scan with an optional latency budget.
//
// Every condition-based allocator in this library is a loop over a
// canonical candidate order — (shape, tree) pairs, leaf-spread widths,
// three-level shapes — committing the first candidate whose feasibility
// probe succeeds. scan_first_feasible() is that loop, shared so that the
// step-budget ledger and the anytime deadline behave the same in every
// scheme.
//
// The scan is sequential on purpose: a mean allocate() call costs a few
// microseconds, too little work to fan out across threads (see
// DESIGN.md §12).

#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>

namespace jigsaw {

/// Latency budget for one allocate() call. Default-constructed it is
/// inactive and every scheme runs its exact exhaustive scan (the
/// bit-identical golden-pinned path). With deadline_ns > 0 the search
/// turns anytime: it watches the clock as it scans and commits the best
/// feasible placement found so far when the deadline expires.
struct AllocBudget {
  std::int64_t deadline_ns = 0;  ///< 0 = no deadline
};

/// One allocate() call's view of its AllocBudget: with a deadline, the
/// start timestamp is read once at construction and shared by every
/// pass, so the deadline bounds the whole call, not each pass. Without
/// one the clock is never read. Cheap to copy-construct; all queries are
/// const.
class AnytimeClock {
 public:
  explicit AnytimeClock(const AllocBudget& budget)
      : deadline_ns_(budget.deadline_ns),
        start_(deadline_ns_ > 0 ? std::chrono::steady_clock::now()
                                : std::chrono::steady_clock::time_point{}) {}

  bool active() const { return deadline_ns_ > 0; }

  /// Time since construction; meaningful only when active().
  std::int64_t elapsed_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start_)
        .count();
  }
  /// Remaining time under the deadline; negative once blown. 0 when no
  /// deadline is set.
  std::int64_t slack_ns() const {
    return active() ? deadline_ns_ - elapsed_ns() : 0;
  }
  bool expired() const { return active() && elapsed_ns() >= deadline_ns_; }

 private:
  std::int64_t deadline_ns_;
  std::chrono::steady_clock::time_point start_;
};

/// Mid-probe cooperative deadline check, piggybacked on the step-budget
/// ledger every find_* search already decrements: the clock is consulted
/// only when the low bits of the remaining budget hit zero (once per
/// 1024 steps), and the default path passes a null clock, so the check
/// costs one pointer test there.
inline constexpr std::uint64_t kAnytimeCheckMask = 0x3FF;

inline bool anytime_interrupt(const AnytimeClock* clock,
                              std::uint64_t budget) {
  return clock != nullptr && (budget & kAnytimeCheckMask) == 0 &&
         clock->expired();
}

/// Result of one candidate scan. Callers probe best fit first, so under
/// a deadline the winning position is the best-fitting feasible
/// candidate seen before expiry.
struct CandidateScan {
  std::ptrdiff_t winner = -1;  ///< winning scan position, -1 none
  bool exhausted = false;      ///< scan hit the step budget
  bool expired = false;        ///< the deadline cut the scan short
  std::uint64_t probes = 0;    ///< candidate probes charged to the scan
};

/// Scan positions [0, count) in order and stop at the first feasible
/// one. `probe(pos, budget, clock)` decrements `budget` per search step,
/// returns feasibility, and on success leaves the winning payload where
/// the caller can read it. `budget` is the phase's running step budget;
/// a probe that drains it to zero ends the scan as exhausted.
///
/// With a null or inactive clock this is the plain exhaustive loop and
/// every probe receives a null clock. With an active clock the scan
/// checks expiry between probes and hands each probe after the first the
/// clock, which it threads into its find_* call to cut long probes short.
/// Position 0 always receives null and runs to completion, so even a 1ns
/// deadline returns a verdict on the first candidate.
template <typename Probe>
CandidateScan scan_first_feasible(std::size_t count, std::uint64_t& budget,
                                  const AnytimeClock* clock, Probe&& probe) {
  CandidateScan result;
  if (clock != nullptr && !clock->active()) clock = nullptr;
  for (std::size_t i = 0; i < count; ++i) {
    const AnytimeClock* probe_clock = i > 0 ? clock : nullptr;
    if (probe_clock != nullptr && probe_clock->expired()) {
      result.expired = true;
      return result;
    }
    ++result.probes;
    if (probe(i, budget, probe_clock)) {
      result.winner = static_cast<std::ptrdiff_t>(i);
      return result;
    }
    if (budget == 0) {
      result.exhausted = true;
      return result;
    }
  }
  return result;
}

}  // namespace jigsaw
