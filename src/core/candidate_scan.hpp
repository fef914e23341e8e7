// First-feasible candidate scan.
//
// Every condition-based allocator in this library is a loop over a
// canonical candidate order — (shape, tree) pairs, leaf-spread widths,
// three-level shapes — committing the first candidate whose feasibility
// probe succeeds. scan_first_feasible() is that loop, shared so that the
// step-budget ledger behaves the same in every scheme.
//
// The scan is sequential on purpose: a mean allocate() call costs a few
// microseconds, too little work to fan out across threads (see
// DESIGN.md §12).

#pragma once

#include <cstddef>
#include <cstdint>

namespace jigsaw {

/// Result of one candidate scan.
struct CandidateScan {
  std::ptrdiff_t winner = -1;  ///< winning scan position, -1 none
  bool exhausted = false;      ///< scan hit the step budget
  std::uint64_t probes = 0;    ///< candidate probes charged to the scan
};

/// Scan positions [0, count) in order and stop at the first feasible
/// one. `probe(pos, budget)` decrements `budget` per search step,
/// returns feasibility, and on success leaves the winning payload where
/// the caller can read it. `budget` is the phase's running step budget;
/// a probe that drains it to zero ends the scan as exhausted.
template <typename Probe>
CandidateScan scan_first_feasible(std::size_t count, std::uint64_t& budget,
                                  Probe&& probe) {
  CandidateScan result;
  for (std::size_t i = 0; i < count; ++i) {
    ++result.probes;
    if (probe(i, budget)) {
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
