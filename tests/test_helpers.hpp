// Shared helpers for the test suite.

#pragma once

#include <optional>
#include <stdexcept>
#include <vector>

#include "core/allocator.hpp"
#include "trace/trace.hpp"

namespace jigsaw::testing {

/// Allocate-and-apply; throws when the allocator finds no placement.
inline Allocation must_allocate(const Allocator& allocator,
                                ClusterState& state, JobId job, int nodes,
                                double bandwidth = 0.0) {
  const auto alloc =
      allocator.allocate(state, JobRequest{job, nodes, bandwidth});
  if (!alloc.has_value()) {
    throw std::runtime_error("expected an allocation for job " +
                             std::to_string(job));
  }
  state.apply(*alloc);
  return *alloc;
}

/// The defrag stall trace on FatTree(4, 4, 4): two leaf-sharing pairs of
/// 2-node jobs in tree 0 (ids 1..4), three 16-node jobs holding trees
/// 1-3 (ids 5..7), all at t=0; the 2-node leaf-mates 1 and 3 run 100 s,
/// everything else 10000 s. The 12-node head 8 arrives at t=10 and stays
/// blocked on leaf spread after t=100 until one migration consolidates
/// tree 0 (see tests/test_defrag.cpp).
inline std::vector<Job> defrag_stall_trace() {
  std::vector<Job> jobs;
  const auto add = [&](JobId id, double arrival, int nodes, double runtime) {
    Job j;
    j.id = id;
    j.arrival = arrival;
    j.nodes = nodes;
    j.runtime = runtime;
    j.bandwidth = 0.0;
    jobs.push_back(j);
  };
  add(1, 0.0, 2, 100.0);      // C: packs a leaf with A, exits early
  add(2, 0.0, 2, 10000.0);    // A: the migration victim
  add(3, 0.0, 2, 100.0);      // D: packs a leaf with B, exits early
  add(4, 0.0, 2, 10000.0);    // B
  add(5, 0.0, 16, 10000.0);   // E/F/G: hold trees 1-3
  add(6, 0.0, 16, 10000.0);
  add(7, 0.0, 16, 10000.0);
  add(8, 10.0, 12, 50.0);     // H: the stalled head
  return jobs;
}

}  // namespace jigsaw::testing
