// The resource set a scheduler hands to a job.
//
// An allocation names the nodes a job runs on plus the network links
// reserved for it. Job-isolating schedulers (Jigsaw, LaaS, TA-as-modeled)
// reserve whole wires; the link-sharing scheduler LC+S instead reserves a
// bandwidth share on each wire (bandwidth > 0).

#pragma once

#include <vector>

#include "topology/ids.hpp"
#include "util/binio.hpp"

namespace jigsaw {

struct Allocation {
  JobId job = kNoJob;

  /// Nodes the job requested (N_r). size(nodes) may exceed this under
  /// LaaS-style rounding; the surplus is internal fragmentation.
  int requested_nodes = 0;

  std::vector<NodeId> nodes;
  std::vector<LeafWire> leaf_wires;
  std::vector<L2Wire> l2_wires;

  /// Per-wire bandwidth share in GB/s; 0 means exclusive wire ownership.
  double bandwidth = 0.0;

  int allocated_nodes() const { return static_cast<int>(nodes.size()); }
  int wasted_nodes() const { return allocated_nodes() - requested_nodes; }
  bool empty() const { return nodes.empty(); }

  void clear() {
    nodes.clear();
    leaf_wires.clear();
    l2_wires.clear();
  }
};

/// Allocation's field list (util/binio.hpp): the engine snapshot blob
/// stores allocations with it, and the WAL's grant digest is a crc32
/// over its bytes. Changing it changes both formats.
inline constexpr auto allocation_fields = [](auto& io, auto& a) {
  io.i64(a.job);
  io.i64(a.requested_nodes);
  io.seq(a.nodes, u32_each);
  io.seq(a.leaf_wires, [](auto& wio, auto& w) {
    wio.u32(w.leaf);
    wio.u32(w.l2_index);
  });
  io.seq(a.l2_wires, [](auto& wio, auto& w) {
    wio.u32(w.tree);
    wio.u32(w.l2_index);
    wio.u32(w.spine_index);
  });
  io.f64(a.bandwidth);
};

}  // namespace jigsaw
