// Failure model for degraded-topology scheduling.
//
// A FailureSchedule is a time-ordered script of fail/repair events over
// the cluster's physical resources. Targets range from a single node or
// wire up to whole switches; the injector (fault/injector.hpp) expands a
// target into the primitive resources ClusterState tracks (nodes,
// leaf->L2 wires, L2->spine wires).
//
// Schedules come from two sources:
//   - a text script (one event per line, parse()/parse_file()), for
//     deterministic reproduction of a specific outage, and
//   - a seeded random process (make_random_schedule()), modelling
//     Poisson failure arrivals with exponential repair times — the knob
//     the resilience bench sweeps (MTBF).
//
// Text format (whitespace-separated, '#' starts a comment):
//   <time> fail|repair node <node-id>
//   <time> fail|repair leafwire <leaf-id> <l2-index>
//   <time> fail|repair l2wire <tree> <l2-index> <spine-index>
//   <time> fail|repair leafswitch <leaf-id>
//   <time> fail|repair l2switch <tree> <l2-index>
//   <time> fail|repair spine <group> <index-in-group>

#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "topology/fat_tree.hpp"
#include "topology/ids.hpp"
#include "util/binio.hpp"

namespace jigsaw::fault {

enum class ResourceKind {
  kNode,        ///< one compute node
  kLeafWire,    ///< one leaf->L2 uplink wire
  kL2Wire,      ///< one L2->spine uplink wire
  kLeafSwitch,  ///< a leaf switch: its nodes and all its uplinks
  kL2Switch,    ///< an L2 switch: its leaf downlinks and spine uplinks
  kSpine,       ///< a spine switch: its downlink wire in every tree
};

/// What a fault event hits. Field meaning depends on kind:
///   kNode:       a = node id
///   kLeafWire:   a = leaf id, b = L2 index
///   kL2Wire:     a = tree, b = L2 index, c = spine index
///   kLeafSwitch: a = leaf id
///   kL2Switch:   a = tree, b = L2 index
///   kSpine:      a = spine group (== L2 index), b = index within group
struct FaultTarget {
  ResourceKind kind = ResourceKind::kNode;
  std::int32_t a = 0;
  std::int32_t b = 0;
  std::int32_t c = 0;

  friend bool operator==(const FaultTarget&, const FaultTarget&) = default;
};

/// Human-readable target name, e.g. "node 17" or "l2wire 0/3/1".
std::string describe(const FaultTarget& target);

/// Validates ids against the topology; returns an error string, empty ok.
std::string validate(const FatTree& topo, const FaultTarget& target);

struct FaultEvent {
  double time = 0.0;
  bool failure = true;  ///< false = repair
  FaultTarget target;
};

/// FaultEvent's field list (util/binio.hpp), shared by the engine
/// snapshot blob's pending faults and the WAL's fault records.
inline constexpr auto event_fields = [](auto& io, auto& fe) {
  io.f64(fe.time);
  io.flag(fe.failure);
  io.enum8(fe.target.kind, ResourceKind::kSpine);
  io.u32(fe.target.a);
  io.u32(fe.target.b);
  io.u32(fe.target.c);
};

struct FailureSchedule {
  std::vector<FaultEvent> events;  ///< sorted by time (stable for ties)

  bool empty() const { return events.empty(); }
  std::size_t size() const { return events.size(); }

  void add(double time, bool failure, const FaultTarget& target) {
    events.push_back(FaultEvent{time, failure, target});
  }
  /// Stable sort by time; call after hand-building a schedule.
  void sort_by_time();
};

/// Parse one target from a word stream ("node 5", "l2wire 0 1 2", ...).
/// Returns false (with *error set) on malformed input. Shared by the
/// schedule parser and cluster_shell's fail/repair commands.
bool parse_target(std::istream& words, FaultTarget* out, std::string* error);

/// Parse a schedule script. Throws std::invalid_argument with a line
/// number on malformed input; validates every target against `topo`.
FailureSchedule parse_schedule(std::istream& in, const FatTree& topo);
FailureSchedule parse_schedule_file(const std::string& path,
                                    const FatTree& topo);

/// Parameters for the seeded random failure process.
struct RandomFaultConfig {
  double horizon = 0.0;    ///< generate failures in [0, horizon)
  double node_mtbf = 0.0;  ///< mean time between node failures, cluster-wide
                           ///< (<= 0 disables node failures)
  double wire_mtbf = 0.0;  ///< mean time between wire failures, cluster-wide
                           ///< (<= 0 disables wire failures)
  double mttr = 3600.0;    ///< mean time to repair (exponential)
  std::uint64_t seed = 1;
};

/// Poisson failure arrivals (independent node and wire streams), uniform
/// victim choice, exponential repair delay per failure. Each failure event
/// is paired with a repair of the same target; repairs may land beyond the
/// horizon so long outages persist to the end of a run. Deterministic in
/// the seed.
FailureSchedule make_random_schedule(const FatTree& topo,
                                     const RandomFaultConfig& config);

}  // namespace jigsaw::fault
