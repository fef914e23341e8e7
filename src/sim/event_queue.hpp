// Discrete-event queue for the scheduling simulator.
//
// A strict-weak-ordered min-heap of timestamped events with deterministic
// FIFO tie-breaking (insertion sequence), so simulations replay
// identically across runs and platforms.
//
// The heap lives in an explicit vector (std::push_heap/pop_heap rather
// than std::priority_queue) so the service snapshot subsystem can read
// the pending events out and restore them later. The comparator is a
// total order — (time, type rank, seq) with unique seqs — so the pop
// sequence is exactly the sorted order and is independent of the heap's
// internal array layout; a restored queue replays identically even if
// its heap was rebuilt from scratch.

#pragma once

#include <cstdint>
#include <vector>

#include "topology/ids.hpp"

namespace jigsaw {

/// New types append at the end: the type is serialized as its u8 value in
/// engine snapshots, so existing values are wire-frozen, and the blob's
/// event list (sim/engine_snapshot.cpp) names the last value it accepts.
enum class EventType {
  kArrival,
  kCompletion,
  kFailure,
  kRepair,
  /// Defrag migration window opens: the engine executes a pending plan
  /// (pause + relocate the victims). `job` is the head job the plan
  /// unblocks; aux unused.
  kMigrationStart,
  /// Migration window closes (pure bookkeeping: in-flight gauge + trace).
  kMigrationDone,
};

struct Event {
  double time = 0.0;
  EventType type = EventType::kArrival;
  JobId job = kNoJob;
  /// Event-type payload: the failure-schedule index for kFailure/kRepair,
  /// the job's run generation for kCompletion (a requeued job abandons
  /// completion events of earlier generations). Unused for kArrival.
  std::int64_t aux = 0;
  std::uint64_t seq = 0;  ///< insertion order; breaks time ties
};

class EventQueue {
 public:
  void push(double time, EventType type, JobId job, std::int64_t aux = 0);
  bool empty() const { return heap_.empty(); }
  std::size_t size() const { return heap_.size(); }
  const Event& top() const { return heap_.front(); }
  Event pop();

  // -- snapshot access (service/snapshot) ---------------------------------
  /// Pending events in heap-array order (NOT pop order; serialize all of
  /// them and restore() rebuilds the heap).
  const std::vector<Event>& events() const { return heap_; }
  std::uint64_t next_seq() const { return next_seq_; }
  /// Replace the queue's contents wholesale. `events` may be in any
  /// order; the seq fields must be < `next_seq`.
  void restore(std::vector<Event> events, std::uint64_t next_seq);

 private:
  /// Same-instant ordering: completions free resources first, then the
  /// cluster degrades/recovers, then migration windows move jobs on the
  /// settled cluster, and arrivals see the final state.
  static int rank(EventType type) {
    switch (type) {
      case EventType::kCompletion: return 0;
      case EventType::kFailure: return 1;
      case EventType::kRepair: return 2;
      case EventType::kMigrationStart: return 3;
      case EventType::kMigrationDone: return 4;
      case EventType::kArrival: return 5;
    }
    return 6;
  }

  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.time != b.time) return a.time > b.time;
      if (a.type != b.type) return rank(a.type) > rank(b.type);
      return a.seq > b.seq;
    }
  };
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
};

}  // namespace jigsaw
