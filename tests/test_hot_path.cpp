// The scheduling hot path's bookkeeping: allocate() allocates nothing of
// its own once warm, the per-thread search scratch keeps concurrent
// simulations apart, and a pass that starts jobs drops them from the
// wait queue in place without reordering the rest.
//
// This file replaces the global operator new and delete for the whole
// test binary with malloc and free, and new counts, on the calling
// thread only, while a counting window is open.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <new>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/jigsaw_allocator.hpp"
#include "core/laas.hpp"
#include "core/shape_table.hpp"
#include "sim/engine.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace {
thread_local bool t_counting = false;
thread_local std::size_t t_allocations = 0;

void* counted_malloc(std::size_t size) noexcept {
  if (t_counting) ++t_allocations;
  return std::malloc(size == 0 ? 1 : size);
}
}  // namespace

// Every unaligned form is replaced, so that each allocation pairs with a
// deallocation of the same kind (AddressSanitizer checks that); the
// aligned forms keep their library definitions on both sides.
void* operator new(std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) {
  if (void* p = counted_malloc(size)) return p;
  throw std::bad_alloc();
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return counted_malloc(size);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace jigsaw {
namespace {

/// Heap allocations `fn` makes on this thread.
template <typename Fn>
std::size_t allocations_in(Fn&& fn) {
  t_allocations = 0;
  t_counting = true;
  fn();
  t_counting = false;
  return t_allocations;
}

/// Installs the shape table of `topo` for the test's lifetime, so shape
/// sequences are served from the mapping rather than enumerated into a
/// fresh vector on every call.
class InstalledTable {
 public:
  explicit InstalledTable(const FatTree& topo)
      : path_(::testing::TempDir() + "/hot_path_" +
              std::to_string(topo.radix()) + "_" +
              std::to_string(::getpid()) + ".jst") {
    const std::string bytes = ShapeTable::serialize(topo);
    std::ofstream(path_, std::ios::binary)
        .write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    std::string error;
    auto table = ShapeTable::load(path_, &error);
    if (table == nullptr) throw std::runtime_error(error);
    install_shape_table(std::move(table));
  }
  ~InstalledTable() {
    clear_shape_tables();
    std::remove(path_.c_str());
  }

 private:
  std::string path_;
};

/// A machine after random churn of Jigsaw placements and releases.
ClusterState churned_state(const FatTree& t, Rng& rng) {
  ClusterState s(t);
  const JigsawAllocator jigsaw;
  std::vector<Allocation> live;
  for (JobId job = 0; job < 2 * t.total_leaves(); ++job) {
    if (!live.empty() && rng.below(3) == 0) {
      const auto k = static_cast<std::size_t>(rng.below(live.size()));
      s.release(live[k]);
      live.erase(live.begin() + static_cast<std::ptrdiff_t>(k));
      continue;
    }
    const int size = 1 + static_cast<int>(rng.below(
                             static_cast<std::uint64_t>(t.total_nodes() / 8)));
    if (auto a = jigsaw.allocate(s, JobRequest{job, size, 0.0})) {
      s.apply(*a);
      live.push_back(std::move(*a));
    }
  }
  return s;
}

/// What a warm allocate() call did and how many heap allocations it made.
struct WarmCall {
  bool placed = false;
  bool three_level = false;
  std::uint64_t steps = 0;
  std::size_t allocations = 0;
  std::size_t result_vectors = 0;  ///< non-empty vectors of the result
};

/// One warm-up call, then the counted call on the same state and
/// request.
WarmCall warm_call(const Allocator& allocator, const ClusterState& state,
                   const JobRequest& request) {
  (void)allocator.allocate(state, request);
  SearchStats stats;
  std::optional<Allocation> a;
  WarmCall call;
  call.allocations =
      allocations_in([&] { a = allocator.allocate(state, request, &stats); });
  call.steps = stats.steps;
  if (a.has_value()) {
    call.placed = true;
    call.three_level = !a->l2_wires.empty();
    call.result_vectors = (a->nodes.empty() ? 0u : 1u) +
                          (a->leaf_wires.empty() ? 0u : 1u) +
                          (a->l2_wires.empty() ? 0u : 1u);
  }
  return call;
}

/// Warm calls for every `stride`-th size up to the free node count, on
/// churned states of the radix-`radix` tree: a failed call allocates
/// nothing, and a placement allocates only its
/// Allocation's vectors, each once at its exact size (at most 3). With
/// `two_level_only`, only two-level placements are held to that. The
/// sample must cover two-level placements and, unless `two_level_only`,
/// three-level placements and failures that searched.
void expect_allocation_free(const Allocator& allocator, int radix,
                            int stride, bool two_level_only) {
  const FatTree topo = FatTree::from_radix(radix);
  const InstalledTable table(topo);
  Rng rng(static_cast<std::uint64_t>(radix) * 131 + 7);
  int two_level = 0;
  int three_level = 0;
  int searched_failures = 0;
  for (int trial = 0; trial < 3; ++trial) {
    const ClusterState state = churned_state(topo, rng);
    for (int n = 1; n <= state.total_free_nodes(); n += stride) {
      SCOPED_TRACE(::testing::Message()
                   << allocator.name() << " k=" << radix << " trial "
                   << trial << " nodes " << n);
      const WarmCall call =
          warm_call(allocator, state, JobRequest{1000000, n, 0.0});
      if (call.placed && !call.three_level) ++two_level;
      if (call.placed && call.three_level) ++three_level;
      if (!call.placed && call.steps > 0) ++searched_failures;
      if (two_level_only && (!call.placed || call.three_level)) continue;
      EXPECT_EQ(call.allocations, call.result_vectors);
      EXPECT_LE(call.allocations, 3u);
    }
  }
  EXPECT_GT(two_level, 0);
  if (!two_level_only) {
    EXPECT_GT(three_level, 0);
    EXPECT_GT(searched_failures, 0);
  }
}

TEST(AllocFree, JigsawAtK16) {
  const JigsawAllocator jigsaw;
  expect_allocation_free(jigsaw, 16, 1, false);
}

TEST(AllocFree, JigsawAtK48) {
  const JigsawAllocator jigsaw;
  expect_allocation_free(jigsaw, 48, 3, false);
}

// LaaS shares the two-level scan and materialize(); its whole-leaf width
// scan for jobs spanning subtrees keeps its own vectors.
TEST(AllocFree, LaasTwoLevelAtK16) {
  const LaasAllocator laas;
  expect_allocation_free(laas, 16, 1, true);
}

/// The grant order of a run and its final metrics.
struct RunRecord {
  std::vector<JobId> grants;
  SimMetrics metrics;
};

RunRecord run_slice(const Allocator& allocator, const Trace& trace) {
  const FatTree topo = FatTree::from_radix(16);
  SimEngine engine(topo, allocator, SimConfig{});
  RunRecord record;
  engine.set_grant_hook(
      [&](double, const Allocation& a) { record.grants.push_back(a.job); });
  for (const Job& j : trace.jobs) engine.submit(j);
  engine.run();
  record.metrics = engine.finish();
  return record;
}

void expect_same_run(const RunRecord& a, const RunRecord& b) {
  EXPECT_EQ(a.grants, b.grants);
  EXPECT_EQ(a.metrics.steady_utilization, b.metrics.steady_utilization);
  EXPECT_EQ(a.metrics.makespan, b.metrics.makespan);
  EXPECT_EQ(a.metrics.search_steps, b.metrics.search_steps);
  EXPECT_EQ(a.metrics.allocate_calls, b.metrics.allocate_calls);
}

// Two simulations at once, one allocator per thread as the bench cells
// run them: each must reproduce its run on one thread, so neither sees
// the other's search scratch. Run under ThreadSanitizer in CI.
TEST(ScratchThreads, TwoSimulationsAtOnceMatchTheirSerialRuns) {
  const Trace first = named_synthetic("Synth-16", 300);
  Trace second = named_synthetic("Synth-16", 600);
  second.jobs.erase(second.jobs.begin(), second.jobs.begin() + 300);
  const JigsawAllocator jigsaw;
  const LaasAllocator laas;
  const RunRecord jigsaw_serial = run_slice(jigsaw, first);
  const RunRecord laas_serial = run_slice(laas, second);

  RunRecord jigsaw_threaded;
  RunRecord laas_threaded;
  std::thread a([&] { jigsaw_threaded = run_slice(jigsaw, first); });
  std::thread b([&] { laas_threaded = run_slice(laas, second); });
  a.join();
  b.join();
  expect_same_run(jigsaw_threaded, jigsaw_serial);
  expect_same_run(laas_threaded, laas_serial);
  EXPECT_EQ(jigsaw_threaded.grants.size(), first.jobs.size());
  EXPECT_EQ(laas_threaded.grants.size(), second.jobs.size());
}

// One pass on 16 nodes starts the head (job 0) and the backfill
// candidates 3 and 5, which sit apart in the queue. The whole-machine
// jobs 1, 2, 4 and 6 then start one at a time, so the order they start
// in is the order the pass left them queued in.
TEST(EngineQueue, PassStartingHeadAndTwoBackfillsKeepsTheRestInOrder) {
  const FatTree topo = FatTree::from_radix(4);
  ASSERT_EQ(topo.total_nodes(), 16);
  const JigsawAllocator jigsaw;
  SimEngine engine(topo, jigsaw, SimConfig{});
  std::vector<std::pair<double, JobId>> grants;
  engine.set_grant_hook([&](double now, const Allocation& a) {
    grants.emplace_back(now, a.job);
  });
  const std::pair<int, double> jobs[] = {
      {4, 100.0},  // 0: head, starts
      {16, 10.0},  // 1: blocked head, reserved for t=100
      {16, 10.0},  // 2: no room
      {2, 50.0},   // 3: backfills, ends before the reservation
      {16, 10.0},  // 4: no room
      {2, 50.0},   // 5: backfills
      {16, 10.0},  // 6: no room
  };
  for (JobId id = 0; id < 7; ++id) {
    Job j;
    j.id = id;
    j.nodes = jobs[id].first;
    j.runtime = jobs[id].second;
    engine.submit(j);
  }
  engine.step();
  EXPECT_EQ(engine.queue_depth(), 4u);
  // Bounded, so that a queue that lost track of a started job fails here
  // instead of granting it again forever.
  for (int step = 0; step < 100 && !engine.idle(); ++step) engine.step();
  ASSERT_TRUE(engine.idle());
  const std::vector<std::pair<double, JobId>> expected = {
      {0.0, 0},   {0.0, 3},   {0.0, 5},   {100.0, 1},
      {110.0, 2}, {120.0, 4}, {130.0, 6},
  };
  EXPECT_EQ(grants, expected);
}

}  // namespace
}  // namespace jigsaw
