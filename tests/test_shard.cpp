// Sharded front-end: the static ownership map, cluster routing (unknown
// ids rejected, disjoint ownership), broadcast aggregation, golden
// equivalence of a sharded service against standalone per-cluster
// daemons, the threaded loopback path, and client timeouts against a
// peer that never replies.

#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <future>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/jigsaw_allocator.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service/reactor.hpp"
#include "service/shard.hpp"
#include "service/wal.hpp"
#include "util/rng.hpp"

namespace jigsaw::service {
namespace {

bool is_ok(const std::string& reply) {
  return reply.rfind("{\"ok\":true", 0) == 0;
}

bool has_error(const std::string& reply, const char* code) {
  return reply.find("\"ok\":false") != std::string::npos &&
         reply.find(std::string("\"error\":\"") + code + "\"") !=
             std::string::npos;
}

std::string scrub_wall_fields(std::string text) {
  for (const char* key :
       {"\"sched_wall_seconds\":", "\"mean_sched_time_per_job\":"}) {
    const std::size_t at = text.find(key);
    if (at == std::string::npos) continue;
    std::size_t end = text.find(',', at);
    if (end == std::string::npos) end = text.find('}', at);
    text.erase(at, end - at + 1);
  }
  return text;
}

std::string metrics_text(const std::string& drain_reply) {
  const std::size_t key = drain_reply.find("\"metrics\":");
  if (key == std::string::npos) return {};
  const std::size_t open = drain_reply.find('{', key);
  const std::size_t close = drain_reply.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return {};
  return drain_reply.substr(open, close - open + 1);
}

/// The per-cluster metrics objects of a sharded drain reply, in cluster
/// order. metrics_json objects are flat, so a naive brace scan works.
std::vector<std::string> metrics_array(const std::string& drain_reply) {
  std::vector<std::string> parts;
  const std::size_t key = drain_reply.find("\"metrics\":[");
  if (key == std::string::npos) return parts;
  std::size_t at = key + 11;
  while (true) {
    const std::size_t open = drain_reply.find('{', at);
    if (open == std::string::npos) break;
    const std::size_t close = drain_reply.find('}', open);
    if (close == std::string::npos) break;
    parts.push_back(drain_reply.substr(open, close - open + 1));
    at = close + 1;
    if (at >= drain_reply.size() || drain_reply[at] != ',') break;
  }
  return parts;
}

/// Deterministic submit lines (no cluster field) over the radix-4 tree,
/// ids preassigned so a striped replay matches standalone references.
std::vector<std::string> workload(std::size_t count) {
  Rng rng(0x57A6CAFEULL);
  std::vector<std::string> lines;
  double arrival = 0.0;
  for (std::size_t k = 0; k < count; ++k) {
    arrival += rng.uniform(0.0, 40.0);
    const int nodes = 1 + static_cast<int>(rng.uniform(0.0, 6.0));
    const double runtime = rng.uniform(30.0, 900.0);
    std::string line = "{\"op\":\"submit\",\"id\":" + std::to_string(k) +
                       ",\"nodes\":" + std::to_string(nodes) +
                       ",\"runtime\":";
    append_double(line, runtime);
    line += ",\"arrival\":";
    append_double(line, arrival);
    line += "}";
    lines.push_back(std::move(line));
  }
  return lines;
}

std::string with_cluster(std::string line, int cluster) {
  line.insert(1, "\"cluster\":" + std::to_string(cluster) + ",");
  return line;
}

// ---------------------------------------------------------------------------
// Ownership map.
// ---------------------------------------------------------------------------

TEST(ShardSet, OwnershipIsDisjointAndComplete) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  ShardOptions options;
  options.clusters = 5;
  options.shards = 2;
  ShardSet set(topo, {&allocator}, config, options);
  std::string error;
  ASSERT_TRUE(set.init(&error)) << error;
  ASSERT_EQ(set.clusters(), 5);
  ASSERT_EQ(set.shards(), 2);

  // owner() partitions the clusters: every cluster has exactly one owner
  // in range, and every shard owns at least one cluster (5 over 2).
  std::vector<int> owned(2, 0);
  for (int c = 0; c < set.clusters(); ++c) {
    const int o = set.owner(c);
    ASSERT_GE(o, 0);
    ASSERT_LT(o, set.shards());
    EXPECT_EQ(o, c % 2);  // the documented static map
    ++owned[static_cast<std::size_t>(o)];
  }
  EXPECT_EQ(owned[0] + owned[1], 5);
  EXPECT_GT(owned[0], 0);
  EXPECT_GT(owned[1], 0);
}

TEST(ShardSet, ShardsClampToClusterCount) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  ShardOptions options;
  options.clusters = 2;
  options.shards = 8;  // more threads than clusters would idle forever
  ShardSet set(topo, {&allocator}, config, options);
  std::string error;
  ASSERT_TRUE(set.init(&error)) << error;
  EXPECT_EQ(set.shards(), 2);
}

// ---------------------------------------------------------------------------
// Routing (inline mode: synchronous, deterministic).
// ---------------------------------------------------------------------------

TEST(ShardSet, UnknownClusterIsRejected) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  ShardOptions options;
  options.clusters = 2;
  ShardSet set(topo, {&allocator}, config, options);
  std::string error;
  ASSERT_TRUE(set.init(&error)) << error;

  const std::string bad = set.handle_line(
      "{\"cluster\":7,\"op\":\"submit\",\"nodes\":1,\"runtime\":10}");
  EXPECT_TRUE(has_error(bad, "bad_request")) << bad;
  EXPECT_NE(bad.find("unknown cluster 7"), std::string::npos) << bad;
  EXPECT_NE(bad.find("clusters 0..1"), std::string::npos) << bad;
  // The boundary id is out of range too (clusters are 0-based).
  EXPECT_TRUE(has_error(
      set.handle_line("{\"cluster\":2,\"op\":\"ping\"}"), "bad_request"));

  // In-range clusters serve; ping reports the shape.
  const std::string ping = set.handle_line("{\"op\":\"ping\"}");
  EXPECT_TRUE(is_ok(ping)) << ping;
  EXPECT_NE(ping.find("\"clusters\":2"), std::string::npos) << ping;
  EXPECT_NE(ping.find("\"shards\":1"), std::string::npos) << ping;
  EXPECT_TRUE(is_ok(set.handle_line(
      "{\"cluster\":1,\"op\":\"submit\",\"nodes\":1,\"runtime\":10}")));
}

TEST(ShardSet, ClustersHaveIndependentJobIdSpaces) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  ShardOptions options;
  options.clusters = 2;
  ShardSet set(topo, {&allocator}, config, options);
  std::string error;
  ASSERT_TRUE(set.init(&error)) << error;

  // Both clusters assign job 0: their engines never see each other.
  const std::string a = set.handle_line(
      "{\"cluster\":0,\"op\":\"submit\",\"nodes\":1,\"runtime\":10}");
  const std::string b = set.handle_line(
      "{\"cluster\":1,\"op\":\"submit\",\"nodes\":1,\"runtime\":10}");
  ASSERT_TRUE(is_ok(a)) << a;
  ASSERT_TRUE(is_ok(b)) << b;
  EXPECT_NE(a.find("\"job\":0"), std::string::npos) << a;
  EXPECT_NE(b.find("\"job\":0"), std::string::npos) << b;
  // And a cluster-less status defaults to cluster 0, job 0 of which is
  // the first submit.
  EXPECT_TRUE(is_ok(set.handle_line("{\"op\":\"status\",\"job\":0}")));
}

// ---------------------------------------------------------------------------
// Golden equivalence: a striped sharded run drains to exactly the
// metrics of standalone per-cluster daemons fed the same subsets.
// ---------------------------------------------------------------------------

TEST(ShardSet, StripedDrainMatchesStandaloneDaemons) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  const std::vector<std::string> lines = workload(40);
  const int kClusters = 2;

  // Standalone references, one daemon per stripe.
  std::vector<std::string> reference;
  for (int c = 0; c < kClusters; ++c) {
    ServiceDaemon daemon(topo, allocator, config, DaemonOptions{});
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    for (std::size_t k = static_cast<std::size_t>(c); k < lines.size();
         k += kClusters) {
      ASSERT_TRUE(is_ok(daemon.handle_line(lines[k])));
    }
    reference.push_back(scrub_wall_fields(
        metrics_text(daemon.handle_line("{\"op\":\"drain\"}"))));
    ASSERT_FALSE(reference.back().empty());
  }

  ShardOptions options;
  options.clusters = kClusters;
  ShardSet set(topo, {&allocator}, config, options);
  std::string error;
  ASSERT_TRUE(set.init(&error)) << error;
  for (std::size_t k = 0; k < lines.size(); ++k) {
    ASSERT_TRUE(is_ok(set.handle_line(
        with_cluster(lines[k], static_cast<int>(k) % kClusters))));
  }

  // Aggregate stats before the drain: headline counters are sums.
  const std::string stats = set.handle_line("{\"op\":\"stats\"}");
  ASSERT_TRUE(is_ok(stats)) << stats;
  EXPECT_NE(stats.find("\"submitted\":40"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"per_cluster\":["), std::string::npos) << stats;

  const std::string drained = set.handle_line("{\"op\":\"drain\"}");
  ASSERT_TRUE(is_ok(drained)) << drained;
  const std::vector<std::string> parts = metrics_array(drained);
  ASSERT_EQ(parts.size(), static_cast<std::size_t>(kClusters)) << drained;
  for (int c = 0; c < kClusters; ++c) {
    EXPECT_EQ(scrub_wall_fields(parts[static_cast<std::size_t>(c)]),
              reference[static_cast<std::size_t>(c)])
        << "cluster " << c;
  }
}

// ---------------------------------------------------------------------------
// Threaded path over a real loopback socket: routing, broadcast
// aggregation, and shutdown through the reactor + worker threads.
// ---------------------------------------------------------------------------

TEST(ShardSet, ThreadedLoopbackServesAllClusters) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  // Per-cluster allocators, as the daemon binary provisions them.
  std::vector<JigsawAllocator> allocator_storage(4);
  std::vector<const Allocator*> allocators;
  for (const JigsawAllocator& a : allocator_storage) allocators.push_back(&a);

  ShardOptions options;
  options.clusters = 4;
  options.shards = 2;
  ShardSet set(topo, allocators, config, options);
  std::string error;
  ASSERT_TRUE(set.init(&error)) << error;

  Reactor reactor;
  ASSERT_TRUE(reactor.listen_tcp(0, &error)) << error;
  set.attach_reactor(&reactor);
  reactor.set_line_handler([&set](Reactor::ClientId id, std::string&& line) {
    return set.handle_socket_line(id, std::move(line));
  });
  reactor.set_overflow_handler([&set](Reactor::ClientId, bool oversized) {
    return set.overflow_reply(oversized);
  });
  reactor.set_idle_handler([&set]() { return set.on_idle(); });
  set.start();
  std::thread server([&reactor]() { reactor.run(); });

  ServiceClient client;
  client.set_timeout(30.0);  // a wedged routing bug fails, not hangs
  ASSERT_TRUE(
      client.connect("tcp:" + std::to_string(reactor.port()), &error))
      << error;

  std::string reply;
  ASSERT_TRUE(client.request("{\"op\":\"ping\"}", &reply, &error)) << error;
  EXPECT_NE(reply.find("\"clusters\":4"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"shards\":2"), std::string::npos) << reply;

  // Three submits per cluster, round-robin, across both worker threads.
  for (int k = 0; k < 12; ++k) {
    const std::string req = with_cluster(
        "{\"op\":\"submit\",\"nodes\":1,\"runtime\":50}", k % 4);
    ASSERT_TRUE(client.request(req, &reply, &error)) << error;
    ASSERT_TRUE(is_ok(reply)) << reply;
  }
  ASSERT_TRUE(
      client.request("{\"cluster\":9,\"op\":\"ping\"}", &reply, &error))
      << error;
  EXPECT_TRUE(has_error(reply, "bad_request")) << reply;

  // Aggregate stats: 12 submitted across the set, seq echoed once.
  ASSERT_TRUE(
      client.request("{\"op\":\"stats\",\"seq\":77}", &reply, &error))
      << error;
  ASSERT_TRUE(is_ok(reply)) << reply;
  EXPECT_NE(reply.find("\"submitted\":12"), std::string::npos) << reply;
  EXPECT_NE(reply.find("\"seq\":77"), std::string::npos) << reply;

  // Broadcast drain: one metrics object per cluster, each 3 jobs.
  ASSERT_TRUE(client.request("{\"op\":\"drain\"}", &reply, &error)) << error;
  ASSERT_TRUE(is_ok(reply)) << reply;
  const std::vector<std::string> parts = metrics_array(reply);
  ASSERT_EQ(parts.size(), 4u) << reply;
  for (const std::string& part : parts) {
    EXPECT_NE(part.find("\"completed\":3"), std::string::npos) << part;
  }

  ASSERT_TRUE(client.request("{\"op\":\"shutdown\"}", &reply, &error))
      << error;
  EXPECT_NE(reply.find("\"stopping\":true"), std::string::npos) << reply;
  server.join();
  set.stop();
}

// ---------------------------------------------------------------------------
// Group commit per worker batch: one fsync per owned daemon covers the
// batch's inputs before any of their replies leaves.
// ---------------------------------------------------------------------------

/// A reactor serving `set` on loopback TCP from its own thread; run()'s
/// result lands in `served`.
struct ShardServer {
  Reactor reactor;
  bool served = true;
  std::thread thread;

  ~ShardServer() { stop(); }
  /// Wake the reactor through its self-pipe (harmless once run() has
  /// returned) and join it.
  void stop() {
    if (!thread.joinable()) return;
    const char byte = 1;
    [[maybe_unused]] const ssize_t n = ::write(reactor.notify_fd(), &byte, 1);
    thread.join();
  }
  bool start(ShardSet& set, std::string* error) {
    if (!reactor.listen_tcp(0, error)) return false;
    set.attach_reactor(&reactor);
    reactor.set_line_handler([&set](Reactor::ClientId id, std::string&& line) {
      return set.handle_socket_line(id, std::move(line));
    });
    reactor.set_idle_handler([&set]() { return set.on_idle(); });
    set.start();
    thread = std::thread([this] { served = reactor.run(); });
    return true;
  }
  std::string endpoint() const {
    return "tcp:" + std::to_string(reactor.port());
  }
};

std::uint64_t merged_wal_syncs(const std::string& stats_reply) {
  const std::string key = "\"wal_syncs\":";
  const std::size_t at = stats_reply.find(key);
  return at == std::string::npos
             ? ~std::uint64_t{0}
             : std::stoull(stats_reply.substr(at + key.size()));
}

TEST(ShardSet, WorkerBatchesFsyncAtMostOncePerInput) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  std::vector<JigsawAllocator> allocator_storage(2);
  std::vector<const Allocator*> allocators;
  for (const JigsawAllocator& a : allocator_storage) allocators.push_back(&a);
  const std::string wal = ::testing::TempDir() + "shard_group_commit_" +
                          std::to_string(::getpid()) + ".wal";
  for (int c = 0; c < 2; ++c) {
    std::remove((wal + ".c" + std::to_string(c)).c_str());
  }

  ShardOptions options;
  options.clusters = 2;
  options.shards = 2;
  options.daemon.wal_path = wal;
  {
    ShardSet set(topo, allocators, config, options);
    std::string error;
    ASSERT_TRUE(set.init(&error)) << error;
    ShardServer server;
    ASSERT_TRUE(server.start(set, &error)) << error;

    ServiceClient client;
    client.set_timeout(30.0);
    ASSERT_TRUE(client.connect(server.endpoint(), &error)) << error;
    // Eight submits per cluster in one write.
    constexpr int kSubmits = 16;
    std::string burst;
    for (int k = 0; k < kSubmits; ++k) {
      if (k > 0) burst += '\n';
      burst += with_cluster("{\"op\":\"submit\",\"nodes\":1,\"runtime\":60}",
                            k % 2);
    }
    ASSERT_TRUE(client.send(burst, &error)) << error;
    std::string reply;
    for (int k = 0; k < kSubmits; ++k) {
      ASSERT_TRUE(client.recv(&reply, &error)) << error;
      EXPECT_TRUE(is_ok(reply)) << reply;
    }
    ASSERT_TRUE(client.request("{\"op\":\"stats\"}", &reply, &error))
        << error;
    const std::uint64_t after_submits = merged_wal_syncs(reply);
    EXPECT_GE(after_submits, 2u) << reply;
    EXPECT_LE(after_submits, static_cast<std::uint64_t>(kSubmits)) << reply;

    // The drain marker adds one fsync per cluster; the grants and
    // releases of the drain add none.
    ASSERT_TRUE(client.request("{\"op\":\"drain\"}", &reply, &error)) << error;
    ASSERT_TRUE(is_ok(reply)) << reply;
    ASSERT_TRUE(client.request("{\"op\":\"stats\"}", &reply, &error))
        << error;
    EXPECT_EQ(merged_wal_syncs(reply), after_submits + 2) << reply;
    ASSERT_TRUE(client.request("{\"op\":\"shutdown\"}", &reply, &error))
        << error;
    server.stop();
    EXPECT_TRUE(server.served);
    set.stop();
    EXPECT_EQ(set.failure(), "");
  }
  for (int c = 0; c < 2; ++c) {
    const std::string path = wal + ".c" + std::to_string(c);
    // 8 submits, their 8 grants and 8 releases, and the drain marker.
    EXPECT_EQ(read_wal(path).records.size(), 25u) << path;
    std::remove(path.c_str());
  }
}

TEST(ShardSet, OneFsyncCoversAWorkerBatch) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  const std::string wal = ::testing::TempDir() + "shard_one_fsync_" +
                          std::to_string(::getpid()) + ".wal";
  std::remove(wal.c_str());
  // Declared before the set, which joins its worker on destruction.
  std::promise<void> entered, release;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<std::string> replies;
  ShardOptions options;
  options.daemon.wal_path = wal;
  ShardSet set(topo, {&allocator}, config, options);
  std::string error;
  ASSERT_TRUE(set.init(&error)) << error;
  set.start();

  // The first submit's callback holds the worker until eight more
  // submits wait in its inbox, so they form the next batch.
  set.post(0, "{\"op\":\"submit\",\"nodes\":1,\"runtime\":60}",
           [&](const std::string& reply) {
             EXPECT_TRUE(is_ok(reply)) << reply;
             entered.set_value();
             release.get_future().wait();
           });
  entered.get_future().wait();
  const auto collect = [&](const std::string& reply) {
    std::lock_guard<std::mutex> lock(mu);
    replies.push_back(reply);
    cv.notify_one();
  };
  constexpr std::size_t kBatch = 8;
  for (std::size_t k = 0; k < kBatch; ++k) {
    set.post(0, "{\"op\":\"submit\",\"nodes\":1,\"runtime\":60}", collect);
  }
  release.set_value();
  const auto await_replies = [&](std::size_t count) {
    std::unique_lock<std::mutex> lock(mu);
    return cv.wait_for(lock, std::chrono::seconds(30),
                       [&] { return replies.size() == count; });
  };
  ASSERT_TRUE(await_replies(kBatch));
  set.post(0, "{\"op\":\"stats\"}", collect);
  ASSERT_TRUE(await_replies(kBatch + 1));
  set.stop();
  for (std::size_t k = 0; k < kBatch; ++k) {
    EXPECT_TRUE(is_ok(replies[k])) << replies[k];
  }
  // One fsync for the first submit, one for the batch of eight.
  EXPECT_NE(replies[kBatch].find("\"wal_syncs\":2,"), std::string::npos)
      << replies[kBatch];
  EXPECT_EQ(read_wal(wal).records.size(), kBatch + 1);
  std::remove(wal.c_str());
}

TEST(ShardSet, FailedBatchFsyncDropsTheRepliesAndStopsTheReactor) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  ShardOptions options;
  // A lone cluster keeps the base path. /dev/null takes every write and
  // fails every fsync (EINVAL).
  options.daemon.wal_path = "/dev/null";
  ShardSet set(topo, {&allocator}, config, options);
  std::string error;
  ASSERT_TRUE(set.init(&error)) << error;
  ShardServer server;
  ASSERT_TRUE(server.start(set, &error)) << error;

  ServiceClient client;
  client.set_timeout(10.0);
  ASSERT_TRUE(client.connect(server.endpoint(), &error)) << error;
  ASSERT_TRUE(client.send("{\"op\":\"submit\",\"nodes\":1,\"runtime\":60}",
                          &error))
      << error;
  // No ack leaves: the connection closes with no byte of reply.
  std::string reply;
  EXPECT_FALSE(client.recv(&reply, &error)) << reply;
  EXPECT_EQ(error, "connection closed by daemon");
  server.stop();
  EXPECT_FALSE(server.served);
  set.stop();
  EXPECT_EQ(set.failure().rfind("cluster 0: ", 0), 0u) << set.failure();
  EXPECT_NE(set.failure().find("fsync"), std::string::npos) << set.failure();
}

TEST(ShardSet, FailedBatchFsyncNeverCallsBack) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  std::atomic<int> callbacks{0};  // declared before the set (see above)
  ShardOptions options;
  options.daemon.wal_path = "/dev/null";
  ShardSet set(topo, {&allocator}, config, options);
  std::string error;
  ASSERT_TRUE(set.init(&error)) << error;
  set.start();
  set.post(0, "{\"op\":\"submit\",\"nodes\":1,\"runtime\":60}",
           [&callbacks](const std::string&) { ++callbacks; });
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (set.failure().empty() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  set.stop();  // the worker has published (or dropped) the batch
  EXPECT_NE(set.failure().find("fsync"), std::string::npos) << set.failure();
  EXPECT_EQ(callbacks.load(), 0);
}

// ---------------------------------------------------------------------------
// Client timeout: a peer that accepts but never replies turns into a
// clean error instead of a hang.
// ---------------------------------------------------------------------------

TEST(ServiceClientTimeout, SilentPeerTimesOutInsteadOfHanging) {
  // A listening socket whose backlog accepts the TCP handshake but whose
  // owner never reads or writes: exactly what a daemon that died between
  // accept and reply looks like to the client.
  const int listener = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(listener, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = 0;
  ASSERT_EQ(::bind(listener, reinterpret_cast<sockaddr*>(&addr),
                   sizeof(addr)),
            0);
  ASSERT_EQ(::listen(listener, 1), 0);
  socklen_t len = sizeof(addr);
  ASSERT_EQ(::getsockname(listener, reinterpret_cast<sockaddr*>(&addr), &len),
            0);
  const int port = ntohs(addr.sin_port);

  ServiceClient client;
  client.set_timeout(0.2);
  EXPECT_EQ(client.timeout(), 0.2);
  std::string error;
  ASSERT_TRUE(client.connect("tcp:" + std::to_string(port), &error)) << error;
  std::string reply;
  EXPECT_FALSE(client.request("{\"op\":\"ping\"}", &reply, &error));
  EXPECT_NE(error.find("timed out"), std::string::npos) << error;

  // Turning the bound off again restores blocking semantics cheaply; just
  // assert the setter round-trips rather than hanging a test on it.
  client.set_timeout(0.0);
  EXPECT_EQ(client.timeout(), 0.0);
  ::close(listener);
}

}  // namespace
}  // namespace jigsaw::service
