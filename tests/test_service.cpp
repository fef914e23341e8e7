// Online scheduler service: protocol semantics, backpressure, the golden
// equivalence of virtual-clock service runs against the batch simulator,
// WAL crash recovery, group commit, and client timeouts.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/jigsaw_allocator.hpp"
#include "obs/metrics_registry.hpp"
#include "service/client.hpp"
#include "service/daemon.hpp"
#include "service/json.hpp"
#include "service/protocol.hpp"
#include "service/reactor.hpp"
#include "service/wal.hpp"
#include "sim/simulator.hpp"
#include "trace/synthetic.hpp"
#include "util/rng.hpp"

namespace jigsaw::service {
namespace {

/// The trace the benches call Synth-16: named_synthetic plus the
/// deterministic bandwidth-class assignment (bench_common.hpp load()).
Trace synth16(std::size_t jobs) {
  Trace trace = named_synthetic("Synth-16", jobs);
  Rng rng(0xBADC0FFEEULL);
  assign_bandwidth_classes(trace, rng);
  return trace;
}

std::string submit_line(const Job& job) {
  std::string line = "{\"op\":\"submit\",\"id\":" + std::to_string(job.id) +
                     ",\"nodes\":" + std::to_string(job.nodes) +
                     ",\"runtime\":";
  append_double(line, job.runtime);
  line += ",\"bandwidth\":";
  append_double(line, job.bandwidth);
  line += ",\"arrival\":";
  append_double(line, job.arrival);
  line += "}";
  return line;
}

/// Extract the metrics object text from a drain reply — the daemon writes
/// it with metrics_json (a flat object, no nested braces), so the bytes
/// between "metrics": and the matching '}' compare bit-for-bit.
std::string metrics_text(const std::string& drain_reply) {
  const std::size_t key = drain_reply.find("\"metrics\":");
  if (key == std::string::npos) return {};
  const std::size_t open = drain_reply.find('{', key);
  const std::size_t close = drain_reply.find('}', open);
  if (open == std::string::npos || close == std::string::npos) return {};
  return drain_reply.substr(open, close - open + 1);
}

/// Drop the wall-clock-dependent fields (sched_wall_seconds,
/// mean_sched_time_per_job) before comparing metrics text: they measure
/// host time spent scheduling, which no two runs reproduce.
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

bool has_error(const std::string& reply, const char* code) {
  return reply.find("\"ok\":false") != std::string::npos &&
         reply.find(std::string("\"error\":\"") + code + "\"") !=
             std::string::npos;
}

bool is_ok(const std::string& reply) {
  return reply.rfind("{\"ok\":true", 0) == 0;
}

class ServiceTest : public ::testing::Test {
 protected:
  ServiceTest() : topo_(FatTree::from_radix(4)) {}

  /// A fresh virtual-clock daemon over the radix-4 tree (init asserted).
  std::unique_ptr<ServiceDaemon> make_daemon(DaemonOptions options = {}) {
    auto daemon =
        std::make_unique<ServiceDaemon>(topo_, allocator_, config_, options);
    std::string error;
    EXPECT_TRUE(daemon->init(&error)) << error;
    return daemon;
  }

  FatTree topo_;
  JigsawAllocator allocator_;
  SimConfig config_;
};

TEST_F(ServiceTest, PingAndSeqEcho) {
  auto daemon = make_daemon();
  EXPECT_TRUE(is_ok(daemon->handle_line("{\"op\":\"ping\"}")));
  const std::string reply =
      daemon->handle_line("{\"op\":\"ping\",\"seq\":42}");
  EXPECT_TRUE(is_ok(reply));
  EXPECT_NE(reply.find("\"seq\":42"), std::string::npos);
  // seq is echoed verbatim even on errors, and for non-numeric seq too.
  const std::string bad =
      daemon->handle_line("{\"op\":\"nope\",\"seq\":\"a-7\"}");
  EXPECT_TRUE(has_error(bad, "unknown_op"));
  EXPECT_NE(bad.find("\"seq\":\"a-7\""), std::string::npos);
}

TEST_F(ServiceTest, ParseAndRequestErrors) {
  auto daemon = make_daemon();
  EXPECT_TRUE(has_error(daemon->handle_line("this is not json"), "parse"));
  EXPECT_TRUE(has_error(daemon->handle_line("[1,2,3]"), "bad_request"));
  EXPECT_TRUE(has_error(daemon->handle_line("{\"nodes\":4}"), "bad_request"));
  EXPECT_TRUE(has_error(daemon->handle_line("{\"op\":\"warp\"}"),
                        "unknown_op"));
  EXPECT_TRUE(has_error(daemon->handle_line("{\"op\":\"submit\"}"),
                        "bad_request"));  // missing nodes/runtime
  EXPECT_TRUE(has_error(
      daemon->handle_line("{\"op\":\"submit\",\"nodes\":1.5,\"runtime\":9}"),
      "bad_request"));  // fractional nodes
  EXPECT_TRUE(has_error(
      daemon->handle_line("{\"op\":\"submit\",\"nodes\":2,\"runtime\":-1}"),
      "bad_request"));  // nonpositive runtime
  EXPECT_TRUE(has_error(daemon->handle_line("{\"op\":\"cancel\"}"),
                        "bad_request"));  // missing job
  EXPECT_TRUE(has_error(daemon->handle_line("{\"op\":\"fail\"}"),
                        "bad_request"));  // missing target
  EXPECT_TRUE(has_error(
      daemon->handle_line("{\"op\":\"fail\",\"target\":\"flux capacitor\"}"),
      "bad_request"));  // unparseable fault target
  // An overflowing bandwidth parses to +inf; acked, it would be logged
  // as a payload recovery cannot read back.
  EXPECT_TRUE(has_error(
      daemon->handle_line("{\"op\":\"submit\",\"nodes\":4,\"runtime\":10,"
                          "\"bandwidth\":1e999}"),
      "bad_request"));
  // Ids must be integers a double holds exactly: no fractions, nothing
  // past 2^53 (the int64 conversion of 1e300 is undefined).
  for (const char* id : {"1.5", "1e300", "9.3e18", "9007199254740994", "-1"}) {
    SCOPED_TRACE(id);
    EXPECT_TRUE(has_error(
        daemon->handle_line(std::string("{\"op\":\"submit\",\"id\":") + id +
                            ",\"nodes\":2,\"runtime\":10}"),
        "bad_request"));
    EXPECT_TRUE(has_error(
        daemon->handle_line(std::string("{\"op\":\"cancel\",\"job\":") + id +
                            "}"),
        "bad_request"));
    EXPECT_TRUE(has_error(
        daemon->handle_line(std::string("{\"op\":\"status\",\"job\":") + id +
                            "}"),
        "bad_request"));
  }
  // 2^53 itself is still a valid id.
  const std::string largest = daemon->handle_line(
      "{\"op\":\"submit\",\"id\":9007199254740992,\"nodes\":2,"
      "\"runtime\":10}");
  EXPECT_TRUE(is_ok(largest)) << largest;
}

TEST_F(ServiceTest, SubmitLifecycle) {
  auto daemon = make_daemon();
  const std::string accepted = daemon->handle_line(
      "{\"op\":\"submit\",\"nodes\":2,\"runtime\":100}");
  ASSERT_TRUE(is_ok(accepted)) << accepted;
  EXPECT_NE(accepted.find("\"job\":0"), std::string::npos) << accepted;

  std::string status = daemon->handle_line("{\"op\":\"status\",\"job\":0}");
  EXPECT_TRUE(is_ok(status));
  EXPECT_NE(status.find("\"nodes\":2"), std::string::npos);

  EXPECT_TRUE(has_error(
      daemon->handle_line("{\"op\":\"status\",\"job\":99}"), "unknown_job"));
  EXPECT_TRUE(has_error(
      daemon->handle_line("{\"op\":\"cancel\",\"job\":99}"), "unknown_job"));

  // Duplicate client-chosen id: the engine refuses it.
  EXPECT_TRUE(has_error(
      daemon->handle_line(
          "{\"op\":\"submit\",\"id\":0,\"nodes\":2,\"runtime\":50}"),
      "bad_request"));

  EXPECT_TRUE(
      is_ok(daemon->handle_line("{\"op\":\"cancel\",\"job\":0}")));
  status = daemon->handle_line("{\"op\":\"status\",\"job\":0}");
  EXPECT_NE(status.find("\"phase\":\"cancelled\""), std::string::npos)
      << status;
  // Cancelling a cancelled job is a state error, not unknown_job.
  EXPECT_TRUE(has_error(
      daemon->handle_line("{\"op\":\"cancel\",\"job\":0}"), "bad_state"));
}

TEST_F(ServiceTest, MetricsOpRequiresARegistry) {
  auto daemon = make_daemon();
  EXPECT_TRUE(
      has_error(daemon->handle_line("{\"op\":\"metrics\"}"), "bad_state"));
  // Same listener over HTTP: 503, not a hang or a JSON parse error.
  const std::string http =
      daemon->http_metrics_response("GET /metrics HTTP/1.1");
  EXPECT_EQ(http.rfind("HTTP/1.0 503", 0), 0u) << http;
}

TEST_F(ServiceTest, MetricsOpServesPrometheusText) {
  obs::MetricsRegistry registry;
  config_.obs.metrics = &registry;
  auto daemon = make_daemon();
  ASSERT_TRUE(is_ok(daemon->handle_line(
      "{\"op\":\"submit\",\"nodes\":2,\"runtime\":100}")));

  const std::string reply = daemon->handle_line("{\"op\":\"metrics\"}");
  ASSERT_TRUE(is_ok(reply)) << reply;
  EXPECT_NE(reply.find("\"format\":\"prometheus\""), std::string::npos);
  JsonValue doc;
  std::string error;
  ASSERT_TRUE(parse_json(reply, &doc, &error)) << error;
  const JsonValue* body = doc.find("body");
  ASSERT_NE(body, nullptr);
  ASSERT_TRUE(body->is_string());
  const std::string& text = body->as_string();
  EXPECT_NE(text.find("# TYPE"), std::string::npos);
  EXPECT_NE(text.find("jigsaw_jobs_running "), std::string::npos);
  EXPECT_NE(text.find("jigsaw_queue_depth "), std::string::npos);
  EXPECT_NE(text.find("jigsaw_cluster_utilization "), std::string::npos);
  EXPECT_NE(text.find("jigsaw_service_ack_seconds_count"),
            std::string::npos);

  // HTTP variant: 200 with the Prometheus content type and the same
  // exposition; anything but /metrics is 404.
  const std::string http =
      daemon->http_metrics_response("GET /metrics HTTP/1.0");
  EXPECT_EQ(http.rfind("HTTP/1.0 200 OK\r\n", 0), 0u) << http;
  EXPECT_NE(http.find("Content-Type: text/plain; version=0.0.4"),
            std::string::npos);
  EXPECT_NE(http.find("jigsaw_jobs_running "), std::string::npos);
  const std::string missing =
      daemon->http_metrics_response("GET /other HTTP/1.0");
  EXPECT_EQ(missing.rfind("HTTP/1.0 404", 0), 0u) << missing;
}

TEST_F(ServiceTest, CorrelationIdsThreadSubmitToStatus) {
  auto daemon = make_daemon();
  const std::string first = daemon->handle_line(
      "{\"op\":\"submit\",\"nodes\":2,\"runtime\":100}");
  ASSERT_TRUE(is_ok(first)) << first;
  EXPECT_NE(first.find("\"corr\":1"), std::string::npos) << first;
  const std::string second = daemon->handle_line(
      "{\"op\":\"submit\",\"nodes\":2,\"runtime\":100}");
  EXPECT_NE(second.find("\"corr\":2"), std::string::npos) << second;
  // status carries the same id back, keyed by job.
  const std::string status =
      daemon->handle_line("{\"op\":\"status\",\"job\":0}");
  EXPECT_NE(status.find("\"corr\":1"), std::string::npos) << status;
}

TEST_F(ServiceTest, BackpressureRejections) {
  DaemonOptions options;
  options.max_queue = 2;
  auto daemon = make_daemon(options);
  const std::string oversized = daemon->handle_line(
      "{\"op\":\"submit\",\"nodes\":" +
      std::to_string(topo_.total_nodes() + 1) + ",\"runtime\":10}");
  EXPECT_TRUE(has_error(oversized, "oversized_job")) << oversized;

  EXPECT_TRUE(is_ok(
      daemon->handle_line("{\"op\":\"submit\",\"nodes\":1,\"runtime\":10}")));
  EXPECT_TRUE(is_ok(
      daemon->handle_line("{\"op\":\"submit\",\"nodes\":1,\"runtime\":10}")));
  EXPECT_TRUE(has_error(
      daemon->handle_line("{\"op\":\"submit\",\"nodes\":1,\"runtime\":10}"),
      "queue_full"));
  // Cancelling frees an admission slot.
  EXPECT_TRUE(is_ok(daemon->handle_line("{\"op\":\"cancel\",\"job\":0}")));
  EXPECT_TRUE(is_ok(
      daemon->handle_line("{\"op\":\"submit\",\"nodes\":1,\"runtime\":10}")));

  // Reactor overflow replies carry the protocol's error codes.
  EXPECT_TRUE(has_error(daemon->overflow_reply(true), "line_too_long"));
  EXPECT_TRUE(has_error(daemon->overflow_reply(false), "queue_full"));
}

TEST_F(ServiceTest, WallModeRefusesDrain) {
  DaemonOptions options;
  options.clock = ClockMode::kWall;
  auto daemon = make_daemon(options);
  EXPECT_TRUE(has_error(daemon->handle_line("{\"op\":\"drain\"}"),
                        "bad_state"));
}

TEST_F(ServiceTest, DrainIsIdempotentAndSealsSubmission) {
  auto daemon = make_daemon();
  EXPECT_TRUE(is_ok(
      daemon->handle_line("{\"op\":\"submit\",\"nodes\":2,\"runtime\":30}")));
  const std::string first = daemon->handle_line("{\"op\":\"drain\"}");
  ASSERT_TRUE(is_ok(first)) << first;
  EXPECT_TRUE(daemon->drained());
  // A second drain returns the cached metrics, byte for byte.
  EXPECT_EQ(daemon->handle_line("{\"op\":\"drain\"}"), first);
  EXPECT_TRUE(has_error(
      daemon->handle_line("{\"op\":\"submit\",\"nodes\":2,\"runtime\":30}"),
      "bad_state"));
}

TEST_F(ServiceTest, FaultOpsFeedTheEngine) {
  auto daemon = make_daemon();
  EXPECT_TRUE(is_ok(daemon->handle_line(
      "{\"op\":\"submit\",\"nodes\":2,\"runtime\":100,\"arrival\":0}")));
  EXPECT_TRUE(is_ok(daemon->handle_line(
      "{\"op\":\"fail\",\"target\":\"node 0\",\"time\":10}")));
  EXPECT_TRUE(is_ok(daemon->handle_line(
      "{\"op\":\"repair\",\"target\":\"node 0\",\"time\":20}")));
  EXPECT_TRUE(has_error(
      daemon->handle_line(
          "{\"op\":\"fail\",\"target\":\"node 99999\",\"time\":10}"),
      "bad_request"));  // target outside the topology
  const std::string drained = daemon->handle_line("{\"op\":\"drain\"}");
  ASSERT_TRUE(is_ok(drained)) << drained;
  EXPECT_NE(metrics_text(drained).find("\"fault_events\":2"),
            std::string::npos);
}

// The drain reply carries every scalar SimMetrics field, quick_rejects
// included: with the admission screen on, the daemon's count matches the
// batch simulator's and is non-zero.
TEST_F(ServiceTest, DrainReportsQuickRejects) {
  config_.admission_quick_reject = true;
  Trace trace;
  Rng rng(0x0DDBA11ULL);
  double arrival = 0.0;
  for (JobId id = 0; id < 300; ++id) {
    Job job;
    job.id = id;
    arrival += rng.uniform(0.0, 20.0);
    job.arrival = arrival;
    job.nodes = 1 + static_cast<int>(rng.uniform(0.0, 12.0));
    job.runtime = rng.uniform(30.0, 900.0);
    job.bandwidth = 0.0;
    trace.jobs.push_back(job);
  }
  JigsawAllocator batch_allocator;
  const SimMetrics reference =
      simulate(topo_, batch_allocator, trace, config_);
  ASSERT_GT(reference.quick_rejects, 0u);

  auto daemon = make_daemon();
  for (const Job& job : trace.jobs) {
    ASSERT_TRUE(is_ok(daemon->handle_line(submit_line(job))));
  }
  const std::string metrics =
      metrics_text(daemon->handle_line("{\"op\":\"drain\"}"));
  EXPECT_NE(metrics.find("\"quick_rejects\":" +
                         std::to_string(reference.quick_rejects) + ","),
            std::string::npos)
      << metrics;
  EXPECT_EQ(scrub_wall_fields(metrics),
            scrub_wall_fields(metrics_json(reference)));
}

TEST_F(ServiceTest, ParseHelpers) {
  ClockMode clock = ClockMode::kWall;
  EXPECT_TRUE(parse_clock_mode("virtual", &clock));
  EXPECT_EQ(clock, ClockMode::kVirtual);
  EXPECT_TRUE(parse_clock_mode("wall", &clock));
  EXPECT_EQ(clock, ClockMode::kWall);
  EXPECT_FALSE(parse_clock_mode("sundial", &clock));
}

// A daemon serves one cluster, so a "cluster" key routes nowhere: it is
// skipped like any other key the protocol does not define.
TEST_F(ServiceTest, ClusterKeyIsIgnoredLikeAnyUnknownKey) {
  auto daemon = make_daemon();
  for (const char* value : {"0", "3", "-1", "1.5", "\"east\"", "null"}) {
    EXPECT_TRUE(is_ok(daemon->handle_line(
        std::string("{\"op\":\"ping\",\"cluster\":") + value + "}")))
        << value;
  }
  EXPECT_TRUE(is_ok(daemon->handle_line(
      "{\"op\":\"submit\",\"id\":7,\"nodes\":2,\"runtime\":50,"
      "\"cluster\":9}")));
  EXPECT_TRUE(is_ok(daemon->handle_line("{\"op\":\"status\",\"job\":7}")));
}

// ---------------------------------------------------------------------------
// Golden equivalence: Synth-16 replayed through the service in
// virtual-clock mode, over a real loopback socket, produces SimMetrics
// bit-identical (%.17g text) to the batch simulator — the service is the
// same simulation behind a protocol, not an approximation of it.
// ---------------------------------------------------------------------------

TEST(ServiceGolden, VirtualClockMatchesBatchSimulatorOverLoopback) {
  const Trace trace = synth16(800);
  const FatTree topo = FatTree::from_radix(16);
  const SimConfig config;

  JigsawAllocator batch_allocator;
  const SimMetrics reference = simulate(topo, batch_allocator, trace, config);

  JigsawAllocator service_allocator;
  DaemonOptions options;
  options.clock = ClockMode::kVirtual;
  options.max_queue = trace.jobs.size() + 1;
  ServiceDaemon daemon(topo, service_allocator, config, options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;

  Reactor reactor;
  ASSERT_TRUE(reactor.listen_tcp(0, &error)) << error;
  daemon.attach_reactor(&reactor);
  reactor.set_line_handler([&daemon](Reactor::ClientId, std::string&& line) {
    return daemon.handle_line(line);
  });
  reactor.set_overflow_handler([&daemon](Reactor::ClientId, bool oversized) {
    return daemon.overflow_reply(oversized);
  });
  reactor.set_idle_handler([&daemon]() { return daemon.on_idle(); });
  std::thread server([&reactor]() { reactor.run(); });

  ServiceClient client;
  ASSERT_TRUE(
      client.connect("tcp:" + std::to_string(reactor.port()), &error))
      << error;
  for (const Job& job : trace.jobs) {
    std::string reply;
    ASSERT_TRUE(client.request(submit_line(job), &reply, &error)) << error;
    ASSERT_TRUE(is_ok(reply)) << reply;
  }
  std::string drain_reply;
  ASSERT_TRUE(client.request("{\"op\":\"drain\"}", &drain_reply, &error))
      << error;
  ASSERT_TRUE(is_ok(drain_reply)) << drain_reply;
  std::string bye;
  ASSERT_TRUE(client.request("{\"op\":\"shutdown\"}", &bye, &error)) << error;
  server.join();

  const std::string service_metrics = metrics_text(drain_reply);
  ASSERT_FALSE(service_metrics.empty()) << drain_reply;
  EXPECT_EQ(scrub_wall_fields(service_metrics),
            scrub_wall_fields(metrics_json(reference)));
}

// ---------------------------------------------------------------------------
// Crash recovery: kill the daemon mid-drain (simulated by truncating the
// WAL inside the post-drain grant records — exactly the torn state a
// kill -9 leaves behind), restart with recover, and the run completes
// with metrics bit-identical to an uninterrupted daemon's. Recovering the
// same log twice is idempotent.
// ---------------------------------------------------------------------------

class ServiceRecoveryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // PID + test name, not an address: parallel ctest workers may map
    // the fixture at the same heap address in different processes.
    wal_path_ =
        ::testing::TempDir() + "service_recovery_" +
        std::to_string(::getpid()) + "_" +
        ::testing::UnitTest::GetInstance()->current_test_info()->name() +
        ".wal";
    std::remove(wal_path_.c_str());
  }
  void TearDown() override { std::remove(wal_path_.c_str()); }

  std::string wal_path_;
};

TEST_F(ServiceRecoveryTest, MidDrainCrashRecoversBitIdentical) {
  const Trace trace = synth16(120);
  const FatTree topo = FatTree::from_radix(16);
  const SimConfig config;
  JigsawAllocator allocator;

  // Uninterrupted reference run (no WAL).
  std::string reference;
  {
    ServiceDaemon daemon(topo, allocator, config, DaemonOptions{});
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    for (const Job& job : trace.jobs) {
      ASSERT_TRUE(is_ok(daemon.handle_line(submit_line(job))));
    }
    reference = metrics_text(daemon.handle_line("{\"op\":\"drain\"}"));
    ASSERT_FALSE(reference.empty());
  }

  // The run that will "crash": same inputs, WAL on, drain completes so
  // the log holds submits + the drain marker + grant/release records.
  DaemonOptions wal_options;
  wal_options.wal_path = wal_path_;
  {
    ServiceDaemon daemon(topo, allocator, config, wal_options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    for (const Job& job : trace.jobs) {
      ASSERT_TRUE(is_ok(daemon.handle_line(submit_line(job))));
    }
    ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"drain\"}")));
  }

  // Simulate the kill: truncate the log a few bytes into the frame after
  // the third grant record — all inputs and the drain marker survive, the
  // grant/release tail is torn mid-frame.
  const WalReadResult full = read_wal(wal_path_);
  ASSERT_TRUE(full.tail_error.empty()) << full.tail_error;
  std::vector<std::uint64_t> grant_offsets;
  for (const WalRecord& rec : full.records) {
    if (rec.type == WalRecordType::kGrant) grant_offsets.push_back(rec.offset);
  }
  ASSERT_GE(grant_offsets.size(), 4u);
  const std::uint64_t cut = grant_offsets[3] + 5;  // torn mid-frame
  {
    std::ifstream in(wal_path_, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    std::ofstream out(wal_path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(cut));
  }

  // Restart with recovery: replay finishes the drain and the cached
  // metrics match the uninterrupted run byte for byte.
  DaemonOptions recover_options = wal_options;
  recover_options.recover = true;
  {
    ServiceDaemon daemon(topo, allocator, config, recover_options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    const RecoveryReport& report = daemon.recovery();
    EXPECT_TRUE(report.performed);
    EXPECT_TRUE(report.audit_ok);
    EXPECT_TRUE(report.saw_drain);
    EXPECT_EQ(report.inputs_replayed, trace.jobs.size() + 1);  // + drain
    EXPECT_EQ(report.grants_logged, 3u);  // the 4th grant's frame was torn
    EXPECT_GT(report.dropped_bytes, 0u);  // the torn frame
    EXPECT_TRUE(daemon.drained());
    const std::string recovered =
        metrics_text(daemon.handle_line("{\"op\":\"drain\"}"));
    EXPECT_EQ(scrub_wall_fields(recovered), scrub_wall_fields(reference));
  }

  // Recovery appends nothing, so a second recovery sees the same log and
  // reaches the same state: idempotent.
  {
    ServiceDaemon daemon(topo, allocator, config, recover_options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    EXPECT_TRUE(daemon.recovery().audit_ok);
    EXPECT_EQ(daemon.recovery().dropped_bytes, 0u);  // tail already clean
    const std::string recovered =
        metrics_text(daemon.handle_line("{\"op\":\"drain\"}"));
    EXPECT_EQ(scrub_wall_fields(recovered), scrub_wall_fields(reference));
  }
}

TEST_F(ServiceRecoveryTest, RecoveryWithoutDrainRestoresAdmissionState) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  DaemonOptions wal_options;
  wal_options.wal_path = wal_path_;
  {
    ServiceDaemon daemon(topo, allocator, config, wal_options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    for (int k = 0; k < 3; ++k) {
      ASSERT_TRUE(is_ok(daemon.handle_line(
          "{\"op\":\"submit\",\"nodes\":1,\"runtime\":60}")));
    }
    ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"cancel\",\"job\":1}")));
  }
  DaemonOptions recover_options = wal_options;
  recover_options.recover = true;
  ServiceDaemon daemon(topo, allocator, config, recover_options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  EXPECT_FALSE(daemon.drained());
  EXPECT_EQ(daemon.engine().submitted_count(), 3u);
  EXPECT_EQ(daemon.engine().cancelled_count(), 1u);
  // The surviving jobs are known and new ids continue past the replayed
  // ones — a client reconnecting after the crash sees its world intact.
  EXPECT_TRUE(is_ok(daemon.handle_line("{\"op\":\"status\",\"job\":0}")));
  const std::string resumed = daemon.handle_line(
      "{\"op\":\"submit\",\"nodes\":1,\"runtime\":60}");
  ASSERT_TRUE(is_ok(resumed)) << resumed;
  EXPECT_NE(resumed.find("\"job\":3"), std::string::npos) << resumed;
}

// A request names a job id as a JSON number, which the parser reads as a
// double, exact up to 2^53 (the WAL itself carries any i64). A client may
// take id 2^53 itself, but the id the daemon would assign next is past
// what any later request could name: that submit is refused, and the log
// still recovers.
TEST_F(ServiceRecoveryTest, AssignedIdPastTheReplayBoundIsRefused) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  DaemonOptions wal_options;
  wal_options.wal_path = wal_path_;
  const std::string top = "9007199254740992";  // 2^53
  const std::string unnamed = "{\"op\":\"submit\",\"nodes\":1,\"runtime\":10}";
  {
    ServiceDaemon daemon(topo, allocator, config, wal_options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    ASSERT_TRUE(is_ok(daemon.handle_line(
        "{\"op\":\"submit\",\"id\":" + top + ",\"nodes\":1,\"runtime\":10}")));
    for (int k = 0; k < 2; ++k) {
      const std::string refused = daemon.handle_line(unnamed);
      EXPECT_TRUE(has_error(refused, "bad_request")) << refused;
    }
    // Ids a client names below the bound are still taken.
    EXPECT_TRUE(is_ok(daemon.handle_line(
        "{\"op\":\"submit\",\"id\":7,\"nodes\":1,\"runtime\":10}")));
    EXPECT_EQ(daemon.engine().submitted_count(), 2u);
  }
  DaemonOptions recover_options = wal_options;
  recover_options.recover = true;
  ServiceDaemon daemon(topo, allocator, config, recover_options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  EXPECT_EQ(daemon.recovery().inputs_replayed, 2u);
  EXPECT_TRUE(
      is_ok(daemon.handle_line("{\"op\":\"status\",\"job\":" + top + "}")));
  EXPECT_TRUE(has_error(daemon.handle_line(unnamed), "bad_request"));
}

// Several clusters are several daemons, each with its own WAL: recovery
// replays one daemon's log into that daemon alone.
TEST_F(ServiceRecoveryTest, EachDaemonRecoversOnlyItsOwnWal) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocators[2];
  DaemonOptions options[2];
  options[0].wal_path = wal_path_;
  options[1].wal_path = wal_path_ + ".other";
  std::remove(options[1].wal_path.c_str());
  const auto start = [&](bool recover) {
    std::vector<std::unique_ptr<ServiceDaemon>> daemons;
    for (int d = 0; d < 2; ++d) {
      options[d].recover = recover;
      daemons.push_back(std::make_unique<ServiceDaemon>(
          topo, allocators[d], config, options[d]));
      std::string error;
      EXPECT_TRUE(daemons.back()->init(&error)) << error;
    }
    return daemons;
  };
  const auto line = [](const char* op, const char* key, int id) {
    return std::string("{\"op\":\"") + op + "\",\"" + key +
           "\":" + std::to_string(id) + ",\"nodes\":2,\"runtime\":60}";
  };
  {
    const auto live = start(false);
    for (const int id : {10, 11, 12}) {
      ASSERT_TRUE(is_ok(live[0]->handle_line(line("submit", "id", id))));
    }
    ASSERT_TRUE(is_ok(live[1]->handle_line(line("submit", "id", 20))));
  }  // crash
  const auto recovered = start(true);
  ServiceDaemon& a = *recovered[0];
  ServiceDaemon& b = *recovered[1];
  EXPECT_EQ(a.recovery().inputs_replayed, 3u);
  EXPECT_EQ(b.recovery().inputs_replayed, 1u);
  EXPECT_TRUE(is_ok(a.handle_line(line("status", "job", 11))));
  EXPECT_TRUE(has_error(b.handle_line(line("status", "job", 11)),
                        "unknown_job"));
  EXPECT_TRUE(is_ok(b.handle_line(line("status", "job", 20))));
  EXPECT_TRUE(has_error(a.handle_line(line("status", "job", 20)),
                        "unknown_job"));
  std::remove(options[1].wal_path.c_str());
}

// The wal_* and snapshot fields of `stats` describe the daemon's log, so
// they appear exactly when the daemon runs with one.
TEST_F(ServiceRecoveryTest, StatsCarryWalFieldsOnlyWithAWal) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  DaemonOptions logged;
  logged.wal_path = wal_path_;
  for (const DaemonOptions& options : {DaemonOptions{}, logged}) {
    ServiceDaemon daemon(topo, allocator, config, options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    ASSERT_TRUE(is_ok(
        daemon.handle_line("{\"op\":\"submit\",\"nodes\":1,\"runtime\":60}")));
    const std::string stats = daemon.handle_line("{\"op\":\"stats\"}");
    for (const char* field :
         {"\"wal_bytes\":", "\"wal_unsynced_records\":", "\"wal_syncs\":1,",
          "\"snapshot_epoch\":0,", "\"snapshots\":0,",
          "\"inputs_since_snapshot\":1,"}) {
      EXPECT_EQ(stats.find(field) != std::string::npos,
                !options.wal_path.empty())
          << field << " in " << stats;
    }
  }
}

// Wall-mode recovery must replay a cancel at the same point in the
// event stream it happened live: here the cancelled job sat at the head
// of the queue long enough for EASY to refuse a backfill on its behalf,
// so a replay that cancels it up front would derive different grants
// and fail the audit. Also pins the wall-epoch resume: after recovery
// the clock continues from the pre-crash event time instead of
// re-elapsing the whole uptime.
TEST_F(ServiceRecoveryTest, WallModeReplaysCancelAtItsAcceptClock) {
  const FatTree topo = FatTree::from_radix(4);  // 16 nodes
  const SimConfig config;
  JigsawAllocator allocator;
  DaemonOptions options;
  options.clock = ClockMode::kWall;
  options.time_scale = 2000.0;  // 1 event-clock hour ≈ 1.8 wall seconds
  options.wal_path = wal_path_;
  {
    ServiceDaemon daemon(topo, allocator, config, options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    // A runs on 4 nodes until t=4000. B wants the whole cluster: queued,
    // head of queue, shadow reservation at t=4000 over every node. C (1
    // node, runtime 20000) fits the idle capacity but would overrun the
    // shadow, so EASY keeps it queued *because B is queued*.
    ASSERT_TRUE(is_ok(daemon.handle_line(
        "{\"op\":\"submit\",\"nodes\":4,\"runtime\":4000}")));  // job 0 = A
    ASSERT_TRUE(is_ok(daemon.handle_line(
        "{\"op\":\"submit\",\"nodes\":16,\"runtime\":100}")));  // job 1 = B
    ASSERT_TRUE(is_ok(daemon.handle_line(
        "{\"op\":\"submit\",\"nodes\":1,\"runtime\":20000}")));  // job 2 = C
    ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"ping\"}")));
    ASSERT_LT(daemon.engine().now(), 4000.0);  // A still running
    ASSERT_EQ(daemon.engine().running_count(), 1u);  // A granted
    ASSERT_EQ(daemon.engine().queue_depth(), 2u);    // B and C held
    // Cancel B after its arrival was processed — it already shaped the
    // backfill decision above.
    ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"cancel\",\"job\":1}")));
    ASSERT_EQ(daemon.engine().queue_depth(), 1u);
    // Let wall time carry the engine past A's completion: the pass at
    // t=4000 releases A and finally grants C — both land in the WAL.
    for (int k = 0; k < 20000 && daemon.engine().now() < 4000.0; ++k) {
      ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"ping\"}")));
      ::usleep(1000);
    }
    ASSERT_GE(daemon.engine().now(), 4000.0);
    ASSERT_EQ(daemon.engine().completed_count(), 1u);  // A done
    ASSERT_EQ(daemon.engine().running_count(), 1u);    // C granted at 4000
  }  // crash: the daemon dies with C mid-flight

  DaemonOptions recover_options = options;
  recover_options.recover = true;
  ServiceDaemon daemon(topo, allocator, config, recover_options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  const RecoveryReport& report = daemon.recovery();
  EXPECT_TRUE(report.audit_ok);
  EXPECT_EQ(report.grants_logged, 2u);  // A at 0, C at 4000
  EXPECT_EQ(daemon.engine().cancelled_count(), 1u);
  EXPECT_EQ(daemon.engine().completed_count(), 1u);
  EXPECT_EQ(daemon.engine().running_count(), 1u);
  EXPECT_EQ(daemon.engine().queue_depth(), 0u);
  // The run resumes at the last audited grant/release time...
  EXPECT_GE(report.resume_clock, 4000.0);
  // ...and the wall epoch resumes there too: the next event (C's
  // completion at t=24000) is due in (24000 - resume)/scale wall
  // seconds, not a full re-elapse of the pre-crash uptime.
  const double next_due =
      (daemon.engine().next_time() - report.resume_clock) /
      options.time_scale;
  EXPECT_LE(daemon.on_idle(), next_due + 0.01);
}

TEST_F(ServiceRecoveryTest, TamperedGrantFailsTheAudit) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  DaemonOptions wal_options;
  wal_options.wal_path = wal_path_;
  {
    ServiceDaemon daemon(topo, allocator, config, wal_options);
    std::string error;
    ASSERT_TRUE(daemon.init(&error)) << error;
    ASSERT_TRUE(is_ok(daemon.handle_line(
        "{\"op\":\"submit\",\"nodes\":2,\"runtime\":60}")));
    ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"drain\"}")));
  }
  // Rewrite a grant's node count through its field list (and the writer,
  // so the CRC is valid): replay re-derives the true grant, the log
  // disagrees, and the audit must refuse to serve from a log that
  // contradicts replay.
  const WalReadResult full = read_wal(wal_path_);
  WalWriter writer;
  std::string error;
  ASSERT_TRUE(writer.open(wal_path_ + ".tampered", &error)) << error;
  for (const WalRecord& rec : full.records) {
    std::string payload = rec.payload;
    if (rec.type == WalRecordType::kGrant) {
      GrantRecord grant;
      ASSERT_TRUE(read_payload(payload, &grant));
      grant.nodes += 10;  // e.g. nodes 2 -> 12
      payload = wal_payload(grant);
    }
    ASSERT_TRUE(writer.append(rec.type, payload, &error)) << error;
  }
  writer.close();

  DaemonOptions recover_options = wal_options;
  recover_options.wal_path = wal_path_ + ".tampered";
  recover_options.recover = true;
  ServiceDaemon daemon(topo, allocator, config, recover_options);
  EXPECT_FALSE(daemon.init(&error));
  EXPECT_FALSE(daemon.recovery().audit_ok);
  EXPECT_FALSE(error.empty());
  std::remove((wal_path_ + ".tampered").c_str());
}

// Every input record type replays: submits, a cancel, and a fail and a
// repair of a leaf switch that kills running jobs, then a drain whose log
// is torn mid-run as in MidDrainCrashRecoversBitIdentical. The recovered
// drain matches an uninterrupted daemon given the same lines bit for bit.
TEST_F(ServiceRecoveryTest, MidDrainCrashWithFaultsRecoversBitIdentical) {
  const Trace trace = synth16(120);
  const FatTree topo = FatTree::from_radix(16);
  const SimConfig config;
  JigsawAllocator allocator;
  std::vector<std::string> lines;
  for (const Job& job : trace.jobs) lines.push_back(submit_line(job));
  lines.push_back("{\"op\":\"cancel\",\"job\":" +
                  std::to_string(trace.jobs[60].id) + "}");
  lines.push_back(
      "{\"op\":\"fail\",\"target\":\"leafswitch 2\",\"time\":500}");
  lines.push_back(
      "{\"op\":\"repair\",\"target\":\"leafswitch 2\",\"time\":2000}");
  const auto run = [&](const DaemonOptions& options) {
    ServiceDaemon daemon(topo, allocator, config, options);
    std::string error;
    EXPECT_TRUE(daemon.init(&error)) << error;
    for (const std::string& line : lines) {
      EXPECT_TRUE(is_ok(daemon.handle_line(line))) << line;
    }
    return scrub_wall_fields(
        metrics_text(daemon.handle_line("{\"op\":\"drain\"}")));
  };
  const std::string reference = run(DaemonOptions{});
  ASSERT_NE(reference.find("\"fault_events\":2,"), std::string::npos)
      << reference;
  ASSERT_EQ(reference.find("\"jobs_killed\":0,"), std::string::npos)
      << reference;
  DaemonOptions wal_options;
  wal_options.wal_path = wal_path_;
  ASSERT_EQ(run(wal_options), reference);

  // Tear the log a few bytes into the fourth grant's frame.
  std::vector<std::uint64_t> grant_offsets;
  for (const WalRecord& rec : read_wal(wal_path_).records) {
    if (rec.type == WalRecordType::kGrant) grant_offsets.push_back(rec.offset);
  }
  ASSERT_GE(grant_offsets.size(), 4u);
  {
    std::ifstream in(wal_path_, std::ios::binary);
    const std::string bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    std::ofstream out(wal_path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(grant_offsets[3] + 5));
  }

  DaemonOptions recover_options = wal_options;
  recover_options.recover = true;
  ServiceDaemon daemon(topo, allocator, config, recover_options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;
  const RecoveryReport& report = daemon.recovery();
  EXPECT_TRUE(report.audit_ok);
  EXPECT_TRUE(report.saw_drain);
  EXPECT_EQ(report.inputs_replayed, lines.size() + 1);  // + drain
  EXPECT_EQ(report.grants_logged, 3u);
  EXPECT_GT(report.dropped_bytes, 0u);
  EXPECT_EQ(scrub_wall_fields(
                metrics_text(daemon.handle_line("{\"op\":\"drain\"}"))),
            reference);
}

// A CRC-valid fault record whose target lies outside the tree fails
// recovery instead of reaching ClusterState as out-of-range indices.
TEST_F(ServiceRecoveryTest, FaultTargetOutsideTheTreeIsRefused) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  std::string error;
  {
    WalWriter writer;
    ASSERT_TRUE(writer.open(wal_path_, &error)) << error;
    FaultRecord record;
    record.event.target = {fault::ResourceKind::kNode, 99999, 0, 0};
    ASSERT_TRUE(writer.append(FaultRecord::kType, wal_payload(record), &error))
        << error;
  }
  DaemonOptions options;
  options.wal_path = wal_path_;
  options.recover = true;
  ServiceDaemon daemon(topo, allocator, config, options);
  EXPECT_FALSE(daemon.init(&error));
  EXPECT_NE(error.find("node 99999"), std::string::npos) << error;
}

// A log in the retired JSON-payload format is refused by name.
TEST_F(ServiceRecoveryTest, RetiredWalFormatIsRefusedByName) {
  {
    std::ofstream out(wal_path_, std::ios::binary);
    out << "JGSWWAL1";
  }
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  DaemonOptions options;
  options.wal_path = wal_path_;
  options.recover = true;
  ServiceDaemon daemon(topo, allocator, config, options);
  std::string error;
  EXPECT_FALSE(daemon.init(&error));
  EXPECT_NE(error.find("JGSWWAL1"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Transport-level backpressure over a real socket.
// ---------------------------------------------------------------------------

TEST(ServiceReactor, OversizedLineGetsErrorAndConnectionSurvives) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  ServiceDaemon daemon(topo, allocator, config, DaemonOptions{});
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;

  Reactor::Options reactor_options;
  reactor_options.max_line_bytes = 1024;
  Reactor reactor(reactor_options);
  ASSERT_TRUE(reactor.listen_tcp(0, &error)) << error;
  daemon.attach_reactor(&reactor);
  reactor.set_line_handler([&daemon](Reactor::ClientId, std::string&& line) {
    return daemon.handle_line(line);
  });
  reactor.set_overflow_handler([&daemon](Reactor::ClientId, bool oversized) {
    return daemon.overflow_reply(oversized);
  });
  std::thread server([&reactor]() { reactor.run(); });

  ServiceClient client;
  ASSERT_TRUE(
      client.connect("tcp:" + std::to_string(reactor.port()), &error))
      << error;
  std::string reply;
  ASSERT_TRUE(
      client.request("{\"op\":\"ping\",\"pad\":\"" + std::string(4096, 'x') +
                         "\"}",
                     &reply, &error))
      << error;
  EXPECT_TRUE(has_error(reply, "line_too_long")) << reply;
  // The oversized line was discarded, not the connection: a well-formed
  // request on the same socket still works.
  ASSERT_TRUE(client.request("{\"op\":\"ping\"}", &reply, &error)) << error;
  EXPECT_TRUE(is_ok(reply)) << reply;
  ASSERT_TRUE(client.request("{\"op\":\"shutdown\"}", &reply, &error))
      << error;
  server.join();
}

// notify_fd() is the shutdown self-pipe a signal handler writes to: one
// byte wakes a reactor blocked in poll with no timeout and run() returns
// cleanly.
TEST(ServiceReactor, NotifyFdByteStopsABlockedRun) {
  Reactor reactor;
  std::string error;
  ASSERT_TRUE(reactor.listen_tcp(0, &error)) << error;
  int turns = 0;
  reactor.set_idle_handler([&turns] {
    ++turns;
    return -1.0;  // block until something happens
  });
  bool served = false;
  std::thread server([&] { served = reactor.run(); });
  const char byte = 1;
  ASSERT_EQ(::write(reactor.notify_fd(), &byte, 1), 1);
  server.join();
  EXPECT_TRUE(served);
  EXPECT_GE(turns, 1);
}

/// One cluster as jigsaw_daemon serves it: a daemon with its own
/// allocator and WAL behind a reactor on its own unix socket and thread.
/// Destruction stops the reactor the way SIGTERM does, via notify_fd().
struct ClusterServer {
  ClusterServer(int radix, const std::string& path)
      : topo(FatTree::from_radix(radix)), wal(path + ".wal"),
        socket(path + ".sock") {
    std::remove(wal.c_str());
    DaemonOptions options;
    options.wal_path = wal;
    daemon =
        std::make_unique<ServiceDaemon>(topo, allocator, config, options);
    std::string error;
    EXPECT_TRUE(daemon->init(&error)) << error;
    EXPECT_TRUE(reactor.listen_unix(socket, &error)) << error;
    daemon->attach_reactor(&reactor);
    reactor.set_line_handler(
        [this](Reactor::ClientId id, std::string&& line) {
          return daemon->handle_socket_line(id, std::move(line));
        });
    thread = std::thread([this] { reactor.run(); });
    client.set_timeout(10.0);
    EXPECT_TRUE(client.connect("unix:" + socket, &error)) << error;
  }
  ~ClusterServer() {
    client.close();
    [[maybe_unused]] const ssize_t n = ::write(reactor.notify_fd(), "", 1);
    thread.join();
    std::remove(wal.c_str());
  }

  std::string ask(const std::string& line) {
    std::string reply;
    std::string error;
    EXPECT_TRUE(client.request(line, &reply, &error)) << error;
    return reply;
  }
  /// Submit records in the WAL; each was synced before its ack left.
  std::size_t logged_submits() const {
    std::size_t count = 0;
    for (const WalRecord& record : read_wal(wal).records) {
      if (record.type == WalRecordType::kSubmit) ++count;
    }
    return count;
  }

  FatTree topo;
  std::string wal;
  std::string socket;
  JigsawAllocator allocator;
  SimConfig config;
  std::unique_ptr<ServiceDaemon> daemon;
  Reactor reactor;
  std::thread thread;
  ServiceClient client;
};

// Two clusters are two daemons side by side, each on its own thread,
// socket and WAL: they share no allocator, no id space and no log.
TEST(ServiceReactor, TwoClustersAreTwoDaemonsThatShareNothing) {
  const std::string base = ::testing::TempDir() + "two_clusters_" +
                           std::to_string(::getpid());
  ClusterServer small(4, base + "_small");  // 16 nodes
  ClusterServer large(8, base + "_large");  // 128 nodes
  for (int id = 0; id < 3; ++id) {
    EXPECT_TRUE(is_ok(small.ask("{\"op\":\"submit\",\"id\":" +
                                std::to_string(id) +
                                ",\"nodes\":4,\"runtime\":60}")));
  }
  // Job id 0 again, and a size only the large cluster holds.
  const std::string wide =
      "{\"op\":\"submit\",\"id\":0,\"nodes\":64,\"runtime\":60}";
  EXPECT_TRUE(is_ok(large.ask(wide)));
  EXPECT_TRUE(has_error(small.ask(wide), "oversized_job"));
  EXPECT_NE(small.ask("{\"op\":\"stats\"}").find("\"submitted\":3"),
            std::string::npos);
  EXPECT_NE(large.ask("{\"op\":\"stats\"}").find("\"submitted\":1"),
            std::string::npos);
  EXPECT_EQ(small.logged_submits(), 3u);
  EXPECT_EQ(large.logged_submits(), 1u);
}

// Eight clients on their own threads share one daemon, each submitting
// its slice of a Synth-16 trace: every submit is acked, logged and
// counted.
TEST(ServiceReactor, EightConcurrentClientsGetEverySubmitAcked) {
  const Trace trace = synth16(2000);
  ClusterServer server(16, ::testing::TempDir() + "eight_clients_" +
                               std::to_string(::getpid()));
  constexpr std::size_t kClients = 8;
  std::vector<std::size_t> acked(kClients, 0);
  std::vector<std::string> failure(kClients);
  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      ServiceClient client;
      client.set_timeout(30.0);
      std::string reply;
      if (!client.connect("unix:" + server.socket, &failure[c])) return;
      for (std::size_t k = c; k < trace.jobs.size(); k += kClients) {
        if (!client.request(submit_line(trace.jobs[k]), &reply,
                            &failure[c])) {
          return;
        }
        if (!is_ok(reply)) {
          failure[c] = reply;
          return;
        }
        ++acked[c];
      }
    });
  }
  for (std::thread& t : clients) t.join();

  std::size_t total = 0;
  for (std::size_t c = 0; c < kClients; ++c) {
    EXPECT_EQ(failure[c], "") << "client " << c;
    total += acked[c];
  }
  EXPECT_EQ(total, trace.jobs.size());
  EXPECT_EQ(server.logged_submits(), trace.jobs.size());
  const std::string stats = server.ask("{\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"submitted\":" + std::to_string(trace.jobs.size()) +
                       ","),
            std::string::npos)
      << stats;
}

// ---------------------------------------------------------------------------
// Turn-end handler: the group commit's slot in the reactor loop.
// ---------------------------------------------------------------------------

/// A blocking loopback TCP client with a 5 s receive timeout, so a
/// missing reply fails the test instead of hanging it.
int connect_loopback(int port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  timeval timeout{5, 0};
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Nothing to read yet: no reply byte and no EOF.
bool nothing_to_read(int fd) {
  char byte = 0;
  return ::recv(fd, &byte, 1, MSG_DONTWAIT | MSG_PEEK) < 0 &&
         (errno == EAGAIN || errno == EWOULDBLOCK);
}

/// One reply line, newline included (or what arrived before a timeout).
std::string read_line(int fd) {
  std::string out;
  char byte = 0;
  while (out.empty() || out.back() != '\n') {
    if (::recv(fd, &byte, 1, 0) != 1) break;
    out += byte;
  }
  return out;
}

/// Everything the peer sends until it closes (or the receive timeout).
std::string read_to_eof(int fd) {
  std::string out;
  char buf[256];
  ssize_t n = 0;
  while ((n = ::recv(fd, buf, sizeof(buf), 0)) > 0) {
    out.append(buf, static_cast<std::size_t>(n));
  }
  return n == 0 ? out : out + "<no EOF>";
}

/// A reactor with two clients that each sent one line before run():
/// the first turn accepts both, the second reads and handles both lines.
class TurnEndTest : public ::testing::Test {
 protected:
  void SetUp() override {
    std::string error;
    ASSERT_TRUE(reactor_.listen_tcp(0, &error)) << error;
    a_ = connect_loopback(reactor_.port());
    b_ = connect_loopback(reactor_.port());
    ASSERT_GE(a_, 0);
    ASSERT_GE(b_, 0);
    ASSERT_EQ(::write(a_, "one\n", 4), 4);
    ASSERT_EQ(::write(b_, "two\n", 4), 4);
    reactor_.set_line_handler([this](Reactor::ClientId, std::string&& line) {
      ++handled_;
      return "ack " + line;
    });
  }
  void TearDown() override {
    if (a_ >= 0) ::close(a_);
    if (b_ >= 0) ::close(b_);
  }

  Reactor reactor_;
  int a_ = -1;
  int b_ = -1;
  int handled_ = 0;
};

TEST_F(TurnEndTest, RunsAfterEveryLineOfTheTurnAndBeforeAnyReply) {
  std::vector<int> handled_at_turn_end;
  bool silent_at_commit = false;
  reactor_.set_turn_end_handler([&] {
    handled_at_turn_end.push_back(handled_);
    if (handled_ == 2 && handled_at_turn_end.size() == 2) {
      silent_at_commit = nothing_to_read(a_) && nothing_to_read(b_);
      reactor_.request_stop();
    }
    return true;
  });
  EXPECT_TRUE(reactor_.run());
  // Turn 1 accepted, turn 2 handled both lines, then the final flush.
  EXPECT_EQ(handled_at_turn_end, (std::vector<int>{0, 2, 2}));
  EXPECT_TRUE(silent_at_commit);
  EXPECT_EQ(read_line(a_), "ack one\n");
  EXPECT_EQ(read_line(b_), "ack two\n");
}

TEST_F(TurnEndTest, RefusedTurnSendsNoReplyAndStops) {
  reactor_.set_turn_end_handler([this] { return handled_ == 0; });
  EXPECT_FALSE(reactor_.run());
  EXPECT_EQ(handled_, 2);
  EXPECT_EQ(read_to_eof(a_), "");
  EXPECT_EQ(read_to_eof(b_), "");
}

// ---------------------------------------------------------------------------
// Group commit: one fsync per reactor turn that accepted an input; grants
// and releases never force one.
// ---------------------------------------------------------------------------

std::uint64_t wal_syncs(const std::string& stats_reply) {
  JsonValue doc;
  std::string error;
  if (!parse_json(stats_reply, &doc, &error)) return ~std::uint64_t{0};
  const JsonValue* stats = doc.find("stats");
  const JsonValue* syncs = stats != nullptr ? stats->find("wal_syncs") : nullptr;
  return syncs != nullptr ? static_cast<std::uint64_t>(syncs->as_int())
                          : ~std::uint64_t{0};
}

using GroupCommitTest = ServiceRecoveryTest;

TEST_F(GroupCommitTest, PipelinedSubmitsShareOneFsync) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  DaemonOptions options;
  options.wal_path = wal_path_;
  ServiceDaemon daemon(topo, allocator, config, options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;

  const std::string socket = wal_path_ + ".sock";
  Reactor reactor;
  ASSERT_TRUE(reactor.listen_unix(socket, &error)) << error;
  daemon.attach_reactor(&reactor);
  reactor.set_line_handler(
      [&daemon](Reactor::ClientId id, std::string&& line) {
        return daemon.handle_socket_line(id, std::move(line));
      });
  std::thread server([&reactor]() { reactor.run(); });

  ServiceClient client;
  client.set_timeout(10.0);
  ASSERT_TRUE(client.connect("unix:" + socket, &error)) << error;
  std::string reply;
  ASSERT_TRUE(client.request("{\"op\":\"stats\"}", &reply, &error)) << error;
  const std::uint64_t before = wal_syncs(reply);
  ASSERT_NE(before, ~std::uint64_t{0}) << reply;

  // Eight submits in one write: one read, one turn, one fsync.
  std::string burst;
  for (int k = 0; k < 8; ++k) {
    if (k > 0) burst += '\n';
    burst += "{\"op\":\"submit\",\"nodes\":1,\"runtime\":60}";
  }
  ASSERT_TRUE(client.send(burst, &error)) << error;
  for (int k = 0; k < 8; ++k) {
    ASSERT_TRUE(client.recv(&reply, &error)) << error;
    EXPECT_TRUE(is_ok(reply)) << reply;
  }
  ASSERT_TRUE(client.request("{\"op\":\"stats\"}", &reply, &error)) << error;
  EXPECT_EQ(wal_syncs(reply), before + 1) << reply;
  ASSERT_TRUE(client.request("{\"op\":\"shutdown\"}", &reply, &error))
      << error;
  server.join();
  EXPECT_EQ(read_wal(wal_path_).records.size(), 8u);
}

TEST_F(GroupCommitTest, GrantsAndReleasesForceNoFsync) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  DaemonOptions options;
  options.wal_path = wal_path_;
  ServiceDaemon daemon(topo, allocator, config, options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;

  constexpr std::uint64_t kSubmits = 20;
  for (std::uint64_t k = 0; k < kSubmits; ++k) {
    const std::string reply = daemon.handle_line(
        "{\"op\":\"submit\",\"nodes\":" + std::to_string(1 + k % 4) +
        ",\"runtime\":" + std::to_string(30 + 10 * k) + "}");
    ASSERT_TRUE(is_ok(reply)) << reply;
  }
  ASSERT_TRUE(is_ok(daemon.handle_line("{\"op\":\"drain\"}")));
  const std::string stats = daemon.handle_line("{\"op\":\"stats\"}");
  // One fsync per acknowledged input (the submits and the drain marker).
  EXPECT_EQ(wal_syncs(stats), kSubmits + 1) << stats;
  // Every grant and release went to the log after the drain marker's
  // sync, and none of them forced one.
  const std::string unsynced =
      "\"wal_unsynced_records\":" + std::to_string(2 * kSubmits);
  EXPECT_NE(stats.find(unsynced), std::string::npos) << stats;
  const WalReadResult log = read_wal(wal_path_);
  EXPECT_EQ(log.records.size(), 3 * kSubmits + 1);
}

// A WAL on /dev/null takes every write and fails every fsync (EINVAL): a
// real fsync failure, with no test hook in the writer.
constexpr const char* kUnsyncableWal = "/dev/null";

TEST(GroupCommitFailure, FailedFsyncRefusesTheInputBeforeTheEngineSeesIt) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  DaemonOptions options;
  options.wal_path = kUnsyncableWal;
  ServiceDaemon daemon(topo, allocator, config, options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;

  const std::string reply = daemon.handle_line(
      "{\"op\":\"submit\",\"id\":5,\"nodes\":1,\"runtime\":60}");
  EXPECT_TRUE(has_error(reply, "internal")) << reply;
  EXPECT_NE(reply.find("fsync"), std::string::npos) << reply;
  EXPECT_FALSE(daemon.wal_failure().empty());
  // Refused before the engine applied it: job 5 does not exist.
  EXPECT_TRUE(has_error(daemon.handle_line("{\"op\":\"status\",\"job\":5}"),
                        "unknown_job"));
  EXPECT_EQ(daemon.engine().submitted_count(), 0u);
  // The writer stays refused, so a later input fails at its append.
  EXPECT_TRUE(has_error(
      daemon.handle_line(
          "{\"op\":\"submit\",\"id\":6,\"nodes\":1,\"runtime\":60}"),
      "internal"));
  const std::string stats = daemon.handle_line("{\"op\":\"stats\"}");
  EXPECT_NE(stats.find("\"submitted\":0"), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"wal_syncs\":0"), std::string::npos) << stats;
}

TEST(GroupCommitFailure, FailedTurnFsyncDropsTheRepliesAndStopsTheReactor) {
  const FatTree topo = FatTree::from_radix(4);
  const SimConfig config;
  JigsawAllocator allocator;
  DaemonOptions options;
  options.wal_path = kUnsyncableWal;
  ServiceDaemon daemon(topo, allocator, config, options);
  std::string error;
  ASSERT_TRUE(daemon.init(&error)) << error;

  Reactor reactor;
  ASSERT_TRUE(reactor.listen_tcp(0, &error)) << error;
  daemon.attach_reactor(&reactor);
  reactor.set_line_handler(
      [&daemon](Reactor::ClientId id, std::string&& line) {
        return daemon.handle_socket_line(id, std::move(line));
      });
  bool served = true;
  std::thread server([&] { served = reactor.run(); });

  ServiceClient client;
  client.set_timeout(10.0);
  ASSERT_TRUE(client.connect("tcp:" + std::to_string(reactor.port()), &error))
      << error;
  ASSERT_TRUE(client.send("{\"op\":\"submit\",\"nodes\":1,\"runtime\":60}\n"
                          "{\"op\":\"submit\",\"nodes\":2,\"runtime\":60}",
                          &error))
      << error;
  // Neither ack leaves: the connection closes with no byte of reply.
  std::string reply;
  EXPECT_FALSE(client.recv(&reply, &error)) << reply;
  EXPECT_EQ(error, "connection closed by daemon");
  server.join();
  EXPECT_FALSE(served);
  EXPECT_NE(daemon.wal_failure().find("fsync"), std::string::npos)
      << daemon.wal_failure();
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

TEST(ServiceClientTimeout, MissingDaemonFailsToConnectWithTheReason) {
  const std::string path = ::testing::TempDir() + "no_daemon_" +
                           std::to_string(::getpid()) + ".sock";
  std::remove(path.c_str());
  // Bounded or not, a socket nobody listens on fails at once.
  for (const double timeout : {0.0, 0.5}) {
    ServiceClient client;
    client.set_timeout(timeout);
    std::string error;
    EXPECT_FALSE(client.connect("unix:" + path, &error));
    EXPECT_NE(error.find("connect " + path), std::string::npos) << error;
    std::string reply;
    EXPECT_FALSE(client.request("{\"op\":\"ping\"}", &reply, &error));
    EXPECT_EQ(error, "not connected");
  }
  ServiceClient client;
  std::string error;
  EXPECT_FALSE(client.connect("cluster-7", &error));
  EXPECT_NE(error.find("unix:/path or tcp:PORT"), std::string::npos) << error;
}

}  // namespace
}  // namespace jigsaw::service
