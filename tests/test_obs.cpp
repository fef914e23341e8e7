// Observability layer: sinks, metrics registry, scoped timers, and the
// end-to-end event stream a simulation run produces.
//
// The sink tests validate the emitted bytes with a small recursive-descent
// JSON parser rather than substring checks, so a malformed escape or a
// stray comma fails loudly — this is the acceptance gate for "the Chrome
// trace loads in Perfetto".

#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/jigsaw_allocator.hpp"
#include "obs/cluster_probe.hpp"
#include "obs/metrics_registry.hpp"
#include "obs/observer.hpp"
#include "obs/scoped_timer.hpp"
#include "obs/sink.hpp"
#include "sim/simulator.hpp"
#include "util/table.hpp"

namespace jigsaw {
namespace {

// ---------------------------------------------------------------------------
// Minimal strict JSON parser (objects, arrays, strings, numbers, literals).
// Throws std::runtime_error on any syntax violation.

struct Json {
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };
  Type type = Type::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string str;
  std::vector<Json> array;
  std::map<std::string, Json> object;

  bool has(const std::string& key) const {
    return type == Type::kObject && object.count(key) > 0;
  }
  const Json& at(const std::string& key) const { return object.at(key); }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text) : text_(text) {}

  Json parse() {
    Json v = value();
    skip_ws();
    if (pos_ != text_.size()) fail("trailing content");
    return v;
  }

 private:
  [[noreturn]] void fail(const std::string& what) {
    throw std::runtime_error("JSON error at byte " + std::to_string(pos_) +
                             ": " + what);
  }
  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }
  char peek() {
    if (pos_ >= text_.size()) fail("unexpected end");
    return text_[pos_];
  }
  void expect(char c) {
    if (peek() != c) fail(std::string("expected '") + c + "'");
    ++pos_;
  }
  bool consume_literal(const std::string& lit) {
    if (text_.compare(pos_, lit.size(), lit) != 0) return false;
    pos_ += lit.size();
    return true;
  }

  Json value() {
    skip_ws();
    const char c = peek();
    if (c == '{') return object();
    if (c == '[') return array();
    if (c == '"') {
      Json v;
      v.type = Json::Type::kString;
      v.str = string();
      return v;
    }
    if (c == 't' || c == 'f') {
      Json v;
      v.type = Json::Type::kBool;
      v.boolean = (c == 't');
      if (!consume_literal(c == 't' ? "true" : "false")) fail("bad literal");
      return v;
    }
    if (c == 'n') {
      if (!consume_literal("null")) fail("bad literal");
      return Json{};
    }
    return number();
  }

  Json object() {
    Json v;
    v.type = Json::Type::kObject;
    expect('{');
    skip_ws();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_ws();
      std::string key = string();
      skip_ws();
      expect(':');
      v.object[key] = value();
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Json array() {
    Json v;
    v.type = Json::Type::kArray;
    expect('[');
    skip_ws();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.array.push_back(value());
      skip_ws();
      if (peek() == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail("unterminated string");
      char c = text_[pos_++];
      if (c == '"') return out;
      if (static_cast<unsigned char>(c) < 0x20) fail("raw control char");
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) fail("dangling escape");
      const char e = text_[pos_++];
      switch (e) {
        case '"': out += '"'; break;
        case '\\': out += '\\'; break;
        case '/': out += '/'; break;
        case 'b': out += '\b'; break;
        case 'f': out += '\f'; break;
        case 'n': out += '\n'; break;
        case 'r': out += '\r'; break;
        case 't': out += '\t'; break;
        case 'u': {
          if (pos_ + 4 > text_.size()) fail("short \\u escape");
          for (int k = 0; k < 4; ++k) {
            if (!std::isxdigit(static_cast<unsigned char>(text_[pos_ + k]))) {
              fail("bad \\u escape");
            }
          }
          pos_ += 4;
          out += '?';  // code point itself irrelevant to these tests
          break;
        }
        default: fail("unknown escape");
      }
    }
  }

  Json number() {
    const std::size_t start = pos_;
    if (peek() == '-') ++pos_;
    if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad number");
    if (text_[pos_] == '0') {
      ++pos_;  // JSON: no leading zeros
    } else {
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad frac");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!std::isdigit(static_cast<unsigned char>(peek()))) fail("bad exp");
      while (pos_ < text_.size() &&
             std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
        ++pos_;
      }
    }
    Json v;
    v.type = Json::Type::kNumber;
    v.number = std::stod(text_.substr(start, pos_ - start));
    return v;
  }

  const std::string& text_;
  std::size_t pos_ = 0;
};

Json parse_json(const std::string& text) { return JsonParser(text).parse(); }

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (!line.empty()) lines.push_back(line);
  }
  return lines;
}

// ---------------------------------------------------------------------------
// Sinks

TEST(JsonlSink, EmitsOneValidObjectPerLine) {
  std::ostringstream out;
  {
    obs::JsonlTraceSink sink(out);
    sink.emit(obs::instant("job", "job.arrival", 12.5)
                  .arg("job", std::int64_t{7})
                  .arg("nodes", std::int64_t{64}));
    sink.emit(obs::span("sched", "sched.pass", 30.0, 0.002)
                  .arg("queue_depth", std::int64_t{3}));
    sink.emit(obs::counter("sim", "queue.depth", 30.0)
                  .arg("depth", std::int64_t{3}));
    sink.finish();
  }
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 3u);

  const Json arrival = parse_json(lines[0]);
  EXPECT_EQ(arrival.at("ph").str, "i");
  EXPECT_EQ(arrival.at("cat").str, "job");
  EXPECT_EQ(arrival.at("name").str, "job.arrival");
  EXPECT_DOUBLE_EQ(arrival.at("ts").number, 12.5);
  EXPECT_DOUBLE_EQ(arrival.at("args").at("job").number, 7.0);
  EXPECT_DOUBLE_EQ(arrival.at("args").at("nodes").number, 64.0);

  const Json pass = parse_json(lines[1]);
  EXPECT_EQ(pass.at("ph").str, "X");
  EXPECT_DOUBLE_EQ(pass.at("dur").number, 0.002);

  EXPECT_EQ(parse_json(lines[2]).at("ph").str, "C");
}

TEST(JsonlSink, EscapesStringsAndHandlesNonFinite) {
  std::ostringstream out;
  {
    obs::JsonlTraceSink sink(out);
    sink.emit(obs::instant("sim", "weird", 0.0)
                  .arg("text", std::string("a\"b\\c\nd\te"))
                  .arg("inf", std::numeric_limits<double>::infinity())
                  .arg("nan", std::nan("")));
    sink.finish();
  }
  const auto lines = split_lines(out.str());
  ASSERT_EQ(lines.size(), 1u);
  const Json e = parse_json(lines[0]);  // must still parse cleanly
  EXPECT_EQ(e.at("args").at("text").str, "a\"b\\c\nd\te");
}

TEST(ChromeSink, ProducesValidTraceEventArray) {
  std::ostringstream out;
  {
    obs::ChromeTraceSink sink(out);
    sink.emit(obs::instant("job", "job.arrival", 1.5).arg("job",
                                                          std::int64_t{1}));
    sink.emit(obs::span("sched", "sched.pass", 2.0, 0.25));
    sink.emit(obs::counter("sim", "queue.depth", 2.0)
                  .arg("depth", std::int64_t{9}));
    sink.finish();
  }
  const Json trace = parse_json(out.str());
  ASSERT_EQ(trace.type, Json::Type::kArray);
  ASSERT_EQ(trace.array.size(), 3u);

  // Every event carries the keys the trace viewers require.
  for (const Json& e : trace.array) {
    ASSERT_EQ(e.type, Json::Type::kObject);
    EXPECT_TRUE(e.has("name"));
    EXPECT_TRUE(e.has("cat"));
    EXPECT_TRUE(e.has("ph"));
    EXPECT_TRUE(e.has("ts"));
    EXPECT_TRUE(e.has("pid"));
    EXPECT_TRUE(e.has("tid"));
  }
  // Simulation seconds map to trace microseconds.
  EXPECT_DOUBLE_EQ(trace.array[0].at("ts").number, 1.5e6);
  EXPECT_EQ(trace.array[1].at("ph").str, "X");
  EXPECT_DOUBLE_EQ(trace.array[1].at("dur").number, 0.25e6);
  EXPECT_EQ(trace.array[2].at("ph").str, "C");
  EXPECT_DOUBLE_EQ(trace.array[2].at("args").at("depth").number, 9.0);
}

TEST(ChromeSink, EmptyTraceIsAnEmptyArray) {
  std::ostringstream out;
  {
    obs::ChromeTraceSink sink(out);
    sink.finish();
  }
  const Json trace = parse_json(out.str());
  EXPECT_EQ(trace.type, Json::Type::kArray);
  EXPECT_TRUE(trace.array.empty());
}

TEST(SinkFactory, MakesBothFormatsAndRejectsOthers) {
  std::ostringstream out;
  EXPECT_NE(obs::make_sink("jsonl", out), nullptr);
  EXPECT_NE(obs::make_sink("chrome", out), nullptr);
  EXPECT_THROW(obs::make_sink("xml", out), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Metrics registry

TEST(MetricsRegistry, CountersGaugesHistograms) {
  obs::MetricsRegistry reg;
  reg.counter("sched.passes").add();
  reg.counter("sched.passes").add(4);
  reg.gauge("queue.depth").set(17.0);
  obs::Histogram& h = reg.histogram("alloc.call_seconds");
  h.add(0.5);
  h.add(2.0);
  h.add(8.0);

  EXPECT_EQ(reg.counter("sched.passes").value(), 5u);
  EXPECT_DOUBLE_EQ(reg.gauge("queue.depth").value(), 17.0);
  EXPECT_EQ(h.count(), 3u);
  EXPECT_DOUBLE_EQ(h.sum(), 10.5);
  EXPECT_DOUBLE_EQ(h.min(), 0.5);
  EXPECT_DOUBLE_EQ(h.max(), 8.0);
  EXPECT_DOUBLE_EQ(h.mean(), 3.5);
  // Percentiles are bucket estimates but must respect observed bounds.
  EXPECT_GE(h.percentile(50), 0.5);
  EXPECT_LE(h.percentile(50), 8.0);
  EXPECT_DOUBLE_EQ(h.percentile(0), 0.5);
  EXPECT_DOUBLE_EQ(h.percentile(100), 8.0);

  EXPECT_EQ(reg.find_counter("sched.passes")->value(), 5u);
  EXPECT_EQ(reg.find_counter("nope"), nullptr);
  EXPECT_EQ(reg.find_gauge("nope"), nullptr);
  EXPECT_EQ(reg.find_histogram("nope"), nullptr);
}

TEST(MetricsRegistry, NameKindsAreDisjoint) {
  obs::MetricsRegistry reg;
  reg.counter("x");
  EXPECT_THROW(reg.gauge("x"), std::logic_error);
  EXPECT_THROW(reg.histogram("x"), std::logic_error);
  reg.gauge("y");
  EXPECT_THROW(reg.counter("y"), std::logic_error);
}

TEST(Histogram, PowerOfTwoBucketsCoverTheirRanges) {
  obs::Histogram h;
  h.add(0.0);    // underflow bucket
  h.add(-3.0);   // underflow bucket
  h.add(1.0);    // [1, 2)
  h.add(1.999);  // [1, 2)
  h.add(2.0);    // [2, 4)
  EXPECT_EQ(h.bucket_count(0), 2u);
  EXPECT_DOUBLE_EQ(obs::Histogram::bucket_lo(0), 0.0);
  // Find the [1, 2) bucket and check exactly two samples landed there.
  for (int b = 1; b < obs::Histogram::kBuckets; ++b) {
    if (obs::Histogram::bucket_lo(b) == 1.0) {
      EXPECT_DOUBLE_EQ(obs::Histogram::bucket_hi(b), 2.0);
      EXPECT_EQ(h.bucket_count(b), 2u);
    }
  }
  EXPECT_EQ(h.count(), 5u);
}

TEST(MetricsRegistry, JsonSnapshotParsesAndRoundTrips) {
  obs::MetricsRegistry reg;
  reg.counter("jobs.completed").add(42);
  reg.gauge("cluster.node_occupancy").set(0.875);
  reg.histogram("sched.pass_seconds").add(0.001);
  reg.histogram("sched.pass_seconds").add(0.004);

  std::ostringstream out;
  reg.write_json(out);
  const Json snap = parse_json(out.str());

  EXPECT_DOUBLE_EQ(snap.at("counters").at("jobs.completed").number, 42.0);
  EXPECT_DOUBLE_EQ(snap.at("gauges").at("cluster.node_occupancy").number,
                   0.875);
  const Json& h = snap.at("histograms").at("sched.pass_seconds");
  EXPECT_DOUBLE_EQ(h.at("count").number, 2.0);
  EXPECT_DOUBLE_EQ(h.at("sum").number, 0.005);
  EXPECT_DOUBLE_EQ(h.at("min").number, 0.001);
  EXPECT_DOUBLE_EQ(h.at("max").number, 0.004);
  ASSERT_EQ(h.at("buckets").type, Json::Type::kArray);
  double bucket_total = 0.0;
  for (const Json& b : h.at("buckets").array) {
    EXPECT_LT(b.at("lo").number, b.at("hi").number);
    bucket_total += b.at("count").number;
  }
  EXPECT_DOUBLE_EQ(bucket_total, 2.0);  // only non-empty buckets exported
}

TEST(ScopedTimer, RecordsWhenEnabledOnly) {
  obs::Histogram h;
  {
    obs::ScopedTimer t(&h);
    const double first = t.stop();
    EXPECT_GE(first, 0.0);
    EXPECT_DOUBLE_EQ(t.stop(), first);  // idempotent
  }
  EXPECT_EQ(h.count(), 1u);  // destructor after stop() records nothing new

  obs::ScopedTimer off(&h, false);
  EXPECT_DOUBLE_EQ(off.stop(), 0.0);
  EXPECT_EQ(h.count(), 1u);

  obs::ScopedTimer null_hist(nullptr);  // enabled, nowhere to record
  EXPECT_GE(null_hist.stop(), 0.0);
}

// ---------------------------------------------------------------------------
// Cluster occupancy probe

TEST(ClusterProbe, MeasuresOccupancyDirectlyFromState) {
  const FatTree topo = FatTree::from_radix(4);
  ClusterState state(topo);
  const obs::ClusterOccupancy empty = obs::measure_occupancy(state);
  EXPECT_DOUBLE_EQ(empty.node_occupancy, 0.0);
  EXPECT_DOUBLE_EQ(empty.leaf_up_occupancy, 0.0);
  EXPECT_DOUBLE_EQ(empty.l2_up_occupancy, 0.0);
  EXPECT_EQ(empty.free_nodes, topo.total_nodes());

  JigsawAllocator alloc;
  auto a = alloc.allocate(state, JobRequest{1, topo.total_nodes() / 2, 0.0});
  ASSERT_TRUE(a.has_value());
  state.apply(*a);
  const obs::ClusterOccupancy half = obs::measure_occupancy(state);
  EXPECT_GT(half.node_occupancy, 0.0);
  EXPECT_EQ(half.free_nodes, topo.total_nodes() - a->allocated_nodes());
}

// ---------------------------------------------------------------------------
// End-to-end: a simulation run with observers attached

Trace obs_trace() {
  Trace trace;
  trace.name = "obs";
  trace.jobs = {
      Job{0, 0.0, 10, 100.0, 1.0}, Job{1, 0.0, 20, 50.0, 1.0},
      Job{2, 10.0, 64, 30.0, 1.0}, Job{3, 20.0, 4, 200.0, 1.0},
      Job{4, 30.0, 1, 10.0, 1.0},
  };
  normalize(trace);
  return trace;
}

TEST(SimulatorObs, EmitsLifecycleEventsAndMetrics) {
  const FatTree topo = FatTree::from_radix(8);
  const Trace trace = obs_trace();
  JigsawAllocator alloc;

  std::ostringstream out;
  obs::JsonlTraceSink sink(out);
  obs::MetricsRegistry reg;
  SimConfig config;
  config.obs.sink = &sink;
  config.obs.metrics = &reg;

  const SimMetrics m = simulate(topo, alloc, trace, config);
  sink.finish();
  ASSERT_EQ(m.completed, trace.jobs.size());

  std::map<std::string, int> by_name;
  const auto lines = split_lines(out.str());
  for (const auto& line : lines) {
    const Json e = parse_json(line);  // every line must be valid JSON
    by_name[e.at("name").str] += 1;
  }
  const int jobs = static_cast<int>(trace.jobs.size());
  EXPECT_EQ(by_name["sim.run_start"], 1);
  EXPECT_EQ(by_name["sim.run_end"], 1);
  EXPECT_EQ(by_name["job.arrival"], jobs);
  EXPECT_EQ(by_name["job.start"], jobs);
  EXPECT_EQ(by_name["job.completion"], jobs);
  EXPECT_GT(by_name["sched.pass"], 0);
  EXPECT_GT(by_name["alloc.attempt"], 0);

  // The metrics registry agrees with both the events and SimMetrics.
  EXPECT_EQ(reg.counter("jobs.completed").value(),
            static_cast<std::uint64_t>(m.completed));
  EXPECT_EQ(reg.counter("jobs.started").value(),
            static_cast<std::uint64_t>(jobs));
  EXPECT_EQ(reg.counter("sched.passes").value(), m.sched_passes);
  EXPECT_EQ(reg.counter("alloc.calls").value(), m.allocate_calls);
  EXPECT_EQ(reg.counter("alloc.search_steps").value(), m.search_steps);
  EXPECT_EQ(reg.counter("sched.backfill_memo_skips").value(),
            m.backfill_memo_skips);
  EXPECT_EQ(reg.histogram("sched.pass_seconds").count(), m.sched_passes);
  EXPECT_GT(reg.histogram("jobs.wait_seconds").count(), 0u);
  // Occupancy gauges were sampled and the run ended with an empty machine.
  EXPECT_DOUBLE_EQ(reg.gauge("cluster.node_occupancy").value(), 0.0);
  EXPECT_DOUBLE_EQ(reg.gauge("queue.depth").value(), 0.0);
}

TEST(SimulatorObs, MetricsOnlyRunNeedsNoSink) {
  const FatTree topo = FatTree::from_radix(8);
  const Trace trace = obs_trace();
  JigsawAllocator alloc;

  obs::MetricsRegistry reg;
  SimConfig config;
  config.obs.metrics = &reg;
  const SimMetrics m = simulate(topo, alloc, trace, config);
  EXPECT_EQ(reg.counter("jobs.completed").value(),
            static_cast<std::uint64_t>(m.completed));
}

TEST(SimulatorObs, DefaultNullContextMatchesInstrumentedRun) {
  const FatTree topo = FatTree::from_radix(8);
  const Trace trace = obs_trace();
  JigsawAllocator alloc_plain;
  JigsawAllocator alloc_traced;

  const SimMetrics plain = simulate(topo, alloc_plain, trace, SimConfig{});

  std::ostringstream out;
  obs::ChromeTraceSink sink(out);
  obs::MetricsRegistry reg;
  SimConfig config;
  config.obs.sink = &sink;
  config.obs.metrics = &reg;
  const SimMetrics traced = simulate(topo, alloc_traced, trace, config);
  sink.finish();
  parse_json(out.str());  // chrome output of a real run is valid JSON

  // Observation must not perturb the simulation itself.
  EXPECT_EQ(plain.completed, traced.completed);
  EXPECT_DOUBLE_EQ(plain.makespan, traced.makespan);
  EXPECT_DOUBLE_EQ(plain.steady_utilization, traced.steady_utilization);
  EXPECT_EQ(plain.allocate_calls, traced.allocate_calls);
  EXPECT_EQ(plain.search_steps, traced.search_steps);
}

// ---------------------------------------------------------------------------
// Table JSON export (--json-out)

TEST(TableJson, EmitsNumbersAndEscapedStrings) {
  TablePrinter table({"Scheme", "Utilization %", "Note"});
  table.add_row({"Jigsaw", "95.9", "ok"});
  table.add_row({"LC+S", "-1.5e2", "quote\"here"});
  table.add_row({"TA", "1e", "07"});  // neither is a JSON number

  std::ostringstream out;
  table.write_json(out, "fig6");
  const Json doc = parse_json(out.str());
  EXPECT_EQ(doc.at("name").str, "fig6");
  ASSERT_EQ(doc.at("headers").array.size(), 3u);
  ASSERT_EQ(doc.at("rows").array.size(), 3u);

  const Json& row0 = doc.at("rows").array[0];
  EXPECT_EQ(row0.at("Scheme").str, "Jigsaw");
  EXPECT_EQ(row0.at("Utilization %").type, Json::Type::kNumber);
  EXPECT_DOUBLE_EQ(row0.at("Utilization %").number, 95.9);

  const Json& row1 = doc.at("rows").array[1];
  EXPECT_DOUBLE_EQ(row1.at("Utilization %").number, -150.0);
  EXPECT_EQ(row1.at("Note").str, "quote\"here");

  // "1e" (bad exponent) and "07" (leading zero) must stay strings.
  const Json& row2 = doc.at("rows").array[2];
  EXPECT_EQ(row2.at("Utilization %").type, Json::Type::kString);
  EXPECT_EQ(row2.at("Note").type, Json::Type::kString);
}

}  // namespace
}  // namespace jigsaw
