#include "service/shard.hpp"

#include <chrono>
#include <cstdint>
#include <iterator>
#include <map>
#include <sstream>
#include <utility>

#include "obs/sink.hpp"  // json_escape
#include "service/json.hpp"

namespace jigsaw::service {

namespace {

bool is_ok_reply(const std::string& reply) {
  return reply.rfind("{\"ok\":true", 0) == 0;
}

/// Echo the original request's seq into a reply built without one (the
/// per-cluster broadcast lines are seq-less so their replies compose).
std::string with_seq(std::string reply, const std::string& seq) {
  if (seq.empty() || reply.empty() || reply.back() != '}') return reply;
  reply.insert(reply.size() - 1, ",\"seq\":" + seq);
  return reply;
}

std::string http_response(int status, const char* reason,
                          const char* content_type, const std::string& body) {
  std::string out =
      "HTTP/1.0 " + std::to_string(status) + " " + reason + "\r\n";
  out += std::string("Content-Type: ") + content_type + "\r\n";
  out += "Content-Length: " + std::to_string(body.size()) + "\r\n";
  out += "Connection: close\r\n\r\n";
  out += body;
  return out;
}

/// `name{a="b"} v` or `name v` -> the same sample tagged cluster="k".
std::string label_sample(const std::string& line, int cluster) {
  const std::string tag = "cluster=\"" + std::to_string(cluster) + "\"";
  const std::size_t brace = line.find('{');
  const std::size_t space = line.find(' ');
  std::string out = line;
  if (brace != std::string::npos &&
      (space == std::string::npos || brace < space)) {
    out.insert(brace + 1, tag + ",");
  } else if (space != std::string::npos) {
    out.insert(space, "{" + tag + "}");
  }
  return out;
}

/// Merge per-cluster Prometheus expositions into one: metric families
/// grouped (first-appearance order) so each `# TYPE` precedes every
/// labeled sample of its family across all clusters.
std::string merge_expositions(const std::vector<std::string>& parts) {
  std::vector<std::string> order;
  std::map<std::string, std::string> type_line;
  std::map<std::string, std::vector<std::pair<int, std::string>>> samples;
  for (int k = 0; k < static_cast<int>(parts.size()); ++k) {
    std::istringstream in(parts[static_cast<std::size_t>(k)]);
    std::string line;
    std::string family;
    while (std::getline(in, line)) {
      if (line.empty()) continue;
      if (line.rfind("# TYPE ", 0) == 0) {
        std::istringstream words(line);
        std::string hash, kw;
        words >> hash >> kw >> family;
        if (type_line.emplace(family, line).second) order.push_back(family);
        continue;
      }
      if (family.empty()) continue;  // malformed: sample before any TYPE
      samples[family].emplace_back(k, label_sample(line, k));
    }
  }
  std::string out;
  for (const std::string& family : order) {
    out += type_line[family];
    out += '\n';
    for (const auto& [cluster, line] : samples[family]) {
      (void)cluster;
      out += line;
      out += '\n';
    }
  }
  return out;
}

std::uint64_t stat_u64(const JsonValue& stats, const char* key) {
  const JsonValue* v = stats.find(key);
  return v != nullptr && v->is_number()
             ? static_cast<std::uint64_t>(v->as_double())
             : 0;
}

}  // namespace

ShardSet::ShardSet(const FatTree& topo,
                   std::vector<const Allocator*> allocators,
                   const SimConfig& config, ShardOptions options)
    : topo_(&topo),
      allocators_(std::move(allocators)),
      config_(config),
      options_(options),
      clusters_(options.clusters),
      shards_(options.shards) {}

ShardSet::~ShardSet() { stop(); }

bool ShardSet::init(std::string* error) {
  if (clusters_ < 1 || shards_ < 1) {
    if (error != nullptr) *error = "clusters and shards must be >= 1";
    return false;
  }
  if (shards_ > clusters_) shards_ = clusters_;  // extra workers would idle
  if (allocators_.empty() ||
      (allocators_.size() != 1 &&
       static_cast<int>(allocators_.size()) != clusters_)) {
    if (error != nullptr) {
      *error = "need 1 shared allocator or exactly one per cluster";
    }
    return false;
  }
  if (clusters_ > 1 && config_.obs.sink != nullptr) {
    if (error != nullptr) {
      *error = "trace sinks are single-threaded; --trace-out requires "
               "a single cluster";
    }
    return false;
  }
  daemons_.reserve(static_cast<std::size_t>(clusters_));
  for (int c = 0; c < clusters_; ++c) {
    SimConfig cfg = config_;
    if (clusters_ > 1 && config_.obs.metrics != nullptr) {
      // Counters/gauges are non-atomic: each cluster meters into its own
      // registry, read only by the owning worker (the caller's registry
      // just signals "metrics on").
      registries_.push_back(std::make_unique<obs::MetricsRegistry>());
      cfg.obs.metrics = registries_.back().get();
    }
    DaemonOptions dopt = options_.daemon;
    if (clusters_ > 1 && !dopt.wal_path.empty()) {
      dopt.wal_path += ".c" + std::to_string(c);
    }
    daemons_.push_back(std::make_unique<ServiceDaemon>(
        *topo_, alloc(c), cfg, dopt));
    std::string derr;
    if (!daemons_.back()->init(&derr)) {
      if (error != nullptr) {
        *error = "cluster " + std::to_string(c) + ": " + derr;
      }
      return false;
    }
  }
  return true;
}

void ShardSet::start() {
  if (started_) return;
  workers_.clear();
  for (int s = 0; s < shards_; ++s) {
    workers_.push_back(std::make_unique<Shard>());
  }
  started_ = true;
  for (int s = 0; s < shards_; ++s) {
    workers_[static_cast<std::size_t>(s)]->thread =
        std::thread([this, s] { worker_main(s); });
  }
}

void ShardSet::stop() {
  if (!started_) return;
  for (auto& w : workers_) {
    {
      std::lock_guard<std::mutex> lock(w->mu);
      w->stop = true;
    }
    w->cv.notify_one();
  }
  for (auto& w : workers_) {
    if (w->thread.joinable()) w->thread.join();
  }
  started_ = false;
}

void ShardSet::worker_main(int shard) {
  Shard& w = *workers_[static_cast<std::size_t>(shard)];
  std::vector<Task> batch;
  std::vector<Reply> replies;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(w.mu);
      w.cv.wait_for(lock, std::chrono::milliseconds(20),
                    [&] { return w.stop || !w.inbox.empty(); });
      if (w.stop && w.inbox.empty()) break;
      batch.assign(std::make_move_iterator(w.inbox.begin()),
                   std::make_move_iterator(w.inbox.end()));
      w.inbox.clear();
    }
    // The whole inbox applies back-to-back (admission batching), one
    // fsync per owned daemon makes it durable (group commit), and only
    // then do the replies leave, in one outbox burst and one reactor
    // wake — per-reply wake() calls would cost a syscall each under load.
    for (Task& t : batch) run_task(t, &replies);
    batch.clear();
    commit_batch(shard, &replies);
    flush_replies(replies);
    for (int c = shard; c < clusters_; c += shards_) {
      daemons_[static_cast<std::size_t>(c)]->on_idle();
    }
  }
  for (int c = shard; c < clusters_; c += shards_) {
    daemons_[static_cast<std::size_t>(c)]->flush();
  }
}

void ShardSet::run_task(Task& t, std::vector<Reply>* sink) {
  ServiceDaemon& d = *daemons_[static_cast<std::size_t>(t.cluster)];
  std::string part =
      t.metrics_text ? d.metrics_text() : d.handle_line_deferred(t.line);
  if (t.bcast != nullptr) {
    // No broadcast op acks an input: drain and snapshot sync for
    // themselves, stats and metrics only read.
    finish_part(t.bcast, t.cluster, std::move(part), sink);
    return;
  }
  deliver(Reply{.client = t.client,
                .text = std::move(part),
                .cluster = t.cluster,
                .done = std::move(t.done)},
          sink);
}

void ShardSet::commit_batch(int shard, std::vector<Reply>* replies) {
  for (int c = shard; c < clusters_; c += shards_) {
    std::string error;
    if (daemons_[static_cast<std::size_t>(c)]->commit(&error)) continue;
    {
      std::lock_guard<std::mutex> lock(failure_mu_);
      if (failure_.empty()) {
        failure_ = "cluster " + std::to_string(c) + ": " + error;
      }
    }
    std::erase_if(*replies, [c](const Reply& r) { return r.cluster == c; });
    if (reactor_ != nullptr) reactor_->wake();
  }
}

std::string ShardSet::failure() const {
  std::lock_guard<std::mutex> lock(failure_mu_);
  return failure_;
}

void ShardSet::attach_reactor(Reactor* reactor) {
  reactor_ = reactor;
  reactor_->set_turn_end_handler([this] { return failure().empty(); });
}

void ShardSet::enqueue(Task task) {
  Shard& w = *workers_[static_cast<std::size_t>(owner(task.cluster))];
  {
    std::lock_guard<std::mutex> lock(w.mu);
    w.inbox.push_back(std::move(task));
  }
  w.cv.notify_one();
}

void ShardSet::finish_part(const std::shared_ptr<Broadcast>& b, int cluster,
                           std::string part, std::vector<Reply>* sink) {
  bool last = false;
  {
    std::lock_guard<std::mutex> lock(b->mu);
    b->parts[static_cast<std::size_t>(cluster)] = std::move(part);
    last = --b->remaining == 0;
  }
  if (!last) return;
  std::string reply = compose(b->op, b->seq, b->http, b->parts);
  deliver(Reply{.client = b->client,
                .text = std::move(reply),
                .raw = b->http,
                .close = b->http},
          sink);
}

void ShardSet::deliver(Reply reply, std::vector<Reply>* sink) {
  if (sink != nullptr) {
    sink->push_back(std::move(reply));
    return;
  }
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    outbox_.push_back(std::move(reply));
  }
  if (reactor_ != nullptr) reactor_->wake();
}

void ShardSet::flush_replies(std::vector<Reply>& replies) {
  for (const Reply& r : replies) {
    if (r.done) r.done(r.text);
  }
  std::erase_if(replies, [](const Reply& r) { return r.done != nullptr; });
  if (replies.empty()) return;
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    outbox_.insert(outbox_.end(), std::make_move_iterator(replies.begin()),
                   std::make_move_iterator(replies.end()));
  }
  replies.clear();
  if (reactor_ != nullptr) reactor_->wake();
}

double ShardSet::on_idle() {
  std::vector<Reply> replies;
  {
    std::lock_guard<std::mutex> lock(outbox_mu_);
    replies.swap(outbox_);
  }
  if (reactor_ != nullptr) {
    for (Reply& r : replies) {
      if (r.raw) {
        reactor_->send_raw(r.client, r.text);
      } else if (!r.text.empty()) {
        reactor_->send(r.client, r.text);
      }
      if (r.close) reactor_->close_client(r.client);
    }
  }
  // Delivered replies sit in client buffers until the iteration-end
  // flush; a zero timeout reaches it without blocking in poll first.
  return replies.empty() ? -1.0 : 0.0;
}

std::string ShardSet::overflow_reply(bool oversized_line) {
  // Protocol-level, engine-free: safe on the reactor thread.
  return oversized_line
             ? error_reply(ErrorCode::kLineTooLong, "request line too long")
             : error_reply(ErrorCode::kQueueFull,
                           "client pending-request queue full");
}

void ShardSet::post(int cluster, std::string line,
                    std::function<void(const std::string&)> done) {
  if (!started_ || cluster < 0 || cluster >= clusters_) {
    if (done) {
      done(error_reply(ErrorCode::kBadRequest,
                       "unknown cluster " + std::to_string(cluster)));
    }
    return;
  }
  Task t;
  t.cluster = cluster;
  t.line = std::move(line);
  t.done = std::move(done);
  enqueue(std::move(t));
}

std::string ShardSet::broadcast_line(RequestOp op) {
  switch (op) {
    case RequestOp::kStats: return "{\"op\":\"stats\"}";
    case RequestOp::kMetrics: return "{\"op\":\"metrics\"}";
    case RequestOp::kDrain: return "{\"op\":\"drain\"}";
    case RequestOp::kSnapshot: return "{\"op\":\"snapshot\"}";
    default: return "{\"op\":\"ping\"}";
  }
}

std::string ShardSet::broadcast(Reactor::ClientId client, RequestOp op,
                                const std::string& seq, bool http) {
  if (!started_) {
    std::vector<std::string> parts;
    parts.reserve(static_cast<std::size_t>(clusters_));
    for (int c = 0; c < clusters_; ++c) {
      ServiceDaemon& d = *daemons_[static_cast<std::size_t>(c)];
      parts.push_back(http ? d.metrics_text()
                           : d.handle_line(broadcast_line(op)));
    }
    return compose(op, seq, http, parts);
  }
  auto b = std::make_shared<Broadcast>();
  b->client = client;
  b->http = http;
  b->seq = seq;
  b->op = op;
  b->remaining = clusters_;
  b->parts.resize(static_cast<std::size_t>(clusters_));
  for (int c = 0; c < clusters_; ++c) {
    Task t;
    t.client = client;
    t.cluster = c;
    t.metrics_text = http;
    if (!http) t.line = broadcast_line(op);
    t.bcast = b;
    enqueue(std::move(t));
  }
  return std::string();
}

std::string ShardSet::compose(RequestOp op, const std::string& seq, bool http,
                              const std::vector<std::string>& parts) const {
  if (http) return compose_http(parts);
  for (const std::string& part : parts) {
    if (!is_ok_reply(part)) return with_seq(part, seq);
  }
  switch (op) {
    case RequestOp::kStats:
      return compose_stats(seq, parts);
    case RequestOp::kMetrics: {
      std::vector<std::string> texts;
      texts.reserve(parts.size());
      for (const std::string& part : parts) {
        JsonValue doc;
        std::string perr;
        const JsonValue* body = nullptr;
        if (parse_json(part, &doc, &perr)) body = doc.find("body");
        if (body == nullptr || !body->is_string()) {
          return error_reply(ErrorCode::kInternal,
                             "unparseable per-cluster metrics reply", seq);
        }
        texts.push_back(body->as_string());
      }
      std::string out = ",\"format\":\"prometheus\",\"body\":\"";
      out += obs::json_escape(merge_expositions(texts));
      out += '"';
      return ok_reply(out, seq);
    }
    case RequestOp::kDrain: {
      // Per-cluster reply is `{"ok":true,"metrics":{...}}` (seq-less);
      // splice the raw metrics objects so %.17g values pass through
      // byte-identical.
      std::string out = ",\"metrics\":[";
      for (std::size_t k = 0; k < parts.size(); ++k) {
        const std::string& part = parts[k];
        const std::size_t pos = part.find("\"metrics\":");
        if (pos == std::string::npos || part.back() != '}') {
          return error_reply(ErrorCode::kInternal,
                             "unparseable per-cluster drain reply", seq);
        }
        if (k > 0) out += ',';
        out += part.substr(pos + 10, part.size() - (pos + 10) - 1);
      }
      out += ']';
      return ok_reply(out, seq);
    }
    case RequestOp::kSnapshot: {
      std::string out = ",\"snapshots\":[";
      for (std::size_t k = 0; k < parts.size(); ++k) {
        const std::string& part = parts[k];  // {"ok":true,"epoch":...}
        if (k > 0) out += ',';
        out += "{\"cluster\":" + std::to_string(k);
        if (part.size() > 11) {
          out += part.substr(10, part.size() - 11);  // ,"epoch":E,...
        }
        out += '}';
      }
      out += ']';
      return ok_reply(out, seq);
    }
    default:
      return error_reply(ErrorCode::kInternal, "not a broadcast op", seq);
  }
}

std::string ShardSet::compose_stats(
    const std::string& seq, const std::vector<std::string>& parts) const {
  std::uint64_t queue_depth = 0, running = 0, submitted = 0, completed = 0,
                cancelled = 0, active = 0, grants = 0, releases = 0,
                wal_bytes = 0, wal_syncs = 0;
  std::string per_cluster = "[";
  for (std::size_t k = 0; k < parts.size(); ++k) {
    const std::string& part = parts[k];
    JsonValue doc;
    std::string perr;
    const JsonValue* stats = nullptr;
    if (parse_json(part, &doc, &perr)) stats = doc.find("stats");
    const std::size_t pos = part.find("\"stats\":");
    if (stats == nullptr || pos == std::string::npos || part.back() != '}') {
      return error_reply(ErrorCode::kInternal,
                         "unparseable per-cluster stats reply", seq);
    }
    queue_depth += stat_u64(*stats, "queue_depth");
    running += stat_u64(*stats, "running");
    submitted += stat_u64(*stats, "submitted");
    completed += stat_u64(*stats, "completed");
    cancelled += stat_u64(*stats, "cancelled");
    active += stat_u64(*stats, "active");
    grants += stat_u64(*stats, "grants");
    releases += stat_u64(*stats, "releases");
    wal_bytes += stat_u64(*stats, "wal_bytes");
    wal_syncs += stat_u64(*stats, "wal_syncs");
    if (k > 0) per_cluster += ',';
    // Raw per-cluster stats object, %.17g values untouched.
    per_cluster += part.substr(pos + 8, part.size() - (pos + 8) - 1);
  }
  per_cluster += ']';
  std::string s = "{\"clusters\":" + std::to_string(clusters_);
  s += ",\"shards\":" + std::to_string(shards_);
  s += ",\"queue_depth\":" + std::to_string(queue_depth);
  s += ",\"running\":" + std::to_string(running);
  s += ",\"submitted\":" + std::to_string(submitted);
  s += ",\"completed\":" + std::to_string(completed);
  s += ",\"cancelled\":" + std::to_string(cancelled);
  s += ",\"active\":" + std::to_string(active);
  s += ",\"grants\":" + std::to_string(grants);
  s += ",\"releases\":" + std::to_string(releases);
  s += ",\"wal_bytes\":" + std::to_string(wal_bytes);
  s += ",\"wal_syncs\":" + std::to_string(wal_syncs);
  s += ",\"per_cluster\":" + per_cluster;
  s += '}';
  return ok_reply(",\"stats\":" + s, seq);
}

std::string ShardSet::compose_http(
    const std::vector<std::string>& parts) const {
  for (const std::string& part : parts) {
    if (part.empty()) {
      return http_response(503, "Service Unavailable",
                           "text/plain; charset=utf-8",
                           "metrics are disabled (run the daemon with "
                           "--metrics)\n");
    }
  }
  return http_response(200, "OK",
                       "text/plain; version=0.0.4; charset=utf-8",
                       merge_expositions(parts));
}

std::string ShardSet::handle_socket_line(Reactor::ClientId client,
                                         std::string&& line) {
  if (reactor_ != nullptr) {
    if (http_clients_.count(client) != 0) {
      return std::string();  // remaining header lines of a served GET
    }
    if (line.rfind("GET ", 0) == 0) {
      if (http_clients_.size() >= 1024) http_clients_.clear();
      http_clients_.insert(client);
      std::string path;
      {
        std::istringstream words(line);
        std::string method;
        words >> method >> path;
      }
      if (path != "/metrics") {
        reactor_->send_raw(
            client, http_response(404, "Not Found",
                                  "text/plain; charset=utf-8",
                                  "only /metrics is served here\n"));
        reactor_->close_client(client);
        return std::string();
      }
      const std::string reply =
          broadcast(client, RequestOp::kMetrics, std::string(), /*http=*/true);
      if (!started_) {  // inline: the broadcast composed synchronously
        reactor_->send_raw(client, reply);
        reactor_->close_client(client);
      }
      return std::string();
    }
  }
  return route(client, line);
}

std::string ShardSet::handle_line(const std::string& line) {
  return route(0, line);
}

std::string ShardSet::route(Reactor::ClientId client,
                            const std::string& line) {
  Request req;
  ParseFailure failure;
  if (!parse_request(line, &req, &failure)) {
    return error_reply(failure.code, failure.message, failure.seq);
  }
  // An explicit cluster id is validated whatever the op — a typoed id
  // must fail loudly even on front-end-answered ops like ping.
  if (req.cluster.has_value() && *req.cluster >= clusters_) {
    return error_reply(ErrorCode::kBadRequest,
                       "unknown cluster " + std::to_string(*req.cluster) +
                           " (this service hosts clusters 0.." +
                           std::to_string(clusters_ - 1) + ")",
                       req.seq);
  }
  switch (req.op) {
    case RequestOp::kPing: {
      std::string body = ",\"clusters\":" + std::to_string(clusters_);
      body += ",\"shards\":" + std::to_string(shards_);
      return ok_reply(body, req.seq);
    }
    case RequestOp::kShutdown:
      // Workers drain their inboxes and flush every WAL in stop(),
      // which the host calls once the reactor returns.
      if (reactor_ != nullptr) reactor_->request_stop();
      return ok_reply(",\"stopping\":true", req.seq);
    default:
      break;
  }
  if (req.cluster.has_value()) return single(client, *req.cluster, line);
  switch (req.op) {
    case RequestOp::kStats:
    case RequestOp::kMetrics:
    case RequestOp::kDrain:
    case RequestOp::kSnapshot:
      return broadcast(client, req.op, req.seq, /*http=*/false);
    default:
      // Cluster-less single-job ops land on cluster 0, mirroring the
      // unsharded daemon for old clients.
      return single(client, 0, line);
  }
}

std::string ShardSet::single(Reactor::ClientId client, int cluster,
                             const std::string& line) {
  if (!started_) {
    return daemons_[static_cast<std::size_t>(cluster)]->handle_line(line);
  }
  Task t;
  t.client = client;
  t.cluster = cluster;
  t.line = line;
  enqueue(std::move(t));
  return std::string();
}

}  // namespace jigsaw::service
