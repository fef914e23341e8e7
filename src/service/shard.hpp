// ShardSet: N reactor-facing worker threads, each owning disjoint clusters.
//
// A sharded service hosts `clusters` independent ServiceDaemons — each
// with its own engine, WAL segment (`<wal>.c<k>` when more than one
// cluster shares a base path), snapshot chain, and metrics registry —
// and partitions them across `shards` worker threads by the static map
// owner(c) = c % shards. The front-end runs on the reactor thread and
// only routes: a request carrying `"cluster":k` is enqueued to the
// owning worker's inbox, the worker executes it against its daemon and
// pushes the reply to a shared outbox, and Reactor::wake() gets the
// reactor to flush it. One cluster is always served by one thread, so
// every per-daemon invariant from the single-daemon service (WAL-before-
// engine ordering, %.17g golden metrics, recovery audits) holds
// per-cluster without locks around the engine.
//
// Aggregate ops (`stats`, `metrics`, `drain`, `snapshot` without a
// cluster field, and HTTP `GET /metrics`) broadcast: the front-end fans
// one task out per cluster, the last worker to finish composes the
// merged reply. `stats` sums the headline counters and carries the raw
// per-cluster stats objects verbatim (so %.17g values survive
// untouched); `drain` returns the per-cluster metrics objects as an
// array in cluster order; `/metrics` merges the per-cluster Prometheus
// expositions with a `cluster="k"` label injected on every sample.
//
// Admission batching and group commit: a worker drains its whole inbox
// per wakeup, so the submits routed during one reactor poll iteration
// apply back-to-back (ServiceDaemon::handle_line_deferred), then each
// owned daemon commits its WAL with one fsync before any reply of the
// batch is published. If a daemon's fsync fails, its replies of the batch
// are dropped and the set fails: the reactor's turn-end handler (installed
// by attach_reactor) closes every client and Reactor::run() returns false.
//
// Threading rules, enforced by construction:
//  * A daemon is touched only by its owning worker after start() (the
//    reactor thread may touch daemons before start() and after stop()).
//  * obs::Counter/Gauge are plain non-atomic cells, so each cluster gets
//    its own MetricsRegistry, rendered by the owning worker during the
//    /metrics broadcast and merged as text on whichever worker finishes
//    last. A shared TraceSink is refused at init (not thread-safe).
//  * The outbox (and each inbox) is a small mutex-guarded deque; the
//    reactor drains the outbox from its idle handler.
//
// Inline mode: before start() (or without calling it), handle_line()
// executes everything synchronously on the caller's thread — broadcast
// ops loop over the clusters in order. Unit tests and the bench's
// single-shard path use this to stay deterministic.

#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_set>
#include <vector>

#include "obs/metrics_registry.hpp"
#include "service/daemon.hpp"
#include "service/protocol.hpp"
#include "service/reactor.hpp"

namespace jigsaw::service {

struct ShardOptions {
  int clusters = 1;  ///< independent ServiceDaemons hosted by the service
  int shards = 1;    ///< worker threads; owner(c) = c % shards
  /// Template for every per-cluster daemon. `wal_path` is a base: with
  /// more than one cluster, cluster k logs to `<wal_path>.c<k>` (a lone
  /// cluster keeps the base path, matching the unsharded daemon).
  DaemonOptions daemon;
};

class ShardSet {
 public:
  /// `allocators` has either one entry (shared by every cluster — safe
  /// because allocators are const and stateless per call) or exactly
  /// `clusters` entries.
  ShardSet(const FatTree& topo, std::vector<const Allocator*> allocators,
           const SimConfig& config, ShardOptions options);
  ~ShardSet();
  ShardSet(const ShardSet&) = delete;
  ShardSet& operator=(const ShardSet&) = delete;

  /// Build + init every per-cluster daemon (recovery included). False
  /// with *error naming the offending cluster on failure.
  bool init(std::string* error);

  /// Launch the worker threads. Until then the set runs inline.
  void start();
  /// Signal workers, drain their inboxes, join, flush every WAL.
  /// Idempotent; called by the destructor.
  void stop();

  /// Reactor wiring (reactor thread). handle_socket_line routes or
  /// answers immediately; replies produced by workers flow back through
  /// on_idle(), which must be installed as the reactor's idle handler.
  /// Installs a turn-end handler that stops the reactor once failure()
  /// is set.
  void attach_reactor(Reactor* reactor);
  std::string handle_socket_line(Reactor::ClientId client,
                                 std::string&& line);
  double on_idle();
  std::string overflow_reply(bool oversized_line);

  /// Synchronous request path (inline mode, tests, bench warmup). Must
  /// not be called between start() and stop().
  std::string handle_line(const std::string& line);

  /// Asynchronous request path for in-process drivers (the load bench):
  /// enqueue `line` to the owner of `cluster`; `done` runs on the worker
  /// thread with the reply once its batch is committed (never, if that
  /// commit fails). Requires start().
  void post(int cluster, std::string line,
            std::function<void(const std::string&)> done);

  /// Why the set stopped serving: the first cluster whose group commit
  /// failed, and the WAL's reason. Empty while healthy. Any thread.
  std::string failure() const;

  int clusters() const { return clusters_; }
  int shards() const { return shards_; }
  /// The static ownership map: which worker serves cluster c.
  int owner(int cluster) const { return cluster % shards_; }
  const ServiceDaemon& daemon(int cluster) const {
    return *daemons_[static_cast<std::size_t>(cluster)];
  }
  bool started() const { return started_; }

 private:
  struct Broadcast {
    Reactor::ClientId client = 0;
    bool http = false;      ///< compose an HTTP response, raw + close
    std::string seq;        ///< original request's seq, echoed once
    RequestOp op = RequestOp::kStats;
    std::mutex mu;
    int remaining = 0;
    std::vector<std::string> parts;  ///< per-cluster replies / expositions
  };
  struct Task {
    Reactor::ClientId client = 0;
    int cluster = 0;
    std::string line;
    bool metrics_text = false;  ///< render exposition instead of a reply
    std::shared_ptr<Broadcast> bcast;
    std::function<void(const std::string&)> done;  ///< post() path
  };
  struct Reply {
    Reactor::ClientId client = 0;
    std::string text;
    bool raw = false;    ///< send_raw (HTTP) instead of a reply line
    bool close = false;  ///< close_client after queuing
    int cluster = -1;    ///< daemon whose commit it waits on (-1: none)
    std::function<void(const std::string&)> done{};  ///< post() path
  };
  struct Shard {
    std::thread thread;
    std::mutex mu;
    std::condition_variable cv;
    std::deque<Task> inbox;
    bool stop = false;
  };

  const Allocator& alloc(int cluster) const {
    return allocators_.size() == 1
               ? *allocators_[0]
               : *allocators_[static_cast<std::size_t>(cluster)];
  }

  /// Parse + dispatch one JSON request line (both entry points funnel
  /// here after HTTP handling); returns "" when the reply is async.
  std::string route(Reactor::ClientId client, const std::string& line);
  /// One-cluster op: run inline before start(), else enqueue to owner.
  std::string single(Reactor::ClientId client, int cluster,
                     const std::string& line);

  void worker_main(int shard);
  /// `sink` (when non-null) collects this task's replies instead of
  /// publishing them one by one: worker_main drains its whole inbox into
  /// a local batch and flushes it with a single outbox splice and a
  /// single reactor wake, instead of one lock round-trip and one wake()
  /// syscall per reply.
  void run_task(Task& t, std::vector<Reply>* sink);
  void enqueue(Task task);
  /// Worker side of a broadcast: record this cluster's part; the last
  /// one composes and delivers.
  void finish_part(const std::shared_ptr<Broadcast>& b, int cluster,
                   std::string part, std::vector<Reply>* sink);
  void deliver(Reply reply, std::vector<Reply>* sink);
  /// Group commit of one inbox batch: one fsync per owned daemon that
  /// took an input. A daemon whose fsync fails loses its replies and
  /// fails the set.
  void commit_batch(int shard, std::vector<Reply>* replies);
  /// Publish a batch of replies: post() callbacks run here, the rest go
  /// out with one outbox lock and one wake.
  void flush_replies(std::vector<Reply>& replies);

  /// Fan one task per cluster (threaded) or loop inline; returns the
  /// composed reply in inline mode, "" in threaded mode.
  std::string broadcast(Reactor::ClientId client, RequestOp op,
                        const std::string& seq, bool http);
  static std::string broadcast_line(RequestOp op);
  std::string compose(RequestOp op, const std::string& seq, bool http,
                      const std::vector<std::string>& parts) const;
  std::string compose_stats(const std::string& seq,
                            const std::vector<std::string>& parts) const;
  std::string compose_http(const std::vector<std::string>& parts) const;

  const FatTree* topo_;
  std::vector<const Allocator*> allocators_;
  SimConfig config_;
  ShardOptions options_;
  int clusters_ = 1;
  int shards_ = 1;

  /// Per-cluster metrics registries (non-atomic cells; owner-thread
  /// only). Populated when the caller's config carries a registry — that
  /// registry itself is ignored beyond signaling "metrics on".
  std::vector<std::unique_ptr<obs::MetricsRegistry>> registries_;
  std::vector<std::unique_ptr<ServiceDaemon>> daemons_;
  std::vector<std::unique_ptr<Shard>> workers_;
  bool started_ = false;

  Reactor* reactor_ = nullptr;
  std::mutex outbox_mu_;
  std::vector<Reply> outbox_;
  mutable std::mutex failure_mu_;
  std::string failure_;  ///< see failure()

  /// Clients mid-HTTP-request: header lines swallowed (see daemon.hpp).
  std::unordered_set<Reactor::ClientId> http_clients_;
};

}  // namespace jigsaw::service
