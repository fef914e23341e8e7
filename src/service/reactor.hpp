// Single-threaded socket reactor for the scheduler daemon.
//
// A poll(2) event loop over one listening socket (Unix-domain or
// loopback TCP) and its accepted clients, speaking newline-delimited
// frames. The reactor owns transport concerns only — accept, buffered
// reads/writes, line splitting, per-client limits, shutdown wakeup — and
// hands complete lines to a handler; the daemon (service/daemon.hpp)
// supplies the semantics and the bench/tests can drive the daemon
// without any socket at all.
//
// Backpressure, per client:
//  * Pending-request queue: at most `max_pending` parsed-but-unprocessed
//    lines. A pipelining client that overruns it gets an immediate
//    overflow reply (error code queue_full) for each excess line instead
//    of unbounded buffering.
//  * Oversized frames: a line longer than `max_line_bytes` earns an
//    overflow reply (error code line_too_long) and the remainder of that
//    line is discarded as it streams in.
//  * Output buffering is unbounded in memory but flushed eagerly after
//    every processing round, so it only grows while the client itself
//    refuses to read.
//
// Turns: each loop iteration is one turn — read every ready client,
// hand the complete lines to the line handler, run the turn-end handler,
// then write the replies. ServiceDaemon installs its group commit there:
// one WAL fsync covers every request of the turn and lands before any of
// their replies is written. If the handler refuses, no reply of the turn
// may leave: run() closes every client unwritten and returns false.
//
// Shutdown: notify_fd() exposes the write end of a self-pipe; a signal
// handler may write one byte to it (async-signal-safe) and run() wakes,
// invokes the stop check, and returns cleanly so the daemon can flush
// its WAL and observability sinks — the graceful half of SIGINT/SIGTERM.

#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <string>

namespace jigsaw::service {

class Reactor {
 public:
  struct Options {
    std::size_t max_line_bytes = 256 * 1024;
    std::size_t max_pending = 64;
  };

  using ClientId = std::uint64_t;
  /// Complete line (newline stripped). Return value is the reply to
  /// queue, or empty for no reply.
  using LineHandler = std::function<std::string(ClientId, std::string&&)>;
  /// A client overran a limit; return the (error) reply line to queue.
  using OverflowHandler =
      std::function<std::string(ClientId, bool oversized_line)>;
  /// Called once per loop iteration after I/O and line processing.
  /// Returns the poll timeout in seconds for the next wait: < 0 blocks
  /// indefinitely, 0 polls without sleeping.
  using IdleHandler = std::function<double()>;
  /// Called once per turn after the turn's lines are handled and before
  /// any reply queued in that turn is written, including the final flush
  /// after a stop. Returning false abandons the turn (see run()).
  using TurnEndHandler = std::function<bool()>;

  Reactor();
  explicit Reactor(Options options);
  ~Reactor();
  Reactor(const Reactor&) = delete;
  Reactor& operator=(const Reactor&) = delete;

  /// Bind + listen. At most one listener per reactor; returns false with
  /// *error set on failure. listen_unix unlinks a stale socket file
  /// first; listen_tcp binds 127.0.0.1 (`port` 0 picks a free port,
  /// readable back via port()).
  bool listen_unix(const std::string& path, std::string* error);
  bool listen_tcp(int port, std::string* error);
  int port() const { return port_; }

  void set_line_handler(LineHandler handler) {
    line_handler_ = std::move(handler);
  }
  void set_overflow_handler(OverflowHandler handler) {
    overflow_handler_ = std::move(handler);
  }
  void set_idle_handler(IdleHandler handler) {
    idle_handler_ = std::move(handler);
  }
  void set_turn_end_handler(TurnEndHandler handler) {
    turn_end_handler_ = std::move(handler);
  }

  /// Queue a reply line (newline appended here) to a connected client.
  void send(ClientId client, const std::string& line);
  /// Queue bytes verbatim — no newline appended. For the one non-line
  /// response the daemon speaks: the HTTP reply to `GET /metrics`.
  void send_raw(ClientId client, const std::string& bytes);
  void close_client(ClientId client);

  /// Run until request_stop() (or a byte on notify_fd()). Each turn
  /// runs the idle handler, then reads, the line handler, the turn-end
  /// handler and the writes. Returns false when the turn-end handler
  /// refused a turn: that turn's replies were dropped unwritten and every
  /// client closed.
  bool run();

  /// Stop from within a handler (e.g. the shutdown op): run() returns
  /// after finishing the current iteration's queued writes.
  void request_stop() { stop_requested_ = true; }

  /// Write end of the self-pipe; writing one byte wakes and stops run().
  /// Async-signal-safe to write to.
  int notify_fd() const { return wake_write_fd_; }

 private:
  struct Client {
    int fd = -1;
    std::string in;
    std::string out;
    std::deque<std::string> pending;
    bool discarding_line = false;  ///< swallowing an oversized line
    bool closing = false;          ///< close after out drains
  };

  void accept_clients();
  void read_client(ClientId id);
  void split_lines(ClientId id);
  void process_pending();
  bool flush_client(Client& c);
  void drop_client(ClientId id);
  /// Run the turn-end handler; on refusal close every client unwritten.
  bool end_turn();

  Options options_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::string unix_path_;
  int wake_read_fd_ = -1;
  int wake_write_fd_ = -1;
  bool stop_requested_ = false;
  ClientId next_client_ = 1;
  std::map<ClientId, Client> clients_;
  LineHandler line_handler_;
  OverflowHandler overflow_handler_;
  IdleHandler idle_handler_;
  TurnEndHandler turn_end_handler_;
};

}  // namespace jigsaw::service
