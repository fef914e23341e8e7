// Blocking line-protocol client for the scheduler daemon.
//
// Connects over a Unix-domain socket or loopback TCP, sends one JSON
// request per line, reads one JSON reply per line. Used by the
// jigsaw_client CLI, the cluster_shell `connect` mode, and the loopback
// tests, which run one client per thread (the class itself is not
// thread-safe).
//
// Endpoints: "unix:/path/to.sock" or "tcp:PORT" (loopback); a bare
// string containing '/' is treated as a unix path.
//
// By default every call blocks indefinitely — fine against a healthy
// daemon, but a daemon that dies mid-request (or a listener that accepts
// and never replies) would hang the caller forever. set_timeout() bounds
// connect (non-blocking connect + poll) and each read/write
// (SO_RCVTIMEO/SO_SNDTIMEO), turning a dead peer into a clean error.

#pragma once

#include <cstddef>
#include <string>

struct sockaddr;  // <sys/socket.h>, kept out of this header

namespace jigsaw::service {

class ServiceClient {
 public:
  ServiceClient() = default;
  ~ServiceClient();
  ServiceClient(const ServiceClient&) = delete;
  ServiceClient& operator=(const ServiceClient&) = delete;
  ServiceClient(ServiceClient&& other) noexcept;
  ServiceClient& operator=(ServiceClient&& other) noexcept;

  /// Bound connect and every subsequent read/write to `seconds` (> 0);
  /// 0 restores the default blocking behavior. Applies to the current
  /// connection immediately and to later connect()s.
  void set_timeout(double seconds);
  double timeout() const { return timeout_s_; }

  bool connect(const std::string& endpoint, std::string* error);
  bool connected() const { return fd_ >= 0; }
  void close();

  /// Write one request line (newline appended).
  bool send(const std::string& line, std::string* error);
  /// Block until one full reply line arrives (newline stripped).
  bool recv(std::string* reply, std::string* error);
  /// send() + recv(): the simple request/reply cadence.
  bool request(const std::string& line, std::string* reply,
               std::string* error);

 private:
  /// Push timeout_s_ onto the live socket (no-op when disconnected).
  void apply_timeout();
  /// connect(2) with the configured bound; plain blocking connect when
  /// no timeout is set.
  bool connect_fd(const sockaddr* addr, std::size_t addr_len,
                  const std::string& describe, std::string* error);

  int fd_ = -1;
  std::string buffer_;
  double timeout_s_ = 0.0;  ///< 0 = block indefinitely
};

}  // namespace jigsaw::service
