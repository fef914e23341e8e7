#include "service/reactor.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstring>
#include <vector>

namespace jigsaw::service {

namespace {

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

void fill_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
}

}  // namespace

Reactor::Reactor() : Reactor(Options{}) {}

Reactor::Reactor(Options options) : options_(options) {
  int pipe_fds[2] = {-1, -1};
  if (::pipe(pipe_fds) == 0) {
    wake_read_fd_ = pipe_fds[0];
    wake_write_fd_ = pipe_fds[1];
    set_nonblocking(wake_read_fd_);
    set_nonblocking(wake_write_fd_);
  }
}

Reactor::~Reactor() {
  for (auto& [id, c] : clients_) {
    if (c.fd >= 0) ::close(c.fd);
  }
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (!unix_path_.empty()) ::unlink(unix_path_.c_str());
  if (wake_read_fd_ >= 0) ::close(wake_read_fd_);
  if (wake_write_fd_ >= 0) ::close(wake_write_fd_);
}

bool Reactor::listen_unix(const std::string& path, std::string* error) {
  if (listen_fd_ >= 0) {
    if (error != nullptr) *error = "reactor already listening";
    return false;
  }
  sockaddr_un addr{};
  if (path.size() >= sizeof(addr.sun_path)) {
    if (error != nullptr) *error = "unix socket path too long: " + path;
    return false;
  }
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    fill_error(error, "socket");
    return false;
  }
  ::unlink(path.c_str());  // stale socket from a crashed daemon
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    fill_error(error, "bind/listen " + path);
    ::close(fd);
    return false;
  }
  set_nonblocking(fd);
  listen_fd_ = fd;
  unix_path_ = path;
  return true;
}

bool Reactor::listen_tcp(int port, std::string* error) {
  if (listen_fd_ >= 0) {
    if (error != nullptr) *error = "reactor already listening";
    return false;
  }
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    fill_error(error, "socket");
    return false;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 128) != 0) {
    fill_error(error, "bind/listen 127.0.0.1:" + std::to_string(port));
    ::close(fd);
    return false;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0) {
    port_ = ntohs(addr.sin_port);
  }
  set_nonblocking(fd);
  listen_fd_ = fd;
  return true;
}

void Reactor::accept_clients() {
  while (true) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN or transient error; poll again
    set_nonblocking(fd);
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    Client c;
    c.fd = fd;
    clients_.emplace(next_client_++, std::move(c));
  }
}

void Reactor::read_client(ClientId id) {
  auto it = clients_.find(id);
  if (it == clients_.end()) return;
  Client& c = it->second;
  char buf[64 * 1024];
  while (true) {
    const ssize_t n = ::read(c.fd, buf, sizeof(buf));
    if (n > 0) {
      c.in.append(buf, static_cast<std::size_t>(n));
      if (c.in.size() > options_.max_line_bytes &&
          c.in.find('\n') == std::string::npos && !c.discarding_line) {
        c.discarding_line = true;
        if (overflow_handler_) {
          const std::string reply = overflow_handler_(id, /*oversized=*/true);
          if (!reply.empty()) send(id, reply);
        }
        c.in.clear();
      }
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    // EOF or hard error: drop after flushing what we owe.
    c.closing = true;
    break;
  }
  split_lines(id);
}

void Reactor::split_lines(ClientId id) {
  auto it = clients_.find(id);
  if (it == clients_.end()) return;
  Client& c = it->second;
  std::size_t start = 0;
  while (true) {
    const std::size_t nl = c.in.find('\n', start);
    if (nl == std::string::npos) break;
    std::string line = c.in.substr(start, nl - start);
    start = nl + 1;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (c.discarding_line) {
      // The tail of an oversized line; the error reply already went out.
      c.discarding_line = false;
      continue;
    }
    if (line.size() > options_.max_line_bytes) {
      if (overflow_handler_) {
        const std::string reply = overflow_handler_(id, /*oversized=*/true);
        if (!reply.empty()) send(id, reply);
      }
      continue;
    }
    if (line.empty()) continue;
    if (c.pending.size() >= options_.max_pending) {
      if (overflow_handler_) {
        const std::string reply = overflow_handler_(id, /*oversized=*/false);
        if (!reply.empty()) send(id, reply);
      }
      continue;
    }
    c.pending.push_back(std::move(line));
  }
  c.in.erase(0, start);
  if (c.discarding_line) c.in.clear();
}

void Reactor::process_pending() {
  // Collect ids first: the handler may close its own or another client.
  std::vector<ClientId> ids;
  ids.reserve(clients_.size());
  for (const auto& [id, c] : clients_) {
    if (!c.pending.empty()) ids.push_back(id);
  }
  for (const ClientId id : ids) {
    while (true) {
      auto it = clients_.find(id);
      if (it == clients_.end() || it->second.pending.empty()) break;
      std::string line = std::move(it->second.pending.front());
      it->second.pending.pop_front();
      if (line_handler_) {
        std::string reply = line_handler_(id, std::move(line));
        if (!reply.empty()) send(id, reply);
      }
      if (stop_requested_) return;
    }
  }
}

void Reactor::send(ClientId client, const std::string& line) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  it->second.out += line;
  it->second.out += '\n';
}

void Reactor::send_raw(ClientId client, const std::string& bytes) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  it->second.out += bytes;
}

void Reactor::close_client(ClientId client) {
  auto it = clients_.find(client);
  if (it == clients_.end()) return;
  it->second.closing = true;
}

bool Reactor::flush_client(Client& c) {
  while (!c.out.empty()) {
    const ssize_t n = ::write(c.fd, c.out.data(), c.out.size());
    if (n > 0) {
      c.out.erase(0, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return true;
    if (n < 0 && errno == EINTR) continue;
    return false;  // broken pipe etc.
  }
  return true;
}

void Reactor::drop_client(ClientId id) {
  auto it = clients_.find(id);
  if (it == clients_.end()) return;
  if (it->second.fd >= 0) ::close(it->second.fd);
  clients_.erase(it);
}

bool Reactor::end_turn() {
  if (!turn_end_handler_ || turn_end_handler_()) return true;
  for (auto& [id, c] : clients_) {
    (void)id;
    if (c.fd >= 0) ::close(c.fd);
  }
  clients_.clear();
  return false;
}

bool Reactor::run() {
  std::vector<pollfd> fds;
  std::vector<ClientId> fd_owner;
  while (!stop_requested_) {
    fds.clear();
    fd_owner.clear();
    if (wake_read_fd_ >= 0) {
      fds.push_back(pollfd{wake_read_fd_, POLLIN, 0});
      fd_owner.push_back(0);
    }
    if (listen_fd_ >= 0) {
      fds.push_back(pollfd{listen_fd_, POLLIN, 0});
      fd_owner.push_back(0);
    }
    for (const auto& [id, c] : clients_) {
      short events = POLLIN;
      if (!c.out.empty()) events |= POLLOUT;
      fds.push_back(pollfd{c.fd, events, 0});
      fd_owner.push_back(id);
    }

    double timeout_s = -1.0;
    if (idle_handler_) timeout_s = idle_handler_();
    if (stop_requested_) break;
    int timeout_ms = -1;
    if (timeout_s >= 0.0) {
      const double ms = std::ceil(timeout_s * 1000.0);
      timeout_ms = ms > 60000.0 ? 60000 : static_cast<int>(ms);
    }
    const int ready = ::poll(fds.data(), fds.size(), timeout_ms);
    if (ready < 0 && errno != EINTR) break;

    for (std::size_t k = 0; k < fds.size(); ++k) {
      if (fds[k].revents == 0) continue;
      if (fds[k].fd == wake_read_fd_) {
        char drain[64];
        while (::read(wake_read_fd_, drain, sizeof(drain)) > 0) {
        }
        stop_requested_ = true;
      } else if (fds[k].fd == listen_fd_) {
        accept_clients();
      } else {
        const ClientId id = fd_owner[k];
        if (fds[k].revents & (POLLIN | POLLHUP | POLLERR)) read_client(id);
      }
    }
    if (stop_requested_) break;

    process_pending();
    // A handler that stopped the loop (the shutdown op) leaves the turn's
    // end to the final flush below.
    if (stop_requested_) break;
    if (!end_turn()) return false;

    std::vector<ClientId> dead;
    for (auto& [id, c] : clients_) {
      if (!flush_client(c)) {
        dead.push_back(id);
        continue;
      }
      if (c.closing && c.out.empty() && c.pending.empty()) dead.push_back(id);
    }
    for (const ClientId id : dead) drop_client(id);
  }
  // Final courtesy flush so a `shutdown` reply reaches the client.
  if (!end_turn()) return false;
  for (auto& [id, c] : clients_) {
    (void)id;
    flush_client(c);
  }
  return true;
}

}  // namespace jigsaw::service
