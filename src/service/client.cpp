#include "service/client.hpp"

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
#include <cstdlib>
#include <cstring>

namespace jigsaw::service {

namespace {

void fill_error(std::string* error, const std::string& what) {
  if (error != nullptr) *error = what + ": " + std::strerror(errno);
}

void fill_timeout_error(std::string* error, const std::string& what,
                        double seconds) {
  if (error != nullptr) {
    *error = what + " timed out after " + std::to_string(seconds) + "s";
  }
}

timeval to_timeval(double seconds) {
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>(
      (seconds - std::floor(seconds)) * 1e6);
  return tv;
}

}  // namespace

ServiceClient::~ServiceClient() { close(); }

ServiceClient::ServiceClient(ServiceClient&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

ServiceClient& ServiceClient::operator=(ServiceClient&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

void ServiceClient::set_timeout(double seconds) {
  timeout_s_ = seconds > 0.0 ? seconds : 0.0;
  apply_timeout();
}

void ServiceClient::apply_timeout() {
  if (fd_ < 0) return;
  // A zero timeval disables the bound, which is exactly timeout_s_ == 0.
  const timeval tv = to_timeval(timeout_s_);
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  ::setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

bool ServiceClient::connect_fd(const sockaddr* addr, std::size_t addr_len,
                               const std::string& describe,
                               std::string* error) {
  if (timeout_s_ <= 0.0) {
    if (::connect(fd_, addr, static_cast<socklen_t>(addr_len)) != 0) {
      fill_error(error, "connect " + describe);
      close();
      return false;
    }
    return true;
  }
  // Bounded connect: non-blocking connect, poll for writability, then
  // read the deferred result from SO_ERROR.
  const int flags = ::fcntl(fd_, F_GETFL, 0);
  ::fcntl(fd_, F_SETFL, flags | O_NONBLOCK);
  const int rc = ::connect(fd_, addr, static_cast<socklen_t>(addr_len));
  if (rc != 0 && errno != EINPROGRESS && errno != EAGAIN) {
    fill_error(error, "connect " + describe);
    close();
    return false;
  }
  if (rc != 0) {
    pollfd pfd{fd_, POLLOUT, 0};
    const int timeout_ms = static_cast<int>(std::ceil(timeout_s_ * 1000.0));
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready == 0) {
      fill_timeout_error(error, "connect " + describe, timeout_s_);
      close();
      return false;
    }
    int soerr = 0;
    socklen_t len = sizeof(soerr);
    if (ready < 0 ||
        ::getsockopt(fd_, SOL_SOCKET, SO_ERROR, &soerr, &len) != 0 ||
        soerr != 0) {
      if (soerr != 0) errno = soerr;
      fill_error(error, "connect " + describe);
      close();
      return false;
    }
  }
  ::fcntl(fd_, F_SETFL, flags);  // back to blocking; timeouts via SO_*TIMEO
  apply_timeout();
  return true;
}

void ServiceClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

bool ServiceClient::connect(const std::string& endpoint, std::string* error) {
  close();
  std::string path;
  int port = -1;
  if (endpoint.rfind("unix:", 0) == 0) {
    path = endpoint.substr(5);
  } else if (endpoint.rfind("tcp:", 0) == 0) {
    port = std::atoi(endpoint.c_str() + 4);
  } else if (endpoint.find('/') != std::string::npos) {
    path = endpoint;
  } else {
    if (error != nullptr) {
      *error = "endpoint must be unix:/path or tcp:PORT, got " + endpoint;
    }
    return false;
  }
  if (!path.empty()) {
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path)) {
      if (error != nullptr) *error = "unix socket path too long: " + path;
      return false;
    }
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      fill_error(error, "socket");
      return false;
    }
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    if (!connect_fd(reinterpret_cast<sockaddr*>(&addr), sizeof(addr), path,
                    error)) {
      return false;
    }
    apply_timeout();
    return true;
  }
  if (port <= 0 || port > 65535) {
    if (error != nullptr) *error = "bad tcp port in endpoint " + endpoint;
    return false;
  }
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    fill_error(error, "socket");
    return false;
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (!connect_fd(reinterpret_cast<sockaddr*>(&addr), sizeof(addr),
                  "127.0.0.1:" + std::to_string(port), error)) {
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  apply_timeout();
  return true;
}

bool ServiceClient::send(const std::string& line, std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = "not connected";
    return false;
  }
  std::string framed = line;
  framed += '\n';
  const char* p = framed.data();
  std::size_t remaining = framed.size();
  while (remaining > 0) {
    const ssize_t n = ::write(fd_, p, remaining);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (timeout_s_ > 0.0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        fill_timeout_error(error, "write", timeout_s_);
        return false;
      }
      fill_error(error, "write");
      return false;
    }
    p += n;
    remaining -= static_cast<std::size_t>(n);
  }
  return true;
}

bool ServiceClient::recv(std::string* reply, std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = "not connected";
    return false;
  }
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      *reply = buffer_.substr(0, nl);
      buffer_.erase(0, nl + 1);
      if (!reply->empty() && reply->back() == '\r') reply->pop_back();
      return true;
    }
    char buf[64 * 1024];
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      buffer_.append(buf, static_cast<std::size_t>(n));
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n == 0) {
      if (error != nullptr) *error = "connection closed by daemon";
    } else if (timeout_s_ > 0.0 &&
               (errno == EAGAIN || errno == EWOULDBLOCK)) {
      fill_timeout_error(error, "waiting for reply", timeout_s_);
    } else {
      fill_error(error, "read");
    }
    return false;
  }
}

bool ServiceClient::request(const std::string& line, std::string* reply,
                            std::string* error) {
  return send(line, error) && recv(reply, error);
}

}  // namespace jigsaw::service
