#include "util/net.hpp"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "util/errors.hpp"
#include "util/failpoint.hpp"
#include "util/fnv.hpp"
#include "util/metrics.hpp"
#include "util/wire.hpp"

#if !defined(_WIN32)
#define RID_HAS_SOCKETS 1
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>
#else
#define RID_HAS_SOCKETS 0
#endif

namespace rid::util::net {

bool supported() noexcept { return RID_HAS_SOCKETS != 0; }

const char* to_string(FrameStatus status) noexcept {
  switch (status) {
    case FrameStatus::kOk:
      return "ok";
    case FrameStatus::kClosed:
      return "closed";
    case FrameStatus::kTimeout:
      return "timeout";
    case FrameStatus::kChecksumError:
      return "checksum_error";
  }
  return "?";
}

Endpoint Endpoint::unix_path(std::string path) {
  Endpoint ep;
  ep.kind = Kind::kUnix;
  ep.path = std::move(path);
  return ep;
}

Endpoint Endpoint::tcp(std::uint16_t port, std::string host) {
  Endpoint ep;
  ep.kind = Kind::kTcp;
  ep.host = std::move(host);
  ep.port = port;
  return ep;
}

Endpoint Endpoint::parse(const std::string& text) {
  if (text.empty()) throw InputError("endpoint: empty endpoint string");
  if (text.rfind("unix:", 0) == 0) {
    const std::string path = text.substr(5);
    if (path.empty()) throw InputError("endpoint: empty unix socket path");
    return unix_path(path);
  }
  if (text.rfind("tcp:", 0) == 0) {
    const std::string rest = text.substr(4);
    const auto colon = rest.rfind(':');
    const std::string host =
        colon == std::string::npos ? "127.0.0.1" : rest.substr(0, colon);
    const std::string port_text =
        colon == std::string::npos ? rest : rest.substr(colon + 1);
    std::size_t consumed = 0;
    unsigned long port = 0;
    try {
      port = std::stoul(port_text, &consumed);
    } catch (const std::exception&) {
      consumed = 0;
    }
    if (consumed != port_text.size() || port_text.empty() || port > 65535)
      throw InputError("endpoint: bad tcp port in '" + text + "'");
    if (host.empty())
      throw InputError("endpoint: empty tcp host in '" + text + "'");
    return tcp(static_cast<std::uint16_t>(port), host);
  }
  return unix_path(text);  // bare path
}

std::string Endpoint::to_string() const {
  if (kind == Kind::kUnix) return "unix:" + path;
  return "tcp:" + host + ":" + std::to_string(port);
}

#if RID_HAS_SOCKETS

namespace {

/// Oversized frame lengths are treated as stream damage, not allocations:
/// a torn/garbled header must never make the reader reserve gigabytes.
constexpr std::uint32_t kMaxFramePayload = 1u << 28;  // 256 MiB

struct NetMetrics {
  metrics::Counter& frames_sent =
      metrics::global().counter("net.frames_sent");
  metrics::Counter& frames_received =
      metrics::global().counter("net.frames_received");
  metrics::Counter& bytes_sent = metrics::global().counter("net.bytes_sent");
  metrics::Counter& bytes_received =
      metrics::global().counter("net.bytes_received");
  metrics::Counter& checksum_errors =
      metrics::global().counter("net.checksum_error");
  metrics::Counter& torn_frames =
      metrics::global().counter("net.torn_frame");
  metrics::Counter& frames_dropped =
      metrics::global().counter("net.frames_dropped");
  metrics::Counter& partition_faults =
      metrics::global().counter("net.partition_faults");
  metrics::Counter& accepted =
      metrics::global().counter("net.connections_accepted");
  metrics::Counter& connected =
      metrics::global().counter("net.connections_opened");
};

NetMetrics& net_metrics() {
  static NetMetrics instance;
  return instance;
}

// Constructed at load time, not on first use: a forked shard worker writes
// frames while the parent's stream threads may be reading their first
// ones, and a child that inherits a half-finished static initialization
// waits on its guard forever.
[[maybe_unused]] const NetMetrics& kNetMetricsAtLoad = net_metrics();

/// The `net.partition` chaos hook. Armed with `window(MS)` it models a
/// network partition: every socket operation inside the window fails with
/// the transport's normal failure shape (timeout/closed/unreachable) instead
/// of an exception, so recovery runs through the exact production paths.
bool partition_active() {
  if (!failpoint::any_armed()) return false;
  try {
    RID_FAILPOINT("net.partition");
  } catch (const failpoint::FailpointError&) {
    net_metrics().partition_faults.add(1);
    return true;
  }
  return false;
}

/// poll() for readability with a deadline. Returns false on timeout or a
/// poll error other than EINTR.
bool wait_readable(int fd, std::chrono::steady_clock::time_point deadline,
                   bool unlimited) {
  while (true) {
    int wait_ms = -1;
    if (!unlimited) {
      const auto remaining =
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now());
      wait_ms = static_cast<int>(remaining.count());
      if (wait_ms < 0) return false;
    }
    struct pollfd pfd {};
    pfd.fd = fd;
    pfd.events = POLLIN;
    const int r = ::poll(&pfd, 1, wait_ms);
    if (r > 0) return true;
    if (r == 0) return false;
    if (errno != EINTR) return false;
  }
}

/// Reads exactly `n` bytes (looping over short reads) under the shared
/// whole-frame deadline. 1 = ok, 0 = peer closed cleanly before the first
/// byte, -1 = timeout, -2 = torn (the stream died after consuming part of
/// the read — distinguishable wire damage, counted by the caller).
int read_exact(int fd, char* out, std::size_t n,
               std::chrono::steady_clock::time_point deadline,
               bool unlimited) {
  std::size_t got = 0;
  while (got < n) {
    if (!wait_readable(fd, deadline, unlimited)) return -1;
    const ssize_t r = ::recv(fd, out + got, n - got, 0);
    if (r > 0) {
      got += static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) return got == 0 ? 0 : -2;
    if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
    return got == 0 ? 0 : -2;  // connection error = loss
  }
  net_metrics().bytes_received.add(n);
  return 1;
}

/// Writes exactly `n` bytes; false when the peer is gone. MSG_NOSIGNAL
/// keeps a dead peer from raising SIGPIPE.
bool write_exact(int fd, const char* data, std::size_t n) {
  std::size_t sent = 0;
  while (sent < n) {
    const ssize_t r = ::send(fd, data + sent, n - sent, MSG_NOSIGNAL);
    if (r > 0) {
      sent += static_cast<std::size_t>(r);
      continue;
    }
    if (r < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
      continue;
    return false;
  }
  net_metrics().bytes_sent.add(n);
  return true;
}

void set_cloexec(int fd) { ::fcntl(fd, F_SETFD, FD_CLOEXEC); }

/// An endpoint as a socket address, plus a close-on-exec stream socket of
/// its family (closed on destruction unless release()d). Throws InputError
/// prefixed with `what` ("listener", "connect") on a bad endpoint or a
/// failed socket().
struct Address {
  sockaddr_storage storage{};
  socklen_t length = 0;
  int fd = -1;

  Address(const Address&) = delete;
  Address& operator=(const Address&) = delete;
  ~Address() {
    if (fd >= 0) ::close(fd);
  }
  int release() noexcept { return std::exchange(fd, -1); }

  Address(const Endpoint& endpoint, const std::string& what) {
    int family = AF_INET;
    if (endpoint.kind == Endpoint::Kind::kUnix) {
      auto* addr = reinterpret_cast<sockaddr_un*>(&storage);
      family = addr->sun_family = AF_UNIX;
      if (endpoint.path.size() >= sizeof(addr->sun_path))
        throw InputError(what + ": unix socket path too long: " +
                         endpoint.path);
      std::strncpy(addr->sun_path, endpoint.path.c_str(),
                   sizeof(addr->sun_path) - 1);
      length = sizeof(sockaddr_un);
    } else {
      auto* addr = reinterpret_cast<sockaddr_in*>(&storage);
      addr->sin_family = AF_INET;
      addr->sin_port = htons(endpoint.port);
      if (::inet_pton(AF_INET, endpoint.host.c_str(), &addr->sin_addr) != 1)
        throw InputError(what + ": bad tcp host: " + endpoint.host);
      length = sizeof(sockaddr_in);
    }
    fd = ::socket(family, SOCK_STREAM, 0);
    if (fd < 0)
      throw InputError(what + ": socket() failed: " + std::strerror(errno));
    set_cloexec(fd);
  }

  const sockaddr* get() const {
    return reinterpret_cast<const sockaddr*>(&storage);
  }

  /// Throws InputError("<what><endpoint>: <errno text>") for the call
  /// that just failed.
  [[noreturn]] static void fail(const std::string& what,
                                const Endpoint& endpoint) {
    throw InputError(what + endpoint.to_string() + ": " +
                     std::strerror(errno));
  }
};

}  // namespace

Socket::Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

Socket::~Socket() { close(); }

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

FrameStatus Socket::read_frame(std::string& payload, double timeout_seconds) {
  RID_FAILPOINT("net.frame_read");
  RID_FAILPOINT("net.delay");  // arm with sleep(MS) for latency injection
  if (partition_active()) return FrameStatus::kTimeout;
  if (fd_ < 0) return FrameStatus::kClosed;
  const bool unlimited = timeout_seconds == kUnlimitedSeconds;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(unlimited ? 0.0 : timeout_seconds));

  char header[wire::kFrameHeaderSize];
  const int h = read_exact(fd_, header, sizeof(header), deadline, unlimited);
  if (h == -2) {
    net_metrics().torn_frames.add(1);  // header torn mid-read
    return FrameStatus::kClosed;
  }
  if (h <= 0) return h == 0 ? FrameStatus::kClosed : FrameStatus::kTimeout;
  const auto [length, checksum] =
      wire::decode_frame_header(std::string_view(header, sizeof(header)));
  if (length > kMaxFramePayload) {
    net_metrics().checksum_errors.add(1);
    return FrameStatus::kChecksumError;  // garbled header; stream is lost
  }
  payload.resize(length);
  const int p = read_exact(fd_, payload.data(), length, deadline, unlimited);
  if (p == 0 || p == -2) {
    // The header arrived but the payload never fully did: a torn frame.
    net_metrics().torn_frames.add(1);
    return FrameStatus::kClosed;
  }
  if (p < 0) return FrameStatus::kTimeout;
  if (fnv1a32(payload) != checksum) {
    net_metrics().checksum_errors.add(1);
    return FrameStatus::kChecksumError;
  }
  net_metrics().frames_received.add(1);
  return FrameStatus::kOk;
}

bool Socket::write_frame(std::string_view payload) {
  RID_FAILPOINT("net.frame_write");
  RID_FAILPOINT("net.delay");  // arm with sleep(MS) for latency injection
  if (partition_active()) return false;
  if (failpoint::should_drop("net.drop_rate")) {
    // A lossy link: the frame vanishes but the writer sees success, exactly
    // like a send() that landed in a buffer the network then ate. The
    // reader's deadline/requeue ladder has to absorb the loss.
    net_metrics().frames_dropped.add(1);
    return true;
  }
  if (fd_ < 0) return false;
  std::string frame;
  frame.reserve(wire::kFrameHeaderSize + payload.size());
  wire::put_frame(frame, payload);
  // Two-halves write with the torn-frame failpoint in between: an armed
  // `abort` models a writer crashing mid-frame (the reader sees a torn
  // stream), a `throw` models an aborted send (connection dropped by the
  // caller's error handling).
  const std::size_t half = frame.size() / 2;
  if (!write_exact(fd_, frame.data(), half)) return false;
  RID_FAILPOINT("net.torn_frame");
  if (!write_exact(fd_, frame.data() + half, frame.size() - half))
    return false;
  net_metrics().frames_sent.add(1);
  return true;
}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_),
      endpoint_(std::move(other.endpoint_)),
      unlink_on_close_(other.unlink_on_close_) {
  other.fd_ = -1;
  other.unlink_on_close_ = false;
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    endpoint_ = std::move(other.endpoint_);
    unlink_on_close_ = other.unlink_on_close_;
    other.fd_ = -1;
    other.unlink_on_close_ = false;
  }
  return *this;
}

Listener::~Listener() { close(); }

void Listener::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    if (unlink_on_close_) ::unlink(endpoint_.path.c_str());
  }
}

Listener Listener::listen(const Endpoint& endpoint, int backlog) {
  Listener listener;
  listener.endpoint_ = endpoint;
  Address address(endpoint, "listener");
  const bool unix_socket = endpoint.kind == Endpoint::Kind::kUnix;
  if (unix_socket) {
    ::unlink(endpoint.path.c_str());  // replace a stale socket file
  } else {
    const int one = 1;
    ::setsockopt(address.fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(address.fd, address.get(), address.length) != 0 ||
      ::listen(address.fd, backlog) != 0)
    address.fail("listener: cannot bind ", endpoint);
  if (!unix_socket) {
    // Report the resolved ephemeral port so workers can be pointed at it.
    sockaddr_in bound{};
    socklen_t bound_len = sizeof(bound);
    if (::getsockname(address.fd, reinterpret_cast<sockaddr*>(&bound),
                      &bound_len) == 0)
      listener.endpoint_.port = ntohs(bound.sin_port);
  }
  listener.fd_ = address.release();
  listener.unlink_on_close_ = unix_socket;
  return listener;
}

Socket Listener::accept(double timeout_seconds) {
  if (fd_ < 0) return Socket();
  const bool unlimited = timeout_seconds == kUnlimitedSeconds;
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(unlimited ? 0.0 : timeout_seconds));
  if (partition_active()) return Socket();
  if (!wait_readable(fd_, deadline, unlimited)) return Socket();
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) return Socket();
  set_cloexec(fd);
  Socket socket(fd);
  // After the accept so a `throw` action models dropping a connection the
  // OS already established (the Socket destructor closes it).
  RID_FAILPOINT("net.accept");
  net_metrics().accepted.add(1);
  return socket;
}

Socket connect(const Endpoint& endpoint, double timeout_seconds) {
  RID_FAILPOINT("net.connect");
  if (partition_active())
    throw InputError("connect: cannot reach " + endpoint.to_string() +
                     ": network partition (injected)");
  Address address(endpoint, "connect");
  if (::connect(address.fd, address.get(), address.length) != 0)
    address.fail("connect: cannot reach ", endpoint);
  (void)timeout_seconds;  // connects to local endpoints resolve immediately
  net_metrics().connected.add(1);
  return Socket(address.release());
}

#else  // !RID_HAS_SOCKETS

Socket::Socket(Socket&&) noexcept {}
Socket& Socket::operator=(Socket&&) noexcept { return *this; }
Socket::~Socket() {}
void Socket::close() noexcept {}
FrameStatus Socket::read_frame(std::string&, double) {
  return FrameStatus::kClosed;
}
bool Socket::write_frame(std::string_view) { return false; }

Listener::Listener(Listener&&) noexcept {}
Listener& Listener::operator=(Listener&&) noexcept { return *this; }
Listener::~Listener() {}
void Listener::close() noexcept {}
Listener Listener::listen(const Endpoint&, int) {
  throw InputError("socket transport unsupported on this platform");
}
Socket Listener::accept(double) { return Socket(); }

Socket connect(const Endpoint&, double) {
  throw InputError("socket transport unsupported on this platform");
}

#endif

}  // namespace rid::util::net
