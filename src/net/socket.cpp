#include "net/socket.hpp"

#include <arpa/inet.h>
#include <linux/sock_diag.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace dnsbs::net {

namespace {

bool fill_addr(std::string_view host, std::uint16_t port, sockaddr_in& out,
               std::string* error) {
  std::memset(&out, 0, sizeof(out));
  out.sin_family = AF_INET;
  out.sin_port = htons(port);
  const std::string host_z(host);  // inet_pton needs a NUL terminator
  if (inet_pton(AF_INET, host_z.c_str(), &out.sin_addr) != 1) {
    if (error != nullptr) *error = "bad IPv4 address: " + host_z;
    return false;
  }
  return true;
}

/// poll() for readability; true when a read won't block.
bool wait_readable(int fd, int timeout_ms) {
  pollfd p{fd, POLLIN, 0};
  for (;;) {
    const int rc = ::poll(&p, 1, timeout_ms);
    if (rc > 0) return (p.revents & (POLLIN | POLLHUP | POLLERR)) != 0;
    if (rc == 0) return false;  // timeout
    if (errno != EINTR) return false;
  }
}

std::uint16_t bound_port(int fd) {
  sockaddr_in addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

}  // namespace

Socket::~Socket() { close(); }

Socket& Socket::operator=(Socket&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

bool Socket::pending(int timeout_ms) const {
  return valid() && wait_readable(fd_, timeout_ms);
}

void Socket::close() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

bool UdpSocket::bind(std::string_view bind_addr, std::uint16_t port) {
  close();
  fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd_ < 0) {
    error_ = std::strerror(errno);
    return false;
  }
  // Absorb intake bursts in the kernel queue; best-effort (the kernel may
  // clamp to rmem_max).
  const int rcvbuf = 4 * 1024 * 1024;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &rcvbuf, sizeof(rcvbuf));
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_RXQ_OVFL, &one, sizeof(one));
  sockaddr_in addr{};
  if (!fill_addr(bind_addr, port, addr, &error_)) {
    close();
    return false;
  }
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    error_ = std::strerror(errno);
    close();
    return false;
  }
  return true;
}

std::uint16_t UdpSocket::local_port() const { return valid() ? bound_port(fd_) : 0; }

bool UdpSocket::send_to(std::string_view host, std::uint16_t port, const void* data,
                        std::size_t len) {
  if (!valid()) {
    close();
    fd_ = ::socket(AF_INET, SOCK_DGRAM, 0);
    if (fd_ < 0) {
      error_ = std::strerror(errno);
      return false;
    }
  }
  sockaddr_in addr{};
  if (!fill_addr(host, port, addr, &error_)) return false;
  const ssize_t sent = ::sendto(fd_, data, len, 0, reinterpret_cast<sockaddr*>(&addr),
                                sizeof(addr));
  if (sent != static_cast<ssize_t>(len)) {
    error_ = std::strerror(errno);
    return false;
  }
  return true;
}

std::size_t UdpSocket::receive_buffer_bytes() const {
  int bytes = 0;
  socklen_t len = sizeof(bytes);
  if (!valid() || ::getsockopt(fd_, SOL_SOCKET, SO_RCVBUF, &bytes, &len) != 0) return 0;
  return static_cast<std::size_t>(bytes);
}

std::size_t UdpSocket::recv_batch(DatagramSlab& slab) {
  for (mmsghdr& m : slab.headers_) {
    m.msg_hdr.msg_namelen = sizeof(sockaddr_in);
    m.msg_hdr.msg_controllen = sizeof(DatagramSlab::Control);
  }
  int n = 0;
  do {
    n = ::recvmmsg(fd_, slab.headers_.data(), static_cast<unsigned>(slab.slots()),
                   MSG_DONTWAIT, nullptr);
  } while (n < 0 && errno == EINTR);
  if (n <= 0) {
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) error_ = std::strerror(errno);
    return 0;
  }
  for (int i = 0; i < n; ++i) {
    msghdr& h = slab.headers_[static_cast<std::size_t>(i)].msg_hdr;
    for (cmsghdr* c = CMSG_FIRSTHDR(&h); c != nullptr; c = CMSG_NXTHDR(&h, c)) {
      if (c->cmsg_level == SOL_SOCKET && c->cmsg_type == SO_RXQ_OVFL) {
        std::uint32_t drops = 0;
        std::memcpy(&drops, CMSG_DATA(c), sizeof(drops));
        see_drops(drops);
      }
    }
  }
  return static_cast<std::size_t>(n);
}

void UdpSocket::refresh_kernel_drops() {
  std::uint32_t meminfo[SK_MEMINFO_VARS] = {};
  socklen_t len = sizeof(meminfo);
  if (valid() && ::getsockopt(fd_, SOL_SOCKET, SO_MEMINFO, meminfo, &len) == 0 &&
      len > SK_MEMINFO_DROPS * sizeof(std::uint32_t)) {
    see_drops(meminfo[SK_MEMINFO_DROPS]);
  }
}

DatagramSlab::DatagramSlab(std::size_t slots, std::size_t slot_bytes)
    : slot_bytes_(slot_bytes),
      storage_(std::make_unique_for_overwrite<std::uint8_t[]>(slots * slot_bytes)),
      headers_(slots),
      iov_(slots),
      from_(slots),
      control_(slots) {
  for (std::size_t i = 0; i < slots; ++i) {
    iov_[i] = {storage_.get() + i * slot_bytes, slot_bytes};
    msghdr& h = headers_[i].msg_hdr;
    h.msg_name = &from_[i];
    h.msg_iov = &iov_[i];
    h.msg_iovlen = 1;
    h.msg_control = &control_[i];
  }
}

std::span<const std::uint8_t> DatagramSlab::datagram(std::size_t i) const noexcept {
  return {storage_.get() + i * slot_bytes_,
          std::min<std::size_t>(headers_[i].msg_len, slot_bytes_)};
}

IPv4Addr DatagramSlab::source(std::size_t i) const noexcept {
  return IPv4Addr(ntohl(from_[i].sin_addr.s_addr));
}

EventFd::EventFd() : Socket(::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC)) {}

void EventFd::signal() noexcept {
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(fd_, &one, sizeof(one));
}

void EventFd::clear() noexcept {
  std::uint64_t count = 0;
  [[maybe_unused]] const ssize_t n = ::read(fd_, &count, sizeof(count));
}

std::optional<TcpStream> TcpStream::connect(std::string_view host, std::uint16_t port,
                                            int timeout_ms) {
  (void)timeout_ms;  // loopback connects complete immediately; keep blocking
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  sockaddr_in addr{};
  if (!fill_addr(host, port, addr, nullptr) ||
      ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return std::nullopt;
  }
  return TcpStream(fd);
}

bool TcpStream::write_all(const void* data, std::size_t len) {
  const char* p = static_cast<const char*>(data);
  std::size_t left = len;
  while (left > 0) {
    const ssize_t n = ::send(fd_, p, left, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

bool TcpStream::read_exact(void* buf, std::size_t len, int timeout_ms) {
  char* p = static_cast<char*>(buf);
  std::size_t left = len;
  while (left > 0) {
    if (!wait_readable(fd_, timeout_ms)) return false;
    const ssize_t n = ::recv(fd_, p, left, 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;  // EOF or error
    }
    p += n;
    left -= static_cast<std::size_t>(n);
  }
  return true;
}

std::optional<std::size_t> TcpStream::read_some(void* buf, std::size_t cap,
                                                int timeout_ms) {
  // Non-blocking first: under load the bytes are already queued, so the
  // common case costs one recv and no poll.
  bool waited = false;
  for (;;) {
    const ssize_t n = ::recv(fd_, buf, cap, waited ? 0 : MSG_DONTWAIT);
    if (n >= 0) return static_cast<std::size_t>(n);
    if (errno == EINTR) continue;
    if ((errno != EAGAIN && errno != EWOULDBLOCK) || waited) return std::nullopt;
    if (!wait_readable(fd_, timeout_ms)) return std::nullopt;
    waited = true;
  }
}

std::optional<std::string> TcpStream::read_line(int timeout_ms, std::size_t max_len) {
  std::string line;
  char c = 0;
  while (line.size() < max_len) {
    if (!read_exact(&c, 1, timeout_ms)) return std::nullopt;
    if (c == '\n') {
      if (!line.empty() && line.back() == '\r') line.pop_back();
      return line;
    }
    line.push_back(c);
  }
  return std::nullopt;
}

bool TcpListener::listen(std::string_view bind_addr, std::uint16_t port, int backlog) {
  close();
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) {
    error_ = std::strerror(errno);
    return false;
  }
  const int one = 1;
  ::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  if (!fill_addr(bind_addr, port, addr, &error_)) {
    close();
    return false;
  }
  if (::bind(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd_, backlog) != 0) {
    error_ = std::strerror(errno);
    close();
    return false;
  }
  return true;
}

std::uint16_t TcpListener::local_port() const { return valid() ? bound_port(fd_) : 0; }

std::optional<TcpStream> TcpListener::accept(int timeout_ms) {
  if (!valid() || !wait_readable(fd_, timeout_ms)) return std::nullopt;
  const int fd = ::accept(fd_, nullptr, nullptr);
  if (fd < 0) {
    error_ = std::strerror(errno);
    return std::nullopt;
  }
  return TcpStream(fd);
}

}  // namespace dnsbs::net
