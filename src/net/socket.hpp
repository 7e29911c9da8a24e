// Thin RAII wrappers over POSIX UDP/TCP sockets for the streaming daemon.
//
// Scope is deliberately small: IPv4 only (the sensor pipeline is IPv4),
// blocking IO with poll()-based timeouts so intake threads can notice a
// stop flag, UDP receives batched into a caller-owned fixed slab, and no
// buffering cleverness — the kernel's receive buffer and the daemon's
// bounded queue are the buffers.  Errors surface as false/std::nullopt
// plus errno text via last_error(); nothing throws.
#pragma once

#include <netinet/in.h>
#include <sys/socket.h>

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "net/ipv4.hpp"

namespace dnsbs::net {

/// Owns a file descriptor; moves transfer, destruction closes.
class Socket {
 public:
  Socket() = default;
  explicit Socket(int fd) noexcept : fd_(fd) {}
  ~Socket();
  Socket(Socket&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Socket& operator=(Socket&& other) noexcept;
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  bool valid() const noexcept { return fd_ >= 0; }
  int fd() const noexcept { return fd_; }
  void close() noexcept;
  /// True when a read would not block — a datagram, a connection in the
  /// backlog, bytes — waiting up to `timeout_ms`; nothing is consumed.
  bool pending(int timeout_ms) const;

 protected:
  int fd_ = -1;
};

/// An eventfd that wakes a poll(): any thread signal()s it; the polling
/// thread clear()s it once awake.  Signals before the clear coalesce.
class EventFd : public Socket {
 public:
  EventFd();
  void signal() noexcept;
  void clear() noexcept;
};

/// Fixed receive slots for UdpSocket::recv_batch, allocated once: `slots`
/// buffers of `slot_bytes` each, with the sender address and control
/// space of each.  Only the pages that datagrams touch become resident.
class DatagramSlab {
 public:
  DatagramSlab(std::size_t slots, std::size_t slot_bytes);
  DatagramSlab(const DatagramSlab&) = delete;
  DatagramSlab& operator=(const DatagramSlab&) = delete;

  std::size_t slots() const noexcept { return headers_.size(); }
  /// Datagram `i` of the last recv_batch (i below its return value).
  std::span<const std::uint8_t> datagram(std::size_t i) const noexcept;
  IPv4Addr source(std::size_t i) const noexcept;

 private:
  friend class UdpSocket;
  /// Room for one SO_RXQ_OVFL message (a u32 drop count) per slot.
  union Control {
    cmsghdr align;
    std::uint8_t bytes[CMSG_SPACE(sizeof(std::uint32_t))];
  };

  std::size_t slot_bytes_;
  std::unique_ptr<std::uint8_t[]> storage_;
  std::vector<mmsghdr> headers_;
  std::vector<iovec> iov_;
  std::vector<sockaddr_in> from_;
  std::vector<Control> control_;
};

class UdpSocket : public Socket {
 public:
  /// Binds to `bind_addr:port` (port 0 = ephemeral).  Asks for a 4 MiB
  /// SO_RCVBUF — the kernel queue is what absorbs bursts while the
  /// daemon's drive thread is busy — and turns on SO_RXQ_OVFL so
  /// recv_batch learns how many datagrams a full buffer dropped.
  bool bind(std::string_view bind_addr, std::uint16_t port);
  /// The actually-bound port (resolves ephemeral binds).
  std::uint16_t local_port() const;
  /// SO_RCVBUF as granted: the kernel doubles the request (for its own
  /// bookkeeping) after clamping it to net.core.rmem_max.
  std::size_t receive_buffer_bytes() const;

  bool send_to(std::string_view host, std::uint16_t port, const void* data,
               std::size_t len);
  /// Receives the datagrams already queued, at most one per slot of
  /// `slab`, with one recvmmsg that never waits.  Returns how many landed
  /// (0 when none is queued, or on error).
  std::size_t recv_batch(DatagramSlab& slab);
  /// Datagrams the kernel dropped on a full receive buffer (cumulative,
  /// wraps at 2^32), as last seen: recv_batch reads the count each datagram
  /// carries (SO_RXQ_OVFL), which is seen only once a later datagram
  /// arrives; refresh_kernel_drops() reads it from the socket itself.
  std::uint32_t kernel_drops() const noexcept { return drops_; }
  /// Reads the socket's drop count now (SO_MEMINFO), so drops followed by
  /// silence are seen too.
  void refresh_kernel_drops();

  const std::string& last_error() const noexcept { return error_; }

 private:
  /// Both sources read one cumulative counter, but a datagram carries it
  /// as of its enqueue, so it can lag a refresh taken since: drops_ only
  /// moves forward (modulo 2^32).
  void see_drops(std::uint32_t drops) noexcept {
    if (static_cast<std::int32_t>(drops - drops_) > 0) drops_ = drops;
  }

  std::string error_;
  std::uint32_t drops_ = 0;
};

class TcpStream : public Socket {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) noexcept : Socket(fd) {}

  static std::optional<TcpStream> connect(std::string_view host, std::uint16_t port,
                                          int timeout_ms = 5000);

  bool write_all(const void* data, std::size_t len);
  /// Reads exactly `len` bytes, waiting up to `timeout_ms` between chunks;
  /// false on EOF/timeout/error.
  bool read_exact(void* buf, std::size_t len, int timeout_ms);
  /// Reads whatever has arrived, up to `cap` bytes (one recv when data is
  /// already queued), waiting up to `timeout_ms` for the first byte.
  /// Returns the byte count; 0 on EOF, nullopt on timeout/error.
  std::optional<std::size_t> read_some(void* buf, std::size_t cap, int timeout_ms);
  /// Reads up to and including '\n' (returned without it, CR stripped);
  /// nullopt on EOF/timeout before a full line.
  std::optional<std::string> read_line(int timeout_ms, std::size_t max_len = 4096);
};

class TcpListener : public Socket {
 public:
  bool listen(std::string_view bind_addr, std::uint16_t port, int backlog = 16);
  std::uint16_t local_port() const;
  /// Waits up to `timeout_ms` for a connection; nullopt on timeout/error.
  std::optional<TcpStream> accept(int timeout_ms);

  const std::string& last_error() const noexcept { return error_; }

 private:
  std::string error_;
};

}  // namespace dnsbs::net
