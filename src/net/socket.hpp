// Thin RAII wrappers over POSIX UDP/TCP sockets for the streaming daemon.
//
// Scope is deliberately small: IPv4 only (the sensor pipeline is IPv4),
// blocking IO with poll()-based timeouts so intake threads can notice a
// stop flag, and no buffering cleverness — the daemon's bounded queue is
// the buffer.  Errors surface as false/std::nullopt plus errno text via
// last_error(); nothing throws.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

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

 protected:
  int fd_ = -1;
};

/// Source of one received datagram.
struct DatagramSource {
  IPv4Addr addr;
  std::uint16_t port = 0;
};

class UdpSocket : public Socket {
 public:
  /// Binds to `bind_addr:port` (port 0 = ephemeral).  Sets a generous
  /// SO_RCVBUF — the kernel queue absorbs bursts while the intake thread
  /// drains into the daemon's bounded queue.
  bool bind(std::string_view bind_addr, std::uint16_t port);
  /// The actually-bound port (resolves ephemeral binds).
  std::uint16_t local_port() const;

  bool send_to(std::string_view host, std::uint16_t port, const void* data,
               std::size_t len);
  /// Waits up to `timeout_ms` for a datagram; returns its length (0 is a
  /// valid empty datagram) or nullopt on timeout/error.  `source`, when
  /// non-null, receives the sender address.
  std::optional<std::size_t> recv_from(void* buf, std::size_t cap, int timeout_ms,
                                       DatagramSource* source = nullptr);

  const std::string& last_error() const noexcept { return error_; }

 private:
  std::string error_;
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
  /// True when a connection waits in the backlog (waiting up to
  /// `timeout_ms` for one); it stays there until accept().
  bool pending(int timeout_ms) const;

  const std::string& last_error() const noexcept { return error_; }

 private:
  std::string error_;
};

}  // namespace dnsbs::net
