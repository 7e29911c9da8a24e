// Little-endian binary stream IO for checkpoint files.
//
// The streaming daemon serializes sensor state (dedup window, aggregates,
// feature cache) so a restart resumes with byte-identical subsequent
// windows.  Fixed little-endian layout keeps checkpoint files portable
// between builds; doubles round-trip through std::bit_cast so feature rows
// restore bit-exactly.
//
// Buffering.  A checkpoint is millions of 1-8 byte fields, and one stream
// call per field cost more than the state it carried.  Writer and reader
// therefore each own one fixed kBinioBufferBytes (64 KiB) buffer,
// allocated once, encode or decode every field in it byte by byte (one
// path on every host), and move bytes to or from their stream only in
// buffer-sized blocks.  Neither side ever holds a whole image.
//
//   * BinaryWriter hands its buffer to the stream when it fills and at
//     finish(), which also flushes the stream and reports whether every
//     byte got there.  Until finish() returns, the stream may hold only
//     part of the image: finish() before anything reads the stream.  A
//     writer destroyed without finish() drops what it still buffers.
//   * BinaryReader reads ahead: it consumes its stream in blocks, so after
//     a load the stream position is past the image's end and the stream
//     is no longer usable for anything else.
//
// Readers never throw on truncated input: every read reports success
// through ok() and returns a zero value once the image has failed, so load
// paths can validate once at the end.  A claimed element count is not
// checked against the bytes left; loaders reserve at most
// kMaxClaimedReserve elements for it and stop at the first failed read,
// so a corrupt count costs no more memory than the image really holds.
#pragma once

#include <algorithm>
#include <bit>
#include <concepts>
#include <cstdint>
#include <cstring>
#include <istream>
#include <memory>
#include <ostream>
#include <utility>

namespace dnsbs::util {

inline constexpr std::size_t kBinioBufferBytes = std::size_t{64} << 10;
/// Most elements a loader reserves for on a count the image claims.
inline constexpr std::uint64_t kMaxClaimedReserve = 4096;

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out)
      : out_(out), buf_(std::make_unique<char[]>(kBinioBufferBytes)) {}
  BinaryWriter(const BinaryWriter&) = delete;
  BinaryWriter& operator=(const BinaryWriter&) = delete;

  void u8(std::uint8_t v) { put(v); }
  void u16(std::uint16_t v) { put(v); }
  void u32(std::uint32_t v) { put(v); }
  void u64(std::uint64_t v) { put(v); }
  void i64(std::int64_t v) { put(static_cast<std::uint64_t>(v)); }
  void f64(double v) { put(std::bit_cast<std::uint64_t>(v)); }

  void bytes(const void* data, std::size_t n) {
    const char* src = static_cast<const char*>(data);
    while (n > 0) {
      if (used_ == kBinioBufferBytes) drain();
      const std::size_t take = std::min(n, kBinioBufferBytes - used_);
      std::memcpy(buf_.get() + used_, src, take);
      used_ += take;
      src += take;
      n -= take;
    }
  }

  /// Hands every buffered byte to the stream and flushes it.  True if the
  /// whole image reached the stream.
  bool finish() {
    drain();
    out_.flush();
    return ok();
  }

  /// False once the stream has failed.  Bytes still buffered are not
  /// checked until finish().
  bool ok() const { return static_cast<bool>(out_); }

 private:
  template <std::unsigned_integral T>
  void put(T v) {
    if (sizeof(T) > kBinioBufferBytes - used_) drain();
    char* p = buf_.get() + used_;
    // Byte I is bits 8I..8I+7 on every host.  Spelled as a fold, not a
    // loop, so the compiler merges the bytes into one store.
    [&]<std::size_t... I>(std::index_sequence<I...>) {
      ((p[I] = static_cast<char>(v >> (8 * I))), ...);
    }(std::make_index_sequence<sizeof(T)>{});
    used_ += sizeof(T);
  }

  void drain() {
    out_.write(buf_.get(), static_cast<std::streamsize>(used_));
    used_ = 0;
  }

  std::ostream& out_;
  std::unique_ptr<char[]> buf_;
  std::size_t used_ = 0;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream& in)
      : in_(in), buf_(std::make_unique<char[]>(kBinioBufferBytes)) {}
  BinaryReader(const BinaryReader&) = delete;
  BinaryReader& operator=(const BinaryReader&) = delete;

  std::uint8_t u8() { return get<std::uint8_t>(); }
  std::uint16_t u16() { return get<std::uint16_t>(); }
  std::uint32_t u32() { return get<std::uint32_t>(); }
  std::uint64_t u64() { return get<std::uint64_t>(); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  bool bytes(void* data, std::size_t n) {
    char* dst = static_cast<char*>(data);
    while (n > 0) {
      if (pos_ == end_ && !refill(std::min(n, kBinioBufferBytes))) return false;
      const std::size_t take = std::min(n, end_ - pos_);
      std::memcpy(dst, buf_.get() + pos_, take);
      pos_ += take;
      dst += take;
      n -= take;
    }
    return !failed_;
  }

  bool ok() const { return !failed_; }
  /// Marks the image failed from a semantic check (bad magic, impossible
  /// count); subsequent reads return zero.
  void fail() {
    failed_ = true;
    pos_ = end_;
  }

 private:
  template <std::unsigned_integral T>
  T get() {
    if (end_ - pos_ < sizeof(T) && !refill(sizeof(T))) return 0;
    const unsigned char* p = reinterpret_cast<const unsigned char*>(buf_.get() + pos_);
    // The fold lets the compiler merge the bytes into one load (see put).
    const T v = [&]<std::size_t... I>(std::index_sequence<I...>) {
      return static_cast<T>((static_cast<T>(static_cast<T>(p[I]) << (8 * I)) | ...));
    }(std::make_index_sequence<sizeof(T)>{});
    pos_ += sizeof(T);
    return v;
  }

  /// Moves the undecoded tail to the front and reads the stream until at
  /// least `need` (<= kBinioBufferBytes) bytes are buffered.  On a short
  /// image, marks the reader failed.
  bool refill(std::size_t need) {
    if (failed_) return false;
    const std::size_t keep = end_ - pos_;
    std::memmove(buf_.get(), buf_.get() + pos_, keep);
    pos_ = 0;
    end_ = keep;
    while (end_ < need) {
      in_.read(buf_.get() + end_, static_cast<std::streamsize>(kBinioBufferBytes - end_));
      const auto got = static_cast<std::size_t>(in_.gcount());
      end_ += got;
      if (got == 0) {
        fail();
        return false;
      }
    }
    return true;
  }

  std::istream& in_;
  std::unique_ptr<char[]> buf_;
  std::size_t pos_ = 0;
  std::size_t end_ = 0;
  bool failed_ = false;
};

}  // namespace dnsbs::util
