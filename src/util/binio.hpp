// Little-endian binary stream IO for checkpoint files.
//
// The streaming daemon serializes sensor state (dedup window, aggregates,
// feature cache) so a restart resumes with byte-identical subsequent
// windows.  Fixed little-endian layout keeps checkpoint files portable
// between builds; doubles round-trip through std::bit_cast so feature rows
// restore bit-exactly.  Readers never throw on truncated input — every
// read reports success through ok() and returns a zero value once the
// stream has failed, so load paths can validate once at the end.
#pragma once

#include <bit>
#include <cstdint>
#include <istream>
#include <ostream>

namespace dnsbs::util {

class BinaryWriter {
 public:
  explicit BinaryWriter(std::ostream& out) : out_(out) {}

  void u8(std::uint8_t v) { out_.put(static_cast<char>(v)); }
  void u16(std::uint16_t v) { le(v, 2); }
  void u32(std::uint32_t v) { le(v, 4); }
  void u64(std::uint64_t v) { le(v, 8); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

  void bytes(const void* data, std::size_t n) {
    out_.write(static_cast<const char*>(data), static_cast<std::streamsize>(n));
  }

  bool ok() const { return static_cast<bool>(out_); }

 private:
  void le(std::uint64_t v, int width) {
    char buf[8];
    for (int i = 0; i < width; ++i) buf[i] = static_cast<char>((v >> (8 * i)) & 0xff);
    out_.write(buf, width);
  }
  std::ostream& out_;
};

class BinaryReader {
 public:
  explicit BinaryReader(std::istream& in) : in_(in) {}

  std::uint8_t u8() {
    const int c = in_.get();
    if (c == std::istream::traits_type::eof()) {
      failed_ = true;
      return 0;
    }
    return static_cast<std::uint8_t>(c);
  }
  std::uint16_t u16() { return static_cast<std::uint16_t>(le(2)); }
  std::uint32_t u32() { return static_cast<std::uint32_t>(le(4)); }
  std::uint64_t u64() { return le(8); }
  std::int64_t i64() { return static_cast<std::int64_t>(u64()); }
  double f64() { return std::bit_cast<double>(u64()); }

  bool bytes(void* data, std::size_t n) {
    in_.read(static_cast<char*>(data), static_cast<std::streamsize>(n));
    if (in_.gcount() != static_cast<std::streamsize>(n)) failed_ = true;
    return !failed_;
  }

  bool ok() const { return !failed_ && static_cast<bool>(in_); }
  /// Marks the stream failed from a semantic check (bad magic, impossible
  /// count); subsequent reads return zero.
  void fail() { failed_ = true; }

 private:
  std::uint64_t le(int width) {
    char buf[8];
    in_.read(buf, width);
    if (in_.gcount() != width) {
      failed_ = true;
      return 0;
    }
    std::uint64_t v = 0;
    for (int i = 0; i < width; ++i) {
      v |= static_cast<std::uint64_t>(static_cast<std::uint8_t>(buf[i])) << (8 * i);
    }
    return v;
  }

  std::istream& in_;
  bool failed_ = false;
};

}  // namespace dnsbs::util
