#include "util/binio.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "core/aggregate.hpp"
#include "core/dedup.hpp"
#include "dns/query_log.hpp"

namespace dnsbs {
namespace {

using util::BinaryReader;
using util::BinaryWriter;
using util::kBinioBufferBytes;

std::string hex(const std::string& bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const char c : bytes) {
    const auto b = static_cast<unsigned char>(c);
    out += kDigits[b >> 4];
    out += kDigits[b & 0xf];
  }
  return out;
}

/// One field of every width, in a fixed order.
void write_widths(BinaryWriter& w) {
  w.u8(0x01);
  w.u16(0x0203);
  w.u32(0x04050607);
  w.u64(0x08090a0b0c0d0e0fULL);
  w.i64(-2);
  w.f64(1.5);
  w.bytes("xy", 2);
}

constexpr char kWidthsHex[] =
    "01"                  // u8
    "0302"                // u16
    "07060504"            // u32
    "0f0e0d0c0b0a0908"    // u64
    "feffffffffffffff"    // i64 -2
    "000000000000f83f"    // f64 1.5
    "7879";               // bytes "xy"

TEST(BinaryIo, EveryWidthEncodesLittleEndian) {
  std::ostringstream out;
  BinaryWriter w(out);
  write_widths(w);
  ASSERT_TRUE(w.finish());
  EXPECT_EQ(hex(out.str()), kWidthsHex);

  std::istringstream in(out.str());
  BinaryReader r(in);
  EXPECT_EQ(r.u8(), 0x01u);
  EXPECT_EQ(r.u16(), 0x0203u);
  EXPECT_EQ(r.u32(), 0x04050607u);
  EXPECT_EQ(r.u64(), 0x08090a0b0c0d0e0fULL);
  EXPECT_EQ(r.i64(), -2);
  EXPECT_EQ(r.f64(), 1.5);
  char xy[2] = {};
  EXPECT_TRUE(r.bytes(xy, 2));
  EXPECT_EQ(std::string(xy, 2), "xy");
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.u8(), 0u);  // past the end
  EXPECT_FALSE(r.ok());
}

TEST(BinaryIo, NothingReachesTheStreamBeforeFinishOrAFullBuffer) {
  std::ostringstream out;
  BinaryWriter w(out);
  write_widths(w);
  EXPECT_TRUE(out.str().empty());
  ASSERT_TRUE(w.finish());
  EXPECT_EQ(out.str().size(), 33u);
  ASSERT_TRUE(w.finish());  // idempotent
  EXPECT_EQ(out.str().size(), 33u);
}

/// A mixed stream larger than the buffer: a run of u8s that leaves a u64
/// straddling the first buffer edge, 15-byte groups whose fields land
/// across later edges, and one payload larger than the whole buffer.
struct MixedImage {
  std::vector<std::uint8_t> big;
  std::size_t groups = 9000;
};

void write_mixed(BinaryWriter& w, const MixedImage& m) {
  for (std::size_t i = 0; i + 3 < kBinioBufferBytes; ++i) w.u8(static_cast<std::uint8_t>(i));
  w.u64(0x1122334455667788ULL);
  for (std::size_t g = 0; g < m.groups; ++g) {
    w.u8(static_cast<std::uint8_t>(g));
    w.u16(static_cast<std::uint16_t>(g * 3));
    w.u32(static_cast<std::uint32_t>(g * 7));
    w.u64(g * 0x9e3779b97f4a7c15ULL);
    if (g == m.groups / 2) w.bytes(m.big.data(), m.big.size());
  }
  w.f64(-0.25);
}

void read_mixed(BinaryReader& r, const MixedImage& m) {
  for (std::size_t i = 0; i + 3 < kBinioBufferBytes; ++i) {
    ASSERT_EQ(r.u8(), static_cast<std::uint8_t>(i)) << "u8 " << i;
  }
  ASSERT_EQ(r.u64(), 0x1122334455667788ULL);
  for (std::size_t g = 0; g < m.groups; ++g) {
    ASSERT_EQ(r.u8(), static_cast<std::uint8_t>(g)) << "group " << g;
    ASSERT_EQ(r.u16(), static_cast<std::uint16_t>(g * 3)) << "group " << g;
    ASSERT_EQ(r.u32(), static_cast<std::uint32_t>(g * 7)) << "group " << g;
    ASSERT_EQ(r.u64(), g * 0x9e3779b97f4a7c15ULL) << "group " << g;
    if (g == m.groups / 2) {
      std::vector<std::uint8_t> got(m.big.size());
      ASSERT_TRUE(r.bytes(got.data(), got.size()));
      ASSERT_EQ(got, m.big);
    }
  }
  ASSERT_EQ(r.f64(), -0.25);
  ASSERT_TRUE(r.ok());
}

MixedImage mixed_image() {
  MixedImage m;
  m.big.resize(kBinioBufferBytes + kBinioBufferBytes / 2 + 5);
  for (std::size_t i = 0; i < m.big.size(); ++i) m.big[i] = static_cast<std::uint8_t>(i * 31);
  return m;
}

std::size_t mixed_size(const MixedImage& m) {
  return (kBinioBufferBytes - 3) + 8 + m.groups * 15 + m.big.size() + 8;
}

TEST(BinaryIo, MixedFieldsRoundTripAcrossBufferEdges) {
  const MixedImage m = mixed_image();
  std::ostringstream out;
  BinaryWriter w(out);
  write_mixed(w, m);
  ASSERT_TRUE(w.finish());
  const std::string image = out.str();
  ASSERT_EQ(image.size(), mixed_size(m));
  ASSERT_GT(image.size(), 3 * kBinioBufferBytes);
  // The u64 after the u8 run crosses the first buffer edge intact.
  EXPECT_EQ(hex(image.substr(kBinioBufferBytes - 3, 8)), "8877665544332211");

  std::istringstream in(image);
  BinaryReader r(in);
  read_mixed(r, m);
  EXPECT_EQ(r.u8(), 0u);  // nothing past the image
  EXPECT_FALSE(r.ok());
}

/// Reads the write_widths() sequence from `r`; returns how many fields
/// decoded to their written value.
int read_widths(BinaryReader& r) {
  int good = 0;
  good += r.u8() == 0x01;
  good += r.u16() == 0x0203;
  good += r.u32() == 0x04050607;
  good += r.u64() == 0x08090a0b0c0d0e0fULL;
  good += r.i64() == -2;
  good += r.f64() == 1.5;
  char xy[2] = {'?', '?'};
  good += r.bytes(xy, 2) && std::string(xy, 2) == "xy";
  return good;
}

TEST(BinaryIo, ReaderStartsAtTheStreamsPosition) {
  std::ostringstream out;
  BinaryWriter w(out);
  write_widths(w);
  ASSERT_TRUE(w.finish());
  std::istringstream in("prefix" + out.str());
  in.seekg(6);
  BinaryReader r(in);
  EXPECT_EQ(read_widths(r), 7);
  EXPECT_TRUE(r.ok());
}

TEST(BinaryIo, TruncationAtEveryOffsetFailsCleanly) {
  std::ostringstream out;
  BinaryWriter w(out);
  write_widths(w);
  ASSERT_TRUE(w.finish());
  const std::string image = out.str();
  // Field end offsets of write_widths().
  const std::size_t ends[] = {1, 3, 7, 15, 23, 31, 33};
  for (std::size_t cut = 0; cut < image.size(); ++cut) {
    std::istringstream in(image.substr(0, cut));
    BinaryReader r(in);
    int whole = 0;
    for (const std::size_t e : ends) whole += e <= cut;
    EXPECT_EQ(read_widths(r), whole) << "cut at " << cut;
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
    // Once failed, every read is zero, even where bytes would remain.
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_EQ(r.u64(), 0u);
  }
  // The first field past the cut reads as zero, not as a partial value.
  std::istringstream in(image.substr(0, 10));
  BinaryReader r(in);
  EXPECT_EQ(r.u8(), 0x01u);
  EXPECT_EQ(r.u16(), 0x0203u);
  EXPECT_EQ(r.u32(), 0x04050607u);
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
}

TEST(BinaryIo, SemanticFailureZeroesLaterReads) {
  std::ostringstream out;
  BinaryWriter w(out);
  write_widths(w);
  ASSERT_TRUE(w.finish());
  std::istringstream in(out.str());
  BinaryReader r(in);
  EXPECT_EQ(r.u8(), 0x01u);
  r.fail();
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u16(), 0u);
}

/// A stream that cannot seek and hands out its bytes a few at a time, as
/// a pipe would.
class ForwardOnlyBuf : public std::streambuf {
 public:
  explicit ForwardOnlyBuf(std::string data) : data_(std::move(data)) {}

 protected:
  int_type underflow() override {
    if (next_ == data_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(1000, data_.size() - next_);
    char* p = data_.data() + next_;
    setg(p, p, p + n);
    next_ += n;
    return traits_type::to_int_type(*p);
  }

 private:
  std::string data_;
  std::size_t next_ = 0;
};

TEST(BinaryIo, StreamThatCannotSeek) {
  const MixedImage m = mixed_image();
  std::ostringstream out;
  BinaryWriter w(out);
  write_mixed(w, m);
  ASSERT_TRUE(w.finish());
  const std::string image = out.str();
  {
    ForwardOnlyBuf buf(image);
    std::istream in(&buf);
    BinaryReader r(in);
    read_mixed(r, m);
    EXPECT_EQ(r.u8(), 0u);
    EXPECT_FALSE(r.ok());
  }
  for (const std::size_t cut : {std::size_t{0}, std::size_t{7}, image.size() / 2,
                                image.size() - 1}) {
    ForwardOnlyBuf buf(image.substr(0, cut));
    std::istream in(&buf);
    BinaryReader r(in);
    for (std::size_t i = 0; i < image.size() / 8 + 1; ++i) r.u64();
    EXPECT_FALSE(r.ok()) << "cut at " << cut;
  }
}

// Pins checkpoint format v6's dedup and aggregate sections through the
// buffered path: the image below was saved by the unbuffered writer (one
// stream call per field) that preceded it.
constexpr char kDedupAggregateGolden[] =
    "1e00000000000000100000000000000006000000000000000000000000000000"
    "010200c00100000a31000000000000000100000000000000000200c00200000a"
    "0e000000000000000500000000000000000200c00000000a2a00000000000000"
    "0a00000000000000000200c00100000a1c000000000000000b00000000000000"
    "010200c00000000a15000000000000000f00000000000000010200c00200000a"
    "2300000000000000100000000000000003000000000000000100000000000000"
    "01000000000000000400000000000000010200c00100000a000200c00200000a"
    "010200c00000000a000200c00100000a0e000000000000000200000000000000"
    "0300000000000000010200c00200000a000200c00000000a010200c00100000a"
    "0f0000000000000000000000000000000100000000000000000200c00000000a"
    "0000000000000000000000000000000008000000000000000000000000000000"
    "580200000000000000400000000c100000000000000002000000000000000100"
    "000000000000010200c0010200c0070000000000000031000000000000000400"
    "0000000000000800000000000000030000000000000000000000000000000000"
    "000a0100000001000000000000000200000a0100000004000000000000000100"
    "000a020000000100000000000000000000000000000003000000000000000002"
    "00c0000200c000000000000000002a0000000000000004000000000000000800"
    "000000000000030000000000000000000000000000000000000a020000000100"
    "0000000000000200000a0100000004000000000000000100000a010000000100"
    "0000000000000000000000000000100000000000000001000000000000000f00"
    "0000000000000000000000000000";

TEST(BinaryIo, DedupAndAggregateImageMatchesFormatV6) {
  core::Deduplicator dedup(util::SimTime::seconds(30));
  core::OriginatorAggregator agg;
  for (int i = 0; i < 8; ++i) {
    const dns::QueryRecord r{util::SimTime::seconds(i * 7),
                             net::IPv4Addr((10u << 24) | static_cast<std::uint32_t>(i % 3)),
                             net::IPv4Addr((192u << 24) | (2u << 8) |
                                           static_cast<std::uint32_t>(i % 2)),
                             dns::RCode::kNoError};
    if (dedup.admit(r)) agg.add(r);
  }
  std::ostringstream out;
  BinaryWriter w(out);
  dedup.save(w);
  agg.save(w);
  ASSERT_TRUE(w.finish());
  ASSERT_EQ(hex(out.str()), kDedupAggregateGolden);

  // The golden image loads and saves back to itself.
  std::istringstream in(out.str());
  BinaryReader r(in);
  core::Deduplicator dedup2(util::SimTime::seconds(30));
  core::OriginatorAggregator agg2;
  ASSERT_TRUE(dedup2.load(r));
  ASSERT_TRUE(agg2.load(r));
  std::ostringstream again;
  BinaryWriter w2(again);
  dedup2.save(w2);
  agg2.save(w2);
  ASSERT_TRUE(w2.finish());
  EXPECT_EQ(again.str(), out.str());
}

}  // namespace
}  // namespace dnsbs
