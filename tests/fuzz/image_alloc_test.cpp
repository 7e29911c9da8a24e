// Allocation bounds of the checkpoint loaders on corrupt images.
//
// A state image crosses a trust boundary: a count it claims must not turn
// into an allocation larger than the image itself could fill.  This binary
// replaces the global operator new to record the largest request made while
// a loader runs (and to refuse requests above 1 GiB without touching the
// allocator), so a claim the loader reserves for shows as a number, not as
// an out-of-memory kill.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>

#include "core/aggregate.hpp"
#include "core/dedup.hpp"
#include "util/binio.hpp"

namespace {

std::atomic<std::size_t> g_largest{0};
constexpr std::size_t kRefuseAbove = std::size_t{1} << 30;

}  // namespace

void* operator new(std::size_t n) {
  std::size_t seen = g_largest.load(std::memory_order_relaxed);
  while (n > seen && !g_largest.compare_exchange_weak(seen, n, std::memory_order_relaxed)) {
  }
  if (n <= kRefuseAbove) {
    if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  }
  throw std::bad_alloc();
}
// GCC takes free() inside a replacement operator delete for a mismatch.
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace dnsbs {
namespace {

/// Largest single operator new request made by `load` (which runs on a
/// reader over `image`); `loaded` is its result, false if it threw.
template <typename Load>
std::size_t largest_request(const std::string& image, Load&& load, bool& loaded) {
  std::istringstream in(image);
  util::BinaryReader reader(in);
  g_largest.store(0);
  try {
    loaded = load(reader);
  } catch (const std::bad_alloc&) {
    loaded = false;
  }
  return g_largest.load();
}

// A loader may allocate its reader's buffer's worth, the small tables the
// image really holds, and no more.
constexpr std::size_t kBound = std::size_t{1} << 20;

TEST(ImageAllocation, DedupExpiryKeyCountIsBoundedByTheImage) {
  std::ostringstream out;
  util::BinaryWriter w(out);
  w.i64(30);  // window
  w.u64(0);   // last_seen: capacity, size
  w.u64(0);
  w.u64(16);  // expiry: capacity, size
  w.u64(1);
  w.u64(0);   // slot
  w.i64(0);   // bucket
  w.u64(std::uint64_t{1} << 30);  // claimed keys (8 GiB), then three and EOF
  for (std::uint64_t k = 0; k < 3; ++k) w.u64(k);
  ASSERT_TRUE(w.finish());
  const std::string image = out.str();
  ASSERT_EQ(image.size(), 8u * 11u);

  core::Deduplicator dedup(util::SimTime::seconds(30));
  bool loaded = true;
  const std::size_t largest =
      largest_request(image, [&](util::BinaryReader& r) { return dedup.load(r); }, loaded);
  EXPECT_FALSE(loaded);
  EXPECT_LE(largest, kBound);
}

TEST(ImageAllocation, AggregatePeriodCountIsBoundedByTheImage) {
  // The header fields (period, querier-state mode, promote threshold,
  // precision) come from a real save, so the image passes the config
  // checks and reaches the period vector.
  const core::OriginatorAggregator empty;
  std::ostringstream header;
  util::BinaryWriter hw(header);
  empty.save(hw);
  ASSERT_TRUE(hw.finish());
  ASSERT_GE(header.str().size(), 14u);

  std::ostringstream out;
  out << header.str().substr(0, 14);
  util::BinaryWriter w(out);
  w.u64(16);  // aggregates: capacity, size
  w.u64(1);
  w.u64(0);             // slot
  w.u32(0x0a000001);    // key
  w.u32(0x0a000001);    // originator
  w.i64(0);             // first_seen
  w.i64(0);             // last_seen
  w.u64(1);             // total_queries
  w.u64(0);             // querier map: capacity, size
  w.u64(0);
  w.u64(std::uint64_t{1} << 32);  // claimed periods (32 GiB), then three and EOF
  for (std::int64_t p = 0; p < 3; ++p) w.i64(p);
  ASSERT_TRUE(w.finish());
  const std::string image = out.str();
  ASSERT_EQ(image.size(), 14u + 8u * 3u + 4u * 2u + 8u * 6u + 8u * 3u);

  core::OriginatorAggregator agg;
  bool loaded = true;
  const std::size_t largest =
      largest_request(image, [&](util::BinaryReader& r) { return agg.load(r); }, loaded);
  EXPECT_FALSE(loaded);
  EXPECT_LE(largest, kBound);
}

}  // namespace
}  // namespace dnsbs
