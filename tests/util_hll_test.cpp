// Mergeable-sketch contract tests: HyperLogLog estimate quality against a
// brute-force oracle, the merge algebra federation depends on
// (commutative, associative, idempotent), serde round-trips in both
// representations, and the exact-until-threshold CardinalityEstimator
// wrapper's promotion semantics.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "util/binio.hpp"
#include "util/hll.hpp"
#include "util/rng.hpp"

namespace dnsbs {
namespace {

using util::BinaryReader;
using util::BinaryWriter;
using util::CardinalityEstimator;
using util::HllSketch;

std::string serialize(const HllSketch& sketch) {
  std::ostringstream out;
  BinaryWriter writer(out);
  sketch.save(writer);
  EXPECT_TRUE(writer.finish());
  return out.str();
}

std::string serialize(const CardinalityEstimator& est) {
  std::ostringstream out;
  BinaryWriter writer(out);
  est.save(writer);
  EXPECT_TRUE(writer.finish());
  return out.str();
}

/// Distinct pseudo-random keys (deterministic; values are unique with
/// overwhelming probability at these sizes, and the oracle set below
/// verifies that assumption instead of trusting it).
std::vector<std::uint64_t> make_keys(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<std::uint64_t> keys;
  keys.reserve(n);
  for (std::size_t i = 0; i < n; ++i) keys.push_back(rng.next());
  return keys;
}

TEST(HllSketch, EmptySketchEstimatesZero) {
  HllSketch sketch;
  EXPECT_TRUE(sketch.empty());
  EXPECT_EQ(sketch.estimate_u64(), 0u);
  EXPECT_EQ(sketch.memory_bytes(), 0u);
}

TEST(HllSketch, SmallCardinalitiesAreNearExact) {
  // Linear counting dominates while most registers are zero; tiny sets
  // should come back essentially exact.
  for (const std::size_t n : {1u, 2u, 10u, 100u}) {
    HllSketch sketch;
    const auto keys = make_keys(0x5eed0 + n, n);
    std::set<std::uint64_t> oracle(keys.begin(), keys.end());
    for (const auto k : keys) sketch.add(k);
    EXPECT_EQ(sketch.estimate_u64(), oracle.size()) << "n=" << n;
  }
}

TEST(HllSketch, RelativeErrorWithinTwoPercentAtDefaultPrecision) {
  // Default precision 12 -> 4096 registers -> ~1.6% standard error.  The
  // key streams are deterministic, so these are fixed draws, not flaky
  // statistics; the 2% bound is the documented accuracy contract for the
  // sketch-mode pipeline.
  for (const std::size_t n : {5'000u, 20'000u, 100'000u, 400'000u}) {
    HllSketch sketch;
    const auto keys = make_keys(0xca58 + n, n);
    std::set<std::uint64_t> oracle(keys.begin(), keys.end());
    for (const auto k : keys) sketch.add(k);
    const double truth = static_cast<double>(oracle.size());
    const double err = std::abs(sketch.estimate() - truth) / truth;
    EXPECT_LE(err, 0.02) << "n=" << n << " estimate=" << sketch.estimate();
  }
}

TEST(HllSketch, AddingDuplicatesIsIdempotent) {
  HllSketch sketch;
  const auto keys = make_keys(7, 1000);
  for (const auto k : keys) sketch.add(k);
  const std::string before = serialize(sketch);
  for (const auto k : keys) sketch.add(k);
  for (const auto k : keys) sketch.add(k);
  EXPECT_EQ(serialize(sketch), before);
}

TEST(HllSketch, MergeIsCommutative) {
  // Both sparse/sparse and dense/sparse pairings must commute, including
  // the representation (serialized bytes), not just the estimate.
  const struct {
    std::size_t na, nb;
  } cases[] = {{50, 80}, {50, 5000}, {5000, 80}, {20000, 30000}};
  for (const auto& c : cases) {
    HllSketch ab, ba, a, b;
    const auto ka = make_keys(11, c.na);
    const auto kb = make_keys(22, c.nb);
    for (const auto k : ka) {
      a.add(k);
      ab.add(k);
    }
    for (const auto k : kb) {
      b.add(k);
      ba.add(k);
    }
    ASSERT_TRUE(ab.merge_from(b));
    ASSERT_TRUE(ba.merge_from(a));
    EXPECT_EQ(serialize(ab), serialize(ba)) << c.na << "/" << c.nb;
    EXPECT_EQ(ab.estimate(), ba.estimate());
  }
}

TEST(HllSketch, MergeIsAssociative) {
  const auto ka = make_keys(31, 900);
  const auto kb = make_keys(32, 4000);
  const auto kc = make_keys(33, 150);
  HllSketch a1, b1, c1, a2, b2, c2;
  for (const auto k : ka) {
    a1.add(k);
    a2.add(k);
  }
  for (const auto k : kb) {
    b1.add(k);
    b2.add(k);
  }
  for (const auto k : kc) {
    c1.add(k);
    c2.add(k);
  }
  // (a ∪ b) ∪ c
  ASSERT_TRUE(a1.merge_from(b1));
  ASSERT_TRUE(a1.merge_from(c1));
  // a ∪ (b ∪ c)
  ASSERT_TRUE(b2.merge_from(c2));
  ASSERT_TRUE(a2.merge_from(b2));
  EXPECT_EQ(serialize(a1), serialize(a2));
}

TEST(HllSketch, MergeIsIdempotent) {
  HllSketch a, b;
  const auto keys = make_keys(44, 3000);
  for (const auto k : keys) {
    a.add(k);
    b.add(k);
  }
  const std::string before = serialize(a);
  ASSERT_TRUE(a.merge_from(b));
  EXPECT_EQ(serialize(a), before);
  ASSERT_TRUE(a.merge_from(a));
  EXPECT_EQ(serialize(a), before);
}

TEST(HllSketch, MergeEqualsUnionSketch) {
  // Registers are a pure function of the key set: merging shard sketches
  // must reproduce exactly the sketch of the union stream.
  const auto ka = make_keys(55, 12000);
  const auto kb = make_keys(56, 7000);
  HllSketch a, b, whole;
  for (const auto k : ka) {
    a.add(k);
    whole.add(k);
  }
  for (const auto k : kb) {
    b.add(k);
    whole.add(k);
  }
  ASSERT_TRUE(a.merge_from(b));
  EXPECT_EQ(serialize(a), serialize(whole));
  EXPECT_EQ(a.estimate(), whole.estimate());
}

TEST(HllSketch, MergeRejectsPrecisionMismatch) {
  HllSketch a(12), b(10);
  b.add(1);
  const std::string before = serialize(a);
  EXPECT_FALSE(a.merge_from(b));
  EXPECT_EQ(serialize(a), before);
}

TEST(HllSketch, SerdeRoundTripsBothForms) {
  for (const std::size_t n : {0u, 1u, 200u, 50'000u}) {
    HllSketch sketch(10);
    for (const auto k : make_keys(0xf0 + n, n)) sketch.add(k);
    const std::string bytes = serialize(sketch);
    std::istringstream in(bytes);
    BinaryReader reader(in);
    HllSketch restored(10);
    ASSERT_TRUE(restored.load(reader)) << "n=" << n;
    EXPECT_EQ(restored.dense(), sketch.dense());
    EXPECT_EQ(restored.estimate(), sketch.estimate());
    // Round-trip is byte-stable: save(load(save(x))) == save(x).
    EXPECT_EQ(serialize(restored), bytes);
  }
}

TEST(HllSketch, LoadRejectsCorruptStreams) {
  HllSketch sketch;
  for (const auto k : make_keys(9, 500)) sketch.add(k);
  const std::string good = serialize(sketch);

  {  // Truncated payload.
    std::istringstream in(good.substr(0, good.size() / 2));
    BinaryReader reader(in);
    HllSketch restored;
    EXPECT_FALSE(restored.load(reader));
  }
  {  // Precision out of range.
    std::string bad = good;
    bad[0] = 3;
    std::istringstream in(bad);
    BinaryReader reader(in);
    HllSketch restored;
    EXPECT_FALSE(restored.load(reader));
  }
  {  // Unknown form byte.
    std::string bad = good;
    bad[1] = 7;
    std::istringstream in(bad);
    BinaryReader reader(in);
    HllSketch restored;
    EXPECT_FALSE(restored.load(reader));
  }
}

TEST(CardinalityEstimator, ExactBelowThreshold) {
  CardinalityEstimator est(/*promote_threshold=*/100);
  for (std::uint64_t k = 0; k < 100; ++k) est.add(k * 7919);
  EXPECT_FALSE(est.promoted());
  EXPECT_EQ(est.count(), 100u);
  // Duplicates never count and never trigger promotion.
  for (std::uint64_t k = 0; k < 100; ++k) est.add(k * 7919);
  EXPECT_FALSE(est.promoted());
  EXPECT_EQ(est.count(), 100u);
}

TEST(CardinalityEstimator, PromotesPastThresholdAndStaysAccurate) {
  CardinalityEstimator est(/*promote_threshold=*/1000);
  const std::size_t n = 50'000;
  const auto keys = make_keys(0xab, n);
  std::set<std::uint64_t> oracle(keys.begin(), keys.end());
  for (const auto k : keys) est.add(k);
  EXPECT_TRUE(est.promoted());
  const double truth = static_cast<double>(oracle.size());
  const double err =
      std::abs(static_cast<double>(est.count()) - truth) / truth;
  EXPECT_LE(err, 0.02);
}

TEST(CardinalityEstimator, PromotionTimingDoesNotChangeRegisters) {
  // Keys folded at promotion and keys added after must land in the same
  // registers as a sketch that saw the whole stream directly.
  const auto keys = make_keys(0xcd, 20'000);
  CardinalityEstimator est(/*promote_threshold=*/64);
  HllSketch direct;
  for (const auto k : keys) {
    est.add(k);
    direct.add(k);
  }
  ASSERT_TRUE(est.promoted());
  EXPECT_EQ(est.count(), direct.estimate_u64());
}

TEST(CardinalityEstimator, MergeCoversAllPromotionCombinations) {
  const auto ka = make_keys(0x111, 30);
  const auto kb = make_keys(0x222, 20'000);
  auto fill = [](CardinalityEstimator& est, const std::vector<std::uint64_t>& keys) {
    for (const auto k : keys) est.add(k);
  };

  {  // exact + exact, no overflow: stays exact with the union count.
    CardinalityEstimator a(100), b(100);
    fill(a, ka);
    for (std::uint64_t k = 0; k < 40; ++k) b.add(k * 104729);
    ASSERT_TRUE(a.merge_from(b));
    EXPECT_FALSE(a.promoted());
    EXPECT_EQ(a.count(), 70u);
  }
  {  // exact + promoted: self promotes, registers merge.
    CardinalityEstimator a(100), b(100);
    fill(a, ka);
    fill(b, kb);
    ASSERT_TRUE(b.promoted());
    ASSERT_TRUE(a.merge_from(b));
    EXPECT_TRUE(a.promoted());
    // Must equal the union sketch exactly (register purity).
    CardinalityEstimator whole(100);
    fill(whole, ka);
    fill(whole, kb);
    EXPECT_EQ(a.count(), whole.count());
  }
  {  // promoted + exact: other's keys fold into registers.
    CardinalityEstimator a(100), b(100);
    fill(a, kb);
    fill(b, ka);
    ASSERT_TRUE(a.merge_from(b));
    CardinalityEstimator whole(100);
    fill(whole, kb);
    fill(whole, ka);
    EXPECT_EQ(a.count(), whole.count());
  }
  {  // knob mismatch refuses.
    CardinalityEstimator a(100), b(200);
    EXPECT_FALSE(a.merge_from(b));
    CardinalityEstimator c(100, 12), d(100, 10);
    EXPECT_FALSE(c.merge_from(d));
  }
}

TEST(CardinalityEstimator, SerdeRoundTripsBothStates) {
  for (const std::size_t n : {50u, 5'000u}) {
    CardinalityEstimator est(/*promote_threshold=*/100);
    for (const auto k : make_keys(0x5e + n, n)) est.add(k);
    const std::string bytes = serialize(est);
    std::istringstream in(bytes);
    BinaryReader reader(in);
    CardinalityEstimator restored(/*promote_threshold=*/100);
    ASSERT_TRUE(restored.load(reader)) << "n=" << n;
    EXPECT_EQ(restored.promoted(), est.promoted());
    EXPECT_EQ(restored.count(), est.count());
    EXPECT_EQ(serialize(restored), bytes);
  }
}

TEST(CardinalityEstimator, LoadRejectsThresholdMismatch) {
  CardinalityEstimator est(/*promote_threshold=*/100);
  est.add(1);
  const std::string bytes = serialize(est);
  std::istringstream in(bytes);
  BinaryReader reader(in);
  CardinalityEstimator other(/*promote_threshold=*/200);
  EXPECT_FALSE(other.load(reader));
}

}  // namespace
}  // namespace dnsbs
