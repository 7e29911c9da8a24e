// Property and parameterized tests for the sensor pipeline invariants.
#include <gtest/gtest.h>

#include <sstream>

#include "core/feature_engine.hpp"
#include "core/sensor.hpp"
#include "util/rng.hpp"

namespace dnsbs::core {
namespace {

using dns::QueryRecord;
using net::IPv4Addr;
using util::SimTime;

// ---- dedup properties over random record streams ----

class DedupProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DedupProperty, AdmittedPlusSuppressedEqualsTotal) {
  util::Rng rng(GetParam());
  Deduplicator dedup;
  const std::size_t n = 5000;
  for (std::size_t i = 0; i < n; ++i) {
    QueryRecord r;
    r.time = SimTime::seconds(static_cast<std::int64_t>(i / 4));
    r.querier = IPv4Addr(static_cast<std::uint32_t>(rng.below(50)));
    r.originator = IPv4Addr(static_cast<std::uint32_t>(rng.below(20)) + 1000);
    dedup.admit(r);
  }
  EXPECT_EQ(dedup.admitted() + dedup.suppressed(), n);
  EXPECT_GT(dedup.suppressed(), 0u);
}

TEST_P(DedupProperty, NoTwoAdmissionsOfSamePairWithinWindow) {
  util::Rng rng(GetParam() ^ 0x77);
  const SimTime window = SimTime::seconds(30);
  Deduplicator dedup(window);
  std::unordered_map<std::uint64_t, std::int64_t> last_admitted;
  for (std::size_t i = 0; i < 5000; ++i) {
    QueryRecord r;
    r.time = SimTime::seconds(static_cast<std::int64_t>(i / 3));
    r.querier = IPv4Addr(static_cast<std::uint32_t>(rng.below(30)));
    r.originator = IPv4Addr(static_cast<std::uint32_t>(rng.below(10)));
    const std::uint64_t key =
        (static_cast<std::uint64_t>(r.querier.value()) << 32) | r.originator.value();
    if (dedup.admit(r)) {
      const auto it = last_admitted.find(key);
      if (it != last_admitted.end()) {
        EXPECT_GE(r.time.secs() - it->second, window.secs());
      }
      last_admitted[key] = r.time.secs();
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DedupProperty, ::testing::Values(1u, 2u, 3u));

// ---- aggregation properties ----

class AggregateProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(AggregateProperty, TotalsAreConserved) {
  util::Rng rng(GetParam());
  OriginatorAggregator agg;
  std::size_t n = 3000;
  for (std::size_t i = 0; i < n; ++i) {
    QueryRecord r;
    r.time = SimTime::seconds(static_cast<std::int64_t>(rng.below(36000)));
    r.querier = IPv4Addr(static_cast<std::uint32_t>(rng.below(500)));
    r.originator = IPv4Addr(static_cast<std::uint32_t>(rng.below(40)));
    agg.add(r);
  }
  std::size_t total_queries = 0;
  for (const auto& [addr, a] : agg.aggregates()) {
    total_queries += a.total_queries;
    EXPECT_LE(a.unique_queriers(), a.total_queries);
    EXPECT_LE(a.first_seen, a.last_seen);
    EXPECT_GE(a.periods.size(), 1u);
    std::size_t querier_sum = 0;
    for (const auto& [q, c] : a.querier_queries) querier_sum += c;
    EXPECT_EQ(querier_sum, a.total_queries);
  }
  EXPECT_EQ(total_queries, n);
}

TEST_P(AggregateProperty, SelectionIsMonotoneInThreshold) {
  util::Rng rng(GetParam() ^ 0x99);
  OriginatorAggregator agg;
  for (std::size_t i = 0; i < 2000; ++i) {
    QueryRecord r;
    r.time = SimTime::seconds(static_cast<std::int64_t>(i));
    r.querier = IPv4Addr(static_cast<std::uint32_t>(rng.below(300)));
    r.originator = IPv4Addr(static_cast<std::uint32_t>(rng.below(30)));
    agg.add(r);
  }
  std::size_t previous = SIZE_MAX;
  for (const std::size_t threshold : {1UL, 5UL, 20UL, 50UL, 200UL}) {
    const std::size_t count = agg.select_interesting(threshold, 0).size();
    EXPECT_LE(count, previous);
    previous = count;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregateProperty, ::testing::Values(4u, 5u, 6u));

// ---- sensor config sweep: top_n truncation and threshold behaviour ----

struct SensorSweepCase {
  std::size_t min_queriers;
  std::size_t top_n;
};

class SensorSweep : public ::testing::TestWithParam<SensorSweepCase> {
 protected:
  class NullResolver final : public QuerierResolver {
   public:
    QuerierInfo resolve(net::IPv4Addr) const override {
      QuerierInfo info;
      info.status = ResolveStatus::kNxDomain;
      return info;
    }
  };
};

TEST_P(SensorSweep, RespectsThresholdAndTruncation) {
  const auto param = GetParam();
  netdb::AsDb as_db;
  netdb::GeoDb geo_db;
  NullResolver resolver;
  SensorConfig cfg;
  cfg.min_queriers = param.min_queriers;
  cfg.top_n = param.top_n;
  Sensor sensor(cfg, as_db, geo_db, resolver);

  // 20 originators with footprints 1..20 (distinct queriers, no dups).
  util::Rng rng(9);
  for (std::uint32_t o = 1; o <= 20; ++o) {
    for (std::uint32_t q = 0; q < o; ++q) {
      QueryRecord r;
      r.time = SimTime::seconds(q * 60);
      r.querier = IPv4Addr((o << 16) | q);
      r.originator = IPv4Addr(o);
      sensor.ingest(r);
    }
  }
  const auto features = sensor.extract_features();
  std::size_t expected = 0;
  for (std::uint32_t o = 1; o <= 20; ++o) {
    if (o >= param.min_queriers) ++expected;
  }
  if (param.top_n != 0) expected = std::min(expected, param.top_n);
  EXPECT_EQ(features.size(), expected);
  for (const auto& fv : features) {
    EXPECT_GE(fv.footprint, param.min_queriers);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, SensorSweep,
    ::testing::Values(SensorSweepCase{1, 0}, SensorSweepCase{5, 0},
                      SensorSweepCase{5, 3}, SensorSweepCase{20, 0},
                      SensorSweepCase{21, 0}, SensorSweepCase{1, 1}));

// ---- static feature fractions always form a distribution ----

class StaticFractionProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(StaticFractionProperty, SumToOneForAnyQuerierMix) {
  util::Rng rng(GetParam());
  class HashResolver final : public QuerierResolver {
   public:
    QuerierInfo resolve(net::IPv4Addr q) const override {
      QuerierInfo info;
      static const char* kNames[] = {
          "mail.example.com", "ns.example.org", "home1-2-3-4.isp.jp",
          "firewall.corp.us", "weird.example.net"};
      switch (q.value() % 7) {
        case 0: info.status = ResolveStatus::kNxDomain; break;
        case 1: info.status = ResolveStatus::kUnreachable; break;
        default:
          info.status = ResolveStatus::kOk;
          info.name = *dns::DnsName::parse(kNames[q.value() % 5]);
      }
      return info;
    }
  };
  HashResolver resolver;
  OriginatorAggregator agg;
  const std::size_t queriers = 1 + rng.below(200);
  for (std::size_t q = 0; q < queriers; ++q) {
    QueryRecord r;
    r.time = SimTime::seconds(static_cast<std::int64_t>(q));
    r.querier = IPv4Addr(static_cast<std::uint32_t>(rng.next()));
    r.originator = IPv4Addr(42);
    agg.add(r);
  }
  const netdb::AsDb as_db;
  const netdb::GeoDb geo_db;
  FeatureExtractionCache cache;
  FeatureExtractionStats stats;
  const auto rows = extract_feature_rows(agg, agg.select_interesting(1, 0), cache, as_db,
                                         geo_db, resolver, 1, stats);
  ASSERT_EQ(rows.size(), 1u);
  const StaticFeatures& f = rows[0].statics;
  double sum = 0;
  for (const double v : f) {
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    sum += v;
  }
  EXPECT_NEAR(sum, 1.0, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, StaticFractionProperty,
                         ::testing::Values(31u, 32u, 33u, 34u));

}  // namespace
}  // namespace dnsbs::core
