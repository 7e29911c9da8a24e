// Dedup, aggregation, dynamic features, and the Sensor facade.
#include <gtest/gtest.h>

#include "core/feature_engine.hpp"
#include "core/sensor.hpp"

namespace dnsbs::core {
namespace {

using dns::QueryRecord;
using dns::RCode;
using net::IPv4Addr;
using util::SimTime;

QueryRecord rec(std::int64_t secs, const char* querier, const char* originator) {
  return QueryRecord{SimTime::seconds(secs), *IPv4Addr::parse(querier),
                     *IPv4Addr::parse(originator), RCode::kNoError};
}

TEST(Deduplicator, SuppressesWithinWindow) {
  Deduplicator dedup(SimTime::seconds(30));
  EXPECT_TRUE(dedup.admit(rec(0, "10.0.0.1", "1.1.1.1")));
  EXPECT_FALSE(dedup.admit(rec(10, "10.0.0.1", "1.1.1.1")));
  EXPECT_FALSE(dedup.admit(rec(29, "10.0.0.1", "1.1.1.1")));
  EXPECT_TRUE(dedup.admit(rec(30, "10.0.0.1", "1.1.1.1")));
  EXPECT_EQ(dedup.admitted(), 2u);
  EXPECT_EQ(dedup.suppressed(), 2u);
}

TEST(Deduplicator, DistinctPairsIndependent) {
  Deduplicator dedup;
  EXPECT_TRUE(dedup.admit(rec(0, "10.0.0.1", "1.1.1.1")));
  EXPECT_TRUE(dedup.admit(rec(1, "10.0.0.2", "1.1.1.1")));  // other querier
  EXPECT_TRUE(dedup.admit(rec(2, "10.0.0.1", "2.2.2.2")));  // other originator
}

TEST(Deduplicator, PrunesOldState) {
  Deduplicator dedup(SimTime::seconds(30));
  for (int i = 0; i < 100; ++i) {
    dedup.admit(rec(i * 2, "10.0.0.1", ("1.1.1." + std::to_string(i)).c_str()));
  }
  // After pruning, long-dead entries must be gone (well under 100 live).
  EXPECT_LT(dedup.state_size(), 40u);
}

TEST(Deduplicator, OutOfOrderRecordRefreshes) {
  Deduplicator dedup(SimTime::seconds(30));
  EXPECT_TRUE(dedup.admit(rec(100, "10.0.0.1", "1.1.1.1")));
  // A record from before the stored timestamp is treated as a new sighting
  // (time went backwards; refresh rather than silently suppress).
  EXPECT_TRUE(dedup.admit(rec(10, "10.0.0.1", "1.1.1.1")));
}

TEST(Aggregator, CountsQueriersAndPeriods) {
  OriginatorAggregator agg;
  agg.add(rec(0, "10.0.0.1", "1.1.1.1"));
  agg.add(rec(5, "10.0.0.1", "1.1.1.1"));
  agg.add(rec(700, "10.0.0.2", "1.1.1.1"));
  ASSERT_EQ(agg.originator_count(), 1u);
  const auto& a = agg.aggregates().at(*IPv4Addr::parse("1.1.1.1"));
  EXPECT_EQ(a.unique_queriers(), 2u);
  EXPECT_EQ(a.total_queries, 3u);
  EXPECT_EQ(a.periods.size(), 2u);  // 0-600 and 600-1200
  EXPECT_EQ(a.first_seen.secs(), 0);
  EXPECT_EQ(a.last_seen.secs(), 700);
  EXPECT_EQ(agg.total_periods(), 2u);
}

TEST(Aggregator, SelectInterestingThresholdAndOrder) {
  OriginatorAggregator agg;
  // Originator A: 3 queriers; B: 5 queriers; C: 1 querier.
  for (int q = 0; q < 3; ++q) agg.add(rec(q, ("10.0.1." + std::to_string(q)).c_str(), "1.0.0.1"));
  for (int q = 0; q < 5; ++q) agg.add(rec(q, ("10.0.2." + std::to_string(q)).c_str(), "1.0.0.2"));
  agg.add(rec(0, "10.0.3.1", "1.0.0.3"));

  const auto top = agg.select_interesting(2, 0);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0]->originator, *IPv4Addr::parse("1.0.0.2"));
  EXPECT_EQ(top[1]->originator, *IPv4Addr::parse("1.0.0.1"));

  const auto top1 = agg.select_interesting(2, 1);
  ASSERT_EQ(top1.size(), 1u);
  EXPECT_EQ(top1[0]->originator, *IPv4Addr::parse("1.0.0.2"));
}

TEST(Aggregator, TieBreaksByAddress) {
  OriginatorAggregator agg;
  agg.add(rec(0, "10.0.0.1", "2.0.0.1"));
  agg.add(rec(0, "10.0.0.1", "1.0.0.1"));
  const auto top = agg.select_interesting(1, 0);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0]->originator, *IPv4Addr::parse("1.0.0.1"));
}

/// A resolver stub mapping specific addresses to fixed names.
class StubResolver final : public QuerierResolver {
 public:
  QuerierInfo resolve(net::IPv4Addr querier) const override {
    QuerierInfo info;
    switch (querier.octet(3) % 4) {
      case 0:
        info.status = ResolveStatus::kOk;
        info.name = *dns::DnsName::parse("mail.example.com");
        break;
      case 1:
        info.status = ResolveStatus::kOk;
        info.name = *dns::DnsName::parse("ns1.example.com");
        break;
      case 2:
        info.status = ResolveStatus::kNxDomain;
        break;
      case 3:
        info.status = ResolveStatus::kUnreachable;
        break;
    }
    return info;
  }
};

TEST(StaticFeatureExtraction, FractionsSumToOne) {
  OriginatorAggregator agg;
  for (int q = 0; q < 8; ++q) {
    agg.add(rec(q, ("10.0.0." + std::to_string(q)).c_str(), "1.1.1.1"));
  }
  const netdb::AsDb as_db;
  const netdb::GeoDb geo_db;
  const StubResolver resolver;
  FeatureExtractionCache cache;
  FeatureExtractionStats stats;
  const auto rows = extract_feature_rows(agg, agg.select_interesting(1, 0), cache, as_db,
                                         geo_db, resolver, 1, stats);
  ASSERT_EQ(rows.size(), 1u);
  const StaticFeatures& f = rows[0].statics;
  double sum = 0;
  for (const double v : f) sum += v;
  EXPECT_NEAR(sum, 1.0, 1e-12);
  EXPECT_NEAR(f[static_cast<std::size_t>(QuerierCategory::kMail)], 0.25, 1e-12);
  EXPECT_NEAR(f[static_cast<std::size_t>(QuerierCategory::kNs)], 0.25, 1e-12);
  EXPECT_NEAR(f[static_cast<std::size_t>(QuerierCategory::kNxDomain)], 0.25, 1e-12);
  EXPECT_NEAR(f[static_cast<std::size_t>(QuerierCategory::kUnreach)], 0.25, 1e-12);
}

TEST(DynamicFeatureExtraction, EntropyAndNormalizers) {
  netdb::AsDb as_db;
  netdb::GeoDb geo_db;
  as_db.add(*net::Prefix::parse("10.0.0.0/16"), 100, "as-a");
  as_db.add(*net::Prefix::parse("10.1.0.0/16"), 200, "as-b");
  geo_db.add(*net::Prefix::parse("10.0.0.0/16"), netdb::CountryCode('j', 'p'));
  geo_db.add(*net::Prefix::parse("10.1.0.0/16"), netdb::CountryCode('u', 's'));

  OriginatorAggregator agg;
  // Originator with queriers spread over two /24s, two ASes, two countries.
  agg.add(rec(0, "10.0.0.1", "1.1.1.1"));
  agg.add(rec(1, "10.0.0.1", "1.1.1.1"));  // repeat query, same querier
  agg.add(rec(2, "10.1.7.1", "1.1.1.1"));

  const StubResolver resolver;
  FeatureExtractionCache cache;
  FeatureExtractionStats stats;
  const auto rows = extract_feature_rows(agg, agg.select_interesting(1, 0), cache, as_db,
                                         geo_db, resolver, 1, stats);
  EXPECT_EQ(stats.interval_as_count, 2u);
  EXPECT_EQ(stats.interval_cc_count, 2u);

  ASSERT_EQ(rows.size(), 1u);
  const DynamicFeatures& f = rows[0].dynamics;
  EXPECT_NEAR(f[static_cast<std::size_t>(DynamicFeature::kQueriesPerQuerier)], 1.5, 1e-12);
  EXPECT_NEAR(f[static_cast<std::size_t>(DynamicFeature::kPersistence)], 1.0, 1e-12);
  // Two queriers in two distinct /24s and /8s: maximal normalized entropy.
  EXPECT_NEAR(f[static_cast<std::size_t>(DynamicFeature::kLocalEntropy)], 1.0, 1e-12);
  EXPECT_NEAR(f[static_cast<std::size_t>(DynamicFeature::kUniqueAs)], 1.0, 1e-12);
  EXPECT_NEAR(f[static_cast<std::size_t>(DynamicFeature::kUniqueCountries)], 1.0, 1e-12);
  EXPECT_NEAR(f[static_cast<std::size_t>(DynamicFeature::kQueriersPerCountry)], 1.0, 1e-12);
}

TEST(FeatureVector, RowLayout) {
  FeatureVector fv;
  fv.statics[0] = 0.5;                         // home
  fv.dynamics[0] = 3.25;                       // queries_per_querier
  const auto row = fv.row();
  ASSERT_EQ(row.size(), kFeatureCount);
  EXPECT_DOUBLE_EQ(row[0], 0.5);
  EXPECT_DOUBLE_EQ(row[kQuerierCategoryCount], 3.25);
  EXPECT_EQ(feature_names().size(), kFeatureCount);
  EXPECT_EQ(feature_names()[0], "home");
  EXPECT_EQ(feature_names()[kQuerierCategoryCount], "queries_per_querier");
}

TEST(Sensor, EndToEndSelectsAndExtracts) {
  netdb::AsDb as_db;
  netdb::GeoDb geo_db;
  as_db.add(*net::Prefix::parse("10.0.0.0/8"), 1, "as");
  geo_db.add(*net::Prefix::parse("10.0.0.0/8"), netdb::CountryCode('j', 'p'));
  const StubResolver resolver;

  SensorConfig cfg;
  cfg.min_queriers = 3;
  cfg.top_n = 10;
  Sensor sensor(cfg, as_db, geo_db, resolver);

  // Originator X gets 4 queriers (and duplicate suppressed queries);
  // originator Y only 2 -> filtered out.
  for (int q = 0; q < 4; ++q) {
    sensor.ingest(rec(q * 40, ("10.0.0." + std::to_string(q)).c_str(), "1.1.1.1"));
    sensor.ingest(rec(q * 40 + 1, ("10.0.0." + std::to_string(q)).c_str(), "1.1.1.1"));
  }
  sensor.ingest(rec(0, "10.0.1.1", "2.2.2.2"));
  sensor.ingest(rec(1, "10.0.1.2", "2.2.2.2"));

  const auto features = sensor.extract_features();
  ASSERT_EQ(features.size(), 1u);
  EXPECT_EQ(features[0].originator, *IPv4Addr::parse("1.1.1.1"));
  EXPECT_EQ(features[0].footprint, 4u);
  EXPECT_GT(sensor.dedup().suppressed(), 0u);
}

TEST(Sensor, ClassifyAllUsesModel) {
  // A trivial "model" that always answers class 3 (crawler).
  class Fixed final : public ml::Classifier {
   public:
    void fit(const ml::Dataset&) override {}
    std::size_t predict(std::span<const double>) const override { return 3; }
    std::string name() const override { return "fixed"; }
  };
  std::vector<FeatureVector> features(2);
  const Fixed model;
  const auto classified = classify_all(features, model);
  ASSERT_EQ(classified.size(), 2u);
  EXPECT_EQ(classified[0].predicted, AppClass::kCrawler);
}

}  // namespace
}  // namespace dnsbs::core
