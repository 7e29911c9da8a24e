// Columnar + incremental feature extraction (core::FeatureEngine): the
// incremental-vs-full-recompute oracle, SoA-vs-map equivalence for all
// eight dynamic features, epoch-scratch reuse, carry-forward across
// sensors and windows, and thread-count determinism of the
// dnsbs.features.* counters.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "analysis/pipeline.hpp"
#include "core/feature_engine.hpp"
#include "core/sensor.hpp"
#include "util/binio.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace dnsbs::core {
namespace {

using dns::QueryRecord;
using dns::RCode;
using net::IPv4Addr;
using util::SimTime;

QueryRecord rec(std::int64_t secs, IPv4Addr querier, IPv4Addr originator) {
  return QueryRecord{SimTime::seconds(secs), querier, originator, RCode::kNoError};
}

IPv4Addr addr(int a, int b, int c, int d) {
  return IPv4Addr((std::uint32_t(a) << 24) | (std::uint32_t(b) << 16) |
                  (std::uint32_t(c) << 8) | std::uint32_t(d));
}

/// Deterministic resolver: category cycles with the querier's last octet.
/// Stable per address, as carry-forward requires.
class CyclingResolver final : public QuerierResolver {
 public:
  QuerierInfo resolve(IPv4Addr querier) const override {
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
      default:
        info.status = ResolveStatus::kUnreachable;
        break;
    }
    return info;
  }
};

/// CyclingResolver that counts its calls (single-threaded use only).
class CountingResolver final : public QuerierResolver {
 public:
  QuerierInfo resolve(IPv4Addr querier) const override {
    ++calls_;
    return base_.resolve(querier);
  }
  int calls() const noexcept { return calls_; }

 private:
  CyclingResolver base_;
  mutable int calls_ = 0;
};

struct Dbs {
  netdb::AsDb as_db;
  netdb::GeoDb geo_db;
  Dbs() {
    as_db.add(*net::Prefix::parse("10.0.0.0/16"), 100, "as-a");
    as_db.add(*net::Prefix::parse("10.1.0.0/16"), 200, "as-b");
    as_db.add(*net::Prefix::parse("10.2.0.0/16"), 300, "as-c");
    as_db.add(*net::Prefix::parse("10.9.0.0/16"), 900, "as-shift");
    geo_db.add(*net::Prefix::parse("10.0.0.0/16"), netdb::CountryCode('j', 'p'));
    geo_db.add(*net::Prefix::parse("10.1.0.0/16"), netdb::CountryCode('u', 's'));
    geo_db.add(*net::Prefix::parse("10.2.0.0/16"), netdb::CountryCode('d', 'e'));
    geo_db.add(*net::Prefix::parse("10.9.0.0/16"), netdb::CountryCode('f', 'r'));
  }
};

/// Multi-wave stream: wave 0 seeds 12 originators; wave 1 is a
/// normalizer-shift wave (new AS/country/periods via churned originators);
/// wave 2 is pure churn (one originator, already-seen periods, AS and CC).
std::vector<QueryRecord> wave(int which) {
  std::vector<QueryRecord> records;
  if (which == 0) {
    for (int o = 1; o <= 12; ++o) {
      for (int j = 0; j < 6; ++j) {
        records.push_back(
            rec(o * 37 + j, addr(10, j % 3, o % 4, j + 1), addr(1, 0, 0, o)));
      }
    }
  } else if (which == 1) {
    for (int o = 3; o <= 12; o += 3) {
      for (int j = 0; j < 3; ++j) {
        records.push_back(rec(2000 + o + j, addr(10, 9, o, j + 1), addr(1, 0, 0, o)));
      }
    }
  } else {
    for (int j = 0; j < 2; ++j) {
      records.push_back(rec(2100 + j, addr(10, 0, 1, 40 + j), addr(1, 0, 0, 5)));
    }
  }
  return records;
}

void expect_rows_bitwise_equal(const std::vector<FeatureVector>& got,
                               const std::vector<FeatureVector>& want,
                               const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].originator, want[i].originator) << context << " row " << i;
    EXPECT_EQ(got[i].footprint, want[i].footprint) << context << " row " << i;
    // EXPECT_EQ on double vectors is exact equality: the incremental path
    // must be *bitwise* identical to a full recompute, not merely close.
    EXPECT_EQ(got[i].row(), want[i].row()) << context << " row " << i;
  }
}

SensorConfig small_config() {
  SensorConfig cfg;
  cfg.min_queriers = 3;
  cfg.top_n = 0;
  return cfg;
}

TEST(FeatureEngineOracle, IncrementalMatchesFullRecomputeAcrossWaves) {
  const Dbs dbs;
  const CyclingResolver resolver;

  // The incremental sensor extracts after every wave (and twice in a row,
  // exercising the unchanged-interval fast path); the oracle is a fresh
  // sensor over the concatenated stream, recomputing everything.
  Sensor incremental(small_config(), dbs.as_db, dbs.geo_db, resolver);
  std::vector<QueryRecord> all_so_far;
  for (int w = 0; w < 3; ++w) {
    const auto records = wave(w);
    for (const auto& r : records) {
      incremental.ingest(r);
      all_so_far.push_back(r);
    }
    const auto rows = incremental.extract_features();
    const auto rows_again = incremental.extract_features();

    Sensor oracle(small_config(), dbs.as_db, dbs.geo_db, resolver);
    oracle.ingest_all(all_so_far);
    const auto full = oracle.extract_features();

    const std::string context = "wave " + std::to_string(w);
    expect_rows_bitwise_equal(rows, full, context);
    expect_rows_bitwise_equal(rows_again, full, context + " (fast path)");
  }
}

/// Map-based reference for the eight dynamic features, accumulating bucket
/// counts in first-touch order — the order the columnar pass uses — so the
/// comparison is bitwise, not approximate.
DynamicFeatures reference_dynamics(const OriginatorAggregate& agg, const netdb::AsDb& as_db,
                                   const netdb::GeoDb& geo_db, std::size_t norm_periods,
                                   std::size_t norm_as, std::size_t norm_cc) {
  DynamicFeatures f{};
  const std::size_t k = agg.unique_queriers();
  if (k == 0) return f;
  std::vector<std::size_t> c24, c8;
  std::unordered_map<std::uint32_t, std::size_t> pos24, pos8;
  std::unordered_set<std::uint32_t> ases;
  std::unordered_set<std::uint16_t> countries;
  for (const auto& [querier, count] : agg.querier_queries) {
    auto [it24, new24] = pos24.try_emplace(querier.slash24(), c24.size());
    if (new24) {
      c24.push_back(1);
    } else {
      ++c24[it24->second];
    }
    auto [it8, new8] = pos8.try_emplace(querier.slash8(), c8.size());
    if (new8) {
      c8.push_back(1);
    } else {
      ++c8[it8->second];
    }
    if (const auto asn = as_db.lookup(querier)) ases.insert(*asn);
    if (const auto cc = geo_db.lookup(querier)) countries.insert(cc->packed());
  }
  const double queriers = static_cast<double>(k);
  f[static_cast<std::size_t>(DynamicFeature::kQueriesPerQuerier)] =
      static_cast<double>(agg.total_queries) / queriers;
  f[static_cast<std::size_t>(DynamicFeature::kPersistence)] =
      norm_periods == 0 ? 0.0
                        : static_cast<double>(agg.periods.size()) /
                              static_cast<double>(norm_periods);
  f[static_cast<std::size_t>(DynamicFeature::kLocalEntropy)] =
      util::normalized_entropy(std::span<const std::size_t>(c24));
  f[static_cast<std::size_t>(DynamicFeature::kGlobalEntropy)] =
      util::normalized_entropy(std::span<const std::size_t>(c8));
  f[static_cast<std::size_t>(DynamicFeature::kUniqueAs)] =
      norm_as == 0 ? 0.0 : static_cast<double>(ases.size()) / static_cast<double>(norm_as);
  f[static_cast<std::size_t>(DynamicFeature::kUniqueCountries)] =
      norm_cc == 0 ? 0.0
                   : static_cast<double>(countries.size()) / static_cast<double>(norm_cc);
  f[static_cast<std::size_t>(DynamicFeature::kQueriersPerCountry)] =
      static_cast<double>(countries.size()) / queriers;
  f[static_cast<std::size_t>(DynamicFeature::kQueriersPerAs)] =
      static_cast<double>(ases.size()) / queriers;
  return f;
}

TEST(FeatureEngineEquivalence, SoAColumnsMatchMapReference) {
  const Dbs dbs;
  const CyclingResolver resolver;

  OriginatorAggregator agg;
  for (int w = 0; w < 3; ++w) {
    for (const auto& r : wave(w)) agg.add(r);
  }
  const auto interesting = agg.select_interesting(3, 0);
  ASSERT_FALSE(interesting.empty());

  FeatureEngine engine(dbs.as_db, dbs.geo_db, resolver,
                       std::make_shared<FeatureExtractionCache>());
  FeatureExtractionStats stats;
  const auto rows = engine.extract(agg, interesting, 1, &stats);
  ASSERT_EQ(rows.size(), interesting.size());
  EXPECT_EQ(stats.rows_recomputed, rows.size());
  EXPECT_EQ(stats.rows_reused, 0u);

  // Reference extractor for the legacy (map-churn) implementation, for the
  // within-tolerance comparison below.
  const DynamicFeatureExtractor legacy(dbs.as_db, dbs.geo_db, agg);
  EXPECT_EQ(engine.interval_as_count(), legacy.interval_as_count());
  EXPECT_EQ(engine.interval_cc_count(), legacy.interval_country_count());

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const OriginatorAggregate& a = *interesting[i];
    // Statics: bitwise against the per-aggregate resolver path.
    const StaticFeatures statics = compute_static_features(a, resolver);
    for (std::size_t c = 0; c < kQuerierCategoryCount; ++c) {
      EXPECT_EQ(rows[i].statics[c], statics[c]) << "row " << i << " static " << c;
    }
    // Dynamics: bitwise against the first-touch-order map reference...
    const DynamicFeatures want =
        reference_dynamics(a, dbs.as_db, dbs.geo_db, agg.total_periods(),
                           engine.interval_as_count(), engine.interval_cc_count());
    for (std::size_t d = 0; d < kDynamicFeatureCount; ++d) {
      EXPECT_EQ(rows[i].dynamics[d], want[d]) << "row " << i << " dynamic " << d;
    }
    // ...and within float tolerance of the legacy extractor (whose entropy
    // sums in flat-map slot order — same terms, different order).
    const DynamicFeatures old = legacy.extract(a);
    for (std::size_t d = 0; d < kDynamicFeatureCount; ++d) {
      EXPECT_NEAR(rows[i].dynamics[d], old[d], 1e-12) << "row " << i << " dynamic " << d;
    }
  }
}

TEST(FeatureEngineScratch, EpochReuseSurvivesForcedRecomputes) {
  const Dbs dbs;
  const CyclingResolver resolver;

  // One engine extracts three times over a growing aggregator: every
  // extract recomputes rows with the *same* scratch buffers (overlapping
  // /24 and AS universes across rows), so a stale stamp leaking across
  // rows or epochs would corrupt counts.  A fresh sensor per step is the
  // oracle.
  Sensor sensor(small_config(), dbs.as_db, dbs.geo_db, resolver);
  std::vector<QueryRecord> all_so_far;
  for (int w = 0; w < 3; ++w) {
    for (const auto& r : wave(w)) {
      sensor.ingest(r);
      all_so_far.push_back(r);
    }
  }
  (void)sensor.extract_features();

  // Shift a normalizer (new period bucket) via a single originator: every
  // cached row is invalidated and recomputed through the reused scratch.
  const QueryRecord shift = rec(9000, addr(10, 0, 1, 1), addr(1, 0, 0, 1));
  sensor.ingest(shift);
  all_so_far.push_back(shift);
  const auto rows = sensor.extract_features();

  Sensor oracle(small_config(), dbs.as_db, dbs.geo_db, resolver);
  oracle.ingest_all(all_so_far);
  expect_rows_bitwise_equal(rows, oracle.extract_features(), "post-shift");
}

TEST(FeatureEngineCounters, ChurnAndNormalizerShiftsPartitionRows) {
#if !DNSBS_METRICS_ENABLED
  GTEST_SKIP() << "built with -DDNSBS_METRICS=OFF";
#else
  const Dbs dbs;
  const CyclingResolver resolver;
  Sensor sensor(small_config(), dbs.as_db, dbs.geo_db, resolver);
  for (const auto& r : wave(0)) sensor.ingest(r);

  const auto counters = [] {
    const auto s = util::metrics_snapshot();
    struct Vals {
      std::int64_t reused, recomputed, dirty;
    };
    return Vals{s.scalar("dnsbs.features.rows_reused"),
                s.scalar("dnsbs.features.rows_recomputed"),
                s.scalar("dnsbs.features.dirty_originators")};
  };

  const auto before = counters();
  const std::size_t n = sensor.extract_features().size();
  ASSERT_EQ(n, 12u);
  auto after = counters();
  EXPECT_EQ(after.recomputed - before.recomputed, static_cast<std::int64_t>(n));
  EXPECT_EQ(after.reused - before.reused, 0);
  EXPECT_EQ(after.dirty - before.dirty, 12);

  // Unchanged sensor: the fast path reuses every row, touching nothing.
  auto prev = after;
  (void)sensor.extract_features();
  after = counters();
  EXPECT_EQ(after.reused - prev.reused, static_cast<std::int64_t>(n));
  EXPECT_EQ(after.recomputed - prev.recomputed, 0);
  EXPECT_EQ(after.dirty - prev.dirty, 0);

  // Pure churn: one originator gains queriers in an already-counted /16
  // (same AS/CC) within an already-seen period bucket, so only its row
  // recomputes — the normalizers (periods, AS, CC) are unchanged.
  sensor.ingest(rec(400, addr(10, 0, 1, 40), addr(1, 0, 0, 5)));
  sensor.ingest(rec(401, addr(10, 0, 1, 41), addr(1, 0, 0, 5)));
  prev = after;
  (void)sensor.extract_features();
  after = counters();
  EXPECT_EQ(after.dirty - prev.dirty, 1);
  EXPECT_EQ(after.recomputed - prev.recomputed, 1);
  EXPECT_EQ(after.reused - prev.reused, static_cast<std::int64_t>(n) - 1);

  // Normalizer shift (wave 1: new AS, country and periods): only the
  // churned originators are dirty, but every row must recompute.
  for (const auto& r : wave(1)) sensor.ingest(r);
  prev = after;
  (void)sensor.extract_features();
  after = counters();
  EXPECT_EQ(after.dirty - prev.dirty, 4);
  EXPECT_EQ(after.recomputed - prev.recomputed, static_cast<std::int64_t>(n));
  EXPECT_EQ(after.reused - prev.reused, 0);
#endif
}

TEST(FeatureEngineCarryForward, SharedCacheReusesRowsAcrossSensors) {
  const Dbs dbs;
  const CyclingResolver resolver;
  const auto cache = std::make_shared<FeatureExtractionCache>();
  std::vector<QueryRecord> records;
  for (int w = 0; w < 2; ++w) {
    for (const auto& r : wave(w)) records.push_back(r);
  }

  Sensor first(small_config(), dbs.as_db, dbs.geo_db, resolver);
  first.set_feature_cache(cache);
  first.ingest_all(records);
  const auto rows_first = first.extract_features();

  // A second sensor over the same stream shares the cache: its engine has
  // a different interval token, so reuse must go through the
  // column-comparison path — and still match bitwise.
  Sensor second(small_config(), dbs.as_db, dbs.geo_db, resolver);
  second.set_feature_cache(cache);
  second.ingest_all(records);
  const auto rows_second = second.extract_features();
  expect_rows_bitwise_equal(rows_second, rows_first, "shared cache");

  // An independent sensor with a fresh cache agrees too.
  Sensor independent(small_config(), dbs.as_db, dbs.geo_db, resolver);
  independent.ingest_all(records);
  expect_rows_bitwise_equal(rows_second, independent.extract_features(), "fresh cache");
}

TEST(FeatureEngineCarryForward, PipelineMatchesIndependentWindows) {
  const Dbs dbs;
  const CyclingResolver resolver;

  const auto run = [&](bool carry_forward) {
    analysis::WindowedPipelineConfig pc;
    pc.sensor = small_config();
    pc.carry_forward = carry_forward;
    analysis::WindowedPipeline pipeline(pc, dbs.as_db, dbs.geo_db, resolver);
    // Window w re-observes wave 0 (same querier histograms — prime
    // carry-forward candidates) plus its own churn wave.
    for (int w = 0; w < 3; ++w) {
      std::vector<QueryRecord> records = wave(0);
      if (w > 0) {
        for (const auto& r : wave(w)) records.push_back(r);
      }
      pipeline.enqueue_window(records, SimTime::hours(w), SimTime::hours(w + 1));
    }
    pipeline.finish();
    std::vector<std::vector<FeatureVector>> features;
    for (const auto& obs : pipeline.observations()) features.push_back(obs.features);
    return features;
  };

  const auto carried = run(true);
  const auto independent = run(false);
  ASSERT_EQ(carried.size(), independent.size());
  for (std::size_t w = 0; w < carried.size(); ++w) {
    expect_rows_bitwise_equal(carried[w], independent[w],
                              "window " + std::to_string(w));
  }
}

TEST(FeatureEngineDeterminism, CountersMatchSerialAcrossThreadCounts) {
#if !DNSBS_METRICS_ENABLED
  GTEST_SKIP() << "built with -DDNSBS_METRICS=OFF";
#else
  struct ThreadCountGuard {
    ~ThreadCountGuard() { util::set_thread_count(0); }
  } guard;

  const Dbs dbs;
  const CyclingResolver resolver;
  const auto run_with = [&](std::size_t threads) {
    util::set_thread_count(threads);
    util::metrics_reset();
    SensorConfig cfg = small_config();
    cfg.threads = threads;
    Sensor sensor(cfg, dbs.as_db, dbs.geo_db, resolver);
    for (int w = 0; w < 3; ++w) {
      for (const auto& r : wave(w)) sensor.ingest(r);
      (void)sensor.extract_features();
    }
    (void)sensor.extract_features();
    return util::metrics_snapshot().deterministic_view();
  };

  const util::MetricsSnapshot serial = run_with(1);
  EXPECT_GT(serial.scalar("dnsbs.features.rows_reused"), 0);
  EXPECT_GT(serial.scalar("dnsbs.features.rows_recomputed"), 0);
  EXPECT_GT(serial.scalar("dnsbs.features.dirty_originators"), 0);
  EXPECT_GT(serial.scalar("dnsbs.cache.interner.queriers"), 0);

  for (const std::size_t threads : {2, 4}) {
    const util::MetricsSnapshot parallel = run_with(threads);
    ASSERT_EQ(parallel.values.size(), serial.values.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.values.size(); ++i) {
      EXPECT_EQ(parallel.values[i], serial.values[i])
          << serial.values[i].name << " diverged at threads=" << threads;
    }
  }
#endif
}

TEST(FeatureExtractionCacheResolveAhead, MemoSkipsInternedAndRepeatQueriers) {
  const Dbs dbs;
  const CountingResolver resolver;
  FeatureExtractionCache cache;
  cache.intern(addr(10, 0, 0, 9),
               resolve_querier(addr(10, 0, 0, 9), dbs.as_db, dbs.geo_db, resolver));

  const std::vector<IPv4Addr> batch = {addr(10, 0, 0, 9), addr(10, 0, 0, 1),
                                       addr(10, 1, 0, 2), addr(10, 0, 0, 1)};
  cache.resolve_ahead(batch, dbs.as_db, dbs.geo_db, resolver);
  cache.resolve_ahead(batch, dbs.as_db, dbs.geo_db, resolver);
  EXPECT_EQ(cache.resolved_ahead(), 2u);
  EXPECT_EQ(resolver.calls(), 3);  // the interned one once, then two new ones
  EXPECT_EQ(cache.find_resolved(addr(10, 0, 0, 9)), nullptr);

  const QuerierResolution* hit = cache.find_resolved(addr(10, 1, 0, 2));
  ASSERT_NE(hit, nullptr);
  const QuerierResolution want =
      resolve_querier(addr(10, 1, 0, 2), dbs.as_db, dbs.geo_db, CyclingResolver{});
  EXPECT_EQ(hit->asn, want.asn);
  EXPECT_EQ(hit->cc, want.cc);
  EXPECT_EQ(hit->category, want.category);

  cache.drop_resolved();
  EXPECT_EQ(cache.resolved_ahead(), 0u);
}

TEST(FeatureExtractionCacheLoad, ClaimedLengthsBeyondTheStreamFailCleanly) {
  // An image claiming 2^30 queriers (or a 2^30-entry row column) and then
  // ending must fail after reading what is there, without reserving the
  // ~14 GiB the claim implies.
  const auto truncated = [](bool claim_in_row) {
    std::stringstream bytes;
    util::BinaryWriter out(bytes);
    out.u64(0);  // interval serial
    out.u64(0);  // querier-id map: capacity, size
    out.u64(0);
    if (!claim_in_row) {
      out.u64(std::uint64_t{1} << 30);
      for (int i = 0; i < 3; ++i) {  // three whole column entries, then EOF
        out.u32(1);
        out.u32(1);
        out.u32(0);
        out.u8(10);
        out.u8(0);
      }
      return bytes.str();
    }
    out.u64(0);  // no queriers
    for (int map = 0; map < 3; ++map) {  // AS, CC, /24 id maps: empty
      out.u64(0);
      out.u64(0);
    }
    out.u64(16);  // row map: capacity, size
    out.u64(1);
    out.u64(3);  // slot
    out.u32(addr(192, 0, 2, 1).value());
    for (int i = 0; i < 6; ++i) out.u64(1);  // token .. norm_periods
    out.u32(1);  // norm_as
    out.u32(1);  // norm_cc
    out.u64(std::uint64_t{1} << 30);  // qids length, then two ids and EOF
    out.u32(0);
    out.u32(1);
    return bytes.str();
  };
  for (const bool claim_in_row : {false, true}) {
    std::istringstream in(truncated(claim_in_row));
    util::BinaryReader reader(in);
    FeatureExtractionCache cache;
    EXPECT_FALSE(cache.load(reader)) << "claim_in_row=" << claim_in_row;
  }
}

}  // namespace
}  // namespace dnsbs::core
