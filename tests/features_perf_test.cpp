// Columnar feature extraction on a shared cache (core::
// extract_feature_rows): windows on a shared cache against fresh sensors,
// SoA-vs-map equivalence for all eight dynamic features, epoch-scratch
// reuse, thread-count determinism of the deterministic counters, and the
// cache image's load checks.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/pipeline.hpp"
#include "core/feature_engine.hpp"
#include "core/sensor.hpp"
#include "reference_features.hpp"
#include "util/binio.hpp"
#include "util/parallel.hpp"

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

/// Record sets of consecutive windows, in the shape the daemon runs them:
/// each window is a fresh sensor over its own records, on one shared cache.
/// Window 1 repeats window 0.  Window 2 adds pure churn: originator 5 gains
/// two queriers in an already-counted AS, country and period.  Window 3
/// adds wave 1, which shifts every normalizer.  Window 4 adds wave 2,
/// pure churn again.
std::vector<std::vector<QueryRecord>> window_records() {
  const std::vector<QueryRecord> churn = {rec(400, addr(10, 0, 1, 40), addr(1, 0, 0, 5)),
                                          rec(401, addr(10, 0, 1, 41), addr(1, 0, 0, 5))};
  std::vector<std::vector<QueryRecord>> windows;
  std::vector<QueryRecord> records = wave(0);
  windows.push_back(records);
  windows.push_back(records);
  records.insert(records.end(), churn.begin(), churn.end());
  windows.push_back(records);
  for (const auto& r : wave(1)) records.push_back(r);
  windows.push_back(records);
  for (const auto& r : wave(2)) records.push_back(r);
  windows.push_back(records);
  return windows;
}

/// Extracts one window the way the daemon does: a fresh sensor on the
/// shared cache, extracted once.
std::vector<FeatureVector> extract_window(const std::vector<QueryRecord>& records,
                                          const std::shared_ptr<FeatureExtractionCache>& cache,
                                          const Dbs& dbs, const QuerierResolver& resolver,
                                          SensorConfig config = small_config()) {
  Sensor sensor(config, dbs.as_db, dbs.geo_db, resolver);
  sensor.set_feature_cache(cache);
  for (const auto& r : records) sensor.ingest(r);
  return sensor.extract_features();
}

TEST(FeatureEngineOracle, IncrementalMatchesFullRecomputeAcrossWaves) {
  const Dbs dbs;
  const CyclingResolver resolver;

  // Every window's rows, taken through the shared cache's interner,
  // match an independent sensor with a fresh cache bit for bit.
  const auto cache = std::make_shared<FeatureExtractionCache>();
  const auto windows = window_records();
  for (std::size_t w = 0; w < windows.size(); ++w) {
    const auto rows = extract_window(windows[w], cache, dbs, resolver);
    Sensor oracle(small_config(), dbs.as_db, dbs.geo_db, resolver);
    oracle.ingest_all(windows[w]);
    expect_rows_bitwise_equal(rows, oracle.extract_features(), "window " + std::to_string(w));
  }
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

  FeatureExtractionCache cache;
  FeatureExtractionStats stats;
  const auto rows = extract_feature_rows(agg, interesting, cache, dbs.as_db, dbs.geo_db,
                                         resolver, 1, stats);
  ASSERT_EQ(rows.size(), interesting.size());

  const reference::IntervalCounts norms =
      reference::interval_counts(agg, dbs.as_db, dbs.geo_db);
  EXPECT_EQ(stats.interval_as_count, norms.as_count);
  EXPECT_EQ(stats.interval_cc_count, norms.cc_count);

  for (std::size_t i = 0; i < rows.size(); ++i) {
    const OriginatorAggregate& a = *interesting[i];
    // Bitwise against the reference extractor: statics resolve every
    // querier directly, dynamics bucket in first-touch order.
    const StaticFeatures statics = reference::static_features(a, resolver);
    for (std::size_t c = 0; c < kQuerierCategoryCount; ++c) {
      EXPECT_EQ(rows[i].statics[c], statics[c]) << "row " << i << " static " << c;
    }
    const DynamicFeatures want = reference::dynamic_features(
        a, dbs.as_db, dbs.geo_db, agg.total_periods(), norms.as_count, norms.cc_count);
    for (std::size_t d = 0; d < kDynamicFeatureCount; ++d) {
      EXPECT_EQ(rows[i].dynamics[d], want[d]) << "row " << i << " dynamic " << d;
    }
  }
}

TEST(FeatureEngineScratch, EpochReuseSurvivesForcedRecomputes) {
  const Dbs dbs;
  const CyclingResolver resolver;

  // The normalizer-shift window recomputes every row on one worker, so
  // all rows share one epoch-stamped scratch buffer across overlapping /24
  // and AS universes: a stale stamp leaking from row to row would corrupt
  // counts.  The reference extractor, which keeps no scratch, is the
  // oracle.
  const auto cache = std::make_shared<FeatureExtractionCache>();
  const auto windows = window_records();
  SensorConfig config = small_config();
  config.threads = 1;
  for (std::size_t w = 0; w < 3; ++w) (void)extract_window(windows[w], cache, dbs, resolver);
  const auto rows = extract_window(windows[3], cache, dbs, resolver, config);

  OriginatorAggregator agg;
  for (const auto& r : windows[3]) agg.add(r);
  const auto interesting = agg.select_interesting(config.min_queriers, config.top_n);
  const reference::IntervalCounts norms =
      reference::interval_counts(agg, dbs.as_db, dbs.geo_db);
  ASSERT_EQ(rows.size(), interesting.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const OriginatorAggregate& a = *interesting[i];
    EXPECT_EQ(rows[i].originator, a.originator) << "row " << i;
    EXPECT_EQ(rows[i].statics, reference::static_features(a, resolver)) << "row " << i;
    EXPECT_EQ(rows[i].dynamics,
              reference::dynamic_features(a, dbs.as_db, dbs.geo_db, agg.total_periods(),
                                          norms.as_count, norms.cc_count))
        << "row " << i;
  }
}

TEST(FeatureEngineCarryForward, SharedCacheMatchesFreshCache) {
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

  // A second sensor over the same stream shares the cache, whose interner
  // already holds every querier: its rows match bitwise.
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
      pipeline.process_window(records, SimTime::hours(w), SimTime::hours(w + 1));
    }
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
    SensorConfig config = small_config();
    config.threads = threads;
    const auto cache = std::make_shared<FeatureExtractionCache>();
    for (const auto& records : window_records()) {
      (void)extract_window(records, cache, dbs, resolver, config);
    }
    return util::metrics_snapshot().deterministic_view();
  };

  const util::MetricsSnapshot serial = run_with(1);
  EXPECT_GT(serial.scalar("dnsbs.features.rows"), 0);
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
  // An image claiming 2^30 queriers and then ending must fail after
  // reading what is there, without reserving the ~14 GiB the claim implies.
  std::stringstream bytes;
  util::BinaryWriter out(bytes);
  out.u64(0);  // querier-id map: capacity, size
  out.u64(0);
  out.u64(std::uint64_t{1} << 30);
  for (int i = 0; i < 3; ++i) {  // three whole column entries, then EOF
    out.u32(1);
    out.u32(1);
    out.u32(0);
    out.u8(10);
    out.u8(0);
  }
  std::istringstream in(bytes.str());
  util::BinaryReader reader(in);
  FeatureExtractionCache cache;
  EXPECT_FALSE(cache.load(reader));
}

/// Reads / overwrites a little-endian u32 at `offset` of a saved image.
std::uint32_t read_u32(const std::string& image, std::size_t offset) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(image.at(offset + static_cast<std::size_t>(i)));
  }
  return v;
}

void write_u32(std::string& image, std::size_t offset, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    image.at(offset + i) = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

TEST(FeatureExtractionCacheLoad, InternedIdsOutOfRangeAreRejected) {
  // A cache filled by one real extraction; each case patches one interned
  // id in its saved image to just past its interner's range.  Extraction
  // indexes columns and scratch by these ids, so load must refuse them.
  const Dbs dbs;
  const CyclingResolver resolver;
  const auto cache = std::make_shared<FeatureExtractionCache>();
  Sensor sensor(small_config(), dbs.as_db, dbs.geo_db, resolver);
  sensor.set_feature_cache(cache);
  for (const auto& r : wave(0)) sensor.ingest(r);
  ASSERT_FALSE(sensor.extract_features().empty());
  const std::uint32_t queriers = static_cast<std::uint32_t>(cache->querier_count());
  const std::uint32_t ases = static_cast<std::uint32_t>(cache->as_count());
  const std::uint32_t ccs = static_cast<std::uint32_t>(cache->cc_count());
  const std::uint32_t s24s = static_cast<std::uint32_t>(cache->s24_count());
  ASSERT_GT(ases, 0u);
  ASSERT_GT(ccs, 0u);

  std::stringstream bytes;
  util::BinaryWriter out(bytes);
  cache->save(out);
  const std::string image = bytes.str();

  // Offsets follow FeatureExtractionCache::save: each id map as
  // (capacity, size, size x (slot u64, key, id u32)) and the querier
  // columns as (count, count x (as, cc, s24 u32, s8, category u8)).
  const std::size_t qid_map = 0;
  const std::size_t columns = qid_map + 16 + 16 * std::size_t{queriers};
  const std::size_t as_map = columns + 8 + 14 * std::size_t{queriers};
  const std::size_t cc_map = as_map + 16 + 16 * std::size_t{ases};
  const std::size_t s24_map = cc_map + 16 + 14 * std::size_t{ccs};
  const std::size_t first_qid = qid_map + 16 + 12;
  const std::size_t first_column = columns + 8;
  const std::size_t first_as = as_map + 16 + 12;
  const std::size_t first_cc = cc_map + 16 + 10;
  const std::size_t first_s24 = s24_map + 16 + 12;
  // The layout arithmetic lands on the fields it means to patch.
  ASSERT_EQ(cache->id_of(IPv4Addr{read_u32(image, first_qid - 4)}),
            read_u32(image, first_qid));
  ASSERT_EQ(read_u32(image, first_column), cache->as_id(0));
  ASSERT_EQ(read_u32(image, first_column + 4), cache->cc_id(0));
  ASSERT_EQ(read_u32(image, first_column + 8), cache->s24_id(0));
  // The /24 map ends the image: the cache is the interner and nothing else.
  ASSERT_EQ(image.size(), s24_map + 16 + 16 * std::size_t{s24s});

  {
    std::istringstream in(image);
    util::BinaryReader reader(in);
    FeatureExtractionCache restored;
    ASSERT_TRUE(restored.load(reader));
  }
  const struct {
    const char* field;
    std::size_t offset;
    std::uint32_t value;
  } cases[] = {
      {"querier-id map value", first_qid, queriers},
      {"AS id column", first_column, ases + 1},
      {"CC id column", first_column + 4, ccs + 1},
      {"/24 id column", first_column + 8, s24s},
      {"AS id map value 0", first_as, 0},
      {"AS id map value past size", first_as, ases + 1},
      {"CC id map value 0", first_cc, 0},
      {"CC id map value past size", first_cc, ccs + 1},
      {"/24 id map value", first_s24, s24s},
  };
  for (const auto& c : cases) {
    std::string patched = image;
    write_u32(patched, c.offset, c.value);
    std::istringstream in(patched);
    util::BinaryReader reader(in);
    FeatureExtractionCache restored;
    EXPECT_FALSE(restored.load(reader)) << c.field;
  }
}

}  // namespace
}  // namespace dnsbs::core
