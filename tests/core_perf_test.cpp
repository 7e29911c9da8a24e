// Performance-path invariants: feature extraction must resolve each unique
// querier exactly once per extract_features() call, and the amortized
// (bucketed-expiry) dedup prune must keep window state bounded and
// byte-identical to a full-walk prune under long skewed streams.
#include <gtest/gtest.h>

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/sensor.hpp"

namespace dnsbs::core {
namespace {

using dns::QueryRecord;
using dns::RCode;
using net::IPv4Addr;
using util::SimTime;

QueryRecord rec(std::int64_t secs, IPv4Addr querier, IPv4Addr originator) {
  return QueryRecord{SimTime::seconds(secs), querier, originator, RCode::kNoError};
}

/// Counts resolve() calls per querier; thread-safe because extraction
/// resolves unseen queriers in parallel.
class CountingResolver final : public QuerierResolver {
 public:
  QuerierInfo resolve(IPv4Addr querier) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counts_[querier.value()];
    }
    QuerierInfo info;
    info.status = querier.value() % 2 == 0 ? ResolveStatus::kNxDomain
                                           : ResolveStatus::kUnreachable;
    return info;
  }

  std::map<std::uint32_t, int> counts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
  }

 private:
  mutable std::mutex mu_;
  mutable std::map<std::uint32_t, int> counts_;
};

TEST(QuerierCache, ExtractFeaturesResolvesEachQuerierOnce) {
  netdb::AsDb as_db;
  netdb::GeoDb geo_db;
  as_db.add(*net::Prefix::parse("10.0.0.0/8"), 1, "as");
  geo_db.add(*net::Prefix::parse("10.0.0.0/8"), netdb::CountryCode('j', 'p'));

  // 6 originators share a pool of 30 queriers; every originator is queried
  // by every querier, so a per-originator tally without the cache would
  // resolve 180 times.
  std::vector<QueryRecord> records;
  std::int64_t t = 0;
  for (int o = 1; o <= 6; ++o) {
    for (int q = 1; q <= 30; ++q) {
      records.push_back(rec(t++, *IPv4Addr::parse("10.0.0." + std::to_string(q)),
                            *IPv4Addr::parse("1.0.0." + std::to_string(o))));
    }
  }

  for (const std::size_t threads : {std::size_t{1}, std::size_t{4}}) {
    const CountingResolver resolver;
    SensorConfig cfg;
    cfg.min_queriers = 3;
    cfg.threads = threads;
    Sensor sensor(cfg, as_db, geo_db, resolver);
    sensor.ingest_all(records);

    const auto features = sensor.extract_features();
    ASSERT_EQ(features.size(), 6u) << "threads=" << threads;

    const auto counts = resolver.counts();
    EXPECT_EQ(counts.size(), 30u) << "threads=" << threads;
    for (const auto& [querier, count] : counts) {
      EXPECT_EQ(count, 1) << "querier " << querier << " threads=" << threads;
    }
  }
}

/// Reference deduplicator with the pre-optimization semantics: full-map
/// walk at every 2*window boundary of the virtual clock.  The production
/// bucketed-expiry prune must retain exactly the same entries.
class OracleDedup {
 public:
  explicit OracleDedup(std::int64_t window) : window_(window) {}

  bool admit(const QueryRecord& r) {
    const std::uint64_t key =
        (static_cast<std::uint64_t>(r.querier.value()) << 32) | r.originator.value();
    const std::int64_t t = r.time.secs();
    const auto [it, inserted] = last_seen_.try_emplace(key, t);
    bool pass = true;
    if (!inserted) {
      if (t - it->second < window_ && t >= it->second) {
        pass = false;
      } else {
        it->second = t;
      }
    }
    pass ? ++admitted_ : ++suppressed_;
    const std::int64_t stride = 2 * window_;
    const std::int64_t interval = t / stride;
    if (interval > last_interval_) {
      const std::int64_t now = interval * stride;
      for (auto it2 = last_seen_.begin(); it2 != last_seen_.end();) {
        it2 = now - it2->second >= window_ ? last_seen_.erase(it2) : std::next(it2);
      }
      last_interval_ = interval;
    }
    return pass;
  }

  std::size_t state_size() const { return last_seen_.size(); }
  std::uint64_t admitted() const { return admitted_; }
  std::uint64_t suppressed() const { return suppressed_; }
  const std::unordered_map<std::uint64_t, std::int64_t>& state() const {
    return last_seen_;
  }

 private:
  std::int64_t window_;
  std::unordered_map<std::uint64_t, std::int64_t> last_seen_;
  std::int64_t last_interval_ = 0;
  std::uint64_t admitted_ = 0;
  std::uint64_t suppressed_ = 0;
};

TEST(DeduplicatorPrune, LongSkewedStreamStaysBoundedAndMatchesOracle) {
  // Skewed stream: one hot pair every second (constantly refreshed, never
  // expired) plus a cold one-shot pair per second that must age out.  With
  // 100k seconds of traffic the full stream touches ~100k distinct pairs;
  // live state must stay within a couple of windows' worth.
  const std::int64_t kWindow = 30;
  Deduplicator dedup(SimTime::seconds(kWindow));
  OracleDedup oracle(kWindow);

  const IPv4Addr hot_querier = *IPv4Addr::parse("10.0.0.1");
  const IPv4Addr hot_originator = *IPv4Addr::parse("1.1.1.1");
  std::size_t max_state = 0;
  for (std::int64_t t = 0; t < 100000; ++t) {
    const QueryRecord hot = rec(t, hot_querier, hot_originator);
    ASSERT_EQ(dedup.admit(hot), oracle.admit(hot)) << "t=" << t;
    // Cold pair: unique querier per second, one query each.
    const QueryRecord cold =
        rec(t, IPv4Addr(0x0a000000u + static_cast<std::uint32_t>(t % 16384)),
            IPv4Addr(0x02000000u + static_cast<std::uint32_t>(t / 16384)));
    ASSERT_EQ(dedup.admit(cold), oracle.admit(cold)) << "t=" << t;
    if (t % 1000 == 999) {
      ASSERT_EQ(dedup.state_size(), oracle.state_size()) << "t=" << t;
    }
    max_state = std::max(max_state, dedup.state_size());
  }

  EXPECT_EQ(dedup.admitted(), oracle.admitted());
  EXPECT_EQ(dedup.suppressed(), oracle.suppressed());
  EXPECT_EQ(dedup.state_size(), oracle.state_size());
  // Regression bound: the amortized prune keeps live state near the
  // per-2-window churn (~120 pairs), nowhere near the ~100k total pairs.
  EXPECT_LT(max_state, 500u);
}

TEST(DeduplicatorPrune, BackdatedRefreshStillExpires) {
  // A record that runs the clock backwards refreshes the entry; the
  // bucketed expiry must still drop it once the (forward) clock leaves the
  // window, exactly as a full-walk prune would.
  const std::int64_t kWindow = 30;
  Deduplicator dedup(SimTime::seconds(kWindow));
  OracleDedup oracle(kWindow);
  const std::vector<QueryRecord> stream = {
      rec(100, *IPv4Addr::parse("10.0.0.1"), *IPv4Addr::parse("1.1.1.1")),
      rec(10, *IPv4Addr::parse("10.0.0.1"), *IPv4Addr::parse("1.1.1.1")),  // backdated
      rec(101, *IPv4Addr::parse("10.0.0.2"), *IPv4Addr::parse("1.1.1.1")),
      rec(240, *IPv4Addr::parse("10.0.0.3"), *IPv4Addr::parse("1.1.1.1")),
      rec(600, *IPv4Addr::parse("10.0.0.4"), *IPv4Addr::parse("1.1.1.1")),
  };
  for (const auto& r : stream) {
    EXPECT_EQ(dedup.admit(r), oracle.admit(r));
    EXPECT_EQ(dedup.state_size(), oracle.state_size());
  }
}

TEST(DeduplicatorPrune, ShardedMergeMatchesSerialStateUnderChurn) {
  // Same stream ingested serially and via two originator-disjoint shards
  // with a final catch_up_prune: merged state must be identical.
  const std::int64_t kWindow = 30;
  Deduplicator serial(SimTime::seconds(kWindow));
  Deduplicator shard_a(SimTime::seconds(kWindow));
  Deduplicator shard_b(SimTime::seconds(kWindow));

  SimTime batch_end;
  for (std::int64_t t = 0; t < 5000; ++t) {
    // Pairs repeat every 26 s (< 30 s window), so suppression, refresh,
    // and expiry all occur in both the serial and sharded runs.
    const IPv4Addr querier(0x0a000000u + static_cast<std::uint32_t>(t % 13));
    const IPv4Addr originator(0x01000000u + static_cast<std::uint32_t>(t % 2));
    const QueryRecord r = rec(t, querier, originator);
    serial.admit(r);
    (originator.value() % 2 == 0 ? shard_a : shard_b).admit(r);
    batch_end = std::max(batch_end, r.time);
  }
  shard_a.catch_up_prune(batch_end);
  shard_b.catch_up_prune(batch_end);
  serial.catch_up_prune(batch_end);

  Deduplicator merged(SimTime::seconds(kWindow));
  merged.merge_from(std::move(shard_a));
  merged.merge_from(std::move(shard_b));
  EXPECT_EQ(merged.admitted(), serial.admitted());
  EXPECT_EQ(merged.suppressed(), serial.suppressed());
  EXPECT_EQ(merged.state_size(), serial.state_size());
}

}  // namespace
}  // namespace dnsbs::core
