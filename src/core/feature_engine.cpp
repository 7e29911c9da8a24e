#include "core/feature_engine.hpp"

#include <algorithm>
#include <array>

#include "util/binio.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"
#include "util/stats.hpp"

namespace dnsbs::core {

namespace {
// Where each first-seen querier was resolved.  Sched: the split depends on
// batch timing and on restarts (the memo is not checkpointed).
util::MetricCounter& g_resolved_ahead =
    util::metrics_counter("dnsbs.features.queriers_resolved_ahead", /*sched=*/true);
util::MetricCounter& g_resolved_at_close =
    util::metrics_counter("dnsbs.features.queriers_resolved_at_close", /*sched=*/true);
}  // namespace

QuerierResolution resolve_querier(net::IPv4Addr querier, const netdb::AsDb& as_db,
                                  const netdb::GeoDb& geo_db,
                                  const QuerierResolver& resolver) {
  return QuerierResolution{as_db.lookup(querier), geo_db.lookup(querier),
                           classify_querier(resolver.resolve(querier))};
}

std::uint32_t FeatureExtractionCache::intern(net::IPv4Addr querier,
                                             const QuerierResolution& resolution) {
  const auto id = static_cast<std::uint32_t>(category_.size());
  qid_.try_emplace(querier, id);
  // Dense ids hand out the next integer on first sight; 0 is reserved for
  // "no mapping" on the AS/CC axes (function arguments are evaluated
  // before try_emplace runs, so size() is the pre-insert size).
  std::uint32_t as = 0;
  if (resolution.asn) {
    as = as_ids_.try_emplace(*resolution.asn, static_cast<std::uint32_t>(as_ids_.size() + 1))
             .first->second;
  }
  std::uint32_t ccid = 0;
  if (resolution.cc) {
    ccid = cc_ids_
               .try_emplace(resolution.cc->packed(),
                            static_cast<std::uint32_t>(cc_ids_.size() + 1))
               .first->second;
  }
  const std::uint32_t s24 =
      s24_ids_.try_emplace(querier.slash24(), static_cast<std::uint32_t>(s24_ids_.size()))
          .first->second;
  as_id_.push_back(as);
  cc_id_.push_back(ccid);
  s24_id_.push_back(s24);
  s8_.push_back(static_cast<std::uint8_t>(querier.slash8()));
  category_.push_back(resolution.category);
  return id;
}

void FeatureExtractionCache::resolve_ahead(std::span<const net::IPv4Addr> queriers,
                                           const netdb::AsDb& as_db,
                                           const netdb::GeoDb& geo_db,
                                           const QuerierResolver& resolver) {
  std::uint64_t resolved = 0;
  for (const net::IPv4Addr querier : queriers) {
    if (id_of(querier) != kNoId || ahead_.contains(querier)) continue;
    ahead_.try_emplace(querier, resolve_querier(querier, as_db, geo_db, resolver));
    ++resolved;
  }
  g_resolved_ahead.add(resolved);
}

namespace {

constexpr std::uint64_t kMaxLoadLen = std::uint64_t{1} << 30;

template <typename K, typename WriteKey>
void save_id_map(util::BinaryWriter& out, const util::FlatMap<K, std::uint32_t>& map,
                 WriteKey&& write_key) {
  out.u64(map.capacity());
  out.u64(map.size());
  map.for_each_slot([&](std::size_t slot, const K& key, std::uint32_t id) {
    out.u64(slot);
    write_key(key);
    out.u32(id);
  });
}

template <typename K, typename ReadKey>
bool load_id_map(util::BinaryReader& in, util::FlatMap<K, std::uint32_t>& map,
                 ReadKey&& read_key) {
  const std::uint64_t cap = in.u64();
  const std::uint64_t n = in.u64();
  if (!in.ok() || n > cap || !map.restore_layout(cap)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t slot = in.u64();
    const K key = read_key();
    const std::uint32_t id = in.u32();
    if (!in.ok() || !map.place(slot, key, id)) return false;
  }
  return true;
}

/// True if every id `map` assigns lies in [lo, end).
template <typename K>
bool ids_in(const util::FlatMap<K, std::uint32_t>& map, std::uint64_t lo, std::uint64_t end) {
  for (const auto& [key, id] : map) {
    if (id < lo || id >= end) return false;
  }
  return true;
}

/// True if every value of `column` lies below `end`.
bool column_below(const std::vector<std::uint32_t>& column, std::uint64_t end) {
  return std::all_of(column.begin(), column.end(),
                     [end](std::uint32_t v) { return v < end; });
}

}  // namespace

void FeatureExtractionCache::save(util::BinaryWriter& out) const {
  save_id_map(out, qid_, [&out](net::IPv4Addr q) { out.u32(q.value()); });
  // Columns (parallel arrays indexed by querier id).
  out.u64(category_.size());
  for (std::size_t id = 0; id < category_.size(); ++id) {
    out.u32(as_id_[id]);
    out.u32(cc_id_[id]);
    out.u32(s24_id_[id]);
    out.u8(s8_[id]);
    out.u8(static_cast<std::uint8_t>(category_[id]));
  }
  save_id_map(out, as_ids_, [&out](netdb::Asn a) { out.u32(a); });
  save_id_map(out, cc_ids_, [&out](std::uint16_t c) { out.u16(c); });
  save_id_map(out, s24_ids_, [&out](std::uint32_t s) { out.u32(s); });
}

bool FeatureExtractionCache::load(util::BinaryReader& in) {
  if (!load_id_map(in, qid_, [&in] { return net::IPv4Addr{in.u32()}; })) return false;
  const std::uint64_t queriers = in.u64();
  if (!in.ok() || queriers > kMaxLoadLen) return false;
  as_id_.clear();
  cc_id_.clear();
  s24_id_.clear();
  s8_.clear();
  category_.clear();
  ahead_.clear();
  // The columns never reserve() the count read from the image: they grow
  // only as bytes actually arrive, so a corrupt length costs what the
  // stream holds, not what it claims.
  for (std::uint64_t id = 0; id < queriers; ++id) {
    const std::uint32_t as = in.u32();
    const std::uint32_t cc = in.u32();
    const std::uint32_t s24 = in.u32();
    const std::uint8_t s8 = in.u8();
    const std::uint8_t cat = in.u8();
    if (!in.ok() || cat >= kQuerierCategoryCount) return false;
    as_id_.push_back(as);
    cc_id_.push_back(cc);
    s24_id_.push_back(s24);
    s8_.push_back(s8);
    category_.push_back(static_cast<QuerierCategory>(cat));
  }
  if (!load_id_map(in, as_ids_, [&in] { return netdb::Asn{in.u32()}; })) return false;
  if (!load_id_map(in, cc_ids_, [&in] { return in.u16(); })) return false;
  if (!load_id_map(in, s24_ids_, [&in] { return in.u32(); })) return false;
  // Every interned id must index what it names: extraction reads the
  // columns by querier id and writes its AS/CC scratch by AS/CC id (0 is
  // "no mapping", so those ids run 1..count).
  if (!ids_in(qid_, 0, querier_count()) || !ids_in(as_ids_, 1, as_count() + 1) ||
      !ids_in(cc_ids_, 1, cc_count() + 1) || !ids_in(s24_ids_, 0, s24_count()) ||
      !column_below(as_id_, as_count() + 1) || !column_below(cc_id_, cc_count() + 1) ||
      !column_below(s24_id_, s24_count())) {
    return false;
  }
  return in.ok();
}

namespace {

/// Epoch-stamped scratch for one worker slot: bucket membership is
/// detected by comparing a per-bucket stamp against the current row's
/// epoch, so buffers are reused across rows without clearing.
struct Scratch {
  std::vector<std::uint64_t> stamp24, stamp8, stamp_as, stamp_cc;
  std::vector<std::uint32_t> pos24, pos8;
  std::vector<std::size_t> counts24, counts8;  ///< first-touch bucket order
  std::uint64_t epoch = 0;

  Scratch(std::size_t s24_n, std::size_t as_n, std::size_t cc_n)
      : stamp24(s24_n, 0),
        stamp8(256, 0),
        stamp_as(as_n + 1, 0),
        stamp_cc(cc_n + 1, 0),
        pos24(s24_n, 0),
        pos8(256, 0) {}
};

/// Interval-wide normalizers a row is computed under.
struct Norms {
  std::uint64_t periods = 0;
  std::uint32_t as = 0;
  std::uint32_t cc = 0;
};

FeatureVector compute_row(const FeatureExtractionCache& cache, const OriginatorAggregate& agg,
                          const Norms& norms, Scratch& s) {
  FeatureVector fv;
  fv.originator = agg.originator;
  const std::size_t k = agg.querier_queries.size();
  // Cardinality-shaped outputs read the aggregate's footprint (the sketch
  // estimate once promoted); sample-shaped reductions below stream over
  // the k retained queriers.  Exact mode: footprint == k.
  fv.footprint = agg.unique_queriers();
  if (k == 0) return fv;

  // One streaming pass over the querier histogram, in flat-map order,
  // gathers everything the eight dynamic features and fourteen static
  // fractions need.  Bucket membership is epoch-stamped: a stale stamp
  // means "first touch this row", so the scratch arrays never need
  // clearing between rows.
  std::array<std::uint32_t, kQuerierCategoryCount> category_counts{};
  ++s.epoch;
  s.counts24.clear();
  s.counts8.clear();
  std::size_t distinct_as = 0, distinct_cc = 0;
  for (const auto& [querier, count] : agg.querier_queries) {
    const std::uint32_t qid = cache.id_of(querier);
    ++category_counts[static_cast<std::size_t>(cache.category(qid))];
    const std::uint32_t b24 = cache.s24_id(qid);
    if (s.stamp24[b24] != s.epoch) {
      s.stamp24[b24] = s.epoch;
      s.pos24[b24] = static_cast<std::uint32_t>(s.counts24.size());
      s.counts24.push_back(1);
    } else {
      ++s.counts24[s.pos24[b24]];
    }
    const std::uint8_t b8 = cache.s8(qid);
    if (s.stamp8[b8] != s.epoch) {
      s.stamp8[b8] = s.epoch;
      s.pos8[b8] = static_cast<std::uint32_t>(s.counts8.size());
      s.counts8.push_back(1);
    } else {
      ++s.counts8[s.pos8[b8]];
    }
    const std::uint32_t as = cache.as_id(qid);
    if (as != 0 && s.stamp_as[as] != s.epoch) {
      s.stamp_as[as] = s.epoch;
      ++distinct_as;
    }
    const std::uint32_t cc = cache.cc_id(qid);
    if (cc != 0 && s.stamp_cc[cc] != s.epoch) {
      s.stamp_cc[cc] = s.epoch;
      ++distinct_cc;
    }
  }

  const double queriers = static_cast<double>(k);
  // Integer tallies divided once: identical to summing 1.0 per member and
  // dividing (both are exact below 2^53), so rows match the reference
  // extractor in tests/reference_features.hpp bit-for-bit.
  for (std::size_t c = 0; c < kQuerierCategoryCount; ++c) {
    fv.statics[c] = static_cast<double>(category_counts[c]) / queriers;
  }
  DynamicFeatures& f = fv.dynamics;
  f[static_cast<std::size_t>(DynamicFeature::kQueriesPerQuerier)] =
      static_cast<double>(agg.total_queries) / static_cast<double>(fv.footprint);
  f[static_cast<std::size_t>(DynamicFeature::kPersistence)] =
      norms.periods == 0 ? 0.0
                         : static_cast<double>(agg.periods.size()) /
                               static_cast<double>(norms.periods);
  f[static_cast<std::size_t>(DynamicFeature::kLocalEntropy)] =
      util::normalized_entropy(std::span<const std::size_t>(s.counts24));
  f[static_cast<std::size_t>(DynamicFeature::kGlobalEntropy)] =
      util::normalized_entropy(std::span<const std::size_t>(s.counts8));
  f[static_cast<std::size_t>(DynamicFeature::kUniqueAs)] =
      norms.as == 0 ? 0.0 : static_cast<double>(distinct_as) / static_cast<double>(norms.as);
  f[static_cast<std::size_t>(DynamicFeature::kUniqueCountries)] =
      norms.cc == 0 ? 0.0 : static_cast<double>(distinct_cc) / static_cast<double>(norms.cc);
  f[static_cast<std::size_t>(DynamicFeature::kQueriersPerCountry)] =
      static_cast<double>(distinct_cc) / queriers;
  f[static_cast<std::size_t>(DynamicFeature::kQueriersPerAs)] =
      static_cast<double>(distinct_as) / queriers;
  return fv;
}

}  // namespace

std::vector<FeatureVector> extract_feature_rows(
    const OriginatorAggregator& interval,
    std::span<const OriginatorAggregate* const> interesting, FeatureExtractionCache& cache,
    const netdb::AsDb& as_db, const netdb::GeoDb& geo_db, const QuerierResolver& resolver,
    std::size_t threads, FeatureExtractionStats& stats) {
  stats = FeatureExtractionStats{};

  // --- 1. One walk over the interval's aggregates: collect the queriers
  // the interner hasn't met yet, in first-seen order, and mark the AS and
  // country of every querier it has.
  std::vector<std::uint8_t> as_seen(cache.as_count() + 1, 0);
  std::vector<std::uint8_t> cc_seen(cache.cc_count() + 1, 0);
  Norms norms;
  norms.periods = interval.total_periods();
  const auto mark = [&](std::uint32_t qid) {
    const std::uint32_t as = cache.as_id(qid);
    if (as != 0 && !as_seen[as]) {
      as_seen[as] = 1;
      ++norms.as;
    }
    const std::uint32_t cc = cache.cc_id(qid);
    if (cc != 0 && !cc_seen[cc]) {
      cc_seen[cc] = 1;
      ++norms.cc;
    }
  };
  std::vector<net::IPv4Addr> pending;
  util::FlatSet<net::IPv4Addr> pending_seen;
  for (const auto& [addr, agg] : interval.aggregates()) {
    for (const auto& [querier, count] : agg.querier_queries) {
      const std::uint32_t qid = cache.id_of(querier);
      if (qid != FeatureExtractionCache::kNoId) {
        mark(qid);
      } else if (pending_seen.insert(querier)) {
        pending.push_back(querier);
      }
    }
  }

  // --- 2. Take the unseen queriers' resolve-ahead memo hits, resolve the
  // misses in parallel (resolver and AS/geo databases are read-only), then
  // intern serially in first-seen order so dense-id assignment is
  // deterministic for every thread count.  Marking them afterwards gives
  // the same normalizers: they count distinct sets.
  std::vector<QuerierResolution> resolved(pending.size());
  std::vector<std::size_t> misses;
  for (std::size_t i = 0; i < pending.size(); ++i) {
    if (const QuerierResolution* hit = cache.find_resolved(pending[i])) {
      resolved[i] = *hit;
    } else {
      misses.push_back(i);
    }
  }
  util::parallel_for(
      misses.size(),
      [&](std::size_t m) {
        resolved[misses[m]] = resolve_querier(pending[misses[m]], as_db, geo_db, resolver);
      },
      threads);
  g_resolved_at_close.add(misses.size());
  const std::uint32_t first_new = static_cast<std::uint32_t>(cache.querier_count());
  for (std::size_t i = 0; i < pending.size(); ++i) cache.intern(pending[i], resolved[i]);
  as_seen.resize(cache.as_count() + 1, 0);
  cc_seen.resize(cache.cc_count() + 1, 0);
  for (std::uint32_t qid = first_new; qid < cache.querier_count(); ++qid) mark(qid);
  stats.queriers_interned = pending.size();
  stats.interval_as_count = norms.as;
  stats.interval_cc_count = norms.cc;

  // --- 3. Row phase: every row reads its aggregate, in parallel contiguous
  // chunks over the now-frozen interner, one scratch buffer per chunk.
  const std::size_t n = interesting.size();
  std::vector<FeatureVector> out(n);
  const std::size_t slots = threads == 0 ? util::configured_thread_count() : threads;
  const std::size_t chunks = std::clamp<std::size_t>(slots, 1, n == 0 ? 1 : n);
  util::parallel_for(
      chunks,
      [&](std::size_t c) {
        Scratch scratch(cache.s24_count(), cache.as_count(), cache.cc_count());
        for (std::size_t i = c * n / chunks; i < (c + 1) * n / chunks; ++i) {
          out[i] = compute_row(cache, *interesting[i], norms, scratch);
        }
      },
      threads);
  return out;
}

}  // namespace dnsbs::core
