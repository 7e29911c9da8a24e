// The plain reference extractor the columnar FeatureEngine is tested
// against: one direct, map-based computation of the 14 static and 8
// dynamic features per aggregate (paper §III-C), resolving every querier
// afresh.  Slow by design and kept out of src/: it exists to be obviously
// right, not fast.
//
// Dynamic bucket counts accumulate in first-touch order — the order the
// columnar pass uses — so comparisons against the engine are bitwise, not
// approximate.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "core/aggregate.hpp"
#include "core/feature_vector.hpp"
#include "netdb/as_db.hpp"
#include "netdb/geo_db.hpp"
#include "util/stats.hpp"

namespace dnsbs::core::reference {

/// Fraction of the aggregate's queriers in each reverse-name category.
inline StaticFeatures static_features(const OriginatorAggregate& agg,
                                      const QuerierResolver& resolver) {
  StaticFeatures f{};
  if (agg.querier_queries.empty()) return f;
  // Category tallies are small integers, so this sum is exact and the
  // result is independent of querier iteration order.
  for (const auto& [querier, count] : agg.querier_queries) {
    f[static_cast<std::size_t>(classify_querier(resolver.resolve(querier)))] += 1.0;
  }
  const double total = static_cast<double>(agg.unique_queriers());
  for (double& v : f) v /= total;
  return f;
}

/// Interval-wide normalizers: distinct ASes and countries over every
/// querier of every aggregate in the interval.
struct IntervalCounts {
  std::size_t as_count = 0;
  std::size_t cc_count = 0;
};

inline IntervalCounts interval_counts(const OriginatorAggregator& interval,
                                      const netdb::AsDb& as_db, const netdb::GeoDb& geo_db) {
  std::unordered_set<netdb::Asn> ases;
  std::unordered_set<std::uint16_t> countries;
  for (const auto& [originator, agg] : interval.aggregates()) {
    for (const auto& [querier, count] : agg.querier_queries) {
      if (const auto asn = as_db.lookup(querier)) ases.insert(*asn);
      if (const auto cc = geo_db.lookup(querier)) countries.insert(cc->packed());
    }
  }
  return {ases.size(), countries.size()};
}

/// The eight dynamic features of one aggregate under the given interval
/// normalizers.
inline DynamicFeatures dynamic_features(const OriginatorAggregate& agg,
                                        const netdb::AsDb& as_db,
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

}  // namespace dnsbs::core::reference
