// Dynamic features: spatial and temporal structure of an originator's
// queriers (paper §III-C).  core::extract_feature_rows computes them
// (core/feature_engine.hpp).
//
//   queries per querier   (temporal)  mean queries per unique querier
//   query persistence     (temporal)  fraction of the interval's 10-minute
//                                     periods in which the originator appears
//   local entropy         (spatial)   normalized entropy of querier /24s
//   global entropy        (spatial)   normalized entropy of querier /8s
//   unique ASes           (spatial)   queriers' ASes / ASes in interval
//   unique countries      (spatial)   queriers' countries / countries in interval
//   queriers per country  (spatial)   country diversity per querier
//   queriers per AS       (spatial)   AS diversity per querier
//
// Note on the last two: the paper's Table II reports values like 0.006 for
// an originator with tens of thousands of queriers, i.e. the reported
// quantity is countries (ASes) normalized by queriers, not the raw
// queriers/country ratio the prose suggests.  We reproduce the table's
// quantity and keep the paper's feature names.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

namespace dnsbs::core {

inline constexpr std::size_t kDynamicFeatureCount = 8;

enum class DynamicFeature : std::size_t {
  kQueriesPerQuerier = 0,
  kPersistence,
  kLocalEntropy,
  kGlobalEntropy,
  kUniqueAs,
  kUniqueCountries,
  kQueriersPerCountry,
  kQueriersPerAs,
};

using DynamicFeatures = std::array<double, kDynamicFeatureCount>;

std::array<std::string_view, kDynamicFeatureCount> dynamic_feature_names() noexcept;

}  // namespace dnsbs::core
