// The combined per-originator feature vector fed to the classifiers:
// 14 static (querier-name category fractions) + 8 dynamic features, tagged
// with the originator address and its footprint (unique-querier count).
#pragma once

#include <string>
#include <vector>

#include "core/dynamic_features.hpp"
#include "core/static_features.hpp"
#include "ml/dataset.hpp"
#include "net/ipv4.hpp"

namespace dnsbs::core {

inline constexpr std::size_t kFeatureCount = kQuerierCategoryCount + kDynamicFeatureCount;

struct FeatureVector {
  net::IPv4Addr originator;
  std::size_t footprint = 0;  ///< unique queriers in the interval
  StaticFeatures statics{};
  DynamicFeatures dynamics{};

  /// Flattened row in the canonical column order (statics then dynamics).
  std::vector<double> row() const;
};

/// Canonical feature column names (statics then dynamics); the schema for
/// every ml::Dataset in the system.
const std::vector<std::string>& feature_names();

/// Application-class name table matching core::AppClass order, for
/// building datasets.
const std::vector<std::string>& app_class_names();

/// An empty dataset with the canonical schema.
ml::Dataset make_dataset();

}  // namespace dnsbs::core
