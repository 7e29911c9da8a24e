#include "core/dynamic_features.hpp"

namespace dnsbs::core {

std::array<std::string_view, kDynamicFeatureCount> dynamic_feature_names() noexcept {
  return {"queries_per_querier", "persistence",       "local_entropy",
          "global_entropy",      "unique_as",         "unique_cc",
          "queriers_per_cc",     "queriers_per_as"};
}

}  // namespace dnsbs::core
