#include "core/feature_vector.hpp"

namespace dnsbs::core {

std::vector<double> FeatureVector::row() const {
  std::vector<double> out;
  out.reserve(kFeatureCount);
  out.insert(out.end(), statics.begin(), statics.end());
  out.insert(out.end(), dynamics.begin(), dynamics.end());
  return out;
}

const std::vector<std::string>& feature_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    names.reserve(kFeatureCount);
    for (const auto n : static_feature_names()) names.emplace_back(n);
    for (const auto n : dynamic_feature_names()) names.emplace_back(n);
    return names;
  }();
  return kNames;
}

const std::vector<std::string>& app_class_names() {
  static const std::vector<std::string> kNames = [] {
    std::vector<std::string> names;
    names.reserve(kAppClassCount);
    for (const AppClass c : all_app_classes()) names.emplace_back(to_string(c));
    return names;
  }();
  return kNames;
}

ml::Dataset make_dataset() { return ml::Dataset(feature_names(), app_class_names()); }

}  // namespace dnsbs::core
