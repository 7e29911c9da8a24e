// Shared shape for longitudinal analyses: one classified observation
// window (a day or a week of sensor output), as produced by running the
// sensor + classifier repeatedly over a long scenario (paper §VI).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "core/taxonomy.hpp"
#include "net/ipv4.hpp"
#include "util/time.hpp"

namespace dnsbs::analysis {

/// Fixed decile buckets for the prediction-confidence histogram:
/// bucket i holds confidences in [i/10, (i+1)/10), except the last which
/// also takes 1.0.
inline constexpr std::size_t kConfidenceBuckets = 10;

/// A window's own counts, filled at close from the window's sealed sensor
/// and its close-side results — never from the process-wide registry, so
/// they do not depend on what else runs in the process, on checkpoints or
/// restarts, or on how closes overlap other windows' work.
struct WindowStats {
  std::uint64_t records = 0;            ///< records offered: admitted + suppressed
  std::uint64_t dedup_admitted = 0;     ///< passed the 30 s duplicate filter
  std::uint64_t dedup_suppressed = 0;   ///< dropped as repeats within 30 s
  std::uint64_t originators = 0;        ///< originators aggregated
  std::uint64_t sketch_promotions = 0;  ///< originators promoted to sketches
  std::uint64_t interesting = 0;        ///< extracted feature rows (>= min_queriers)
  /// Records dropped late (older than every open window) since the
  /// previous close; streaming only, 0 on the batch path.
  std::uint64_t late_records = 0;
  std::uint64_t classified = 0;  ///< originators given a class
  bool retrained = false;        ///< this window retrained the model

  /// The --windows-out metric block: each field under the name of the
  /// process-wide series it is this window's share of, in name order.
  std::array<std::pair<std::string_view, std::uint64_t>, 9> series() const {
    return {{{"dnsbs.aggregate.originators", originators},
             {"dnsbs.aggregate.sketch_promotions", sketch_promotions},
             {"dnsbs.dedup.admitted", dedup_admitted},
             {"dnsbs.dedup.suppressed", dedup_suppressed},
             {"dnsbs.pipeline.classified", classified},
             {"dnsbs.pipeline.retrains", retrained ? 1u : 0u},
             {"dnsbs.sensor.interesting", interesting},
             {"dnsbs.sensor.records", records},
             {"dnsbs.serve.late_dropped", late_records}}};
  }

  bool operator==(const WindowStats&) const = default;
};

struct WindowResult {
  std::size_t index = 0;
  util::SimTime start{};
  util::SimTime end{};
  /// Predicted class per detected originator.
  std::unordered_map<net::IPv4Addr, core::AppClass> classes;
  /// Footprint (unique queriers) per detected originator.
  std::unordered_map<net::IPv4Addr, std::size_t> footprints;
  /// Histogram of RF vote-fraction confidence over this window's
  /// predictions (deciles).  Deterministic: the forest's vote tally is a
  /// pure function of model + row.
  std::array<std::uint64_t, kConfidenceBuckets> confidence_hist{};
  /// This window's counts, filled by close_window (which process_window
  /// and the streaming close both go through) from the window's own
  /// sensor and results.
  WindowStats stats;
};

}  // namespace dnsbs::analysis
