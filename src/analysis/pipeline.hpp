// Windowed operation: the paper's recommended deployment loop (§V-F).
//
// Long-running studies process backscatter in fixed windows (a day or a
// week): each window's query log runs through a fresh Sensor, the
// classifier is retrained on the curated labels' *fresh* feature vectors
// ("adapting the classification boundary using fresh feature vector
// observations and re-training daily"), and every detected originator is
// classified.  WindowedPipeline packages that loop behind one call per
// window, close_window(); process_window() is a thin batch helper over it,
// so the streaming daemon and the longitudinal benches share one path.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "analysis/window_result.hpp"
#include "core/sensor.hpp"
#include "labeling/ground_truth.hpp"
#include "labeling/strategies.hpp"
#include "ml/forest.hpp"
#include "util/jobs.hpp"

namespace dnsbs::analysis {

struct WindowedPipelineConfig {
  core::SensorConfig sensor;
  ml::ForestConfig forest;
  /// Retraining needs at least this many classes with >= min_per_class
  /// examples in the window; otherwise the previous model is reused.
  std::size_t min_classes = 2;
  std::size_t min_per_class = 2;
  std::uint64_t seed = 1;
  /// Share one feature-extraction cache across windows: querier identities
  /// are resolved once for the whole run.  Rows stay byte-identical to
  /// independent per-window extraction as long as the resolver and AS/geo
  /// databases are stable over the run (the simulator's naming model is);
  /// disable when reverse names drift between windows, e.g. live resolvers
  /// with changing PTR data.
  bool carry_forward = true;
  /// Keep at most this many windows of results/observations in memory
  /// (0 = unlimited).  Long-running daemons set this: WindowResult.index
  /// stays absolute across trims, only the retained prefix is dropped.
  std::size_t history_limit = 0;
  /// The pool an async StreamingWindowDriver runs its close queue on;
  /// the daemon shares it with its export queue so one bounded worker
  /// pool serves both.  Null means the driver builds a single-worker pool
  /// of its own.  The pipeline itself runs no jobs.
  std::shared_ptr<util::JobSystem> jobs;
};

class WindowedPipeline {
 public:
  WindowedPipeline(WindowedPipelineConfig config, const netdb::AsDb& as_db,
                   const netdb::GeoDb& geo_db, const core::QuerierResolver& resolver);

  /// Installs (or replaces) the curated labeled set; typically called
  /// once after the first curation and again at re-curation dates.
  void set_labels(labeling::GroundTruth labels) { labels_ = std::move(labels); }
  const labeling::GroundTruth& labels() const noexcept { return labels_; }

  /// Batch helper: runs one window's query records through a fresh Sensor
  /// (sharing feature_cache()) and closes it with close_window().
  /// Returns the window's result (also retained internally).
  const WindowResult& process_window(std::span<const dns::QueryRecord> records,
                                     util::SimTime start, util::SimTime end);

  /// Closes one window: the caller owns a Sensor it has fed (record by
  /// record on the dnsbs_serve intake path, in one batch in
  /// process_window) and hands it over at the window boundary.  Extracts
  /// features, retrains on re-appearing labeled examples when there are
  /// enough, classifies every detected originator in the calling thread,
  /// and returns the window's result.  `late_records` is the caller's
  /// late-drop count for the window's stats.  The sensor should share
  /// feature_cache() if carry-forward matters; it may be destroyed as
  /// soon as this returns.
  const WindowResult& close_window(core::Sensor& sensor, util::SimTime start,
                                   util::SimTime end, std::uint64_t late_records);

  /// The carry-forward extraction cache (null when carry_forward is off).
  /// Streaming callers attach it to their sensors before ingesting.
  const std::shared_ptr<core::FeatureExtractionCache>& feature_cache() const noexcept {
    return feature_cache_;
  }

  const WindowedPipelineConfig& config() const noexcept { return config_; }

  /// Absolute index the next closed window will get.
  std::size_t next_window_index() const noexcept { return base_index_ + results_.size(); }

  /// Re-bases window numbering after a checkpoint restore so retrain seeds
  /// and result indices continue the uninterrupted sequence.  Only valid
  /// before the first window closes (or after results were trimmed to
  /// empty); asserts via std::logic_error otherwise.
  void set_next_window_index(std::size_t index);

  /// All windows closed so far (the retained suffix), in order.
  const std::vector<WindowResult>& results() const noexcept { return results_; }

  /// The per-window sensor observations (feature vectors), kept for
  /// strategy evaluation and re-curation.
  const std::vector<labeling::WindowObservation>& observations() const noexcept {
    return observations_;
  }

  /// True if a usable model exists (training has succeeded at least once).
  bool has_model() const noexcept { return model_ != nullptr; }

 private:
  /// Extracts the sensor's features, fills the window's sensor-side stats
  /// and appends its (not yet classified) result + observation; returns
  /// the vector position.
  std::size_t stage_window(core::Sensor& sensor, util::SimTime start, util::SimTime end);

  /// Retrain-if-possible + classify for the window at vector `position`
  /// (absolute index = base_index_ + position).  Windows close strictly in
  /// order, so the model carried into a thin window is its predecessor's.
  void train_and_classify(std::size_t position);

  WindowedPipelineConfig config_;
  const netdb::AsDb& as_db_;
  const netdb::GeoDb& geo_db_;
  const core::QuerierResolver& resolver_;
  /// Carry-forward extraction cache shared by every window's sensor (null
  /// when config_.carry_forward is off).  Closes run one at a time, so
  /// the cache is never extracted from concurrently.
  std::shared_ptr<core::FeatureExtractionCache> feature_cache_;
  labeling::GroundTruth labels_;
  std::unique_ptr<ml::RandomForest> model_;
  std::vector<WindowResult> results_;
  std::vector<labeling::WindowObservation> observations_;
  /// Absolute index of results_[0]; advanced by history trims and by
  /// set_next_window_index() after a restore.
  std::size_t base_index_ = 0;
};

}  // namespace dnsbs::analysis
