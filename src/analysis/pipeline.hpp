// Windowed operation: the paper's recommended deployment loop (§V-F).
//
// Long-running studies process backscatter in fixed windows (a day or a
// week): each window's query log runs through a fresh Sensor, the
// classifier is retrained on the curated labels' *fresh* feature vectors
// ("adapting the classification boundary using fresh feature vector
// observations and re-training daily"), and every detected originator is
// classified.  WindowedPipeline packages that loop behind one call per
// window so operators and the longitudinal benches share one code path.
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
  /// are resolved once for the whole run and originators whose flattened
  /// querier histograms (and window normalizers) repeat reuse their prior
  /// rows.  Rows stay byte-identical to independent per-window extraction
  /// as long as the resolver and AS/geo databases are stable over the run
  /// (the simulator's naming model is); disable when reverse names drift
  /// between windows, e.g. live resolvers with changing PTR data.
  bool carry_forward = true;
  /// Keep at most this many windows of results/observations in memory
  /// (0 = unlimited).  Long-running daemons set this: WindowResult.index
  /// stays absolute across trims, only the retained prefix is dropped.
  std::size_t history_limit = 0;
  /// Job system enqueue_window()'s train+classify chain runs on (queue
  /// "train").  Null means the pipeline owns a single-worker system of its
  /// own; the streaming daemon shares one system with its async close
  /// queue and export queue so a bounded worker pool serves them all.
  std::shared_ptr<util::JobSystem> jobs;
};

class WindowedPipeline {
 public:
  WindowedPipeline(WindowedPipelineConfig config, const netdb::AsDb& as_db,
                   const netdb::GeoDb& geo_db, const core::QuerierResolver& resolver);
  ~WindowedPipeline();

  /// Installs (or replaces) the curated labeled set; typically called
  /// once after the first curation and again at re-curation dates.
  /// Joins any in-flight window first.
  void set_labels(labeling::GroundTruth labels) {
    finish();
    labels_ = std::move(labels);
  }
  const labeling::GroundTruth& labels() const noexcept { return labels_; }

  /// Processes one window's query records: sensor pass, optional retrain
  /// on re-appearing labeled examples, classification of every detected
  /// originator.  Returns the window's result (also retained internally).
  /// Equivalent to enqueue_window() + finish().
  const WindowResult& process_window(std::span<const dns::QueryRecord> records,
                                     util::SimTime start, util::SimTime end);

  /// Pipelined variant: runs this window's sensor pass in the calling
  /// thread while the *previous* window's retrain + classification still
  /// runs on a background task, then hands this window to the background
  /// task chain.  Train/classify steps execute strictly in window order,
  /// so results are byte-identical to repeated process_window() calls.
  /// Call finish() (or any accessor that implies it) before reading
  /// results of the last enqueued window.
  void enqueue_window(std::span<const dns::QueryRecord> records, util::SimTime start,
                      util::SimTime end);

  /// Streaming variant: the caller owns a Sensor it has been feeding
  /// record-by-record (the dnsbs_serve intake path) and hands it over at
  /// the window boundary.  Extracts features, retrains and classifies in
  /// the calling thread — the streaming driver runs this on its serial
  /// close queue — and returns the window's result.  `late_records` is
  /// the caller's late-drop count for the window's stats.  The sensor
  /// should share feature_cache() if carry-forward matters; it may be
  /// destroyed as soon as this returns.
  const WindowResult& close_window(core::Sensor& sensor, util::SimTime start,
                                   util::SimTime end, std::uint64_t late_records);

  /// Joins the in-flight window, if any; rethrows its exception.
  void finish();

  /// The job system the train chain runs on (the config's, or the
  /// pipeline-owned default).  The async streaming driver and the daemon
  /// register their close/export queues on it so one worker pool serves
  /// the whole window pipeline.
  const std::shared_ptr<util::JobSystem>& jobs() const noexcept { return jobs_; }

  /// The carry-forward extraction cache (null when carry_forward is off).
  /// Streaming callers attach it to their sensors before ingesting.
  const std::shared_ptr<core::FeatureExtractionCache>& feature_cache() const noexcept {
    return feature_cache_;
  }

  const WindowedPipelineConfig& config() const noexcept { return config_; }

  /// Absolute index the next enqueued window will get.  Joins in-flight
  /// work (the counter is shared with the train chain's bookkeeping).
  std::size_t next_window_index() {
    finish();
    return base_index_ + results_.size();
  }

  /// Re-bases window numbering after a checkpoint restore so retrain seeds
  /// and result indices continue the uninterrupted sequence.  Only valid
  /// before the first window is enqueued (or after results were trimmed to
  /// empty); asserts via std::logic_error otherwise.
  void set_next_window_index(std::size_t index);

  /// All windows processed so far, in order.  Joins in-flight work.
  const std::vector<WindowResult>& results() {
    finish();
    return results_;
  }

  /// The per-window sensor observations (feature vectors), kept for
  /// strategy evaluation and re-curation.  Joins in-flight work.
  const std::vector<labeling::WindowObservation>& observations() {
    finish();
    return observations_;
  }

  /// True if a usable model exists (training has succeeded at least once).
  /// Joins in-flight work (the model is trained on the background task).
  bool has_model() {
    finish();
    return model_ != nullptr;
  }

 private:
  /// Extracts the sensor's features, fills the window's sensor-side stats
  /// and appends its (not yet classified) result + observation; returns
  /// the vector position.  Joins the in-flight window first.
  std::size_t stage_window(core::Sensor& sensor, util::SimTime start, util::SimTime end);

  /// Retrain-if-possible + classify for the window at vector `position`
  /// (absolute index = base_index_ + position); runs strictly in window
  /// order, on the train queue (enqueue_window) or inline (close_window).
  void train_and_classify(std::size_t position);

  WindowedPipelineConfig config_;
  const netdb::AsDb& as_db_;
  const netdb::GeoDb& geo_db_;
  const core::QuerierResolver& resolver_;
  /// Carry-forward extraction cache shared by every window's sensor (null
  /// when config_.carry_forward is off).  Sensor passes run one at a time
  /// on the calling thread, so the cache is never touched concurrently.
  std::shared_ptr<core::FeatureExtractionCache> feature_cache_;
  labeling::GroundTruth labels_;
  std::unique_ptr<ml::RandomForest> model_;
  std::vector<WindowResult> results_;
  std::vector<labeling::WindowObservation> observations_;
  /// Absolute index of results_[0]; advanced by history trims and by
  /// set_next_window_index() after a restore.
  std::size_t base_index_ = 0;
  /// Job system + serial queue the train+classify chain runs on.  The
  /// queue's FIFO order is the determinism argument: train steps execute
  /// strictly in window order whatever the worker count.
  std::shared_ptr<util::JobSystem> jobs_;
  util::JobSystem::QueueId train_queue_ = 0;
};

}  // namespace dnsbs::analysis
