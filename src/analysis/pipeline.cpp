#include "analysis/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"

namespace dnsbs::analysis {

namespace {
// Window/retrain/classified totals are deterministic: windows close
// strictly in order whatever the thread count.
util::MetricCounter& g_windows = util::metrics_counter("dnsbs.pipeline.windows");
util::MetricCounter& g_retrains = util::metrics_counter("dnsbs.pipeline.retrains");
util::MetricCounter& g_classified = util::metrics_counter("dnsbs.pipeline.classified");
}  // namespace

WindowedPipeline::WindowedPipeline(WindowedPipelineConfig config,
                                   const netdb::AsDb& as_db, const netdb::GeoDb& geo_db,
                                   const core::QuerierResolver& resolver)
    : config_(std::move(config)), as_db_(as_db), geo_db_(geo_db), resolver_(resolver) {
  if (config_.carry_forward) {
    feature_cache_ = std::make_shared<core::FeatureExtractionCache>();
  }
}

const WindowResult& WindowedPipeline::process_window(
    std::span<const dns::QueryRecord> records, util::SimTime start, util::SimTime end) {
  // A fresh sensor per window: the paper's per-interval feature vectors.
  core::Sensor sensor(config_.sensor, as_db_, geo_db_, resolver_);
  if (feature_cache_) sensor.set_feature_cache(feature_cache_);
  sensor.ingest_all(records);
  return close_window(sensor, start, end, 0);
}

const WindowResult& WindowedPipeline::close_window(core::Sensor& sensor, util::SimTime start,
                                                   util::SimTime end,
                                                   std::uint64_t late_records) {
  const std::size_t position = stage_window(sensor, start, end);
  results_[position].stats.late_records = late_records;
  train_and_classify(position);
  return results_[position];
}

std::size_t WindowedPipeline::stage_window(core::Sensor& sensor, util::SimTime start,
                                           util::SimTime end) {
  DNSBS_SPAN("pipeline.window");
  g_windows.inc();
  // 1. Extract in the calling thread and take the window's counts from
  //    its own sensor.  Publishing the sensor's pending tallies keeps the
  //    process-wide registry cumulative (a streaming caller feeds the
  //    sensor via per-record ingest(), which never publishes; idempotent
  //    on the batch path, where ingest_all already did).
  labeling::WindowObservation observation;
  observation.start = start;
  observation.end = end;
  observation.features = sensor.extract_features();
  sensor.publish_metrics();
  WindowResult result;
  result.start = start;
  result.end = end;
  WindowStats& stats = result.stats;
  stats.dedup_admitted = sensor.dedup().admitted();
  stats.dedup_suppressed = sensor.dedup().suppressed();
  stats.records = stats.dedup_admitted + stats.dedup_suppressed;
  stats.originators = sensor.aggregator().originator_count();
  stats.sketch_promotions = sensor.aggregator().promoted_count();
  stats.interesting = observation.features.size();

  // Bound memory for long-running (streaming) callers: drop the oldest
  // retained windows; absolute indices keep counting via base_index_.
  if (config_.history_limit != 0 && results_.size() >= config_.history_limit) {
    const std::size_t drop = results_.size() - config_.history_limit + 1;
    results_.erase(results_.begin(), results_.begin() + static_cast<std::ptrdiff_t>(drop));
    observations_.erase(observations_.begin(),
                        observations_.begin() + static_cast<std::ptrdiff_t>(drop));
    base_index_ += drop;
  }

  const std::size_t position = results_.size();
  result.index = base_index_ + position;
  observations_.push_back(std::move(observation));
  results_.push_back(std::move(result));
  return position;
}

void WindowedPipeline::set_next_window_index(std::size_t index) {
  if (!results_.empty()) {
    throw std::logic_error("set_next_window_index: windows already closed");
  }
  base_index_ = index;
}

void WindowedPipeline::train_and_classify(std::size_t position) {
  DNSBS_SPAN("pipeline.train");
  const labeling::WindowObservation& observation = observations_[position];
  const std::size_t index = base_index_ + position;

  // Retrain on the labeled examples re-appearing in this window, when
  // there are enough of them; else keep yesterday's boundary (§V-C).
  auto [train, used] = labels_.join(observation.features);
  std::size_t populated = 0;
  for (const std::size_t c : train.class_counts()) {
    if (c >= config_.min_per_class) ++populated;
  }
  const bool retrained = populated >= config_.min_classes;
  if (retrained) {
    g_retrains.inc();
    ml::ForestConfig fc = config_.forest;
    fc.seed = config_.seed ^ (0x9e3779b97f4a7c15ULL * (index + 1));
    model_ = std::make_unique<ml::RandomForest>(fc);
    model_->fit(train);
  }

  // Classify everything detected, folding each prediction's vote-fraction
  // confidence into the window's decile histogram.
  WindowResult& result = results_[position];
  result.stats.retrained = retrained;
  if (model_) {
    for (const auto& fv : observation.features) {
      const auto [cls, confidence] = model_->predict_with_confidence(fv.row());
      result.classes[fv.originator] = static_cast<core::AppClass>(cls);
      result.footprints[fv.originator] = fv.footprint;
      const auto bucket = std::min(kConfidenceBuckets - 1,
                                   static_cast<std::size_t>(confidence * 10.0));
      ++result.confidence_hist[bucket];
    }
  }
  result.stats.classified = result.classes.size();
  g_classified.add(result.stats.classified);

  // One telemetry line per interval.
  const WindowStats& stats = result.stats;
  util::log_info(
      "pipeline",
      util::format("window %zu [%lld, %lld): records=%llu interesting=%llu "
                   "classified=%llu retrained=%s",
                   index, static_cast<long long>(result.start.secs()),
                   static_cast<long long>(result.end.secs()),
                   static_cast<unsigned long long>(stats.records),
                   static_cast<unsigned long long>(stats.interesting),
                   static_cast<unsigned long long>(stats.classified),
                   retrained ? "yes" : "no"));
}

}  // namespace dnsbs::analysis
