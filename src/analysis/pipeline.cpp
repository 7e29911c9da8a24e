#include "analysis/pipeline.hpp"

#include <algorithm>
#include <stdexcept>

#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"

namespace dnsbs::analysis {

namespace {
// Window/retrain/classified totals are deterministic: the train chain runs
// strictly in window order whatever the thread count.
util::MetricCounter& g_windows = util::metrics_counter("dnsbs.pipeline.windows");
util::MetricCounter& g_retrains = util::metrics_counter("dnsbs.pipeline.retrains");
util::MetricCounter& g_classified = util::metrics_counter("dnsbs.pipeline.classified");
}  // namespace

WindowedPipeline::WindowedPipeline(WindowedPipelineConfig config,
                                   const netdb::AsDb& as_db, const netdb::GeoDb& geo_db,
                                   const core::QuerierResolver& resolver)
    : config_(config),
      as_db_(as_db),
      geo_db_(geo_db),
      resolver_(resolver),
      jobs_(config.jobs) {
  if (config_.carry_forward) {
    feature_cache_ = std::make_shared<core::FeatureExtractionCache>();
  }
  if (!jobs_) {
    jobs_ = std::make_shared<util::JobSystem>(
        util::JobSystemConfig{.threads = 1, .metric_prefix = "dnsbs.pipeline.jobs"});
  }
  train_queue_ = jobs_->queue("train");
}

WindowedPipeline::~WindowedPipeline() {
  // Swallow a pending exception: it already surfaced (or will) via the
  // finish() the caller owed us; destruction must not throw.
  try {
    jobs_->drain(train_queue_);
  } catch (...) {
  }
}

void WindowedPipeline::finish() { jobs_->drain(train_queue_); }

void WindowedPipeline::enqueue_window(std::span<const dns::QueryRecord> records,
                                      util::SimTime start, util::SimTime end) {
  // Sensor pass over this window only (fresh caches/aggregates: the
  // paper's per-interval feature vectors).  Runs in the calling thread,
  // overlapping the previous window's train+classify task.
  core::Sensor sensor(config_.sensor, as_db_, geo_db_, resolver_);
  if (feature_cache_) sensor.set_feature_cache(feature_cache_);
  sensor.ingest_all(records);
  const std::size_t position = stage_window(sensor, start, end);
  // Retrain + classify on the serial train queue; the caller is free to
  // ingest the next window meanwhile.  The job only touches
  // observations_[position], results_[position], labels_ (read) and
  // model_ — none of which the next stage_window reads or moves.
  jobs_->submit(train_queue_, [this, position] { train_and_classify(position); });
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

  // 2. Join the previous window before touching shared state: train and
  //    classify steps must run strictly in window order (the model carries
  //    over when a window is too thin to retrain).
  finish();

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
  finish();
  if (!results_.empty()) {
    throw std::logic_error("set_next_window_index: windows already enqueued");
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

const WindowResult& WindowedPipeline::process_window(
    std::span<const dns::QueryRecord> records, util::SimTime start, util::SimTime end) {
  enqueue_window(records, start, end);
  finish();
  return results_.back();
}

}  // namespace dnsbs::analysis
