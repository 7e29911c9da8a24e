#include "core/sensor.hpp"

#include <algorithm>

#include "util/binio.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace dnsbs::core {
namespace {

/// Below this batch size the shard bookkeeping costs more than it saves.
constexpr std::size_t kMinShardedBatch = 4096;

// Deterministic series: record/admit/suppress totals, selected rows and
// batched cache-lookup counts are functions of the input alone.  Whether a
// batch took the sharded path depends on DNSBS_THREADS, so sharded_batches
// is sched.  Gauges are set at publish points from the sensor's own state,
// which the sharded-ingest contract keeps byte-identical to serial.
util::MetricCounter& g_records = util::metrics_counter("dnsbs.sensor.records");
util::MetricCounter& g_batches = util::metrics_counter("dnsbs.sensor.batches");
util::MetricCounter& g_sharded =
    util::metrics_counter("dnsbs.sensor.sharded_batches", /*sched=*/true);
util::MetricCounter& g_interesting = util::metrics_counter("dnsbs.sensor.interesting");
util::MetricCounter& g_admitted = util::metrics_counter("dnsbs.dedup.admitted");
util::MetricCounter& g_suppressed = util::metrics_counter("dnsbs.dedup.suppressed");
util::MetricCounter& g_feature_rows = util::metrics_counter("dnsbs.features.rows");
// interner.queriers counts first-sight resolutions: a pure function of the
// input stream and extract-call sequence, deterministic across
// DNSBS_THREADS.  extract_ns is wall-clock timing (histograms sit outside
// the deterministic view by construction).
util::MetricCounter& g_interned = util::metrics_counter("dnsbs.cache.interner.queriers");
util::MetricHistogram& g_extract_ns = util::metrics_histogram("dnsbs.features.extract_ns");
util::MetricCounter& g_predictions = util::metrics_counter("dnsbs.sensor.classified");
util::MetricGauge& g_live_keys = util::metrics_gauge("dnsbs.dedup.live_keys");
util::MetricGauge& g_originators = util::metrics_gauge("dnsbs.aggregate.originators");
util::MetricGauge& g_periods = util::metrics_gauge("dnsbs.aggregate.periods");
// Register bytes across all promoted originators (0 in exact mode).  Set
// at publish points from aggregator state, which the sharded-ingest
// contract keeps byte-identical to serial — deterministic.
util::MetricGauge& g_sketch_bytes = util::metrics_gauge("dnsbs.aggregate.sketch_bytes");

}  // namespace

Sensor::Sensor(SensorConfig config, const netdb::AsDb& as_db, const netdb::GeoDb& geo_db,
               const QuerierResolver& resolver)
    : config_(config),
      as_db_(as_db),
      geo_db_(geo_db),
      resolver_(resolver),
      dedup_(config.dedup_window),
      aggregator_(config.persistence_period, config.sketch_config()) {}

void Sensor::ingest(const dns::QueryRecord& record) {
  if (dedup_.admit(record)) aggregator_.add(record);
}

void Sensor::publish_metrics() const {
  g_admitted.add(dedup_.admitted() - published_admitted_);
  g_suppressed.add(dedup_.suppressed() - published_suppressed_);
  g_records.add((dedup_.admitted() - published_admitted_) +
                (dedup_.suppressed() - published_suppressed_));
  published_admitted_ = dedup_.admitted();
  published_suppressed_ = dedup_.suppressed();
  g_live_keys.set(static_cast<std::int64_t>(dedup_.state_size()));
  g_originators.set(static_cast<std::int64_t>(aggregator_.originator_count()));
  g_periods.set(static_cast<std::int64_t>(aggregator_.total_periods()));
  if (config_.querier_state == QuerierStateMode::kSketch) {
    g_sketch_bytes.set(static_cast<std::int64_t>(aggregator_.sketch_bytes()));
  }
}

void Sensor::ingest_all(std::span<const dns::QueryRecord> records) {
  DNSBS_SPAN("sensor.ingest");
  g_batches.inc();
  const std::size_t threads =
      config_.threads != 0 ? config_.threads : util::configured_thread_count();
  // Sharding assumes no pre-existing window state (a pair first seen via
  // ingest() must keep suppressing sharded records), so only a fresh
  // sensor takes the parallel path.
  const bool fresh = dedup_.state_size() == 0 && aggregator_.originator_count() == 0;
  if (threads <= 1 || records.size() < kMinShardedBatch || !fresh ||
      util::in_parallel_region()) {
    aggregator_.reserve(records.size() / 8);
    for (const auto& r : records) ingest(r);
    publish_metrics();
    return;
  }
  g_sharded.inc();

  // Partition record indices by originator shard.  All records of one
  // originator (hence of one dedup pair) land in one shard, in their
  // original relative order, so per-shard dedup decisions match serial.
  const std::size_t shards = threads;
  const std::hash<net::IPv4Addr> hasher;
  std::vector<std::vector<std::uint32_t>> buckets(shards);
  for (auto& b : buckets) b.reserve(records.size() / shards + 16);
  for (std::size_t i = 0; i < records.size(); ++i) {
    buckets[hasher(records[i].originator) % shards].push_back(
        static_cast<std::uint32_t>(i));
  }

  struct Shard {
    Deduplicator dedup;
    OriginatorAggregator agg;
    Shard(util::SimTime window, util::SimTime period, QuerierSketchConfig sketch)
        : dedup(window), agg(period, sketch) {}
  };
  std::vector<Shard> shard_state;
  shard_state.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    shard_state.emplace_back(config_.dedup_window, config_.persistence_period,
                             config_.sketch_config());
  }

  // Shards see only a subsequence of the clock, so each one finishes by
  // pruning up to the batch's final time; the merged dedup state then
  // retains exactly the entries a serial pass would (records are assumed
  // time-ordered, as dedup semantics already require).
  util::SimTime batch_end{};
  for (const auto& r : records) batch_end = std::max(batch_end, r.time);

  util::parallel_for(
      shards,
      [&](std::size_t s) {
        Shard& shard = shard_state[s];
        shard.agg.reserve(buckets[s].size() / 8);
        for (const std::uint32_t idx : buckets[s]) {
          const dns::QueryRecord& r = records[idx];
          if (shard.dedup.admit(r)) shard.agg.add(r);
        }
        shard.dedup.catch_up_prune(batch_end);
      },
      threads);

  // Ordered merge (shard 0..W-1) back into the sensor's own state, so
  // later ingest() calls continue from the same window state as serial.
  for (Shard& shard : shard_state) {
    dedup_.merge_from(std::move(shard.dedup));
    aggregator_.merge_from(std::move(shard.agg));
  }
  publish_metrics();
}

void Sensor::save_state(util::BinaryWriter& out) const {
  // Pin the published watermarks first: the restored sensor considers
  // exactly the serialized tallies already published.
  publish_metrics();
  dedup_.save(out);
  aggregator_.save(out);
}

bool Sensor::load_state(util::BinaryReader& in) {
  if (!dedup_.load(in) || !aggregator_.load(in)) return false;
  // The saving process already published these counts; this process's
  // registry starts from zero and counts only the records it receives.
  published_admitted_ = dedup_.admitted();
  published_suppressed_ = dedup_.suppressed();
  return true;
}

void Sensor::merge_from(Sensor&& other) {
  dedup_.merge_from(std::move(other.dedup_));
  aggregator_.merge_from(std::move(other.aggregator_));
  // The merged tallies split into "already published" (by either sensor's
  // own publish points) and "pending"; summing the watermarks keeps every
  // record published to the registry exactly once.
  published_admitted_ += other.published_admitted_;
  published_suppressed_ += other.published_suppressed_;
  other.published_admitted_ = 0;
  other.published_suppressed_ = 0;
}

bool Sensor::merge_state(util::BinaryReader& in) {
  Sensor scratch(config_, as_db_, geo_db_, resolver_);
  if (!scratch.load_state(in)) return false;
  // The exporting process's registry is not ours: count every imported
  // tally as unpublished so this process's counters cover the full merged
  // stream exactly once.
  scratch.published_admitted_ = 0;
  scratch.published_suppressed_ = 0;
  merge_from(std::move(scratch));
  return true;
}

void Sensor::set_feature_cache(std::shared_ptr<FeatureExtractionCache> cache) {
  feature_cache_ = std::move(cache);
}

std::vector<FeatureVector> Sensor::extract_features() const {
  DNSBS_SPAN("sensor.extract");
  const std::uint64_t t0 = util::metrics_now_ns();
  const auto interesting =
      aggregator_.select_interesting(config_.min_queriers, config_.top_n);
  g_interesting.add(interesting.size());
  g_feature_rows.add(interesting.size());
  FeatureExtractionStats stats;
  auto rows = extract_feature_rows(aggregator_, interesting, *feature_cache_, as_db_, geo_db_,
                                   resolver_, config_.threads, stats);
  g_interned.add(stats.queriers_interned);
  g_extract_ns.record(util::metrics_now_ns() - t0);
  return rows;
}

std::vector<ClassifiedOriginator> classify_all(std::span<const FeatureVector> features,
                                               const ml::Classifier& model) {
  DNSBS_SPAN("sensor.classify");
  g_predictions.add(features.size());
  // Classifier::predict is const and stateless across calls, so rows
  // classify in parallel with row-ordered results.
  return util::parallel_map(features.size(), [&](std::size_t i) {
    ClassifiedOriginator c;
    c.features = features[i];
    c.predicted = static_cast<AppClass>(model.predict(features[i].row()));
    return c;
  });
}

}  // namespace dnsbs::core
