// The end-to-end backscatter sensor (paper Figure 2, classification side):
// query stream -> dedup -> per-originator aggregation -> interesting
// selection -> feature extraction -> (optional) classification.
//
// One Sensor instance covers one measurement interval at one authority;
// long-running studies build a Sensor per day/week window (see
// analysis::WindowedPipeline).  A window's sensor is extracted once, when
// the window closes; consecutive windows share resolved querier
// identities through a FeatureExtractionCache (feature_engine.hpp), not
// through state kept in the sensor.
#pragma once

#include <memory>
#include <vector>

#include "core/aggregate.hpp"
#include "core/dedup.hpp"
#include "core/feature_engine.hpp"
#include "core/feature_vector.hpp"
#include "ml/classifier.hpp"
#include "util/metrics.hpp"

namespace dnsbs::core {

struct SensorConfig {
  /// Analyzability threshold: minimum unique queriers (paper: 20).
  std::size_t min_queriers = 20;
  /// Keep only the N largest footprints; 0 = unlimited (paper: top-10000).
  std::size_t top_n = 10000;
  /// Duplicate suppression window (paper: 30 s).
  util::SimTime dedup_window = util::SimTime::seconds(30);
  /// Persistence bucket (paper: 10 minutes).
  util::SimTime persistence_period = util::SimTime::minutes(10);
  /// Worker threads for bulk ingest and feature extraction; 0 defers to
  /// util::configured_thread_count() (the DNSBS_THREADS knob).  Output is
  /// byte-identical for every setting.
  std::size_t threads = 0;
  /// Querier-cardinality state: exact histograms (byte-identical legacy
  /// behavior) or bounded-memory mergeable sketches (see aggregate.hpp).
  QuerierStateMode querier_state = QuerierStateMode::kExact;
  /// Exact-histogram size at which an originator promotes to sketches
  /// (sketch mode only).
  std::uint32_t sketch_promote_threshold = 64;
  /// HyperLogLog precision for promoted originators (sketch mode only).
  std::uint8_t sketch_precision = util::HllSketch::kDefaultPrecision;

  QuerierSketchConfig sketch_config() const noexcept {
    return QuerierSketchConfig{querier_state, sketch_promote_threshold, sketch_precision};
  }
};

class Sensor {
 public:
  Sensor(SensorConfig config, const netdb::AsDb& as_db, const netdb::GeoDb& geo_db,
         const QuerierResolver& resolver);

  /// Feeds one reverse-query observation (records should arrive roughly
  /// time-ordered, as they do from a capture point).
  void ingest(const dns::QueryRecord& record);

  /// Bulk ingest.  On a fresh sensor with multiple threads configured,
  /// records are sharded by hash(originator) so dedup + aggregation run
  /// per-shard in parallel and merge afterwards; every (querier,
  /// originator) pair lives in exactly one shard, so the result is
  /// identical to serial ingestion.
  void ingest_all(std::span<const dns::QueryRecord> records);

  /// Selects interesting originators and computes their feature vectors,
  /// ordered by footprint descending, interning unseen queriers into the
  /// feature cache.  Logically const: rows are byte-identical to a fresh
  /// cache, whatever the cache has interned before.
  std::vector<FeatureVector> extract_features() const;

  /// Replaces the sensor's own extraction cache with a shared one (querier
  /// interner + resolve-ahead memo), letting consecutive windows reuse
  /// resolved querier identities.  Sharing assumes the resolver and AS/geo
  /// databases are stable for the cache's lifetime (see feature_engine.hpp).
  void set_feature_cache(std::shared_ptr<FeatureExtractionCache> cache);

  const OriginatorAggregator& aggregator() const noexcept { return aggregator_; }
  const Deduplicator& dedup() const noexcept { return dedup_; }
  const SensorConfig& config() const noexcept { return config_; }

  /// Checkpoints the window state (dedup + aggregator) for a later
  /// load_state() into a Sensor built with the same config.  Does NOT
  /// serialize the extraction cache — the daemon checkpoints the shared
  /// cache once, not per window.  Publishes pending tallies first, so the
  /// serialized tallies are exactly the published ones.
  void save_state(util::BinaryWriter& out) const;

  /// Restores dedup + aggregator state.  The published watermarks are set
  /// to the restored tallies: the saving process already published those
  /// counts, and the restoring process's registry counts only records it
  /// receives itself (counters reset on restart).  Returns false on config
  /// mismatch or corrupt stream.
  bool load_state(util::BinaryReader& in);

  /// Federation: folds another sensor's window state (same config) into
  /// this one.  For originator-disjoint sources (the export-state
  /// `--shards` split) the result is byte-identical to one sensor having
  /// ingested the whole stream; for overlapping sources (per-authority
  /// splits) exact mode is content-lossless and sketch mode bounded-error.
  void merge_from(Sensor&& other);

  /// Reads a save_state() stream produced by a sensor with the same
  /// config and merges it into this one (load into a scratch sensor +
  /// merge_from).  Returns false on config mismatch or corrupt stream,
  /// leaving this sensor untouched.
  bool merge_state(util::BinaryReader& in);

  /// Pre-sizes the aggregate and dedup tables for an N-way merge so the
  /// coordinator grows each table once, not per source.
  void reserve_for_merge(std::size_t extra_originators, std::size_t extra_dedup_pairs) {
    aggregator_.reserve(aggregator_.originator_count() + extra_originators);
    dedup_.reserve(dedup_.state_size() + extra_dedup_pairs);
  }

  /// Pushes tallies accumulated since the last publish (dedup
  /// admitted/suppressed, aggregate gauges) into the registry.  The
  /// per-record ingest path never touches the registry; counts are
  /// reconciled here, at the end of ingest_all and at save_state.
  /// Idempotent, and const so read-only holders can reconcile.
  void publish_metrics() const;

 private:
  SensorConfig config_;
  const netdb::AsDb& as_db_;
  const netdb::GeoDb& geo_db_;
  const QuerierResolver& resolver_;
  Deduplicator dedup_;
  OriginatorAggregator aggregator_;
  mutable std::uint64_t published_admitted_ = 0;
  mutable std::uint64_t published_suppressed_ = 0;
  std::shared_ptr<FeatureExtractionCache> feature_cache_ =
      std::make_shared<FeatureExtractionCache>();
};

/// A feature vector plus the model's verdict.
struct ClassifiedOriginator {
  FeatureVector features;
  AppClass predicted = AppClass::kScan;
};

/// Runs a trained classifier over extracted feature vectors.
std::vector<ClassifiedOriginator> classify_all(std::span<const FeatureVector> features,
                                               const ml::Classifier& model);

}  // namespace dnsbs::core
