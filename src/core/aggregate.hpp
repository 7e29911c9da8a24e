// Per-originator aggregation over a measurement interval.
//
// Paper §III-B: feature vectors are computed per originator over an
// interval of d days; the interesting originators are those with >= 20
// unique queriers, ranked by unique-querier count ("footprint").  The
// aggregator folds a deduplicated query stream into per-originator querier
// histograms plus the temporal footprint needed by the dynamic features.
//
// Two querier-state modes (SensorConfig::querier_state):
//
//   exact   every (querier -> count) pair is stored.  Byte-identical to
//           every prior release; the per-originator flat containers carry
//           the full histogram.
//   sketch  originators stay exact until their footprint crosses
//           `promote_threshold`, then promote: the exact histogram is
//           frozen as a first-K sample (sampled queriers keep counting)
//           and unique-querier / unique-/24 cardinalities move into
//           mergeable HyperLogLog registers (util::HllSketch).  Memory per
//           originator is bounded regardless of footprint, and N sensors'
//           states merge at a coordinator with bounded error — the
//           federation path.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "dns/query_log.hpp"
#include "net/ipv4.hpp"
#include "util/flat_hash.hpp"
#include "util/hll.hpp"
#include "util/time.hpp"

namespace dnsbs::core {

enum class QuerierStateMode : std::uint8_t { kExact = 0, kSketch = 1 };

/// Cardinality-state knobs, threaded from SensorConfig through every
/// aggregator (including the sharded-ingest shards and the federation
/// coordinator — all parties must agree for merges to be well-defined).
struct QuerierSketchConfig {
  QuerierStateMode mode = QuerierStateMode::kExact;
  /// Exact histogram size at which an originator promotes to sketches.
  std::uint32_t promote_threshold = 64;
  /// HllSketch precision (registers = 2^precision; default ~1.6% error).
  std::uint8_t precision = util::HllSketch::kDefaultPrecision;

  bool operator==(const QuerierSketchConfig&) const = default;
};

/// Register state of one promoted originator: unique queriers and unique
/// /24s, both covering *every* querier ever admitted (promotion folds the
/// frozen sample in first).
struct QuerierSketches {
  util::HllSketch queriers;
  util::HllSketch slash24s;

  explicit QuerierSketches(std::uint8_t precision)
      : queriers(precision), slash24s(precision) {}

  std::size_t memory_bytes() const noexcept {
    return sizeof(QuerierSketches) + queriers.memory_bytes() + slash24s.memory_bytes();
  }
};

/// Everything the feature extractors need to know about one originator.
///
/// The containers are flat-hash (util::FlatMap/FlatSet): all records of
/// one originator are ingested by one shard in stream order, so the slot
/// layout — and with it the iteration order every feature reduction sees —
/// is identical between serial and sharded ingest (merge moves the
/// per-originator state wholesale).  The per-originator maps use a 4-slot
/// allocation floor: at millions of mostly-light originators the floor,
/// not the entries, dominates resident memory.
struct OriginatorAggregate {
  net::IPv4Addr originator;
  /// Query count per unique querier (after dedup).  In sketch mode, a
  /// promoted originator's map is the frozen first-K *sample*: sampled
  /// queriers keep counting, later first-sight queriers exist only in the
  /// sketch registers.
  util::FlatMap<net::IPv4Addr, std::uint32_t, std::hash<net::IPv4Addr>, 4> querier_queries;
  /// Distinct 10-minute periods in which the originator appeared, sorted
  /// ascending.  A sorted vector, not a hash set: the per-originator
  /// period list is small and mostly append-only (time moves forward), and
  /// the canonical order makes serialization layout-free.
  std::vector<std::int64_t> periods;
  /// Sketch-mode register state; null until promoted (and always null in
  /// exact mode).
  std::unique_ptr<QuerierSketches> sketch;
  util::SimTime first_seen{};
  util::SimTime last_seen{};
  /// Admitted records folded into this aggregate (merge sums both sides).
  std::uint64_t total_queries = 0;

  bool promoted() const noexcept { return sketch != nullptr; }

  /// Footprint: exact histogram size until promotion, sketch estimate
  /// after (never reported below the retained sample size).
  std::size_t unique_queriers() const noexcept {
    if (!sketch) return querier_queries.size();
    return std::max<std::size_t>(sketch->queriers.estimate_u64(), querier_queries.size());
  }

  /// Inserts into the sorted period vector (no-op when present).
  void add_period(std::int64_t period) {
    const auto it = std::lower_bound(periods.begin(), periods.end(), period);
    if (it == periods.end() || *it != period) periods.insert(it, period);
  }
};

class OriginatorAggregator {
 public:
  /// `period` is the persistence bucket width (paper: 10 minutes).
  explicit OriginatorAggregator(util::SimTime period = util::SimTime::minutes(10),
                                QuerierSketchConfig sketch = {})
      : period_(period),
        sketch_(sketch),
        interval_queriers_(kIntervalEstimatorThreshold, sketch.precision) {}

  void add(const dns::QueryRecord& record);

  /// Pre-sizes the aggregates map for an expected originator count so a
  /// bulk ingest does not rehash repeatedly.
  void reserve(std::size_t expected_originators) {
    aggregates_.reserve(expected_originators);
  }

  /// Folds another aggregator (same period width and sketch config) into
  /// this one, reserving from the source table sizes up front so N-way
  /// merges never rehash mid-merge.  Used by the sharded ingest path:
  /// shards are disjoint by originator, so per-originator state moves over
  /// unchanged; interval-wide period sets union.  The merged result is
  /// identical to having ingested every record serially.  The federation
  /// path merges *overlapping* aggregators: exact-mode histograms combine
  /// losslessly, sketch-mode registers max-merge (bounded error).
  void merge_from(OriginatorAggregator&& other);

  std::size_t originator_count() const noexcept { return aggregates_.size(); }

  /// Distinct 10-minute periods observed across the whole interval
  /// (denominator for the persistence feature).
  std::size_t total_periods() const noexcept { return all_periods_.size(); }

  const util::FlatMap<net::IPv4Addr, OriginatorAggregate>& aggregates() const noexcept {
    return aggregates_;
  }

  const QuerierSketchConfig& sketch_config() const noexcept { return sketch_; }

  /// Promoted originators and their total register bytes (both 0 in exact
  /// mode); feeds the dnsbs.aggregate.sketch_* gauges at publish points.
  std::size_t promoted_count() const noexcept;
  std::size_t sketch_bytes() const noexcept;

  /// Interval-wide unique queriers across *all* originators (sketch mode
  /// only; exact mode returns 0 rather than pay per-record upkeep).
  /// Mergeable across federated sensors — per-shard distinct counts can't
  /// simply sum because queriers overlap between shards.
  std::uint64_t interval_unique_queriers() const {
    return sketch_.mode == QuerierStateMode::kSketch ? interval_queriers_.count() : 0;
  }

  /// Originators with at least `min_queriers` unique queriers, sorted by
  /// unique-querier count descending (ties: by address for determinism),
  /// truncated to `top_n` (0 = no truncation).  This is the paper's
  /// "interesting and analyzable" selection.
  std::vector<const OriginatorAggregate*> select_interesting(std::size_t min_queriers,
                                                             std::size_t top_n) const;

  /// Checkpoint round-trip.  Every flat container — the aggregates map and
  /// each aggregate's querier histogram — serializes slot-exactly, because
  /// feature reductions iterate them and their order must survive a
  /// restart for the daemon's byte-identical-restart contract; sketch
  /// registers serialize representation-exactly (hll.hpp).  load()
  /// requires an aggregator constructed with the same period width and
  /// sketch config and returns false on a mismatch or corrupt stream.
  void save(util::BinaryWriter& out) const;
  bool load(util::BinaryReader& in);

 private:
  /// The interval-wide estimator stays exact well past any single window's
  /// typical distinct-querier count, then bounds itself.
  static constexpr std::uint32_t kIntervalEstimatorThreshold = 1024;

  void add_querier_sketched(OriginatorAggregate& agg, net::IPv4Addr querier);

  util::SimTime period_;
  QuerierSketchConfig sketch_;
  util::FlatMap<net::IPv4Addr, OriginatorAggregate> aggregates_;
  util::FlatSet<std::int64_t> all_periods_;
  util::CardinalityEstimator interval_queriers_;
};

}  // namespace dnsbs::core
