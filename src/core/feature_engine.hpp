// Columnar feature extraction (the path behind Sensor::extract_features).
//
//   * Columnar layout.  A grow-only interner assigns every querier a dense
//     id and resolves its AS, country, /24, /8 and reverse-name category
//     exactly once, across every window that shares the cache.  Each row
//     walks its originator's querier histogram in aggregate flat-map order
//     and reads those dense ids, so the entropy / unique-AS / unique-CC
//     loops become branch-light streaming passes with epoch-stamped scratch
//     buffers instead of per-originator FlatMap/FlatSet churn.
//
//   * One interning walk per window.  A window's sensor is extracted once,
//     when the window closes: one walk over the interval's aggregates
//     collects unseen queriers and marks the AS and country of every
//     querier already interned; the unseen ones are resolved, interned in
//     first-seen order and marked; then every interesting row is computed
//     straight from its aggregate.  Rows are byte-identical to a fresh
//     cache (the features-perf oracle tests).
//
// The cache may be shared across Sensors (analysis::WindowedPipeline does
// this for consecutive windows) under one assumption: the resolver and
// AS/geo databases are stable for the lifetime of the cache, because
// querier identities are resolved once on first sight.  Disable sharing
// (WindowedPipelineConfig::carry_forward = false) when reverse names
// drift between windows.
//
// Resolve-ahead.  A shared cache also carries a memo of queriers resolved
// while their window is still open: analysis::StreamingWindowDriver hands
// each batch of offered queriers to resolve_ahead() on its close queue, so
// by the time a window closes, extraction takes memo hits and only interns.
// A resolution is a pure function of the querier, and interning keeps its
// first-seen order, so dense ids, rows and the saved cache are unchanged.
// The driver drops the memo after every window close, and it is never
// persisted (after a restore those queriers resolve at close, as they
// would without it).  Without a shared cache (carry_forward off) there is
// nothing to fill and resolve-ahead is off.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "core/aggregate.hpp"
#include "core/feature_vector.hpp"
#include "netdb/as_db.hpp"
#include "netdb/geo_db.hpp"
#include "util/flat_hash.hpp"

namespace dnsbs::util {
class BinaryReader;
class BinaryWriter;
}  // namespace dnsbs::util

namespace dnsbs::core {

/// What the features need to know about one querier: its AS, country and
/// reverse-name keyword class.  A pure function of the querier while the
/// databases and resolver are stable.
struct QuerierResolution {
  std::optional<netdb::Asn> asn;
  std::optional<netdb::CountryCode> cc;
  QuerierCategory category = QuerierCategory::kOther;
};

QuerierResolution resolve_querier(net::IPv4Addr querier, const netdb::AsDb& as_db,
                                  const netdb::GeoDb& geo_db,
                                  const QuerierResolver& resolver);

/// Process-long columnar state: the querier interner plus the
/// resolve-ahead memo.  Not thread-safe; one extraction or
/// resolve_ahead() runs at a time (extraction parallelizes internally over
/// frozen state).
class FeatureExtractionCache {
 public:
  static constexpr std::uint32_t kNoId = 0xffffffffu;

  // --- interner: read side (valid for ids < querier_count()) ---
  std::size_t querier_count() const noexcept { return category_.size(); }
  std::uint32_t id_of(net::IPv4Addr querier) const noexcept {
    const auto* slot = qid_.find(querier);
    return slot ? slot->second : kNoId;
  }
  std::uint32_t as_id(std::uint32_t qid) const noexcept { return as_id_[qid]; }
  std::uint32_t cc_id(std::uint32_t qid) const noexcept { return cc_id_[qid]; }
  std::uint32_t s24_id(std::uint32_t qid) const noexcept { return s24_id_[qid]; }
  std::uint8_t s8(std::uint32_t qid) const noexcept { return s8_[qid]; }
  QuerierCategory category(std::uint32_t qid) const noexcept { return category_[qid]; }

  /// Dense-id universe sizes (for scratch-buffer sizing).  AS/CC ids start
  /// at 1 — 0 means "no mapping" — so buffers need count()+1 slots.
  std::size_t s24_count() const noexcept { return s24_ids_.size(); }
  std::size_t as_count() const noexcept { return as_ids_.size(); }
  std::size_t cc_count() const noexcept { return cc_ids_.size(); }

  /// Interns one resolved querier, assigning the next dense id.  Must be
  /// called in a deterministic order (extraction commits pending queriers
  /// serially, in first-seen order).
  std::uint32_t intern(net::IPv4Addr querier, const QuerierResolution& resolution);

  // --- resolve-ahead memo (see the header comment) ---
  /// Resolves every querier in `queriers` that is neither interned nor
  /// memoized yet.
  void resolve_ahead(std::span<const net::IPv4Addr> queriers, const netdb::AsDb& as_db,
                     const netdb::GeoDb& geo_db, const QuerierResolver& resolver);
  /// The memoized resolution of `querier`, or null.
  const QuerierResolution* find_resolved(net::IPv4Addr querier) const noexcept {
    const auto* slot = ahead_.find(querier);
    return slot ? &slot->second : nullptr;
  }
  /// Empties the memo.
  void drop_resolved() noexcept { ahead_.clear(); }
  std::size_t resolved_ahead() const noexcept { return ahead_.size(); }

  /// Checkpoint round-trip.  The interner maps serialize slot-exactly, so a
  /// restored cache assigns the same dense ids as one never saved.  The
  /// resolve-ahead memo is not part of the image.
  /// load() replaces the cache's entire state and returns false on a
  /// corrupt stream, including any interned id at or beyond its
  /// interner's size (state is then unspecified; discard it).
  void save(util::BinaryWriter& out) const;
  bool load(util::BinaryReader& in);

 private:
  util::FlatMap<net::IPv4Addr, std::uint32_t> qid_;
  // Columns indexed by querier id.
  std::vector<std::uint32_t> as_id_;   ///< dense AS id, 0 = no AS mapping
  std::vector<std::uint32_t> cc_id_;   ///< dense country id, 0 = no mapping
  std::vector<std::uint32_t> s24_id_;  ///< dense /24 id (from 0)
  std::vector<std::uint8_t> s8_;       ///< raw top octet
  std::vector<QuerierCategory> category_;
  // Dense-id assignment maps.
  util::FlatMap<netdb::Asn, std::uint32_t> as_ids_;
  util::FlatMap<std::uint16_t, std::uint32_t> cc_ids_;  ///< keyed by packed CC
  util::FlatMap<std::uint32_t, std::uint32_t> s24_ids_;
  util::FlatMap<net::IPv4Addr, QuerierResolution> ahead_;
};

/// Per-extraction tallies (deterministic: pure functions of the window's
/// records and the cache's prior contents, not of thread count).
struct FeatureExtractionStats {
  std::uint64_t queriers_interned = 0;
  /// Interval-wide normalizers: distinct ASes and countries over the
  /// queriers of every aggregate in the interval.
  std::uint64_t interval_as_count = 0;
  std::uint64_t interval_cc_count = 0;
};

/// Extracts feature rows for `interesting` (footprint-sorted aggregates of
/// `interval`), interning unseen queriers into `cache`.  Byte-identical to a fresh
/// cache and to any thread count.  The resolver and databases must be the
/// ones the cache was filled with.
std::vector<FeatureVector> extract_feature_rows(
    const OriginatorAggregator& interval,
    std::span<const OriginatorAggregate* const> interesting, FeatureExtractionCache& cache,
    const netdb::AsDb& as_db, const netdb::GeoDb& geo_db, const QuerierResolver& resolver,
    std::size_t threads, FeatureExtractionStats& stats);

}  // namespace dnsbs::core
