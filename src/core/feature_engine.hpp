// Columnar + incremental feature extraction (the fast path behind
// Sensor::extract_features).
//
// Two compounding ideas close the gap between ingest throughput and
// feature throughput:
//
//   * Columnar layout.  A grow-only interner assigns every querier a dense
//     id and resolves its AS, country, /24, /8 and reverse-name category
//     exactly once — across *all* extract calls, not once per interval.
//     Each originator's querier histogram is flattened into two parallel
//     arrays (querier ids, query counts), so the entropy / unique-AS /
//     unique-CC loops become branch-light streaming passes over dense
//     integer columns with epoch-stamped scratch buffers instead of
//     per-originator FlatMap/FlatSet churn.
//
//   * Incremental recomputation.  Every OriginatorAggregate carries a
//     mod_count stamp (total records folded in, identical across thread
//     counts).  The engine remembers the stamp it last extracted each
//     originator at; an unchanged stamp plus unchanged interval-wide
//     normalizers (total periods, AS count, country count) means the
//     cached FeatureVector row is still exact and is returned as-is.
//     When only the normalizers move, rows recompute from the cached
//     columns without re-walking the aggregate's flat-map.
//
// Invalidation rules (proven byte-identical to full recompute by the
// features-perf oracle tests):
//
//   reuse row      same interval token, same mod_count, same normalizers
//   reuse columns  same flattened (qid, count) sequence + totals — checked
//                  by direct comparison when the stamp can't vouch for it
//                  (different interval token, i.e. another Sensor sharing
//                  the cache)
//   recompute      anything else; recompute reads only the columns
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
// by the time a window closes, extract() takes memo hits and only interns.
// A resolution is a pure function of the querier, and interning keeps its
// first-seen order, so dense ids, rows and the saved cache are unchanged.
// The driver drops the memo after every window close, and it is never
// persisted (after a restore those queriers resolve at close, as they
// would without it).  Without a shared cache (carry_forward off) there is
// nothing to fill and resolve-ahead is off.
#pragma once

#include <cstdint>
#include <memory>
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

/// Process-long columnar state: the querier interner plus the per
/// originator row cache.  Not thread-safe; one extraction or
/// resolve_ahead() runs at a time (the engine parallelizes internally over
/// frozen state).
class FeatureExtractionCache {
 public:
  static constexpr std::uint32_t kNoId = 0xffffffffu;

  /// Cached extraction state for one originator.
  struct RowEntry {
    std::uint64_t interval_token = 0;  ///< 0 = never filled
    std::uint64_t mod_count = 0;
    std::uint64_t total_queries = 0;
    std::uint64_t period_count = 0;
    /// Unique-querier cardinality (aggregate's unique_queriers() at
    /// flatten time).  Equals qids.size() in exact mode; in sketch mode a
    /// promoted originator's sketch estimate, while qids/counts hold only
    /// the frozen sample.
    std::uint64_t footprint = 0;
    /// Normalizer snapshot the cached row was computed under.
    std::uint64_t norm_periods = 0;
    std::uint32_t norm_as = 0;
    std::uint32_t norm_cc = 0;
    /// Flattened querier histogram in aggregate flat-map order.
    std::vector<std::uint32_t> qids;
    std::vector<std::uint32_t> counts;
    FeatureVector row;
  };

  /// Serial number handed to each FeatureEngine so row entries can tell
  /// "my engine wrote this" (stamp is trustworthy) from "some other
  /// engine/interval wrote this" (columns must be compared).
  std::uint64_t next_interval_token() noexcept { return ++interval_serial_; }

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
  /// called in a deterministic order (the engine commits pending queriers
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

  util::FlatMap<net::IPv4Addr, RowEntry>& rows() noexcept { return rows_; }

  /// Checkpoint round-trip.  The interner maps and the row cache serialize
  /// slot-exactly; doubles travel as raw bit patterns, so a restored cache
  /// reproduces every reuse/recompute decision — and every cached row —
  /// bit-for-bit.  The resolve-ahead memo is not part of the image.
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
  util::FlatMap<net::IPv4Addr, RowEntry> rows_;
  std::uint64_t interval_serial_ = 0;
  util::FlatMap<net::IPv4Addr, QuerierResolution> ahead_;
};

/// Per-extraction tallies (deterministic: pure functions of the input
/// stream and extract-call sequence, not of thread count).
struct FeatureExtractionStats {
  std::uint64_t rows_reused = 0;
  std::uint64_t rows_recomputed = 0;
  std::uint64_t dirty_originators = 0;
  std::uint64_t queriers_interned = 0;
};

/// Extraction driver for one Sensor (one measurement interval).  Holds the
/// interval-local state: which aggregates have been scanned at which
/// stamp, the interval-wide AS/CC normalizer sets, and the per-worker
/// epoch scratch buffers.
class FeatureEngine {
 public:
  FeatureEngine(const netdb::AsDb& as_db, const netdb::GeoDb& geo_db,
                const QuerierResolver& resolver,
                std::shared_ptr<FeatureExtractionCache> cache);

  /// Extracts feature rows for `interesting` (footprint-sorted aggregates
  /// of `interval`), reusing cached rows where the invalidation rules
  /// allow.  Byte-identical to a full recompute and to any thread count.
  std::vector<FeatureVector> extract(const OriginatorAggregator& interval,
                                     std::span<const OriginatorAggregate* const> interesting,
                                     std::size_t threads, FeatureExtractionStats* stats);

  /// Interval-wide normalizers after the last extract() (test hooks).
  std::size_t interval_as_count() const noexcept { return as_norm_; }
  std::size_t interval_cc_count() const noexcept { return cc_norm_; }

 private:
  /// Epoch-stamped scratch for one worker slot: bucket membership is
  /// detected by comparing a per-bucket stamp against the current row's
  /// epoch, so buffers are reused across rows without clearing.
  struct Scratch {
    std::vector<std::uint64_t> stamp24, stamp8, stamp_as, stamp_cc;
    std::vector<std::uint32_t> pos24, pos8;
    std::vector<std::size_t> counts24, counts8;  ///< first-touch bucket order
    std::uint64_t epoch = 0;

    void ensure(std::size_t s24_n, std::size_t as_n, std::size_t cc_n);
  };

  FeatureVector compute_row(const FeatureExtractionCache::RowEntry& entry,
                            net::IPv4Addr originator, Scratch& scratch) const;

  const netdb::AsDb& as_db_;
  const netdb::GeoDb& geo_db_;
  const QuerierResolver& resolver_;
  std::shared_ptr<FeatureExtractionCache> cache_;
  std::uint64_t token_;
  /// Interval normalizer state, grown monotonically as aggregates dirty.
  std::vector<std::uint8_t> as_seen_, cc_seen_;  ///< indexed by dense id
  std::size_t as_norm_ = 0, cc_norm_ = 0;
  std::uint64_t periods_norm_ = 0;
  /// mod_count each aggregate was last scanned at (normalizer pass).
  util::FlatMap<net::IPv4Addr, std::uint64_t> scanned_;
  std::vector<Scratch> scratch_;
};

}  // namespace dnsbs::core
