#include "core/aggregate.hpp"

#include <algorithm>
#include <iterator>

#include "util/binio.hpp"
#include "util/metrics.hpp"

namespace dnsbs::core {

namespace {
// originators_created counts first sightings only (cold branch of add();
// the per-record path stays registry-free) and is deterministic: the set
// of distinct originators doesn't depend on sharding.  merges counts
// merge_from calls, which only happen on the sharded path — sched.
// sketch_promotions / sketch_merges are deterministic: an originator
// promotes when its distinct-querier count crosses the threshold (a pure
// function of the admitted stream; all records of one originator live in
// one shard), and register merges only happen on the federation path,
// where the merge sequence is explicit.
util::MetricCounter& g_created = util::metrics_counter("dnsbs.aggregate.originators_created");
util::MetricCounter& g_merges = util::metrics_counter("dnsbs.aggregate.merges", /*sched=*/true);
util::MetricCounter& g_promotions = util::metrics_counter("dnsbs.aggregate.sketch_promotions");
util::MetricCounter& g_sketch_merges = util::metrics_counter("dnsbs.aggregate.sketch_merges");

/// Freezes the exact histogram as the retained sample and folds every
/// sampled querier into fresh registers, so the register file covers the
/// full key set no matter when promotion happened.
void promote(OriginatorAggregate& agg, std::uint8_t precision) {
  agg.sketch = std::make_unique<QuerierSketches>(precision);
  for (const auto& [querier, count] : agg.querier_queries) {
    agg.sketch->queriers.add(querier.value());
    agg.sketch->slash24s.add(querier.slash24());
  }
  g_promotions.inc();
}

void merge_sorted_periods(std::vector<std::int64_t>& mine,
                          const std::vector<std::int64_t>& theirs) {
  if (theirs.empty()) return;
  std::vector<std::int64_t> merged;
  merged.reserve(mine.size() + theirs.size());
  std::set_union(mine.begin(), mine.end(), theirs.begin(), theirs.end(),
                 std::back_inserter(merged));
  mine = std::move(merged);
}

}  // namespace

void OriginatorAggregator::add(const dns::QueryRecord& record) {
  auto [it, inserted] = aggregates_.try_emplace(record.originator);
  OriginatorAggregate& agg = it->second;
  if (inserted) {
    g_created.inc();
    agg.originator = record.originator;
    agg.first_seen = record.time;
    agg.last_seen = record.time;
  } else {
    agg.first_seen = std::min(agg.first_seen, record.time);
    agg.last_seen = std::max(agg.last_seen, record.time);
  }
  if (sketch_.mode == QuerierStateMode::kExact) {
    ++agg.querier_queries[record.querier];
  } else {
    add_querier_sketched(agg, record.querier);
    interval_queriers_.add(record.querier.value());
  }
  ++agg.total_queries;
  const std::int64_t period = record.time.secs() / period_.secs();
  agg.add_period(period);
  all_periods_.insert(period);
}

void OriginatorAggregator::add_querier_sketched(OriginatorAggregate& agg,
                                                net::IPv4Addr querier) {
  if (auto* slot = agg.querier_queries.find(querier)) {
    // Sampled (or pre-promotion) querier: its registers are already set.
    ++slot->second;
    return;
  }
  if (!agg.sketch) {
    if (agg.querier_queries.size() < sketch_.promote_threshold) {
      agg.querier_queries.try_emplace(querier, 1u);
      return;
    }
    promote(agg, sketch_.precision);
  }
  agg.sketch->queriers.add(querier.value());
  agg.sketch->slash24s.add(querier.slash24());
}

void OriginatorAggregator::merge_from(OriginatorAggregator&& other) {
  g_merges.inc();
  // Reserve interval-wide tables from the source sizes up front (the
  // aggregates map reserves inside FlatMap::merge_from) so an N-way
  // federated merge does one growth per table, not a rehash cascade.
  all_periods_.reserve(all_periods_.size() + other.all_periods_.size());
  // Sharded ingest keys shards by originator, so the common case moves
  // each per-originator aggregate over wholesale — preserving its flat
  // container layout, hence the iteration order feature reductions see.
  aggregates_.merge_from(
      std::move(other.aggregates_),
      [this](OriginatorAggregate& mine, OriginatorAggregate&& theirs) {
        // Originator present on both sides (only possible when merging
        // overlapping aggregators, e.g. a per-authority federation split):
        // combine the histograms / registers.
        mine.first_seen = std::min(mine.first_seen, theirs.first_seen);
        mine.last_seen = std::max(mine.last_seen, theirs.last_seen);
        mine.total_queries += theirs.total_queries;
        merge_sorted_periods(mine.periods, theirs.periods);
        if (sketch_.mode == QuerierStateMode::kExact) {
          mine.querier_queries.reserve(mine.querier_queries.size() +
                                       theirs.querier_queries.size());
          for (const auto& [querier, count] : theirs.querier_queries) {
            mine.querier_queries[querier] += count;
          }
          return;
        }
        if (!mine.sketch && !theirs.sketch) {
          // Both below threshold: a lossless histogram union; promote if
          // the union crosses the line, exactly as a single stream would.
          for (const auto& [querier, count] : theirs.querier_queries) {
            mine.querier_queries[querier] += count;
          }
          if (mine.querier_queries.size() > sketch_.promote_threshold) {
            promote(mine, sketch_.precision);
          }
          return;
        }
        if (!mine.sketch) promote(mine, sketch_.precision);
        if (theirs.sketch) {
          mine.sketch->queriers.merge_from(theirs.sketch->queriers);
          mine.sketch->slash24s.merge_from(theirs.sketch->slash24s);
          g_sketch_merges.inc();
          // Their sample only contributes counts for queriers we also
          // sampled; the rest already live in their registers.
          for (const auto& [querier, count] : theirs.querier_queries) {
            if (auto* slot = mine.querier_queries.find(querier)) slot->second += count;
          }
        } else {
          // Their side is still exact: fold its full key set into the
          // registers so the estimate keeps covering the union.
          for (const auto& [querier, count] : theirs.querier_queries) {
            mine.sketch->queriers.add(querier.value());
            mine.sketch->slash24s.add(querier.slash24());
            if (auto* slot = mine.querier_queries.find(querier)) slot->second += count;
          }
        }
      });
  all_periods_.insert(other.all_periods_.begin(), other.all_periods_.end());
  other.all_periods_.clear();
  if (sketch_.mode == QuerierStateMode::kSketch) {
    interval_queriers_.merge_from(other.interval_queriers_);
  }
}

std::size_t OriginatorAggregator::promoted_count() const noexcept {
  if (sketch_.mode != QuerierStateMode::kSketch) return 0;
  std::size_t n = 0;
  for (const auto& [addr, agg] : aggregates_) {
    if (agg.sketch) ++n;
  }
  return n;
}

std::size_t OriginatorAggregator::sketch_bytes() const noexcept {
  if (sketch_.mode != QuerierStateMode::kSketch) return 0;
  std::size_t bytes = 0;
  for (const auto& [addr, agg] : aggregates_) {
    if (agg.sketch) bytes += agg.sketch->memory_bytes();
  }
  return bytes;
}

namespace {

void save_period_set(util::BinaryWriter& out, const util::FlatSet<std::int64_t>& set) {
  out.u64(set.capacity());
  out.u64(set.size());
  set.for_each_slot([&out](std::size_t slot, std::int64_t period) {
    out.u64(slot);
    out.i64(period);
  });
}

bool load_period_set(util::BinaryReader& in, util::FlatSet<std::int64_t>& set) {
  const std::uint64_t cap = in.u64();
  const std::uint64_t n = in.u64();
  if (!in.ok() || n > cap || !set.restore_layout(cap)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t slot = in.u64();
    const std::int64_t period = in.i64();
    if (!in.ok() || !set.place(slot, period)) return false;
  }
  return true;
}

void save_period_vector(util::BinaryWriter& out, const std::vector<std::int64_t>& periods) {
  out.u64(periods.size());
  for (const std::int64_t p : periods) out.i64(p);
}

bool load_period_vector(util::BinaryReader& in, std::vector<std::int64_t>& periods) {
  const std::uint64_t n = in.u64();
  if (!in.ok() || n > (std::uint64_t{1} << 32)) return false;
  periods.clear();
  // A corrupt count must not become a huge allocation: reserve a bounded
  // prefix and let the loop below stop at the image's end.
  periods.reserve(static_cast<std::size_t>(std::min<std::uint64_t>(n, util::kMaxClaimedReserve)));
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::int64_t p = in.i64();
    // Canonical form is strictly ascending; reject anything else.
    if (!in.ok() || (!periods.empty() && p <= periods.back())) return false;
    periods.push_back(p);
  }
  return true;
}

}  // namespace

void OriginatorAggregator::save(util::BinaryWriter& out) const {
  out.i64(period_.secs());
  out.u8(static_cast<std::uint8_t>(sketch_.mode));
  out.u32(sketch_.promote_threshold);
  out.u8(sketch_.precision);
  out.u64(aggregates_.capacity());
  out.u64(aggregates_.size());
  const bool sketch_mode = sketch_.mode == QuerierStateMode::kSketch;
  aggregates_.for_each_slot(
      [&out, sketch_mode](std::size_t slot, net::IPv4Addr addr,
                          const OriginatorAggregate& agg) {
        out.u64(slot);
        out.u32(addr.value());
        out.u32(agg.originator.value());
        out.i64(agg.first_seen.secs());
        out.i64(agg.last_seen.secs());
        out.u64(agg.total_queries);
        out.u64(agg.querier_queries.capacity());
        out.u64(agg.querier_queries.size());
        agg.querier_queries.for_each_slot(
            [&out](std::size_t qslot, net::IPv4Addr querier, std::uint32_t count) {
              out.u64(qslot);
              out.u32(querier.value());
              out.u32(count);
            });
        save_period_vector(out, agg.periods);
        if (sketch_mode) {
          out.u8(agg.sketch ? 1 : 0);
          if (agg.sketch) {
            agg.sketch->queriers.save(out);
            agg.sketch->slash24s.save(out);
          }
        }
      });
  save_period_set(out, all_periods_);
  if (sketch_mode) interval_queriers_.save(out);
}

bool OriginatorAggregator::load(util::BinaryReader& in) {
  if (in.i64() != period_.secs()) return false;
  const std::uint8_t mode = in.u8();
  const std::uint32_t threshold = in.u32();
  const std::uint8_t precision = in.u8();
  if (!in.ok() || mode != static_cast<std::uint8_t>(sketch_.mode) ||
      threshold != sketch_.promote_threshold || precision != sketch_.precision) {
    return false;
  }
  const bool sketch_mode = sketch_.mode == QuerierStateMode::kSketch;
  const std::uint64_t cap = in.u64();
  const std::uint64_t n = in.u64();
  if (!in.ok() || n > cap || !aggregates_.restore_layout(cap)) return false;
  for (std::uint64_t i = 0; i < n; ++i) {
    const std::uint64_t slot = in.u64();
    const net::IPv4Addr addr{in.u32()};
    OriginatorAggregate agg;
    agg.originator = net::IPv4Addr{in.u32()};
    agg.first_seen = util::SimTime::seconds(in.i64());
    agg.last_seen = util::SimTime::seconds(in.i64());
    agg.total_queries = in.u64();
    const std::uint64_t qcap = in.u64();
    const std::uint64_t qn = in.u64();
    if (!in.ok() || qn > qcap || !agg.querier_queries.restore_layout(qcap)) return false;
    for (std::uint64_t q = 0; q < qn; ++q) {
      const std::uint64_t qslot = in.u64();
      const net::IPv4Addr querier{in.u32()};
      const std::uint32_t count = in.u32();
      if (!in.ok() || !agg.querier_queries.place(qslot, querier, count)) return false;
    }
    if (!load_period_vector(in, agg.periods)) return false;
    if (sketch_mode) {
      const std::uint8_t has_sketch = in.u8();
      if (!in.ok() || has_sketch > 1) return false;
      if (has_sketch) {
        agg.sketch = std::make_unique<QuerierSketches>(sketch_.precision);
        if (!agg.sketch->queriers.load(in) || !agg.sketch->slash24s.load(in) ||
            agg.sketch->queriers.precision() != sketch_.precision ||
            agg.sketch->slash24s.precision() != sketch_.precision) {
          return false;
        }
      }
    }
    if (!aggregates_.place(slot, addr, std::move(agg))) return false;
  }
  if (!load_period_set(in, all_periods_)) return false;
  if (sketch_mode && !interval_queriers_.load(in)) return false;
  return in.ok();
}

std::vector<const OriginatorAggregate*> OriginatorAggregator::select_interesting(
    std::size_t min_queriers, std::size_t top_n) const {
  std::vector<const OriginatorAggregate*> selected;
  selected.reserve(aggregates_.size());
  for (const auto& [addr, agg] : aggregates_) {
    if (agg.unique_queriers() >= min_queriers) selected.push_back(&agg);
  }
  std::sort(selected.begin(), selected.end(),
            [](const OriginatorAggregate* a, const OriginatorAggregate* b) {
              if (a->unique_queriers() != b->unique_queriers()) {
                return a->unique_queriers() > b->unique_queriers();
              }
              return a->originator < b->originator;
            });
  if (top_n != 0 && selected.size() > top_n) selected.resize(top_n);
  return selected;
}

}  // namespace dnsbs::core
