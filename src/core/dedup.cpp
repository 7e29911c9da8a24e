#include "core/dedup.hpp"

#include <algorithm>

#include "util/binio.hpp"
#include "util/metrics.hpp"

namespace dnsbs::core {

namespace {
// Prune cadence depends on how records are sharded (each shard crosses
// clock boundaries on its own subsequence), so these are sched series —
// outside the determinism contract.  The *retained entry set* stays
// byte-identical; only the work done to get there varies.  admitted/
// suppressed are deterministic and published by the Sensor in bulk.
util::MetricCounter& g_prunes = util::metrics_counter("dnsbs.dedup.prunes", /*sched=*/true);
util::MetricCounter& g_drains =
    util::metrics_counter("dnsbs.dedup.bucket_drains", /*sched=*/true);
util::MetricCounter& g_expired = util::metrics_counter("dnsbs.dedup.expired", /*sched=*/true);
util::MetricCounter& g_requeued = util::metrics_counter("dnsbs.dedup.requeued", /*sched=*/true);
}  // namespace

bool Deduplicator::admit(const dns::QueryRecord& record) {
  const std::uint64_t key = (static_cast<std::uint64_t>(record.querier.value()) << 32) |
                            record.originator.value();
  const auto [it, inserted] = last_seen_.try_emplace(key, record.time);
  bool pass = true;
  if (!inserted) {
    if (record.time - it->second < window_ && record.time >= it->second) {
      pass = false;
    } else {
      it->second = record.time;
      queue_expiry(key, record.time);
    }
  } else {
    queue_expiry(key, record.time);
  }
  pass ? ++admitted_ : ++suppressed_;
  // Periodically drop stale entries so long runs don't accumulate state
  // for queriers that went quiet.
  catch_up_prune(record.time);
  return pass;
}

void Deduplicator::queue_expiry(std::uint64_t key, util::SimTime time) {
  if (window_.secs() <= 0) return;  // no pruning without a window
  // Clamp below the drained frontier: a backdated write lands in the next
  // drainable bucket and the exact re-check at drain time decides.
  const std::int64_t bucket = std::max(bucket_of(time), next_drain_);
  expiry_[bucket].push_back(key);
}

void Deduplicator::catch_up_prune(util::SimTime now) {
  // Prunes trigger on fixed 2*window boundaries of the virtual clock, not
  // on stream-relative gaps: the retained entry set is then a function of
  // the record times alone, so shard-local subsequences converge to the
  // same state as a serial pass (the stale entries a missed boundary would
  // have dropped are caught up at the shard's next boundary or by the
  // sensor's final catch_up_prune).
  const std::int64_t stride = 2 * window_.secs();
  if (stride <= 0) return;
  const std::int64_t interval = now.secs() / stride;
  if (interval > last_prune_interval_) {
    prune(util::SimTime::seconds(interval * stride));
    last_prune_interval_ = interval;
  }
}

void Deduplicator::merge_from(Deduplicator&& other) {
  last_seen_.merge_from(std::move(other.last_seen_),
                        [](util::SimTime& mine, util::SimTime&& theirs) {
                          mine = std::max(mine, theirs);
                        });
  expiry_.merge_from(std::move(other.expiry_),
                     [](std::vector<std::uint64_t>& mine,
                        std::vector<std::uint64_t>&& theirs) {
                       mine.insert(mine.end(), theirs.begin(), theirs.end());
                     });
  next_drain_ = std::max(next_drain_, other.next_drain_);
  admitted_ += other.admitted_;
  suppressed_ += other.suppressed_;
  last_prune_interval_ = std::max(last_prune_interval_, other.last_prune_interval_);
  other.next_drain_ = 0;
  other.admitted_ = 0;
  other.suppressed_ = 0;
}

void Deduplicator::save(util::BinaryWriter& out) const {
  out.i64(window_.secs());
  out.u64(last_seen_.capacity());
  out.u64(last_seen_.size());
  last_seen_.for_each_slot([&out](std::size_t slot, std::uint64_t key, util::SimTime t) {
    out.u64(slot);
    out.u64(key);
    out.i64(t.secs());
  });
  out.u64(expiry_.capacity());
  out.u64(expiry_.size());
  expiry_.for_each_slot(
      [&out](std::size_t slot, std::int64_t bucket, const std::vector<std::uint64_t>& keys) {
        out.u64(slot);
        out.i64(bucket);
        out.u64(keys.size());
        for (const std::uint64_t k : keys) out.u64(k);
      });
  out.i64(next_drain_);
  out.i64(last_prune_interval_);
  out.u64(admitted_);
  out.u64(suppressed_);
}

bool Deduplicator::load(util::BinaryReader& in) {
  if (in.i64() != window_.secs()) return false;
  const std::uint64_t seen_cap = in.u64();
  const std::uint64_t seen_n = in.u64();
  if (!in.ok() || seen_n > seen_cap || !last_seen_.restore_layout(seen_cap)) return false;
  for (std::uint64_t i = 0; i < seen_n; ++i) {
    const std::uint64_t slot = in.u64();
    const std::uint64_t key = in.u64();
    const util::SimTime t = util::SimTime::seconds(in.i64());
    if (!in.ok() || !last_seen_.place(slot, key, t)) return false;
  }
  const std::uint64_t exp_cap = in.u64();
  const std::uint64_t exp_n = in.u64();
  if (!in.ok() || exp_n > exp_cap || !expiry_.restore_layout(exp_cap)) return false;
  for (std::uint64_t i = 0; i < exp_n; ++i) {
    const std::uint64_t slot = in.u64();
    const std::int64_t bucket = in.i64();
    const std::uint64_t count = in.u64();
    if (!in.ok() || count > (std::uint64_t{1} << 30)) return false;
    // A corrupt length must not become a huge allocation: reserve a
    // bounded prefix and stop at the image's end.
    std::vector<std::uint64_t> keys;
    keys.reserve(
        static_cast<std::size_t>(std::min<std::uint64_t>(count, util::kMaxClaimedReserve)));
    for (std::uint64_t k = 0; k < count; ++k) {
      keys.push_back(in.u64());
      if (!in.ok()) return false;
    }
    if (!expiry_.place(slot, bucket, std::move(keys))) return false;
  }
  next_drain_ = in.i64();
  last_prune_interval_ = in.i64();
  admitted_ = in.u64();
  suppressed_ = in.u64();
  return in.ok();
}

void Deduplicator::prune(util::SimTime now) {
  // Retention rule (unchanged): keep iff now - time < window, i.e. drop
  // time <= now - window.  `now` is a 2*window boundary, so the cutoff is
  // a multiple of window and every bucket up to cutoff/window is entirely
  // expired: draining exactly those buckets reproduces the full-walk
  // result without touching live entries.
  const std::int64_t w = window_.secs();
  const std::int64_t cutoff_bucket = (now.secs() - w) / w;

  // Collect the drained buckets first: live-but-refreshed keys re-queue
  // into later buckets while we iterate.
  std::vector<std::pair<std::int64_t, std::vector<std::uint64_t>>> drained;
  for (auto& [bucket, keys] : expiry_) {
    if (bucket <= cutoff_bucket) drained.emplace_back(bucket, std::move(keys));
  }
  for (const auto& [bucket, keys] : drained) expiry_.erase(bucket);
  next_drain_ = std::max(next_drain_, cutoff_bucket + 1);

  g_prunes.inc();
  g_drains.add(drained.size());
  std::uint64_t expired = 0;
  std::uint64_t requeued = 0;
  for (auto& [bucket, keys] : drained) {
    for (const std::uint64_t key : keys) {
      const auto* entry = last_seen_.find(key);
      if (entry == nullptr) continue;  // already erased via an earlier queue slot
      if (now - entry->second >= window_) {
        last_seen_.erase(key);
        ++expired;
      } else {
        // Refreshed since this queue entry was written; its newer queue
        // slot may itself have been drained in this same pass, so re-queue
        // under the (clamped) bucket of its current time.
        queue_expiry(key, entry->second);
        ++requeued;
      }
    }
  }
  g_expired.add(expired);
  g_requeued.add(requeued);
}

}  // namespace dnsbs::core
