// Process-wide metrics: named counters, gauges and log-scale histograms
// plus scoped spans, feeding one registry every pipeline layer reports to.
//
// Design constraints (DESIGN.md "Observability"):
//
//   * Hot-path writes are lock-free: counters are sharded relaxed atomics
//     (each thread owns a cache-line-padded shard slot), histograms bump
//     one relaxed atomic bucket.  Registration and snapshots take a mutex
//     but happen per stage / per window, never per record.
//   * The determinism contract extends to telemetry: a counter or gauge
//     registered without the `sched` flag must read byte-identical for any
//     DNSBS_THREADS setting on the same input.  Scheduling-shaped series
//     (thread-pool dispatches, per-shard prune cadence) are registered
//     with `sched = true` and excluded from MetricsSnapshot::
//     deterministic_view(); histograms record durations and are always
//     excluded.
//   * Naming scheme: `dnsbs.<layer>.<name>` (layers: parse, capture,
//     dedup, aggregate, cache, threadpool, sensor, features, ml,
//     pipeline); spans land under `dnsbs.span.<path>` with '/'-joined
//     nesting.  Duration histograms end in `_ns`.
//   * `cmake -DDNSBS_METRICS=OFF` defines DNSBS_METRICS_ENABLED=0 and
//     compiles every write to a no-op (empty classes, `((void)0)` span
//     macro); the snapshot/serialization surface stays available and
//     returns an empty snapshot, so callers need no #ifdefs.
#pragma once

#include <array>
#include <atomic>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#ifndef DNSBS_METRICS_ENABLED
#define DNSBS_METRICS_ENABLED 1
#endif

namespace dnsbs::util {

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

/// Log-scale (power-of-two) histogram layout, shared by every histogram so
/// snapshots merge and serialize uniformly.  Bucket 0 holds the value 0;
/// bucket i >= 1 holds values v with bit_width(v) == i, i.e. the range
/// [2^(i-1), 2^i - 1]; the last bucket absorbs everything wider.
inline constexpr std::size_t kHistogramBuckets = 44;

constexpr std::size_t histogram_bucket_index(std::uint64_t v) noexcept {
  const std::size_t w = static_cast<std::size_t>(std::bit_width(v));
  return w < kHistogramBuckets ? w : kHistogramBuckets - 1;
}

/// Inclusive upper bound of bucket `i` (UINT64_MAX for the overflow
/// bucket).  histogram_bucket_index(histogram_bucket_upper(i)) == i.
constexpr std::uint64_t histogram_bucket_upper(std::size_t i) noexcept {
  if (i == 0) return 0;
  if (i >= kHistogramBuckets - 1) return ~std::uint64_t{0};
  return (std::uint64_t{1} << i) - 1;
}

/// Monotonic nanoseconds for duration measurements (0 when compiled out).
std::uint64_t metrics_now_ns() noexcept;

namespace detail {
/// Round-robin shard assignment, one slot per thread (cold: fires once per
/// thread per process).
std::size_t next_shard_slot() noexcept;

inline std::size_t shard_slot() noexcept {
#if DNSBS_METRICS_ENABLED
  thread_local const std::size_t slot = next_shard_slot();
  return slot;
#else
  return 0;
#endif
}
}  // namespace detail

class MetricCounter {
 public:
#if DNSBS_METRICS_ENABLED
  void add(std::uint64_t n) noexcept {
    shards_[detail::shard_slot() & (kShards - 1)].v.fetch_add(n,
                                                              std::memory_order_relaxed);
  }
  std::uint64_t value() const noexcept {
    std::uint64_t total = 0;
    for (const Shard& s : shards_) total += s.v.load(std::memory_order_relaxed);
    return total;
  }
  void reset() noexcept {
    for (Shard& s : shards_) s.v.store(0, std::memory_order_relaxed);
  }
#else
  void add(std::uint64_t) noexcept {}
  std::uint64_t value() const noexcept { return 0; }
  void reset() noexcept {}
#endif
  void inc() noexcept { add(1); }

#if DNSBS_METRICS_ENABLED
 private:
  struct alignas(64) Shard {
    std::atomic<std::uint64_t> v{0};
  };
  static constexpr std::size_t kShards = 16;
  static_assert((kShards & (kShards - 1)) == 0, "shard masking needs a power of two");
  std::array<Shard, kShards> shards_{};
#endif
};

class MetricGauge {
 public:
#if DNSBS_METRICS_ENABLED
  void set(std::int64_t v) noexcept { v_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t d) noexcept { v_.fetch_add(d, std::memory_order_relaxed); }
  std::int64_t value() const noexcept { return v_.load(std::memory_order_relaxed); }
  void reset() noexcept { v_.store(0, std::memory_order_relaxed); }
#else
  void set(std::int64_t) noexcept {}
  void add(std::int64_t) noexcept {}
  std::int64_t value() const noexcept { return 0; }
  void reset() noexcept {}
#endif

#if DNSBS_METRICS_ENABLED
 private:
  std::atomic<std::int64_t> v_{0};
#endif
};

class MetricHistogram {
 public:
#if DNSBS_METRICS_ENABLED
  void record(std::uint64_t v) noexcept {
    buckets_[histogram_bucket_index(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(v, std::memory_order_relaxed);
  }
  std::uint64_t count() const noexcept { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const noexcept { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const noexcept {
    return i < kHistogramBuckets ? buckets_[i].load(std::memory_order_relaxed) : 0;
  }
  void reset() noexcept {
    for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
    count_.store(0, std::memory_order_relaxed);
    sum_.store(0, std::memory_order_relaxed);
  }
#else
  void record(std::uint64_t) noexcept {}
  std::uint64_t count() const noexcept { return 0; }
  std::uint64_t sum() const noexcept { return 0; }
  std::uint64_t bucket(std::size_t) const noexcept { return 0; }
  void reset() noexcept {}
#endif

#if DNSBS_METRICS_ENABLED
 private:
  std::array<std::atomic<std::uint64_t>, kHistogramBuckets> buckets_{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
#endif
};

/// Registry lookups.  The returned reference is valid for the process
/// lifetime (metrics are never deregistered; reset() zeroes in place), so
/// hot call sites cache it once:
///   namespace { util::MetricCounter& g_lines = util::metrics_counter("dnsbs.parse.lines"); }
/// `sched = true` marks a series whose value legitimately depends on the
/// thread count / scheduling; it is excluded from deterministic_view().
/// Registering the same name twice returns the same object (the flags of
/// the first registration win).
MetricCounter& metrics_counter(std::string_view name, bool sched = false);
MetricGauge& metrics_gauge(std::string_view name, bool sched = false);
MetricHistogram& metrics_histogram(std::string_view name);

/// One exported metric, as captured by metrics_snapshot().
struct MetricValue {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  bool sched = false;
  std::uint64_t count = 0;                  ///< counter value / histogram samples
  std::int64_t gauge = 0;                   ///< gauge value
  std::uint64_t sum = 0;                    ///< histogram sum of recorded values
  std::vector<std::uint64_t> buckets;       ///< histogram bucket counts (sparse-free)

  bool operator==(const MetricValue&) const = default;
};

/// A point-in-time copy of the whole registry, ordered by name (the
/// registry keys are kept sorted, so ordering is deterministic and stable
/// across runs that register the same series).
struct MetricsSnapshot {
  std::vector<MetricValue> values;

  const MetricValue* find(std::string_view name) const noexcept;
  /// MetricCounter value or gauge value by name; 0 when absent.
  std::int64_t scalar(std::string_view name) const noexcept;

  /// Counters and gauges only, minus sched-flagged series: exactly the
  /// values the determinism contract covers (byte-identical across
  /// DNSBS_THREADS).  Histograms record durations and are dropped.
  MetricsSnapshot deterministic_view() const;

  /// after - before on counters and histograms (clamped at 0 so a reset
  /// between snapshots degrades gracefully); gauges take `after`.  Series
  /// only present in `after` pass through unchanged.
  static MetricsSnapshot delta(const MetricsSnapshot& before, const MetricsSnapshot& after);

  /// {"metrics":[{"name":...,"kind":"counter","sched":false,"value":N}, ...]}
  /// Histograms serialize count/sum plus sparse [upper_bound, count] pairs.
  std::string to_json() const;

  /// Prometheus text exposition format; '.'/'/' in names map to '_',
  /// histograms emit cumulative le-labelled buckets plus _sum/_count.
  std::string to_prometheus() const;
};

/// Snapshot of every registered metric.
MetricsSnapshot metrics_snapshot();

/// Zeroes every registered metric in place (handles stay valid).  Test and
/// bench isolation; never called on the hot path.
void metrics_reset();

/// RAII span: measures wall time from construction to destruction and
/// records it (in nanoseconds) into the histogram
/// `dnsbs.span.<outer>/<inner>/...` named by the thread's span stack, so
/// nested spans read as a hierarchical wall-time trace in the snapshot.
/// Span stacks are per-thread; a span opened on a pool worker roots its
/// own trace.  While a trace capture is active (util/trace.hpp) each span
/// also appends begin/end events to its thread's trace ring.  Frames past
/// the depth cap record nothing and are tallied in the sched counter
/// `dnsbs.span.dropped`.  Use through DNSBS_SPAN below.
class ScopedSpan {
 public:
  explicit ScopedSpan(const char* stage) noexcept;
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

#if DNSBS_METRICS_ENABLED
 private:
  std::uint64_t start_ns_;
  const char* stage_;
  bool traced_;
#endif
};

#if DNSBS_METRICS_ENABLED
#define DNSBS_SPAN_CAT2(a, b) a##b
#define DNSBS_SPAN_CAT(a, b) DNSBS_SPAN_CAT2(a, b)
#define DNSBS_SPAN(stage) \
  ::dnsbs::util::ScopedSpan DNSBS_SPAN_CAT(dnsbs_span_, __LINE__)(stage)
#else
#define DNSBS_SPAN(stage) ((void)0)
#endif

}  // namespace dnsbs::util
