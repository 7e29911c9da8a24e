#include "util/metrics.hpp"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <mutex>

#include "util/trace.hpp"

namespace dnsbs::util {

std::size_t detail::next_shard_slot() noexcept {
  static std::atomic<std::size_t> next{0};
  return next.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t metrics_now_ns() noexcept {
#if DNSBS_METRICS_ENABLED
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
#else
  return 0;
#endif
}

#if DNSBS_METRICS_ENABLED

namespace {

struct Entry {
  MetricKind kind;
  bool sched = false;
  // One of these is set, matching `kind`.  unique_ptr keeps addresses
  // stable across map rehash/rebalance so cached references never dangle.
  std::unique_ptr<MetricCounter> counter;
  std::unique_ptr<MetricGauge> gauge;
  std::unique_ptr<MetricHistogram> histogram;
};

/// The process-wide registry.  std::map keeps names sorted, which makes
/// snapshot ordering deterministic without a per-snapshot sort.
class Registry {
 public:
  static Registry& instance() {
    static Registry r;
    return r;
  }

  MetricCounter& counter(std::string_view name, bool sched) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      Entry e{MetricKind::kCounter, sched, std::make_unique<MetricCounter>(), nullptr, nullptr};
      it = entries_.emplace(std::string(name), std::move(e)).first;
    }
    return *it->second.counter;
  }

  MetricGauge& gauge(std::string_view name, bool sched) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      Entry e{MetricKind::kGauge, sched, nullptr, std::make_unique<MetricGauge>(), nullptr};
      it = entries_.emplace(std::string(name), std::move(e)).first;
    }
    return *it->second.gauge;
  }

  MetricHistogram& histogram(std::string_view name) {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(name);
    if (it == entries_.end()) {
      Entry e{MetricKind::kHistogram, false, nullptr, nullptr,
              std::make_unique<MetricHistogram>()};
      it = entries_.emplace(std::string(name), std::move(e)).first;
    }
    return *it->second.histogram;
  }

  MetricsSnapshot snapshot() const {
    MetricsSnapshot snap;
    std::lock_guard<std::mutex> lock(mutex_);
    snap.values.reserve(entries_.size());
    for (const auto& [name, entry] : entries_) {
      MetricValue v;
      v.name = name;
      v.kind = entry.kind;
      v.sched = entry.sched;
      switch (entry.kind) {
        case MetricKind::kCounter:
          v.count = entry.counter->value();
          break;
        case MetricKind::kGauge:
          v.gauge = entry.gauge->value();
          break;
        case MetricKind::kHistogram: {
          v.count = entry.histogram->count();
          v.sum = entry.histogram->sum();
          v.buckets.resize(kHistogramBuckets);
          for (std::size_t i = 0; i < kHistogramBuckets; ++i) {
            v.buckets[i] = entry.histogram->bucket(i);
          }
          break;
        }
      }
      snap.values.push_back(std::move(v));
    }
    return snap;
  }

  void reset() {
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, entry] : entries_) {
      if (entry.counter) entry.counter->reset();
      if (entry.gauge) entry.gauge->reset();
      if (entry.histogram) entry.histogram->reset();
    }
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, Entry, std::less<>> entries_;
};

/// Per-thread span stack; spans opened on a worker root their own trace.
constexpr std::size_t kMaxSpanDepth = 16;
thread_local const char* tls_span_stack[kMaxSpanDepth];
thread_local std::size_t tls_span_depth = 0;

/// Frames nested past kMaxSpanDepth (they record no histogram and no
/// trace events).  Which thread overruns depends on work distribution, so
/// the tally is sched-shaped.
MetricCounter& span_dropped_counter() {
  static MetricCounter& c = metrics_counter("dnsbs.span.dropped", /*sched=*/true);
  return c;
}

}  // namespace

MetricCounter& metrics_counter(std::string_view name, bool sched) {
  return Registry::instance().counter(name, sched);
}

MetricGauge& metrics_gauge(std::string_view name, bool sched) {
  return Registry::instance().gauge(name, sched);
}

MetricHistogram& metrics_histogram(std::string_view name) {
  return Registry::instance().histogram(name);
}

MetricsSnapshot metrics_snapshot() { return Registry::instance().snapshot(); }

void metrics_reset() { Registry::instance().reset(); }

ScopedSpan::ScopedSpan(const char* stage) noexcept
    : start_ns_(metrics_now_ns()), stage_(stage), traced_(false) {
  if (tls_span_depth < kMaxSpanDepth) {
    tls_span_stack[tls_span_depth] = stage;
  } else {
    span_dropped_counter().inc();
  }
  ++tls_span_depth;  // depth still tracks overflowed frames (they record nothing)
  if (tls_span_depth <= kMaxSpanDepth && trace_enabled()) {
    traced_ = detail::trace_record_begin(stage, start_ns_);
  }
}

ScopedSpan::~ScopedSpan() {
  const std::uint64_t end_ns = metrics_now_ns();
  // End the trace event even if the capture stopped mid-span: the begin
  // was recorded, so the stream stays balanced.
  if (traced_) detail::trace_record_end(stage_, end_ns);
  --tls_span_depth;
  if (tls_span_depth >= kMaxSpanDepth) return;  // overflowed frame: dropped
  std::string path = "dnsbs.span.";
  for (std::size_t i = 0; i <= tls_span_depth; ++i) {
    if (i != 0) path += '/';
    path += tls_span_stack[i];
  }
  metrics_histogram(path).record(end_ns - start_ns_);
}

#else  // !DNSBS_METRICS_ENABLED

namespace {
// Single dummies: every lookup returns the same no-op object, so call
// sites keep their cached-reference pattern with zero storage cost.
MetricCounter g_noop_counter;
MetricGauge g_noop_gauge;
MetricHistogram g_noop_histogram;
}  // namespace

MetricCounter& metrics_counter(std::string_view, bool) { return g_noop_counter; }
MetricGauge& metrics_gauge(std::string_view, bool) { return g_noop_gauge; }
MetricHistogram& metrics_histogram(std::string_view) { return g_noop_histogram; }
MetricsSnapshot metrics_snapshot() { return {}; }
void metrics_reset() {}
ScopedSpan::ScopedSpan(const char*) noexcept {}
ScopedSpan::~ScopedSpan() = default;

#endif  // DNSBS_METRICS_ENABLED

// ---- snapshot helpers & serializers (always compiled) -------------------

const MetricValue* MetricsSnapshot::find(std::string_view name) const noexcept {
  const auto it = std::lower_bound(
      values.begin(), values.end(), name,
      [](const MetricValue& v, std::string_view n) { return v.name < n; });
  if (it == values.end() || it->name != name) return nullptr;
  return &*it;
}

std::int64_t MetricsSnapshot::scalar(std::string_view name) const noexcept {
  const MetricValue* v = find(name);
  if (v == nullptr) return 0;
  if (v->kind == MetricKind::kGauge) return v->gauge;
  return static_cast<std::int64_t>(v->count);
}

MetricsSnapshot MetricsSnapshot::deterministic_view() const {
  MetricsSnapshot out;
  for (const MetricValue& v : values) {
    if (v.kind == MetricKind::kHistogram || v.sched) continue;
    out.values.push_back(v);
  }
  return out;
}

MetricsSnapshot MetricsSnapshot::delta(const MetricsSnapshot& before,
                                       const MetricsSnapshot& after) {
  MetricsSnapshot out;
  out.values.reserve(after.values.size());
  for (const MetricValue& a : after.values) {
    MetricValue d = a;
    if (const MetricValue* b = before.find(a.name)) {
      switch (a.kind) {
        case MetricKind::kCounter:
          d.count = a.count >= b->count ? a.count - b->count : 0;
          break;
        case MetricKind::kGauge:
          break;  // gauges are levels, not flows: keep `after`
        case MetricKind::kHistogram:
          d.count = a.count >= b->count ? a.count - b->count : 0;
          d.sum = a.sum >= b->sum ? a.sum - b->sum : 0;
          for (std::size_t i = 0; i < d.buckets.size() && i < b->buckets.size(); ++i) {
            d.buckets[i] = a.buckets[i] >= b->buckets[i] ? a.buckets[i] - b->buckets[i] : 0;
          }
          break;
      }
    }
    out.values.push_back(std::move(d));
  }
  return out;
}

namespace {

const char* kind_name(MetricKind k) noexcept {
  switch (k) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

/// Prometheus metric names allow [a-zA-Z0-9_:]; everything else maps to '_'.
std::string prometheus_name(const std::string& name) {
  std::string out = name;
  for (char& c : out) {
    const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                    (c >= '0' && c <= '9') || c == '_' || c == ':';
    if (!ok) c = '_';
  }
  return out;
}

void append_u64(std::string& out, std::uint64_t v) { out += std::to_string(v); }

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\n  \"metrics\": [";
  bool first = true;
  for (const MetricValue& v : values) {
    out += first ? "\n" : ",\n";
    first = false;
    out += "    {\"name\": \"";
    out += v.name;  // names are code literals: no JSON escaping needed
    out += "\", \"kind\": \"";
    out += kind_name(v.kind);
    out += "\"";
    if (v.sched) out += ", \"sched\": true";
    switch (v.kind) {
      case MetricKind::kCounter:
        out += ", \"value\": ";
        append_u64(out, v.count);
        break;
      case MetricKind::kGauge:
        out += ", \"value\": ";
        out += std::to_string(v.gauge);
        break;
      case MetricKind::kHistogram: {
        out += ", \"count\": ";
        append_u64(out, v.count);
        out += ", \"sum\": ";
        append_u64(out, v.sum);
        out += ", \"buckets\": [";
        bool bfirst = true;
        for (std::size_t i = 0; i < v.buckets.size(); ++i) {
          if (v.buckets[i] == 0) continue;
          if (!bfirst) out += ", ";
          bfirst = false;
          out += "[";
          append_u64(out, histogram_bucket_upper(i));
          out += ", ";
          append_u64(out, v.buckets[i]);
          out += "]";
        }
        out += "]";
        break;
      }
    }
    out += "}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string MetricsSnapshot::to_prometheus() const {
  std::string out;
  for (const MetricValue& v : values) {
    const std::string name = prometheus_name(v.name);
    out += "# TYPE " + name + " " + kind_name(v.kind) + "\n";
    // Scheduling-shaped series carry a machine-readable marker so scrape
    // consumers (the OBS gate's determinism diff) can strip them the same
    // way deterministic_view() does.
    if (v.sched) out += "# SCHED " + name + "\n";
    switch (v.kind) {
      case MetricKind::kCounter:
        out += name + " ";
        append_u64(out, v.count);
        out += "\n";
        break;
      case MetricKind::kGauge:
        out += name + " " + std::to_string(v.gauge) + "\n";
        break;
      case MetricKind::kHistogram: {
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < v.buckets.size(); ++i) {
          if (v.buckets[i] == 0) continue;
          cumulative += v.buckets[i];
          out += name + "_bucket{le=\"";
          append_u64(out, histogram_bucket_upper(i));
          out += "\"} ";
          append_u64(out, cumulative);
          out += "\n";
        }
        out += name + "_bucket{le=\"+Inf\"} ";
        append_u64(out, v.count);
        out += "\n";
        out += name + "_sum ";
        append_u64(out, v.sum);
        out += "\n";
        out += name + "_count ";
        append_u64(out, v.count);
        out += "\n";
        break;
      }
    }
  }
  return out;
}

}  // namespace dnsbs::util
