#include "analysis/telemetry.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "core/feature_vector.hpp"
#include "util/binio.hpp"

namespace dnsbs::analysis {

namespace {

void append_double(std::string& out, double v) {
  // %.9g round-trips the derived ratios closely enough while staying
  // readable; byte-stability follows from the inputs being identical
  // integers, so the formatted text is identical too.
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

/// Class mix as fractions; all-zero when the window predicted nothing.
std::array<double, core::kAppClassCount> mix_of(const WindowTelemetry& e) {
  std::array<double, core::kAppClassCount> mix{};
  if (e.stats.classified == 0) return mix;
  for (std::size_t i = 0; i < mix.size(); ++i) {
    mix[i] = static_cast<double>(e.class_counts[i]) / static_cast<double>(e.stats.classified);
  }
  return mix;
}

}  // namespace

TelemetryHistory::TelemetryHistory(std::size_t capacity, double drift_warn_threshold,
                                   std::size_t baseline_windows, std::size_t min_baseline)
    : capacity_(capacity),
      drift_warn_threshold_(drift_warn_threshold),
      baseline_windows_(baseline_windows),
      min_baseline_(min_baseline) {}

const WindowTelemetry& TelemetryHistory::record(WindowTelemetry entry) {
  const WindowStats& stats = entry.stats;
  const std::uint64_t dedup_total = stats.dedup_admitted + stats.dedup_suppressed;
  entry.dedup_ratio = dedup_total > 0 ? static_cast<double>(stats.dedup_suppressed) /
                                            static_cast<double>(dedup_total)
                                      : 0.0;
  const std::uint64_t offered = stats.late_records + stats.records;
  entry.late_rate =
      offered > 0 ? static_cast<double>(stats.late_records) / static_cast<double>(offered)
                  : 0.0;

  // Drift: total-variation distance between this window's class mix and
  // the mean mix of the trailing baseline (most recent windows that made
  // predictions).  Warn only once the baseline is populated enough to
  // mean something.
  std::array<double, core::kAppClassCount> baseline{};
  std::size_t contributing = 0;
  for (auto it = entries_.rbegin();
       it != entries_.rend() && contributing < baseline_windows_; ++it) {
    if (it->stats.classified == 0) continue;
    const auto mix = mix_of(*it);
    for (std::size_t i = 0; i < baseline.size(); ++i) baseline[i] += mix[i];
    ++contributing;
  }
  if (contributing > 0 && stats.classified > 0) {
    const auto mix = mix_of(entry);
    double l1 = 0.0;
    for (std::size_t i = 0; i < baseline.size(); ++i) {
      l1 += std::abs(mix[i] - baseline[i] / static_cast<double>(contributing));
    }
    entry.drift = l1 / 2.0;  // total variation: half the L1 distance
    entry.drift_warned =
        contributing >= min_baseline_ && entry.drift > drift_warn_threshold_;
  }

  if (capacity_ == 0) {
    scratch_ = std::move(entry);
    return scratch_;
  }
  while (entries_.size() >= capacity_) entries_.pop_front();
  entries_.push_back(std::move(entry));
  return entries_.back();
}

std::string TelemetryHistory::to_json(std::size_t last_n) const {
  const std::size_t n =
      last_n == 0 ? entries_.size() : std::min(last_n, entries_.size());
  std::string out = "{\"count\":" + std::to_string(n) +
                    ",\"capacity\":" + std::to_string(capacity_) + ",\"windows\":[";
  const auto& names = core::app_class_names();
  bool first_entry = true;
  for (std::size_t k = entries_.size() - n; k < entries_.size(); ++k) {
    const WindowTelemetry& e = entries_[k];
    const WindowStats& s = e.stats;
    if (!first_entry) out += ",";
    first_entry = false;
    out += "{\"index\":" + std::to_string(e.index);
    out += ",\"start\":" + std::to_string(e.start_secs);
    out += ",\"end\":" + std::to_string(e.end_secs);
    out += ",\"records\":" + std::to_string(s.records);
    out += ",\"interesting\":" + std::to_string(s.interesting);
    out += ",\"dedup\":{\"admitted\":" + std::to_string(s.dedup_admitted);
    out += ",\"suppressed\":" + std::to_string(s.dedup_suppressed);
    out += ",\"ratio\":";
    append_double(out, e.dedup_ratio);
    out += "},\"late\":{\"records\":" + std::to_string(s.late_records);
    out += ",\"rate\":";
    append_double(out, e.late_rate);
    out += "},\"classified\":" + std::to_string(s.classified);
    out += ",\"retrained\":";
    out += s.retrained ? "true" : "false";
    out += ",\"confidence\":[";
    for (std::size_t i = 0; i < e.confidence_hist.size(); ++i) {
      if (i != 0) out += ",";
      out += std::to_string(e.confidence_hist[i]);
    }
    out += "],\"class_mix\":{";
    bool first_class = true;
    for (std::size_t i = 0; i < e.class_counts.size(); ++i) {
      if (e.class_counts[i] == 0) continue;
      if (!first_class) out += ",";
      first_class = false;
      out += "\"";
      out += i < names.size() ? names[i] : std::to_string(i);
      out += "\":";
      append_double(out, s.classified > 0 ? static_cast<double>(e.class_counts[i]) /
                                                static_cast<double>(s.classified)
                                          : 0.0);
    }
    out += "},\"drift\":";
    append_double(out, e.drift);
    out += ",\"drift_warn\":";
    out += e.drift_warned ? "true" : "false";
    out += ",\"sched\":{\"queue_depth_peak\":" + std::to_string(e.queue_depth_peak) + "}";
    out += "}";
  }
  out += "]}";
  return out;
}

void TelemetryHistory::save(util::BinaryWriter& out) const {
  out.u64(capacity_);
  out.u64(entries_.size());
  for (const WindowTelemetry& e : entries_) {
    out.u64(e.index);
    out.i64(e.start_secs);
    out.i64(e.end_secs);
    const WindowStats& s = e.stats;
    for (const std::uint64_t v :
         {s.records, s.dedup_admitted, s.dedup_suppressed, s.originators,
          s.sketch_promotions, s.interesting, s.late_records, s.classified}) {
      out.u64(v);
    }
    out.u8(s.retrained ? 1 : 0);
    for (const std::uint64_t b : e.confidence_hist) out.u64(b);
    for (const std::uint64_t c : e.class_counts) out.u64(c);
    out.f64(e.dedup_ratio);
    out.f64(e.late_rate);
    out.f64(e.drift);
    out.u8(e.drift_warned ? 1 : 0);
    out.i64(e.queue_depth_peak);
  }
}

bool TelemetryHistory::load(util::BinaryReader& in) {
  const std::uint64_t capacity = in.u64();
  const std::uint64_t n = in.u64();
  if (!in.ok() || capacity != capacity_) return false;
  if (capacity_ != 0 && n > capacity_) return false;
  std::deque<WindowTelemetry> loaded;
  for (std::uint64_t k = 0; k < n; ++k) {
    WindowTelemetry e;
    e.index = in.u64();
    e.start_secs = in.i64();
    e.end_secs = in.i64();
    WindowStats& s = e.stats;
    for (std::uint64_t* v :
         {&s.records, &s.dedup_admitted, &s.dedup_suppressed, &s.originators,
          &s.sketch_promotions, &s.interesting, &s.late_records, &s.classified}) {
      *v = in.u64();
    }
    s.retrained = in.u8() != 0;
    for (std::uint64_t& b : e.confidence_hist) b = in.u64();
    for (std::uint64_t& c : e.class_counts) c = in.u64();
    e.dedup_ratio = in.f64();
    e.late_rate = in.f64();
    e.drift = in.f64();
    e.drift_warned = in.u8() != 0;
    e.queue_depth_peak = in.i64();
    if (!in.ok()) return false;
    loaded.push_back(std::move(e));
  }
  entries_ = std::move(loaded);
  return true;
}

}  // namespace dnsbs::analysis
