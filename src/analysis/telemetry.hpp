// Per-window telemetry history: a bounded ring of derived health gauges,
// one entry per closed window, maintained by StreamingWindowDriver and
// served by the daemon's HISTORY verb and GET /windows endpoint.
//
// Every field except the `sched`-grouped ones is derived from the
// window's WindowResult (its WindowStats, confidence histogram and
// classes), so the rendered history (minus the "sched" object) is
// byte-identical across DNSBS_THREADS and across checkpoint/restore — the
// same contract the window summary files carry.  The full entries (including sched fields
// like the intake queue watermark) ride in the checkpoint, so a restored
// daemon answers HISTORY exactly as the killed one would have.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>

#include "analysis/window_result.hpp"
#include "util/binio.hpp"

namespace dnsbs::analysis {

struct WindowTelemetry {
  std::uint64_t index = 0;
  std::int64_t start_secs = 0;
  std::int64_t end_secs = 0;

  // Raw deterministic inputs (the window's WindowResult).
  WindowStats stats;
  std::array<std::uint64_t, kConfidenceBuckets> confidence_hist{};
  /// Predictions per application class (index = core::AppClass value).
  std::array<std::uint64_t, core::kAppClassCount> class_counts{};

  // Derived health gauges (filled by TelemetryHistory::record).
  double dedup_ratio = 0.0;  ///< suppressed / (admitted + suppressed)
  double late_rate = 0.0;    ///< late / (late + records)
  /// Total-variation distance of this window's class mix from the mean
  /// mix of the trailing baseline (previous windows with predictions).
  double drift = 0.0;
  bool drift_warned = false;

  // Scheduling-shaped operational fields, grouped under "sched" in the
  // JSON so determinism diffs can strip them in one pass.
  std::int64_t queue_depth_peak = 0;  ///< intake backlog watermark this window

  bool operator==(const WindowTelemetry&) const = default;
};

/// Bounded ring of WindowTelemetry with drift detection against a
/// trailing baseline.  Not thread-safe: the driver mutates it from the
/// single drive thread.
class TelemetryHistory {
 public:
  /// `capacity` 0 disables retention (record still derives gauges).
  /// Drift compares against the mean class mix of up to
  /// `baseline_windows` preceding entries and flags entries whose drift
  /// exceeds `drift_warn_threshold` once the baseline has at least
  /// `min_baseline` contributing windows.
  explicit TelemetryHistory(std::size_t capacity = 256,
                            double drift_warn_threshold = 0.5,
                            std::size_t baseline_windows = 8,
                            std::size_t min_baseline = 3);

  /// Fills the derived gauges of `entry` (ratios + drift vs the current
  /// baseline), appends it and trims to capacity.  Returns the stored
  /// entry (valid until the next record()).
  const WindowTelemetry& record(WindowTelemetry entry);

  std::size_t size() const noexcept { return entries_.size(); }
  std::size_t capacity() const noexcept { return capacity_; }
  const std::deque<WindowTelemetry>& entries() const noexcept { return entries_; }

  /// One-line JSON {"count":N,"capacity":C,"windows":[...]} of the most
  /// recent `last_n` entries (0 = all).  Deterministic: doubles are
  /// derived from deterministic integers, class-mix keys come from the
  /// fixed taxonomy.  sched-shaped fields sit under each entry's "sched"
  /// object.
  std::string to_json(std::size_t last_n = 0) const;

  /// Byte-stable binary round trip for checkpoints (doubles travel as
  /// bit patterns).  load() replaces the contents; entries beyond the
  /// configured capacity are refused (corrupt/mismatched checkpoint).
  void save(util::BinaryWriter& out) const;
  bool load(util::BinaryReader& in);

 private:
  std::size_t capacity_;
  double drift_warn_threshold_;
  std::size_t baseline_windows_;
  std::size_t min_baseline_;
  std::deque<WindowTelemetry> entries_;
  WindowTelemetry scratch_;  ///< returned storage when capacity_ == 0
};

}  // namespace dnsbs::analysis
