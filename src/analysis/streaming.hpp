// Continuous windowed operation for the streaming daemon.
//
// The batch pipeline (analysis/pipeline.hpp) receives one window's records
// as a span; a live capture point has no such luxury — packets arrive one
// at a time and the window boundaries come from the packet timestamps.
// StreamingWindowDriver turns a record-at-a-time stream into the same
// per-window Sensor passes the batch path runs: it keeps a Sensor per open
// window on a fixed hop grid, feeds every record to all covering windows,
// and closes each window through WindowedPipeline::close_window when
// stream time passes its end.
//
// One close path: a close always seals the window's sensor and submits
// it to the serial "close" queue, where feature extraction, retraining,
// classification, telemetry and the close callback run in order.  The
// two execution modes differ only in where that queue lives:
//
//   * asynchronous (async_windows = true): on the job system the
//     pipeline's config names (WindowedPipelineConfig::jobs), or on a
//     single-worker one of the driver's own; offer() returns at once and
//     the caller keeps ingesting while the close runs on a worker.
//   * synchronous (async_windows = false): on a private job system with
//     no workers, drained right after each submit, so the close runs
//     inline in offer() — the caller stalls for the duration.
//
// Both modes emit byte-identical windows and telemetry: the close queue
// is FIFO-serial, so close work happens in the same order either way, and
// each window's WindowStats come from the window's own sealed sensor plus
// the late-drop count the drive thread hands its close job — never from
// the process-wide registry, which other windows, scrapes and checkpoints
// also write to.
//
// Resolve-ahead (carry_forward on): offer() also collects each covered
// record's querier into a batch that resolves on the close queue every
// kResolveAheadBatch records and once more just before each close is
// queued.  Reverse-name lookups thus run while the window is open, and
// its close only interns (core/feature_engine.hpp).
//
// Clocking is stream time, not wall time: windows open and close as record
// timestamps advance, so replaying a capture yields byte-identical results
// regardless of replay speed — the property the checkpoint/restart
// contract (save()/restore()) is tested against.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <iosfwd>
#include <memory>
#include <vector>

#include "analysis/pipeline.hpp"
#include "analysis/telemetry.hpp"

namespace dnsbs::analysis {

struct StreamingConfig {
  /// Window width in stream time (paper: a day or a week).
  util::SimTime window = util::SimTime::seconds(86400);
  /// Hop between window starts; 0 or == window means tumbling windows,
  /// smaller values give overlapping (sliding) windows.  Must not exceed
  /// the window width (gaps would silently drop records).
  util::SimTime hop{};
  /// Run window closes on a job-system worker (the pool
  /// WindowedPipelineConfig::jobs names) instead of inline in offer().  Output stays byte-identical (see the header comment);
  /// offer() stops stalling across window boundaries.
  /// Errors thrown by async close work surface at the next quiesce
  /// barrier (flush/save/publish_pending_metrics) instead of in offer().
  bool async_windows = false;
  /// Per-window telemetry ring size (HISTORY verb / GET /windows); 0
  /// disables retention.  Entries are recorded at window close in both
  /// modes.
  std::size_t telemetry_capacity = 256;
  /// WARN when a window's class-mix drift from the trailing baseline
  /// exceeds this total-variation distance (0..1).
  double drift_warn_threshold = 0.5;
};

/// Drives a WindowedPipeline from a record-at-a-time stream.
///
/// The pipeline must be dedicated to this driver (window numbering is
/// shared), and should be freshly constructed when restore() is used.
/// offer()/flush()/save()/restore() belong to one drive thread; in async
/// mode the close work runs on a job-system worker and every shared
/// touch point is serialized through quiesce barriers.
class StreamingWindowDriver {
 public:
  /// Invoked once per closed window, after the result is complete and its
  /// telemetry entry recorded — on the closing thread: the drive thread
  /// in sync mode, a job-system worker in async mode.  The references are
  /// valid for the duration of the call.  The daemon renders its
  /// --windows-out summary block here; the callback must not re-enter the
  /// driver.
  using WindowCloseFn =
      std::function<void(const WindowResult&, const labeling::WindowObservation&)>;

  StreamingWindowDriver(StreamingConfig config, WindowedPipeline& pipeline,
                        const netdb::AsDb& as_db, const netdb::GeoDb& geo_db,
                        const core::QuerierResolver& resolver);
  ~StreamingWindowDriver();

  /// Feeds one deduplicatable record.  Advances the stream clock to the
  /// record's time: opens every window whose start has been reached,
  /// closes (seals + enqueues) every window whose end has passed, then
  /// ingests the record into each open window covering its timestamp.
  /// A record older than every open window is counted late and dropped.
  void offer(const dns::QueryRecord& record);

  /// Closes all open windows in order (end of stream / operator flush)
  /// and quiesces, so results/telemetry for every window are complete on
  /// return.  Windows close at their natural grid ends even if the stream
  /// stopped mid-window.
  void flush();

  /// Barrier: drains the close queue.  On return no close work is
  /// running and none is queued; rethrows the first error captured by
  /// async close work.
  void quiesce();

  void set_window_close_callback(WindowCloseFn fn) { on_close_ = std::move(fn); }

  /// Serializes the full resumable state: stream clock, late-drop
  /// watermark, per-open-window sensor state (dedup + aggregates), the
  /// shared feature cache and the telemetry ring.  Quiesces first (a
  /// checkpoint taken mid-close waits for the close to land), so the
  /// image is slot-exact in either mode.  The metrics registry is not
  /// saved: it is process-cumulative, and a restarted process's counters
  /// start from zero, as Prometheus counters may.  The whole image has
  /// reached `out` (and `out` is flushed) when this returns true.
  bool save(std::ostream& out);

  /// Restores state saved by save().  Must run on a freshly constructed
  /// driver + pipeline pair (same window grid; async_windows may differ —
  /// it is an execution strategy, not part of the stream's identity)
  /// before any offer().  Returns false (state unspecified — discard the
  /// pair) on mismatch/corruption.  Reads `in` ahead in blocks, so `in`
  /// is consumed past the image afterwards.
  bool restore(std::istream& in);

  /// Drains close work and reconciles every open sensor's pending tallies
  /// into the registry.  The daemon's /metrics scrape runs this first so
  /// the served snapshot matches what an exit-time --metrics-out dump of
  /// the same stream would contain.  Window stats do not read the
  /// registry, so a scrape never changes them.
  void publish_pending_metrics();

  std::size_t open_windows() const noexcept { return windows_.size(); }
  /// Windows sealed and handed to the close path (in async mode the
  /// close work may still be in flight until the next quiesce).
  std::uint64_t windows_closed() const noexcept { return windows_closed_; }
  std::uint64_t late_records() const noexcept { return late_records_; }
  /// Stream time of the most recent record offered (start value: 0).
  util::SimTime stream_time() const noexcept { return stream_time_; }

  /// Per-window telemetry ring (empty when telemetry_capacity == 0).
  /// Written by the closing thread: in async mode, quiesce() before
  /// reading.
  const TelemetryHistory& telemetry() const noexcept { return telemetry_; }
  /// One-line JSON of the most recent `last_n` entries (0 = all) — the
  /// HISTORY verb's reply body.
  std::string history_json(std::size_t last_n = 0) const {
    return telemetry_.to_json(last_n);
  }

  /// Feeds the intake backlog watermark for the telemetry entry of the
  /// window currently accumulating; the daemon calls this from its drive
  /// thread with the TCP frames queued at each pop and with the size of
  /// each recvmmsg batch (UDP waits in the kernel's receive buffer, so its
  /// part of the watermark is the largest batch drained).  Resets at each
  /// window close.
  void note_queue_depth(std::size_t depth) noexcept {
    const auto d = static_cast<std::int64_t>(depth);
    std::int64_t cur = queue_depth_peak_.load(std::memory_order_relaxed);
    while (d > cur && !queue_depth_peak_.compare_exchange_weak(
                          cur, d, std::memory_order_relaxed)) {
    }
  }

 private:
  struct OpenWindow {
    util::SimTime start;
    std::unique_ptr<core::Sensor> sensor;
  };

  /// Offered queriers per resolve-ahead batch.
  static constexpr std::size_t kResolveAheadBatch = 1024;

  std::unique_ptr<core::Sensor> make_sensor() const;
  void open_due_windows(util::SimTime t);
  /// Queues a job on the close queue; in sync mode drains it at once, so
  /// the job has run (and any error it threw is rethrown) on return.
  void submit_close_job(std::function<void()> job);
  /// Hands the pending querier batch to the shared feature cache's
  /// resolve-ahead memo.
  void submit_resolve_ahead();
  void close_front();
  /// The close job: pipeline pass, telemetry, close callback.
  void complete_window(core::Sensor& sensor, util::SimTime start,
                       std::uint64_t late_records);
  void record_telemetry(const WindowResult& result);

  StreamingConfig config_;
  WindowedPipeline& pipeline_;
  const netdb::AsDb& as_db_;
  const netdb::GeoDb& geo_db_;
  const core::QuerierResolver& resolver_;
  /// Where close_queue_ lives: the pipeline config's shared pool or a
  /// single-worker fallback (async)
  /// or a private one with no workers (sync).
  std::shared_ptr<util::JobSystem> jobs_;
  util::JobSystem::QueueId close_queue_ = 0;
  std::deque<OpenWindow> windows_;
  /// Queriers offered since the last resolve-ahead submission.
  std::vector<net::IPv4Addr> resolve_batch_;
  bool started_ = false;
  /// Start of the next window to open (hop grid, anchored at epoch 0).
  util::SimTime next_start_{};
  util::SimTime stream_time_{};
  std::uint64_t windows_closed_ = 0;
  std::uint64_t late_records_ = 0;
  /// late_records_ at the last close: the next window's late count is
  /// measured from here.
  std::uint64_t late_at_last_close_ = 0;
  WindowCloseFn on_close_;
  TelemetryHistory telemetry_;
  std::atomic<std::int64_t> queue_depth_peak_{0};
};

}  // namespace dnsbs::analysis
