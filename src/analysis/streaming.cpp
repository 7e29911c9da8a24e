#include "analysis/streaming.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <utility>

#include "util/binio.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"

namespace dnsbs::analysis {

namespace {

constexpr char kMagic[8] = {'D', 'N', 'S', 'B', 'S', 'C', 'K', 'P'};
// v2: appended the per-window telemetry history ring (PR 9).
// v3: appended the drive-side (ingest) attribution snapshot.
// v4: the three registry snapshots replaced by one late-drop watermark;
//     window stats come from the window's own state, not the registry.
// v5: aggregates and feature-cache rows lost their modification stamps
//     and the cache its interval serial.
// v6: the feature cache lost its row section; it is the querier interner.
constexpr std::uint32_t kVersion = 6;

// All three are deterministic: window opens/closes and lateness are pure
// functions of the record timestamp stream.
util::MetricCounter& g_opened = util::metrics_counter("dnsbs.serve.windows_opened");
util::MetricCounter& g_closed = util::metrics_counter("dnsbs.serve.windows_closed");
util::MetricCounter& g_late = util::metrics_counter("dnsbs.serve.late_dropped");

std::int64_t floor_div(std::int64_t a, std::int64_t b) {
  std::int64_t q = a / b;
  if (a % b != 0 && ((a < 0) != (b < 0))) --q;
  return q;
}

}  // namespace

StreamingWindowDriver::StreamingWindowDriver(StreamingConfig config,
                                             WindowedPipeline& pipeline,
                                             const netdb::AsDb& as_db,
                                             const netdb::GeoDb& geo_db,
                                             const core::QuerierResolver& resolver)
    : config_(config),
      pipeline_(pipeline),
      as_db_(as_db),
      geo_db_(geo_db),
      resolver_(resolver),
      jobs_(config.async_windows ? pipeline.config().jobs : nullptr),
      telemetry_(config.telemetry_capacity, config.drift_warn_threshold) {
  // 0 or out-of-range hop means tumbling windows; a hop wider than the
  // window would leave uncovered gaps in the stream.
  if (config_.hop.secs() <= 0 || config_.hop > config_.window) {
    config_.hop = config_.window;
  }
  // Sync mode runs the close queue on a private pool with no workers;
  // async mode falls back to a single worker when the pipeline names no
  // shared pool.
  if (!jobs_) {
    jobs_ = std::make_shared<util::JobSystem>(util::JobSystemConfig{
        .threads = config_.async_windows ? std::size_t{1} : std::size_t{0},
        .metric_prefix = {}});
  }
  close_queue_ = jobs_->queue("close");
}

StreamingWindowDriver::~StreamingWindowDriver() {
  // Queued close jobs reference this driver; they must land before the
  // members they touch go away.  Errors already surfaced (or were owed
  // to) a quiesce barrier.
  try {
    jobs_->drain(close_queue_);
  } catch (...) {
  }
}

std::unique_ptr<core::Sensor> StreamingWindowDriver::make_sensor() const {
  auto sensor = std::make_unique<core::Sensor>(pipeline_.config().sensor, as_db_, geo_db_,
                                               resolver_);
  if (pipeline_.feature_cache()) sensor->set_feature_cache(pipeline_.feature_cache());
  return sensor;
}

void StreamingWindowDriver::open_due_windows(util::SimTime t) {
  while (next_start_ <= t) {
    windows_.push_back(OpenWindow{next_start_, make_sensor()});
    g_opened.inc();
    next_start_ += config_.hop;
  }
}

void StreamingWindowDriver::submit_close_job(std::function<void()> job) {
  jobs_->submit(close_queue_, std::move(job));
  if (!config_.async_windows) jobs_->drain(close_queue_);
}

void StreamingWindowDriver::submit_resolve_ahead() {
  if (resolve_batch_.empty()) return;
  submit_close_job([this, batch = std::move(resolve_batch_)] {
    pipeline_.feature_cache()->resolve_ahead(batch, as_db_, geo_db_, resolver_);
  });
  resolve_batch_.clear();
}

void StreamingWindowDriver::close_front() {
  // Everything this window ingested resolves ahead of its close job.
  submit_resolve_ahead();
  OpenWindow window = std::move(windows_.front());
  windows_.pop_front();
  // Late drops since the previous close belong to this window.
  const std::uint64_t late = late_records_ - late_at_last_close_;
  late_at_last_close_ = late_records_;
  ++windows_closed_;
  g_closed.inc();
  // Hand the sealed sensor to the serial close queue; shared_ptr only
  // because std::function requires a copyable closure.
  std::shared_ptr<core::Sensor> sensor(std::move(window.sensor));
  submit_close_job([this, sensor, start = window.start, late] {
    complete_window(*sensor, start, late);
  });
}

void StreamingWindowDriver::complete_window(core::Sensor& sensor, util::SimTime start,
                                            std::uint64_t late_records) {
  const WindowResult& result =
      pipeline_.close_window(sensor, start, start + config_.window, late_records);
  if (config_.telemetry_capacity > 0) record_telemetry(result);
  if (on_close_) on_close_(result, pipeline_.observations().back());
  // Every querier memoized so far came from a record before this window's
  // end, so the window's extract interned it unless it never reached an
  // aggregate (sketch sampling): the rest of the memo is dead.
  if (const auto& cache = pipeline_.feature_cache()) cache->drop_resolved();
}

void StreamingWindowDriver::record_telemetry(const WindowResult& r) {
  WindowTelemetry entry;
  entry.index = r.index;
  entry.start_secs = r.start.secs();
  entry.end_secs = r.end.secs();
  entry.stats = r.stats;
  entry.confidence_hist = r.confidence_hist;
  for (const auto& [addr, cls] : r.classes) {
    const auto i = static_cast<std::size_t>(cls);
    if (i < entry.class_counts.size()) ++entry.class_counts[i];
  }
  entry.queue_depth_peak = queue_depth_peak_.exchange(0, std::memory_order_relaxed);

  const WindowTelemetry& stored = telemetry_.record(std::move(entry));
  if (stored.drift_warned) {
    util::log_warn(
        "telemetry",
        util::format("window %llu class-mix drift %.3f exceeds %.3f vs trailing baseline",
                     static_cast<unsigned long long>(stored.index), stored.drift,
                     config_.drift_warn_threshold));
  }
}

void StreamingWindowDriver::offer(const dns::QueryRecord& record) {
  const util::SimTime t = record.time;
  if (!started_) {
    started_ = true;
    // Anchor the hop grid at epoch 0 so window boundaries are absolute —
    // independent of when the capture happened to start.
    next_start_ =
        util::SimTime::seconds(floor_div(t.secs(), config_.hop.secs()) * config_.hop.secs());
  }
  stream_time_ = std::max(stream_time_, t);
  // Open every window whose start the clock has reached, then close every
  // window whose end has passed — in start order, so a traffic gap larger
  // than a window still emits its (empty) windows in sequence.
  open_due_windows(t);
  while (!windows_.empty() && windows_.front().start + config_.window <= t) close_front();

  bool covered = false;
  for (OpenWindow& w : windows_) {
    if (w.start <= t && t < w.start + config_.window) {
      w.sensor->ingest(record);
      covered = true;
    }
  }
  // A record no open window covers arrived out of order, after its windows
  // already closed (the forward path always has at least one cover).
  if (!covered) {
    ++late_records_;
    g_late.inc();
  } else if (pipeline_.feature_cache()) {
    resolve_batch_.push_back(record.querier);
    if (resolve_batch_.size() >= kResolveAheadBatch) submit_resolve_ahead();
  }
}

void StreamingWindowDriver::flush() {
  while (!windows_.empty()) close_front();
  // Flush promises complete results: every sealed window has landed.
  quiesce();
}

void StreamingWindowDriver::quiesce() { jobs_->drain(close_queue_); }

void StreamingWindowDriver::publish_pending_metrics() {
  quiesce();
  for (OpenWindow& w : windows_) w.sensor->publish_metrics();
}

bool StreamingWindowDriver::save(std::ostream& out_stream) {
  // Land queued close work first: a checkpoint requested mid-close is
  // therefore slot-exact.
  quiesce();

  util::BinaryWriter out(out_stream);
  out.bytes(kMagic, sizeof(kMagic));
  out.u32(kVersion);
  out.i64(config_.window.secs());
  out.i64(config_.hop.secs());
  out.u8(started_ ? 1 : 0);
  out.i64(next_start_.secs());
  out.i64(stream_time_.secs());
  out.u64(windows_closed_);
  out.u64(late_records_);
  out.u64(late_at_last_close_);
  const auto& cache = pipeline_.feature_cache();
  out.u8(cache ? 1 : 0);
  if (cache) cache->save(out);
  out.u64(windows_.size());
  for (const OpenWindow& w : windows_) {
    out.i64(w.start.secs());
    w.sensor->save_state(out);
  }
  // Full-fidelity telemetry history (including sched fields): a restored
  // daemon must answer HISTORY exactly as the checkpointed one would.
  telemetry_.save(out);
  out.i64(queue_depth_peak_.load(std::memory_order_relaxed));
  return out.finish();
}

bool StreamingWindowDriver::restore(std::istream& in_stream) {
  util::BinaryReader in(in_stream);
  char magic[8] = {};
  if (!in.bytes(magic, sizeof(magic)) || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    return false;
  }
  if (in.u32() != kVersion) return false;
  if (in.i64() != config_.window.secs() || in.i64() != config_.hop.secs()) return false;
  started_ = in.u8() != 0;
  next_start_ = util::SimTime::seconds(in.i64());
  stream_time_ = util::SimTime::seconds(in.i64());
  windows_closed_ = in.u64();
  late_records_ = in.u64();
  late_at_last_close_ = in.u64();
  if (late_at_last_close_ > late_records_) return false;
  const bool has_cache = in.u8() != 0;
  if (!in.ok() || has_cache != (pipeline_.feature_cache() != nullptr)) return false;
  if (has_cache && !pipeline_.feature_cache()->load(in)) return false;
  const std::uint64_t open = in.u64();
  if (!in.ok() || open > (std::uint64_t{1} << 20)) return false;
  windows_.clear();
  for (std::uint64_t i = 0; i < open; ++i) {
    OpenWindow w{util::SimTime::seconds(in.i64()), make_sensor()};
    if (!in.ok() || !w.sensor->load_state(in)) return false;
    windows_.push_back(std::move(w));
  }
  if (!telemetry_.load(in)) return false;
  queue_depth_peak_.store(in.i64(), std::memory_order_relaxed);
  if (!in.ok()) return false;
  pipeline_.set_next_window_index(windows_closed_);
  return true;
}

}  // namespace dnsbs::analysis
