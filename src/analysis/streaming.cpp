#include "analysis/streaming.hpp"

#include <algorithm>
#include <cstring>
#include <istream>
#include <ostream>
#include <string_view>
#include <utility>

#include "util/binio.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"

namespace dnsbs::analysis {

namespace {

constexpr char kMagic[8] = {'D', 'N', 'S', 'B', 'S', 'C', 'K', 'P'};
// v2: appended the per-window telemetry history ring (PR 9).
// v3: appended the drive-side (ingest) attribution snapshot (PR 10) so a
//     restored driver keeps splitting window metric deltas exactly.
constexpr std::uint32_t kVersion = 3;

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

/// Deterministic series written on the drive (offering) side of the
/// pipeline: per-packet decode tallies, the daemon's packet counters,
/// window open/close/lateness bookkeeping, and the per-record aggregate
/// counters bumped inside Sensor::ingest().  In async mode these keep
/// advancing while a close job runs, so a window's share of them is
/// measured between close *enqueues* (where the drive thread is the only
/// writer) instead of between close-side registry snapshots.  Everything
/// else that is deterministic publishes on the close side (sensor
/// watermark reconciliation, extraction, training) in close-queue order.
bool ingest_side_series(std::string_view name) {
  return name.starts_with("dnsbs.capture.") || name == "dnsbs.serve.packets" ||
         name == "dnsbs.serve.bad_stamp" || name == "dnsbs.serve.windows_opened" ||
         name == "dnsbs.serve.windows_closed" || name == "dnsbs.serve.late_dropped" ||
         name == "dnsbs.aggregate.originators_created" ||
         name == "dnsbs.aggregate.sketch_promotions";
}

/// Overwrites the drive-side series of a close-side delta with the values
/// measured between close enqueues.  In sync mode the two agree (nothing
/// runs between seal and train), so patching is an identity there — one
/// code path serves both modes.
void apply_ingest_delta(util::MetricsSnapshot& delta,
                        const util::MetricsSnapshot& ingest_delta) {
  for (util::MetricValue& v : delta.values) {
    if (!ingest_side_series(v.name)) continue;
    if (const util::MetricValue* s = ingest_delta.find(v.name)) {
      v.count = s->count;
      v.gauge = s->gauge;
    } else {
      v.count = 0;
      v.gauge = 0;
    }
  }
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
      jobs_(pipeline.jobs()),
      ingest_boundary_(util::metrics_snapshot()),
      telemetry_(config.telemetry_capacity, config.drift_warn_threshold) {
  // 0 or out-of-range hop means tumbling windows; a hop wider than the
  // window would leave uncovered gaps in the stream.
  if (config_.hop.secs() <= 0 || config_.hop > config_.window) {
    config_.hop = config_.window;
  }
  if (config_.async_windows) close_queue_ = jobs_->queue("close");
}

StreamingWindowDriver::~StreamingWindowDriver() {
  // Queued close jobs reference this driver; they must land before the
  // members they touch go away.  Errors already surfaced (or were owed
  // to) a quiesce barrier.
  if (config_.async_windows) {
    try {
      jobs_->drain(close_queue_);
    } catch (...) {
    }
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

void StreamingWindowDriver::submit_resolve_ahead() {
  if (resolve_batch_.empty()) return;
  auto job = [this, batch = std::move(resolve_batch_)] {
    pipeline_.feature_cache()->resolve_ahead(batch, as_db_, geo_db_, resolver_);
  };
  resolve_batch_.clear();
  if (config_.async_windows) {
    jobs_->submit(close_queue_, std::move(job));
  } else {
    job();
  }
}

void StreamingWindowDriver::close_front() {
  // Everything this window ingested resolves ahead of its close job.
  submit_resolve_ahead();
  OpenWindow window = std::move(windows_.front());
  windows_.pop_front();
  // Attribution point for drive-side series: everything this thread
  // bumped since the previous close enqueue belongs to this window —
  // captured before this close's own windows_closed tick, which (like
  // the sync path always did) lands in the *next* window's delta.
  util::MetricsSnapshot now = util::metrics_snapshot();
  util::MetricsSnapshot ingest_delta =
      util::MetricsSnapshot::delta(ingest_boundary_, now);
  ingest_boundary_ = std::move(now);
  ++windows_closed_;
  g_closed.inc();

  if (config_.async_windows) {
    // Hand the sealed sensor to the serial close queue; shared_ptr only
    // because std::function requires a copyable closure.
    std::shared_ptr<core::Sensor> sensor(std::move(window.sensor));
    jobs_->submit(close_queue_,
                  [this, sensor, start = window.start,
                   delta = std::move(ingest_delta)] {
                    complete_window(*sensor, start, delta);
                  });
  } else {
    complete_window(*window.sensor, window.start, ingest_delta);
  }
}

void StreamingWindowDriver::complete_window(core::Sensor& sensor, util::SimTime start,
                                            const util::MetricsSnapshot& ingest_delta) {
  pipeline_.enqueue_sensor_window(sensor, start, start + config_.window);
  pipeline_.finish();
  WindowResult& result = pipeline_.back_result();
  apply_ingest_delta(result.metrics_delta, ingest_delta);
  if (config_.telemetry_capacity > 0) record_telemetry(result);
  if (on_close_) on_close_(result, pipeline_.observations().back());
  // Every querier memoized so far came from a record before this window's
  // end, so the window's extract interned it unless it never reached an
  // aggregate (sketch sampling): the rest of the memo is dead.
  if (const auto& cache = pipeline_.feature_cache()) cache->drop_resolved();
}

void StreamingWindowDriver::record_telemetry(const WindowResult& r) {
  const util::MetricsSnapshot& d = r.metrics_delta;

  WindowTelemetry entry;
  entry.index = r.index;
  entry.start_secs = r.start.secs();
  entry.end_secs = r.end.secs();
  entry.records = d.scalar("dnsbs.sensor.records");
  entry.interesting = d.scalar("dnsbs.sensor.interesting");
  entry.dedup_admitted = d.scalar("dnsbs.dedup.admitted");
  entry.dedup_suppressed = d.scalar("dnsbs.dedup.suppressed");
  entry.late_records = d.scalar("dnsbs.serve.late_dropped");
  entry.classified = r.classes.size();
  entry.retrained = r.retrained;
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

void StreamingWindowDriver::quiesce() {
  if (config_.async_windows) jobs_->drain(close_queue_);
  pipeline_.finish();
}

void StreamingWindowDriver::publish_pending_metrics() {
  quiesce();
  for (OpenWindow& w : windows_) w.sensor->publish_metrics();
}

bool StreamingWindowDriver::save(std::ostream& out_stream) {
  // Quiesce: land queued close work and the train chain, then reconcile
  // every open sensor's pending tallies into the registry so the snapshot
  // written below matches the published watermarks serialized with each
  // sensor.  A checkpoint requested mid-close is therefore slot-exact.
  publish_pending_metrics();

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
  pipeline_.boundary_metrics().save(out);
  ingest_boundary_.save(out);
  const util::MetricsSnapshot registry = util::metrics_snapshot();
  registry.save(out);
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
  return out.ok();
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
  util::MetricsSnapshot boundary;
  util::MetricsSnapshot ingest_boundary;
  util::MetricsSnapshot registry;
  if (!boundary.load(in) || !ingest_boundary.load(in) || !registry.load(in)) return false;
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
  // State validated: install the registry and window numbering.  The
  // registry already contains the checkpoint-time tallies; the restored
  // sensors' watermarks agree, so nothing double-publishes.
  util::metrics_restore(registry);
  pipeline_.set_boundary_metrics(std::move(boundary));
  ingest_boundary_ = std::move(ingest_boundary);
  pipeline_.set_next_window_index(windows_closed_);
  return in.ok();
}

}  // namespace dnsbs::analysis
