#include "serve/daemon.hpp"

#include <poll.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "core/feature_vector.hpp"
#include "dns/capture.hpp"
#include "net/http.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace dnsbs::serve {

namespace {

// Socket-side and operational tallies depend on kernel scheduling and on
// where restarts land, so they are sched series.  packets/bad_stamp count
// the drive thread's in-order processing — pure functions of the stream —
// and stay in the deterministic view.
util::MetricCounter& g_udp =
    util::metrics_counter("dnsbs.serve.udp_datagrams", /*sched=*/true);
util::MetricCounter& g_frames =
    util::metrics_counter("dnsbs.serve.tcp_frames", /*sched=*/true);
util::MetricCounter& g_dropped =
    util::metrics_counter("dnsbs.serve.queue_dropped", /*sched=*/true);
util::MetricCounter& g_checkpoints =
    util::metrics_counter("dnsbs.serve.checkpoints", /*sched=*/true);
// A checkpoint holds the drive thread for its whole save.
util::MetricHistogram& g_checkpoint_ns = util::metrics_histogram("dnsbs.serve.checkpoint_ns");
util::MetricGauge& g_checkpoint_bytes =
    util::metrics_gauge("dnsbs.serve.checkpoint_bytes", /*sched=*/true);
util::MetricCounter& g_control =
    util::metrics_counter("dnsbs.serve.control_requests", /*sched=*/true);
util::MetricCounter& g_packets = util::metrics_counter("dnsbs.serve.packets");
util::MetricCounter& g_bad_stamp = util::metrics_counter("dnsbs.serve.bad_stamp");

constexpr std::size_t kStampHeader = 12;  // 8B LE seconds + 4B LE querier
constexpr std::size_t kTcpBatchesPerRound = 256;
constexpr int kPollMs = 100;

std::uint64_t read_le64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(p[i]) << (8 * i);
  return v;
}

std::uint32_t read_le32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(p[i]) << (8 * i);
  return v;
}

std::string hex_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%a", v);
  return buf;
}

// Trace deadlines use the steady clock directly (not the metrics clock) so
// TRACE keeps working in a -DDNSBS_METRICS=OFF build, where it produces a
// valid-but-empty capture.
std::uint64_t steady_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

constexpr std::string_view kTextPlain = "text/plain; charset=utf-8";

std::size_t frame_length(const std::uint8_t* p) {
  return (static_cast<std::size_t>(p[0]) << 8) | p[1];
}

}  // namespace

/// A fixed set of receive buffers carved from one allocation.  The tcp
/// thread acquires one, fills it, and queues it; the drive thread's drop
/// of the batch releases it.  A connection therefore never has more than
/// kTcpRingBuffers buffers of bytes in flight, and steady state allocates
/// nothing.
class ServeDaemon::TcpRing {
 public:
  TcpRing()
      : storage_(std::make_unique_for_overwrite<std::uint8_t[]>(kTcpRingBuffers *
                                                                kTcpBufferBytes)) {}

  /// Waits for a free buffer; null once `stop` is set.
  std::uint8_t* acquire(const std::atomic<bool>& stop) {
    std::unique_lock<std::mutex> lock(mutex_);
    while (free_ == 0) {
      if (stop.load()) return nullptr;
      released_.wait_for(lock, std::chrono::milliseconds(kPollMs));
    }
    const int slot = std::countr_zero(free_);
    free_ &= ~(1u << slot);
    return storage_.get() + static_cast<std::size_t>(slot) * kTcpBufferBytes;
  }

  void release(const std::uint8_t* buffer) {
    const auto slot = static_cast<unsigned>((buffer - storage_.get()) / kTcpBufferBytes);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      free_ |= 1u << slot;
    }
    released_.notify_one();
  }

 private:
  std::unique_ptr<std::uint8_t[]> storage_;
  std::mutex mutex_;
  std::condition_variable released_;
  unsigned free_ = (1u << kTcpRingBuffers) - 1;
};

void ServeDaemon::BufferRelease::operator()(std::uint8_t* buffer) const {
  ring->release(buffer);
}

ServeDaemon::ServeDaemon(ServeConfig config, const netdb::AsDb& as_db,
                         const netdb::GeoDb& geo_db, const core::QuerierResolver& resolver)
    : config_(std::move(config)),
      as_db_(as_db),
      geo_db_(geo_db),
      resolver_(resolver),
      jobs_(std::make_shared<util::JobSystem>(util::JobSystemConfig{
          .threads = config_.job_threads, .metric_prefix = "dnsbs.serve.jobs"})),
      queue_(config_.queue_capacity) {
  // One pool, two serial queues: the driver registers "close" (async
  // mode), the daemon "export".
  config_.pipeline.jobs = jobs_;
  export_queue_ = jobs_->queue("export");
  pipeline_ = std::make_unique<analysis::WindowedPipeline>(config_.pipeline, as_db_,
                                                           geo_db_, resolver_);
  driver_ = std::make_unique<analysis::StreamingWindowDriver>(
      config_.streaming, *pipeline_, as_db_, geo_db_, resolver_);
  driver_->set_window_close_callback(
      [this](const analysis::WindowResult& r, const labeling::WindowObservation& obs) {
        on_window_close(r, obs);
      });
}

ServeDaemon::~ServeDaemon() {
  request_stop();
  wait();
}

bool ServeDaemon::start(std::string& error) {
  if (started_) {
    error = "daemon already started";
    return false;
  }
  if (!wake_.valid()) {
    error = "eventfd failed";
    return false;
  }
  if (!udp_.bind(config_.bind, config_.udp_port)) {
    error = "udp bind: " + udp_.last_error();
    return false;
  }
  if (config_.tcp && !tcp_listener_.listen(config_.bind, config_.tcp_port)) {
    error = "tcp listen: " + tcp_listener_.last_error();
    return false;
  }
  if (!status_listener_.listen(config_.bind, config_.status_port)) {
    error = "status listen: " + status_listener_.last_error();
    return false;
  }

  if (config_.restore) {
    const std::uint64_t t0 = steady_now_ns();
    std::ifstream in(config_.checkpoint_path, std::ios::binary);
    std::error_code size_error;
    const std::uintmax_t bytes = std::filesystem::file_size(config_.checkpoint_path, size_error);
    if (!in || !driver_->restore(in)) {
      error = "checkpoint restore failed: " + config_.checkpoint_path;
      return false;
    }
    util::log_info("serve",
                   util::format("restored checkpoint %s (%ju bytes, %.1f ms): %llu windows "
                                "closed, %zu open, stream_time=%lld",
                                config_.checkpoint_path.c_str(),
                                size_error ? std::uintmax_t{0} : bytes,
                                static_cast<double>(steady_now_ns() - t0) / 1e6,
                                static_cast<unsigned long long>(driver_->windows_closed()),
                                driver_->open_windows(),
                                static_cast<long long>(driver_->stream_time().secs())));
  }
  if (config_.checkpoint_every_secs > 0) {
    next_cadence_checkpoint_ = driver_->stream_time().secs() + config_.checkpoint_every_secs;
  }

  if (!config_.ready_file.empty()) {
    std::ofstream ready(config_.ready_file, std::ios::trunc);
    ready << "udp=" << udp_port() << " tcp=" << tcp_port() << " status=" << status_port()
          << "\n";
  }
  util::log_info("serve",
                 util::format("listening udp=%u tcp=%u status=%u stamped=%s "
                              "udp_rcvbuf_bytes=%zu",
                              static_cast<unsigned>(udp_port()),
                              static_cast<unsigned>(tcp_port()),
                              static_cast<unsigned>(status_port()),
                              config_.stamped ? "yes" : "no", udp_.receive_buffer_bytes()));

  started_ = true;
  if (config_.tcp) tcp_thread_ = std::thread([this] { tcp_loop(); });
  status_thread_ = std::thread([this] { status_loop(); });
  drive_thread_ = std::thread([this] { drive_loop(); });
  return true;
}

void ServeDaemon::request_stop() {
  stop_.store(true);
  queue_.close();
  wake_.signal();
}

void ServeDaemon::wait() {
  for (std::thread* t : {&tcp_thread_, &status_thread_, &drive_thread_}) {
    if (t->joinable()) t->join();
  }
}

void ServeDaemon::tcp_loop() {
  while (!stop_.load()) {
    if (!tcp_listener_.pending(kPollMs)) continue;
    // Counted before accept() takes the connection off the backlog, and
    // drain_intake looks at the backlog before this count, so a
    // connection is never in neither place.
    tcp_active_.fetch_add(1);
    if (auto stream = tcp_listener_.accept(0)) serve_tcp_connection(std::move(*stream));
    tcp_active_.fetch_sub(1);
  }
}

void ServeDaemon::serve_tcp_connection(net::TcpStream stream) {
  // Length-prefixed frames: u16 big-endian payload size, then the payload
  // (same framing as DNS-over-TCP, RFC 1035 §4.2.2).  Each recv lands in
  // the current ring buffer; its complete frames go to the drive thread
  // as one batch and the unfinished tail moves to the front of the next
  // buffer.  Blocking push and a bounded ring: a slow drive thread stalls
  // the peer instead of dropping — replay is lossless.  EOF or 5 s of
  // silence loses only an unfinished frame.
  const auto ring = std::make_shared<TcpRing>();
  const auto next_buffer = [&] { return TcpBuffer(ring->acquire(stop_), BufferRelease{ring}); };
  TcpBuffer buffer = next_buffer();
  std::size_t filled = 0;
  while (buffer && !stop_.load()) {
    std::uint8_t* data = buffer.get();
    const auto n = stream.read_some(data + filled, kTcpBufferBytes - filled, kPollMs * 50);
    if (!n || *n == 0) return;  // idle peer / EOF
    filled += *n;
    std::size_t end = 0;
    std::size_t frames = 0;
    while (end + 2 <= filled) {
      const std::size_t next = end + 2 + frame_length(data + end);
      if (next > filled) break;
      end = next;
      ++frames;
    }
    // A buffer holds one largest frame plus one read, so a buffer without
    // a complete frame always has room left to read into.
    if (frames == 0) continue;
    g_frames.add(frames);
    IntakeBatch batch;
    batch.buffer = std::move(buffer);
    batch.frame_bytes = end;
    batch.frames = frames;
    batch.wall_secs = static_cast<std::int64_t>(::time(nullptr));
    queued_frames_.fetch_add(frames);
    if (!queue_.push(std::move(batch))) {
      queued_frames_.fetch_sub(frames);
      return;
    }
    wake_.signal();
    // The drive thread reads only [0, end) of the queued buffer, so the
    // tail stays ours to copy; the next buffer may be that same one, once
    // it has been handed back.
    buffer = next_buffer();
    filled -= end;
    if (buffer) std::memmove(buffer.get(), data + end, filled);
  }
}

void ServeDaemon::status_loop() {
  while (!stop_.load()) {
    auto stream = status_listener_.accept(kPollMs);
    if (!stream) continue;
    // The first line picks the protocol: an HTTP request line flips the
    // connection into one-shot HTTP mode; anything else is the line
    // protocol, one command per line until the peer hangs up.
    bool first = true;
    while (!stop_.load()) {
      auto line = stream->read_line(kPollMs * 50);
      if (!line) break;
      g_control.inc();
      if (first && net::looks_like_http_request(*line)) {
        handle_http(*stream, *line);
        break;
      }
      first = false;
      auto reply = submit_control(*line);
      const std::string answer = reply.get() + "\n";
      if (!stream->write_all(answer.data(), answer.size())) break;
      if (*line == "SHUTDOWN") break;
    }
  }
}

std::future<std::string> ServeDaemon::submit_control(std::string command) {
  auto request = std::make_unique<ControlRequest>();
  request->command = std::move(command);
  auto reply = request->reply.get_future();
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    control_requests_.push_back(std::move(request));
  }
  wake_.signal();
  return reply;
}

void ServeDaemon::handle_http(net::TcpStream& stream, const std::string& request_line) {
  const auto finish = [&stream](int status, std::string_view type, std::string_view body) {
    const std::string response = net::http_response(status, type, body);
    stream.write_all(response.data(), response.size());
  };
  const auto request = net::read_http_request(stream, request_line, kPollMs * 50);
  if (!request) {
    finish(400, kTextPlain, "malformed request\n");
    return;
  }
  if (request->method != "GET") {
    finish(405, kTextPlain, "only GET is supported\n");
    return;
  }
  // Every route funnels through the drive thread, so the served bytes see
  // the same quiesced registry/history a checkpoint of this instant would.
  // The lowercase http.metrics verb is unreachable via `dnsbs_cli ctl`
  // (which uppercases its command), keeping the line protocol's namespace
  // clean.
  std::string verb;
  if (request->path == "/metrics") {
    verb = "http.metrics";
  } else if (request->path == "/healthz") {
    verb = "PING";
  } else if (request->path == "/windows") {
    verb = "HISTORY";
    if (const auto n = net::query_param(request->query, "n")) verb += " " + *n;
  } else {
    finish(404, kTextPlain, "not found\n");
    return;
  }
  auto reply = submit_control(std::move(verb));
  // Bounded wait: a wedged drive thread yields 503, not a hung scrape.
  if (reply.wait_for(std::chrono::seconds(30)) != std::future_status::ready) {
    finish(503, kTextPlain, "drive thread unresponsive\n");
    return;
  }
  const std::string body = reply.get();
  if (request->path == "/healthz") {
    finish(200, kTextPlain, "ok\n");
  } else if (request->path == "/windows") {
    if (body.rfind("ERR", 0) == 0) {
      finish(400, kTextPlain, body + "\n");
    } else {
      finish(200, "application/json; charset=utf-8", body + "\n");
    }
  } else {
    finish(200, "text/plain; version=0.0.4; charset=utf-8", body);
  }
}

void ServeDaemon::drive_loop() {
  while (true) {
    service_control();
    if (trace_active_ && steady_now_ns() >= trace_deadline_ns_) finish_trace();
    if (stop_.load()) break;
    const std::size_t n = pump_intake(50);
    if (n > 0 && config_.checkpoint_every_secs > 0 && !config_.checkpoint_path.empty() &&
        driver_->stream_time().secs() >= next_cadence_checkpoint_) {
      std::string why;
      if (!write_checkpoint(why)) {
        util::log_warn("serve", util::format("cadence checkpoint failed: %s",
                                             why.c_str()));
      }
      next_cadence_checkpoint_ =
          driver_->stream_time().secs() + config_.checkpoint_every_secs;
    }
  }
  // A capture cut short by SHUTDOWN still produces a loadable file.
  if (trace_active_) finish_trace();
  // SHUTDOWN barrier: land queued close work, summary appends and trace
  // dumps before the drive thread exits — wait() returning means every
  // file the daemon owed is on disk.  Open windows are NOT flushed (they
  // stay resumable from the last checkpoint).
  quiesce_pipeline();
  // Answer any control request that raced the stop flag so no client
  // blocks on a dead promise.
  service_control();
}

void ServeDaemon::quiesce_pipeline() {
  driver_->quiesce();
  jobs_->drain(export_queue_);
}

void ServeDaemon::finish_trace() {
  trace_active_ = false;
  util::trace_stop();
  // Serialization + file write ride the export queue: a large capture can
  // take a while to render and the drive thread should go straight back to
  // intake.  The buffer is stable until the next trace_start(), and the
  // TRACE verb drains this queue before restarting a capture.
  jobs_->submit(export_queue_, [this] {
    const std::string json = util::trace_export_json();
    std::ofstream out(config_.trace_out, std::ios::trunc);
    out << json;
    out.flush();
    if (!out) {
      util::log_warn("serve",
                     util::format("trace write failed: %s", config_.trace_out.c_str()));
      return;
    }
    util::log_info("serve",
                   util::format("trace written: %s (%zu events, %llu dropped)",
                                config_.trace_out.c_str(), util::trace_event_count(),
                                static_cast<unsigned long long>(util::trace_dropped())));
  });
}

std::size_t ServeDaemon::pump_intake(int timeout_ms) {
  pollfd fds[2] = {{udp_.fd(), POLLIN, 0}, {wake_.fd(), POLLIN, 0}};
  if (::poll(fds, 2, intake_backlog_ ? 0 : timeout_ms) > 0 &&
      (fds[1].revents & POLLIN) != 0) {
    // Cleared before the pop: a batch queued after it signals afresh.
    wake_.clear();
  }
  const std::size_t tcp = pump_tcp();
  const std::size_t udp = (fds[0].revents & POLLIN) != 0 ? pump_udp() : 0;
  intake_backlog_ = tcp == kTcpBatchesPerRound || udp == kUdpSlabSlots;
  return tcp + udp;
}

std::size_t ServeDaemon::pump_tcp() {
  const std::size_t n = queue_.pop_batch(batch_, kTcpBatchesPerRound, 0);
  if (n == 0) return 0;
  std::size_t frames = 0;
  for (const IntakeBatch& b : batch_) frames += b.frames;
  // Intake backlog watermark, in frames: what was just popped plus what
  // is still queued behind it.
  driver_->note_queue_depth(queued_frames_.load());
  for (const IntakeBatch& b : batch_) process_batch(b);
  queued_frames_.fetch_sub(frames);
  batch_.clear();  // hands the TCP buffers back to their rings
  return n;
}

std::size_t ServeDaemon::pump_udp() {
  const std::size_t n = udp_.recv_batch(udp_slab_);
  if (n == 0) return 0;
  g_udp.add(n);
  count_udp_drops();
  // UDP's part of the backlog watermark: the datagrams this round drained.
  driver_->note_queue_depth(n);
  const auto wall_secs = static_cast<std::int64_t>(::time(nullptr));
  for (std::size_t i = 0; i < n; ++i) {
    process_packet(udp_slab_.datagram(i), wall_secs, udp_slab_.source(i));
  }
  return n;
}

void ServeDaemon::count_udp_drops() {
  const std::uint32_t drops = udp_.kernel_drops();
  if (drops != udp_drops_counted_) {
    g_dropped.add(drops - udp_drops_counted_);  // modulo 2^32, as the kernel counts
    udp_drops_counted_ = drops;
  }
}

void ServeDaemon::process_batch(const IntakeBatch& batch) {
  const std::uint8_t* data = batch.buffer.get();
  for (std::size_t at = 0; at < batch.frame_bytes;) {
    const std::size_t len = frame_length(data + at);
    process_packet({data + at + 2, len}, batch.wall_secs, net::IPv4Addr());
    at += 2 + len;
  }
}

void ServeDaemon::process_packet(std::span<const std::uint8_t> payload,
                                 std::int64_t wall_secs, net::IPv4Addr source) {
  g_packets.inc();
  util::SimTime time = util::SimTime::seconds(wall_secs);
  net::IPv4Addr querier = source;
  if (config_.stamped) {
    if (payload.size() < kStampHeader) {
      g_bad_stamp.inc();
      return;
    }
    time = util::SimTime::seconds(static_cast<std::int64_t>(read_le64(payload.data())));
    querier = net::IPv4Addr(read_le32(payload.data() + 8));
    payload = payload.subspan(kStampHeader);
  }
  const auto record = dns::record_from_packet(payload, time, querier, capture_stats_);
  if (record) driver_->offer(*record);
}

void ServeDaemon::service_control() {
  std::vector<std::unique_ptr<ControlRequest>> pending;
  {
    std::lock_guard<std::mutex> lock(control_mutex_);
    pending.swap(control_requests_);
  }
  for (auto& request : pending) {
    request->reply.set_value(handle_control(request->command));
  }
}

std::string ServeDaemon::handle_control(const std::string& command) {
  if (command == "PING") return "PONG";
  if (command == "STATS") {
    // Barrier so windows_closed/history/queue stats describe a settled
    // pipeline, not one mid-close.
    quiesce_pipeline();
    udp_.refresh_kernel_drops();
    count_udp_drops();
    return stats_json();
  }
  if (command == "HISTORY" || command.rfind("HISTORY ", 0) == 0) {
    std::uint64_t last_n = 0;
    if (command.size() > 8 && !util::parse_u64(command.substr(8), last_n)) {
      return "ERR bad HISTORY count: " + command.substr(8);
    }
    // The telemetry ring is written by the closing thread; quiesce before
    // reading it.
    driver_->quiesce();
    return driver_->history_json(static_cast<std::size_t>(last_n));
  }
  if (command == "TRACE" || command.rfind("TRACE ", 0) == 0) {
    if (config_.trace_out.empty()) return "ERR no --trace-out configured";
    std::uint64_t secs = 5;
    if (command.size() > 6 &&
        (!util::parse_u64(command.substr(6), secs) || secs == 0 || secs > 3600)) {
      return "ERR bad TRACE seconds (want 1..3600): " + command.substr(6);
    }
    // A queued dump job reads the trace buffer trace_start() would reset;
    // let it land first.
    jobs_->drain(export_queue_);
    util::trace_start();  // restarts (and discards) any capture in flight
    trace_active_ = true;
    trace_deadline_ns_ = steady_now_ns() + secs * 1'000'000'000ull;
    return util::format("OK tracing %llus -> %s",
                        static_cast<unsigned long long>(secs),
                        config_.trace_out.c_str());
  }
  if (command == "http.metrics") {
    // Same quiesce as a checkpoint (publish_pending_metrics drains close +
    // train), so the scraped deterministic series are byte-identical to an
    // exit-time --metrics-out dump of the same stream.
    driver_->publish_pending_metrics();
    udp_.refresh_kernel_drops();
    count_udp_drops();
    return util::metrics_snapshot().to_prometheus();
  }
  if (command == "FLUSH") {
    drain_intake();
    driver_->flush();
    // flush() quiesced the close path; land the summary appends it queued.
    jobs_->drain(export_queue_);
    return "OK flushed";
  }
  if (command == "CHECKPOINT") {
    drain_intake();
    std::string why;
    if (!write_checkpoint(why)) return "ERR " + why;
    return "OK " + config_.checkpoint_path;
  }
  if (command == "SHUTDOWN") {
    // Stop WITHOUT flushing: open windows stay resumable from the last
    // checkpoint (flushing here would emit windows the restarted process
    // would then emit again).
    request_stop();
    return "OK shutting down";
  }
  return "ERR unknown command: " + command;
}

void ServeDaemon::drain_intake() {
  // Quiesce the intake path so the checkpoint captures every record the
  // senders consider delivered: keep processing while an intake
  // connection is waiting or open, the queue is non-empty or a datagram
  // is queued on the UDP socket, and return at once when none holds.
  // Bounded patience (5 s of silence) so a stuck peer cannot wedge the
  // control socket.
  int idle_rounds = 0;
  while (idle_rounds < 100) {
    if (!tcp_listener_.pending(0) && tcp_active_.load() == 0 && queue_.size() == 0 &&
        !udp_.pending(0)) {
      break;
    }
    if (pump_intake(50) > 0) {
      idle_rounds = 0;
    } else {
      ++idle_rounds;
    }
  }
}

bool ServeDaemon::write_checkpoint(std::string& why) {
  if (config_.checkpoint_path.empty()) {
    why = "no checkpoint path configured";
    return false;
  }
  // A restore assumes summaries for every closed window are already on
  // disk (numbering resumes at windows_closed); make that true before
  // the checkpoint can land.  driver_->save() below quiesces close+train.
  const std::uint64_t t0 = steady_now_ns();
  quiesce_pipeline();
  const std::string tmp = config_.checkpoint_path + ".tmp";
  std::int64_t bytes = 0;
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out || !driver_->save(out)) {
      why = "write failed: " + tmp;
      return false;
    }
    bytes = static_cast<std::int64_t>(out.tellp());
  }
  if (std::rename(tmp.c_str(), config_.checkpoint_path.c_str()) != 0) {
    why = "rename failed: " + config_.checkpoint_path;
    return false;
  }
  const std::uint64_t elapsed_ns = steady_now_ns() - t0;
  g_checkpoints.inc();
  g_checkpoint_ns.record(elapsed_ns);
  g_checkpoint_bytes.set(bytes);
  util::log_info("serve",
                 util::format("checkpoint written: %s (%lld bytes, %.1f ms, stream_time=%lld)",
                              config_.checkpoint_path.c_str(), static_cast<long long>(bytes),
                              static_cast<double>(elapsed_ns) / 1e6,
                              static_cast<long long>(driver_->stream_time().secs())));
  return true;
}

std::string ServeDaemon::stats_json() const {
  // The control protocol is one line per reply, so the metrics dump (whose
  // serializer pretty-prints) must be flattened before it ships.
  std::string metrics = util::metrics_snapshot().to_json();
  std::erase(metrics, '\n');
  std::ostringstream out;
  out << "{\"stream_time\":" << driver_->stream_time().secs()
      << ",\"open_windows\":" << driver_->open_windows()
      << ",\"windows_closed\":" << driver_->windows_closed()
      << ",\"late_records\":" << driver_->late_records()
      << ",\"history_windows\":" << driver_->telemetry().size()
      << ",\"queue_depth\":" << queued_frames_.load()
      << ",\"udp_rcvbuf_bytes\":" << udp_.receive_buffer_bytes() << ",\"capture\":{\"packets\":"
      << capture_stats_.packets << ",\"accepted\":" << capture_stats_.accepted
      << ",\"malformed\":" << capture_stats_.malformed
      << ",\"responses\":" << capture_stats_.responses
      << ",\"rejected_query\":" << capture_stats_.rejected_query
      << ",\"non_ptr\":" << capture_stats_.non_ptr
      << ",\"non_reverse_name\":" << capture_stats_.non_reverse_name << "},\"jobs\":[";
  const auto jobs = jobs_->stats();
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const auto& q = jobs[i];
    out << (i ? "," : "") << "{\"queue\":\"" << q.name << "\",\"depth\":" << q.depth
        << ",\"submitted\":" << q.submitted << ",\"completed\":" << q.completed
        << ",\"depth_peak\":" << q.depth_peak << "}";
  }
  out << "],\"metrics\":" << metrics << "}";
  return out.str();
}

std::string render_window_summary(const analysis::WindowResult& r,
                                  const labeling::WindowObservation& observation) {
  std::ostringstream out;
  out << "window " << r.index << " start=" << r.start.secs() << " end=" << r.end.secs()
      << "\n";
  const auto& features = observation.features;
  out << "features " << features.size() << "\n";
  for (const core::FeatureVector& fv : features) {
    out << "row " << fv.originator.to_string() << " footprint=" << fv.footprint;
    for (const double v : fv.statics) out << ' ' << hex_double(v);
    for (const double v : fv.dynamics) out << ' ' << hex_double(v);
    out << "\n";
  }
  // unordered_map iteration order is not deterministic; sort by address.
  std::vector<std::pair<net::IPv4Addr, core::AppClass>> classes(r.classes.begin(),
                                                                r.classes.end());
  std::sort(classes.begin(), classes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out << "classes " << classes.size() << "\n";
  const auto& names = core::app_class_names();
  for (const auto& [addr, cls] : classes) {
    const auto footprint = r.footprints.find(addr);
    out << "class " << addr.to_string() << ' ' << names[static_cast<std::size_t>(cls)]
        << " footprint=" << (footprint != r.footprints.end() ? footprint->second : 0)
        << "\n";
  }
  const auto series = r.stats.series();
  out << "metrics " << series.size() << "\n";
  for (const auto& [name, value] : series) out << "metric " << name << '=' << value << "\n";
  out << "end\n";
  return out.str();
}

void ServeDaemon::on_window_close(const analysis::WindowResult& result,
                                  const labeling::WindowObservation& observation) {
  if (config_.windows_out.empty()) return;
  // Rendering (hexfloat formatting dominates) runs here, on the closing
  // thread: a close-queue worker in async mode, off the intake path.
  std::string block = render_window_summary(result, observation);
  // File appends ride the serial export queue.  Blocks leave the (also
  // serial) close queue in window order, and a restore resumes numbering
  // where the previous incarnation's windows_out stopped, so appends land
  // in window order.
  jobs_->submit(export_queue_, [this, block = std::move(block)] { append_summary(block); });
  // Sync mode: the summary is on disk before offer() returns.
  if (!config_.streaming.async_windows) jobs_->drain(export_queue_);
}

void ServeDaemon::append_summary(const std::string& block) {
  std::ofstream out(config_.windows_out, std::ios::app);
  out << block;
}

}  // namespace dnsbs::serve
