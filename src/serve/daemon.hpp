// The dnsbs_serve daemon: live DNS backscatter intake over real sockets.
//
// Layout (one process, three threads):
//
//   tcp thread    accept(); one recv at a time into the connection's ring
//                 of 4 receive buffers; every complete length-prefixed
//                 frame in a buffer rides one IntakeBatch (blocking push,
//                 lossless) and signals the drive thread's eventfd; an
//                 unfinished frame carries over to the next buffer
//   status thread accept(); line commands (STATS/HISTORY/TRACE/CHECKPOINT/
//                 FLUSH/SHUTDOWN/PING) forwarded to the drive thread, whose
//                 eventfd they signal; reply written back.  The same socket
//                 answers HTTP/1.1 GETs (/metrics, /healthz, /windows): the
//                 first line of a connection picks the protocol.
//   drive thread  one poll() on the UDP socket and the eventfd; drains the
//                 socket with recvmmsg into a fixed slab (one slab per
//                 round, one ::time() per recvmmsg), pops TCP batches, walks
//                 every datagram and frame in place, classifies each via
//                 dns::record_from_packet, hands TCP buffers back to their
//                 ring, offers records to the StreamingWindowDriver (which
//                 owns window open/close against the WindowedPipeline),
//                 and between rounds services control requests,
//                 checkpoints, starts/stops timed trace captures
//                 (TRACE <secs>)
//
//   peer --recv--> [buf0][buf1][buf2][buf3]   per-connection ring
//                    |  IntakeBatch{frames in place}        ^
//                    v                                      | hand back
//                BoundedQueue --pop_batch--> drive thread --+
//                                                 ^
//   sender --> kernel receive buffer --recvmmsg---+  [slot 0..63]
//
// Plus a shared util::JobSystem (the async window pipeline) with serial
// queues on one small worker pool:
//
//   close   resolve-ahead batches: reverse-name/AS/geo lookups of the
//           queriers offered so far, while their window is still open;
//           window seal -> feature extraction (interning the resolved
//           queriers), retrain gate, classify, telemetry, summary render
//           (StreamingWindowDriver; with carry-forward off there is no
//           shared cache and lookups stay in extraction)
//   export  --windows-out summary appends (in window order: blocks leave
//           the serial close queue in order) and TRACE dump
//           serialization — file I/O never blocks intake
//
// Every close and every summary append goes through its queue.  With
// --async-windows off the close queue lives on a private job system with
// no workers, and the drive thread drains each queue right after it
// submits to it, so the same jobs run inline.  The close job itself
// retrains and classifies (WindowedPipeline::close_window).
//
// Determinism: everything that feeds deterministic state — packet decode,
// dedup/aggregate ingest, window close — runs either on the single drive
// thread in arrival order or on a serial queue in window order, and each
// window's stats come from its own sensor, so a replayed stream produces
// byte-identical windows in both --async-windows modes (see
// analysis/streaming.hpp).
// In-flight TCP bytes are bounded per connection by its ring; STATS
// queue_depth counts queued TCP frames, not batches.  UDP's stall absorber
// is the kernel receive buffer (STATS udp_rcvbuf_bytes); what overflows it
// the kernel drops and reports (SO_RXQ_OVFL with the next datagram, and
// SO_MEMINFO read when STATS or /metrics is served), counted in
// dnsbs.serve.queue_dropped.  HISTORY queue_depth_peak is the larger of
// the queued TCP frames and the biggest recvmmsg batch.
// Socket-side tallies (datagrams seen, kernel drops, frames) and the
// dnsbs.serve.jobs.* queue gauges are sched-flagged: they depend on kernel
// timing, not on the stream.  Control verbs that read shared state (STATS,
// HISTORY, /metrics, FLUSH, CHECKPOINT) quiesce the queues first, so their
// replies — and any checkpoint taken mid-close — are slot-exact.
//
// Timestamps: with `stamped` framing each payload carries its own stream
// time and querier ([8B LE seconds][4B LE querier IPv4][DNS message]),
// making replays self-clocking and loss-free over TCP — the mode the
// checkpoint/restart byte-identity contract is verified in.  Without it,
// the record time is the wall clock at receipt and the querier is the
// datagram's source address (live capture mode; inherently not
// replay-deterministic).
#pragma once

#include <atomic>
#include <cstdint>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "analysis/streaming.hpp"
#include "dns/capture.hpp"
#include "net/socket.hpp"
#include "serve/intake.hpp"

namespace dnsbs::serve {

/// Renders one closed window as the --windows-out text block ("window N
/// ... end\n"): features as hexfloat rows, classes sorted by address, the
/// window's WindowStats as "metric <series>=<value>" lines.  Pure function
/// of the result + observation, so sync and async modes share the exact
/// bytes.
std::string render_window_summary(const analysis::WindowResult& result,
                                  const labeling::WindowObservation& observation);

struct ServeConfig {
  std::string bind = "127.0.0.1";
  std::uint16_t udp_port = 0;     ///< 0 = ephemeral
  bool tcp = false;
  std::uint16_t tcp_port = 0;     ///< 0 = ephemeral
  std::uint16_t status_port = 0;  ///< control socket; 0 = ephemeral
  bool stamped = false;           ///< replay framing (see header comment)
  std::size_t queue_capacity = 65536;  ///< TCP batches queued for the drive thread
  /// Worker threads of the shared job system (close/export queues).
  /// Output is byte-identical for any value — the queues are serial; more
  /// workers only add queue-to-queue overlap.
  std::size_t job_threads = 2;
  analysis::StreamingConfig streaming;
  analysis::WindowedPipelineConfig pipeline;
  std::string checkpoint_path;     ///< target of CHECKPOINT (and cadence saves)
  bool restore = false;            ///< load checkpoint_path before starting
  std::int64_t checkpoint_every_secs = 0;  ///< stream-time cadence; 0 = manual only
  std::string windows_out;         ///< append one summary block per closed window
  std::string ready_file;          ///< written once listening: "udp=P tcp=P status=P"
  std::string trace_out;           ///< TRACE <secs> writes Chrome trace JSON here
};

class ServeDaemon {
 public:
  ServeDaemon(ServeConfig config, const netdb::AsDb& as_db, const netdb::GeoDb& geo_db,
              const core::QuerierResolver& resolver);
  ~ServeDaemon();

  /// Binds every socket, restores the checkpoint when configured, then
  /// spawns the threads.  False (with `error` set) leaves the daemon
  /// stopped.
  bool start(std::string& error);

  /// Blocks until a SHUTDOWN command or request_stop() lands.
  void wait();

  /// Initiates shutdown from any thread: intake stops, the drive thread
  /// finishes queued work and exits WITHOUT flushing open windows (a
  /// checkpointed daemon must be resumable; use FLUSH first when final
  /// windows are wanted).
  void request_stop();

  std::uint16_t udp_port() const { return udp_.local_port(); }
  std::uint16_t tcp_port() const { return tcp_listener_.local_port(); }
  std::uint16_t status_port() const { return status_listener_.local_port(); }

  const analysis::StreamingWindowDriver* driver() const { return driver_.get(); }
  analysis::WindowedPipeline* pipeline() { return pipeline_.get(); }

  /// TCP intake bounds: each connection owns kTcpRingBuffers receive
  /// buffers, each sized for one largest frame plus one read.
  static constexpr std::size_t kTcpReadBytes = 65536;
  static constexpr std::size_t kTcpBufferBytes = 2 + 65535 + kTcpReadBytes;
  static constexpr std::size_t kTcpRingBuffers = 4;
  /// UDP intake: one slab of kUdpSlabSlots slots, each larger than the
  /// 65,535-byte datagram maximum, drained by one recvmmsg per round.
  static constexpr std::size_t kUdpSlabSlots = 64;
  static constexpr std::size_t kUdpSlotBytes = 65536;

 private:
  /// One TCP connection's receive buffers; defined in daemon.cpp.
  class TcpRing;
  /// Hands a TCP receive buffer back to its ring when the batch holding it
  /// is dropped.
  struct BufferRelease {
    std::shared_ptr<TcpRing> ring;
    void operator()(std::uint8_t* buffer) const;
  };
  using TcpBuffer = std::unique_ptr<std::uint8_t, BufferRelease>;
  /// One intake queue item: every complete length-prefixed frame
  /// ([u16 BE length][payload]...) of one TCP receive buffer, walked in
  /// place.  UDP never queues: the drive thread reads its socket.
  struct IntakeBatch {
    TcpBuffer buffer;  ///< frames at [0, frame_bytes)
    std::size_t frame_bytes = 0;
    std::size_t frames = 0;
    std::int64_t wall_secs = 0;  ///< one ::time() per batch
  };
  struct ControlRequest {
    std::string command;
    std::promise<std::string> reply;
  };

  void tcp_loop();
  void serve_tcp_connection(net::TcpStream stream);
  void status_loop();
  void handle_http(net::TcpStream& stream, const std::string& request_line);
  std::future<std::string> submit_control(std::string command);
  void drive_loop();
  /// Classifies every frame of a TCP batch and offers the records.
  void process_batch(const IntakeBatch& batch);
  void process_packet(std::span<const std::uint8_t> payload, std::int64_t wall_secs,
                      net::IPv4Addr source);
  /// One intake round: waits up to `timeout_ms` in one poll() on the UDP
  /// socket and the eventfd (not at all while the last round left work
  /// behind), then processes up to 256 TCP batches, handing their buffers
  /// back, and at most one slab of datagrams.  Returns the batches plus
  /// datagrams processed.
  std::size_t pump_intake(int timeout_ms);
  std::size_t pump_tcp();
  std::size_t pump_udp();
  /// Folds kernel drops not yet counted into dnsbs.serve.queue_dropped.
  void count_udp_drops();
  void service_control();
  std::string handle_control(const std::string& command);
  std::string stats_json() const;
  bool write_checkpoint(std::string& why);
  void drain_intake();
  /// Driver close callback: renders the summary block (on the closing
  /// thread — a job worker in async mode) and appends it to --windows-out
  /// via the export queue (drained at once in sync mode).
  void on_window_close(const analysis::WindowResult& result,
                       const labeling::WindowObservation& observation);
  void append_summary(const std::string& block);
  /// Barrier: close + export work all landed (STATS/HISTORY/FLUSH/
  /// CHECKPOINT and loop exit run behind it).
  void quiesce_pipeline();
  void finish_trace();

  ServeConfig config_;
  const netdb::AsDb& as_db_;
  const netdb::GeoDb& geo_db_;
  const core::QuerierResolver& resolver_;

  /// One worker pool for the whole async window pipeline: the driver's
  /// "close" queue in async mode and the daemon's "export" queue live
  /// here (metric prefix dnsbs.serve.jobs; handed to the driver through
  /// WindowedPipelineConfig::jobs).  Declared before driver_ so the
  /// driver's destructor (which drains its queue) runs first.
  std::shared_ptr<util::JobSystem> jobs_;
  util::JobSystem::QueueId export_queue_ = 0;
  std::unique_ptr<analysis::WindowedPipeline> pipeline_;
  std::unique_ptr<analysis::StreamingWindowDriver> driver_;
  /// TCP batches; `--queue N` bounds it.
  BoundedQueue<IntakeBatch> queue_;
  /// Frames pushed and not yet processed: the queue depth in records.
  std::atomic<std::size_t> queued_frames_{0};
  std::vector<IntakeBatch> batch_;  ///< drive thread's pop buffer
  /// Signalled per queued TCP batch, per control request and on stop.
  net::EventFd wake_;
  /// The last round filled its TCP pop or its slab: poll without waiting.
  bool intake_backlog_ = false;

  net::UdpSocket udp_;
  net::DatagramSlab udp_slab_{kUdpSlabSlots, kUdpSlotBytes};  ///< drive thread only
  std::uint32_t udp_drops_counted_ = 0;  ///< kernel drops already in queue_dropped
  net::TcpListener tcp_listener_;
  net::TcpListener status_listener_;

  std::atomic<bool> stop_{false};
  std::atomic<int> tcp_active_{0};  ///< open intake connections (quiesce check)
  std::mutex control_mutex_;
  std::vector<std::unique_ptr<ControlRequest>> control_requests_;

  std::thread tcp_thread_;
  std::thread status_thread_;
  std::thread drive_thread_;
  bool started_ = false;

  dns::CaptureStats capture_stats_;
  std::int64_t next_cadence_checkpoint_ = 0;
  // TRACE capture state; drive-thread only (handle_control runs there).
  bool trace_active_ = false;
  std::uint64_t trace_deadline_ns_ = 0;
};

}  // namespace dnsbs::serve
