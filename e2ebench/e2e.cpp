// dnsbs_e2e — end-to-end benchmark of the dnsbs_serve daemon.
//
// One binary, five subcommands (run.py builds it and calls `run`):
//
//   world  --dir D
//       Simulates the JP-ditl world, writes its authority's reverse-query
//       stream (records.bin) and the labels curated over its first day
//       (labels.txt).  Curation happens here, never in the daemon.
//   ref    --dir D --workload W --out F
//       Reference summaries: a synchronous StreamingWindowDriver with the
//       daemon's config and labels, fed the exact packets the benchmark
//       sends, rendered through serve::render_window_summary.
//   daemon --dir D --workload W --ready F --windows-out F --checkpoint F
//          --stats F [--restore]
//       The measured child: builds the world, installs the labels through
//       pipeline()->set_labels(), starts a serve::ServeDaemon and waits.
//   trace  --dir D --workload W --ref F --out-prefix P
//       One in-process, single-threaded, sync-mode pass that times each
//       layer's public calls (per-layer table + Chrome trace JSON), then
//       the same pass untimed for the tracing-overhead ratio.
//   run    --workload W --seed N --seconds S --trace 0|1 --root DIR
//       Samples the seed's stream from the world (both cached), boots
//       daemons, replays, checks every summary against the reference and
//       prints one JSON result line.
//
// See README.md for what each workload and metric means.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <signal.h>
#include <spawn.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/streaming.hpp"
#include "core/sensor.hpp"
#include "dns/capture.hpp"
#include "labeling/blacklist.hpp"
#include "labeling/curator.hpp"
#include "labeling/darknet.hpp"
#include "net/socket.hpp"
#include "serve/daemon.hpp"
#include "serve/intake.hpp"
#include "sim/scenario.hpp"
#include "util/jobs.hpp"
#include "util/log.hpp"
#include "util/metrics.hpp"
#include "util/rng.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

extern char** environ;

namespace fs = std::filesystem;
using namespace dnsbs;

namespace {

// ---------------------------------------------------------------- workloads

// Every workload replays the same stream: a seeded sample of the JP-ditl
// world's authority stream (50 h of stream time).  The world itself is
// the same for every seed.  Worlds of different seeds differ by ~25% in
// size and by ~35% in window close time, which would swamp any change to
// the daemon; and simulating one takes ~6 s at this scale, so it is done
// once per checkout.
constexpr double kScale = 0.25;
constexpr std::uint64_t kWorldSeed = 1;
// Records each seed's sample keeps, in stream order: ~85% of the world's
// stream, as an authority that samples its queries would see it.
constexpr std::size_t kStreamRecords = 180000;

struct Workload {
  const char* name;
  std::int64_t window;          ///< window width, seconds
  std::int64_t hop;             ///< hop between window starts, seconds
  bool udp;                     ///< paced UDP at kUdpRate (else closed-loop TCP)
  bool mid_checkpoint;          ///< CHECKPOINT + SHUTDOWN + restore mid-stream
  std::size_t min_queriers;     ///< sensor analyzability floor
};

// Hourly windows hold fewer queriers per originator than daily ones, so
// udp-hourly lowers the floor to keep every window classifying.
constexpr Workload kWorkloads[] = {
    {"tcp-daily", 86400, 86400, false, false, 20},
    {"udp-hourly", 3600, 3600, true, false, 10},
    {"sliding-checkpoint", 86400, 3600, false, true, 20},
};

// UDP send rate, datagrams/s: about a quarter of tcp-daily's closed-loop
// capacity, where no datagram was dropped in any pass.
constexpr double kUdpRate = 60000.0;

const Workload* find_workload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

// Timed CHECKPOINT round trips per pass, after one untimed alignment round.
constexpr int kCheckpointRounds = 3;
// Extra boot-only cycles per run, so setup_s is a median of many boots.
constexpr int kExtraBoots = 6;
// A pause ends once at most this many sent frames are still undecoded.
constexpr std::uint64_t kPauseSlack = 256;
// Closed-loop sender write size.
constexpr std::size_t kChunkBytes = 64 * 1024;
// A paced pass whose sender slipped more than this (p99) is invalid: its
// latency samples are dropped and the pass is counted in the output.
constexpr double kMaxLatenessMs = 5.0;

// ---------------------------------------------------------------- helpers

double now_s() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

std::uint64_t now_ns() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1'000'000'000ull +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

/// CPU time of this process (the traced pass runs on one thread).
double self_cpu_s() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void sleep_s(double secs) {
  if (secs <= 0) return;
  timespec ts;
  ts.tv_sec = static_cast<time_t>(secs);
  ts.tv_nsec = static_cast<long>((secs - static_cast<double>(ts.tv_sec)) * 1e9);
  nanosleep(&ts, nullptr);
}

std::string arg(int argc, char** argv, const char* name, const std::string& fallback = "") {
  for (int i = 2; i + 1 < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return argv[i + 1];
  }
  return fallback;
}

bool has_flag(int argc, char** argv, const char* name) {
  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], name) == 0) return true;
  }
  return false;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile (p in [0, 100]).
/// Median of the lower half (rounded up) of the samples.  Interference
/// from other tenants only ever adds time, and it comes in bursts: a burst
/// that hits a few samples drops out, while a change that slows every
/// sample still shows.
double best_half_median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  v.resize((v.size() + 1) / 2);
  return median(v);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

bool write_file(const std::string& path, const std::string& body) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    out << body;
    if (!out.flush()) return false;
  }
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

/// Splits a --windows-out text into its "window N ... end\n" blocks.
std::vector<std::string> split_blocks(const std::string& text) {
  std::vector<std::string> blocks;
  std::size_t start = 0;
  std::size_t pos = 0;
  while (pos < text.size()) {
    std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) break;
    if (text.compare(pos, eol - pos, "end") == 0) {
      blocks.push_back(text.substr(start, eol + 1 - start));
      start = eol + 1;
    }
    pos = eol + 1;
  }
  return blocks;
}

/// Window end (stream seconds) from a block's header line.
std::int64_t block_end(const std::string& block) {
  const auto at = block.find(" end=");
  return at == std::string::npos ? 0 : std::strtoll(block.c_str() + at + 5, nullptr, 10);
}

std::uint64_t block_index(const std::string& block) {
  return std::strtoull(block.c_str() + 7, nullptr, 10);  // "window N ..."
}

/// Ticks summed over all CPUs from /proc/stat: {steal, total}.  Steal is
/// time the hypervisor ran something else on this machine's CPUs.
std::pair<double, double> cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  double total = 0, steal = 0, v = 0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    total += v;
    if (field == 7) steal = v;
  }
  return {steal, total};
}

/// Share of all CPU time stolen by the hypervisor since `from`.
double steal_since(const std::pair<double, double>& from) {
  const auto now = cpu_ticks();
  const double total = now.second - from.second;
  return total > 0 ? (now.first - from.first) / total : 0.0;
}

/// Fixed CPU loop: the host-speed probe recorded with every run.
double host_probe_ms() {
  const double t0 = now_s();
  volatile std::uint64_t x = 88172645463325252ull;
  std::uint64_t v = x;
  for (int i = 0; i < 30'000'000; ++i) {
    v ^= v << 13;
    v ^= v >> 7;
    v ^= v << 17;
  }
  x = v;
  return (now_s() - t0) * 1e3;
}

// ---------------------------------------------------------------- stream

struct StoredRecord {
  std::int64_t time;
  std::uint32_t querier;
  std::uint32_t originator;
};

struct Stream {
  std::vector<StoredRecord> records;  ///< the world's stream plus the sentinel
  std::size_t real = 0;               ///< records before the sentinel
  /// Every record as a stamped frame ([8B secs][4B querier][DNS query]),
  /// each behind a u16 big-endian length prefix (the TCP framing).
  std::vector<std::uint8_t> bytes;
  std::vector<std::size_t> offsets;  ///< frame i = bytes[offsets[i], offsets[i+1])
  labeling::GroundTruth labels;
};

std::string stream_dir(const fs::path& root, std::uint64_t seed) {
  return (root / ".bench_cache" / ("seed" + std::to_string(seed))).string();
}

sim::ScenarioConfig world_config() { return sim::jp_ditl_config(kWorldSeed, kScale); }

std::string world_dir(const fs::path& root) { return (root / ".bench_cache" / "world").string(); }

/// records.bin: a u64 count, then the records.
bool write_records(const std::string& path, const std::vector<StoredRecord>& records) {
  std::string raw(8 + records.size() * sizeof(StoredRecord), '\0');
  const std::uint64_t n = records.size();
  std::memcpy(raw.data(), &n, 8);
  std::memcpy(raw.data() + 8, records.data(), records.size() * sizeof(StoredRecord));
  return write_file(path, raw);
}

bool read_records(const std::string& path, std::vector<StoredRecord>& records) {
  const std::string raw = read_file(path);
  if (raw.size() < 8) return false;
  std::uint64_t n = 0;
  std::memcpy(&n, raw.data(), 8);
  if (n == 0 || n != (raw.size() - 8) / sizeof(StoredRecord) ||
      raw.size() != 8 + n * sizeof(StoredRecord)) {
    return false;
  }
  records.resize(n);
  std::memcpy(records.data(), raw.data() + 8, n * sizeof(StoredRecord));
  return true;
}

/// Reads labels.txt ("<address> <class index>" per line, sorted).
bool load_labels(const std::string& dir, labeling::GroundTruth& labels) {
  std::ifstream in(dir + "/labels.txt");
  std::string addr;
  int cls = 0;
  while (in >> addr >> cls) {
    const auto a = net::IPv4Addr::parse(addr);
    if (!a || cls < 0 || cls >= static_cast<int>(core::kAppClassCount)) return false;
    labels.add(*a, static_cast<core::AppClass>(cls));
  }
  return !labels.empty();
}

/// Loads records.bin + labels.txt and appends the sentinel: one record
/// stamped at the end of the last window, so that window closes by stream
/// time (no FLUSH, whose idle polling would sit inside the timed region).
bool load_stream(const std::string& dir, const Workload& w, Stream& s) {
  if (!read_records(dir + "/records.bin", s.records)) return false;
  s.real = s.records.size();
  const std::int64_t last = s.records.back().time;
  StoredRecord sentinel = s.records.front();
  sentinel.time = (last / w.hop) * w.hop + w.window;
  s.records.push_back(sentinel);

  s.offsets.reserve(s.records.size() + 1);
  s.bytes.reserve(s.records.size() * 48);
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    const StoredRecord& r = s.records[i];
    const auto packet = dns::make_ptr_query_packet(static_cast<std::uint16_t>(i & 0xffff),
                                                   net::IPv4Addr(r.originator));
    const std::size_t len = 12 + packet.size();
    s.offsets.push_back(s.bytes.size());
    s.bytes.push_back(static_cast<std::uint8_t>(len >> 8));
    s.bytes.push_back(static_cast<std::uint8_t>(len & 0xff));
    const auto secs = static_cast<std::uint64_t>(r.time);
    for (int b = 0; b < 8; ++b) s.bytes.push_back(static_cast<std::uint8_t>(secs >> (8 * b)));
    for (int b = 0; b < 4; ++b) {
      s.bytes.push_back(static_cast<std::uint8_t>(r.querier >> (8 * b)));
    }
    s.bytes.insert(s.bytes.end(), packet.begin(), packet.end());
  }
  s.offsets.push_back(s.bytes.size());

  return load_labels(dir, s.labels);
}

/// Index of the first record stamped at or after `t` (records are in
/// time order; the sentinel is last).
std::size_t first_record_at(const Stream& s, std::int64_t t) {
  return static_cast<std::size_t>(
      std::lower_bound(s.records.begin(), s.records.end(), t,
                       [](const StoredRecord& r, std::int64_t v) { return r.time < v; }) -
      s.records.begin());
}

/// sliding-checkpoint's mid-stream cut: the first record of the stream
/// hour holding the middle record, so phase 1 ends on a hop boundary.
/// Returns the record count (no cut) for the other workloads.
std::size_t split_index(const Workload& w, const Stream& s) {
  if (!w.mid_checkpoint) return s.records.size();
  return first_record_at(s, (s.records[s.real / 2].time / w.hop) * w.hop);
}

/// Payload of frame i without its length prefix (what a datagram carries).
std::span<const std::uint8_t> frame_payload(const Stream& s, std::size_t i) {
  return std::span<const std::uint8_t>(s.bytes.data() + s.offsets[i] + 2,
                                       s.offsets[i + 1] - s.offsets[i] - 2);
}

analysis::WindowedPipelineConfig pipeline_config(const Workload& w, std::uint64_t seed) {
  analysis::WindowedPipelineConfig pc;
  pc.sensor.min_queriers = w.min_queriers;
  pc.seed = seed;
  pc.history_limit = 64;
  return pc;
}

analysis::StreamingConfig streaming_config(const Workload& w, bool async) {
  analysis::StreamingConfig sc;
  sc.window = util::SimTime::seconds(w.window);
  sc.hop = util::SimTime::seconds(w.hop);
  sc.async_windows = async;
  return sc;
}

/// ServeDaemon::process_packet for stamped framing, step for step, so the
/// in-process passes bump the same deterministic series in the same order.
struct PacketDecoder {
  util::MetricCounter& packets = util::metrics_counter("dnsbs.serve.packets");
  util::MetricCounter& bad_stamp = util::metrics_counter("dnsbs.serve.bad_stamp");
  dns::CaptureStats stats;

  std::optional<dns::QueryRecord> decode(std::span<const std::uint8_t> payload) {
    packets.inc();
    if (payload.size() < 12) {
      bad_stamp.inc();
      return std::nullopt;
    }
    std::uint64_t secs = 0;
    std::uint32_t q = 0;
    for (int i = 0; i < 8; ++i) secs |= static_cast<std::uint64_t>(payload[i]) << (8 * i);
    for (int i = 0; i < 4; ++i) q |= static_cast<std::uint32_t>(payload[8 + i]) << (8 * i);
    return dns::record_from_packet(payload.subspan(12),
                                   util::SimTime::seconds(static_cast<std::int64_t>(secs)),
                                   net::IPv4Addr(q), stats);
  }
};

// ---------------------------------------------------------------- gen

int cmd_world(int argc, char** argv) {
  const std::string dir = arg(argc, argv, "--dir");
  if (dir.empty()) return 2;
  fs::create_directories(dir);

  sim::Scenario scenario(world_config());
  labeling::Darknet darknet(labeling::default_darknet_prefixes());
  scenario.engine().set_traffic_observer(&darknet);
  scenario.run();
  const auto& records = scenario.authority(0).records();
  if (records.size() < kStreamRecords) return 1;
  std::vector<StoredRecord> stored;
  stored.reserve(records.size());
  for (const auto& r : records) {
    stored.push_back({r.time.secs(), r.querier.value(), r.originator.value()});
  }

  // Labels: curated once over the stream's first day (a prefix window),
  // as bench_tab03_classification does; the daemon only installs them.
  const std::int64_t prefix_end = records.front().time.secs() + 86400;
  std::vector<dns::QueryRecord> prefix;
  for (const auto& r : records) {
    if (r.time.secs() >= prefix_end) break;
    prefix.push_back(r);
  }
  core::Sensor sensor({}, scenario.plan().as_db(), scenario.plan().geo_db(),
                      scenario.naming());
  sensor.ingest_all(prefix);
  util::Rng rng = util::Rng::stream(kWorldSeed, 0xb1ac);
  const auto blacklist = labeling::BlacklistSet::build(scenario.population(), {}, rng);
  labeling::Curator curator(scenario, blacklist, darknet, {}, kWorldSeed ^ 0xc0de);
  const labeling::GroundTruth labels = curator.curate(sensor.extract_features());
  // Sorted so the file (and the map built from it) is the same every time.
  std::vector<std::pair<net::IPv4Addr, core::AppClass>> sorted(labels.labels().begin(),
                                                               labels.labels().end());
  std::sort(sorted.begin(), sorted.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  std::ostringstream label_text;
  for (const auto& [addr, cls] : sorted) {
    label_text << addr.to_string() << ' ' << static_cast<int>(cls) << '\n';
  }
  if (!write_file(dir + "/labels.txt", label_text.str())) return 1;
  if (!write_records(dir + "/records.bin", stored)) return 1;
  std::fprintf(stderr, "world: %zu records, %zu labels -> %s\n", records.size(), labels.size(),
               dir.c_str());
  return 0;
}

/// The seed's stream: kStreamRecords of the world's records, chosen by
/// seeded selection sampling and kept in stream order, plus the labels.
bool sample_stream(const std::string& world, std::uint64_t seed, const std::string& dir) {
  std::vector<StoredRecord> all, kept;
  if (!read_records(world + "/records.bin", all) || all.size() < kStreamRecords) return false;
  kept.reserve(kStreamRecords);
  util::Rng pick = util::Rng::stream(seed, 0x5a3e);
  for (std::size_t i = 0; i < all.size() && kept.size() < kStreamRecords; ++i) {
    if (pick.below(all.size() - i) < kStreamRecords - kept.size()) kept.push_back(all[i]);
  }
  return write_file(dir + "/labels.txt", read_file(world + "/labels.txt")) &&
         write_records(dir + "/records.bin", kept);
}

// ---------------------------------------------------------------- ref

int cmd_ref(int argc, char** argv) {
  const Workload* w = find_workload(arg(argc, argv, "--workload"));
  const std::string dir = arg(argc, argv, "--dir");
  const std::string out = arg(argc, argv, "--out");
  const std::uint64_t seed = std::strtoull(arg(argc, argv, "--seed", "1").c_str(), nullptr, 10);
  if (!w || dir.empty() || out.empty()) return 2;
  util::set_log_level(util::LogLevel::kWarn);
  // World and stream first: nothing may bump the registry between the
  // pipeline's construction and its first window except the replay.
  sim::Scenario world(world_config());
  Stream s;
  if (!load_stream(dir, *w, s)) return 1;

  std::string text;
  const auto render = [&text](const analysis::WindowResult& r,
                              const labeling::WindowObservation& o) {
    text += serve::render_window_summary(r, o);
  };
  const auto fresh_pair = [&] {
    auto pipeline = std::make_unique<analysis::WindowedPipeline>(
        pipeline_config(*w, seed), world.plan().as_db(), world.plan().geo_db(),
        world.naming());
    auto driver = std::make_unique<analysis::StreamingWindowDriver>(
        streaming_config(*w, false), *pipeline, world.plan().as_db(), world.plan().geo_db(),
        world.naming());
    driver->set_window_close_callback(render);
    pipeline->set_labels(s.labels);
    return std::make_pair(std::move(pipeline), std::move(driver));
  };
  auto [pipeline, driver] = fresh_pair();
  // The daemon replay of sliding-checkpoint saves at the cut and resumes
  // from the image in a fresh process; the oracle does the same in-process
  // unless --uninterrupted asks for the plain pass.
  const std::size_t split =
      has_flag(argc, argv, "--uninterrupted") ? s.records.size() : split_index(*w, s);
  PacketDecoder decoder;
  for (std::size_t i = 0; i < s.records.size(); ++i) {
    if (i == split) {
      std::stringstream image;
      if (!driver->save(image)) return 1;
      driver.reset();
      pipeline.reset();
      std::tie(pipeline, driver) = fresh_pair();
      if (!driver->restore(image)) return 1;
    }
    if (auto record = decoder.decode(frame_payload(s, i))) driver->offer(*record);
  }
  driver->quiesce();
  if (split_blocks(text).empty()) return 1;
  return write_file(out, text) ? 0 : 1;
}

// ---------------------------------------------------------------- daemon

int cmd_daemon(int argc, char** argv) {
  const Workload* w = find_workload(arg(argc, argv, "--workload"));
  const std::string dir = arg(argc, argv, "--dir");
  const std::uint64_t seed = std::strtoull(arg(argc, argv, "--seed", "1").c_str(), nullptr, 10);
  if (!w || dir.empty()) return 2;

  sim::Scenario world(world_config());  // world only; no traffic run
  labeling::GroundTruth labels;
  if (!load_labels(dir, labels)) return 1;

  serve::ServeConfig cfg;
  cfg.tcp = !w->udp;
  cfg.stamped = true;
  cfg.job_threads = 2;
  cfg.streaming = streaming_config(*w, true);
  cfg.pipeline = pipeline_config(*w, seed);
  cfg.checkpoint_path = arg(argc, argv, "--checkpoint");
  cfg.restore = has_flag(argc, argv, "--restore");
  cfg.windows_out = arg(argc, argv, "--windows-out");
  cfg.ready_file = arg(argc, argv, "--ready");

  serve::ServeDaemon daemon(cfg, world.plan().as_db(), world.plan().geo_db(), world.naming());
  daemon.pipeline()->set_labels(std::move(labels));
  std::string error;
  if (!daemon.start(error)) {
    std::fprintf(stderr, "daemon: %s\n", error.c_str());
    return 1;
  }
  daemon.wait();
  const util::MetricsSnapshot snap = util::metrics_snapshot();
  std::ostringstream stats;
  for (const char* name : {"dnsbs.serve.udp_datagrams", "dnsbs.serve.queue_dropped"}) {
    stats << name << ' ' << snap.scalar(name) << '\n';
  }
  const std::string stats_path = arg(argc, argv, "--stats");
  if (!stats_path.empty()) write_file(stats_path, stats.str());
  return 0;
}

// ---------------------------------------------------------------- child processes

std::string self_exe() {
  char buf[4096];
  const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  return buf;
}

/// Spawns this binary with `args`, stdout+stderr appended to `log`.
pid_t spawn_self(const std::vector<std::string>& args, const std::string& log) {
  const std::string exe = self_exe();
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(exe.c_str()));
  for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_addopen(&actions, 1, log.c_str(), O_WRONLY | O_CREAT | O_APPEND,
                                   0644);
  posix_spawn_file_actions_adddup2(&actions, 1, 2);
  pid_t pid = -1;
  if (posix_spawn(&pid, exe.c_str(), &actions, nullptr, argv.data(), environ) != 0) pid = -1;
  posix_spawn_file_actions_destroy(&actions);
  return pid;
}

int wait_child(pid_t pid) {
  int status = 0;
  if (waitpid(pid, &status, 0) != pid) return -1;
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

/// Runs a helper subcommand to completion; true on exit code 0.
bool run_self(const std::vector<std::string>& args, const std::string& log) {
  const pid_t pid = spawn_self(args, log);
  return pid > 0 && wait_child(pid) == 0;
}

/// utime + stime of a live process, seconds.
double process_cpu_s(pid_t pid) {
  const std::string stat = read_file("/proc/" + std::to_string(pid) + "/stat");
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream in(stat.substr(close + 2));
  std::string field;
  double ticks = 0;
  for (int i = 0; i < 13 && in >> field; ++i) {
    if (i == 11 || i == 12) ticks += std::atof(field.c_str());
  }
  return ticks / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// VmHWM of a live process, MB.
double process_hwm_mb(pid_t pid) {
  std::istringstream in(read_file("/proc/" + std::to_string(pid) + "/status"));
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atof(line.c_str() + 6) / 1024.0;
  }
  return 0.0;
}

/// One daemon child; the destructor kills and reaps it if stop() did not.
struct Daemon {
  Daemon() = default;
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  pid_t pid = -1;
  std::uint16_t udp = 0, tcp = 0, status = 0;
  double setup_s = 0;
  /// One command on its own connection: the daemon drops a control
  /// connection that stays idle for 2.5 s, which a slowed pass can reach
  /// between two commands.
  std::string command(const std::string& cmd) {
    auto control = net::TcpStream::connect("127.0.0.1", status);
    if (!control) return "";
    const std::string line = cmd + "\n";
    if (!control->write_all(line.data(), line.size())) return "";
    return control->read_line(120000, 1 << 24).value_or("");
  }

  /// SHUTDOWN and reap; true when the child exited cleanly.
  bool stop() {
    if (pid <= 0) return true;
    const bool ok = command("SHUTDOWN").rfind("OK", 0) == 0;
    const int rc = wait_child(pid);
    pid = -1;
    return ok && rc == 0;
  }

  ~Daemon() {
    if (pid > 0) {
      kill(pid, SIGKILL);
      wait_child(pid);
    }
  }
};

struct PassFiles {
  std::string ready, windows_out, checkpoint, stats, log;
};

/// Boots the daemon child and waits for its ready file.
bool boot(Daemon& d, const Workload& w, const std::string& stream, std::uint64_t seed,
          const PassFiles& f, bool restore) {
  std::remove(f.ready.c_str());
  std::vector<std::string> args = {"daemon",        "--dir",        stream,
                                   "--workload",    w.name,         "--seed",
                                   std::to_string(seed), "--ready",  f.ready,
                                   "--windows-out", f.windows_out, "--checkpoint",
                                   f.checkpoint,    "--stats",      f.stats};
  if (restore) args.push_back("--restore");
  const double t0 = now_s();
  d.pid = spawn_self(args, f.log);
  if (d.pid <= 0) return false;
  while (true) {
    const std::string ready = read_file(f.ready);
    if (!ready.empty() && ready.back() == '\n') {
      d.setup_s = now_s() - t0;
      unsigned u = 0, t = 0, st = 0;
      if (std::sscanf(ready.c_str(), "udp=%u tcp=%u status=%u", &u, &t, &st) != 3) return false;
      d.udp = static_cast<std::uint16_t>(u);
      d.tcp = static_cast<std::uint16_t>(t);
      d.status = static_cast<std::uint16_t>(st);
      return true;
    }
    int status = 0;
    if (waitpid(d.pid, &status, WNOHANG) == d.pid) {
      d.pid = -1;
      return false;
    }
    if (now_s() - t0 > 60) return false;
    sleep_s(0.0002);
  }
}

/// Polls --windows-out and stamps each complete summary block as it lands.
/// Runs on its own thread: it must never share the sender's.
class SummaryWatcher {
 public:
  SummaryWatcher(std::string path, std::size_t expected)
      : path_(std::move(path)), expected_(expected), thread_([this] { loop(); }) {}
  ~SummaryWatcher() { finish(0); }
  SummaryWatcher(const SummaryWatcher&) = delete;
  SummaryWatcher& operator=(const SummaryWatcher&) = delete;

  /// Waits up to `timeout_s` for every expected block, then stops.
  bool finish(double timeout_s) {
    const double deadline = now_s() + timeout_s;
    while (count() < expected_ && now_s() < deadline) sleep_s(0.001);
    stop_ = true;
    if (thread_.joinable()) thread_.join();
    return count() >= expected_;
  }

  std::size_t count() {
    std::lock_guard<std::mutex> lock(mutex_);
    return blocks_.size();
  }
  const std::vector<std::string>& blocks() const { return blocks_; }
  const std::vector<double>& times() const { return times_; }

 private:
  void loop() {
    int fd = -1;
    std::string pending;
    char buf[1 << 16];
    while (!stop_) {
      if (fd < 0) fd = ::open(path_.c_str(), O_RDONLY);
      bool progressed = false;
      if (fd >= 0) {
        ssize_t n;
        while ((n = ::read(fd, buf, sizeof(buf))) > 0) {
          pending.append(buf, static_cast<std::size_t>(n));
          progressed = true;
        }
      }
      if (progressed) {
        const double t = now_s();
        std::size_t consumed = 0;
        for (std::string& b : split_blocks(pending)) {
          consumed += b.size();
          std::lock_guard<std::mutex> lock(mutex_);
          blocks_.push_back(std::move(b));
          times_.push_back(t);
        }
        pending.erase(0, consumed);
        if (count() >= expected_) break;
      } else {
        sleep_s(0.00025);
      }
    }
    if (fd >= 0) ::close(fd);
  }

  std::string path_;
  std::size_t expected_;
  std::atomic<bool> stop_{false};
  std::mutex mutex_;
  std::vector<std::string> blocks_;
  std::vector<double> times_;
  std::thread thread_;
};

struct PassResult {
  bool ok = false;
  std::vector<double> setup_s;
  double elapsed_s = 0;
  double cpu_s = 0;
  double rss_mb = 0;
  std::map<std::size_t, double> latency_ms;  ///< by window position in the reference
  std::vector<double> checkpoint_ms;
  double lateness_p99_ms = 0;
  bool valid = true;
  std::uint64_t udp_sent = 0, udp_received = 0;
  std::size_t windows = 0, mismatched = 0;
};

/// Frames this daemon process has decoded so far (STATS "capture.packets").
/// STATS quiesces the close path but publishes nothing, so it leaves the
/// window summaries untouched.
std::optional<std::uint64_t> daemon_packets(Daemon& d) {
  const std::string reply = d.command("STATS");
  const std::string key = "\"capture\":{\"packets\":";
  const auto at = reply.find(key);
  if (at == std::string::npos) return std::nullopt;
  return std::strtoull(reply.c_str() + at + key.size(), nullptr, 10);
}

/// Closed-loop TCP send of frames [begin, end); stamps `sent_at[i]` for
/// every frame i the moment the write containing it returned.  Before
/// each frame listed in `pauses` (a window's closing record) the sender
/// waits until the daemon has decoded all but the last batch of what it
/// was sent, so that window's latency sample is close-path work, not the
/// intake backlog; the daemon never runs dry, so no idle time is added.
bool send_tcp(const Stream& s, Daemon& d, std::size_t begin, std::size_t end,
              const std::vector<std::size_t>& pauses, std::vector<double>& sent_at) {
  auto stream = net::TcpStream::connect("127.0.0.1", d.tcp);
  if (!stream) return false;
  int one = 1;
  setsockopt(stream->fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  auto pause = std::lower_bound(pauses.begin(), pauses.end(), begin);
  std::size_t i = begin;
  while (i < end) {
    if (pause != pauses.end() && *pause == i) {
      // Sleep for most of the estimated backlog between polls: a STATS
      // round trip costs the drive thread a quiesce and a metrics dump.
      while (true) {
        const auto done = daemon_packets(d);
        if (!done) return false;
        if (*done + kPauseSlack >= i - begin) break;
        sleep_s(std::min(0.02, static_cast<double>(i - begin - *done) * 1e-6));
      }
      ++pause;
    }
    const std::size_t limit = pause != pauses.end() ? std::min(end, *pause) : end;
    std::size_t j = i + 1;
    while (j < limit && s.offsets[j + 1] - s.offsets[i] <= kChunkBytes) ++j;
    if (!stream->write_all(s.bytes.data() + s.offsets[i], s.offsets[j] - s.offsets[i])) {
      return false;
    }
    const double t = now_s();
    for (std::size_t k = i; k < j; ++k) sent_at[k] = t;
    i = j;
  }
  return true;  // the stream closes here: EOF ends the daemon's connection
}

/// Open-loop UDP send at `rate` datagrams/s.  due[i] is frame i's
/// scheduled send time; returns the p99 schedule slip in ms.
double send_udp(const Stream& s, std::uint16_t port, double rate, std::vector<double>& due) {
  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  int buf = 4 << 20;
  setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof(buf));
  const std::size_t n = s.records.size();
  std::vector<double> late_ms;
  late_ms.reserve(n);
  const double t0 = now_s() + 0.001;
  for (std::size_t i = 0; i < n; ++i) due[i] = t0 + static_cast<double>(i) / rate;
  std::size_t i = 0;
  while (i < n) {
    const double t = now_s();
    while (i < n && due[i] <= t) {
      const auto p = frame_payload(s, i);
      ::send(fd, p.data(), p.size(), 0);
      late_ms.push_back((t - due[i]) * 1e3);
      ++i;
    }
    if (i < n) {
      const double wait = due[i] - now_s();
      if (wait > 0.0001) sleep_s(wait - 0.00005);
    }
  }
  ::close(fd);
  return percentile(late_ms, 99.0);
}

/// Times back-to-back CHECKPOINT verbs.  The first aligns with the drive
/// thread's poll cycle (and drains any backlog); the rest are returned.
bool time_checkpoints(Daemon& d, std::vector<double>& out, double* first_reply_at = nullptr) {
  for (int round = 0; round <= kCheckpointRounds; ++round) {
    const double t0 = now_s();
    if (d.command("CHECKPOINT").rfind("OK", 0) != 0) return false;
    const double t1 = now_s();
    if (round == 0 && first_reply_at) *first_reply_at = t1;
    if (round > 0) out.push_back((t1 - t0) * 1e3);
  }
  return true;
}

std::map<std::string, std::uint64_t> read_stats(const std::string& path) {
  std::map<std::string, std::uint64_t> stats;
  std::istringstream in(read_file(path));
  std::string name;
  std::uint64_t v = 0;
  while (in >> name >> v) stats[name] = v;
  return stats;
}

PassResult run_pass(const Workload& w, const Stream& s, const std::string& stream_dir_path,
                    std::uint64_t seed, const PassFiles& f,
                    const std::vector<std::string>& ref_blocks) {
  PassResult r;
  for (const std::string* p : {&f.ready, &f.windows_out, &f.checkpoint, &f.stats}) {
    std::remove(p->c_str());
  }
  const std::size_t n = s.records.size();
  // Per reference window: the index of its closing record (the first
  // record at or past its end; the sentinel closes the last one).
  std::vector<std::size_t> closer(ref_blocks.size(), n - 1);
  for (std::size_t b = 0; b < ref_blocks.size(); ++b) {
    closer[b] = std::min(n - 1, first_record_at(s, block_end(ref_blocks[b])));
  }
  const std::size_t split = split_index(w, s);
  // Closed-loop pause points, and the only windows that give latency
  // samples: every closing record on tcp-daily; on sliding-checkpoint only
  // the sentinel (which closes the last 23 windows), because there a close
  // is in flight at almost every moment and the pause's STATS quiesce
  // would serialize intake behind it.
  std::vector<std::size_t> pauses;
  if (w.mid_checkpoint) {
    pauses.push_back(n - 1);
  } else if (!w.udp) {
    for (std::size_t b = 0; b < closer.size(); ++b) {
      if (b == 0 || closer[b] != closer[b - 1]) pauses.push_back(closer[b]);
    }
  }

  Daemon first, restored;
  Daemon* d = &first;
  if (!boot(first, w, stream_dir_path, seed, f, false)) return r;
  if (!w.mid_checkpoint) r.setup_s.push_back(first.setup_s);
  SummaryWatcher watcher(f.windows_out, ref_blocks.size());
  std::vector<double> sent_at(n, 0.0);
  double cpu = 0;
  double phase1_s = 0;  // sliding-checkpoint: first byte -> first CHECKPOINT reply
  double hwm = 0;
  double t_first = now_s();
  double cpu0 = process_cpu_s(first.pid);
  if (w.udp) {
    r.lateness_p99_ms = send_udp(s, first.udp, kUdpRate, sent_at);
    r.udp_sent = n;
    r.valid = r.lateness_p99_ms <= kMaxLatenessMs;
    // Latency runs from the window's *last* record's due time.
    for (std::size_t b = 0; b < closer.size(); ++b) {
      closer[b] = closer[b] > 0 ? closer[b] - 1 : 0;
    }
  } else if (w.mid_checkpoint) {
    if (!send_tcp(s, first, 0, split, pauses, sent_at)) return r;
    double phase1_end = 0;
    if (!time_checkpoints(first, r.checkpoint_ms, &phase1_end)) return r;
    cpu += process_cpu_s(first.pid) - cpu0;
    hwm = process_hwm_mb(first.pid);
    phase1_s = phase1_end - t_first;
    if (!first.stop()) return r;
    // Restore boots: the extra ones only measure set-up; the last one
    // replays the rest of the stream.
    for (int b = 0; b < kExtraBoots / 2; ++b) {
      Daemon extra;
      if (!boot(extra, w, stream_dir_path, seed, f, true) || !extra.stop()) return r;
      r.setup_s.push_back(extra.setup_s);
    }
    if (!boot(restored, w, stream_dir_path, seed, f, true)) return r;
    r.setup_s.push_back(restored.setup_s);
    d = &restored;
    cpu0 = process_cpu_s(restored.pid);
    t_first = now_s();
    if (!send_tcp(s, restored, split, n, pauses, sent_at)) return r;
  } else {
    if (!send_tcp(s, first, 0, n, pauses, sent_at)) return r;
  }
  const bool complete = watcher.finish(60.0);
  const std::vector<double>& times = watcher.times();
  const double t_last = times.empty() ? now_s() : times.back();
  cpu += process_cpu_s(d->pid) - cpu0;
  hwm = std::max(hwm, process_hwm_mb(d->pid));
  if (!w.mid_checkpoint && !time_checkpoints(*d, r.checkpoint_ms)) return r;
  if (!d->stop()) return r;

  r.elapsed_s = phase1_s + (t_last - t_first);
  r.cpu_s = cpu;
  r.rss_mb = hwm;
  const auto stats = read_stats(f.stats);
  if (w.udp) {
    const auto it = stats.find("dnsbs.serve.udp_datagrams");
    r.udp_received = it == stats.end() ? 0 : it->second;
  }

  // Correctness: block for block against the reference.
  const std::vector<std::string>& got = watcher.blocks();
  r.windows = ref_blocks.size();
  for (std::size_t b = 0; b < ref_blocks.size(); ++b) {
    if (b >= got.size() || got[b] != ref_blocks[b]) ++r.mismatched;
  }
  for (std::size_t b = 0; b < got.size() && b < ref_blocks.size(); ++b) {
    const std::uint64_t index = block_index(got[b]);
    const std::size_t at = index - block_index(ref_blocks.front());
    if (at >= closer.size()) continue;
    if (w.udp || std::binary_search(pauses.begin(), pauses.end(), closer[at])) {
      r.latency_ms[at] = (times[b] - sent_at[closer[at]]) * 1e3;
    }
  }
  r.ok = complete;
  return r;
}

// ---------------------------------------------------------------- trace

struct Span {
  const char* name;
  std::uint64_t start, end;
  std::int64_t parent;  ///< index into the span list, -1 for a root
  std::uint64_t window; ///< oldest window the span's work belongs to
};

struct RawPacket {
  std::vector<std::uint8_t> bytes;
  std::int64_t wall_secs = 0;
  net::IPv4Addr source;
};

/// Sum of a span histogram's recorded ns over every path ending in `leaf`.
double span_sum_ns(const util::MetricsSnapshot& d, std::string_view leaf) {
  double total = 0;
  for (const util::MetricValue& v : d.values) {
    if (v.kind != util::MetricKind::kHistogram) continue;
    const std::string_view name = v.name;
    if (name.size() >= leaf.size() && name.substr(name.size() - leaf.size()) == leaf &&
        (name.size() == leaf.size() || name[name.size() - leaf.size() - 1] == '.' ||
         name[name.size() - leaf.size() - 1] == '/')) {
      total += static_cast<double>(v.sum);
    }
  }
  return total;
}

struct LayerTable {
  double total_ns = 0;
  double serve_ns = 0, dns_ns = 0, analysis_ns = 0, core_ns = 0, ml_ns = 0, util_ns = 0;
};

/// One in-process pass in daemon order: intake queue hop, decode, offer
/// (window closes inline: extract, train, classify, render).  With
/// `timed`, every call is bracketed by the monotonic clock and recorded.
struct TracedPass {
  TracedPass(const Workload& workload, const Stream& stream, std::uint64_t pass_seed,
             const sim::Scenario& scenario)
      : w(workload), s(stream), seed(pass_seed), world(scenario) {}

  const Workload& w;
  const Stream& s;
  std::uint64_t seed;
  const sim::Scenario& world;

  std::vector<Span> spans;
  std::string output;
  std::uint64_t windows = 0;
  double queue_ns = 0, decode_ns = 0, offer_plain_ns = 0, offer_close_ns = 0, render_ns = 0;
  std::uint64_t plain_offers = 0, accepted = 0, packets = 0, summary_bytes = 0;
  double snapshot_ns = 0;
  std::size_t registry_series = 0;
  double save_ms = 0, restore_ms = 0;
  std::size_t checkpoint_bytes = 0;
  util::MetricsSnapshot before, after;
  double wall_ns = 0, cpu_s = 0;

  template <bool kTimed>
  void run() {
    auto jobs = std::make_shared<util::JobSystem>(
        util::JobSystemConfig{.threads = 0, .metric_prefix = "dnsbs.serve.jobs"});
    analysis::WindowedPipelineConfig pc = pipeline_config(w, seed);
    pc.jobs = jobs;
    auto pipeline = std::make_unique<analysis::WindowedPipeline>(
        pc, world.plan().as_db(), world.plan().geo_db(), world.naming());
    auto driver = std::make_unique<analysis::StreamingWindowDriver>(
        streaming_config(w, false), *pipeline, world.plan().as_db(), world.plan().geo_db(),
        world.naming());
    std::int64_t offer_span = -1;
    driver->set_window_close_callback(
        [&](const analysis::WindowResult& r, const labeling::WindowObservation& o) {
          const std::uint64_t t0 = kTimed ? now_ns() : 0;
          std::string block = serve::render_window_summary(r, o);
          if constexpr (kTimed) {
            const std::uint64_t t1 = now_ns();
            render_ns += static_cast<double>(t1 - t0);
            spans.push_back({"serve.render", t0, t1, offer_span, r.index});
            summary_bytes += block.size();
          }
          output += block;
        });
    pipeline->set_labels(s.labels);
    serve::BoundedQueue<RawPacket> queue(65536);
    PacketDecoder decoder;
    std::vector<RawPacket> batch;
    const std::size_t n = s.records.size();
    // At sliding-checkpoint's cut, so the probe's save() publishes exactly
    // where the oracle's does (see the known defect in cmd_run).
    const std::size_t mid = w.mid_checkpoint ? split_index(w, s) - 1 : s.real / 2;
    before = util::metrics_snapshot();
    const double cpu0 = self_cpu_s();
    const std::uint64_t wall0 = now_ns();
    double excluded_ns = 0;
    for (std::size_t i = 0; i < n; i += 256) {
      const std::size_t j = std::min(n, i + 256);
      const std::uint64_t q0 = kTimed ? now_ns() : 0;
      for (std::size_t k = i; k < j; ++k) {
        RawPacket p;
        const auto payload = frame_payload(s, k);
        p.bytes.assign(payload.begin(), payload.end());
        queue.try_push(std::move(p));
      }
      batch.clear();
      queue.pop_batch(batch, 256, 0);
      std::int64_t batch_span = -1;
      if constexpr (kTimed) {
        const std::uint64_t q1 = now_ns();
        queue_ns += static_cast<double>(q1 - q0);
        spans.push_back({"serve.queue_hop", q0, q1, -1, driver->windows_closed()});
        spans.push_back({"drive.batch", q1, 0, -1, driver->windows_closed()});
        batch_span = static_cast<std::int64_t>(spans.size() - 1);
      }
      for (std::size_t k = 0; k < batch.size(); ++k) {
        const std::uint64_t d0 = kTimed ? now_ns() : 0;
        const auto record = decoder.decode(batch[k].bytes);
        const std::uint64_t d1 = kTimed ? now_ns() : 0;
        if constexpr (kTimed) decode_ns += static_cast<double>(d1 - d0);
        ++packets;
        if (!record) continue;
        ++accepted;
        const std::uint64_t closed = driver->windows_closed();
        if constexpr (kTimed) {
          spans.push_back({"analysis.offer", d1, 0, batch_span, closed});
          offer_span = static_cast<std::int64_t>(spans.size() - 1);
        }
        driver->offer(*record);
        if constexpr (kTimed) {
          const std::uint64_t o1 = now_ns();
          const double dt = static_cast<double>(o1 - d1);
          if (driver->windows_closed() != closed) {
            offer_close_ns += dt;
            spans[static_cast<std::size_t>(offer_span)].end = o1;
            // util probe, outside the traced total: one registry
            // snapshot, the call the close path makes twice per window.
            const std::uint64_t s0 = now_ns();
            const util::MetricsSnapshot probe = util::metrics_snapshot();
            const std::uint64_t s1 = now_ns();
            snapshot_ns += static_cast<double>(s1 - s0);
            registry_series = probe.values.size();
            excluded_ns += static_cast<double>(s1 - s0);
          } else {
            offer_plain_ns += dt;
            ++plain_offers;
            spans.pop_back();  // plain offers are summed, not kept one by one
          }
          offer_span = -1;
        }
        if (kTimed && i + k == mid) {
          // Checkpoint probe, outside the traced total: save the driver,
          // then restore the image into a fresh driver + pipeline pair.
          const std::uint64_t c0 = now_ns();
          std::stringstream image;
          driver->save(image);
          const std::uint64_t c1 = now_ns();
          {
            analysis::WindowedPipelineConfig rpc = pc;
            rpc.jobs = std::make_shared<util::JobSystem>(util::JobSystemConfig{.threads = 0, .metric_prefix = ""});
            analysis::WindowedPipeline rp(rpc, world.plan().as_db(), world.plan().geo_db(),
                                          world.naming());
            analysis::StreamingWindowDriver rd(streaming_config(w, false), rp,
                                               world.plan().as_db(), world.plan().geo_db(),
                                               world.naming());
            rd.restore(image);
          }
          const std::uint64_t c2 = now_ns();
          save_ms = static_cast<double>(c1 - c0) / 1e6;
          restore_ms = static_cast<double>(c2 - c1) / 1e6;
          checkpoint_bytes = image.str().size();
          excluded_ns += static_cast<double>(c2 - c0);
          spans.push_back({"bench.checkpoint_probe", c0, c2, -1, driver->windows_closed()});
        }
      }
      if constexpr (kTimed) spans[static_cast<std::size_t>(batch_span)].end = now_ns();
    }
    driver->quiesce();
    wall_ns = static_cast<double>(now_ns() - wall0) - excluded_ns;
    cpu_s = self_cpu_s() - cpu0 - excluded_ns / 1e9;
    after = util::metrics_snapshot();
    windows = driver->windows_closed();
  }
};

/// Mean Sensor::ingest cost per call: a probe over the same records that
/// keeps the driver's set of open sensors on the hop grid (so sliding
/// windows see the same 24-sensor cache footprint) but runs no close path.
/// Only the ingest calls are timed; opening and dropping sensors is not.
struct IngestProbe {
  double ns_per_call = 0;
  double calls_per_record = 0;  ///< open windows covering each record
  double admit_ratio = 0;
  std::size_t originators_peak = 0;
};

IngestProbe ingest_probe(const Workload& w, const Stream& s, const sim::Scenario& world,
                         std::uint64_t seed) {
  IngestProbe p;
  const util::MetricsSnapshot before = util::metrics_snapshot();
  const auto pc = pipeline_config(w, seed);
  std::deque<std::pair<std::int64_t, std::unique_ptr<core::Sensor>>> open;
  std::int64_t next_start = (s.records.front().time / w.hop) * w.hop;
  const auto retire = [&p](core::Sensor& sensor) {
    sensor.publish_metrics();
    p.originators_peak = std::max(p.originators_peak, sensor.aggregator().originator_count());
  };
  double ns = 0;
  std::size_t calls = 0;
  std::uint64_t t0 = now_ns();
  for (std::size_t i = 0; i < s.real; ++i) {
    const StoredRecord& r = s.records[i];
    if (next_start <= r.time || (!open.empty() && open.front().first + w.window <= r.time)) {
      ns += static_cast<double>(now_ns() - t0);
      for (; next_start <= r.time; next_start += w.hop) {
        open.emplace_back(next_start,
                          std::make_unique<core::Sensor>(pc.sensor, world.plan().as_db(),
                                                         world.plan().geo_db(), world.naming()));
      }
      while (!open.empty() && open.front().first + w.window <= r.time) {
        retire(*open.front().second);
        open.pop_front();
      }
      t0 = now_ns();
    }
    const dns::QueryRecord record{util::SimTime::seconds(r.time), net::IPv4Addr(r.querier),
                                  net::IPv4Addr(r.originator), dns::RCode::kNoError};
    for (auto& [start, sensor] : open) {
      if (start <= r.time) {
        sensor->ingest(record);
        ++calls;
      }
    }
  }
  ns += static_cast<double>(now_ns() - t0);
  for (auto& [start, sensor] : open) retire(*sensor);
  const auto d = util::MetricsSnapshot::delta(before, util::metrics_snapshot());
  const double admitted = static_cast<double>(d.scalar("dnsbs.dedup.admitted"));
  const double suppressed = static_cast<double>(d.scalar("dnsbs.dedup.suppressed"));
  p.admit_ratio = admitted + suppressed > 0 ? admitted / (admitted + suppressed) : 0.0;
  p.ns_per_call = calls ? ns / static_cast<double>(calls) : 0.0;
  p.calls_per_record = static_cast<double>(calls) / static_cast<double>(s.real);
  return p;
}

std::string chrome_trace(const std::vector<Span>& spans) {
  std::ostringstream out;
  out << "{\"traceEvents\":[";
  const std::uint64_t base = spans.empty() ? 0 : spans.front().start;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& sp = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                  "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%lld,\"window\":%llu}}",
                  i ? ",\n" : "\n", sp.name, static_cast<double>(sp.start - base) / 1e3,
                  static_cast<double>(sp.end - sp.start) / 1e3, i,
                  static_cast<long long>(sp.parent),
                  static_cast<unsigned long long>(sp.window));
    out << buf;
  }
  out << "\n],\"displayTimeUnit\":\"ms\"}\n";
  return out.str();
}

int cmd_trace(int argc, char** argv) {
  const Workload* w = find_workload(arg(argc, argv, "--workload"));
  const std::string dir = arg(argc, argv, "--dir");
  const std::string ref = arg(argc, argv, "--ref");
  const std::string prefix = arg(argc, argv, "--out-prefix");
  const std::uint64_t seed = std::strtoull(arg(argc, argv, "--seed", "1").c_str(), nullptr, 10);
  if (!w || dir.empty() || prefix.empty()) return 2;
  sim::Scenario world(world_config());
  Stream s;
  if (!load_stream(dir, *w, s)) return 1;

  TracedPass traced{*w, s, seed, world};
  traced.run<true>();
  const bool matches = traced.output == read_file(ref);
  TracedPass plain{*w, s, seed, world};
  plain.run<false>();

  const IngestProbe probe = ingest_probe(*w, s, world, seed);

  const util::MetricsSnapshot d = util::MetricsSnapshot::delta(traced.before, traced.after);
  const double windows = static_cast<double>(std::max<std::uint64_t>(1, traced.windows));
  const double extract_ns = span_sum_ns(d, "sensor.extract");
  const double train_ns = span_sum_ns(d, "pipeline.train");
  const double fit_ns = span_sum_ns(d, "ml.fit");
  const double classified = static_cast<double>(d.scalar("dnsbs.pipeline.classified"));
  const double retrains = static_cast<double>(d.scalar("dnsbs.pipeline.retrains"));
  const double rows = static_cast<double>(d.scalar("dnsbs.features.rows"));
  const double reused = static_cast<double>(d.scalar("dnsbs.features.rows_reused"));
  const double snap_ns = traced.snapshot_ns / windows;

  // Self times.  Each row is a disjoint slice of the traced total:
  //   serve    intake queue hop + summary render
  //   dns      stamp parse + record_from_packet
  //   core     offer on non-closing records (Sensor::ingest into every
  //            covering window; the driver's own per-record bookkeeping is
  //            a few ns and rides along) + the sensor.extract span
  //   ml       pipeline.train span minus its registry snapshot
  //   util     the close path's two registry snapshots per window
  //   analysis closing offers minus the extract/train/render/snapshot
  //            work inside them: sealing, publishing, telemetry
  LayerTable t;
  t.total_ns = traced.wall_ns;
  t.serve_ns = traced.queue_ns + traced.render_ns;
  t.dns_ns = traced.decode_ns;
  t.core_ns = traced.offer_plain_ns + extract_ns;
  t.util_ns = 2 * snap_ns * windows;
  t.ml_ns = std::max(0.0, train_ns - snap_ns * windows);
  t.analysis_ns = traced.offer_close_ns - traced.render_ns - extract_ns - t.ml_ns - t.util_ns;
  const double self_sum =
      t.serve_ns + t.dns_ns + t.core_ns + t.ml_ns + t.util_ns + t.analysis_ns;
  const double coverage = self_sum / t.total_ns;
  const double records = static_cast<double>(traced.accepted);
  const double traced_cpu_us = traced.cpu_s * 1e6 / records;
  const double plain_cpu_us = plain.cpu_s * 1e6 / records;
  const double close_ns = traced.offer_close_ns - traced.render_ns;

  std::printf("per-layer self time, %s (traced in-process pass, %.0f records, %llu windows)\n",
              w->name, records, static_cast<unsigned long long>(traced.windows));
  const std::pair<const char*, double> rows_out[] = {
      {"serve", t.serve_ns}, {"dns", t.dns_ns},   {"core", t.core_ns},
      {"analysis", t.analysis_ns}, {"ml", t.ml_ns}, {"util", t.util_ns}};
  for (const auto& [layer, ns] : rows_out) {
    std::printf("  %-9s %10.1f ms  %5.1f%%\n", layer, ns / 1e6, 100.0 * ns / t.total_ns);
  }
  std::printf("  %-9s %10.1f ms  (rows sum to %.1f%% of it)\n", "total", t.total_ns / 1e6,
              100.0 * coverage);

  std::ostringstream m;
  const auto put = [&m](const char* name, double v, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s %.9g %s\n", name, v, unit);
    m << buf;
  };
  put("serve.queue_hop_ns", traced.queue_ns / static_cast<double>(traced.packets), "ns");
  put("serve.render_ms_per_window", traced.render_ns / windows / 1e6, "ms");
  put("serve.summary_bytes_per_window", static_cast<double>(traced.summary_bytes) / windows,
      "bytes");
  put("dns.decode_ns_per_packet", traced.decode_ns / static_cast<double>(traced.packets), "ns");
  put("dns.accepted_ratio", records / static_cast<double>(traced.packets), "ratio");
  put("analysis.offer_ns_per_record",
      traced.offer_plain_ns / static_cast<double>(std::max<std::uint64_t>(1, traced.plain_offers)),
      "ns");
  put("analysis.windows_per_record", probe.calls_per_record, "count");
  put("analysis.close_ms_per_window", close_ns / windows / 1e6, "ms");
  put("analysis.save_ms", traced.save_ms, "ms");
  put("analysis.checkpoint_bytes", static_cast<double>(traced.checkpoint_bytes), "bytes");
  put("analysis.restore_ms", traced.restore_ms, "ms");
  put("core.ingest_ns_per_record", probe.ns_per_call, "ns");
  put("core.dedup_admit_ratio", probe.admit_ratio, "ratio");
  put("core.extract_ms_per_window", extract_ns / windows / 1e6, "ms");
  put("core.rows_reused_ratio", rows > 0 ? reused / rows : 0.0, "ratio");
  put("core.originators_peak", static_cast<double>(probe.originators_peak), "count");
  put("ml.fit_ms_per_window", fit_ns / windows / 1e6, "ms");
  put("ml.retrain_ratio", retrains / windows, "ratio");
  put("ml.predict_us_per_row",
      classified > 0 ? std::max(0.0, train_ns - fit_ns - snap_ns * windows) / classified / 1e3
                     : 0.0,
      "us");
  put("util.snapshot_us", snap_ns / 1e3, "us");
  put("util.registry_series", static_cast<double>(traced.registry_series), "count");
  put("trace.overhead_ratio", traced_cpu_us / plain_cpu_us, "ratio");
  put("trace.coverage_ratio", coverage, "ratio");
  put("trace.single_thread_us_per_record", plain_cpu_us, "us");
  for (const auto& [layer, ns] : rows_out) {
    const std::string name = std::string("self.") + layer + "_ms";
    put(name.c_str(), ns / 1e6, "ms");
  }
  put("self.total_ms", t.total_ns / 1e6, "ms");
  put("trace.matches_reference", matches ? 1.0 : 0.0, "bool");
  if (!write_file(prefix + "-layers.txt", m.str())) return 1;
  if (!write_file(prefix + "-trace.json", chrome_trace(traced.spans))) return 1;
  return 0;
}

// ---------------------------------------------------------------- run

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_result(bool correct, std::uint64_t attempted, std::uint64_t failed,
                        const std::vector<Metric>& metrics) {
  std::ostringstream out;
  out << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
      << ", \"failed\": " << failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", metrics[i].value);
    out << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << buf
        << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  out << "}}";
  return out.str();
}

/// Makes sure the stream and the workload's reference exist for this seed.
bool prepare(const Workload& w, std::uint64_t seed, const std::string& world,
             const std::string& dir, bool trace, const std::string& log) {
  if (!fs::exists(world + "/records.bin") || !fs::exists(world + "/labels.txt")) {
    if (!run_self({"world", "--dir", world}, log)) return false;
  }
  if (!fs::exists(dir + "/records.bin") || !fs::exists(dir + "/labels.txt")) {
    if (!sample_stream(world, seed, dir)) return false;
  }
  for (const bool uninterrupted : {false, true}) {
    if (uninterrupted && !(w.mid_checkpoint && trace)) break;
    const std::string ref =
        dir + "/ref-" + w.name + (uninterrupted ? "-uninterrupted" : "") + ".txt";
    if (fs::exists(ref)) continue;
    std::vector<std::string> args = {"ref",  "--dir", dir, "--workload", w.name, "--seed",
                                     std::to_string(seed), "--out", ref};
    if (uninterrupted) args.push_back("--uninterrupted");
    if (!run_self(args, log)) return false;
  }
  return true;
}

int cmd_run(int argc, char** argv) {
  const Workload* w = find_workload(arg(argc, argv, "--workload"));
  const std::uint64_t seed = std::strtoull(arg(argc, argv, "--seed", "1").c_str(), nullptr, 10);
  const double seconds = std::atof(arg(argc, argv, "--seconds", "10").c_str());
  const bool trace = arg(argc, argv, "--trace", "0") == "1";
  const fs::path root = arg(argc, argv, "--root", ".");
  if (!w || seconds <= 0) {
    std::fprintf(stderr, "run: unknown workload or bad --seconds\n");
    return 2;
  }
  const std::string dir = stream_dir(root, seed);
  const fs::path work = root / ".bench_work" / w->name;
  fs::remove_all(work);
  fs::create_directories(work);
  fs::create_directories(dir);
  const std::string log = (work / "children.log").string();
  if (!prepare(*w, seed, world_dir(root), dir, trace, log)) {
    std::fprintf(stderr, "run: stream/reference preparation failed (see %s)\n", log.c_str());
    return 1;
  }
  Stream s;
  if (!load_stream(dir, *w, s)) return 1;
  const std::string ref_path = dir + "/ref-" + w->name + ".txt";
  const std::vector<std::string> ref_blocks = split_blocks(read_file(ref_path));
  if (ref_blocks.empty()) return 1;

  // Known defect, reported rather than hidden: a mid-stream CHECKPOINT
  // publishes every open window's pending tallies into the registry, so
  // with overlapping windows the next window's metric block absorbs them.
  // The oracle above therefore checkpoints at the same cut; this counts
  // the windows whose block differs from the uninterrupted pass.
  std::size_t perturbed = 0;
  if (w->mid_checkpoint && trace) {
    const auto plain = split_blocks(read_file(dir + "/ref-" + w->name + "-uninterrupted.txt"));
    for (std::size_t b = 0; b < ref_blocks.size(); ++b) {
      if (b >= plain.size() || plain[b] != ref_blocks[b]) ++perturbed;
    }
    std::printf("known defect: the mid-stream checkpoint changes %zu of %zu window summaries "
                "relative to the uninterrupted pass\n",
                perturbed, ref_blocks.size());
  }

  const double probe_start = host_probe_ms();
  const auto run_ticks = cpu_ticks();
  PassFiles f;
  f.ready = (work / "ready").string();
  f.windows_out = (work / "windows.out").string();
  f.checkpoint = (work / "state.ckpt").string();
  f.stats = (work / "stats.txt").string();
  f.log = log;

  std::vector<double> setup, elapsed, cpu_us, rss, checkpoint, lateness, steal;
  // Per window, one sample per pass; passes whose sender slipped apart.
  std::map<std::size_t, std::vector<double>> latency, late_latency;
  std::uint64_t attempted = 0, failed = 0, udp_sent = 0, udp_received = 0;
  int passes = 0, invalid = 0;
  bool all_ok = true;
  // Boot-only cycles: set-up is short and noisy, so take it many times.
  if (!w->mid_checkpoint) {
    for (int b = 0; b < kExtraBoots; ++b) {
      Daemon d;
      if (!boot(d, *w, dir, seed, f, false) || !d.stop()) {
        std::fprintf(stderr, "run: boot-only cycle failed (see %s)\n", log.c_str());
        return 1;
      }
      setup.push_back(d.setup_s);
    }
  }
  const double t0 = now_s();
  const int min_passes = trace ? 1 : 3;
  // A pass starts only if it is expected to end within --seconds, so a
  // run's length does not depend on where the last pass happens to fall.
  double longest_pass = 0;
  while (passes < min_passes || (!trace && now_s() - t0 + longest_pass <= seconds)) {
    const double pass_t0 = now_s();
    const auto ticks0 = cpu_ticks();
    PassResult r = run_pass(*w, s, dir, seed, f, ref_blocks);
    longest_pass = std::max(longest_pass, now_s() - pass_t0);
    steal.push_back(steal_since(ticks0));
    ++passes;
    attempted += ref_blocks.size();
    failed += r.ok ? r.mismatched : ref_blocks.size();
    all_ok = all_ok && r.ok && r.mismatched == 0;
    if (!r.ok) {
      std::fprintf(stderr, "run: pass %d failed (see %s)\n", passes, log.c_str());
      break;
    }
    setup.insert(setup.end(), r.setup_s.begin(), r.setup_s.end());
    elapsed.push_back(r.elapsed_s);
    cpu_us.push_back(r.cpu_s * 1e6 / static_cast<double>(s.real));
    rss.push_back(r.rss_mb);
    for (const auto& [at, ms] : r.latency_ms) (r.valid ? latency : late_latency)[at].push_back(ms);
    checkpoint.insert(checkpoint.end(), r.checkpoint_ms.begin(), r.checkpoint_ms.end());
    lateness.push_back(r.lateness_p99_ms);
    if (!r.valid) ++invalid;
    udp_sent += r.udp_sent;
    udp_received += r.udp_received;
    std::printf("pass %d: %.0f records/s, %.3f us/record cpu, %.1f MB, %zu/%zu windows match, "
                "steal %.3f\n",
                passes, static_cast<double>(s.real) / r.elapsed_s, cpu_us.back(), r.rss_mb, r.windows - r.mismatched,
                r.windows, steal.back());
  }
  const double run_steal = steal_since(run_ticks);
  const double probe_end = host_probe_ms();
  const double host_probe = 0.5 * (probe_start + probe_end);
  const double lateness_p99 = lateness.empty() ? 0.0 : *std::max_element(lateness.begin(), lateness.end());
  const double loss = udp_sent ? 1.0 - static_cast<double>(udp_received) / static_cast<double>(udp_sent) : 0.0;

  // The run record: host-speed probe, hypervisor steal, generator
  // validity and build facts.
  std::printf("host: nproc=%u compiler=\"%s\" build=%s probe_ms=%.2f/%.2f steal=%.3f "
              "gen_lateness_p99_ms=%.3f invalid_passes=%d passes=%d\n",
              std::thread::hardware_concurrency(), __VERSION__, E2E_BUILD_TYPE, probe_start,
              probe_end, run_steal, lateness_p99, invalid, passes);
  std::printf("failed_ratio: %.6f (%llu of %llu windows differ from the reference)\n",
              attempted ? static_cast<double>(failed) / static_cast<double>(attempted) : 1.0,
              static_cast<unsigned long long>(failed),
              static_cast<unsigned long long>(attempted));
  {
    std::ofstream record((root / ".bench_work" / "runs.jsonl").string(), std::ios::app);
    record << "{\"workload\":\"" << w->name << "\",\"seed\":" << seed << ",\"trace\":" << trace
           << ",\"nproc\":" << std::thread::hardware_concurrency() << ",\"compiler\":\""
           << __VERSION__ << "\",\"build_type\":\"" << E2E_BUILD_TYPE
           << "\",\"host_probe_ms\":[" << probe_start << "," << probe_end
           << "],\"steal_ratio\":" << run_steal << ",\"gen_lateness_ms_p99\":" << lateness_p99 << ",\"invalid_passes\":" << invalid
           << ",\"passes\":" << passes << "}\n";
  }
  if (!all_ok) {
    std::printf("%s\n", json_result(false, std::max<std::uint64_t>(1, attempted),
                                    std::max<std::uint64_t>(1, failed), {})
                            .c_str());
    return 0;
  }

  std::vector<Metric> metrics;
  if (!trace) {
    if (latency.empty()) {
      std::printf("every pass's sender slipped; latency includes the slip\n");
      latency = late_latency;
    }
    std::vector<double> window_latency;
    for (const auto& [at, samples] : latency) window_latency.push_back(best_half_median(samples));
    std::printf("latency over %zu windows\n", window_latency.size());
    metrics = {
        {"records_per_s", static_cast<double>(s.real) / best_half_median(elapsed), "records/s"},
        {"cpu_us_per_record", best_half_median(cpu_us), "us"},
        {"summary_latency_ms_p50", percentile(window_latency, 50), "ms"},
        {"summary_latency_ms_p90", percentile(window_latency, 90), "ms"},
        {"peak_rss_mb", median(rss), "MB"},
        {"setup_s", median(setup), "s"},
        {"checkpoint_ms", median(checkpoint), "ms"},
    };
  } else {
    const std::string prefix = (work / w->name).string();
    if (!run_self({"trace", "--dir", dir, "--workload", w->name, "--seed", std::to_string(seed),
                   "--ref", ref_path, "--out-prefix", prefix},
                  log)) {
      std::fprintf(stderr, "run: traced pass failed (see %s)\n", log.c_str());
      return 1;
    }
    metrics = {{"net.udp_loss_ratio", loss, "ratio"},
               {"analysis.checkpoint_perturbed_windows", static_cast<double>(perturbed), "count"},
               {"gen.lateness_ms_p99", lateness_p99, "ms"},
               {"host.probe_ms", host_probe, "ms"}};
    std::istringstream in(read_file(prefix + "-layers.txt"));
    std::string name, unit;
    double v = 0;
    bool matches = false, covered = false;
    while (in >> name >> v >> unit) {
      if (name == "trace.matches_reference") {
        matches = v == 1.0;
        continue;
      }
      if (name == "trace.coverage_ratio") covered = std::abs(v - 1.0) <= 0.05;
      metrics.push_back({name, v, unit});
    }
    if (!matches) std::printf("trace: traced pass output differs from the reference\n");
    if (!covered) std::printf("trace: layer self times do not sum to within 5%% of total\n");
    std::printf("trace: table %s-layers.txt, timeline %s-trace.json\n", prefix.c_str(),
                prefix.c_str());
    all_ok = matches && covered;
    if (!matches) ++failed;
  }
  std::printf("%s\n", json_result(all_ok, attempted, failed, metrics).c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  signal(SIGPIPE, SIG_IGN);
  if (argc < 2) {
    std::fprintf(stderr, "usage: dnsbs_e2e world|ref|daemon|trace|run [options]\n");
    return 2;
  }
  const std::string cmd = argv[1];
  // Helpers die with the run that spawned them.
  if (cmd != "run") prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (cmd == "world") return cmd_world(argc, argv);
  if (cmd == "ref") return cmd_ref(argc, argv);
  if (cmd == "daemon") return cmd_daemon(argc, argv);
  if (cmd == "trace") return cmd_trace(argc, argv);
  if (cmd == "run") return cmd_run(argc, argv);
  std::fprintf(stderr, "unknown subcommand %s\n", cmd.c_str());
  return 2;
}
