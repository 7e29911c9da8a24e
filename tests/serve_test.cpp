// Streaming daemon stack: CLI parsing regressions, the bounded intake
// queue, StreamingWindowDriver vs the batch pipeline as an oracle, the
// checkpoint/restore byte-identity contract, loopback integration runs
// of the full ServeDaemon (sockets, stamped framing, control protocol),
// the buffered TCP intake's framing and backpressure, and UDP intake on
// the drive thread (kernel buffering, drop accounting, control under a
// flood).
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/streaming.hpp"
#include "analysis/telemetry.hpp"
#include "cli_options.hpp"
#include "util/jobs.hpp"
#include "util/metrics.hpp"
#include "dns/capture.hpp"
#include "labeling/ground_truth.hpp"
#include "net/socket.hpp"
#include "serve/daemon.hpp"
#include "serve/intake.hpp"
#include "util/binio.hpp"
#include "util/fuzz.hpp"
#include "util/parallel.hpp"
#include "util/strings.hpp"
#include "util/trace.hpp"

namespace dnsbs {
namespace {

using dns::QueryRecord;
using dns::RCode;
using net::IPv4Addr;
using util::SimTime;

// ---- CLI parsing regressions -------------------------------------------

bool parse_args(std::vector<std::string> args, cli::Options& opt, std::string& error) {
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>("dnsbs"));
  for (std::string& a : args) argv.push_back(a.data());
  return cli::parse(static_cast<int>(argv.size()), argv.data(), opt, error);
}

TEST(CliParse, TrailingFlagWithoutValueIsAnError) {
  // Used to be silently ignored: `dnsbs serve --window` just dropped the
  // flag and ran with the default.
  cli::Options opt;
  std::string error;
  EXPECT_FALSE(parse_args({"serve", "--window"}, opt, error));
  EXPECT_NE(error.find("flag requires a value: --window"), std::string::npos) << error;
}

TEST(CliParse, PartialNumericIsAnError) {
  // Used to be truncated: atof/strtoull turned "12x" into 12.
  cli::Options opt;
  std::string error;
  EXPECT_FALSE(parse_args({"serve", "--window", "12x"}, opt, error));
  EXPECT_NE(error.find("--window"), std::string::npos) << error;
  EXPECT_EQ(opt.window_secs, 86400) << "default must survive a failed parse";

  EXPECT_FALSE(parse_args({"generate", "--scale", "abc"}, opt, error));
  EXPECT_NE(error.find("--scale"), std::string::npos) << error;
}

TEST(CliParse, PortOutOfRangeIsAnError) {
  cli::Options opt;
  std::string error;
  EXPECT_FALSE(parse_args({"serve", "--udp-port", "70000"}, opt, error));
  EXPECT_FALSE(parse_args({"serve", "--udp-port", "-1"}, opt, error));
  EXPECT_EQ(opt.udp_port, 0);
}

TEST(CliParse, UnknownFlagIsAnError) {
  cli::Options opt;
  std::string error;
  EXPECT_FALSE(parse_args({"serve", "--no-such-flag", "1"}, opt, error));
  EXPECT_NE(error.find("unknown flag: --no-such-flag"), std::string::npos) << error;
}

TEST(CliParse, FullServeCommandLine) {
  cli::Options opt;
  std::string error;
  ASSERT_TRUE(parse_args({"serve", "--udp-port", "9000", "--tcp-port", "9001", "--stamped",
                          "--window", "3600", "--hop", "600", "--checkpoint", "/tmp/ck",
                          "--restore", "--queue", "128", "--windows-out", "/tmp/w"},
                         opt, error))
      << error;
  EXPECT_EQ(opt.command, "serve");
  EXPECT_EQ(opt.udp_port, 9000);
  EXPECT_TRUE(opt.tcp) << "--tcp-port implies the TCP listener";
  EXPECT_EQ(opt.tcp_port, 9001);
  EXPECT_TRUE(opt.stamped);
  EXPECT_EQ(opt.window_secs, 3600);
  EXPECT_EQ(opt.hop_secs, 600);
  EXPECT_EQ(opt.checkpoint_path, "/tmp/ck");
  EXPECT_TRUE(opt.restore);
  EXPECT_EQ(opt.queue_capacity, 128u);
  EXPECT_EQ(opt.windows_out, "/tmp/w");
}

TEST(CliParse, MetricsFormatOverrideAndSuffixConflict) {
  cli::Options opt;
  std::string error;
  ASSERT_TRUE(parse_args({"analyze", "--metrics-out", "m.txt", "--metrics-format", "prom"},
                         opt, error))
      << error;
  EXPECT_EQ(opt.metrics_format, "prom");

  EXPECT_FALSE(parse_args({"analyze", "--metrics-format", "xml"}, opt, error));
  EXPECT_NE(error.find("--metrics-format"), std::string::npos) << error;

  // .prom has always meant Prometheus; an explicit json override that
  // contradicts the suffix is ambiguous and must be a hard error.
  EXPECT_FALSE(parse_args(
      {"analyze", "--metrics-out", "m.prom", "--metrics-format", "json"}, opt, error));
  EXPECT_NE(error.find("conflicts"), std::string::npos) << error;

  // Agreeing with the suffix (or overriding a non-.prom path) is fine.
  ASSERT_TRUE(parse_args(
      {"analyze", "--metrics-out", "m.prom", "--metrics-format", "prom"}, opt, error))
      << error;
  ASSERT_TRUE(parse_args(
      {"analyze", "--metrics-out", "m.json", "--metrics-format", "json"}, opt, error))
      << error;
}

TEST(CliParse, TelemetryFlags) {
  cli::Options opt;
  std::string error;
  ASSERT_TRUE(parse_args({"serve", "--trace-out", "/tmp/t.json", "--history-cap", "8"},
                         opt, error))
      << error;
  EXPECT_EQ(opt.trace_out, "/tmp/t.json");
  EXPECT_EQ(opt.history_cap, 8u);
  EXPECT_FALSE(parse_args({"serve", "--history-cap", "many"}, opt, error));
}

TEST(CliParse, AsyncWindowsFlag) {
  cli::Options opt;
  std::string error;
  EXPECT_TRUE(opt.async_windows) << "async pipeline is the serve default";
  ASSERT_TRUE(parse_args({"serve", "--async-windows", "off"}, opt, error)) << error;
  EXPECT_FALSE(opt.async_windows);
  ASSERT_TRUE(parse_args({"serve", "--async-windows", "on"}, opt, error)) << error;
  EXPECT_TRUE(opt.async_windows);
  EXPECT_FALSE(parse_args({"serve", "--async-windows", "maybe"}, opt, error));
  EXPECT_NE(error.find("--async-windows"), std::string::npos) << error;

  ASSERT_TRUE(parse_args({"serve", "--job-threads", "4"}, opt, error)) << error;
  EXPECT_EQ(opt.job_threads, 4u);
  EXPECT_FALSE(parse_args({"serve", "--job-threads", "65"}, opt, error));
  EXPECT_FALSE(parse_args({"serve", "--job-threads", "two"}, opt, error));
}

TEST(CliParse, StrictNumericHelpers) {
  std::uint64_t u = 7;
  std::string why;
  EXPECT_TRUE(util::parse_u64("42", u, &why));
  EXPECT_EQ(u, 42u);
  EXPECT_FALSE(util::parse_u64("42z", u, &why));
  EXPECT_EQ(u, 42u) << "out-parameter untouched on failure";
  EXPECT_FALSE(util::parse_u64("", u, &why));
  EXPECT_FALSE(util::parse_u64("99999999999999999999999", u, &why));

  std::int64_t i = 0;
  EXPECT_TRUE(util::parse_i64("-5", i, &why));
  EXPECT_EQ(i, -5);

  double d = 0;
  EXPECT_TRUE(util::parse_f64("0.25", d, &why));
  EXPECT_EQ(d, 0.25);
  EXPECT_FALSE(util::parse_f64("0.25x", d, &why));
}

// ---- bounded intake queue ----------------------------------------------

TEST(BoundedQueue, TryPushDropsWhenFull) {
  serve::BoundedQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1));
  EXPECT_TRUE(q.try_push(2));
  EXPECT_FALSE(q.try_push(3));  // full: UDP-style drop
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 10, 0), 2u);
  EXPECT_EQ(out, (std::vector<int>{1, 2}));
}

TEST(BoundedQueue, BlockingPushWaitsForSpace) {
  serve::BoundedQueue<int> q(1);
  ASSERT_TRUE(q.try_push(1));
  std::thread producer([&q] { EXPECT_TRUE(q.push(2)); });
  std::vector<int> out;
  // Drain one item; the blocked producer must then complete.
  while (q.pop_batch(out, 1, 100) == 0) {
  }
  producer.join();
  EXPECT_EQ(out.front(), 1);
  out.clear();
  EXPECT_EQ(q.pop_batch(out, 1, 1000), 1u);
  EXPECT_EQ(out.front(), 2);
}

TEST(BoundedQueue, CloseRejectsProducersAndDrains) {
  serve::BoundedQueue<int> q(4);
  ASSERT_TRUE(q.try_push(1));
  std::thread blocked([&q] {
    serve::BoundedQueue<int> full(1);
    EXPECT_TRUE(full.try_push(9));
    full.close();
    EXPECT_FALSE(full.push(10)) << "close() must wake and reject a blocked push";
  });
  blocked.join();
  q.close();
  EXPECT_FALSE(q.try_push(2));
  EXPECT_FALSE(q.push(3));
  std::vector<int> out;
  EXPECT_EQ(q.pop_batch(out, 10, 0), 1u) << "consumer can drain after close";
  EXPECT_EQ(q.pop_batch(out, 10, 0), 0u);
}

// ---- streaming driver fixtures -----------------------------------------

IPv4Addr addr(int a, int b, int c, int d) {
  return IPv4Addr((std::uint32_t(a) << 24) | (std::uint32_t(b) << 16) |
                  (std::uint32_t(c) << 8) | std::uint32_t(d));
}

QueryRecord rec(std::int64_t secs, IPv4Addr querier, IPv4Addr originator) {
  return QueryRecord{SimTime::seconds(secs), querier, originator, RCode::kNoError};
}

/// Category cycles with the querier's last octet; stable per address, as
/// carry-forward requires.
class CategoryResolver final : public core::QuerierResolver {
 public:
  core::QuerierInfo resolve(IPv4Addr querier) const override {
    core::QuerierInfo info;
    switch (querier.octet(3) % 4) {
      case 0:
        info.status = core::ResolveStatus::kOk;
        info.name = *dns::DnsName::parse("mail.example.com");
        break;
      case 1:
        info.status = core::ResolveStatus::kOk;
        info.name = *dns::DnsName::parse("ns1.example.com");
        break;
      case 2:
        info.status = core::ResolveStatus::kNxDomain;
        break;
      default:
        info.status = core::ResolveStatus::kUnreachable;
        break;
    }
    return info;
  }
};

struct Dbs {
  netdb::AsDb as_db;
  netdb::GeoDb geo_db;
  Dbs() {
    as_db.add(*net::Prefix::parse("10.0.0.0/16"), 100, "as-a");
    as_db.add(*net::Prefix::parse("10.1.0.0/16"), 200, "as-b");
    as_db.add(*net::Prefix::parse("10.2.0.0/16"), 300, "as-c");
    geo_db.add(*net::Prefix::parse("10.0.0.0/16"), netdb::CountryCode('j', 'p'));
    geo_db.add(*net::Prefix::parse("10.1.0.0/16"), netdb::CountryCode('u', 's'));
    geo_db.add(*net::Prefix::parse("10.2.0.0/16"), netdb::CountryCode('d', 'e'));
  }
};

analysis::WindowedPipelineConfig pipeline_config() {
  analysis::WindowedPipelineConfig pc;
  pc.sensor.min_queriers = 4;
  pc.forest.n_trees = 8;
  pc.seed = 11;
  return pc;
}

labeling::GroundTruth make_labels() {
  labeling::GroundTruth labels;
  labels.add(addr(192, 0, 2, 0), core::AppClass::kScan);
  labels.add(addr(192, 0, 2, 1), core::AppClass::kScan);
  labels.add(addr(192, 0, 2, 2), core::AppClass::kSpam);
  labels.add(addr(192, 0, 2, 3), core::AppClass::kSpam);
  return labels;
}

/// One 600-second block of traffic: 6 originators, footprints 4..9.
void append_block(std::vector<QueryRecord>& out, std::int64_t start) {
  for (int o = 0; o < 6; ++o) {
    for (int q = 0; q < 4 + o; ++q) {
      out.push_back(rec(start + q * 7 + o, addr(10, o % 3, q, (q * 3 + o) % 8),
                        addr(192, 0, 2, o)));
    }
  }
}

/// Renders one window the way the daemon's --windows-out summaries do
/// (hexfloat rows, address-sorted classes, window stats), so equality of
/// the rendered strings is the byte-identity claim.
std::string render_window(const analysis::WindowResult& r,
                          const labeling::WindowObservation& obs, bool with_metrics) {
  std::ostringstream out;
  char buf[48];
  out << "window " << r.index << " start=" << r.start.secs() << " end=" << r.end.secs()
      << "\n";
  out << "features " << obs.features.size() << "\n";
  for (const core::FeatureVector& fv : obs.features) {
    out << "row " << fv.originator.to_string() << " footprint=" << fv.footprint;
    for (const double v : fv.statics) {
      std::snprintf(buf, sizeof(buf), " %a", v);
      out << buf;
    }
    for (const double v : fv.dynamics) {
      std::snprintf(buf, sizeof(buf), " %a", v);
      out << buf;
    }
    out << "\n";
  }
  std::vector<std::pair<IPv4Addr, core::AppClass>> classes(r.classes.begin(),
                                                           r.classes.end());
  std::sort(classes.begin(), classes.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  out << "classes " << classes.size() << "\n";
  for (const auto& [originator, cls] : classes) {
    const auto fp = r.footprints.find(originator);
    out << "class " << originator.to_string() << ' ' << static_cast<int>(cls)
        << " footprint=" << (fp != r.footprints.end() ? fp->second : 0) << "\n";
  }
  if (with_metrics) {
    for (const auto& [name, value] : r.stats.series()) {
      out << "metric " << name << '=' << value << "\n";
    }
  }
  return out.str();
}

std::vector<std::string> render_all(analysis::WindowedPipeline& pipeline,
                                    bool with_metrics) {
  std::vector<std::string> rendered;
  const auto& results = pipeline.results();
  const auto& observations = pipeline.observations();
  for (std::size_t i = 0; i < results.size(); ++i) {
    rendered.push_back(render_window(results[i], observations[i], with_metrics));
  }
  return rendered;
}

// ---- streaming driver vs batch pipeline (oracle) -----------------------

TEST(StreamingDriver, TumblingWindowsMatchBatchPipeline) {
  Dbs dbs;
  const CategoryResolver resolver;
  const SimTime window = SimTime::seconds(600);

  // Traffic in windows 0, 1 and 3; window 2 is a silent gap the driver
  // must still emit (empty) to keep indices and retrain seeds aligned.
  std::vector<QueryRecord> records;
  for (const std::int64_t w : {0, 1, 3}) append_block(records, w * 600);

  analysis::WindowedPipeline batch(pipeline_config(), dbs.as_db, dbs.geo_db, resolver);
  batch.set_labels(make_labels());
  for (int w = 0; w < 4; ++w) {
    std::vector<QueryRecord> in_window;
    for (const QueryRecord& r : records) {
      if (r.time.secs() >= w * 600 && r.time.secs() < (w + 1) * 600) {
        in_window.push_back(r);
      }
    }
    batch.process_window(in_window, SimTime::seconds(w * 600),
                         SimTime::seconds((w + 1) * 600));
  }

  analysis::WindowedPipeline streamed(pipeline_config(), dbs.as_db, dbs.geo_db, resolver);
  streamed.set_labels(make_labels());
  analysis::StreamingConfig sc;
  sc.window = window;
  analysis::StreamingWindowDriver driver(sc, streamed, dbs.as_db, dbs.geo_db, resolver);
  for (const QueryRecord& r : records) driver.offer(r);
  driver.flush();

  EXPECT_EQ(driver.windows_closed(), 4u);
  EXPECT_EQ(driver.open_windows(), 0u);
  EXPECT_EQ(driver.late_records(), 0u);

  // Window stats come from each window's own sensor, so record-at-a-time
  // and bulk ingest agree on them too.
  const auto expect = render_all(batch, /*with_metrics=*/true);
  const auto got = render_all(streamed, /*with_metrics=*/true);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "window " << i;
  }
  EXPECT_EQ(expect[1].find("classes 0\n"), std::string::npos)
      << "model should be trained and classifying by window 1";
}

TEST(StreamingDriver, HoppingWindowsMatchBatchPipeline) {
  Dbs dbs;
  const CategoryResolver resolver;

  std::vector<QueryRecord> records;
  for (const std::int64_t w : {0, 1, 3}) append_block(records, w * 600);

  // Overlapping windows: width 600, hop 300 -> every record lands in two
  // windows, and the 900 and 1500 starts are empty or partial.
  analysis::WindowedPipeline batch(pipeline_config(), dbs.as_db, dbs.geo_db, resolver);
  batch.set_labels(make_labels());
  for (std::int64_t start = 0; start <= 1800; start += 300) {
    std::vector<QueryRecord> in_window;
    for (const QueryRecord& r : records) {
      if (r.time.secs() >= start && r.time.secs() < start + 600) in_window.push_back(r);
    }
    batch.process_window(in_window, SimTime::seconds(start), SimTime::seconds(start + 600));
  }

  analysis::WindowedPipeline streamed(pipeline_config(), dbs.as_db, dbs.geo_db, resolver);
  streamed.set_labels(make_labels());
  analysis::StreamingConfig sc;
  sc.window = SimTime::seconds(600);
  sc.hop = SimTime::seconds(300);
  analysis::StreamingWindowDriver driver(sc, streamed, dbs.as_db, dbs.geo_db, resolver);
  for (const QueryRecord& r : records) driver.offer(r);
  driver.flush();

  EXPECT_EQ(driver.windows_closed(), 7u);
  const auto expect = render_all(batch, /*with_metrics=*/true);
  const auto got = render_all(streamed, /*with_metrics=*/true);
  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "window " << i;
  }
}

TEST(StreamingDriver, RecordOlderThanEveryOpenWindowIsLate) {
  Dbs dbs;
  const CategoryResolver resolver;
  analysis::WindowedPipeline pipeline(pipeline_config(), dbs.as_db, dbs.geo_db, resolver);
  analysis::StreamingConfig sc;
  sc.window = SimTime::seconds(100);
  analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db, resolver);

  driver.offer(rec(0, addr(10, 0, 0, 1), addr(192, 0, 2, 0)));
  driver.offer(rec(250, addr(10, 0, 0, 1), addr(192, 0, 2, 0)));  // closes w0, w1
  EXPECT_EQ(driver.windows_closed(), 2u);
  driver.offer(rec(50, addr(10, 0, 0, 2), addr(192, 0, 2, 0)));  // before w2's start
  EXPECT_EQ(driver.late_records(), 1u);
  driver.flush();
  EXPECT_EQ(driver.windows_closed(), 3u);
}

// ---- checkpoint / restore ----------------------------------------------

TEST(StreamingDriver, CheckpointRestoreIsByteIdentical) {
  Dbs dbs;
  const CategoryResolver resolver;

  // Four contiguous windows of traffic; the checkpoint lands mid-window 2
  // so the saved state carries a partially-filled sensor and live dedup
  // entries, not just a window boundary.
  std::vector<QueryRecord> records;
  for (const std::int64_t w : {0, 1, 2, 3}) append_block(records, w * 600);
  std::size_t split = 0;
  while (split < records.size() && records[split].time.secs() < 1300) ++split;
  ASSERT_GT(split, 0u);
  ASSERT_LT(split, records.size());

  // Tumbling windows, and 600 s windows on a 200 s hop: there the cut
  // leaves three overlapping windows open, each with records on both
  // sides of it.
  struct Grid {
    std::int64_t hop;
    std::size_t windows, closed_at_cut, open_at_cut;
  };
  for (const Grid g : {Grid{0, 4, 2, 1}, Grid{200, 10, 4, 3}}) {
    SCOPED_TRACE("hop=" + std::to_string(g.hop));
    analysis::StreamingConfig sc;
    sc.window = SimTime::seconds(600);
    sc.hop = SimTime::seconds(g.hop);

    // Run A: uninterrupted.
    std::vector<std::string> expect;
    {
      analysis::WindowedPipeline pipeline(pipeline_config(), dbs.as_db, dbs.geo_db,
                                          resolver);
      pipeline.set_labels(make_labels());
      analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db,
                                             resolver);
      for (const QueryRecord& r : records) driver.offer(r);
      driver.flush();
      expect = render_all(pipeline, /*with_metrics=*/true);
    }
    ASSERT_EQ(expect.size(), g.windows);

    // Run B: same stream, killed mid-window-2 and restored into a fresh
    // pipeline + driver pair.
    std::stringstream checkpoint;
    std::vector<std::string> got;
    {
      analysis::WindowedPipeline pipeline(pipeline_config(), dbs.as_db, dbs.geo_db,
                                          resolver);
      pipeline.set_labels(make_labels());
      analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db,
                                             resolver);
      for (std::size_t i = 0; i < split; ++i) driver.offer(records[i]);
      EXPECT_EQ(driver.open_windows(), g.open_at_cut) << "checkpoint should land mid-window";
      ASSERT_TRUE(driver.save(checkpoint));
      got = render_all(pipeline, /*with_metrics=*/true);  // windows closed pre-kill
    }
    {
      analysis::WindowedPipeline pipeline(pipeline_config(), dbs.as_db, dbs.geo_db,
                                          resolver);
      pipeline.set_labels(make_labels());
      analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db,
                                             resolver);
      ASSERT_TRUE(driver.restore(checkpoint));
      EXPECT_EQ(driver.windows_closed(), g.closed_at_cut);
      EXPECT_EQ(driver.open_windows(), g.open_at_cut);
      for (std::size_t i = split; i < records.size(); ++i) driver.offer(records[i]);
      driver.flush();
      EXPECT_EQ(driver.windows_closed(), g.windows);
      for (std::string& s : render_all(pipeline, /*with_metrics=*/true)) {
        got.push_back(std::move(s));
      }
    }
    ASSERT_EQ(got.size(), expect.size());
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(got[i], expect[i]) << "window " << i
                                   << " diverged across the checkpoint restart";
    }

    // Run C: uninterrupted, but with a /metrics-style publish of the open
    // windows' pending tallies at the cut.  A window's stats are its own:
    // the publish must not move counts between overlapping windows.
    {
      analysis::WindowedPipeline pipeline(pipeline_config(), dbs.as_db, dbs.geo_db,
                                          resolver);
      pipeline.set_labels(make_labels());
      analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db,
                                             resolver);
      for (std::size_t i = 0; i < split; ++i) driver.offer(records[i]);
      driver.publish_pending_metrics();
      for (std::size_t i = split; i < records.size(); ++i) driver.offer(records[i]);
      driver.flush();
      const std::vector<std::string> published = render_all(pipeline, /*with_metrics=*/true);
      ASSERT_EQ(published.size(), expect.size());
      for (std::size_t i = 0; i < expect.size(); ++i) {
        EXPECT_EQ(published[i], expect[i]) << "window " << i
                                           << " changed by a mid-stream publish";
      }
    }
  }
}

TEST(StreamingDriver, CheckpointRestoreIsByteIdenticalInSketchMode) {
  // Same mid-window kill-and-restore contract as the exact-mode test, but
  // with querier state in sketch mode and the promotion threshold set low
  // enough that some originators are promoted (registers + frozen sample)
  // and some are still exact histograms when the checkpoint lands.  The
  // rendered windows include the deterministic metric view, so the
  // dnsbs.aggregate.sketch_* counters must also survive the restart.
  Dbs dbs;
  const CategoryResolver resolver;
  analysis::StreamingConfig sc;
  sc.window = SimTime::seconds(600);

  analysis::WindowedPipelineConfig pc = pipeline_config();
  pc.sensor.querier_state = core::QuerierStateMode::kSketch;
  pc.sensor.sketch_promote_threshold = 6;  // footprints 7..9 promote, 4..6 stay exact

  std::vector<QueryRecord> records;
  for (const std::int64_t w : {0, 1, 2, 3}) append_block(records, w * 600);
  std::size_t split = 0;
  while (split < records.size() && records[split].time.secs() < 1300) ++split;
  ASSERT_GT(split, 0u);
  ASSERT_LT(split, records.size());

  std::vector<std::string> expect;
  {
    analysis::WindowedPipeline pipeline(pc, dbs.as_db, dbs.geo_db, resolver);
    pipeline.set_labels(make_labels());
    analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db, resolver);
    for (const QueryRecord& r : records) driver.offer(r);
    driver.flush();
    expect = render_all(pipeline, /*with_metrics=*/true);
  }
  ASSERT_EQ(expect.size(), 4u);
#if DNSBS_METRICS_ENABLED
  bool saw_promotion = false;
  for (const std::string& w : expect) {
    const auto pos = w.find("metric dnsbs.aggregate.sketch_promotions=");
    if (pos != std::string::npos && w.compare(pos + 41, 1, "0") != 0) {
      saw_promotion = true;
    }
  }
  EXPECT_TRUE(saw_promotion) << "threshold too high to exercise promotion";
#endif

  std::stringstream checkpoint;
  std::vector<std::string> got;
  {
    analysis::WindowedPipeline pipeline(pc, dbs.as_db, dbs.geo_db, resolver);
    pipeline.set_labels(make_labels());
    analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db, resolver);
    for (std::size_t i = 0; i < split; ++i) driver.offer(records[i]);
    EXPECT_EQ(driver.open_windows(), 1u) << "checkpoint should land mid-window";
    ASSERT_TRUE(driver.save(checkpoint));
    got = render_all(pipeline, /*with_metrics=*/true);
  }
  {
    analysis::WindowedPipeline pipeline(pc, dbs.as_db, dbs.geo_db, resolver);
    pipeline.set_labels(make_labels());
    analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db, resolver);
    ASSERT_TRUE(driver.restore(checkpoint));
    for (std::size_t i = split; i < records.size(); ++i) driver.offer(records[i]);
    driver.flush();
    EXPECT_EQ(driver.windows_closed(), 4u);
    for (std::string& s : render_all(pipeline, /*with_metrics=*/true)) {
      got.push_back(std::move(s));
    }
  }

  ASSERT_EQ(got.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(got[i], expect[i]) << "window " << i
                                 << " diverged across the sketch-mode restart";
  }
}

TEST(StreamingDriver, RestoreRejectsMismatchedConfig) {
  Dbs dbs;
  const CategoryResolver resolver;
  analysis::StreamingConfig sc;
  sc.window = SimTime::seconds(600);

  std::stringstream checkpoint;
  {
    analysis::WindowedPipeline pipeline(pipeline_config(), dbs.as_db, dbs.geo_db,
                                        resolver);
    analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db, resolver);
    driver.offer(rec(10, addr(10, 0, 0, 1), addr(192, 0, 2, 0)));
    ASSERT_TRUE(driver.save(checkpoint));
  }
  {
    analysis::WindowedPipeline pipeline(pipeline_config(), dbs.as_db, dbs.geo_db,
                                        resolver);
    analysis::StreamingConfig other = sc;
    other.window = SimTime::seconds(300);
    analysis::StreamingWindowDriver driver(other, pipeline, dbs.as_db, dbs.geo_db,
                                           resolver);
    EXPECT_FALSE(driver.restore(checkpoint));
  }
  {
    analysis::WindowedPipeline pipeline(pipeline_config(), dbs.as_db, dbs.geo_db,
                                        resolver);
    analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db, resolver);
    std::stringstream garbage("not a checkpoint at all");
    EXPECT_FALSE(driver.restore(garbage));
  }
  // Images from older formats are refused, not misread: version 3 carried
  // registry snapshots, version 4 per-aggregate and per-row modification
  // stamps.
  for (const char version : {3, 4}) {
    std::string image = checkpoint.str();
    ASSERT_GT(image.size(), 12u);
    image[8] = version;  // u32 LE version right after the 8-byte magic
    image[9] = image[10] = image[11] = 0;
    analysis::WindowedPipeline pipeline(pipeline_config(), dbs.as_db, dbs.geo_db,
                                        resolver);
    analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db, resolver);
    std::istringstream old_version(image);
    EXPECT_FALSE(driver.restore(old_version)) << "version " << int{version};
  }
}

// ---- per-window telemetry history --------------------------------------

TEST(TelemetryHistory, DerivesGaugesAndTrimsToCapacity) {
  analysis::TelemetryHistory h(2);
  analysis::WindowTelemetry e;
  e.index = 0;
  e.stats.dedup_admitted = 3;
  e.stats.dedup_suppressed = 1;
  e.stats.records = 9;
  e.stats.late_records = 1;
  const auto& stored = h.record(e);
  EXPECT_DOUBLE_EQ(stored.dedup_ratio, 0.25);
  EXPECT_DOUBLE_EQ(stored.late_rate, 0.1);
  e.index = 1;
  h.record(e);
  e.index = 2;
  h.record(e);
  EXPECT_EQ(h.size(), 2u);
  EXPECT_EQ(h.entries().front().index, 1u) << "oldest entry must be evicted";
}

TEST(TelemetryHistory, DriftWarnsOnceBaselineIsPopulated) {
  analysis::TelemetryHistory h(16, /*drift_warn_threshold=*/0.5);
  analysis::WindowTelemetry e;
  e.stats.classified = 10;
  e.class_counts[0] = 10;  // all predictions in class 0
  for (std::uint64_t i = 0; i < 3; ++i) {
    e.index = i;
    EXPECT_FALSE(h.record(e).drift_warned) << "baseline not yet populated at " << i;
  }
  analysis::WindowTelemetry shifted;
  shifted.index = 3;
  shifted.stats.classified = 10;
  shifted.class_counts[1] = 10;  // disjoint mix: total variation = 1
  const auto& warned = h.record(shifted);
  EXPECT_DOUBLE_EQ(warned.drift, 1.0);
  EXPECT_TRUE(warned.drift_warned);
  // Identical mix drifts by 0 and never warns.
  e.index = 4;
  const auto& same = h.record(e);
  EXPECT_LT(same.drift, 0.5);
}

TEST(TelemetryHistory, JsonCarriesGoldenKeysOnOneLine) {
  analysis::TelemetryHistory h(4);
  analysis::WindowTelemetry e;
  e.index = 7;
  e.start_secs = 600;
  e.end_secs = 1200;
  e.stats.records = 5;
  e.stats.classified = 2;
  e.class_counts[0] = 2;
  e.stats.retrained = true;
  e.confidence_hist[9] = 2;
  e.queue_depth_peak = 42;
  h.record(e);

  const std::string json = h.to_json();
  EXPECT_EQ(json.rfind("{\"count\":1,\"capacity\":4,\"windows\":[", 0), 0u) << json;
  EXPECT_EQ(json.find('\n'), std::string::npos) << "control replies are one line";
  for (const char* key :
       {"\"index\":7", "\"start\":600", "\"end\":1200", "\"records\":5",
        "\"interesting\":", "\"dedup\":{\"admitted\":", "\"ratio\":",
        "\"late\":{\"records\":", "\"rate\":", "\"classified\":2", "\"retrained\":true",
        "\"confidence\":[0,0,0,0,0,0,0,0,0,2]", "\"class_mix\":{", "\"drift\":",
        "\"drift_warn\":false", "\"sched\":{\"queue_depth_peak\":42}"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << " missing in " << json;
  }
  // last_n views report what they contain, newest last.
  h.record(e);
  EXPECT_EQ(h.to_json(1).rfind("{\"count\":1,\"capacity\":4,", 0), 0u);
  EXPECT_EQ(h.to_json(0).rfind("{\"count\":2,\"capacity\":4,", 0), 0u);
}

TEST(TelemetryHistory, BinaryRoundTripIsExact) {
  analysis::TelemetryHistory a(8);
  analysis::WindowTelemetry e;
  e.stats.classified = 4;
  e.class_counts[2] = 4;
  e.stats.dedup_admitted = 10;
  e.stats.dedup_suppressed = 30;
  e.queue_depth_peak = 17;
  for (std::uint64_t i = 0; i < 5; ++i) {
    e.index = i;
    a.record(e);
  }
  std::stringstream state;
  util::BinaryWriter writer(state);
  a.save(writer);
  ASSERT_TRUE(writer.ok());

  analysis::TelemetryHistory b(8);
  util::BinaryReader reader(state);
  ASSERT_TRUE(b.load(reader));
  EXPECT_EQ(a.to_json(), b.to_json());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.entries()[i], b.entries()[i]) << "entry " << i;
  }

  // A ring sized differently is a config mismatch, not a silent resize.
  std::stringstream again;
  util::BinaryWriter w2(again);
  a.save(w2);
  analysis::TelemetryHistory c(4);
  util::BinaryReader r2(again);
  EXPECT_FALSE(c.load(r2));
}

TEST(StreamingDriver, HistorySurvivesCheckpointByteIdentically) {
  Dbs dbs;
  const CategoryResolver resolver;
  analysis::StreamingConfig sc;
  sc.window = SimTime::seconds(600);

  std::vector<QueryRecord> records;
  for (const std::int64_t w : {0, 1, 2, 3}) append_block(records, w * 600);
  std::size_t split = 0;
  while (split < records.size() && records[split].time.secs() < 1300) ++split;

  // Run A: uninterrupted reference history.
  std::string expect_history;
  {
    analysis::WindowedPipeline pipeline(pipeline_config(), dbs.as_db, dbs.geo_db,
                                        resolver);
    pipeline.set_labels(make_labels());
    analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db, resolver);
    for (const QueryRecord& r : records) driver.offer(r);
    driver.flush();
    EXPECT_EQ(driver.telemetry().size(), 4u);
    expect_history = driver.history_json();
  }

  // Run B: killed mid-window-2, restored, finished.
  std::stringstream checkpoint;
  std::string at_kill;
  {
    analysis::WindowedPipeline pipeline(pipeline_config(), dbs.as_db, dbs.geo_db,
                                        resolver);
    pipeline.set_labels(make_labels());
    analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db, resolver);
    for (std::size_t i = 0; i < split; ++i) driver.offer(records[i]);
    ASSERT_TRUE(driver.save(checkpoint));
    at_kill = driver.history_json();
  }
  {
    analysis::WindowedPipeline pipeline(pipeline_config(), dbs.as_db, dbs.geo_db,
                                        resolver);
    pipeline.set_labels(make_labels());
    analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db, resolver);
    ASSERT_TRUE(driver.restore(checkpoint));
    EXPECT_EQ(driver.history_json(), at_kill)
        << "restored daemon must answer HISTORY exactly as the killed one";
    for (std::size_t i = split; i < records.size(); ++i) driver.offer(records[i]);
    driver.flush();
    EXPECT_EQ(driver.history_json(), expect_history)
        << "completed history must match the uninterrupted run";
  }
}

TEST(StreamingDriver, HistoryAndWindowsIdenticalAcrossThreadCounts) {
  // The full observability plane active (trace capture + telemetry ring)
  // must not perturb the determinism contract: windows, window stats and
  // the rendered history are byte-identical for 1/2/4 worker threads.
  struct ThreadCountGuard {
    ~ThreadCountGuard() { util::set_thread_count(0); }
  } guard;
  Dbs dbs;
  const CategoryResolver resolver;
  analysis::StreamingConfig sc;
  sc.window = SimTime::seconds(600);

  std::vector<QueryRecord> records;
  for (const std::int64_t w : {0, 1, 2, 3}) append_block(records, w * 600);

  std::vector<std::string> baseline_windows;
  std::string baseline_history;
  for (const std::size_t threads : {std::size_t{1}, std::size_t{2}, std::size_t{4}}) {
    util::set_thread_count(threads);
    util::trace_start();
    analysis::WindowedPipeline pipeline(pipeline_config(), dbs.as_db, dbs.geo_db,
                                        resolver);
    pipeline.set_labels(make_labels());
    analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db, resolver);
    for (const QueryRecord& r : records) driver.offer(r);
    driver.flush();
    util::trace_stop();
    const auto rendered = render_all(pipeline, /*with_metrics=*/true);
    const std::string history = driver.history_json();
    if (threads == 1) {
      baseline_windows = rendered;
      baseline_history = history;
      continue;
    }
    ASSERT_EQ(rendered.size(), baseline_windows.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < rendered.size(); ++i) {
      EXPECT_EQ(rendered[i], baseline_windows[i])
          << "window " << i << " diverged at threads=" << threads;
    }
    EXPECT_EQ(history, baseline_history) << "history diverged at threads=" << threads;
  }
}

// ---- async window pipeline vs sync (oracle) ----------------------------

struct StreamRun {
  std::vector<std::string> windows;  ///< rendered with window stats
  std::string history;
};

/// Runs the full record stream through a fresh pipeline + driver pair and
/// returns the rendered windows + telemetry history.  `jobs_threads` < 0
/// selects sync mode; >= 0 selects async mode with that many job-system
/// workers (0 = everything runs inline at the quiesce barriers).
StreamRun run_stream(const std::vector<QueryRecord>& records,
                     analysis::StreamingConfig sc, int jobs_threads) {
  Dbs dbs;
  const CategoryResolver resolver;
  analysis::WindowedPipelineConfig pc = pipeline_config();
  sc.async_windows = jobs_threads >= 0;
  if (sc.async_windows) {
    pc.jobs = std::make_shared<util::JobSystem>(util::JobSystemConfig{
        .threads = static_cast<std::size_t>(jobs_threads), .metric_prefix = {}});
  }
  analysis::WindowedPipeline pipeline(pc, dbs.as_db, dbs.geo_db, resolver);
  pipeline.set_labels(make_labels());
  analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db, resolver);
  for (const QueryRecord& r : records) driver.offer(r);
  driver.flush();
  return StreamRun{render_all(pipeline, /*with_metrics=*/true), driver.history_json()};
}

TEST(AsyncWindows, TumblingMatchesSyncByteIdentically) {
  // The byte-identity contract of --async-windows: rendered windows
  // (features, classes, window stats) and the HISTORY ring
  // must equal the sync run's bytes for every worker count.
  std::vector<QueryRecord> records;
  for (const std::int64_t w : {0, 1, 3}) append_block(records, w * 600);
  analysis::StreamingConfig sc;
  sc.window = SimTime::seconds(600);

  const StreamRun expect = run_stream(records, sc, /*jobs_threads=*/-1);
  ASSERT_EQ(expect.windows.size(), 4u);
  for (const int threads : {0, 1, 2, 4}) {
    const StreamRun got = run_stream(records, sc, threads);
    ASSERT_EQ(got.windows.size(), expect.windows.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < expect.windows.size(); ++i) {
      EXPECT_EQ(got.windows[i], expect.windows[i])
          << "window " << i << " diverged from sync at jobs threads=" << threads;
    }
    EXPECT_EQ(got.history, expect.history)
        << "HISTORY diverged from sync at jobs threads=" << threads;
  }
}

TEST(AsyncWindows, HoppingMatchesSyncByteIdentically) {
  // Overlapping windows close in bursts (several ends can pass in one
  // offer), so multiple close jobs queue up back-to-back — the serial
  // close queue must still reproduce the sync bytes.
  std::vector<QueryRecord> records;
  for (const std::int64_t w : {0, 1, 3}) append_block(records, w * 600);
  analysis::StreamingConfig sc;
  sc.window = SimTime::seconds(600);
  sc.hop = SimTime::seconds(300);

  const StreamRun expect = run_stream(records, sc, /*jobs_threads=*/-1);
  ASSERT_EQ(expect.windows.size(), 7u);
  for (const int threads : {1, 2, 4}) {
    const StreamRun got = run_stream(records, sc, threads);
    ASSERT_EQ(got.windows.size(), expect.windows.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < expect.windows.size(); ++i) {
      EXPECT_EQ(got.windows[i], expect.windows[i])
          << "window " << i << " diverged from sync at jobs threads=" << threads;
    }
    EXPECT_EQ(got.history, expect.history)
        << "HISTORY diverged from sync at jobs threads=" << threads;
  }
}

TEST(AsyncWindows, MidCloseCheckpointContinuesInEitherMode) {
  // CHECKPOINT while an async close is in flight: save() quiesces, so the
  // snapshot is slot-exact, and the checkpoint restores into EITHER mode
  // (async_windows is an execution strategy, not part of the stream's
  // identity) with byte-identical continuation.
  Dbs dbs;
  const CategoryResolver resolver;
  analysis::StreamingConfig sc;
  sc.window = SimTime::seconds(600);

  std::vector<QueryRecord> records;
  for (const std::int64_t w : {0, 1, 2, 3}) append_block(records, w * 600);
  // Split right after the offer that seals window 1: its close job is
  // still in flight (or queued) when save() runs.
  std::size_t split = 0;
  while (split < records.size() && records[split].time.secs() < 1200) ++split;
  ++split;  // include the boundary-crossing record itself
  ASSERT_LT(split, records.size());

  const StreamRun expect = run_stream(records, sc, /*jobs_threads=*/-1);
  ASSERT_EQ(expect.windows.size(), 4u);

  // Async run, killed right behind the window-1 boundary.
  std::string checkpoint;
  std::vector<std::string> prefix;
  {
    analysis::WindowedPipelineConfig pc = pipeline_config();
    pc.jobs = std::make_shared<util::JobSystem>(
        util::JobSystemConfig{.threads = 2, .metric_prefix = {}});
    analysis::StreamingConfig async_sc = sc;
    async_sc.async_windows = true;
    analysis::WindowedPipeline pipeline(pc, dbs.as_db, dbs.geo_db, resolver);
    pipeline.set_labels(make_labels());
    analysis::StreamingWindowDriver driver(async_sc, pipeline, dbs.as_db, dbs.geo_db,
                                           resolver);
    for (std::size_t i = 0; i < split; ++i) driver.offer(records[i]);
    EXPECT_EQ(driver.windows_closed(), 2u);
    std::stringstream out;
    ASSERT_TRUE(driver.save(out));
    checkpoint = out.str();
    prefix = render_all(pipeline, /*with_metrics=*/true);
  }
  ASSERT_EQ(prefix.size(), 2u);

  // Continue the stream in each mode from the same checkpoint bytes.
  for (const bool resume_async : {false, true}) {
    analysis::WindowedPipelineConfig pc = pipeline_config();
    analysis::StreamingConfig resume_sc = sc;
    resume_sc.async_windows = resume_async;
    if (resume_async) {
      pc.jobs = std::make_shared<util::JobSystem>(
          util::JobSystemConfig{.threads = 2, .metric_prefix = {}});
    }
    analysis::WindowedPipeline pipeline(pc, dbs.as_db, dbs.geo_db, resolver);
    pipeline.set_labels(make_labels());
    analysis::StreamingWindowDriver driver(resume_sc, pipeline, dbs.as_db, dbs.geo_db,
                                           resolver);
    std::istringstream in(checkpoint);
    ASSERT_TRUE(driver.restore(in)) << "resume_async=" << resume_async;
    EXPECT_EQ(driver.windows_closed(), 2u);
    for (std::size_t i = split; i < records.size(); ++i) driver.offer(records[i]);
    driver.flush();

    std::vector<std::string> got = prefix;
    for (std::string& s : render_all(pipeline, /*with_metrics=*/true)) {
      got.push_back(std::move(s));
    }
    ASSERT_EQ(got.size(), expect.windows.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i], expect.windows[i])
          << "window " << i << " diverged (resume_async=" << resume_async << ")";
    }
    EXPECT_EQ(driver.history_json(), expect.history)
        << "resume_async=" << resume_async;
  }
}

TEST(AsyncWindows, CloseErrorSurfacesAtQuiesceNotInOffer) {
  // An error thrown by close-side work must not crash the drive thread
  // mid-offer; it surfaces at the next barrier and the driver stays
  // usable afterwards.
  Dbs dbs;
  const CategoryResolver resolver;
  analysis::WindowedPipelineConfig pc = pipeline_config();
  pc.jobs = std::make_shared<util::JobSystem>(
      util::JobSystemConfig{.threads = 1, .metric_prefix = {}});
  analysis::StreamingConfig sc;
  sc.window = SimTime::seconds(100);
  sc.async_windows = true;
  analysis::WindowedPipeline pipeline(pc, dbs.as_db, dbs.geo_db, resolver);
  analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db, resolver);
  bool fail_once = true;
  driver.set_window_close_callback(
      [&fail_once](const analysis::WindowResult&, const labeling::WindowObservation&) {
        if (fail_once) {
          fail_once = false;
          throw std::runtime_error("close callback failure");
        }
      });
  driver.offer(rec(10, addr(10, 0, 0, 1), addr(192, 0, 2, 0)));
  driver.offer(rec(150, addr(10, 0, 0, 2), addr(192, 0, 2, 0)));  // seals window 0
  EXPECT_THROW(driver.quiesce(), std::runtime_error);
  driver.offer(rec(250, addr(10, 0, 0, 3), addr(192, 0, 2, 0)));  // seals window 1
  driver.flush();  // second close succeeds; error slot was consumed
  EXPECT_EQ(driver.windows_closed(), 3u);
}

/// CategoryResolver that counts resolve() calls per querier (extraction
/// and resolve-ahead may call it from job-system and pool threads).
class CountingCategoryResolver final : public core::QuerierResolver {
 public:
  core::QuerierInfo resolve(IPv4Addr querier) const override {
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++counts_[querier.value()];
    }
    return base_.resolve(querier);
  }
  std::map<std::uint32_t, int> counts() const {
    std::lock_guard<std::mutex> lock(mu_);
    return counts_;
  }

 private:
  CategoryResolver base_;
  mutable std::mutex mu_;
  mutable std::map<std::uint32_t, int> counts_;
};

/// Three 600-second windows of 3,200 records each, every record from a
/// different querier; a window's first half brings new queriers, its
/// second half repeats the previous window's.  A 300-second hop thus spans
/// more than one resolve-ahead batch.
std::vector<QueryRecord> querier_churn_stream() {
  std::vector<QueryRecord> records;
  for (int w = 0; w < 3; ++w) {
    for (int i = 0; i < 3200; ++i) {
      const int q = w * 1600 + (i + 1600) % 3200;
      records.push_back(rec(w * 600 + i * 3 / 16, addr(10, q % 3, q / 256 % 256, q % 256),
                            addr(192, 0, 2, i % 6)));
    }
  }
  return records;
}

std::int64_t sched_count(const char* name) { return util::metrics_snapshot().scalar(name); }

TEST(AsyncWindows, ResolveAheadMovesLookupsOffTheCloseWithoutRepeats) {
  // Queriers resolve while their window is open, on the close queue; the
  // close only interns.  Each querier is resolved exactly once over the
  // run, none at close, the memo drains by flush(), and a checkpoint cut
  // while the memo holds entries resumes byte-identically (the memo is
  // not persisted: the restored driver resolves those queriers at close).
  Dbs dbs;
  const std::vector<QueryRecord> records = querier_churn_stream();
  std::set<std::uint32_t> distinct;
  for (const QueryRecord& r : records) distinct.insert(r.querier.value());
  // 100 s past the first close, behind a full resolve-ahead batch.
  const std::size_t cut = 3200 + 1100;

  for (const std::int64_t hop : {600, 300}) {
    SCOPED_TRACE("hop=" + std::to_string(hop));
    analysis::StreamingConfig sc;
    sc.window = SimTime::seconds(600);
    sc.hop = SimTime::seconds(hop);
    sc.async_windows = true;
    const auto make_pipeline = [&](const core::QuerierResolver& resolver) {
      analysis::WindowedPipelineConfig pc = pipeline_config();
      pc.jobs = std::make_shared<util::JobSystem>(
          util::JobSystemConfig{.threads = 2, .metric_prefix = {}});
      auto pipeline =
          std::make_unique<analysis::WindowedPipeline>(pc, dbs.as_db, dbs.geo_db, resolver);
      pipeline->set_labels(make_labels());
      return pipeline;
    };

    // Uninterrupted run, with a checkpoint taken at the cut.
    const CountingCategoryResolver resolver;
    const std::int64_t ahead0 = sched_count("dnsbs.features.queriers_resolved_ahead");
    const std::int64_t close0 = sched_count("dnsbs.features.queriers_resolved_at_close");
    auto pipeline = make_pipeline(resolver);
    analysis::StreamingWindowDriver driver(sc, *pipeline, dbs.as_db, dbs.geo_db, resolver);
    for (std::size_t i = 0; i < cut; ++i) driver.offer(records[i]);
    driver.quiesce();
    EXPECT_GT(pipeline->feature_cache()->resolved_ahead(), 0u);
    std::stringstream checkpoint;
    ASSERT_TRUE(driver.save(checkpoint));
    const std::uint64_t closed_at_cut = driver.windows_closed();
    for (std::size_t i = cut; i < records.size(); ++i) driver.offer(records[i]);
    driver.flush();
    const std::vector<std::string> expect = render_all(*pipeline, /*with_metrics=*/true);
    ASSERT_EQ(expect.size(), hop == 600 ? 3u : 6u);

    const auto counts = resolver.counts();
    EXPECT_EQ(counts.size(), distinct.size());
    for (const auto& [querier, n] : counts) {
      EXPECT_EQ(n, 1) << "querier " << IPv4Addr(querier).to_string();
    }
    EXPECT_EQ(pipeline->feature_cache()->resolved_ahead(), 0u);
#if DNSBS_METRICS_ENABLED
    EXPECT_EQ(sched_count("dnsbs.features.queriers_resolved_ahead") - ahead0,
              static_cast<std::int64_t>(distinct.size()));
    EXPECT_EQ(sched_count("dnsbs.features.queriers_resolved_at_close") - close0, 0);
#endif

    // Restore from the cut into a fresh pair and finish the stream.
    const CountingCategoryResolver resumed_resolver;
    auto resumed = make_pipeline(resumed_resolver);
    analysis::StreamingWindowDriver resumed_driver(sc, *resumed, dbs.as_db, dbs.geo_db,
                                                   resumed_resolver);
    std::istringstream in(checkpoint.str());
    ASSERT_TRUE(resumed_driver.restore(in));
    const std::int64_t close1 = sched_count("dnsbs.features.queriers_resolved_at_close");
    for (std::size_t i = cut; i < records.size(); ++i) resumed_driver.offer(records[i]);
    resumed_driver.flush();
#if DNSBS_METRICS_ENABLED
    EXPECT_GT(sched_count("dnsbs.features.queriers_resolved_at_close") - close1, 0);
#endif
    const std::vector<std::string> tail = render_all(*resumed, /*with_metrics=*/true);
    ASSERT_EQ(closed_at_cut + tail.size(), expect.size());
    for (std::size_t i = 0; i < tail.size(); ++i) {
      EXPECT_EQ(tail[i], expect[closed_at_cut + i]) << "window " << closed_at_cut + i;
    }
  }
}

TEST(AsyncWindows, ResolveAheadMemoDropsQueriersNoCloseInterns) {
  // Sketch mode keeps only the first queriers of a promoted originator, so
  // most resolved-ahead queriers never reach an extract.  Each close must
  // still shed them.
  Dbs dbs;
  const CategoryResolver resolver;
  const std::vector<QueryRecord> records = querier_churn_stream();
  analysis::WindowedPipelineConfig pc = pipeline_config();
  pc.sensor.querier_state = core::QuerierStateMode::kSketch;
  pc.jobs = std::make_shared<util::JobSystem>(
      util::JobSystemConfig{.threads = 2, .metric_prefix = {}});
  analysis::StreamingConfig sc;
  sc.window = SimTime::seconds(600);
  sc.async_windows = true;
  analysis::WindowedPipeline pipeline(pc, dbs.as_db, dbs.geo_db, resolver);
  pipeline.set_labels(make_labels());
  analysis::StreamingWindowDriver driver(sc, pipeline, dbs.as_db, dbs.geo_db, resolver);
  for (std::size_t i = 0; i <= 2 * 3200; ++i) driver.offer(records[i]);  // closes window 1
  driver.quiesce();
  EXPECT_EQ(pipeline.feature_cache()->resolved_ahead(), 0u);
  for (std::size_t i = 2 * 3200 + 1; i < records.size(); ++i) driver.offer(records[i]);
  driver.flush();
  EXPECT_EQ(pipeline.feature_cache()->resolved_ahead(), 0u);
}

// ---- component state roundtrips ----------------------------------------

TEST(StateRoundtrip, DeduplicatorContinuesIdentically) {
  core::Deduplicator a(SimTime::seconds(30));
  for (int i = 0; i < 40; ++i) {
    a.admit(rec(i * 3, addr(10, 0, 0, i % 5), addr(192, 0, 2, i % 7)));
  }
  std::stringstream state;
  util::BinaryWriter writer(state);
  a.save(writer);
  ASSERT_TRUE(writer.ok());

  core::Deduplicator b(SimTime::seconds(30));
  util::BinaryReader reader(state);
  ASSERT_TRUE(b.load(reader));
  EXPECT_EQ(a.admitted(), b.admitted());
  EXPECT_EQ(a.suppressed(), b.suppressed());
  for (int i = 40; i < 90; ++i) {
    const QueryRecord r = rec(i * 2, addr(10, 0, 0, i % 6), addr(192, 0, 2, i % 7));
    EXPECT_EQ(a.admit(r), b.admit(r)) << "record " << i;
  }
  EXPECT_EQ(a.admitted(), b.admitted());
  EXPECT_EQ(a.suppressed(), b.suppressed());
  EXPECT_EQ(a.state_size(), b.state_size());
}

TEST(StateRoundtrip, AggregatorContinuesIdentically) {
  core::OriginatorAggregator a;
  for (int i = 0; i < 60; ++i) {
    a.add(rec(i * 11, addr(10, 0, 0, i % 9), addr(192, 0, 2, i % 4)));
  }
  std::stringstream state;
  util::BinaryWriter writer(state);
  a.save(writer);
  ASSERT_TRUE(writer.ok());

  core::OriginatorAggregator b;
  util::BinaryReader reader(state);
  ASSERT_TRUE(b.load(reader));
  for (int i = 60; i < 100; ++i) {
    const QueryRecord r = rec(i * 11, addr(10, 0, 0, i % 9), addr(192, 0, 2, i % 4));
    a.add(r);
    b.add(r);
  }
  EXPECT_EQ(a.originator_count(), b.originator_count());
  EXPECT_EQ(a.total_periods(), b.total_periods());
  const auto tops_a = a.select_interesting(10, 0);
  const auto tops_b = b.select_interesting(10, 0);
  ASSERT_EQ(tops_a.size(), tops_b.size());
  for (std::size_t i = 0; i < tops_a.size(); ++i) {
    EXPECT_EQ(tops_a[i]->originator, tops_b[i]->originator);
    EXPECT_EQ(tops_a[i]->unique_queriers(), tops_b[i]->unique_queriers());
    EXPECT_EQ(tops_a[i]->total_queries, tops_b[i]->total_queries);
    EXPECT_EQ(tops_a[i]->periods.size(), tops_b[i]->periods.size());
  }
}

// ---- full daemon over loopback sockets ---------------------------------

void append_be16(std::vector<std::uint8_t>& out, std::size_t v) {
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

/// Stamped payload: [8B LE seconds][4B LE querier IPv4][DNS message].
std::vector<std::uint8_t> stamped_payload(std::int64_t secs, IPv4Addr querier,
                                          const std::vector<std::uint8_t>& message) {
  std::vector<std::uint8_t> out;
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<std::uint8_t>((static_cast<std::uint64_t>(secs) >> (8 * i)) &
                                            0xff));
  }
  const std::uint32_t q = querier.value();
  for (int i = 0; i < 4; ++i) out.push_back(static_cast<std::uint8_t>((q >> (8 * i)) & 0xff));
  out.insert(out.end(), message.begin(), message.end());
  return out;
}

TEST(ServeDaemon, LoopbackIntakeControlAndCheckpoint) {
  Dbs dbs;
  const CategoryResolver resolver;
  const std::string dir = ::testing::TempDir();
  const std::string windows_out = dir + "serve_windows.txt";
  const std::string checkpoint = dir + "serve_checkpoint.bin";
  std::remove(windows_out.c_str());
  std::remove(checkpoint.c_str());

  serve::ServeConfig cfg;
  cfg.tcp = true;
  cfg.stamped = true;
  cfg.streaming.window = SimTime::seconds(100);
  cfg.pipeline = pipeline_config();
  cfg.pipeline.sensor.min_queriers = 3;
  cfg.checkpoint_path = checkpoint;
  cfg.windows_out = windows_out;

  serve::ServeDaemon daemon(cfg, dbs.as_db, dbs.geo_db, resolver);
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;
  ASSERT_NE(daemon.udp_port(), 0);
  ASSERT_NE(daemon.tcp_port(), 0);
  ASSERT_NE(daemon.status_port(), 0);

  // Replay three windows of stamped traffic over TCP (lossless framing).
  std::uint64_t sent = 0;
  {
    auto stream = net::TcpStream::connect("127.0.0.1", daemon.tcp_port());
    ASSERT_TRUE(stream.has_value());
    std::vector<std::uint8_t> wire;
    for (int w = 0; w < 3; ++w) {
      for (int o = 0; o < 3; ++o) {
        for (int q = 0; q < 4; ++q) {
          const auto message = dns::make_ptr_query_packet(
              static_cast<std::uint16_t>(sent & 0xffff), addr(192, 0, 2, o));
          const auto payload =
              stamped_payload(w * 100 + q, addr(10, 0, q, o), message);
          wire.clear();
          append_be16(wire, payload.size());
          wire.insert(wire.end(), payload.begin(), payload.end());
          ASSERT_TRUE(stream->write_all(wire.data(), wire.size()));
          ++sent;
        }
      }
    }
    // Mutated junk with a valid stamp: must be counted, never crash, and
    // never corrupt the partition invariant (fuzz suite covers the
    // decoder; this exercises the live socket path).
    util::ByteMutator mutator(2026);
    for (int i = 0; i < 16; ++i) {
      auto message = dns::make_ptr_query_packet(9999, addr(192, 0, 2, 9));
      mutator.mutate_n(message, 3);
      auto payload = stamped_payload(250 + i % 3, addr(10, 0, 9, 9), message);
      if (payload.size() > 0xffff) payload.resize(0xffff);
      wire.clear();
      append_be16(wire, payload.size());
      wire.insert(wire.end(), payload.begin(), payload.end());
      ASSERT_TRUE(stream->write_all(wire.data(), wire.size()));
    }
  }  // intake connection closes -> FLUSH can quiesce immediately

  // UDP junk: a stampless runt (bad_stamp) — lossy transport, so nothing
  // downstream asserts on its arrival.
  {
    net::UdpSocket udp;
    const std::uint8_t runt[3] = {1, 2, 3};
    udp.send_to("127.0.0.1", daemon.udp_port(), runt, sizeof(runt));
  }

  auto control = net::TcpStream::connect("127.0.0.1", daemon.status_port());
  ASSERT_TRUE(control.has_value());
  const auto command = [&control](const std::string& cmd) -> std::string {
    const std::string line = cmd + "\n";
    EXPECT_TRUE(control->write_all(line.data(), line.size()));
    auto reply = control->read_line(30000, std::size_t{1} << 20);  // STATS is long
    EXPECT_TRUE(reply.has_value()) << cmd;
    return reply.value_or("");
  };

  EXPECT_EQ(command("PING"), "PONG");
  const std::string stats = command("STATS");
  EXPECT_NE(stats.find("\"stream_time\""), std::string::npos) << stats;
  EXPECT_NE(stats.find("\"capture\""), std::string::npos) << stats;
  EXPECT_EQ(command("BOGUS"), "ERR unknown command: BOGUS");

  EXPECT_EQ(command("FLUSH"), "OK flushed");
  const std::string after = command("STATS");
  EXPECT_NE(after.find("\"windows_closed\":3"), std::string::npos) << after;

  EXPECT_EQ(command("CHECKPOINT"), "OK " + checkpoint);
  EXPECT_EQ(command("SHUTDOWN"), "OK shutting down");
  daemon.wait();

  EXPECT_EQ(daemon.driver()->windows_closed(), 3u);
  EXPECT_EQ(daemon.driver()->late_records(), 0u);

  std::ifstream summaries(windows_out);
  ASSERT_TRUE(summaries.good());
  std::size_t window_blocks = 0, end_blocks = 0;
  for (std::string line; std::getline(summaries, line);) {
    if (line.rfind("window ", 0) == 0) ++window_blocks;
    if (line == "end") ++end_blocks;
  }
  EXPECT_EQ(window_blocks, 3u);
  EXPECT_EQ(end_blocks, 3u);

  std::ifstream saved(checkpoint, std::ios::binary);
  ASSERT_TRUE(saved.good());
  saved.seekg(0, std::ios::end);
  EXPECT_GT(saved.tellg(), 8) << "checkpoint file should hold real state";
}

TEST(ServeDaemon, RestoreFromCheckpointResumesNumbering) {
  Dbs dbs;
  const CategoryResolver resolver;
  const std::string dir = ::testing::TempDir();
  const std::string checkpoint = dir + "serve_resume.bin";
  std::remove(checkpoint.c_str());

  serve::ServeConfig cfg;
  cfg.tcp = true;
  cfg.stamped = true;
  cfg.streaming.window = SimTime::seconds(100);
  cfg.pipeline = pipeline_config();
  cfg.pipeline.sensor.min_queriers = 3;
  cfg.checkpoint_path = checkpoint;

  const auto send_window = [&](std::uint16_t port, int w) {
    auto stream = net::TcpStream::connect("127.0.0.1", port);
    ASSERT_TRUE(stream.has_value());
    std::vector<std::uint8_t> wire;
    for (int o = 0; o < 3; ++o) {
      for (int q = 0; q < 4; ++q) {
        const auto message = dns::make_ptr_query_packet(
            static_cast<std::uint16_t>((w * 16 + q) & 0xffff), addr(192, 0, 2, o));
        const auto payload = stamped_payload(w * 100 + q, addr(10, 0, q, o), message);
        wire.clear();
        append_be16(wire, payload.size());
        wire.insert(wire.end(), payload.begin(), payload.end());
        ASSERT_TRUE(stream->write_all(wire.data(), wire.size()));
      }
    }
  };

  {
    serve::ServeDaemon daemon(cfg, dbs.as_db, dbs.geo_db, resolver);
    std::string error;
    ASSERT_TRUE(daemon.start(error)) << error;
    send_window(daemon.tcp_port(), 0);
    send_window(daemon.tcp_port(), 1);
    auto control = net::TcpStream::connect("127.0.0.1", daemon.status_port());
    ASSERT_TRUE(control.has_value());
    std::string line = "CHECKPOINT\n";
    ASSERT_TRUE(control->write_all(line.data(), line.size()));
    auto reply = control->read_line(30000);
    ASSERT_TRUE(reply.has_value());
    EXPECT_EQ(*reply, "OK " + checkpoint);
    line = "SHUTDOWN\n";
    ASSERT_TRUE(control->write_all(line.data(), line.size()));
    control->read_line(30000);
    daemon.wait();
    // Stream reached t=101..104 -> window 0 closed, window 1 still open.
    EXPECT_EQ(daemon.driver()->windows_closed(), 1u);
  }

  serve::ServeConfig resumed = cfg;
  resumed.restore = true;
  serve::ServeDaemon daemon(resumed, dbs.as_db, dbs.geo_db, resolver);
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;
  EXPECT_EQ(daemon.driver()->windows_closed(), 1u);
  EXPECT_EQ(daemon.driver()->open_windows(), 1u);
  send_window(daemon.tcp_port(), 2);
  auto control = net::TcpStream::connect("127.0.0.1", daemon.status_port());
  ASSERT_TRUE(control.has_value());
  std::string line = "FLUSH\n";
  ASSERT_TRUE(control->write_all(line.data(), line.size()));
  auto reply = control->read_line(30000);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(*reply, "OK flushed");
  line = "SHUTDOWN\n";
  ASSERT_TRUE(control->write_all(line.data(), line.size()));
  control->read_line(30000);
  daemon.wait();
  EXPECT_EQ(daemon.driver()->windows_closed(), 3u);
  EXPECT_EQ(daemon.pipeline()->results().back().index, 2u)
      << "window numbering must continue across the restart";
}

TEST(ServeDaemon, AsyncLoopbackSummariesMatchSyncByteForByte) {
  // Full-daemon variant of the oracle: the same stamped replay through
  // --async-windows on and off must leave byte-identical --windows-out
  // files, and STATS must report the job-system queues.
  Dbs dbs;
  const CategoryResolver resolver;
  const std::string dir = ::testing::TempDir();

  const auto run_daemon = [&](bool async, const std::string& windows_out,
                              std::string& stats_out) {
    std::remove(windows_out.c_str());
    serve::ServeConfig cfg;
    cfg.tcp = true;
    cfg.stamped = true;
    cfg.streaming.window = SimTime::seconds(100);
    cfg.streaming.async_windows = async;
    cfg.pipeline = pipeline_config();
    cfg.pipeline.sensor.min_queriers = 3;
    cfg.windows_out = windows_out;

    serve::ServeDaemon daemon(cfg, dbs.as_db, dbs.geo_db, resolver);
    std::string error;
    ASSERT_TRUE(daemon.start(error)) << error;
    {
      auto stream = net::TcpStream::connect("127.0.0.1", daemon.tcp_port());
      ASSERT_TRUE(stream.has_value());
      std::vector<std::uint8_t> wire;
      for (int w = 0; w < 3; ++w) {
        for (int o = 0; o < 3; ++o) {
          for (int q = 0; q < 4; ++q) {
            const auto message = dns::make_ptr_query_packet(
                static_cast<std::uint16_t>((w * 16 + q) & 0xffff), addr(192, 0, 2, o));
            const auto payload = stamped_payload(w * 100 + q, addr(10, 0, q, o), message);
            wire.clear();
            append_be16(wire, payload.size());
            wire.insert(wire.end(), payload.begin(), payload.end());
            ASSERT_TRUE(stream->write_all(wire.data(), wire.size()));
          }
        }
      }
    }
    auto control = net::TcpStream::connect("127.0.0.1", daemon.status_port());
    ASSERT_TRUE(control.has_value());
    const auto command = [&control](const std::string& cmd) -> std::string {
      const std::string line = cmd + "\n";
      EXPECT_TRUE(control->write_all(line.data(), line.size()));
      auto reply = control->read_line(30000, std::size_t{1} << 20);
      EXPECT_TRUE(reply.has_value()) << cmd;
      return reply.value_or("");
    };
    EXPECT_EQ(command("FLUSH"), "OK flushed");
    stats_out = command("STATS");
    EXPECT_EQ(command("SHUTDOWN"), "OK shutting down");
    daemon.wait();
    EXPECT_EQ(daemon.driver()->windows_closed(), 3u);
  };

  const std::string sync_out = dir + "serve_windows_sync.txt";
  const std::string async_out = dir + "serve_windows_async.txt";
  std::string sync_stats;
  std::string async_stats;
  run_daemon(/*async=*/false, sync_out, sync_stats);
  run_daemon(/*async=*/true, async_out, async_stats);

  const auto slurp = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
  };
  const std::string sync_bytes = slurp(sync_out);
  const std::string async_bytes = slurp(async_out);
  EXPECT_FALSE(sync_bytes.empty());
  EXPECT_EQ(async_bytes, sync_bytes)
      << "--windows-out must be byte-identical across --async-windows modes";

  // STATS reports every registered queue; "close" only exists in async,
  // and the pipeline registers none (it retrains inside the close job).
  for (const std::string* stats : {&sync_stats, &async_stats}) {
    EXPECT_NE(stats->find("\"jobs\":["), std::string::npos) << *stats;
    EXPECT_NE(stats->find("\"queue\":\"export\""), std::string::npos) << *stats;
    EXPECT_EQ(stats->find("\"queue\":\"train\""), std::string::npos) << *stats;
  }
  EXPECT_EQ(sync_stats.find("\"queue\":\"close\""), std::string::npos) << sync_stats;
  EXPECT_NE(async_stats.find("\"queue\":\"close\""), std::string::npos) << async_stats;
#if DNSBS_METRICS_ENABLED
  EXPECT_NE(async_stats.find("dnsbs.serve.jobs.close.completed"), std::string::npos)
      << "job queue metrics should ride the registry";
#endif
}

// ---- buffered TCP intake: framing vs the sync driver -------------------

std::vector<std::uint8_t> framed(const std::vector<std::uint8_t>& payload) {
  std::vector<std::uint8_t> out;
  append_be16(out, payload.size());
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

/// `r` as a stamped PTR query, padded with trailing zeros to
/// `payload_bytes` (trailing bytes do not change how a query classifies).
std::vector<std::uint8_t> record_payload(const QueryRecord& r, std::size_t payload_bytes = 0) {
  auto payload = stamped_payload(r.time.secs(), r.querier,
                                 dns::make_ptr_query_packet(7, r.originator));
  if (payload.size() < payload_bytes) payload.resize(payload_bytes, 0);
  return payload;
}

/// The frame carrying record_payload(r, payload_bytes).
std::vector<std::uint8_t> record_frame(const QueryRecord& r, std::size_t payload_bytes = 0) {
  return framed(record_payload(r, payload_bytes));
}

/// `windows` 100-second windows of traffic, `queriers` per originator.
std::vector<QueryRecord> framing_records(int first_window, int windows, int queriers) {
  std::vector<QueryRecord> records;
  for (int w = first_window; w < first_window + windows; ++w) {
    for (int o = 0; o < 4; ++o) {
      for (int q = 0; q < queriers; ++q) {
        records.push_back(rec(w * 100 + q % 100, addr(10, 0, q, o), addr(192, 0, 2, o)));
      }
    }
  }
  return records;
}

serve::ServeConfig framing_config(const std::string& windows_out) {
  serve::ServeConfig cfg;
  cfg.tcp = true;
  cfg.stamped = true;
  cfg.streaming.window = SimTime::seconds(100);
  cfg.pipeline = pipeline_config();
  cfg.pipeline.sensor.min_queriers = 3;
  cfg.windows_out = windows_out;
  return cfg;
}

/// What --windows-out holds after a sync StreamingWindowDriver with the
/// daemon's window and pipeline config is fed `records` and flushed.
std::string sync_summaries(const std::vector<QueryRecord>& records) {
  Dbs dbs;
  const CategoryResolver resolver;
  const serve::ServeConfig cfg = framing_config("");
  analysis::WindowedPipeline pipeline(cfg.pipeline, dbs.as_db, dbs.geo_db, resolver);
  analysis::StreamingWindowDriver driver(cfg.streaming, pipeline, dbs.as_db, dbs.geo_db,
                                         resolver);
  std::string out;
  driver.set_window_close_callback(
      [&out](const analysis::WindowResult& r, const labeling::WindowObservation& o) {
        out += serve::render_window_summary(r, o);
      });
  for (const QueryRecord& r : records) driver.offer(r);
  driver.flush();
  return out;
}

std::string slurp_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>());
}

std::optional<net::TcpStream> connect_nodelay(std::uint16_t port) {
  auto stream = net::TcpStream::connect("127.0.0.1", port);
  if (stream) {
    const int one = 1;
    ::setsockopt(stream->fd(), IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return stream;
}

std::string ask(net::TcpStream& control, const std::string& cmd) {
  const std::string line = cmd + "\n";
  EXPECT_TRUE(control.write_all(line.data(), line.size())) << cmd;
  auto reply = control.read_line(30000, std::size_t{1} << 20);
  EXPECT_TRUE(reply.has_value()) << cmd;
  return reply.value_or("");
}

/// The number after `"key":` in a JSON reply (the first occurrence).
std::uint64_t json_number(const std::string& json, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t at = json.find(needle);
  return at == std::string::npos ? 0 : std::stoull(json.substr(at + needle.size()));
}

/// The value of metric `name` in a STATS reply's metrics block.
std::uint64_t stats_metric(const std::string& stats, const std::string& name) {
  const std::size_t at = stats.find("{\"name\": \"" + name + "\"");
  const std::string key = "\"value\": ";
  const std::size_t value = at == std::string::npos ? at : stats.find(key, at);
  return value == std::string::npos ? 0 : std::stoull(stats.substr(value + key.size()));
}

/// The largest queue_depth_peak over the HISTORY reply's windows.
std::uint64_t history_queue_peak(const std::string& history) {
  std::uint64_t peak = 0;
  const std::string key = "\"queue_depth_peak\":";
  for (std::size_t at = history.find(key); at != std::string::npos;
       at = history.find(key, at + 1)) {
    peak = std::max<std::uint64_t>(peak, std::stoull(history.substr(at + key.size())));
  }
  return peak;
}

/// A daemon counter (registered by daemon.cpp, whose flags win).
std::uint64_t counter_value(const char* name) { return util::metrics_counter(name).value(); }

/// Boots a daemon, writes `chunks` over one TCP_NODELAY connection (one
/// write_all each), hangs up, FLUSHes and returns --windows-out.
std::string daemon_summaries(const std::vector<std::vector<std::uint8_t>>& chunks,
                             const std::string& name) {
  Dbs dbs;
  const CategoryResolver resolver;
  const std::string windows_out = ::testing::TempDir() + name;
  std::remove(windows_out.c_str());
  serve::ServeDaemon daemon(framing_config(windows_out), dbs.as_db, dbs.geo_db, resolver);
  std::string error;
  EXPECT_TRUE(daemon.start(error)) << error;
  {
    auto stream = connect_nodelay(daemon.tcp_port());
    EXPECT_TRUE(stream.has_value());
    for (const auto& chunk : chunks) {
      if (!stream) break;
      EXPECT_TRUE(stream->write_all(chunk.data(), chunk.size()));
    }
  }
  auto control = net::TcpStream::connect("127.0.0.1", daemon.status_port());
  EXPECT_TRUE(control.has_value());
  if (control) {
    EXPECT_EQ(ask(*control, "FLUSH"), "OK flushed");
    EXPECT_EQ(ask(*control, "SHUTDOWN"), "OK shutting down");
  }
  daemon.wait();
  return slurp_file(windows_out);
}

TEST(TcpIntake, FramingCasesMatchSyncDriverByteForByte) {
  const std::vector<QueryRecord> records = framing_records(0, 3, 8);
  std::vector<std::vector<std::uint8_t>> frames;
  for (const QueryRecord& r : records) frames.push_back(record_frame(r));
  const std::string expect = sync_summaries(records);
  ASSERT_NE(expect.find("window 2 "), std::string::npos);
  ASSERT_GT(records.size(), frames.front().size()) << "need a frame per split offset";

  {
    SCOPED_TRACE("frame i split at byte offset i mod (frame size + 1)");
    std::vector<std::vector<std::uint8_t>> chunks;
    for (std::size_t i = 0; i < frames.size(); ++i) {
      const auto& f = frames[i];
      const std::size_t cut = i % (f.size() + 1);
      chunks.emplace_back(f.begin(), f.begin() + static_cast<std::ptrdiff_t>(cut));
      chunks.emplace_back(f.begin() + static_cast<std::ptrdiff_t>(cut), f.end());
    }
    EXPECT_EQ(daemon_summaries(chunks, "tcp_split.txt"), expect);
  }
  {
    SCOPED_TRACE("every frame in one segment");
    std::vector<std::uint8_t> all;
    for (const auto& f : frames) all.insert(all.end(), f.begin(), f.end());
    EXPECT_EQ(daemon_summaries({all}, "tcp_one_segment.txt"), expect);
  }
  {
    SCOPED_TRACE("a zero-length frame is a bad stamp");
    std::vector<std::vector<std::uint8_t>> chunks = frames;
    chunks.insert(chunks.begin() + 5, std::vector<std::uint8_t>{0, 0});
    const std::uint64_t bad_before = counter_value("dnsbs.serve.bad_stamp");
    const std::uint64_t frames_before = counter_value("dnsbs.serve.tcp_frames");
    EXPECT_EQ(daemon_summaries(chunks, "tcp_zero_length.txt"), expect);
#if DNSBS_METRICS_ENABLED
    EXPECT_EQ(counter_value("dnsbs.serve.bad_stamp") - bad_before, 1u);
    EXPECT_EQ(counter_value("dnsbs.serve.tcp_frames") - frames_before, frames.size() + 1);
#endif
  }
  {
    SCOPED_TRACE("one 65,535-byte frame");
    std::vector<QueryRecord> with_big = records;
    const QueryRecord big = rec(150, addr(10, 0, 9, 9), addr(192, 0, 2, 1));
    with_big.insert(with_big.begin() + 40, big);
    std::vector<std::vector<std::uint8_t>> chunks = frames;
    chunks.insert(chunks.begin() + 40, record_frame(big, 65535));
    ASSERT_EQ(chunks[40].size(), 2u + 65535u);
    const std::string got = daemon_summaries(chunks, "tcp_big_frame.txt");
    EXPECT_EQ(got, sync_summaries(with_big));
    EXPECT_NE(got, expect) << "the big frame's record must reach its window";
  }
  {
    SCOPED_TRACE("EOF mid-frame loses only the unfinished frame");
    // The cut frame would open a fourth window if it were decoded.
    std::vector<std::vector<std::uint8_t>> chunks = frames;
    const auto tail = record_frame(rec(350, addr(10, 0, 1, 1), addr(192, 0, 2, 1)));
    chunks.emplace_back(tail.begin(), tail.begin() + static_cast<std::ptrdiff_t>(tail.size() / 2));
    EXPECT_EQ(daemon_summaries(chunks, "tcp_eof_mid_frame.txt"), expect);
  }
}

/// Resolves as CategoryResolver does, but holds the calling thread while
/// the gate is shut.  In sync mode that thread is the drive thread, in
/// the middle of a window close.  shut() re-arms a gate that was opened.
class GatedResolver final : public core::QuerierResolver {
 public:
  core::QuerierInfo resolve(IPv4Addr querier) const override {
    std::unique_lock<std::mutex> lock(mutex_);
    entered_ = true;
    changed_.notify_all();
    changed_.wait(lock, [this] { return open_; });
    return CategoryResolver().resolve(querier);
  }
  bool wait_entered() const {
    std::unique_lock<std::mutex> lock(mutex_);
    return changed_.wait_for(lock, std::chrono::seconds(30), [this] { return entered_; });
  }
  void open() const {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = true;
    changed_.notify_all();
  }
  void shut() const {
    std::lock_guard<std::mutex> lock(mutex_);
    open_ = false;
    entered_ = false;
  }

 private:
  mutable std::mutex mutex_;
  mutable std::condition_variable changed_;
  mutable bool entered_ = false;
  mutable bool open_ = false;
};

TEST(TcpIntake, StalledDriveHoldsConnectionAtItsBufferLimitWithoutLoss) {
#if !DNSBS_METRICS_ENABLED
  GTEST_SKIP() << "watches dnsbs.serve.tcp_frames, a no-op without metrics";
#endif
  Dbs dbs;
  const GatedResolver resolver;
  const std::string windows_out = ::testing::TempDir() + "tcp_stalled.txt";
  std::remove(windows_out.c_str());
  serve::ServeDaemon daemon(framing_config(windows_out), dbs.as_db, dbs.geo_db, resolver);
  // However the test ends, the gate opens before the daemon shuts down.
  struct OpenOnExit {
    const GatedResolver& gate;
    ~OpenOnExit() { gate.open(); }
  } open_on_exit{resolver};
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;

  // Window 0, then one record of window 1: closing window 0 resolves its
  // queriers and the drive thread stops in the gate.
  std::vector<QueryRecord> records = framing_records(0, 1, 8);
  records.push_back(rec(100, addr(10, 0, 0, 0), addr(192, 0, 2, 0)));
  auto stream = connect_nodelay(daemon.tcp_port());
  ASSERT_TRUE(stream.has_value());
  for (const QueryRecord& r : records) {
    const auto f = record_frame(r);
    ASSERT_TRUE(stream->write_all(f.data(), f.size()));
  }
  ASSERT_TRUE(resolver.wait_entered());

  // 2 MiB of 1 KiB frames in one write: four times what a connection's
  // ring holds, and many frames per receive buffer.
  const std::uint64_t frames_before = counter_value("dnsbs.serve.tcp_frames");
  const std::vector<QueryRecord> bulk = framing_records(1, 2, 256);
  constexpr std::size_t kFrameBytes = 1024;
  std::vector<std::uint8_t> wire;
  for (const QueryRecord& r : bulk) {
    const auto f = record_frame(r, kFrameBytes - 2);
    wire.insert(wire.end(), f.begin(), f.end());
  }
  std::thread sender([&stream, &wire] {
    EXPECT_TRUE(stream->write_all(wire.data(), wire.size()));
    stream->close();
  });
  // Wait until the connection stops taking frames: its ring is full.
  std::uint64_t read = 0;
  for (int quiet = 0; quiet < 6;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    const std::uint64_t now = counter_value("dnsbs.serve.tcp_frames") - frames_before;
    quiet = now == read ? quiet + 1 : 0;
    read = now;
  }
  EXPECT_LT(read, bulk.size()) << "the stalled drive thread should hold the peer back";
  EXPECT_LE(read * kFrameBytes,
            serve::ServeDaemon::kTcpRingBuffers * serve::ServeDaemon::kTcpBufferBytes);
  EXPECT_GT(read, serve::ServeDaemon::kTcpRingBuffers) << "batches carry many frames";

  resolver.open();
  sender.join();
  records.insert(records.end(), bulk.begin(), bulk.end());
  auto control = net::TcpStream::connect("127.0.0.1", daemon.status_port());
  ASSERT_TRUE(control.has_value());
  EXPECT_EQ(ask(*control, "FLUSH"), "OK flushed");
  const std::string stats = ask(*control, "STATS");
  EXPECT_NE(stats.find("\"capture\":{\"packets\":" + std::to_string(records.size()) + ","),
            std::string::npos)
      << "every frame is decoded: " << stats;
  EXPECT_NE(stats.find("\"queue_depth\":0,"), std::string::npos) << stats;
  // The queue depth counts frames: once the gate opened, the queued
  // buffers held every frame read during the stall.
  const std::string history = ask(*control, "HISTORY");
  EXPECT_GE(history_queue_peak(history), read) << history;
  EXPECT_EQ(ask(*control, "SHUTDOWN"), "OK shutting down");
  daemon.wait();
  EXPECT_EQ(slurp_file(windows_out), sync_summaries(records));
}

// ---- UDP intake on the drive thread ------------------------------------

/// Polls STATS until the drive thread has classified `packets` packets.
bool wait_for_packets(net::TcpStream& control, std::uint64_t packets) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (std::chrono::steady_clock::now() < deadline) {
    if (json_number(ask(control, "STATS"), "packets") >= packets) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  return false;
}

TEST(UdpIntake, StampedReplayMatchesSyncDriverByteForByte) {
  Dbs dbs;
  const CategoryResolver resolver;
  const std::string windows_out = ::testing::TempDir() + "udp_replay.txt";
  std::remove(windows_out.c_str());
  serve::ServeDaemon daemon(framing_config(windows_out), dbs.as_db, dbs.geo_db, resolver);
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;

  const std::vector<QueryRecord> records = framing_records(0, 3, 8);
  net::UdpSocket sender;
  for (const QueryRecord& r : records) {
    const auto d = record_payload(r);
    ASSERT_TRUE(sender.send_to("127.0.0.1", daemon.udp_port(), d.data(), d.size()));
  }
  auto control = net::TcpStream::connect("127.0.0.1", daemon.status_port());
  ASSERT_TRUE(control.has_value());
  ASSERT_TRUE(wait_for_packets(*control, records.size()));
  EXPECT_EQ(ask(*control, "FLUSH"), "OK flushed");
  EXPECT_EQ(json_number(ask(*control, "STATS"), "packets"), records.size());
  EXPECT_EQ(ask(*control, "SHUTDOWN"), "OK shutting down");
  daemon.wait();
  const std::string got = slurp_file(windows_out);
  ASSERT_NE(got.find("window 2 "), std::string::npos);
  EXPECT_EQ(got, sync_summaries(records));
}

TEST(UdpIntake, StalledDriveBuffersInKernelAndCountsDrops) {
#if !DNSBS_METRICS_ENABLED
  GTEST_SKIP() << "reads dnsbs.serve.udp_datagrams and queue_dropped, no-ops without metrics";
#endif
  Dbs dbs;
  const GatedResolver resolver;
  const std::string windows_out = ::testing::TempDir() + "udp_stalled.txt";
  std::remove(windows_out.c_str());
  serve::ServeDaemon daemon(framing_config(windows_out), dbs.as_db, dbs.geo_db, resolver);
  struct OpenOnExit {
    const GatedResolver& gate;
    ~OpenOnExit() { gate.open(); }
  } open_on_exit{resolver};
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;
  auto control = net::TcpStream::connect("127.0.0.1", daemon.status_port());
  ASSERT_TRUE(control.has_value());
  const std::uint64_t rcvbuf = json_number(ask(*control, "STATS"), "udp_rcvbuf_bytes");
  ASSERT_GT(rcvbuf, 0u);

  const std::uint64_t received_before = counter_value("dnsbs.serve.udp_datagrams");
  const std::uint64_t dropped_before = counter_value("dnsbs.serve.queue_dropped");
  const auto received = [&] {
    return counter_value("dnsbs.serve.udp_datagrams") - received_before;
  };
  const auto dropped = [&] {
    return counter_value("dnsbs.serve.queue_dropped") - dropped_before;
  };
  net::UdpSocket sender;
  std::uint64_t sent = 0;
  const auto send = [&](const std::vector<std::uint8_t>& d) {
    EXPECT_TRUE(sender.send_to("127.0.0.1", daemon.udp_port(), d.data(), d.size()));
    ++sent;
  };

  // Window 0, then one record of window 1: closing window 0 resolves its
  // queriers and the drive thread stops in the gate.
  std::vector<QueryRecord> records = framing_records(0, 1, 8);
  records.push_back(rec(100, addr(10, 0, 0, 0), addr(192, 0, 2, 0)));
  for (const QueryRecord& r : records) send(record_payload(r));
  ASSERT_TRUE(resolver.wait_entered());

  // The kernel charges each datagram its buffer footprint (under 1 KiB
  // for these ~60-byte payloads on loopback), so one datagram per 4 KiB
  // of the granted buffer fits with room to spare.
  const int queriers = static_cast<int>(std::clamp<std::uint64_t>(rcvbuf / 4096 / 8, 1, 256));
  const std::vector<QueryRecord> burst = framing_records(1, 2, queriers);
  for (const QueryRecord& r : burst) send(record_payload(r));
  // A STATS queued during the stall is answered after at most one more
  // slab, long before the kernel's backlog drains.
  const std::string stats_line = "STATS\n";
  ASSERT_TRUE(control->write_all(stats_line.data(), stats_line.size()));
  const std::uint64_t at_stall = received();
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(received(), at_stall) << "nothing but the stalled drive thread reads the socket";

  resolver.open();
  const auto stalled_stats = control->read_line(30000, std::size_t{1} << 20);
  ASSERT_TRUE(stalled_stats.has_value());
  EXPECT_LE(json_number(*stalled_stats, "packets"),
            at_stall + serve::ServeDaemon::kUdpSlabSlots);
  records.insert(records.end(), burst.begin(), burst.end());
  EXPECT_EQ(ask(*control, "FLUSH"), "OK flushed");
  EXPECT_EQ(json_number(ask(*control, "STATS"), "packets"), records.size())
      << "the kernel held every datagram of the stall";
  EXPECT_EQ(received(), sent);
  EXPECT_EQ(dropped(), 0u);
  // Drained after the stall, the burst filled whole slabs.
  if (burst.size() >= serve::ServeDaemon::kUdpSlabSlots) {
    EXPECT_EQ(history_queue_peak(ask(*control, "HISTORY")), serve::ServeDaemon::kUdpSlabSlots);
  }

  // Stall again (new queriers, so the close resolves), then send more
  // payload bytes than the buffer holds: every datagram costs the buffer
  // more than its payload, so some must drop.
  resolver.shut();
  for (int o = 0; o < 4; ++o) {
    for (int q = 0; q < 8; ++q) {
      send(record_payload(rec(500 + q, addr(10, 1, q, o), addr(192, 0, 2, o))));
    }
  }
  send(record_payload(rec(600, addr(10, 1, 0, 0), addr(192, 0, 2, 0))));
  ASSERT_TRUE(resolver.wait_entered());
  constexpr std::size_t kPayloadBytes = 512;
  const auto overrun =
      record_payload(rec(650, addr(10, 1, 9, 9), addr(192, 0, 2, 1)), kPayloadBytes);
  for (std::uint64_t i = 0; i <= rcvbuf / kPayloadBytes; ++i) send(overrun);
  resolver.open();
  EXPECT_EQ(ask(*control, "FLUSH"), "OK flushed");
  // The kernel reports drops with the next datagram it queues.
  send(overrun);
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (received() + dropped() < sent && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_GT(dropped(), 0u);
  EXPECT_EQ(received() + dropped(), sent);
}

TEST(UdpIntake, DropsFollowedBySilenceShowInStats) {
#if !DNSBS_METRICS_ENABLED
  GTEST_SKIP() << "reads dnsbs.serve.queue_dropped, a no-op without metrics";
#endif
  Dbs dbs;
  const GatedResolver resolver;
  serve::ServeDaemon daemon(framing_config(""), dbs.as_db, dbs.geo_db, resolver);
  struct OpenOnExit {
    const GatedResolver& gate;
    ~OpenOnExit() { gate.open(); }
  } open_on_exit{resolver};
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;
  auto control = net::TcpStream::connect("127.0.0.1", daemon.status_port());
  ASSERT_TRUE(control.has_value());
  const std::uint64_t rcvbuf = json_number(ask(*control, "STATS"), "udp_rcvbuf_bytes");
  ASSERT_GT(rcvbuf, 0u);
  const std::uint64_t dropped_before = counter_value("dnsbs.serve.queue_dropped");
  net::UdpSocket sender;
  const auto send = [&](const std::vector<std::uint8_t>& d) {
    EXPECT_TRUE(sender.send_to("127.0.0.1", daemon.udp_port(), d.data(), d.size()));
  };

  // Window 0, then one record of window 1: closing window 0 resolves its
  // queriers and the drive thread stops in the gate.
  for (const QueryRecord& r : framing_records(0, 1, 8)) send(record_payload(r));
  send(record_payload(rec(100, addr(10, 0, 0, 0), addr(192, 0, 2, 0))));
  ASSERT_TRUE(resolver.wait_entered());
  // More payload bytes than the buffer holds, then silence: no datagram
  // queued after the drops carries their count.
  constexpr std::size_t kPayloadBytes = 512;
  const auto overrun =
      record_payload(rec(150, addr(10, 1, 9, 9), addr(192, 0, 2, 1)), kPayloadBytes);
  for (std::uint64_t i = 0; i <= rcvbuf / kPayloadBytes; ++i) send(overrun);
  resolver.open();
  EXPECT_EQ(ask(*control, "FLUSH"), "OK flushed");
  EXPECT_GT(stats_metric(ask(*control, "STATS"), "dnsbs.serve.queue_dropped"), dropped_before);
}

TEST(UdpIntake, ControlAnsweredWhileUdpFloods) {
  Dbs dbs;
  const CategoryResolver resolver;
  serve::ServeDaemon daemon(framing_config(""), dbs.as_db, dbs.geo_db, resolver);
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;
  auto control = net::TcpStream::connect("127.0.0.1", daemon.status_port());
  ASSERT_TRUE(control.has_value());

  // Window 0 only, from a few queriers: dedup absorbs the repeats, so the
  // flood costs the drive thread intake work without growing its state.
  std::vector<std::vector<std::uint8_t>> flood;
  for (const QueryRecord& r : framing_records(0, 1, 16)) flood.push_back(record_payload(r));
  std::atomic<bool> done{false};
  std::vector<std::thread> senders;
  for (int t = 0; t < 2; ++t) {
    senders.emplace_back([&] {
      net::UdpSocket udp;
      while (!done.load()) {
        for (const auto& d : flood) udp.send_to("127.0.0.1", daemon.udp_port(), d.data(), d.size());
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  for (int round = 0; round < 3; ++round) {
    for (const std::string cmd : {"PING", "STATS"}) {
      const auto t0 = std::chrono::steady_clock::now();
      const std::string reply = ask(*control, cmd);
      const auto waited = std::chrono::steady_clock::now() - t0;
      EXPECT_LT(waited, std::chrono::seconds(2)) << cmd << " starved by the flood";
      if (cmd == "PING") {
        EXPECT_EQ(reply, "PONG");
      } else {
        EXPECT_GT(json_number(reply, "packets"), 0u) << reply;
      }
    }
  }
  done.store(true);
  for (std::thread& t : senders) t.join();
}

// ---- HTTP scrape surface + HISTORY/TRACE verbs -------------------------

struct HttpResponse {
  std::string status_line;
  std::vector<std::string> headers;
  std::string body;
};

/// One-shot HTTP/1.1 GET (or other method) against the status socket.
std::optional<HttpResponse> http_request(std::uint16_t port, const std::string& method,
                                         const std::string& target) {
  auto stream = net::TcpStream::connect("127.0.0.1", port);
  if (!stream.has_value()) return std::nullopt;
  const std::string request =
      method + " " + target + " HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\r\n";
  if (!stream->write_all(request.data(), request.size())) return std::nullopt;

  HttpResponse response;
  auto status = stream->read_line(30000);
  if (!status.has_value()) return std::nullopt;
  response.status_line = *status;
  std::size_t content_length = 0;
  for (;;) {
    auto header = stream->read_line(30000, std::size_t{1} << 20);
    if (!header.has_value()) return std::nullopt;
    if (header->empty()) break;
    response.headers.push_back(*header);
    const std::string lowered = util::to_lower(*header);
    if (lowered.rfind("content-length:", 0) == 0) {
      std::uint64_t n = 0;
      if (!util::parse_u64(util::trim(lowered.substr(15)), n, nullptr))
        return std::nullopt;
      content_length = static_cast<std::size_t>(n);
    }
  }
  response.body.resize(content_length);
  if (content_length > 0 &&
      !stream->read_exact(response.body.data(), content_length, 30000)) {
    return std::nullopt;
  }
  return response;
}

bool has_header(const HttpResponse& response, const std::string& needle) {
  for (const std::string& header : response.headers) {
    if (util::to_lower(header).find(util::to_lower(needle)) != std::string::npos)
      return true;
  }
  return false;
}

TEST(ServeDaemon, HttpScrapeHistoryAndTrace) {
  Dbs dbs;
  const CategoryResolver resolver;
  const std::string dir = ::testing::TempDir();
  const std::string trace_out = dir + "serve_trace.json";
  std::remove(trace_out.c_str());

  serve::ServeConfig cfg;
  cfg.tcp = true;
  cfg.stamped = true;
  cfg.streaming.window = SimTime::seconds(100);
  cfg.pipeline = pipeline_config();
  cfg.pipeline.sensor.min_queriers = 3;
  cfg.trace_out = trace_out;

  serve::ServeDaemon daemon(cfg, dbs.as_db, dbs.geo_db, resolver);
  std::string error;
  ASSERT_TRUE(daemon.start(error)) << error;

  // One command per connection, like `dnsbs_cli ctl`: the status loop is
  // serial and reclaims idle connections, so don't hold one across the
  // HTTP requests below.
  const auto command = [&daemon](const std::string& cmd) -> std::string {
    auto control = net::TcpStream::connect("127.0.0.1", daemon.status_port());
    EXPECT_TRUE(control.has_value()) << cmd;
    if (!control.has_value()) return "";
    const std::string line = cmd + "\n";
    EXPECT_TRUE(control->write_all(line.data(), line.size()));
    auto reply = control->read_line(30000, std::size_t{1} << 20);
    EXPECT_TRUE(reply.has_value()) << cmd;
    return reply.value_or("");
  };
  // Start a long trace first so the ingest spans below land in it; the
  // daemon dumps the capture on shutdown even if the deadline is not hit.
  EXPECT_EQ(command("TRACE 30"),
            "OK tracing 30s -> " + trace_out);
  EXPECT_EQ(command("TRACE 0"), "ERR bad TRACE seconds (want 1..3600): 0");
  EXPECT_EQ(command("TRACE abc"), "ERR bad TRACE seconds (want 1..3600): abc");

  // Two windows of stamped traffic over TCP.
  {
    auto stream = net::TcpStream::connect("127.0.0.1", daemon.tcp_port());
    ASSERT_TRUE(stream.has_value());
    std::vector<std::uint8_t> wire;
    for (int w = 0; w < 3; ++w) {
      for (int o = 0; o < 3; ++o) {
        for (int q = 0; q < 4; ++q) {
          const auto message = dns::make_ptr_query_packet(
              static_cast<std::uint16_t>((w * 16 + q) & 0xffff), addr(192, 0, 2, o));
          const auto payload = stamped_payload(w * 100 + q, addr(10, 0, q, o), message);
          wire.clear();
          append_be16(wire, payload.size());
          wire.insert(wire.end(), payload.begin(), payload.end());
          ASSERT_TRUE(stream->write_all(wire.data(), wire.size()));
        }
      }
    }
  }
  EXPECT_EQ(command("FLUSH"), "OK flushed");

  // Line-protocol telemetry verbs.
  const std::string stats = command("STATS");
  EXPECT_NE(stats.find("\"history_windows\":3"), std::string::npos) << stats;
  const std::string history = command("HISTORY");
  EXPECT_EQ(history.rfind("{\"count\":3,", 0), 0u) << history;
  EXPECT_NE(history.find("\"sched\":{\"queue_depth_peak\":"), std::string::npos);
  EXPECT_EQ(command("HISTORY 1").rfind("{\"count\":1,", 0), 0u);
  EXPECT_EQ(command("HISTORY nope"), "ERR bad HISTORY count: nope");

  // HTTP endpoints share the same socket; each GET is a fresh one-shot
  // connection while the line-protocol stream above stays usable.
  const auto healthz = http_request(daemon.status_port(), "GET", "/healthz");
  ASSERT_TRUE(healthz.has_value());
  EXPECT_EQ(healthz->status_line, "HTTP/1.1 200 OK");
  EXPECT_TRUE(has_header(*healthz, "content-length: 3"));
  EXPECT_EQ(healthz->body, "ok\n");

  const auto metrics = http_request(daemon.status_port(), "GET", "/metrics");
  ASSERT_TRUE(metrics.has_value());
  EXPECT_EQ(metrics->status_line, "HTTP/1.1 200 OK");
  EXPECT_TRUE(has_header(*metrics, "text/plain; version=0.0.4"));
#if DNSBS_METRICS_ENABLED
  EXPECT_NE(metrics->body.find("# TYPE"), std::string::npos);
  EXPECT_NE(metrics->body.find("dnsbs_sensor_records"), std::string::npos);
  EXPECT_NE(metrics->body.find("# SCHED"), std::string::npos)
      << "sched series must stay strippable in the scrape output";
#endif

  const auto windows = http_request(daemon.status_port(), "GET", "/windows?n=1");
  ASSERT_TRUE(windows.has_value());
  EXPECT_EQ(windows->status_line, "HTTP/1.1 200 OK");
  EXPECT_TRUE(has_header(*windows, "application/json"));
  EXPECT_EQ(windows->body.rfind("{\"count\":1,", 0), 0u) << windows->body;
  EXPECT_EQ(windows->body.back(), '\n');

  const auto missing = http_request(daemon.status_port(), "GET", "/nope");
  ASSERT_TRUE(missing.has_value());
  EXPECT_EQ(missing->status_line, "HTTP/1.1 404 Not Found");
  const auto post = http_request(daemon.status_port(), "POST", "/metrics");
  ASSERT_TRUE(post.has_value());
  EXPECT_EQ(post->status_line, "HTTP/1.1 405 Method Not Allowed");

  EXPECT_EQ(command("SHUTDOWN"), "OK shutting down");
  daemon.wait();

  // The in-flight trace is finished on drive-loop exit: the file must be a
  // structurally valid Chrome trace with balanced B/E pairs.
  std::ifstream trace(trace_out);
  ASSERT_TRUE(trace.good()) << trace_out;
  std::string json((std::istreambuf_iterator<char>(trace)),
                   std::istreambuf_iterator<char>());
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0u);
  EXPECT_NE(json.find("\"displayTimeUnit\":\"ms\""), std::string::npos);
  const auto count_all = [&json](const std::string& needle) {
    std::size_t n = 0;
    for (std::size_t at = json.find(needle); at != std::string::npos;
         at = json.find(needle, at + needle.size()))
      ++n;
    return n;
  };
  EXPECT_EQ(count_all("\"ph\":\"B\""), count_all("\"ph\":\"E\""));
#if DNSBS_METRICS_ENABLED
  EXPECT_GT(count_all("\"ph\":\"B\""), 0u) << "pipeline spans should have been captured";
  EXPECT_NE(json.find("\"name\":\"pipeline.window\""), std::string::npos)
      << json.substr(0, 400);
#endif
}

}  // namespace
}  // namespace dnsbs
