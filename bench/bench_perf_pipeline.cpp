// End-to-end throughput benchmark of the hot ingest path (PERF gate).
//
// Measures, on a seeded synthetic workload:
//   * parse_record lines/sec        (text log -> QueryRecord)
//   * ingest_all records/sec        (dedup + per-originator aggregation)
//   * extract_features rows/sec     (static + dynamic features, cold: a
//                                    freshly ingested sensor, empty cache)
//   * dedup window-state size/bytes and peak RSS
//
// Modes:
//   bench_perf_pipeline --json BENCH_perf.json     write machine-readable results
//   bench_perf_pipeline --check BENCH_perf.json    fail (exit 1) if live throughput
//                                                  drops >10% below the committed
//                                                  numbers (tools/check.sh PERF=1)
//   bench_perf_pipeline --smoke                    tiny world, quick sanity run
//                                                  (ctest label "perf")
//   --baseline OLD.json                            with --json: also record the
//                                                  old numbers and the measured
//                                                  speedup on each axis
//   --features                                     feature-extraction scenario
//                                                  instead of the end-to-end one:
//                                                  high-footprint workload,
//                                                  measuring the cold extraction
//                                                  rate against
//                                                  BENCH_perf_features.json
//                                                  (knobs: --originators
//                                                  --queriers --windows)
//   --merge                                        federated N-sensor merge
//                                                  scenario: shard-ingest a
//                                                  1M+-originator synthetic
//                                                  stream, export each shard's
//                                                  state, import+merge into a
//                                                  coordinator — once with
//                                                  exact querier state, once
//                                                  with sketches — comparing
//                                                  merge throughput and peak
//                                                  RSS against
//                                                  BENCH_perf_merge.json
//                                                  (knobs: --light --heavy
//                                                  --heavy-queriers --shards)
//   --stream                                       streaming-sensor scenario:
//                                                  offer a multi-window record
//                                                  stream to the
//                                                  StreamingWindowDriver with
//                                                  --async-windows off and on,
//                                                  comparing sustained intake
//                                                  throughput, boundary-region
//                                                  intake throughput (where
//                                                  the sync driver stalls for
//                                                  the whole window close) and
//                                                  p99/max offer latency
//                                                  against
//                                                  BENCH_perf_stream.json
//                                                  (knobs: --originators
//                                                  --queriers --windows
//                                                  --boundary-span
//                                                  --job-threads)
//
// Times are best-of --repeat (default 3) so scheduler noise shrinks the
// committed baseline instead of inflating it.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#ifdef __linux__
#include <unistd.h>
#endif

#include "analysis/pipeline.hpp"
#include "analysis/streaming.hpp"
#include "common.hpp"
#include "core/federation.hpp"
#include "core/sensor.hpp"
#include "dns/query_log.hpp"
#include "sim/scenario.hpp"
#include "util/binio.hpp"
#include "util/jobs.hpp"
#include "util/metrics.hpp"
#include "util/strings.hpp"

namespace dnsbs::bench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set in kB from /proc/self/status (0 where unsupported).
long peak_rss_kb() {
#ifdef __linux__
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    long kb = 0;
    if (std::sscanf(line.c_str(), "VmHWM: %ld kB", &kb) == 1) return kb;
  }
#endif
  return 0;
}

/// Extracts `"key": <number>` from a JSON text (flat schema, no escapes).
double json_number(const std::string& text, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const std::size_t pos = text.find(needle);
  if (pos == std::string::npos) return 0.0;
  return std::atof(text.c_str() + pos + needle.size());
}

struct Results {
  std::size_t records = 0;
  std::size_t lines_bytes = 0;
  std::size_t interesting = 0;
  std::size_t dedup_state_entries = 0;
  std::uint64_t admitted = 0;
  double parse_lines_per_s = 0;
  double ingest_records_per_s = 0;
  double features_cold_rows_per_s = 0;
  double end_to_end_records_per_s = 0;
};

template <typename Fn>
double best_of(int repeat, std::size_t items, Fn&& fn) {
  double best = 0.0;
  for (int r = 0; r < repeat; ++r) {
    const auto t0 = Clock::now();
    fn();
    const double rate = static_cast<double>(items) / seconds_since(t0);
    best = std::max(best, rate);
  }
  return best;
}

/// One throughput axis: a JSON key and the freshly measured rate.
struct Axis {
  const char* key;
  double live;
};

/// --baseline: appends "baseline_<key>"/"speedup_<key>" entries for each
/// axis to an open JSON object stream (caller closes the object).
void append_baseline(std::ofstream& os, const std::string& baseline_path,
                     std::span<const Axis> axes) {
  std::ifstream bis(baseline_path);
  std::stringstream bbuf;
  bbuf << bis.rdbuf();
  const std::string base = bbuf.str();
  for (const auto& axis : axes) {
    const double before = json_number(base, axis.key);
    os << ",\n  \"baseline_" << axis.key << "\": " << before;
    if (before > 0.0) {
      os << ",\n  \"speedup_" << axis.key << "\": " << axis.live / before;
      std::printf("speedup %-26s %.2fx (%.0f -> %.0f)\n", axis.key, axis.live / before,
                  before, axis.live);
    }
  }
}

/// --check: >10% below the committed number on any axis fails the gate.
/// Axes missing from the committed file (or <= 0) are skipped, so new
/// axes can be introduced before their baseline is refreshed.
int check_axes(const std::string& check_path, std::span<const Axis> axes) {
  std::ifstream is(check_path);
  if (!is) {
    std::fprintf(stderr, "check: cannot read %s\n", check_path.c_str());
    return 1;
  }
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string committed = buffer.str();
  bool ok = true;
  for (const auto& axis : axes) {
    const double want = json_number(committed, axis.key);
    if (want <= 0.0) continue;
    const double ratio = axis.live / want;
    std::printf("check %-26s %12.0f vs committed %12.0f  (%.2fx)%s\n", axis.key,
                axis.live, want, ratio, ratio < 0.9 ? "  REGRESSION" : "");
    if (ratio < 0.9) ok = false;
  }
  if (!ok) {
    std::fprintf(stderr, "\nperf check FAILED: >10%% regression vs %s\n",
                 check_path.c_str());
    return 1;
  }
  std::printf("\nperf check passed (within 10%% of %s)\n", check_path.c_str());
  return 0;
}

/// Stable per-address resolver for the --features scenario: the querier
/// category cycles with the low octet, and the four QuerierInfo values are
/// prebuilt so resolve() itself is cheap — resolution cost is the
/// interner's (paid once per querier), not the extraction loop's.
class FeatureBenchResolver final : public core::QuerierResolver {
 public:
  FeatureBenchResolver() {
    infos_[0].status = core::ResolveStatus::kOk;
    infos_[0].name = *dns::DnsName::parse("mail.bench.example.com");
    infos_[1].status = core::ResolveStatus::kOk;
    infos_[1].name = *dns::DnsName::parse("ns1.bench.example.com");
    infos_[2].status = core::ResolveStatus::kNxDomain;
    infos_[3].status = core::ResolveStatus::kUnreachable;
  }
  core::QuerierInfo resolve(net::IPv4Addr querier) const override {
    return infos_[querier.octet(3) % 4];
  }

 private:
  std::array<core::QuerierInfo, 4> infos_{};
};

/// --features: the feature-extraction scenario behind the
/// BENCH_perf_features.json gate.  A high-footprint workload spanning
/// --windows hours, extracted the way the daemon closes a window: one
/// fresh sensor on an empty shared feature cache, one extraction, which
/// interns every querier and computes every row (cold).  Ingest time is
/// excluded from the timed region.
int run_features(int argc, char** argv) {
  const bool smoke = arg_flag(argc, argv, "--smoke");
  const int repeat =
      smoke ? 1 : std::max(1, std::atoi(arg_str(argc, argv, "--repeat", "3").c_str()));
  const std::size_t threads = static_cast<std::size_t>(
      std::atoi(arg_str(argc, argv, "--threads", "1").c_str()));
  const std::size_t originators = static_cast<std::size_t>(std::atoi(
      arg_str(argc, argv, "--originators", smoke ? "60" : "600").c_str()));
  const std::size_t queriers = static_cast<std::size_t>(
      std::atoi(arg_str(argc, argv, "--queriers", smoke ? "48" : "400").c_str()));
  const std::size_t windows = static_cast<std::size_t>(
      std::atoi(arg_str(argc, argv, "--windows", smoke ? "3" : "6").c_str()));
  const std::string json_path = arg_str(argc, argv, "--json", "");
  const std::string check_path = arg_str(argc, argv, "--check", "");
  const std::string baseline_path = arg_str(argc, argv, "--baseline", "");

  print_header("perf_features", "§III feature extraction (columnar SoA, cold cache)",
               util::format("originators=%zu queriers=%zu windows=%zu threads=%zu repeat=%d",
                            originators, queriers, windows, threads, repeat));

  // Sixteen /16s, one AS and one country each; querier addresses hash into
  // this space.
  netdb::AsDb as_db;
  netdb::GeoDb geo_db;
  for (int i = 0; i < 16; ++i) {
    const auto prefix = *net::Prefix::parse(util::format("10.%d.0.0/16", i));
    as_db.add(prefix, 100 + i, util::format("bench-as-%d", i));
    geo_db.add(prefix, netdb::CountryCode(static_cast<char>('a' + i), 'q'));
  }
  const FeatureBenchResolver resolver;

  const std::uint64_t horizon = static_cast<std::uint64_t>(windows) * 3600;
  const std::size_t space =
      std::min<std::size_t>(originators * queriers, std::size_t{16} << 16);
  std::vector<dns::QueryRecord> records;
  records.reserve(originators * queriers);
  for (std::size_t o = 0; o < originators; ++o) {
    for (std::size_t q = 0; q < queriers; ++q) {
      const std::uint64_t t = (q * horizon) / queriers + (o % 37);
      const auto querier = static_cast<std::uint32_t>((o * queriers + q) % space);
      records.push_back({util::SimTime::seconds(static_cast<std::int64_t>(t)),
                         net::IPv4Addr((10u << 24) | querier),
                         net::IPv4Addr((172u << 24) | static_cast<std::uint32_t>(o)),
                         dns::RCode::kNoError});
    }
  }
  std::stable_sort(records.begin(), records.end(),
                   [](const dns::QueryRecord& a, const dns::QueryRecord& b) {
                     return a.time < b.time;
                   });

  core::SensorConfig cfg;
  cfg.threads = threads;
  cfg.top_n = 0;  // keep every analyzable originator: rows == originators

  double cold_best = 0.0;
  std::size_t rows = 0;
  for (int r = 0; r < repeat; ++r) {
    core::Sensor sensor(cfg, as_db, geo_db, resolver);
    sensor.set_feature_cache(std::make_shared<core::FeatureExtractionCache>());
    sensor.ingest_all(records);
    const auto t0 = Clock::now();
    rows = sensor.extract_features().size();
    cold_best = std::max(cold_best, static_cast<double>(rows) / seconds_since(t0));
    if (rows != originators) std::abort();  // every originator must be analyzable
  }

  const long rss_kb = peak_rss_kb();
  const auto snapshot = util::metrics_snapshot();
  const Axis axes[] = {{"features_cold_rows_per_s", cold_best}};

  std::printf("rows               %zu per extraction\n", rows);
  std::printf("cold               %.0f rows/s\n", cold_best);
  std::printf("queriers interned  %lld\n",
              static_cast<long long>(snapshot.scalar("dnsbs.cache.interner.queriers")));
  std::printf("peak RSS           %ld kB\n", rss_kb);

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n"
       << "  \"bench\": \"perf_features\",\n"
       << "  \"originators\": " << originators << ",\n"
       << "  \"queriers\": " << queriers << ",\n"
       << "  \"windows\": " << windows << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"rows\": " << rows << ",\n"
       << "  \"features_cold_rows_per_s\": " << cold_best << ",\n"
       << "  \"peak_rss_kb\": " << rss_kb << ",\n"
       << "  \"metrics\": " << snapshot.to_json();
    if (!baseline_path.empty()) append_baseline(os, baseline_path, axes);
    os << "\n}\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (!check_path.empty()) return check_axes(check_path, axes);
  return 0;
}

std::size_t arg_size(int argc, char** argv, const char* name, const char* fallback) {
  return static_cast<std::size_t>(
      std::strtoull(arg_str(argc, argv, name, fallback).c_str(), nullptr, 10));
}

/// One --stream measurement: a full pass of the record stream through a
/// fresh driver+pipeline pair in one execution mode.
struct StreamModeRun {
  double intake_records_per_s = 0;    ///< whole-stream offer() throughput
  double boundary_records_per_s = 0;  ///< throughput across window boundaries
  double p99_offer_us = 0;
  double max_offer_us = 0;
  double wall_s = 0;  ///< including flush (total work is mode-invariant)
  /// Each window's stats — the oracle the two modes are cross-checked
  /// against.
  std::vector<analysis::WindowStats> window_stats;
};

StreamModeRun run_stream_once(bool async, std::size_t job_threads,
                              const std::vector<dns::QueryRecord>& records,
                              std::int64_t window_secs, std::size_t windows,
                              std::size_t per_window, std::size_t span,
                              const netdb::AsDb& as_db, const netdb::GeoDb& geo_db,
                              const core::QuerierResolver& resolver) {
  analysis::WindowedPipelineConfig pcfg;
  pcfg.sensor.threads = 1;
  pcfg.sensor.top_n = 0;
  // No carry-forward: every close pays the full cold extraction — the
  // constant per-window cost a live sensor seeing fresh queriers pays,
  // and the stall the async mode exists to hide.
  pcfg.carry_forward = false;
  if (async) {
    pcfg.jobs = std::make_shared<util::JobSystem>(
        util::JobSystemConfig{.threads = job_threads, .metric_prefix = {}});
  }
  analysis::WindowedPipeline pipeline(pcfg, as_db, geo_db, resolver);
  analysis::StreamingConfig sc;
  sc.window = util::SimTime::seconds(window_secs);
  sc.async_windows = async;
  analysis::StreamingWindowDriver driver(sc, pipeline, as_db, geo_db, resolver);

  std::vector<double> offer_secs(records.size());
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < records.size(); ++i) {
    const auto o0 = Clock::now();
    driver.offer(records[i]);
    offer_secs[i] = seconds_since(o0);
  }
  const double intake_secs = seconds_since(t0);
  driver.flush();

  StreamModeRun run;
  run.wall_s = seconds_since(t0);
  if (driver.windows_closed() != windows) std::abort();
  run.intake_records_per_s = static_cast<double>(records.size()) / intake_secs;

  // Boundary region: the first `span` offers at/after each interior window
  // boundary.  The very first of them is the offer that seals the previous
  // window — in sync mode it carries the entire close.
  double boundary_secs = 0.0;
  std::size_t boundary_count = 0;
  for (std::size_t b = 1; b < windows; ++b) {
    for (std::size_t i = b * per_window; i < b * per_window + span; ++i) {
      boundary_secs += offer_secs[i];
    }
    boundary_count += span;
  }
  run.boundary_records_per_s = static_cast<double>(boundary_count) / boundary_secs;

  std::vector<double> sorted = offer_secs;
  const std::size_t p99 = sorted.size() * 99 / 100;
  std::nth_element(sorted.begin(), sorted.begin() + static_cast<std::ptrdiff_t>(p99),
                   sorted.end());
  run.p99_offer_us = sorted[p99] * 1e6;
  run.max_offer_us =
      *std::max_element(sorted.begin() + static_cast<std::ptrdiff_t>(p99),
                        sorted.end()) *
      1e6;

  for (const auto& result : pipeline.results()) run.window_stats.push_back(result.stats);
  return run;
}

/// --stream: the async-window-pipeline scenario behind the
/// BENCH_perf_stream.json gate (tools/check.sh PERF=1).  A multi-window
/// synthetic stream — every window a fresh cold extraction — is offered
/// record-at-a-time to the StreamingWindowDriver twice, --async-windows
/// off then on, and the two modes' per-window WindowStats are required
/// to match exactly (the serve tests render the same stats into their
/// byte-identity oracle).  Gated axes: sync + async sustained intake, async boundary
/// intake, and the async/sync boundary speedup; the non-smoke run also
/// enforces the >= 2x boundary-speedup acceptance floor directly.
int run_stream(int argc, char** argv) {
  const bool smoke = arg_flag(argc, argv, "--smoke");
  const int repeat =
      smoke ? 1 : std::max(1, std::atoi(arg_str(argc, argv, "--repeat", "3").c_str()));
  const std::size_t originators =
      arg_size(argc, argv, "--originators", smoke ? "80" : "600");
  const std::size_t queriers = arg_size(argc, argv, "--queriers", smoke ? "40" : "300");
  const std::size_t windows =
      std::max<std::size_t>(2, arg_size(argc, argv, "--windows", smoke ? "3" : "4"));
  const std::size_t job_threads = arg_size(argc, argv, "--job-threads", "2");
  const std::string json_path = arg_str(argc, argv, "--json", "");
  const std::string check_path = arg_str(argc, argv, "--check", "");
  const std::string baseline_path = arg_str(argc, argv, "--baseline", "");
  constexpr std::int64_t kWindowSecs = 3600;
  const std::size_t per_window = originators * queriers;
  const std::size_t span = std::min(
      per_window, arg_size(argc, argv, "--boundary-span", smoke ? "200" : "2000"));

  print_header("perf_stream",
               "async window pipeline (job-system close vs inline close)",
               util::format("originators=%zu queriers=%zu windows=%zu span=%zu "
                            "job_threads=%zu repeat=%d",
                            originators, queriers, windows, span, job_threads, repeat));

  // Same address plan as --features: sixteen /16s so AS/geo lookups hit.
  netdb::AsDb as_db;
  netdb::GeoDb geo_db;
  for (int i = 0; i < 16; ++i) {
    const auto prefix = *net::Prefix::parse(util::format("10.%d.0.0/16", i));
    as_db.add(prefix, 100 + i, util::format("bench-as-%d", i));
    geo_db.add(prefix, netdb::CountryCode(static_cast<char>('a' + i), 'q'));
  }
  const FeatureBenchResolver resolver;

  // Each window re-ingests the full originator x querier matrix, evenly
  // spread across the window so record times are globally monotone; the
  // first record of window w lands exactly on the boundary and seals
  // window w-1.
  const std::size_t space =
      std::min<std::size_t>(per_window, std::size_t{16} << 16);
  std::vector<dns::QueryRecord> records;
  records.reserve(windows * per_window);
  for (std::size_t w = 0; w < windows; ++w) {
    for (std::size_t s = 0; s < per_window; ++s) {
      const std::int64_t t =
          static_cast<std::int64_t>(w) * kWindowSecs +
          static_cast<std::int64_t>((s * static_cast<std::size_t>(kWindowSecs)) /
                                    per_window);
      records.push_back(
          {util::SimTime::seconds(t),
           net::IPv4Addr((10u << 24) | static_cast<std::uint32_t>(s % space)),
           net::IPv4Addr((172u << 24) | static_cast<std::uint32_t>(s / queriers)),
           dns::RCode::kNoError});
    }
  }

  StreamModeRun best[2];  // [0] = sync, [1] = async
  best[0].p99_offer_us = best[1].p99_offer_us = 1e18;
  best[0].max_offer_us = best[1].max_offer_us = 1e18;
  best[0].wall_s = best[1].wall_s = 1e18;
  for (int r = 0; r < repeat; ++r) {
    for (int m = 0; m < 2; ++m) {
      StreamModeRun run =
          run_stream_once(m == 1, job_threads, records, kWindowSecs, windows,
                          per_window, span, as_db, geo_db, resolver);
      best[m].intake_records_per_s =
          std::max(best[m].intake_records_per_s, run.intake_records_per_s);
      best[m].boundary_records_per_s =
          std::max(best[m].boundary_records_per_s, run.boundary_records_per_s);
      best[m].p99_offer_us = std::min(best[m].p99_offer_us, run.p99_offer_us);
      best[m].max_offer_us = std::min(best[m].max_offer_us, run.max_offer_us);
      best[m].wall_s = std::min(best[m].wall_s, run.wall_s);
      best[m].window_stats = std::move(run.window_stats);
    }
    // Oracle: both modes must give every window the same stats, every
    // repeat.
    if (best[0].window_stats != best[1].window_stats) {
      std::fprintf(stderr, "stream: async window stats diverged from sync\n");
      return 1;
    }
  }

  const double boundary_speedup =
      best[1].boundary_records_per_s / best[0].boundary_records_per_s;
  std::printf("records            %zu (%zu windows of %zu)\n", records.size(), windows,
              per_window);
  std::printf("intake             sync %.0f rec/s, async %.0f rec/s\n",
              best[0].intake_records_per_s, best[1].intake_records_per_s);
  std::printf("boundary intake    sync %.0f rec/s, async %.0f rec/s (%.1fx)\n",
              best[0].boundary_records_per_s, best[1].boundary_records_per_s,
              boundary_speedup);
  std::printf("offer p99          sync %.1f us, async %.1f us\n", best[0].p99_offer_us,
              best[1].p99_offer_us);
  std::printf("offer max          sync %.0f us, async %.0f us\n", best[0].max_offer_us,
              best[1].max_offer_us);
  std::printf("wall (incl flush)  sync %.2f s, async %.2f s\n", best[0].wall_s,
              best[1].wall_s);
  std::printf("window stats       %zu windows identical across modes\n",
              best[0].window_stats.size());

  if (!smoke && boundary_speedup < 2.0) {
    std::fprintf(stderr,
                 "stream: boundary speedup %.2fx below the 2x acceptance floor\n",
                 boundary_speedup);
    return 1;
  }

  // The speedup ratio is deliberately not a gated axis: it divides two
  // measurements and inherits both runs' noise.  It is recorded in the
  // JSON and enforced by the absolute 2x floor above; the gated axes are
  // the direct throughputs.
  const Axis axes[] = {
      {"stream_sync_intake_records_per_s", best[0].intake_records_per_s},
      {"stream_async_intake_records_per_s", best[1].intake_records_per_s},
      {"stream_async_boundary_records_per_s", best[1].boundary_records_per_s},
  };

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n"
       << "  \"bench\": \"perf_stream\",\n"
       << "  \"originators\": " << originators << ",\n"
       << "  \"queriers\": " << queriers << ",\n"
       << "  \"windows\": " << windows << ",\n"
       << "  \"boundary_span\": " << span << ",\n"
       << "  \"job_threads\": " << job_threads << ",\n"
       << "  \"records\": " << records.size() << ",\n"
       << "  \"stream_sync_intake_records_per_s\": " << best[0].intake_records_per_s
       << ",\n"
       << "  \"stream_async_intake_records_per_s\": " << best[1].intake_records_per_s
       << ",\n"
       << "  \"stream_sync_boundary_records_per_s\": "
       << best[0].boundary_records_per_s << ",\n"
       << "  \"stream_async_boundary_records_per_s\": "
       << best[1].boundary_records_per_s << ",\n"
       << "  \"stream_async_boundary_speedup\": " << boundary_speedup << ",\n"
       << "  \"stream_sync_p99_offer_us\": " << best[0].p99_offer_us << ",\n"
       << "  \"stream_async_p99_offer_us\": " << best[1].p99_offer_us << ",\n"
       << "  \"stream_sync_max_offer_us\": " << best[0].max_offer_us << ",\n"
       << "  \"stream_async_max_offer_us\": " << best[1].max_offer_us << ",\n"
       << "  \"stream_sync_wall_s\": " << best[0].wall_s << ",\n"
       << "  \"stream_async_wall_s\": " << best[1].wall_s;
    if (!baseline_path.empty()) append_baseline(os, baseline_path, axes);
    os << "\n}\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (!check_path.empty()) return check_axes(check_path, axes);
  return 0;
}

/// The --merge children never extract features, so the resolver is never
/// consulted; it exists only to satisfy the Sensor constructor.
class NullResolver final : public core::QuerierResolver {
 public:
  core::QuerierInfo resolve(net::IPv4Addr) const override { return {}; }
};

unsigned long bench_pid() {
#ifdef __linux__
  return static_cast<unsigned long>(::getpid());
#else
  return 0;
#endif
}

/// One --merge measurement: peak RSS (VmHWM) is process-monotonic, so the
/// parent re-execs itself once per querier-state mode and each child runs
/// the whole shard-ingest -> export -> destroy -> import+merge cycle in a
/// fresh address space.
///
/// The workload is a bimodal originator population, streamed in time order
/// (no materialized record buffer, so RSS measures sensor state):
///   * --light originators with one querier each — the long tail that
///     stays on exact histograms in both modes and bounds the fixed cost.
///   * --heavy originators with --heavy-queriers distinct queriers each —
///     the scanners whose exact histograms dominate memory and whose
///     sketch form collapses to registers + a frozen sample.
/// Timestamps advance linearly across 24 h so the dedup window prunes
/// itself; every (querier, originator) pair is unique, so merged state is
/// exactly checkable: originator_count == light + heavy and (exact mode)
/// sum(unique_queriers) == light + heavy * heavy_queriers.
int run_merge_child(const std::string& mode, int argc, char** argv) {
  const std::size_t light = arg_size(argc, argv, "--light", "1000000");
  const std::size_t heavy = arg_size(argc, argv, "--heavy", "10000");
  const std::size_t heavy_queriers = arg_size(argc, argv, "--heavy-queriers", "12320");
  const std::size_t shards = std::max<std::size_t>(1, arg_size(argc, argv, "--shards", "4"));
  const int repeat =
      std::max(1, std::atoi(arg_str(argc, argv, "--repeat", "1").c_str()));
  const std::string out_path = arg_str(argc, argv, "--out", "");
  const std::string tmp_dir = arg_str(
      argc, argv, "--tmp", std::filesystem::temp_directory_path().string());

  core::SensorConfig cfg;
  cfg.threads = 1;
  cfg.querier_state =
      mode == "sketch" ? core::QuerierStateMode::kSketch : core::QuerierStateMode::kExact;

  const netdb::AsDb as_db;
  const netdb::GeoDb geo_db;
  const NullResolver resolver;
  std::vector<std::unique_ptr<core::Sensor>> sensors;
  sensors.reserve(shards);
  for (std::size_t s = 0; s < shards; ++s) {
    sensors.push_back(std::make_unique<core::Sensor>(cfg, as_db, geo_db, resolver));
  }

  // --- shard ingest (setup, untimed by the gate but reported) ------------
  const std::size_t heavy_records = heavy * heavy_queriers;
  const std::size_t total = light + heavy_records;
  constexpr std::int64_t kHorizonSecs = 86400;
  const auto t_ingest = Clock::now();
  std::size_t li = 0, hj = 0;
  for (std::size_t i = 0; i < total; ++i) {
    dns::QueryRecord r;
    r.time = util::SimTime::seconds(
        static_cast<std::int64_t>(i) * kHorizonSecs / static_cast<std::int64_t>(total));
    // Bresenham interleave: exactly `light` light records, evenly spread
    // through the heavy stream so both populations span the full horizon.
    if (hj >= heavy_records ||
        (li < light && (i + 1) * light / total > i * light / total)) {
      r.originator = net::IPv4Addr(0xC0000000u + static_cast<std::uint32_t>(li));
      r.querier = net::IPv4Addr(0x0A000000u + static_cast<std::uint32_t>(li));
      ++li;
    } else {
      r.originator =
          net::IPv4Addr(0xD0000000u + static_cast<std::uint32_t>(hj / heavy_queriers));
      r.querier = net::IPv4Addr(0x30000000u + static_cast<std::uint32_t>(hj));
      ++hj;
    }
    sensors[core::federation_shard(r.originator, shards)]->ingest(r);
  }
  const double ingest_secs = seconds_since(t_ingest);

  // --- export every shard, then free it before the merge ----------------
  std::vector<std::string> paths;
  std::uintmax_t state_bytes = 0;
  for (std::size_t s = 0; s < shards; ++s) {
    std::string path = tmp_dir + "/dnsbs_merge_" + mode + "_" +
                       std::to_string(bench_pid()) + "_" + std::to_string(s) + ".state";
    {
      std::ofstream os(path, std::ios::binary);
      util::BinaryWriter writer(os);
      core::export_sensor_state(*sensors[s], writer);
      if (!writer.finish()) {
        std::fprintf(stderr, "merge-child: cannot write %s\n", path.c_str());
        return 1;
      }
    }
    state_bytes += std::filesystem::file_size(path);
    paths.push_back(std::move(path));
    sensors[s].reset();
  }

  // --- timed region: import + merge all shard states --------------------
  double best_rate = 0.0, merge_secs = 0.0;
  std::size_t merged = 0, promoted = 0, sketch_bytes = 0;
  double footprint_sum = 0.0;
  for (int r = 0; r < repeat; ++r) {
    core::Sensor coordinator(cfg, as_db, geo_db, resolver);
    const auto t0 = Clock::now();
    for (const auto& path : paths) {
      std::ifstream is(path, std::ios::binary);
      util::BinaryReader reader(is);
      if (!core::import_sensor_state(reader, coordinator)) {
        std::fprintf(stderr, "merge-child: import failed for %s\n", path.c_str());
        return 1;
      }
    }
    merge_secs = seconds_since(t0);
    merged = coordinator.aggregator().originator_count();
    if (merged != light + heavy) {
      std::fprintf(stderr, "merge-child: merged %zu originators, want %zu\n", merged,
                   light + heavy);
      return 1;
    }
    best_rate = std::max(best_rate, static_cast<double>(merged) / merge_secs);
    footprint_sum = 0.0;
    for (const auto& [originator, agg] : coordinator.aggregator().aggregates()) {
      footprint_sum += static_cast<double>(agg.unique_queriers());
    }
    promoted = coordinator.aggregator().promoted_count();
    sketch_bytes = coordinator.aggregator().sketch_bytes();
  }
  for (const auto& path : paths) std::filesystem::remove(path);

  const long rss_kb = peak_rss_kb();
  std::printf("[%s] ingest             %.0f records/s (%zu records, %zu shards)\n",
              mode.c_str(), static_cast<double>(total) / ingest_secs, total, shards);
  std::printf("[%s] state files        %.1f MB\n", mode.c_str(),
              static_cast<double>(state_bytes) / (1024.0 * 1024.0));
  std::printf("[%s] merge              %.0f originators/s (%zu in %.2fs, %zu promoted)\n",
              mode.c_str(), best_rate, merged, merge_secs, promoted);
  std::printf("[%s] peak RSS           %ld kB\n", mode.c_str(), rss_kb);

  if (!out_path.empty()) {
    std::ofstream os(out_path);
    os << "{\n"
       << "  \"mode\": \"" << mode << "\",\n"
       << "  \"records\": " << total << ",\n"
       << "  \"ingest_records_per_s\": " << static_cast<double>(total) / ingest_secs
       << ",\n"
       << "  \"merge_originators_per_s\": " << best_rate << ",\n"
       << "  \"merged_originators\": " << merged << ",\n"
       << "  \"promoted\": " << promoted << ",\n"
       << "  \"sketch_bytes\": " << sketch_bytes << ",\n"
       << "  \"footprint_sum\": " << footprint_sum << ",\n"
       << "  \"state_file_bytes\": " << state_bytes << ",\n"
       << "  \"peak_rss_kb\": " << rss_kb << "\n"
       << "}\n";
    if (!os) {
      std::fprintf(stderr, "merge-child: cannot write %s\n", out_path.c_str());
      return 1;
    }
  }
  return 0;
}

/// --merge parent: runs the exact and sketch children, cross-checks their
/// merged cardinalities, and gates on merge throughput plus the RSS ratio
/// (the tentpole claim: sketch state >= 4x smaller at 1M+ originators).
int run_merge(int argc, char** argv, const char* self) {
  const bool smoke = arg_flag(argc, argv, "--smoke");
  const std::size_t light =
      arg_size(argc, argv, "--light", smoke ? "30000" : "1000000");
  const std::size_t heavy = arg_size(argc, argv, "--heavy", smoke ? "24" : "10000");
  const std::size_t heavy_queriers =
      arg_size(argc, argv, "--heavy-queriers", smoke ? "512" : "12320");
  const std::size_t shards = arg_size(argc, argv, "--shards", smoke ? "2" : "4");
  const int repeat =
      std::max(1, std::atoi(arg_str(argc, argv, "--repeat", "1").c_str()));
  const std::string json_path = arg_str(argc, argv, "--json", "");
  const std::string check_path = arg_str(argc, argv, "--check", "");
  const std::string baseline_path = arg_str(argc, argv, "--baseline", "");
  const std::string tmp_dir = arg_str(
      argc, argv, "--tmp", std::filesystem::temp_directory_path().string());

  print_header("perf_merge",
               "federated N-sensor merge (exact vs sketch querier state)",
               util::format("light=%zu heavy=%zu heavy_queriers=%zu shards=%zu "
                            "repeat=%d",
                            light, heavy, heavy_queriers, shards, repeat));

  struct ModeResult {
    double rate = 0, rss_kb = 0, footprint_sum = 0, promoted = 0, ingest_rate = 0;
    double state_bytes = 0;
  };
  ModeResult results[2];
  const char* modes[2] = {"exact", "sketch"};
  for (int m = 0; m < 2; ++m) {
    const std::string out = tmp_dir + "/dnsbs_merge_" + modes[m] + "_" +
                            std::to_string(bench_pid()) + ".json";
    const std::string cmd = util::format(
        "\"%s\" --merge-child %s --light %zu --heavy %zu --heavy-queriers %zu "
        "--shards %zu --repeat %d --tmp \"%s\" --out \"%s\"",
        self, modes[m], light, heavy, heavy_queriers, shards, repeat,
        tmp_dir.c_str(), out.c_str());
    std::fflush(stdout);  // children share the terminal; keep output ordered
    if (std::system(cmd.c_str()) != 0) {
      std::fprintf(stderr, "merge: %s child failed\n", modes[m]);
      return 1;
    }
    std::ifstream is(out);
    std::stringstream buffer;
    buffer << is.rdbuf();
    const std::string child = buffer.str();
    std::filesystem::remove(out);
    results[m].rate = json_number(child, "merge_originators_per_s");
    results[m].rss_kb = json_number(child, "peak_rss_kb");
    results[m].footprint_sum = json_number(child, "footprint_sum");
    results[m].promoted = json_number(child, "promoted");
    results[m].ingest_rate = json_number(child, "ingest_records_per_s");
    results[m].state_bytes = json_number(child, "state_file_bytes");
    if (results[m].rate <= 0.0 || results[m].rss_kb <= 0.0) {
      std::fprintf(stderr, "merge: %s child produced no results\n", modes[m]);
      return 1;
    }
  }

  // Cross-checks: exact mode never promotes, sketch mode promotes every
  // heavy originator, and the sketched footprint sum stays within the HLL
  // error envelope of the exact truth.
  bool ok = true;
  if (results[0].promoted != 0.0) {
    std::fprintf(stderr, "merge: exact child promoted %g originators\n",
                 results[0].promoted);
    ok = false;
  }
  if (results[1].promoted != static_cast<double>(heavy)) {
    std::fprintf(stderr, "merge: sketch child promoted %g of %zu heavy originators\n",
                 results[1].promoted, heavy);
    ok = false;
  }
  const double footprint_err =
      std::abs(results[1].footprint_sum - results[0].footprint_sum) /
      results[0].footprint_sum;
  if (footprint_err > 0.025) {
    std::fprintf(stderr, "merge: sketch footprint sum off by %.2f%% (> 2.5%%)\n",
                 footprint_err * 100.0);
    ok = false;
  }
  const double rss_ratio = results[0].rss_kb / results[1].rss_kb;
  std::printf("\nfootprint sum      exact %.0f, sketch %.0f (%.3f%% error)\n",
              results[0].footprint_sum, results[1].footprint_sum,
              footprint_err * 100.0);
  std::printf("peak RSS           exact %.0f kB, sketch %.0f kB (%.2fx)\n",
              results[0].rss_kb, results[1].rss_kb, rss_ratio);
  if (!smoke && rss_ratio < 4.0) {
    std::fprintf(stderr, "merge: RSS ratio %.2fx below the 4x acceptance floor\n",
                 rss_ratio);
    ok = false;
  }
  if (!ok) return 1;

  const Axis axes[] = {
      {"merge_exact_originators_per_s", results[0].rate},
      {"merge_sketch_originators_per_s", results[1].rate},
      {"merge_rss_ratio", rss_ratio},
  };

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n"
       << "  \"bench\": \"perf_merge\",\n"
       << "  \"light\": " << light << ",\n"
       << "  \"heavy\": " << heavy << ",\n"
       << "  \"heavy_queriers\": " << heavy_queriers << ",\n"
       << "  \"shards\": " << shards << ",\n"
       << "  \"merge_exact_originators_per_s\": " << results[0].rate << ",\n"
       << "  \"merge_sketch_originators_per_s\": " << results[1].rate << ",\n"
       << "  \"merge_rss_ratio\": " << rss_ratio << ",\n"
       << "  \"exact_peak_rss_kb\": " << results[0].rss_kb << ",\n"
       << "  \"sketch_peak_rss_kb\": " << results[1].rss_kb << ",\n"
       << "  \"exact_state_file_bytes\": " << results[0].state_bytes << ",\n"
       << "  \"sketch_state_file_bytes\": " << results[1].state_bytes << ",\n"
       << "  \"exact_ingest_records_per_s\": " << results[0].ingest_rate << ",\n"
       << "  \"sketch_ingest_records_per_s\": " << results[1].ingest_rate << ",\n"
       << "  \"footprint_error\": " << footprint_err;
    if (!baseline_path.empty()) append_baseline(os, baseline_path, axes);
    os << "\n}\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (!check_path.empty()) return check_axes(check_path, axes);
  return 0;
}

int run(int argc, char** argv) {
  const std::string merge_child = arg_str(argc, argv, "--merge-child", "");
  if (!merge_child.empty()) return run_merge_child(merge_child, argc, argv);
  if (arg_flag(argc, argv, "--merge")) return run_merge(argc, argv, argv[0]);
  if (arg_flag(argc, argv, "--features")) return run_features(argc, argv);
  if (arg_flag(argc, argv, "--stream")) return run_stream(argc, argv);
  const bool smoke = arg_flag(argc, argv, "--smoke");
  const double scale = arg_scale(argc, argv, smoke ? 0.02 : 0.25);
  const std::uint64_t seed = arg_seed(argc, argv, 7);
  const int repeat =
      smoke ? 1 : std::max(1, std::atoi(arg_str(argc, argv, "--repeat", "3").c_str()));
  const std::size_t threads = static_cast<std::size_t>(
      std::atoi(arg_str(argc, argv, "--threads", "1").c_str()));
  const std::string json_path = arg_str(argc, argv, "--json", "");
  const std::string check_path = arg_str(argc, argv, "--check", "");
  const std::string baseline_path = arg_str(argc, argv, "--baseline", "");

  print_header("perf_pipeline",
               "§III sensor throughput (parse -> dedup -> aggregate -> features)",
               util::format("scale=%.3f seed=%llu threads=%zu repeat=%d", scale,
                            static_cast<unsigned long long>(seed), threads, repeat));

  sim::Scenario scenario(sim::jp_ditl_config(seed, scale));
  scenario.run();
  const auto& records = scenario.authority(0).records();

  Results res;
  res.records = records.size();

  // --- parse: serialize once, then measure text -> QueryRecord ----------
  std::string log_text;
  log_text.reserve(records.size() * 32);
  for (const auto& r : records) {
    log_text += dns::serialize(r);
    log_text += '\n';
  }
  res.lines_bytes = log_text.size();
  res.parse_lines_per_s = best_of(repeat, records.size(), [&] {
    std::istringstream is(log_text);
    dns::QueryLogReader reader(is);
    std::size_t n = 0;
    while (reader.next()) ++n;
    if (n != records.size()) std::abort();  // parse must be lossless here
  });

  // --- ingest: dedup + aggregation --------------------------------------
  core::SensorConfig cfg;
  cfg.threads = threads;
  const auto make_sensor = [&] {
    return core::Sensor(cfg, scenario.plan().as_db(), scenario.plan().geo_db(),
                        scenario.naming());
  };
  res.ingest_records_per_s = best_of(repeat, records.size(), [&] {
    auto sensor = make_sensor();
    sensor.ingest_all(records);
  });

  // --- features: cold extraction from a freshly ingested sensor ----------
  for (int r = 0; r < repeat; ++r) {
    auto sensor = make_sensor();
    sensor.ingest_all(records);
    res.dedup_state_entries = sensor.dedup().state_size();
    res.admitted = sensor.dedup().admitted();
    const auto t0 = Clock::now();
    res.interesting = sensor.extract_features().size();
    const double secs = seconds_since(t0);
    if (res.interesting != 0) {
      res.features_cold_rows_per_s = std::max(res.features_cold_rows_per_s,
                                              static_cast<double>(res.interesting) / secs);
    }
  }

  // --- end to end: fresh sensor, ingest + extract -----------------------
  res.end_to_end_records_per_s = best_of(repeat, records.size(), [&] {
    auto s = make_sensor();
    s.ingest_all(records);
    if (s.extract_features().size() != res.interesting) std::abort();
  });

  const long rss_kb = peak_rss_kb();
  const Axis axes[] = {
      {"parse_lines_per_s", res.parse_lines_per_s},
      {"ingest_records_per_s", res.ingest_records_per_s},
      {"features_cold_rows_per_s", res.features_cold_rows_per_s},
      {"end_to_end_records_per_s", res.end_to_end_records_per_s},
  };

  std::printf("records            %zu (%zu interesting originators)\n", res.records,
              res.interesting);
  std::printf("parse              %.0f lines/s\n", res.parse_lines_per_s);
  std::printf("ingest             %.0f records/s\n", res.ingest_records_per_s);
  std::printf("extract_features   %.0f rows/s (cold)\n", res.features_cold_rows_per_s);
  std::printf("end-to-end         %.0f records/s\n", res.end_to_end_records_per_s);
  std::printf("dedup state        %zu entries (admitted %llu)\n", res.dedup_state_entries,
              static_cast<unsigned long long>(res.admitted));
  std::printf("peak RSS           %ld kB\n", rss_kb);

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n"
       << "  \"bench\": \"perf_pipeline\",\n"
       << "  \"seed\": " << seed << ",\n"
       << "  \"scale\": " << scale << ",\n"
       << "  \"threads\": " << threads << ",\n"
       << "  \"records\": " << res.records << ",\n"
       << "  \"interesting\": " << res.interesting << ",\n"
       << "  \"parse_lines_per_s\": " << res.parse_lines_per_s << ",\n"
       << "  \"ingest_records_per_s\": " << res.ingest_records_per_s << ",\n"
       << "  \"features_cold_rows_per_s\": " << res.features_cold_rows_per_s << ",\n"
       << "  \"end_to_end_records_per_s\": " << res.end_to_end_records_per_s << ",\n"
       << "  \"dedup_state_entries\": " << res.dedup_state_entries << ",\n"
       << "  \"peak_rss_kb\": " << rss_kb << ",\n"
       // Full registry snapshot (counters, gauges, span histograms) so a
       // committed bench JSON doubles as an observability fixture.  Empty
       // metrics array under -DDNSBS_METRICS=OFF.
       << "  \"metrics\": " << util::metrics_snapshot().to_json();
    if (!baseline_path.empty()) append_baseline(os, baseline_path, axes);
    os << "\n}\n";
    std::printf("\nwrote %s\n", json_path.c_str());
  }

  if (!check_path.empty()) return check_axes(check_path, axes);
  return 0;
}

}  // namespace
}  // namespace dnsbs::bench

int main(int argc, char** argv) { return dnsbs::bench::run(argc, argv); }
