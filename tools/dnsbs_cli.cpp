// dnsbs_cli — command-line front end for the backscatter sensor.
//
//   dnsbs_cli generate  --out FILE [--scenario jp|b|m] [--scale S] [--seed N]
//       Simulate a world and write the authority's reverse-query log.
//
//   dnsbs_cli analyze   --log FILE [--scenario jp|b|m] [--scale S] [--seed N]
//                       [--min-queriers Q] [--top K] [--csv FILE]
//       Replay a query log through the sensor; print the top originators
//       and optionally dump all feature vectors as CSV.
//
//   dnsbs_cli classify  [--scenario jp|b|m] [--scale S] [--seed N] [--top K]
//       Full pipeline: simulate, curate labels, train RF, classify.
//
//   dnsbs_cli stats     [--log FILE] [--scenario jp|b|m] [--scale S] [--seed N]
//       Run the pipeline (replaying --log, or simulating when absent) and
//       pretty-print the metrics registry: counters, gauges, span times.
//
//   dnsbs_cli serve     [--bind A] [--udp-port P] [--tcp-port P] [--status-port P]
//                       [--stamped] [--window SECS] [--hop SECS] [--queue N]
//                       [--checkpoint FILE] [--restore] [--checkpoint-every SECS]
//                       [--windows-out FILE] [--ready-file FILE]
//                       [--async-windows on|off] [--job-threads N]
//       Long-running daemon: ingest DNS packets from UDP (and TCP with
//       --tcp-port), window the stream, and answer STATS/CHECKPOINT/FLUSH/
//       SHUTDOWN/PING on the status socket.  See DESIGN.md "Streaming
//       intake".
//
//   dnsbs_cli sendlog   --log FILE --to HOST:PORT [--tcp]
//       Replay a query log as stamped packets (the daemon's --stamped
//       framing) over UDP datagrams or one TCP connection.
//
//   dnsbs_cli ctl       --to HOST:PORT [--cmd stats|history|trace|checkpoint|
//                                             flush|shutdown|ping]
//       Send one control command to a running daemon and print the reply.
//       "history [n]" returns the per-window telemetry ring as JSON;
//       "trace [secs]" starts a timed capture into the daemon's
//       --trace-out file.  The same status port also answers plain HTTP
//       GETs: /metrics (Prometheus), /healthz, /windows[?n=K].
//
//   dnsbs_cli export-state --log FILE --state-out FILE
//                       [--shards N --shard-index I] [--querier-state M]
//       Run one federated sensor over (its shard of) a query log and write
//       a transferable state snapshot.  N exports with --shards N tile the
//       log disjointly by originator.
//
//   dnsbs_cli merge     --state FILE [--state FILE ...] [--csv FILE]
//       Coordinator: fold exported state snapshots into one sensor and
//       print the same report `analyze` would.  Merging N disjoint shards
//       reproduces the single-sensor analyze output byte-for-byte (exact
//       mode); sketch-mode merges carry the documented HLL error bound.
//
// Every subcommand accepts --metrics-out FILE to dump the final metrics
// snapshot; a path ending in ".prom" selects Prometheus text exposition,
// anything else gets JSON.  --metrics-format json|prom overrides the
// suffix sniff (json + a .prom path is a hard conflict).  --trace-out FILE
// captures a Chrome trace_event timeline of the run (for serve it only
// arms the TRACE control verb).
//
// `analyze` and `serve` resolve querier names through the synthetic world,
// so the (scenario, scale, seed) triple must match the one used by
// `generate`.  A production build would wire a real resolver client and
// whois/GeoIP databases into the same Sensor constructor.
#include <cctype>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>

#include "cli_options.hpp"
#include "core/federation.hpp"
#include "core/sensor.hpp"
#include "dns/capture.hpp"
#include "labeling/curator.hpp"
#include "ml/forest.hpp"
#include "net/socket.hpp"
#include "serve/daemon.hpp"
#include "sim/scenario.hpp"
#include "util/binio.hpp"
#include "util/metrics.hpp"
#include "util/table.hpp"
#include "util/trace.hpp"

namespace {

using namespace dnsbs;

int usage() {
  std::fprintf(
      stderr,
      "usage: dnsbs_cli "
      "<generate|analyze|classify|stats|serve|sendlog|ctl|export-state|merge> "
      "[options]\n"
      "  --scenario jp|b|m   vantage preset (default jp)\n"
      "  --scale S           world scale (default 0.15)\n"
      "  --seed N            world seed (default 1)\n"
      "  --out FILE          (generate) log output path\n"
      "  --log FILE          (analyze/stats/sendlog) log input path\n"
      "  --csv FILE          (analyze) feature-vector CSV output\n"
      "  --metrics-out FILE  metrics snapshot (.prom = Prometheus, else JSON)\n"
      "  --metrics-format F  json|prom; overrides the .prom suffix sniff\n"
      "  --trace-out FILE    Chrome trace JSON of this run (serve: TRACE target)\n"
      "  --min-queriers Q    sensor floor (default 20)\n"
      "  --top K             rows to print (default 20)\n"
      "  --querier-state M   exact|sketch querier cardinality state (default exact)\n"
      "  --sketch-threshold N  exact-to-sketch promotion size (default 64)\n"
      "  --sketch-precision P  HLL precision 4..16 (default 12)\n"
      "federation:\n"
      "  --shards N          (export-state) split the log into N originator shards\n"
      "  --shard-index I     (export-state) which shard this sensor ingests\n"
      "  --state-out FILE    (export-state) state snapshot destination\n"
      "  --state FILE        (merge, repeatable) state snapshots to fold in\n"
      "serve:\n"
      "  --bind A            listen address (default 127.0.0.1)\n"
      "  --udp-port P        UDP intake port (default 0 = ephemeral)\n"
      "  --tcp-port P        also listen for length-prefixed frames on TCP\n"
      "  --status-port P     control socket port (default 0 = ephemeral)\n"
      "  --stamped           payloads carry [8B secs][4B querier] replay stamps\n"
      "  --window SECS       window width (default 86400)\n"
      "  --hop SECS          hop between window starts (default = window)\n"
      "  --queue N           TCP intake queue capacity in receive buffers (default\n"
      "                      65536); UDP waits in the kernel's receive buffer\n"
      "  --checkpoint FILE   checkpoint target (CHECKPOINT command / cadence)\n"
      "  --restore           load --checkpoint FILE before starting\n"
      "  --checkpoint-every SECS  stream-time checkpoint cadence\n"
      "  --windows-out FILE  append a summary block per closed window\n"
      "  --ready-file FILE   write bound ports once listening\n"
      "  --history-cap N     per-window telemetry ring size (default 256, 0 = off)\n"
      "  --async-windows on|off  run window close/export on the job system so\n"
      "                      intake never stalls at a boundary (default on;\n"
      "                      output is byte-identical in both modes)\n"
      "  --job-threads N     job-system worker threads (default 2)\n"
      "sendlog/ctl:\n"
      "  --to HOST:PORT      target daemon\n"
      "  --tcp               (sendlog) stream frames over TCP instead of UDP\n"
      "  --cmd NAME          (ctl) stats|history [n]|trace [secs]|checkpoint|\n"
      "                      flush|shutdown|ping\n");
  return 2;
}

/// Dumps the end-of-run metrics snapshot for any subcommand.  The format
/// is --metrics-format when given, else sniffed from the path suffix
/// (.prom = Prometheus text, anything else JSON).  Returns false (and
/// complains) when the file cannot be written.
bool write_metrics(const cli::Options& opt) {
  const std::string& path = opt.metrics_out;
  if (path.empty()) return true;
  const util::MetricsSnapshot snapshot = util::metrics_snapshot();
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  const bool prometheus =
      opt.metrics_format.empty()
          ? path.size() >= 5 && path.compare(path.size() - 5, 5, ".prom") == 0
          : opt.metrics_format == "prom";
  out << (prometheus ? snapshot.to_prometheus() : snapshot.to_json());
  std::fprintf(stderr, "wrote %zu metrics to %s\n", snapshot.values.size(), path.c_str());
  return static_cast<bool>(out);
}

/// Ends the process-wide trace capture armed for non-serve subcommands and
/// writes the Chrome trace_event JSON.  Returns false when the file cannot
/// be written.
bool write_trace(const std::string& path) {
  util::trace_stop();
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  out << util::trace_export_json();
  out.flush();
  std::fprintf(stderr, "wrote trace (%zu events, %llu dropped) to %s\n",
               util::trace_event_count(),
               static_cast<unsigned long long>(util::trace_dropped()), path.c_str());
  return static_cast<bool>(out);
}

/// Splits "host:port"; false (with a complaint) on malformed input.
bool split_target(const std::string& to, std::string& host, std::uint16_t& port) {
  const auto colon = to.rfind(':');
  if (colon == std::string::npos || colon == 0) {
    std::fprintf(stderr, "--to wants HOST:PORT, got '%s'\n", to.c_str());
    return false;
  }
  std::string why;
  if (!util::parse_u16(std::string_view(to).substr(colon + 1), port, &why)) {
    std::fprintf(stderr, "--to port: %s\n", why.c_str());
    return false;
  }
  host = to.substr(0, colon);
  return true;
}

sim::ScenarioConfig config_for(const cli::Options& opt) {
  if (opt.scenario == "b") return sim::b_post_ditl_config(opt.seed, opt.scale);
  if (opt.scenario == "m") return sim::m_ditl_config(opt.seed, opt.scale);
  return sim::jp_ditl_config(opt.seed, opt.scale);
}

/// Sensor knobs shared by every pipeline-running subcommand, including the
/// querier-state mode — export-state and merge must build sensors with the
/// same config or import refuses the state file.
core::SensorConfig sensor_config_for(const cli::Options& opt) {
  core::SensorConfig sc;
  sc.min_queriers = opt.min_queriers;
  if (opt.querier_state == "sketch") sc.querier_state = core::QuerierStateMode::kSketch;
  sc.sketch_promote_threshold = static_cast<std::uint32_t>(opt.sketch_threshold);
  sc.sketch_precision = static_cast<std::uint8_t>(opt.sketch_precision);
  return sc;
}

/// Shared tail of `analyze` and `merge`: extract features, train a forest
/// on the world's ground truth, print the top-originator table and the
/// optional CSV.  One renderer means a federated merge is byte-comparable
/// (stdout and CSV) against a single-sensor analyze of the full log.
int report_analysis(sim::Scenario& scenario, core::Sensor& sensor,
                    const cli::Options& opt) {
  const auto features = sensor.extract_features();

  // Train a forest on the world's ground truth restricted to detected
  // originators (truth is built when the world is constructed, so no
  // traffic run is needed) and attach a predicted class per row.
  labeling::GroundTruth truth;
  for (const auto& fv : features) {
    const auto it = scenario.truth().find(fv.originator);
    if (it != scenario.truth().end()) truth.add(it->first, it->second);
  }
  const auto [train, used] = truth.join(features);
  std::unique_ptr<ml::RandomForest> model;
  if (!train.empty()) {
    ml::ForestConfig fc;
    fc.n_trees = 50;
    fc.seed = opt.seed;
    model = std::make_unique<ml::RandomForest>(fc);
    model->fit(train);
    std::fprintf(stderr, "trained forest on %zu truth-labeled originators\n",
                 train.size());
  }

  util::TableWriter table("top originators by footprint");
  table.columns(
      {"rank", "originator", "queriers", "class", "mail", "ns", "home", "nxdomain"});
  for (std::size_t i = 0; i < features.size() && i < opt.top; ++i) {
    const auto& fv = features[i];
    const auto s = [&fv](core::QuerierCategory c) {
      return util::fixed(fv.statics[static_cast<std::size_t>(c)], 2);
    };
    const std::string predicted =
        model ? std::string(core::to_string(
                    static_cast<core::AppClass>(model->predict(fv.row()))))
              : std::string("-");
    table.row({std::to_string(i + 1), fv.originator.to_string(),
               std::to_string(fv.footprint), predicted,
               s(core::QuerierCategory::kMail), s(core::QuerierCategory::kNs),
               s(core::QuerierCategory::kHome), s(core::QuerierCategory::kNxDomain)});
  }
  table.print(std::cout);
  std::printf("%zu interesting originators total\n", features.size());

  if (!opt.csv_path.empty()) {
    std::ofstream csv(opt.csv_path);
    util::TableWriter all;
    std::vector<std::string> header = {"originator", "footprint"};
    for (const auto& name : core::feature_names()) header.push_back(name);
    all.columns(header);
    for (const auto& fv : features) {
      std::vector<std::string> row = {fv.originator.to_string(),
                                      std::to_string(fv.footprint)};
      for (const double v : fv.row()) row.push_back(util::fixed(v, 6));
      all.row(std::move(row));
    }
    csv << all.to_csv();
    std::fprintf(stderr, "wrote %zu feature vectors to %s\n", features.size(),
                 opt.csv_path.c_str());
  }
  return 0;
}

int cmd_generate(const cli::Options& opt) {
  if (opt.out_path.empty()) {
    std::fprintf(stderr, "generate requires --out FILE\n");
    return 2;
  }
  sim::Scenario scenario(config_for(opt));
  std::fprintf(stderr, "simulating %s (scale %.2f, seed %llu)...\n",
               scenario.config().name.c_str(), opt.scale,
               static_cast<unsigned long long>(opt.seed));
  scenario.run();
  std::ofstream out(opt.out_path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", opt.out_path.c_str());
    return 1;
  }
  dns::QueryLogWriter writer(out);
  for (const auto& record : scenario.authority(0).records()) writer.write(record);
  std::fprintf(stderr, "wrote %zu records from %s to %s\n", writer.count(),
               scenario.authority(0).config().name.c_str(), opt.out_path.c_str());
  return 0;
}

int cmd_analyze(const cli::Options& opt) {
  if (opt.log_path.empty()) {
    std::fprintf(stderr, "analyze requires --log FILE\n");
    return 2;
  }
  sim::Scenario scenario(config_for(opt));  // world only; no traffic run
  std::ifstream in(opt.log_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", opt.log_path.c_str());
    return 1;
  }
  core::Sensor sensor(sensor_config_for(opt), scenario.plan().as_db(),
                      scenario.plan().geo_db(), scenario.naming());
  std::size_t skipped = 0;
  std::vector<dns::QueryRecord> records;
  {
    dns::QueryLogReader reader(in);
    while (auto record = reader.next()) records.push_back(*record);
    skipped = reader.skipped();
  }
  sensor.ingest_all(records);
  std::fprintf(stderr, "replayed %zu records (%zu skipped)\n", records.size(), skipped);
  return report_analysis(scenario, sensor, opt);
}

int cmd_export_state(const cli::Options& opt) {
  if (opt.log_path.empty()) {
    std::fprintf(stderr, "export-state requires --log FILE\n");
    return 2;
  }
  const std::string& out_path = !opt.state_out.empty() ? opt.state_out : opt.out_path;
  if (out_path.empty()) {
    std::fprintf(stderr, "export-state requires --state-out FILE\n");
    return 2;
  }
  if (opt.shards > 1 && opt.shard_index >= opt.shards) {
    std::fprintf(stderr, "--shard-index must be < --shards (%llu)\n",
                 static_cast<unsigned long long>(opt.shards));
    return 2;
  }
  sim::Scenario scenario(config_for(opt));  // world only; no traffic run
  std::ifstream in(opt.log_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", opt.log_path.c_str());
    return 1;
  }
  std::vector<dns::QueryRecord> records;
  {
    dns::QueryLogReader reader(in);
    while (auto record = reader.next()) {
      // The canonical federation partition: this sensor keeps only its
      // originator shard, so N exports tile the log disjointly and the
      // merged result is byte-identical to a single-sensor run.
      if (opt.shards > 1 &&
          core::federation_shard(record->originator, opt.shards) != opt.shard_index) {
        continue;
      }
      records.push_back(*record);
    }
  }
  core::Sensor sensor(sensor_config_for(opt), scenario.plan().as_db(),
                      scenario.plan().geo_db(), scenario.naming());
  sensor.ingest_all(records);

  std::ofstream out(out_path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
    return 1;
  }
  util::BinaryWriter writer(out);
  core::export_sensor_state(sensor, writer);
  if (!writer.ok()) {
    std::fprintf(stderr, "short write to %s\n", out_path.c_str());
    return 1;
  }
  std::fprintf(stderr, "exported shard %llu/%llu: %zu records, %zu originators -> %s\n",
               static_cast<unsigned long long>(opt.shard_index),
               static_cast<unsigned long long>(opt.shards), records.size(),
               sensor.aggregator().originator_count(), out_path.c_str());
  return 0;
}

int cmd_merge(const cli::Options& opt) {
  if (opt.state_paths.empty()) {
    std::fprintf(stderr, "merge requires at least one --state FILE\n");
    return 2;
  }
  sim::Scenario scenario(config_for(opt));  // world only; no traffic run
  core::Sensor sensor(sensor_config_for(opt), scenario.plan().as_db(),
                      scenario.plan().geo_db(), scenario.naming());
  for (const auto& path : opt.state_paths) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", path.c_str());
      return 1;
    }
    util::BinaryReader reader(in);
    if (!core::import_sensor_state(reader, sensor)) {
      std::fprintf(stderr, "merge: %s: config mismatch or corrupt state\n",
                   path.c_str());
      return 1;
    }
  }
  std::fprintf(stderr, "merged %zu state files: %zu originators\n",
               opt.state_paths.size(), sensor.aggregator().originator_count());
  return report_analysis(scenario, sensor, opt);
}

int cmd_classify(const cli::Options& opt) {
  sim::Scenario scenario(config_for(opt));
  labeling::Darknet darknet(labeling::default_darknet_prefixes());
  scenario.engine().set_traffic_observer(&darknet);
  std::fprintf(stderr, "simulating %s...\n", scenario.config().name.c_str());
  scenario.run();

  core::Sensor sensor(sensor_config_for(opt), scenario.plan().as_db(),
                      scenario.plan().geo_db(), scenario.naming());
  sensor.ingest_all(scenario.authority(0).records());
  const auto features = sensor.extract_features();

  util::Rng rng(opt.seed ^ 0xb1ac);
  const auto blacklist = labeling::BlacklistSet::build(scenario.population(), {}, rng);
  labeling::Curator curator(scenario, blacklist, darknet, {}, opt.seed ^ 0xc);
  const auto labels = curator.curate(features);
  const auto [data, used] = labels.join(features);
  std::fprintf(stderr, "trained on %zu curated examples\n", data.size());

  ml::ForestConfig fc;
  fc.n_trees = 100;
  fc.seed = opt.seed;
  ml::RandomForest model(fc);
  model.fit(data);
  const auto classified = core::classify_all(features, model);

  util::TableWriter table("classified originators");
  table.columns({"rank", "originator", "queriers", "class", "darknet", "blacklisted"});
  for (std::size_t i = 0; i < classified.size() && i < opt.top; ++i) {
    const auto& c = classified[i];
    table.row({std::to_string(i + 1), c.features.originator.to_string(),
               std::to_string(c.features.footprint),
               std::string(core::to_string(c.predicted)),
               std::to_string(darknet.addresses_hit_by(c.features.originator)),
               blacklist.listed(c.features.originator) ? "yes" : "no"});
  }
  table.print(std::cout);
  return 0;
}

/// Renders one snapshot as a human table: counters/gauges with raw values,
/// histograms (spans, queue waits) with count + mean.
void print_metrics_table(const util::MetricsSnapshot& snapshot) {
  util::TableWriter table("pipeline metrics");
  table.columns({"metric", "kind", "value", "mean", "det"});
  for (const auto& v : snapshot.values) {
    std::string kind;
    std::string value;
    std::string mean = "-";
    switch (v.kind) {
      case util::MetricKind::kCounter:
        kind = "counter";
        value = util::with_commas(v.count);
        break;
      case util::MetricKind::kGauge:
        kind = "gauge";
        value = std::to_string(v.gauge);
        break;
      case util::MetricKind::kHistogram:
        kind = "histogram";
        value = util::with_commas(v.count);
        if (v.count > 0) {
          mean = util::fixed(static_cast<double>(v.sum) / static_cast<double>(v.count) /
                                 1e6,
                             3) +
                 " ms";
        }
        break;
    }
    // Histograms are duration-valued and sched series depend on the
    // thread count; only the rest is covered by the determinism contract.
    const bool det = v.kind != util::MetricKind::kHistogram && !v.sched;
    table.row({v.name, kind, value, mean, det ? "yes" : "no"});
  }
  table.print(std::cout);
}

int cmd_stats(const cli::Options& opt) {
  sim::Scenario scenario(config_for(opt));
  core::Sensor sensor(sensor_config_for(opt), scenario.plan().as_db(),
                      scenario.plan().geo_db(), scenario.naming());

  if (!opt.log_path.empty()) {
    std::ifstream in(opt.log_path);
    if (!in) {
      std::fprintf(stderr, "cannot read %s\n", opt.log_path.c_str());
      return 1;
    }
    const auto records = dns::read_all(in);
    sensor.ingest_all(records);
  } else {
    std::fprintf(stderr, "no --log: simulating %s (scale %.2f, seed %llu)...\n",
                 scenario.config().name.c_str(), opt.scale,
                 static_cast<unsigned long long>(opt.seed));
    scenario.run();
    sensor.ingest_all(scenario.authority(0).records());
  }
  const auto features = sensor.extract_features();
  std::fprintf(stderr, "%zu interesting originators\n", features.size());

  sensor.publish_metrics();
  print_metrics_table(util::metrics_snapshot());
  return 0;
}

int cmd_serve(const cli::Options& opt) {
  // The daemon resolves querier names through the synthetic world (same
  // contract as `analyze`): build the world, skip the traffic run.
  sim::Scenario scenario(config_for(opt));

  serve::ServeConfig cfg;
  cfg.bind = opt.bind;
  cfg.udp_port = opt.udp_port;
  cfg.tcp = opt.tcp;
  cfg.tcp_port = opt.tcp_port;
  cfg.status_port = opt.status_port;
  cfg.stamped = opt.stamped;
  cfg.queue_capacity = opt.queue_capacity;
  cfg.streaming.window = util::SimTime::seconds(opt.window_secs);
  cfg.streaming.hop = util::SimTime::seconds(opt.hop_secs);
  cfg.streaming.async_windows = opt.async_windows;
  cfg.job_threads = static_cast<std::size_t>(opt.job_threads);
  cfg.pipeline.sensor = sensor_config_for(opt);
  cfg.pipeline.seed = opt.seed;
  // Summaries are written at window close; no need to hold history forever.
  cfg.pipeline.history_limit = 64;
  cfg.streaming.telemetry_capacity = static_cast<std::size_t>(opt.history_cap);
  cfg.checkpoint_path = opt.checkpoint_path;
  cfg.restore = opt.restore;
  cfg.checkpoint_every_secs = opt.checkpoint_every_secs;
  cfg.windows_out = opt.windows_out;
  cfg.ready_file = opt.ready_file;
  cfg.trace_out = opt.trace_out;

  serve::ServeDaemon daemon(cfg, scenario.plan().as_db(), scenario.plan().geo_db(),
                            scenario.naming());
  std::string error;
  if (!daemon.start(error)) {
    std::fprintf(stderr, "serve: %s\n", error.c_str());
    return 1;
  }
  daemon.wait();
  std::fprintf(stderr, "serve: shut down after %llu windows\n",
               static_cast<unsigned long long>(daemon.driver()->windows_closed()));
  return 0;
}

int cmd_sendlog(const cli::Options& opt) {
  if (opt.log_path.empty() || opt.to.empty()) {
    std::fprintf(stderr, "sendlog requires --log FILE and --to HOST:PORT\n");
    return 2;
  }
  std::string host;
  std::uint16_t port = 0;
  if (!split_target(opt.to, host, port)) return 2;
  std::ifstream in(opt.log_path);
  if (!in) {
    std::fprintf(stderr, "cannot read %s\n", opt.log_path.c_str());
    return 1;
  }
  const auto records = dns::read_all(in);

  // Stamped framing (the daemon's --stamped mode): the record's own time
  // and querier ride in front of a synthesized PTR query packet, so the
  // receiver reconstructs the exact QueryRecord stream.
  auto frame_for = [](const dns::QueryRecord& r, std::uint16_t id) {
    std::vector<std::uint8_t> frame;
    const auto packet = dns::make_ptr_query_packet(id, r.originator);
    frame.reserve(12 + packet.size());
    const auto secs = static_cast<std::uint64_t>(r.time.secs());
    for (int i = 0; i < 8; ++i) frame.push_back(static_cast<std::uint8_t>(secs >> (8 * i)));
    const std::uint32_t q = r.querier.value();
    for (int i = 0; i < 4; ++i) frame.push_back(static_cast<std::uint8_t>(q >> (8 * i)));
    frame.insert(frame.end(), packet.begin(), packet.end());
    return frame;
  };

  std::size_t sent = 0;
  if (opt.tcp) {
    auto stream = net::TcpStream::connect(host, port);
    if (!stream) {
      std::fprintf(stderr, "cannot connect to %s\n", opt.to.c_str());
      return 1;
    }
    for (const auto& r : records) {
      const auto frame = frame_for(r, static_cast<std::uint16_t>(sent & 0xffff));
      const std::uint8_t len[2] = {static_cast<std::uint8_t>(frame.size() >> 8),
                                   static_cast<std::uint8_t>(frame.size() & 0xff)};
      if (!stream->write_all(len, 2) || !stream->write_all(frame.data(), frame.size())) {
        std::fprintf(stderr, "send failed after %zu records\n", sent);
        return 1;
      }
      ++sent;
    }
  } else {
    net::UdpSocket sock;
    for (const auto& r : records) {
      const auto frame = frame_for(r, static_cast<std::uint16_t>(sent & 0xffff));
      if (!sock.send_to(host, port, frame.data(), frame.size())) {
        std::fprintf(stderr, "send failed after %zu records: %s\n", sent,
                     sock.last_error().c_str());
        return 1;
      }
      ++sent;
    }
  }
  std::fprintf(stderr, "sent %zu records to %s over %s\n", sent, opt.to.c_str(),
               opt.tcp ? "tcp" : "udp");
  return 0;
}

int cmd_ctl(const cli::Options& opt) {
  if (opt.to.empty()) {
    std::fprintf(stderr, "ctl requires --to HOST:PORT\n");
    return 2;
  }
  std::string host;
  std::uint16_t port = 0;
  if (!split_target(opt.to, host, port)) return 2;
  std::string command = opt.ctl_cmd;
  for (char& c : command) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  auto stream = net::TcpStream::connect(host, port);
  if (!stream) {
    std::fprintf(stderr, "cannot connect to %s\n", opt.to.c_str());
    return 1;
  }
  const std::string line = command + "\n";
  if (!stream->write_all(line.data(), line.size())) {
    std::fprintf(stderr, "send failed\n");
    return 1;
  }
  // STATS replies carry the full metrics snapshot on one line; allow far
  // more than the default line budget.
  const auto reply = stream->read_line(30000, std::size_t{1} << 20);
  if (!reply) {
    std::fprintf(stderr, "no reply\n");
    return 1;
  }
  std::printf("%s\n", reply->c_str());
  return reply->rfind("ERR", 0) == 0 ? 1 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  cli::Options opt;
  std::string error;
  if (!cli::parse(argc, argv, opt, error)) {
    if (!error.empty()) std::fprintf(stderr, "dnsbs_cli: %s\n", error.c_str());
    return usage();
  }
  // For serve the trace file is the TRACE control verb's target; every
  // other subcommand traces its whole run.
  const bool trace_run = !opt.trace_out.empty() && opt.command != "serve";
  if (trace_run) util::trace_start();
  int rc = -1;
  if (opt.command == "generate") rc = cmd_generate(opt);
  else if (opt.command == "analyze") rc = cmd_analyze(opt);
  else if (opt.command == "classify") rc = cmd_classify(opt);
  else if (opt.command == "stats") rc = cmd_stats(opt);
  else if (opt.command == "serve") rc = cmd_serve(opt);
  else if (opt.command == "sendlog") rc = cmd_sendlog(opt);
  else if (opt.command == "ctl") rc = cmd_ctl(opt);
  else if (opt.command == "export-state") rc = cmd_export_state(opt);
  else if (opt.command == "merge") rc = cmd_merge(opt);
  else return usage();
  if (trace_run && !write_trace(opt.trace_out) && rc == 0) rc = 1;
  if (rc == 0 && !write_metrics(opt)) rc = 1;
  return rc;
}
