// dnsbs_cli option table and parser, split out of the binary so the test
// suite can run regression tests against the real parse() (trailing flags
// without values, malformed numerics) instead of a reimplementation.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/cli.hpp"

namespace dnsbs::cli {

struct Options {
  std::string command;
  std::string scenario = "jp";
  double scale = 0.15;
  std::uint64_t seed = 1;
  std::string log_path;
  std::string out_path;
  std::string csv_path;
  std::string metrics_out;
  std::string metrics_format;       ///< "", "json" or "prom"; "" = sniff by suffix
  std::string trace_out;            ///< Chrome trace JSON destination (see below)
  std::uint64_t min_queriers = 20;
  std::uint64_t top = 20;

  // serve
  std::string bind = "127.0.0.1";
  std::uint16_t udp_port = 0;       ///< 0 = ephemeral
  bool tcp = false;                 ///< also listen for DNS-over-TCP intake
  std::uint16_t tcp_port = 0;       ///< 0 = ephemeral
  std::uint16_t status_port = 0;    ///< 0 = ephemeral
  bool stamped = false;             ///< replay framing: [secs][querier] prefix
  std::uint64_t queue_capacity = 65536;
  std::int64_t window_secs = 86400;
  std::int64_t hop_secs = 0;        ///< 0 = tumbling (hop == window)
  std::string checkpoint_path;
  bool restore = false;             ///< load --checkpoint FILE at startup
  std::int64_t checkpoint_every_secs = 0;  ///< stream-time cadence, 0 = manual
  std::string windows_out;
  std::string ready_file;
  std::uint64_t history_cap = 256;  ///< per-window telemetry ring (0 = off)
  /// Async window pipeline: close/export on the job system instead
  /// of inline on the drive thread.  Output is byte-identical either way;
  /// "off" is the debugging fallback that keeps everything single-threaded.
  bool async_windows = true;
  std::uint64_t job_threads = 2;    ///< job-system workers (serve)

  // sendlog / ctl
  std::string to;                   ///< "host:port" target
  std::string ctl_cmd = "stats";    ///< stats|checkpoint|flush|shutdown|ping

  // querier-cardinality state (analyze/stats/serve/export-state/merge)
  std::string querier_state = "exact";  ///< exact|sketch
  std::uint64_t sketch_threshold = 64;  ///< exact-to-sketch promotion size
  std::uint64_t sketch_precision = 12;  ///< HLL precision (registers = 2^p)

  // federation (export-state / merge)
  std::uint64_t shards = 1;          ///< export: total originator shards
  std::uint64_t shard_index = 0;     ///< export: this sensor's shard
  std::string state_out;             ///< export: state file destination
  std::vector<std::string> state_paths;  ///< merge: repeatable --state inputs
};

/// Parses argv[1..] into `opt`.  On failure returns false with a message
/// in `error`; a trailing flag with no value and a numeric flag that does
/// not fully parse are both hard errors (they used to be silently
/// ignored / truncated).
inline bool parse(int argc, char* const* argv, Options& opt, std::string& error) {
  if (argc < 2) {
    error = "missing command";
    return false;
  }
  opt.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    // Boolean flags take no value.
    if (flag == "--tcp") {
      opt.tcp = true;
      continue;
    }
    if (flag == "--stamped") {
      opt.stamped = true;
      continue;
    }
    if (flag == "--restore") {
      opt.restore = true;
      continue;
    }
    if (i + 1 >= argc) {
      error = "flag requires a value: " + flag;
      return false;
    }
    const std::string_view value = argv[++i];
    std::string why;
    bool ok = true;
    if (flag == "--scenario") {
      opt.scenario = value;
    } else if (flag == "--scale") {
      ok = util::parse_f64(value, opt.scale, &why);
    } else if (flag == "--seed") {
      ok = util::parse_u64(value, opt.seed, &why);
    } else if (flag == "--out") {
      opt.out_path = value;
    } else if (flag == "--log") {
      opt.log_path = value;
    } else if (flag == "--csv") {
      opt.csv_path = value;
    } else if (flag == "--metrics-out") {
      opt.metrics_out = value;
    } else if (flag == "--metrics-format") {
      opt.metrics_format = value;
      if (opt.metrics_format != "json" && opt.metrics_format != "prom") {
        error = "flag --metrics-format: want json or prom, got '" +
                opt.metrics_format + "'";
        return false;
      }
    } else if (flag == "--trace-out") {
      opt.trace_out = value;
    } else if (flag == "--history-cap") {
      ok = util::parse_u64(value, opt.history_cap, &why);
    } else if (flag == "--min-queriers") {
      ok = util::parse_u64(value, opt.min_queriers, &why);
    } else if (flag == "--top") {
      ok = util::parse_u64(value, opt.top, &why);
    } else if (flag == "--bind") {
      opt.bind = value;
    } else if (flag == "--udp-port") {
      ok = util::parse_u16(value, opt.udp_port, &why);
    } else if (flag == "--tcp-port") {
      ok = util::parse_u16(value, opt.tcp_port, &why);
      opt.tcp = ok || opt.tcp;  // naming a port implies the listener
    } else if (flag == "--status-port") {
      ok = util::parse_u16(value, opt.status_port, &why);
    } else if (flag == "--queue") {
      ok = util::parse_u64(value, opt.queue_capacity, &why);
    } else if (flag == "--window") {
      ok = util::parse_i64(value, opt.window_secs, &why);
    } else if (flag == "--hop") {
      ok = util::parse_i64(value, opt.hop_secs, &why);
    } else if (flag == "--checkpoint") {
      opt.checkpoint_path = value;
    } else if (flag == "--checkpoint-every") {
      ok = util::parse_i64(value, opt.checkpoint_every_secs, &why);
    } else if (flag == "--windows-out") {
      opt.windows_out = value;
    } else if (flag == "--async-windows") {
      if (value == "on") {
        opt.async_windows = true;
      } else if (value == "off") {
        opt.async_windows = false;
      } else {
        error = "flag --async-windows: want on or off, got '" + std::string(value) + "'";
        return false;
      }
    } else if (flag == "--job-threads") {
      ok = util::parse_u64(value, opt.job_threads, &why);
      if (ok && opt.job_threads > 64) {
        error = "flag --job-threads: want 0..64";
        return false;
      }
    } else if (flag == "--ready-file") {
      opt.ready_file = value;
    } else if (flag == "--to") {
      opt.to = value;
    } else if (flag == "--cmd") {
      opt.ctl_cmd = value;
    } else if (flag == "--querier-state") {
      opt.querier_state = value;
      if (opt.querier_state != "exact" && opt.querier_state != "sketch") {
        error = "flag --querier-state: want exact or sketch, got '" +
                opt.querier_state + "'";
        return false;
      }
    } else if (flag == "--sketch-threshold") {
      ok = util::parse_u64(value, opt.sketch_threshold, &why);
    } else if (flag == "--sketch-precision") {
      ok = util::parse_u64(value, opt.sketch_precision, &why);
      if (ok && (opt.sketch_precision < 4 || opt.sketch_precision > 16)) {
        error = "flag --sketch-precision: want 4..16";
        return false;
      }
    } else if (flag == "--shards") {
      ok = util::parse_u64(value, opt.shards, &why);
      if (ok && opt.shards == 0) {
        error = "flag --shards: want at least 1";
        return false;
      }
    } else if (flag == "--shard-index") {
      ok = util::parse_u64(value, opt.shard_index, &why);
    } else if (flag == "--state-out") {
      opt.state_out = value;
    } else if (flag == "--state") {
      opt.state_paths.emplace_back(value);
    } else {
      error = "unknown flag: " + flag;
      return false;
    }
    if (!ok) {
      error = "flag " + flag + ": " + why;
      return false;
    }
  }
  // A .prom suffix has always selected the Prometheus exposition format;
  // an explicit --metrics-format json that contradicts it is ambiguous
  // (which one did the operator mean?) and therefore a hard error.
  if (opt.metrics_format == "json" && opt.metrics_out.size() >= 5 &&
      opt.metrics_out.ends_with(".prom")) {
    error = "--metrics-format json conflicts with .prom suffix: " + opt.metrics_out;
    return false;
  }
  return true;
}

}  // namespace dnsbs::cli
