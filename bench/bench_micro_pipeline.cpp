// Microbenchmarks (google-benchmark) of the performance-critical pieces:
// record parsing, dedup, aggregation, feature extraction, trie lookups,
// cache operations, and classifier prediction.
#include <benchmark/benchmark.h>

#include <optional>
#include <sstream>

#include "core/sensor.hpp"
#include "dns/capture.hpp"
#include "ml/forest.hpp"
#include "net/prefix_trie.hpp"
#include "sim/scenario.hpp"
#include "util/fuzz.hpp"
#include "util/parallel.hpp"

namespace dnsbs {
namespace {

// A small shared world so benchmarks measure the pipeline, not setup.
struct MicroWorld {
  MicroWorld() : scenario(sim::jp_ditl_config(5, 0.05)) {
    scenario.run();
    records = scenario.authority(0).records();
  }
  sim::Scenario scenario;
  std::vector<dns::QueryRecord> records;
};

MicroWorld& world() {
  static MicroWorld w;
  return w;
}

void BM_ParseRecord(benchmark::State& state) {
  const std::string line = dns::serialize(world().records.front());
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::parse_record(line));
  }
}
BENCHMARK(BM_ParseRecord);

void BM_SerializeRecord(benchmark::State& state) {
  const auto& record = world().records.front();
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::serialize(record));
  }
}
BENCHMARK(BM_SerializeRecord);

void BM_ReverseNameCodec(benchmark::State& state) {
  const net::IPv4Addr addr(0x01020304);
  for (auto _ : state) {
    const auto name = dns::reverse_name(addr);
    benchmark::DoNotOptimize(dns::address_from_reverse(name));
  }
}
BENCHMARK(BM_ReverseNameCodec);

void BM_WireEncodeDecode(benchmark::State& state) {
  const auto msg = dns::Message::ptr_query(99, net::IPv4Addr(0x01020304));
  for (auto _ : state) {
    const auto wire = dns::encode(msg);
    benchmark::DoNotOptimize(dns::decode(wire));
  }
}
BENCHMARK(BM_WireEncodeDecode);

void BM_WireDecodeMutated(benchmark::State& state) {
  // Rejection throughput on corrupted traffic: a capture point under a
  // junk flood spends its cycles in decode's failure paths, so malformed
  // packets must be rejected at least as fast as clean ones parse.
  util::ByteMutator mutator(42);
  std::vector<std::vector<std::uint8_t>> corpus;
  for (std::uint32_t i = 0; i < 256; ++i) {
    auto wire = dns::encode(dns::Message::ptr_query(static_cast<std::uint16_t>(i),
                                                    net::IPv4Addr(0x0a000000u + i)));
    mutator.mutate_n(wire, 3);
    corpus.push_back(std::move(wire));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(dns::decode(corpus[i++ & 255]));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WireDecodeMutated);

void BM_RecordFromPacket(benchmark::State& state) {
  // The capture classifier the daemon runs per packet, over the same
  // corpus as the decode benches: clean PTR queries (arg 0) or the
  // BM_WireDecodeMutated corpus (arg 1).
  const bool mutated = state.range(0) != 0;
  util::ByteMutator mutator(42);
  std::vector<std::vector<std::uint8_t>> corpus;
  for (std::uint32_t i = 0; i < 256; ++i) {
    auto wire = dns::make_ptr_query_packet(static_cast<std::uint16_t>(i),
                                           net::IPv4Addr(0x0a000000u + i));
    if (mutated) mutator.mutate_n(wire, 3);
    corpus.push_back(std::move(wire));
  }
  dns::CaptureStats stats;
  const net::IPv4Addr source(0xc0000235u);
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        dns::record_from_packet(corpus[i++ & 255], util::SimTime::seconds(0), source, stats));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(mutated ? "mutated" : "valid");
}
BENCHMARK(BM_RecordFromPacket)->Arg(0)->Arg(1);

void BM_DedupIngest(benchmark::State& state) {
  const auto& records = world().records;
  for (auto _ : state) {
    core::Deduplicator dedup;
    for (const auto& r : records) benchmark::DoNotOptimize(dedup.admit(r));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_DedupIngest);

void BM_SensorIngestAndExtract(benchmark::State& state) {
  auto& w = world();
  for (auto _ : state) {
    core::Sensor sensor({}, w.scenario.plan().as_db(), w.scenario.plan().geo_db(),
                        w.scenario.naming());
    sensor.ingest_all(w.records);
    benchmark::DoNotOptimize(sensor.extract_features());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.records.size()));
}
BENCHMARK(BM_SensorIngestAndExtract);

void BM_TrieLookup(benchmark::State& state) {
  const auto& as_db = world().scenario.plan().as_db();
  util::Rng rng(1);
  std::vector<net::IPv4Addr> probes;
  for (int i = 0; i < 1024; ++i) {
    probes.push_back(world().scenario.plan().random_host(rng));
  }
  std::size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(as_db.lookup(probes[i++ & 1023]));
  }
}
BENCHMARK(BM_TrieLookup);

void BM_CacheLookupInsert(benchmark::State& state) {
  dns::CacheSim cache;
  const auto name = dns::reverse_name(net::IPv4Addr(0x01020304));
  std::int64_t t = 0;
  for (auto _ : state) {
    const auto now = util::SimTime::seconds(t++);
    if (cache.lookup(name, dns::QType::kPTR, now) == dns::CacheResult::kMiss) {
      cache.insert_positive(name, dns::QType::kPTR, 30, now);
    }
  }
}
BENCHMARK(BM_CacheLookupInsert);

void BM_QuerierNameClassification(benchmark::State& state) {
  const auto name = *dns::DnsName::parse("home1-2-3-4.isp1234.jp");
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::classify_querier_name(name));
  }
}
BENCHMARK(BM_QuerierNameClassification);

void BM_AggregatorIngest(benchmark::State& state) {
  // Aggregation hot loop in isolation (no dedup): exercises the
  // SplitMix64-finalized IPv4 hash and the size-hint reserve.
  const auto& records = world().records;
  for (auto _ : state) {
    core::OriginatorAggregator agg;
    agg.reserve(records.size() / 8);
    for (const auto& r : records) agg.add(r);
    benchmark::DoNotOptimize(agg.originator_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(records.size()));
}
BENCHMARK(BM_AggregatorIngest);

void BM_SensorIngestSharded(benchmark::State& state) {
  // Sharded bulk ingest at 1/2/4 threads; identical output per shard count.
  auto& w = world();
  core::SensorConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    core::Sensor sensor(cfg, w.scenario.plan().as_db(), w.scenario.plan().geo_db(),
                        w.scenario.naming());
    sensor.ingest_all(w.records);
    benchmark::DoNotOptimize(sensor.aggregator().originator_count());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(w.records.size()));
}
BENCHMARK(BM_SensorIngestSharded)->Arg(1)->Arg(2)->Arg(4);

void BM_ExtractFeaturesThreads(benchmark::State& state) {
  // A fresh sensor per iteration, so every extraction is a cold one (a
  // window's sensor is extracted once); building and ingesting it is not
  // timed.
  auto& w = world();
  core::SensorConfig cfg;
  cfg.threads = static_cast<std::size_t>(state.range(0));
  std::optional<core::Sensor> sensor;
  for (auto _ : state) {
    state.PauseTiming();
    sensor.emplace(cfg, w.scenario.plan().as_db(), w.scenario.plan().geo_db(),
                   w.scenario.naming());
    sensor->ingest_all(w.records);
    state.ResumeTiming();
    benchmark::DoNotOptimize(sensor->extract_features());
  }
}
BENCHMARK(BM_ExtractFeaturesThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_RandomForestFitThreads(benchmark::State& state) {
  ml::Dataset data = core::make_dataset();
  util::Rng rng(3);
  for (int i = 0; i < 400; ++i) {
    std::vector<double> row(core::kFeatureCount);
    for (auto& v : row) v = rng.uniform();
    data.add(std::move(row), rng.below(core::kAppClassCount));
  }
  util::set_thread_count(static_cast<std::size_t>(state.range(0)));
  ml::ForestConfig cfg;
  cfg.n_trees = 100;
  for (auto _ : state) {
    ml::RandomForest rf(cfg);
    rf.fit(data);
    benchmark::DoNotOptimize(rf.tree_count());
  }
  util::set_thread_count(0);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(cfg.n_trees));
}
BENCHMARK(BM_RandomForestFitThreads)->Arg(1)->Arg(2)->Arg(4);

void BM_RandomForestPredict(benchmark::State& state) {
  // Train once on a small synthetic set; measure prediction latency.
  ml::Dataset data = core::make_dataset();
  util::Rng rng(3);
  for (int i = 0; i < 200; ++i) {
    std::vector<double> row(core::kFeatureCount);
    for (auto& v : row) v = rng.uniform();
    data.add(std::move(row), rng.below(core::kAppClassCount));
  }
  ml::ForestConfig cfg;
  cfg.n_trees = 100;
  ml::RandomForest rf(cfg);
  rf.fit(data);
  const auto probe = data.row(0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rf.predict(probe));
  }
}
BENCHMARK(BM_RandomForestPredict);

void BM_QueryLogRoundTrip(benchmark::State& state) {
  const auto& records = world().records;
  const std::size_t n = std::min<std::size_t>(records.size(), 10000);
  for (auto _ : state) {
    std::stringstream buffer;
    dns::QueryLogWriter writer(buffer);
    for (std::size_t i = 0; i < n; ++i) writer.write(records[i]);
    benchmark::DoNotOptimize(dns::read_all(buffer).size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(n));
}
BENCHMARK(BM_QueryLogRoundTrip);

}  // namespace
}  // namespace dnsbs

BENCHMARK_MAIN();
