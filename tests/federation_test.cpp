// Federation contract tests: N originator-disjoint sensors merged by a
// coordinator must reproduce the single-sensor run byte-for-byte (exact
// mode) or within the sketch error bound (sketch mode); export/import
// round-trips through the state-file header; config mismatches refuse;
// and the sketch counters stay deterministic across thread counts.
#include <gtest/gtest.h>

#include <cmath>
#include <map>
#include <sstream>
#include <vector>

#include "core/federation.hpp"
#include "sim/scenario.hpp"
#include "util/binio.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace dnsbs {
namespace {

/// Restores the global thread override even when an assertion fails.
struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

core::SensorConfig sketch_config() {
  core::SensorConfig sc;
  sc.querier_state = core::QuerierStateMode::kSketch;
  return sc;
}

/// Bitwise feature-row equality (doubles compared exactly: the federation
/// contract is byte-identity, not tolerance).
void expect_rows_identical(const std::vector<core::FeatureVector>& a,
                           const std::vector<core::FeatureVector>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].originator, b[i].originator) << "row " << i;
    EXPECT_EQ(a[i].footprint, b[i].footprint) << "row " << i;
    EXPECT_EQ(a[i].row(), b[i].row()) << "row " << i;
  }
}

class FederationTest : public ::testing::Test {
 protected:
  FederationTest() : scenario_(sim::jp_ditl_config(71, 0.05)) {
    scenario_.run();
  }

  core::Sensor make_sensor(const core::SensorConfig& config) {
    return core::Sensor(config, scenario_.plan().as_db(), scenario_.plan().geo_db(),
                        scenario_.naming());
  }

  core::Sensor single_sensor_run(const core::SensorConfig& config) {
    core::Sensor sensor = make_sensor(config);
    sensor.ingest_all(scenario_.authority(0).records());
    return sensor;
  }

  sim::Scenario scenario_;
};

TEST_F(FederationTest, ExactFederatedPoolMatchesSingleSensor) {
  const core::SensorConfig config;
  const core::Sensor single = single_sensor_run(config);
  const auto single_rows = single.extract_features();
  ASSERT_FALSE(single_rows.empty());

  for (const std::size_t shards : {2, 3, 5}) {
    core::FederatedSensorPool pool(shards, config, scenario_.plan().as_db(),
                                   scenario_.plan().geo_db(), scenario_.naming());
    pool.ingest_all(scenario_.authority(0).records());
    core::Sensor coordinator = make_sensor(config);
    pool.merge_into(coordinator);

    EXPECT_EQ(coordinator.dedup().admitted(), single.dedup().admitted());
    EXPECT_EQ(coordinator.dedup().suppressed(), single.dedup().suppressed());
    EXPECT_EQ(coordinator.aggregator().originator_count(),
              single.aggregator().originator_count());
    EXPECT_EQ(coordinator.aggregator().total_periods(),
              single.aggregator().total_periods());
    expect_rows_identical(coordinator.extract_features(), single_rows);
  }
}

TEST_F(FederationTest, SketchFederatedPoolMatchesSingleSensorOnDisjointShards) {
  // Disjoint shards move per-originator state (sample histogram +
  // registers) wholesale, so even sketch mode merges byte-identically —
  // bounded error enters only versus the *exact-mode* truth.
  const core::SensorConfig config = sketch_config();
  const core::Sensor single = single_sensor_run(config);
  ASSERT_GT(single.aggregator().promoted_count(), 0u)
      << "world too small to exercise promotion";

  core::FederatedSensorPool pool(4, config, scenario_.plan().as_db(),
                                 scenario_.plan().geo_db(), scenario_.naming());
  pool.ingest_all(scenario_.authority(0).records());
  core::Sensor coordinator = make_sensor(config);
  pool.merge_into(coordinator);

  EXPECT_EQ(coordinator.aggregator().promoted_count(),
            single.aggregator().promoted_count());
  EXPECT_EQ(coordinator.aggregator().sketch_bytes(),
            single.aggregator().sketch_bytes());
  expect_rows_identical(coordinator.extract_features(), single.extract_features());
}

TEST_F(FederationTest, SketchFootprintsStayNearExactTruth) {
  // The accuracy half of the sketch trade-off: per-originator footprints
  // from a sketch-mode run against the exact run.  Promoted originators
  // carry HLL error (~1.6% std at precision 12); the bounds below are
  // fixed deterministic draws with headroom, not statistical hopes.
  core::SensorConfig exact_config;
  const core::Sensor exact = single_sensor_run(exact_config);
  const core::Sensor sketched = single_sensor_run(sketch_config());
  const auto exact_rows = exact.extract_features();
  const auto sketch_rows = sketched.extract_features();
  ASSERT_EQ(exact_rows.size(), sketch_rows.size());

  // Rows sort by footprint, and estimates perturb that order — compare
  // per-originator, not per-rank.
  std::map<std::uint32_t, double> estimates;
  for (const auto& row : sketch_rows) {
    estimates[row.originator.value()] = static_cast<double>(row.footprint);
  }
  double exact_sum = 0.0, sketch_sum = 0.0;
  for (const auto& row : exact_rows) {
    const auto it = estimates.find(row.originator.value());
    ASSERT_NE(it, estimates.end()) << row.originator.to_string();
    const double truth = static_cast<double>(row.footprint);
    exact_sum += truth;
    sketch_sum += it->second;
    EXPECT_LE(std::abs(it->second - truth) / truth, 0.06)
        << row.originator.to_string() << " truth=" << truth
        << " est=" << it->second;
  }
  EXPECT_LE(std::abs(sketch_sum - exact_sum) / exact_sum, 0.02);
}

TEST_F(FederationTest, ExportImportRoundTripMatchesSingleSensor) {
  const core::SensorConfig config;
  const core::Sensor single = single_sensor_run(config);
  const auto& records = scenario_.authority(0).records();

  // Two sensors over the canonical disjoint split, each exported to a
  // state blob, imported by a coordinator that saw nothing itself.
  std::vector<std::string> blobs;
  for (std::size_t shard = 0; shard < 2; ++shard) {
    core::Sensor sensor = make_sensor(config);
    std::vector<dns::QueryRecord> mine;
    for (const auto& r : records) {
      if (core::federation_shard(r.originator, 2) == shard) mine.push_back(r);
    }
    sensor.ingest_all(mine);
    std::ostringstream out;
    util::BinaryWriter writer(out);
    core::export_sensor_state(sensor, writer);
    ASSERT_TRUE(writer.ok());
    blobs.push_back(out.str());
  }

  core::Sensor coordinator = make_sensor(config);
  for (const auto& blob : blobs) {
    std::istringstream in(blob);
    util::BinaryReader reader(in);
    ASSERT_TRUE(core::import_sensor_state(reader, coordinator));
  }
  EXPECT_EQ(coordinator.dedup().admitted(), single.dedup().admitted());
  expect_rows_identical(coordinator.extract_features(), single.extract_features());
}

TEST_F(FederationTest, ImportRefusesMismatchedConfigAndCorruptStreams) {
  core::Sensor exporter = single_sensor_run(core::SensorConfig{});
  std::ostringstream out;
  util::BinaryWriter writer(out);
  core::export_sensor_state(exporter, writer);
  const std::string blob = out.str();

  {  // Coordinator configured for sketch mode must refuse an exact export.
    core::Sensor coordinator = make_sensor(sketch_config());
    std::istringstream in(blob);
    util::BinaryReader reader(in);
    EXPECT_FALSE(core::import_sensor_state(reader, coordinator));
    EXPECT_EQ(coordinator.aggregator().originator_count(), 0u);
  }
  {  // Bad magic.
    std::string bad = blob;
    bad[0] = static_cast<char>(bad[0] + 1);
    core::Sensor coordinator = make_sensor(core::SensorConfig{});
    std::istringstream in(bad);
    util::BinaryReader reader(in);
    EXPECT_FALSE(core::import_sensor_state(reader, coordinator));
  }
  {  // Truncated payload.
    core::Sensor coordinator = make_sensor(core::SensorConfig{});
    std::istringstream in(blob.substr(0, blob.size() - 16));
    util::BinaryReader reader(in);
    EXPECT_FALSE(core::import_sensor_state(reader, coordinator));
  }
}

TEST_F(FederationTest, ImportRefusesOlderFormatVersion) {
  // Version 1 images carried a per-aggregate modification stamp; reading
  // one as the current layout would misparse every aggregate after it.
  core::Sensor exporter = single_sensor_run(core::SensorConfig{});
  std::ostringstream out;
  util::BinaryWriter writer(out);
  core::export_sensor_state(exporter, writer);
  std::string blob = out.str();
  ASSERT_GT(blob.size(), 8u);
  {  // The unpatched image imports.
    core::Sensor coordinator = make_sensor(core::SensorConfig{});
    std::istringstream in(blob);
    util::BinaryReader reader(in);
    ASSERT_TRUE(core::import_sensor_state(reader, coordinator));
  }
  blob[4] = 1;  // u32 LE version right after the 4-byte magic
  blob[5] = blob[6] = blob[7] = 0;
  core::Sensor coordinator = make_sensor(core::SensorConfig{});
  std::istringstream in(blob);
  util::BinaryReader reader(in);
  EXPECT_FALSE(core::import_sensor_state(reader, coordinator));
  EXPECT_EQ(coordinator.aggregator().originator_count(), 0u);
}

TEST_F(FederationTest, OverlappingExactMergeIsContentLossless) {
  // Per-authority federation: both sensors see an overlapping slice of the
  // stream.  Exact mode must end with the union querier set per
  // originator — the same set a single sensor over the full log holds.
  const auto& records = scenario_.authority(0).records();
  const std::size_t third = records.size() / 3;

  const core::SensorConfig config;
  core::Sensor a = make_sensor(config);
  core::Sensor b = make_sensor(config);
  a.ingest_all(std::span(records.data(), 2 * third));
  b.ingest_all(std::span(records.data() + third, records.size() - third));
  a.merge_from(std::move(b));

  const core::Sensor single = single_sensor_run(config);
  ASSERT_EQ(a.aggregator().originator_count(), single.aggregator().originator_count());
  for (const auto& [originator, agg] : single.aggregator().aggregates()) {
    const auto* merged = a.aggregator().aggregates().find(originator);
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(merged->second.unique_queriers(), agg.unique_queriers())
        << originator.to_string();
    EXPECT_EQ(merged->second.periods, agg.periods) << originator.to_string();
  }
}

TEST_F(FederationTest, SketchCountersDeterministicAcrossThreads) {
#if !DNSBS_METRICS_ENABLED
  GTEST_SKIP() << "built with -DDNSBS_METRICS=OFF";
#else
  // dnsbs.aggregate.sketch_promotions / sketch_merges / sketch_bytes are
  // in the deterministic view: byte-identical for any DNSBS_THREADS.
  ThreadCountGuard guard;
  const auto& records = scenario_.authority(0).records();
  ASSERT_GT(records.size(), 4096u);

  const auto run_with = [&](std::size_t threads) {
    util::set_thread_count(threads);
    util::metrics_reset();
    {
      core::SensorConfig sc = sketch_config();
      sc.threads = threads;
      core::Sensor sensor = make_sensor(sc);
      sensor.ingest_all(records);
      const auto rows = sensor.extract_features();
      EXPECT_FALSE(rows.empty());
      sensor.publish_metrics();
    }
    return util::metrics_snapshot().deterministic_view();
  };

  const util::MetricsSnapshot serial = run_with(1);
  ASSERT_FALSE(serial.values.empty());
  EXPECT_GT(serial.scalar("dnsbs.aggregate.sketch_promotions"), 0);
  EXPECT_GT(serial.scalar("dnsbs.aggregate.sketch_bytes"), 0);

  for (const std::size_t threads : {2, 4}) {
    const util::MetricsSnapshot parallel = run_with(threads);
    ASSERT_EQ(parallel.values.size(), serial.values.size()) << "threads=" << threads;
    for (std::size_t i = 0; i < serial.values.size(); ++i) {
      EXPECT_EQ(parallel.values[i], serial.values[i])
          << serial.values[i].name << " diverged at threads=" << threads;
    }
  }
#endif
}

}  // namespace
}  // namespace dnsbs
