// The determinism contract under parallel execution (DESIGN.md §6):
// serial and N-thread runs of the forest, the sensor, cross-validation,
// and the windowed pipeline must produce byte-identical outputs for a
// fixed seed.
#include <gtest/gtest.h>

#include "analysis/pipeline.hpp"
#include "core/sensor.hpp"
#include "labeling/curator.hpp"
#include "ml/crossval.hpp"
#include "ml/forest.hpp"
#include "sim/scenario.hpp"
#include "util/metrics.hpp"
#include "util/parallel.hpp"

namespace dnsbs {
namespace {

constexpr std::uint64_t kSeeds[] = {3, 71, 20140415};

ml::Dataset noisy_blobs(std::uint64_t seed) {
  ml::Dataset d({"x", "y"}, {"a", "b", "c"});
  util::Rng rng(seed);
  const double centers[3][2] = {{0.2, 0.2}, {0.8, 0.2}, {0.5, 0.9}};
  for (std::size_t k = 0; k < 3; ++k) {
    for (std::size_t i = 0; i < 50; ++i) {
      d.add({centers[k][0] + rng.normal(0, 0.2), centers[k][1] + rng.normal(0, 0.2)}, k);
    }
  }
  return d;
}

/// Restores the global thread override even when an assertion fails.
struct ThreadCountGuard {
  ~ThreadCountGuard() { util::set_thread_count(0); }
};

TEST(ParallelDeterminism, ForestFitAndPredictMatchSerial) {
  ThreadCountGuard guard;
  for (const std::uint64_t seed : kSeeds) {
    const ml::Dataset train = noisy_blobs(seed);
    const ml::Dataset probe = noisy_blobs(seed ^ 0xabcd);

    ml::ForestConfig fc;
    fc.n_trees = 30;
    fc.seed = seed;

    util::set_thread_count(1);
    ml::RandomForest serial(fc);
    serial.fit(train);
    const auto serial_pred = serial.predict_all(probe);
    const auto serial_imp = serial.gini_importance();

    for (const std::size_t threads : {2, 4}) {
      util::set_thread_count(threads);
      ml::RandomForest parallel(fc);
      parallel.fit(train);
      EXPECT_EQ(parallel.predict_all(probe), serial_pred)
          << "seed=" << seed << " threads=" << threads;
      EXPECT_EQ(parallel.gini_importance(), serial_imp)
          << "seed=" << seed << " threads=" << threads;
    }
  }
}

TEST(ParallelDeterminism, CrossValidationMatchesSerial) {
  ThreadCountGuard guard;
  for (const std::uint64_t seed : kSeeds) {
    const ml::Dataset d = noisy_blobs(seed);
    ml::CrossValConfig cv;
    cv.repetitions = 8;
    cv.seed = seed;
    const auto factory = [](std::uint64_t s) {
      ml::ForestConfig fc;
      fc.n_trees = 10;
      fc.seed = s;
      return std::unique_ptr<ml::Classifier>(std::make_unique<ml::RandomForest>(fc));
    };

    util::set_thread_count(1);
    const ml::MetricSummary serial = ml::cross_validate(d, factory, cv);
    util::set_thread_count(4);
    const ml::MetricSummary parallel = ml::cross_validate(d, factory, cv);

    EXPECT_EQ(serial.runs, parallel.runs);
    EXPECT_DOUBLE_EQ(serial.mean.accuracy, parallel.mean.accuracy) << "seed=" << seed;
    EXPECT_DOUBLE_EQ(serial.mean.f1, parallel.mean.f1) << "seed=" << seed;
    EXPECT_DOUBLE_EQ(serial.stddev.accuracy, parallel.stddev.accuracy);
    EXPECT_DOUBLE_EQ(serial.stddev.f1, parallel.stddev.f1);
  }
}

void expect_identical_features(const std::vector<core::FeatureVector>& a,
                               const std::vector<core::FeatureVector>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].originator, b[i].originator) << "row " << i;
    EXPECT_EQ(a[i].footprint, b[i].footprint) << "row " << i;
    // Exact equality, not near: the parallel path must be byte-identical.
    EXPECT_EQ(a[i].row(), b[i].row()) << "row " << i;
  }
}

TEST(ParallelDeterminism, SensorShardedIngestAndExtractMatchSerial) {
  for (const std::uint64_t seed : kSeeds) {
    sim::Scenario scenario(sim::jp_ditl_config(seed, 0.05));
    scenario.run();
    const auto& records = scenario.authority(0).records();
    ASSERT_GT(records.size(), 4096u)
        << "world too small to exercise the sharded ingest path";

    const auto run_with = [&](std::size_t threads) {
      core::SensorConfig sc;
      sc.threads = threads;
      core::Sensor sensor(sc, scenario.plan().as_db(), scenario.plan().geo_db(),
                          scenario.naming());
      sensor.ingest_all(records);
      return sensor;
    };

    const core::Sensor serial = run_with(1);
    const auto serial_features = serial.extract_features();
    ASSERT_FALSE(serial_features.empty());

    for (const std::size_t threads : {2, 4}) {
      const core::Sensor parallel = run_with(threads);
      EXPECT_EQ(parallel.dedup().admitted(), serial.dedup().admitted());
      EXPECT_EQ(parallel.dedup().suppressed(), serial.dedup().suppressed());
      EXPECT_EQ(parallel.aggregator().originator_count(),
                serial.aggregator().originator_count());
      EXPECT_EQ(parallel.aggregator().total_periods(),
                serial.aggregator().total_periods());
      expect_identical_features(serial_features, parallel.extract_features());
    }
  }
}

TEST(ParallelDeterminism, ShardedIngestKeepsFlatMapLayoutIdentical) {
  // Stronger than value equality: the FlatMap slot layout (iteration
  // order) of every originator's querier histogram must match serial,
  // because entropy reductions sum in iteration order and must stay
  // byte-identical.  Each originator's map is built inside exactly one
  // shard from the same record subsequence, then moved wholesale on
  // merge, so the layouts coincide.
  sim::Scenario scenario(sim::jp_ditl_config(71, 0.05));
  scenario.run();
  const auto& records = scenario.authority(0).records();
  ASSERT_GT(records.size(), 4096u);

  const auto run_with = [&](std::size_t threads) {
    core::SensorConfig sc;
    sc.threads = threads;
    core::Sensor sensor(sc, scenario.plan().as_db(), scenario.plan().geo_db(),
                        scenario.naming());
    sensor.ingest_all(records);
    return sensor;
  };

  const core::Sensor serial = run_with(1);
  const core::Sensor sharded = run_with(4);
  const auto& serial_aggs = serial.aggregator().aggregates();
  const auto& sharded_aggs = sharded.aggregator().aggregates();
  ASSERT_EQ(serial_aggs.size(), sharded_aggs.size());

  std::size_t compared = 0;
  for (const auto& [originator, agg] : serial_aggs) {
    const auto* other = sharded_aggs.find(originator);
    ASSERT_NE(other, nullptr) << originator.to_string();
    ASSERT_EQ(agg.querier_queries.size(), other->second.querier_queries.size());
    auto it_a = agg.querier_queries.begin();
    auto it_b = other->second.querier_queries.begin();
    for (; it_a != agg.querier_queries.end(); ++it_a, ++it_b) {
      ASSERT_EQ(it_a->first, it_b->first)
          << "slot order diverged for " << originator.to_string();
      ASSERT_EQ(it_a->second, it_b->second);
    }
    ++compared;
  }
  EXPECT_EQ(compared, serial_aggs.size());
}

TEST(ParallelDeterminism, ShardedIngestKeepsServingLaterSerialIngest) {
  // After a sharded bulk ingest, single-record ingest() must continue from
  // the same dedup window state a serial run would have.
  sim::Scenario scenario(sim::jp_ditl_config(9, 0.05));
  scenario.run();
  const auto& records = scenario.authority(0).records();
  ASSERT_GT(records.size(), 5000u);
  const std::span<const dns::QueryRecord> bulk(records.data(), 5000);

  core::SensorConfig serial_cfg;
  serial_cfg.threads = 1;
  core::Sensor serial(serial_cfg, scenario.plan().as_db(), scenario.plan().geo_db(),
                      scenario.naming());
  core::SensorConfig sharded_cfg;
  sharded_cfg.threads = 4;
  core::Sensor sharded(sharded_cfg, scenario.plan().as_db(), scenario.plan().geo_db(),
                       scenario.naming());

  serial.ingest_all(bulk);
  sharded.ingest_all(bulk);
  // Replay a slice of the bulk records immediately: duplicates within the
  // window must be suppressed identically by both sensors.
  for (std::size_t i = 4000; i < 5000; ++i) {
    serial.ingest(records[i]);
    sharded.ingest(records[i]);
  }
  EXPECT_EQ(serial.dedup().admitted(), sharded.dedup().admitted());
  EXPECT_EQ(serial.dedup().suppressed(), sharded.dedup().suppressed());
  expect_identical_features(serial.extract_features(), sharded.extract_features());
}

TEST(ParallelDeterminism, MetricCountersMatchSerial) {
  // The determinism contract extends to telemetry: every counter and gauge
  // registered without the `sched` flag must read byte-identical for any
  // thread count on the same input (DESIGN.md "Observability").
#if !DNSBS_METRICS_ENABLED
  GTEST_SKIP() << "built with -DDNSBS_METRICS=OFF";
#else
  ThreadCountGuard guard;
  sim::Scenario scenario(sim::jp_ditl_config(71, 0.05));
  scenario.run();
  const auto& records = scenario.authority(0).records();
  ASSERT_GT(records.size(), 4096u);

  const auto run_with = [&](std::size_t threads) {
    util::set_thread_count(threads);
    util::metrics_reset();
    {
      core::SensorConfig sc;
      sc.threads = threads;
      core::Sensor sensor(sc, scenario.plan().as_db(), scenario.plan().geo_db(),
                          scenario.naming());
      sensor.ingest_all(records);
      const auto features = sensor.extract_features();
      EXPECT_FALSE(features.empty());
    }
    return util::metrics_snapshot().deterministic_view();
  };

  const util::MetricsSnapshot serial = run_with(1);
  ASSERT_FALSE(serial.values.empty());
  EXPECT_GT(serial.scalar("dnsbs.dedup.admitted"), 0);
  EXPECT_GT(serial.scalar("dnsbs.features.rows"), 0);

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

TEST(ParallelDeterminism, ProcessWindowMatchesAcrossThreadCounts) {
  ThreadCountGuard guard;
  // Simulate the four weekly windows once (serially); labels are curated
  // after week 0, as a deployment would.  Each thread count then replays
  // the same records through its own pipeline.
  util::set_thread_count(1);
  sim::Scenario scenario(sim::b_multi_year_config(421, 4, 0.07));
  labeling::Darknet darknet(labeling::default_darknet_prefixes());
  scenario.engine().set_traffic_observer(&darknet);
  analysis::WindowedPipelineConfig pc;
  pc.sensor.min_queriers = 10;
  pc.forest.n_trees = 30;

  std::vector<std::vector<dns::QueryRecord>> records;
  labeling::GroundTruth labels;
  for (int w = 0; w < 4; ++w) {
    scenario.run_window(util::SimTime::weeks(w), util::SimTime::weeks(w + 1));
    records.push_back(scenario.authority(0).records());
    scenario.authority(0).clear_records();
    if (w == 0) {
      core::Sensor sensor(pc.sensor, scenario.plan().as_db(), scenario.plan().geo_db(),
                          scenario.naming());
      sensor.ingest_all(records[0]);
      util::Rng rng(5);
      const auto blacklist = labeling::BlacklistSet::build(scenario.population(), {}, rng);
      labeling::Curator curator(scenario, blacklist, darknet, {}, 6);
      labels = curator.curate(sensor.extract_features());
    }
  }

  const auto run_pipeline = [&](std::size_t threads) {
    util::set_thread_count(threads);
    analysis::WindowedPipeline pipeline(pc, scenario.plan().as_db(),
                                        scenario.plan().geo_db(), scenario.naming());
    for (int w = 0; w < 4; ++w) {
      pipeline.process_window(records[static_cast<std::size_t>(w)], util::SimTime::weeks(w),
                              util::SimTime::weeks(w + 1));
      if (w == 0) pipeline.set_labels(labels);
    }
    return pipeline.results();
  };

  const auto serial = run_pipeline(1);
  const auto parallel = run_pipeline(4);
  ASSERT_EQ(serial.size(), 4u);
  ASSERT_EQ(parallel.size(), 4u);
  for (std::size_t w = 0; w < serial.size(); ++w) {
    EXPECT_EQ(serial[w].classes, parallel[w].classes) << "window " << w;
    EXPECT_EQ(serial[w].footprints, parallel[w].footprints) << "window " << w;
    // Each window's stats come from its own sensor, so sharded ingest and
    // parallel extraction/training cannot move them.
    EXPECT_EQ(serial[w].stats, parallel[w].stats) << "window " << w;
  }
  EXPECT_TRUE(serial.back().stats.retrained) << "the labeled windows should retrain";
}

}  // namespace
}  // namespace dnsbs
