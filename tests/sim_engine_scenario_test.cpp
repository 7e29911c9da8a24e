// Originator population, churn, traffic engine, and scenario presets.
#include <gtest/gtest.h>

#include "sim/scenario.hpp"

namespace dnsbs::sim {
namespace {

OriginatorPopulationConfig tiny_population() {
  OriginatorPopulationConfig cfg;
  cfg.focus_country = netdb::CountryCode('j', 'p');
  for (std::size_t c = 0; c < core::kAppClassCount; ++c) {
    cfg.classes[c].count = 4;
    cfg.classes[c].rate_scale = 1.0;
    cfg.classes[c].in_country_fraction = 0.5;
  }
  return cfg;
}

TEST(Population, MakesRequestedCounts) {
  const AddressPlan plan = AddressPlan::generate({.total_slash8 = 40, .sites = 800}, 2);
  util::Rng rng(3);
  const auto population = make_population(plan, tiny_population(), rng);
  EXPECT_GE(population.size(), 4u * core::kAppClassCount);
  std::array<std::size_t, core::kAppClassCount> per{};
  for (const auto& spec : population) {
    ++per[static_cast<std::size_t>(spec.cls)];
    EXPECT_GT(spec.touches_per_hour, 0.0);
    EXPECT_NE(plan.site_of(spec.address), nullptr);
  }
  for (std::size_t c = 0; c < core::kAppClassCount; ++c) {
    if (c == static_cast<std::size_t>(core::AppClass::kScan)) {
      // Scan teams may add same-/24 siblings beyond the configured count.
      EXPECT_GE(per[c], 4u);
    } else {
      EXPECT_EQ(per[c], 4u);
    }
  }
}

TEST(Population, SpecDefaultsMatchClassBehaviour) {
  const AddressPlan plan = AddressPlan::generate({.total_slash8 = 40, .sites = 800}, 2);
  util::Rng rng(5);
  const auto scan = make_spec(core::AppClass::kScan, plan, rng, 1.0);
  EXPECT_EQ(scan.kind, TrafficKind::kScanProbe);
  EXPECT_EQ(scan.strategy, TargetStrategy::kRandomAddress);
  const auto spam = make_spec(core::AppClass::kSpam, plan, rng, 1.0);
  EXPECT_EQ(spam.kind, TrafficKind::kSmtp);
  EXPECT_EQ(spam.strategy, TargetStrategy::kMailServers);
  const auto push = make_spec(core::AppClass::kPush, plan, rng, 1.0);
  EXPECT_EQ(push.strategy, TargetStrategy::kMobileUsers);
}

TEST(Churn, MaliciousLivesShorterThanBenign) {
  const AddressPlan plan = AddressPlan::generate({.total_slash8 = 40, .sites = 800}, 7);
  util::Rng rng(11);
  std::vector<OriginatorSpec> base;
  for (int i = 0; i < 150; ++i) {
    base.push_back(make_spec(core::AppClass::kSpam, plan, rng, 1.0));
    base.push_back(make_spec(core::AppClass::kMail, plan, rng, 1.0));
  }
  ChurnConfig cfg;
  cfg.horizon = util::SimTime::days(180);
  const auto churned = apply_churn(std::move(base), cfg, plan, {}, rng);

  double spam_life = 0, mail_life = 0;
  std::size_t spam_n = 0, mail_n = 0;
  for (const auto& spec : churned) {
    EXPECT_LE(spec.end, cfg.horizon);
    EXPECT_LT(spec.start, spec.end);
    const double life = (spec.end - spec.start).secs_f();
    if (spec.cls == core::AppClass::kSpam) {
      spam_life += life;
      ++spam_n;
    } else {
      mail_life += life;
      ++mail_n;
    }
  }
  ASSERT_GT(spam_n, 0u);
  ASSERT_GT(mail_n, 0u);
  // Replacements mean more (shorter-lived) spam spec instances.
  EXPECT_GT(spam_n, mail_n);
  EXPECT_LT(spam_life / spam_n, mail_life / mail_n);
}

TEST(Churn, VulnerabilityEventAddsScannersInWindow) {
  const AddressPlan plan = AddressPlan::generate({.total_slash8 = 40, .sites = 800}, 8);
  util::Rng rng(13);
  ChurnConfig cfg;
  cfg.horizon = util::SimTime::days(100);
  VulnerabilityEvent event;
  event.start = util::SimTime::days(40);
  event.ramp_duration = util::SimTime::days(7);
  event.extra_scanners = 25;
  event.port = 443;
  const std::vector<VulnerabilityEvent> events = {event};
  const auto churned = apply_churn({}, cfg, plan, events, rng);
  ASSERT_EQ(churned.size(), 25u);
  for (const auto& spec : churned) {
    EXPECT_EQ(spec.cls, core::AppClass::kScan);
    EXPECT_EQ(spec.port, 443);
    EXPECT_GE(spec.start, event.start);
    EXPECT_LE(spec.start, event.start + event.ramp_duration);
  }
}

TEST(Engine, RunsAndObserves) {
  ScenarioConfig cfg = jp_ditl_config(21, 0.05);
  cfg.duration = util::SimTime::hours(6);
  Scenario scenario(std::move(cfg));
  scenario.run();
  const auto& stats = scenario.engine().stats();
  EXPECT_GT(stats.touches, 1000u);
  EXPECT_GT(stats.lookups, 0u);
  EXPECT_GT(stats.final_queries, 0u);
  EXPECT_GE(stats.final_queries, stats.national_queries);
  EXPECT_GT(stats.national_queries, stats.root_queries);
  // National authority saw real records.
  EXPECT_GT(scenario.authority(0).records().size(), 100u);
}

TEST(Engine, RecordsAreTimeOrderedAndWellFormed) {
  ScenarioConfig cfg = jp_ditl_config(22, 0.05);
  cfg.duration = util::SimTime::hours(4);
  Scenario scenario(std::move(cfg));
  scenario.run();
  const auto& records = scenario.authority(0).records();
  ASSERT_GT(records.size(), 10u);
  for (std::size_t i = 1; i < records.size(); ++i) {
    EXPECT_LE(records[i - 1].time, records[i].time);
  }
  for (const auto& r : records) {
    EXPECT_GE(r.time.secs(), 0);
    EXPECT_LT(r.time, util::SimTime::hours(4));
  }
}

TEST(Engine, DeterministicUnderSeed) {
  const auto run_once = [] {
    ScenarioConfig cfg = jp_ditl_config(33, 0.04);
    cfg.duration = util::SimTime::hours(3);
    Scenario scenario(std::move(cfg));
    scenario.run();
    return scenario.authority(0).records().size();
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(Engine, ObserverSeesRawTouches) {
  class CountingObserver final : public TrafficObserver {
   public:
    void on_touch(util::SimTime, const OriginatorSpec&, net::IPv4Addr) override {
      ++count;
    }
    std::size_t count = 0;
  };
  ScenarioConfig cfg = jp_ditl_config(23, 0.04);
  cfg.duration = util::SimTime::hours(2);
  Scenario scenario(std::move(cfg));
  CountingObserver observer;
  scenario.engine().set_traffic_observer(&observer);
  scenario.run();
  EXPECT_EQ(observer.count, scenario.engine().stats().touches);
}

TEST(Scenario, TruthCoversPopulation) {
  ScenarioConfig cfg = m_ditl_config(24, 0.04);
  Scenario scenario(std::move(cfg));
  EXPECT_FALSE(scenario.truth().empty());
  for (const auto& spec : scenario.population()) {
    EXPECT_TRUE(scenario.truth().contains(spec.address));
  }
}

TEST(Scenario, ActiveInFiltersWindows) {
  ScenarioConfig cfg = m_sampled_config(25, 4, 0.03);
  Scenario scenario(std::move(cfg));
  const auto all = scenario.active_in(util::SimTime::seconds(0), cfg.duration);
  EXPECT_FALSE(all.empty());
  const auto late =
      scenario.active_in(util::SimTime::weeks(3), util::SimTime::weeks(4));
  for (const auto* spec : late) {
    EXPECT_LT(spec->start, util::SimTime::weeks(4));
    EXPECT_GT(spec->end, util::SimTime::weeks(3));
  }
}

// Preset sweep: every preset builds a consistent world.
struct PresetCase {
  const char* name;
  ScenarioConfig (*make)(std::uint64_t, double);
};

// Without this, gtest prints the case as its raw bytes (two pointers), and
// the ctest names gtest_discover_tests derives from that change with every
// load address.
void PrintTo(const PresetCase& c, std::ostream* os) { *os << c.name; }

class PresetTest : public ::testing::TestWithParam<PresetCase> {};

TEST_P(PresetTest, BuildsAndHasAuthorities) {
  ScenarioConfig cfg = GetParam().make(77, 0.03);
  EXPECT_FALSE(cfg.authorities.empty());
  Scenario scenario(std::move(cfg));
  EXPECT_FALSE(scenario.population().empty());
  EXPECT_GT(scenario.plan().sites().size(), 100u);
  // Spam must be the most numerous class in every preset (Table V shape).
  std::array<std::size_t, core::kAppClassCount> per{};
  for (const auto& spec : scenario.population()) {
    ++per[static_cast<std::size_t>(spec.cls)];
  }
  const std::size_t spam = per[static_cast<std::size_t>(core::AppClass::kSpam)];
  for (std::size_t c = 0; c < core::kAppClassCount; ++c) {
    if (c != static_cast<std::size_t>(core::AppClass::kSpam)) {
      EXPECT_GE(spam, per[c]) << "class " << c;
    }
  }
}

ScenarioConfig m_sampled_8w(std::uint64_t seed, double scale) {
  return m_sampled_config(seed, 8, scale);
}
ScenarioConfig b_year_8w(std::uint64_t seed, double scale) {
  return b_multi_year_config(seed, 8, scale);
}

INSTANTIATE_TEST_SUITE_P(
    Presets, PresetTest,
    ::testing::Values(PresetCase{"jp", &jp_ditl_config},
                      PresetCase{"b", &b_post_ditl_config},
                      PresetCase{"m", &m_ditl_config},
                      PresetCase{"msampled", &m_sampled_8w},
                      PresetCase{"bmulti", &b_year_8w}),
    [](const ::testing::TestParamInfo<PresetCase>& info) {
      return std::string(info.param.name);
    });

}  // namespace
}  // namespace dnsbs::sim
