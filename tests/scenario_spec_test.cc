// ScenarioSpec text format: parsing, validation, round-tripping, and the
// shared fairness/summary helpers in util/series.hpp.
#include <gtest/gtest.h>

#include <stdexcept>

#include "scenario/library.hpp"
#include "scenario/spec.hpp"
#include "util/series.hpp"

namespace ccp::scenario {
namespace {

TEST(ScenarioSpecParse, FullSpec) {
  const ScenarioSpec spec = parse_spec(R"(
# a parking lot with an impaired middle hop
scenario pl_demo
describe three hops, lossy middle
topology parking_lot
duration 12
seed 99
ipc 25us
sample_interval 0.25
link rate=48Mbps delay=5ms buffer=1.5
link rate=24Mbps delay=10ms buffer=1.0 loss=0.01 rate@4s=12Mbps rate@8s=24Mbps
link rate=48Mbps delay=5ms queue_bytes=30000 ecn=0.5
group name=long alg=cubic count=2 start=1 stagger=0.5 hops=0-2 rtt_step=10ms
group name=cross alg=native:reno hops=1 stop=10
group name=mp alg=bbr count=4 coupled=2 ecn=1
)");
  EXPECT_EQ(spec.name, "pl_demo");
  EXPECT_EQ(spec.description, "three hops, lossy middle");
  EXPECT_EQ(spec.topology, Topology::kParkingLot);
  EXPECT_DOUBLE_EQ(spec.duration_secs, 12);
  EXPECT_EQ(spec.seed, 99u);
  EXPECT_EQ(spec.ipc_delay.micros(), 25);
  EXPECT_DOUBLE_EQ(spec.sample_interval_secs, 0.25);

  ASSERT_EQ(spec.links.size(), 3u);
  EXPECT_DOUBLE_EQ(spec.links[0].rate_bps, 48e6);
  EXPECT_EQ(spec.links[0].delay.millis(), 5);
  EXPECT_DOUBLE_EQ(spec.links[1].random_loss, 0.01);
  ASSERT_EQ(spec.links[1].rate_schedule.size(), 2u);
  EXPECT_EQ(spec.links[1].rate_schedule[0].at.millis(), 4000);
  EXPECT_DOUBLE_EQ(spec.links[1].rate_schedule[0].rate_bps, 12e6);
  EXPECT_EQ(spec.links[2].queue_bytes, 30000u);
  EXPECT_DOUBLE_EQ(spec.links[2].ecn_threshold_bdp, 0.5);

  ASSERT_EQ(spec.groups.size(), 3u);
  EXPECT_EQ(spec.groups[0].count, 2u);
  EXPECT_DOUBLE_EQ(spec.groups[0].start_secs, 1);
  EXPECT_DOUBLE_EQ(spec.groups[0].stagger_secs, 0.5);
  EXPECT_EQ(spec.groups[0].hop_first, 0u);
  EXPECT_EQ(spec.groups[0].hop_last, 2u);
  EXPECT_EQ(spec.groups[0].rtt_step.millis(), 10);
  EXPECT_EQ(spec.groups[1].alg, "native:reno");
  EXPECT_EQ(spec.groups[1].hop_first, 1u);
  EXPECT_EQ(spec.groups[1].hop_last, 1u);
  EXPECT_DOUBLE_EQ(spec.groups[1].stop_secs, 10);
  EXPECT_EQ(spec.groups[2].coupled_subflows, 2u);
  EXPECT_TRUE(spec.groups[2].ecn);
}

TEST(ScenarioSpecParse, GroupNameDefaultsToAlg) {
  const ScenarioSpec spec = parse_spec(
      "scenario s\nlink rate=10Mbps delay=5ms\ngroup alg=bbr\n");
  EXPECT_EQ(spec.groups[0].name, "bbr");
}

TEST(ScenarioSpecParse, RejectsMalformedInput) {
  EXPECT_THROW(parse_spec("frobnicate 3\n"), std::invalid_argument);
  EXPECT_THROW(parse_spec("scenario s\nlink speed=1Mbps\ngroup alg=cubic\n"),
               std::invalid_argument);
  EXPECT_THROW(parse_spec("scenario s\nlink rate\ngroup alg=cubic\n"),
               std::invalid_argument);
}

TEST(ScenarioSpecValidate, RejectsBadFields) {
  // Loss probability out of range.
  EXPECT_THROW(parse_spec("scenario s\nlink loss=1.5\ngroup alg=cubic\n"),
               std::invalid_argument);
  // A dumbbell with two links.
  EXPECT_THROW(
      parse_spec("scenario s\nlink rate=1Mbps\nlink rate=1Mbps\n"
                 "group alg=cubic\n"),
      std::invalid_argument);
  // Rate schedule not ascending in time.
  EXPECT_THROW(
      parse_spec("scenario s\nlink rate@8s=1Mbps rate@4s=2Mbps\n"
                 "group alg=cubic\n"),
      std::invalid_argument);
  // Bundle size must divide the flow count.
  EXPECT_THROW(
      parse_spec("scenario s\nlink rate=1Mbps\n"
                 "group alg=cubic count=3 coupled=2\n"),
      std::invalid_argument);
  // Stop before start.
  EXPECT_THROW(
      parse_spec("scenario s\nlink rate=1Mbps\n"
                 "group alg=cubic start=5 stop=2\n"),
      std::invalid_argument);
  // Path beyond the last hop.
  EXPECT_THROW(
      parse_spec("scenario s\ntopology parking_lot\nlink rate=1Mbps\n"
                 "group alg=cubic hops=3-3\n"),
      std::invalid_argument);
}

TEST(ScenarioSpecFormat, RoundTripsEveryBuiltin) {
  for (const std::string& name : builtin_scenario_names()) {
    const ScenarioSpec spec = builtin_scenario(name);
    const std::string text = format_spec(spec);
    const ScenarioSpec reparsed = parse_spec(text);
    EXPECT_EQ(format_spec(reparsed), text) << "builtin " << name;
    EXPECT_EQ(reparsed.name, spec.name);
    EXPECT_EQ(reparsed.links.size(), spec.links.size());
    EXPECT_EQ(reparsed.groups.size(), spec.groups.size());
  }
}

TEST(LinkSpec, QueueCapacityDerivesFromBdp) {
  LinkSpec link;
  link.rate_bps = 96e6;
  link.delay = Duration::from_millis(5);  // BDP = 96e6/8 * 10ms = 120000 B
  link.buffer_bdp = 1.0;
  EXPECT_EQ(link.queue_capacity_bytes(), 120000u);
  link.buffer_bdp = 0.5;
  EXPECT_EQ(link.queue_capacity_bytes(), 60000u);
  link.queue_bytes = 4242;  // explicit override wins
  EXPECT_EQ(link.queue_capacity_bytes(), 4242u);
  link.queue_bytes = 0;
  link.buffer_bdp = 1e-9;  // never below one MTU
  EXPECT_EQ(link.queue_capacity_bytes(), 1500u);
}

TEST(JainIndex, KnownValues) {
  EXPECT_DOUBLE_EQ(util::jain_index({}), 0.0);
  EXPECT_DOUBLE_EQ(util::jain_index({0.0, 0.0}), 0.0);
  EXPECT_DOUBLE_EQ(util::jain_index({5.0}), 1.0);
  EXPECT_DOUBLE_EQ(util::jain_index({3.0, 3.0, 3.0, 3.0}), 1.0);
  EXPECT_DOUBLE_EQ(util::jain_index({1.0, 0.0}), 0.5);
  // Scale invariance.
  EXPECT_DOUBLE_EQ(util::jain_index({1.0, 2.0, 3.0}),
                   util::jain_index({10.0, 20.0, 30.0}));
}

}  // namespace
}  // namespace ccp::scenario
