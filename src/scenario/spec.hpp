// Declarative scenario description: topology + traffic mix + CCA mix.
//
// A ScenarioSpec is pure data — no behavior — describing one experiment
// the ScenarioRunner can execute: a topology (dumbbell, or a parking-lot
// chain of bottleneck hops) built from per-link rate/delay/queue/loss/
// rate-schedule settings, and a traffic mix of flow groups, each drawing
// its congestion-control algorithm from the agent's registry (or a
// native:<name> in-datapath baseline), with counts, staggered start/stop
// times, an RTT spread, a hop path, and optional multipath coupling.
//
// Specs come from three places: the built-in library (library.hpp), the
// `ccp_scenario` CLI, and the text format parsed by parse_spec() — see
// docs/SCENARIOS.md for the format.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/link.hpp"
#include "util/time.hpp"

namespace ccp::scenario {

/// One bottleneck hop. `buffer_bdp` sizes the queue in BDP units of this
/// link (rate x 2 x delay) unless `queue_bytes` overrides it explicitly.
struct LinkSpec {
  double rate_bps = 96e6;
  Duration delay = Duration::from_millis(5);  // one-way propagation
  double buffer_bdp = 1.0;
  uint64_t queue_bytes = 0;        // 0 = derive from buffer_bdp
  double ecn_threshold_bdp = -1;   // <0 = ECN off
  double random_loss = 0;          // iid per-packet drop probability
  std::vector<sim::RateChange> rate_schedule{};

  uint64_t queue_capacity_bytes() const {
    if (queue_bytes > 0) return queue_bytes;
    const double bdp = rate_bps / 8.0 * (2.0 * delay.secs());
    const double bytes = bdp * buffer_bdp;
    return bytes < 1500 ? 1500 : static_cast<uint64_t>(bytes);
  }
};

enum class Topology {
  kOneHop,      // "dumbbell": one bottleneck hop, every flow traverses it
  kParkingLot,  // a chain of hops; each flow traverses [hop_first, hop_last]
};

/// A group of identically configured flows.
struct FlowGroupSpec {
  std::string name;
  std::string alg = "cubic";  // registry name; "native:<x>" = in-datapath
  uint32_t count = 1;
  double start_secs = 0;
  double stop_secs = -1;      // <0 = run to scenario end
  double stagger_secs = 0;    // flow i starts at start_secs + i * stagger
  // RTT spread: flow i gets extra_rtt + i * rtt_step of additional
  // round-trip (split across the access paths, both directions).
  Duration extra_rtt = Duration::zero();
  Duration rtt_step = Duration::zero();
  // Hop path (parking-lot only; dumbbell flows always use hop 0).
  size_t hop_first = 0;
  size_t hop_last = SIZE_MAX;  // clamped to the last hop
  // Multipath: >1 groups the flows into bundles of this many subflows,
  // each bundle EWTCP-coupled — every subflow runs its own CCA instance
  // with its window scaled by 1/subflows, so a bundle competes for one
  // flow's fair share on a shared bottleneck.
  uint32_t coupled_subflows = 1;
  bool ecn = false;
};

struct ScenarioSpec {
  std::string name;
  std::string description;
  Topology topology = Topology::kOneHop;
  std::vector<LinkSpec> links;        // >= 1; dumbbell uses exactly one
  std::vector<FlowGroupSpec> groups;  // >= 1
  double duration_secs = 20;
  uint64_t seed = 42;
  Duration ipc_delay = Duration::from_micros(15);
  double sample_interval_secs = 0.5;  // scorecard throughput grid

  /// Throws std::invalid_argument with a message naming the bad field.
  void validate() const;
};

/// Parses the declarative text format (docs/SCENARIOS.md):
///
///   scenario wireless
///   topology dumbbell
///   duration 20
///   seed 7
///   link rate=24Mbps delay=20ms buffer=1.0 loss=0.005 rate@8s=12Mbps
///   group name=cc alg=cubic count=2 start=0 rtt_step=10ms
///
/// One directive per line; '#' starts a comment. Throws
/// std::invalid_argument on malformed input. The result is validate()d.
ScenarioSpec parse_spec(const std::string& text);

/// Renders a spec back to the text format (parse_spec round-trips it).
std::string format_spec(const ScenarioSpec& spec);

}  // namespace ccp::scenario
