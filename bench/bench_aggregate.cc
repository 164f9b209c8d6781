// Extension bench (§5 / §4-CM): aggregate congestion control for flow
// groups sharing a bottleneck.
//
// Scenario: three application flows from one host plus one competing
// standalone reno flow, all through a 50 Mbit/s bottleneck.
//   independent: the three flows each run their own reno -> together they
//                grab ~3/4 of the link (N shares for N flows).
//   aggregated:  the three flows join one AggregateGroup -> the group
//                competes as ONE flow (~1/2 of the link), and an internal
//                3:2:1 weighting divides the group's share — bandwidth
//                policy without touching the network.
#include <cstdio>

#include "agent/aggregate.hpp"
#include "algorithms/native/native_reno.hpp"
#include "bench/bench_common.hpp"
#include "scenario/topology.hpp"
#include "sim/ccp_host.hpp"

namespace {

using namespace ccp;
using namespace ccp::sim;

constexpr double kSecs = 30.0;

struct Result {
  std::vector<double> member_tputs;
  double outsider = 0;
};

Result run(bool aggregated, std::vector<double> weights) {
  EventQueue q;
  scenario::Network net(
      q, {{.rate_bps = 50e6, .delay = Duration::from_millis(5)}}, /*seed=*/1);
  SimCcpHost host(q, CcpHostConfig{});

  agent::AggregateGroup group;
  for (int i = 0; i < 3; ++i) {
    const std::string name = "member" + std::to_string(i);
    if (aggregated) {
      host.agent().register_algorithm(name, group.member_factory(weights[i]));
    }
  }
  const TimePoint end = TimePoint::epoch() + Duration::from_secs_f(kSecs);
  host.start(end);

  std::vector<TcpSender*> members;
  for (int i = 0; i < 3; ++i) {
    auto& flow = host.create_flow(
        datapath::FlowConfig{1460, 10 * 1460},
        aggregated ? "member" + std::to_string(i) : std::string("reno"));
    members.push_back(&net.add_flow(TcpSenderConfig{}, &flow, TimePoint::epoch()));
  }
  algorithms::native::NativeReno outsider(1460, 10 * 1460);
  auto& out_snd = net.add_flow(TcpSenderConfig{}, &outsider, TimePoint::epoch());
  q.run_until(end);

  Result r;
  for (auto* snd : members) {
    r.member_tputs.push_back(snd->delivered_bytes() * 8.0 / kSecs / 1e6);
  }
  r.outsider = out_snd.delivered_bytes() * 8.0 / kSecs / 1e6;
  return r;
}

void print(const char* name, const Result& r) {
  double group = 0;
  for (double t : r.member_tputs) group += t;
  std::printf("%-28s members: %5.1f %5.1f %5.1f  group=%5.1f  outsider=%5.1f  "
              "group/outsider=%.2f\n",
              name, r.member_tputs[0], r.member_tputs[1], r.member_tputs[2],
              group, r.outsider, group / r.outsider);
}

}  // namespace

int main() {
  bench::banner("Extension: aggregate congestion control (§5, cf. CM in §4)",
                "3 host flows + 1 competing reno flow, 50 Mbit/s bottleneck");
  std::printf("all numbers Mbit/s over %.0f s\n\n", kSecs);

  print("independent (3x reno)", run(false, {1, 1, 1}));
  print("aggregated, equal weights", run(true, {1, 1, 1}));
  print("aggregated, weights 3:2:1", run(true, {3, 2, 1}));

  std::printf(
      "\nReading: independent flows take ~3 shares of 4; the aggregate takes\n"
      "~1 share of 2 regardless of member count (the Congestion Manager's\n"
      "ensemble behavior), and weights divide the group's share as host\n"
      "policy dictates. All of it is ordinary user-space agent code over\n"
      "the unchanged per-flow datapath API.\n");
  return 0;
}
