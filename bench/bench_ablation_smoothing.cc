// Ablation: smooth congestion window transitions in the datapath.
//
// §3 of the paper observes that per-RTT cwnd updates cause packet bursts
// and says: "In future work, we plan to implement smooth congestion
// window transitions in the datapath to avoid packet bursts due to
// per-RTT congestion window updates." We implemented that future work
// (FlowConfig::smooth_cwnd, ACK-clocked increase toward the target);
// this bench quantifies what it buys.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "scenario/topology.hpp"
#include "sim/ccp_host.hpp"

namespace {

using namespace ccp;
using namespace ccp::sim;

struct RunOutput {
  double tput_mbps = 0;
  uint64_t timeouts = 0;
  uint64_t drops = 0;
  double max_queue_pkts = 0;
};

RunOutput run(const std::string& alg, bool smooth, double rate_bps,
              double buffer_bdp) {
  EventQueue q;
  scenario::Network net(q,
                        {{.rate_bps = rate_bps,
                          .delay = Duration::from_millis(5),
                          .buffer_bdp = buffer_bdp}},
                        /*seed=*/1);
  const TimePoint end = TimePoint::epoch() + Duration::from_secs(15);
  SimCcpHost host(q, CcpHostConfig{});
  datapath::FlowConfig fcfg{};
  fcfg.mss = 1460;
  fcfg.init_cwnd_bytes = 10 * 1460;
  fcfg.smooth_cwnd = smooth;
  auto& flow = host.create_flow(fcfg, alg);
  host.start(end);
  auto& snd = net.add_flow(TcpSenderConfig{}, &flow, TimePoint::epoch());
  q.run_until(end);
  return {snd.delivered_bytes() * 8.0 / 15 / 1e6, snd.stats().timeouts,
          net.hop(0).stats().dropped_pkts,
          net.hop(0).stats().max_queue_bytes / 1500.0};
}

}  // namespace

int main() {
  bench::banner("Ablation (the §3 future work, implemented)",
                "Smooth cwnd transitions in the datapath: on vs off");
  std::printf("workload: 10 ms RTT, 15 s, one CCP flow. Shallow buffers make\n"
              "burst absorption the binding constraint — exactly where the\n"
              "paper observed per-RTT window updates causing packet bursts.\n\n");

  std::printf("%-8s %-11s %-7s %-7s %12s %9s %8s %10s\n", "algo", "link",
              "buffer", "smooth", "tput Mbit/s", "timeouts", "drops",
              "maxQ pkts");
  for (const char* alg : {"reno", "cubic"}) {
    for (double rate : {100e6, 1e9}) {
      for (double buffer : {0.25, 1.0}) {
        for (bool smooth : {false, true}) {
          const RunOutput r = run(alg, smooth, rate, buffer);
          std::printf("%-8s %-11s %-7.2f %-7s %12.1f %9llu %8llu %10.0f\n", alg,
                      rate >= 1e9 ? "1 Gbit/s" : "100 Mbit/s", buffer,
                      smooth ? "on" : "off", r.tput_mbps,
                      static_cast<unsigned long long>(r.timeouts),
                      static_cast<unsigned long long>(r.drops),
                      r.max_queue_pkts);
        }
      }
    }
  }
  std::printf(
      "\nHonest reading: with modern loss recovery (SACK + RACK + tail-loss\n"
      "probes) in the transport, burstiness from per-RTT window jumps costs\n"
      "little at the macro level — smoothing trims drops in the shallow-\n"
      "buffer high-BDP case (1 Gbit/s, 0.25 BDP) and is roughly neutral or\n"
      "even drop-increasing elsewhere (gentler probing lingers at the cliff\n"
      "longer). The feature mattered far more during bring-up: before this\n"
      "repo's sender grew RACK/TLP, unsmoothed window jumps caused tail-drop\n"
      "RTO collapses — the precise failure mode §3 anticipates. Where it\n"
      "still earns its keep is burst shaping for offload hardware (Figure 5:\n"
      "bursts change GRO behavior), not loss avoidance.\n");
  return 0;
}
