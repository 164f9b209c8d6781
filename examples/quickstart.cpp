// Quickstart: run a CCP-controlled TCP flow over a simulated link.
//
// This is the smallest end-to-end use of the library:
//   1. build a dumbbell network (one bottleneck link),
//   2. start a CCP host (agent + datapath, talking over simulated IPC),
//   3. create a flow running a built-in algorithm in the *agent*,
//   4. attach it to a TCP sender and run.
//
// Usage: quickstart [algorithm]     (default: cubic)
// Try: reno, cubic, vegas, bbr, dctcp, timely, pcc
#include <cstdio>
#include <string>

#include "scenario/topology.hpp"
#include "sim/ccp_host.hpp"
#include "util/units.hpp"

using namespace ccp;

int main(int argc, char** argv) {
  const std::string alg = argc > 1 ? argv[1] : "cubic";

  // A 100 Mbit/s bottleneck with a 20 ms RTT and one BDP of buffer.
  sim::EventQueue events;
  // The link's delay is one-way; the ACK path mirrors it.
  scenario::Network net(events,
                        {{.rate_bps = 100e6,
                          .delay = Duration::from_millis(10),
                          .buffer_bdp = 1.0}},
                        /*seed=*/1);

  // The CCP side: a user-space agent with every built-in algorithm
  // registered, plus the datapath, wired through ~15 us of simulated IPC.
  sim::SimCcpHost host(events, sim::CcpHostConfig{});

  // One flow, congestion-controlled by `alg` running in the agent.
  datapath::FlowConfig flow_cfg;
  flow_cfg.mss = 1460;
  flow_cfg.init_cwnd_bytes = 10 * 1460;
  auto& flow = host.create_flow(flow_cfg, alg);

  const TimePoint end = TimePoint::epoch() + Duration::from_secs(10);
  host.start(end);

  sim::TcpSenderConfig sender_cfg;
  sender_cfg.record_rtt_samples = true;
  auto& sender = net.add_flow(sender_cfg, &flow, TimePoint::epoch());

  std::printf("running '%s' for 10 simulated seconds...\n", alg.c_str());
  events.run_until(end);

  std::printf("\nresults\n");
  std::printf("  throughput:   %s\n",
              format_bandwidth(sender.delivered_bytes() * 8.0 / 10.0).c_str());
  std::printf("  median RTT:   %.2f ms (base 20 ms)\n",
              sender.rtt_samples().quantile(0.5) / 1000.0);
  std::printf("  loss events:  %llu\n",
              static_cast<unsigned long long>(sender.stats().loss_events));
  std::printf("  reports:      %llu (one per RTT — not one per ACK; that is "
              "the point)\n",
              static_cast<unsigned long long>(flow.reports_sent()));
  std::printf("  final cwnd:   %.1f packets\n", flow.cwnd_bytes() / 1460.0);
  return 0;
}
