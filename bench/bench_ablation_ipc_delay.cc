// Ablation: "Could CCP work at low RTTs?" (§5).
//
// The paper argues per-RTT control is fine when IPC latency << RTT and
// asks what happens when RTTs approach IPC latency (1-10 us datacenter
// fabrics). We sweep the modeled IPC delay against several path RTTs and
// report utilization — mapping out where off-datapath control starts to
// lag the control loop it is driving.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "scenario/topology.hpp"
#include "sim/ccp_host.hpp"

namespace {

using namespace ccp;
using namespace ccp::sim;

double run(Duration rtt, Duration ipc_delay, double rate_bps) {
  EventQueue q;
  scenario::Network net(q, {{.rate_bps = rate_bps, .delay = rtt / 2}},
                        /*seed=*/1);
  const double secs = std::max(4.0, rtt.secs() * 2000);
  const TimePoint end = TimePoint::epoch() + Duration::from_secs_f(secs);
  CcpHostConfig hcfg;
  hcfg.ipc_delay = ipc_delay;
  hcfg.datapath_tick = std::min(Duration::from_micros(100), rtt / 4);
  SimCcpHost host(q, hcfg);
  auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
  host.start(end);
  auto& snd = net.add_flow(TcpSenderConfig{}, &flow, TimePoint::epoch());
  q.run_until(end);
  return snd.delivered_bytes() * 8.0 / secs / rate_bps;
}

}  // namespace

int main() {
  bench::banner("Ablation (§5 'Could CCP work at low RTTs?')",
                "Utilization vs IPC delay across path RTTs (CCP reno)");

  const struct {
    const char* name;
    Duration rtt;
    double rate;
  } paths[] = {
      {"datacenter 100us", Duration::from_micros(100), 1e9},
      {"metro 1ms", Duration::from_millis(1), 1e9},
      {"WAN 10ms", Duration::from_millis(10), 100e6},
  };
  const Duration delays[] = {Duration::from_micros(1), Duration::from_micros(15),
                             Duration::from_micros(50), Duration::from_micros(200),
                             Duration::from_millis(1)};

  std::printf("%-18s", "path \\ ipc delay");
  for (const auto& d : delays) std::printf(" %9lldus", (long long)d.micros());
  std::printf("\n");
  for (const auto& p : paths) {
    std::printf("%-18s", p.name);
    for (const auto& d : delays) {
      std::printf(" %10.1f%%", run(p.rtt, d, p.rate) * 100.0);
    }
    std::printf("\n");
  }
  std::printf(
      "\nReading: on WAN paths even 1 ms of IPC delay is invisible (the\n"
      "paper's Figure 2 argument). As the path RTT approaches the IPC\n"
      "delay, the per-RTT control loop falls behind — the regime where the\n"
      "paper suggests dedicating a core or synthesizing the controller into\n"
      "the datapath (§5).\n");
  return 0;
}
