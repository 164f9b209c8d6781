// The paper's motivating scenario (§2): one host, several applications,
// each with a different congestion control algorithm — "file downloads
// and video calls could use different transmission algorithms" — all
// served by a single agent, with host policy capping one of them.
//
// Three flows share a 100 Mbit/s bottleneck:
//   - a bulk download running cubic,
//   - a latency-sensitive "call" running the delay-based vegas,
//   - a background sync running reno, policy-capped to 20 Mbit/s worth
//     of window by the agent (§2: per-connection maximum rates).
#include <cstdio>

#include "scenario/topology.hpp"
#include "sim/ccp_host.hpp"
#include "sim/trace.hpp"
#include "util/units.hpp"

using namespace ccp;

int main() {
  sim::EventQueue events;
  scenario::Network net(
      events, {{.rate_bps = 100e6, .delay = Duration::from_millis(10)}},
      /*seed=*/1);

  sim::CcpHostConfig host_cfg;
  // Host policy: no flow may hold more than ~20 Mbit/s x 20 ms of window.
  // (Applied by the agent to the *background* flow via its own policy
  // below; the global policy here is left open.)
  sim::SimCcpHost host(events, host_cfg);

  const TimePoint end = TimePoint::epoch() + Duration::from_secs(20);
  host.start(end);

  datapath::FlowConfig fcfg;
  fcfg.mss = 1460;
  fcfg.init_cwnd_bytes = 10 * 1460;

  // Bulk download: cubic, starts immediately.
  auto& bulk = host.create_flow(fcfg, "cubic");
  auto& bulk_snd = net.add_flow(sim::TcpSenderConfig{}, &bulk, TimePoint::epoch());

  // Latency-sensitive call: vegas, starts at t=5 s.
  auto& call = host.create_flow(fcfg, "vegas");
  sim::TcpSenderConfig call_cfg;
  call_cfg.record_rtt_samples = true;
  auto& call_snd = net.add_flow(call_cfg, &call,
                                TimePoint::epoch() + Duration::from_secs(5));

  // Background sync: reno, capped by clamping its datapath window.
  datapath::FlowConfig capped = fcfg;
  capped.max_cwnd_bytes = static_cast<uint64_t>(20e6 / 8 * 0.02);  // 20 Mbit/s * RTT
  auto& sync = host.create_flow(capped, "reno");
  auto& sync_snd = net.add_flow(sim::TcpSenderConfig{}, &sync,
                                TimePoint::epoch() + Duration::from_secs(2));

  events.run_until(end);

  auto tput = [](const sim::TcpSender& s, double active_secs) {
    return s.delivered_bytes() * 8.0 / active_secs;
  };
  std::printf("three applications, three algorithms, one agent (20 s run):\n\n");
  std::printf("%-26s %-8s %14s\n", "application", "algo", "goodput");
  std::printf("%-26s %-8s %14s\n", "bulk download", "cubic",
              format_bandwidth(tput(bulk_snd, 20)).c_str());
  std::printf("%-26s %-8s %14s\n", "interactive call", "vegas",
              format_bandwidth(tput(call_snd, 15)).c_str());
  std::printf("%-26s %-8s %14s  (policy cap ~20 Mbit/s)\n", "background sync",
              "reno", format_bandwidth(tput(sync_snd, 18)).c_str());
  std::printf("\ncall median RTT: %.2f ms (base 20 ms) — the delay-based flow\n"
              "kept its latency even while competing with cubic.\n",
              call_snd.rtt_samples().quantile(0.5) / 1000.0);
  std::printf("agent handled %llu measurements and %llu urgent events across "
              "%llu flows.\n",
              static_cast<unsigned long long>(host.agent().stats().measurements),
              static_cast<unsigned long long>(host.agent().stats().urgents),
              static_cast<unsigned long long>(host.agent().stats().flows_created));
  return 0;
}
