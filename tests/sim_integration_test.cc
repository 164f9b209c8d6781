// End-to-end tests of the full CCP stack: simulator <-> datapath <->
// (simulated IPC) <-> agent <-> algorithms. These are the system-level
// claims of the paper in miniature: CCP algorithms behave like their
// in-datapath counterparts (§3) while acting only a few times per RTT.
#include <gtest/gtest.h>

#include "algorithms/native/native_cubic.hpp"
#include "algorithms/native/native_dctcp.hpp"
#include "algorithms/native/native_reno.hpp"
#include "algorithms/native/native_vegas.hpp"
#include "scenario/topology.hpp"
#include "sim/ccp_host.hpp"

namespace ccp::sim {
namespace {

TimePoint at_s(double s) {
  return TimePoint::epoch() + Duration::from_secs_f(s);
}

/// The 50 Mbit/s, 10 ms RTT, 1-BDP bottleneck every test here runs on;
/// with `ecn` it CE-marks above 20000 B of queue (0.32 BDP).
std::vector<scenario::LinkSpec> bottleneck(bool ecn = false) {
  return {{.rate_bps = 50e6,
           .delay = Duration::from_millis(5),
           .ecn_threshold_bdp = ecn ? 0.32 : -1}};
}

struct RunResult {
  double tput_mbps = 0;
  uint64_t timeouts = 0;
  uint64_t reports = 0;
};

/// One flow on the bottleneck for `secs` seconds.
RunResult run_ccp(const std::string& alg, double secs = 8.0, bool ecn = false) {
  EventQueue q;
  scenario::Network net(q, bottleneck(ecn), /*seed=*/1);
  SimCcpHost host(q, CcpHostConfig{});
  auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, alg);
  host.start(at_s(secs));
  TcpSenderConfig scfg;
  scfg.ecn_enabled = ecn;
  auto& snd = net.add_flow(scfg, &flow, TimePoint::epoch());
  q.run_until(at_s(secs));
  return {snd.delivered_bytes() * 8.0 / secs / 1e6, snd.stats().timeouts,
          flow.reports_sent()};
}

RunResult run_native(datapath::CcModule* cc, double secs = 8.0, bool ecn = false) {
  EventQueue q;
  scenario::Network net(q, bottleneck(ecn), /*seed=*/1);
  TcpSenderConfig scfg;
  scfg.ecn_enabled = ecn;
  auto& snd = net.add_flow(scfg, cc, TimePoint::epoch());
  q.run_until(at_s(secs));
  return {snd.delivered_bytes() * 8.0 / secs / 1e6, snd.stats().timeouts, 0};
}

TEST(Integration, CcpRenoMatchesNativeReno) {
  algorithms::native::NativeReno native(1460, 10 * 1460);
  const RunResult n = run_native(&native);
  const RunResult c = run_ccp("reno");
  EXPECT_GT(n.tput_mbps, 35.0);
  EXPECT_GT(c.tput_mbps, 35.0);
  // §3's claim: CCP preserves macroscopic behavior. Within 15%.
  EXPECT_NEAR(c.tput_mbps, n.tput_mbps, n.tput_mbps * 0.15);
}

TEST(Integration, CcpCubicMatchesNativeCubic) {
  algorithms::native::NativeCubic native(1460, 10 * 1460);
  const RunResult n = run_native(&native);
  const RunResult c = run_ccp("cubic");
  EXPECT_GT(n.tput_mbps, 30.0);
  EXPECT_GT(c.tput_mbps, 30.0);
  EXPECT_NEAR(c.tput_mbps, n.tput_mbps, n.tput_mbps * 0.25);
}

TEST(Integration, CcpVegasMatchesNativeVegas) {
  algorithms::native::NativeVegas native(1460, 10 * 1460);
  const RunResult n = run_native(&native);
  const RunResult c = run_ccp("vegas");
  // Vegas keeps the queue nearly empty; both variants should be loss-free
  // and in the same throughput regime.
  EXPECT_EQ(n.timeouts, 0u);
  EXPECT_EQ(c.timeouts, 0u);
  EXPECT_GT(c.tput_mbps, n.tput_mbps * 0.5);
  EXPECT_LT(c.tput_mbps, n.tput_mbps * 2.0);
}

TEST(Integration, CcpDctcpWithEcnIsLossFreeAndFast) {
  const RunResult c = run_ccp("dctcp", 8.0, /*ecn=*/true);
  EXPECT_GT(c.tput_mbps, 40.0);
  EXPECT_EQ(c.timeouts, 0u);
}

TEST(Integration, CcpBbrKeepsQueueEmpty) {
  EventQueue q;
  scenario::Network net(q, bottleneck(), /*seed=*/1);
  SimCcpHost host(q, CcpHostConfig{});
  auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "bbr");
  host.start(at_s(8));
  TcpSenderConfig scfg;
  scfg.record_rtt_samples = true;
  auto& snd = net.add_flow(scfg, &flow, TimePoint::epoch());
  q.run_until(at_s(8));
  EXPECT_GT(snd.delivered_bytes() * 8.0 / 8.0 / 1e6, 40.0);
  // BBR's signature: median RTT ~= base RTT (no standing queue).
  EXPECT_LT(snd.rtt_samples().quantile(0.5), 11500.0);  // us
}

TEST(Integration, ReportsArriveOncePerRttNotPerAck) {
  const double secs = 5.0;
  const RunResult c = run_ccp("reno", secs);
  // ~10 ms RTT (plus queueing) over 5 s => on the order of a few hundred
  // reports; per-ACK reporting would be tens of thousands (§2.3).
  EXPECT_GT(c.reports, 100u);
  EXPECT_LT(c.reports, 2000u);
}

TEST(Integration, TwoCcpFlowsShareFairly) {
  EventQueue q;
  scenario::Network net(q, bottleneck(), /*seed=*/1);
  SimCcpHost host(q, CcpHostConfig{});
  auto& f1 = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
  auto& f2 = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
  host.start(at_s(20));
  auto& s1 = net.add_flow(TcpSenderConfig{}, &f1, TimePoint::epoch());
  auto& s2 = net.add_flow(TcpSenderConfig{}, &f2, TimePoint::epoch());
  q.run_until(at_s(20));
  const double t1 = s1.delivered_bytes() * 8.0 / 20 / 1e6;
  const double t2 = s2.delivered_bytes() * 8.0 / 20 / 1e6;
  EXPECT_GT(t1 + t2, 40.0);  // link well utilized
  // Jain fairness for two flows.
  const double jain = (t1 + t2) * (t1 + t2) / (2.0 * (t1 * t1 + t2 * t2));
  EXPECT_GT(jain, 0.9);
}

TEST(Integration, MixedCcpAndNativeCoexist) {
  EventQueue q;
  scenario::Network net(q, bottleneck(), /*seed=*/1);
  SimCcpHost host(q, CcpHostConfig{});
  auto& ccp_flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
  algorithms::native::NativeReno native(1460, 10 * 1460);
  host.start(at_s(20));
  auto& s1 = net.add_flow(TcpSenderConfig{}, &ccp_flow, TimePoint::epoch());
  auto& s2 = net.add_flow(TcpSenderConfig{}, &native, TimePoint::epoch());
  q.run_until(at_s(20));
  const double t1 = s1.delivered_bytes() * 8.0 / 20 / 1e6;
  const double t2 = s2.delivered_bytes() * 8.0 / 20 / 1e6;
  // Neither starves: the CCP flow competes on equal terms (§3 Figure 4's
  // premise).
  EXPECT_GT(t1, 10.0);
  EXPECT_GT(t2, 10.0);
}

TEST(Integration, DifferentAlgorithmsPerFlowOnOneHost) {
  // §2: "it is possible to run multiple algorithms on the same host".
  EventQueue q;
  scenario::Network net(q, bottleneck(), /*seed=*/1);
  SimCcpHost host(q, CcpHostConfig{});
  auto& f1 = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "cubic");
  auto& f2 = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "bbr");
  host.start(at_s(10));
  auto& s1 = net.add_flow(TcpSenderConfig{}, &f1, TimePoint::epoch());
  auto& s2 = net.add_flow(TcpSenderConfig{}, &f2, TimePoint::epoch());
  q.run_until(at_s(10));
  EXPECT_GT(s1.delivered_bytes(), 0u);
  EXPECT_GT(s2.delivered_bytes(), 0u);
  EXPECT_EQ(host.agent().stats().flows_created, 2u);
}

TEST(Integration, AgentPolicyCapsRate) {
  // Host policy (§2): per-connection maximum transmission rate.
  EventQueue q;
  scenario::Network net(q, bottleneck(), /*seed=*/1);
  CcpHostConfig hcfg;
  hcfg.agent.policy.max_cwnd_bytes = 20 * 1460.0;  // ~23 Mbit/s at 10 ms
  SimCcpHost host(q, hcfg);
  auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
  host.start(at_s(8));
  auto& snd = net.add_flow(TcpSenderConfig{}, &flow, TimePoint::epoch());
  q.run_until(at_s(8));
  const double tput = snd.delivered_bytes() * 8.0 / 8 / 1e6;
  EXPECT_LT(tput, 30.0);  // visibly capped below the 50 Mbit/s link
  EXPECT_EQ(snd.stats().timeouts, 0u);
}

TEST(Integration, IpcDelaySensitivity) {
  // §5 "Could CCP work at low RTTs?": higher IPC delay must not break
  // the control loop on WAN-ish RTTs.
  for (int delay_us : {5, 50, 500}) {
    EventQueue q;
    scenario::Network net(q, bottleneck(), /*seed=*/1);
    CcpHostConfig hcfg;
    hcfg.ipc_delay = Duration::from_micros(delay_us);
    SimCcpHost host(q, hcfg);
    auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
    host.start(at_s(6));
    auto& snd = net.add_flow(TcpSenderConfig{}, &flow, TimePoint::epoch());
    q.run_until(at_s(6));
    EXPECT_GT(snd.delivered_bytes() * 8.0 / 6 / 1e6, 30.0) << delay_us << "us";
  }
}

TEST(Integration, FlowCloseCleansUpBothSides) {
  EventQueue q;
  SimCcpHost host(q, CcpHostConfig{});
  auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
  host.start(at_s(1));
  q.run_until(at_s(0.1));
  EXPECT_EQ(host.agent().num_flows(), 1u);
  host.datapath().close_flow(flow.id(), q.now());
  q.run_until(at_s(0.2));
  EXPECT_EQ(host.datapath().num_flows(), 0u);
  EXPECT_EQ(host.agent().num_flows(), 0u);
}

TEST(Integration, DeterministicWithFixedSeed) {
  auto run_once = [] {
    EventQueue q;
    scenario::Network net(q, bottleneck(), /*seed=*/1);
    CcpHostConfig hcfg;
    hcfg.seed = 7;
    SimCcpHost host(q, hcfg);
    auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "cubic");
    host.start(at_s(3));
    auto& snd = net.add_flow(TcpSenderConfig{}, &flow, TimePoint::epoch());
    q.run_until(at_s(3));
    return std::make_pair(snd.delivered_bytes(), flow.reports_sent());
  };
  EXPECT_EQ(run_once(), run_once());
}

}  // namespace
}  // namespace ccp::sim
