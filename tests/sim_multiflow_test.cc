// Multi-flow behavioral and invariant tests: fairness at scale,
// conservation, ECN under contention, RTT unfairness shape, and
// determinism with many interacting components.
#include <gtest/gtest.h>

#include <numeric>

#include "algorithms/native/native_dctcp.hpp"
#include "algorithms/native/native_reno.hpp"
#include "scenario/topology.hpp"
#include "sim/ccp_host.hpp"

namespace ccp::sim {
namespace {

TimePoint at_s(double s) { return TimePoint::epoch() + Duration::from_secs_f(s); }

/// One bottleneck with a 10 ms base RTT.
std::vector<scenario::LinkSpec> link(double rate_bps, double buffer_bdp = 1.0,
                                     double ecn_threshold_bdp = -1) {
  return {{.rate_bps = rate_bps,
           .delay = Duration::from_millis(5),
           .buffer_bdp = buffer_bdp,
           .ecn_threshold_bdp = ecn_threshold_bdp}};
}

double jain(const std::vector<double>& xs) {
  double sum = 0, sq = 0;
  for (double x : xs) {
    sum += x;
    sq += x * x;
  }
  return sum * sum / (static_cast<double>(xs.size()) * sq);
}

TEST(MultiFlow, EightCcpRenoFlowsShareFairly) {
  EventQueue q;
  scenario::Network net(q, link(80e6), /*seed=*/1);
  SimCcpHost host(q, CcpHostConfig{});
  std::vector<TcpSender*> senders;
  for (int i = 0; i < 8; ++i) {
    auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
    senders.push_back(&net.add_flow(TcpSenderConfig{}, &flow, TimePoint::epoch()));
  }
  host.start(at_s(30));
  q.run_until(at_s(30));

  std::vector<double> tputs;
  double total = 0;
  for (auto* snd : senders) {
    tputs.push_back(snd->delivered_bytes() * 8.0 / 30 / 1e6);
    total += tputs.back();
  }
  EXPECT_GT(total, 60.0);        // >75% utilization with 8 flows
  EXPECT_GT(jain(tputs), 0.85);  // near-fair
}

TEST(MultiFlow, ConservationOfBytes) {
  // What the receiver holds never exceeds what the sender transmitted,
  // and everything cumulatively acked was genuinely received.
  EventQueue q;
  scenario::Network net(q, link(20e6, 0.5), /*seed=*/1);
  SimCcpHost host(q, CcpHostConfig{});
  std::vector<TcpSender*> senders;
  for (int i = 0; i < 3; ++i) {
    auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "cubic");
    senders.push_back(&net.add_flow(TcpSenderConfig{}, &flow, TimePoint::epoch()));
  }
  host.start(at_s(10));
  q.run_until(at_s(10));
  for (int i = 0; i < 3; ++i) {
    EXPECT_LE(net.receiver(i).received_bytes(), senders[i]->sent_bytes());
    EXPECT_LE(senders[i]->delivered_bytes(), net.receiver(i).received_bytes());
    EXPECT_GT(senders[i]->delivered_bytes(), 0u);
  }
}

TEST(MultiFlow, DctcpEcnKeepsQueueShortUnderContention) {
  EventQueue q;
  // ECN threshold at ~0.15 BDP: DCTCP flows should hold the queue there.
  scenario::Network net(q, link(50e6, 2.0, 0.15), /*seed=*/1);
  SimCcpHost host(q, CcpHostConfig{});
  std::vector<TcpSender*> senders;
  for (int i = 0; i < 4; ++i) {
    auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "dctcp");
    TcpSenderConfig scfg;
    scfg.ecn_enabled = true;
    scfg.record_rtt_samples = true;
    senders.push_back(&net.add_flow(scfg, &flow, TimePoint::epoch()));
  }
  host.start(at_s(15));
  q.run_until(at_s(15));

  double total = 0;
  for (auto* snd : senders) total += snd->delivered_bytes() * 8.0 / 15 / 1e6;
  EXPECT_GT(total, 35.0);  // well-utilized
  EXPECT_GT(net.hop(0).stats().marked_pkts, 0u);
  // The whole point of DCTCP: losses stay rare because ECN acts first.
  uint64_t timeouts = 0;
  for (auto* snd : senders) timeouts += snd->stats().timeouts;
  EXPECT_EQ(timeouts, 0u);
  // Median RTT stays near base: the 2-BDP buffer is never filled.
  EXPECT_LT(senders[0]->rtt_samples().quantile(0.5), 13000.0);
}

TEST(MultiFlow, LateJoinerGetsItsShare) {
  EventQueue q;
  scenario::Network net(q, link(50e6), /*seed=*/1);
  SimCcpHost host(q, CcpHostConfig{});
  auto& f1 = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
  auto& f2 = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
  auto& s1 = net.add_flow(TcpSenderConfig{}, &f1, TimePoint::epoch());
  auto& s2 = net.add_flow(TcpSenderConfig{}, &f2, at_s(10));
  host.start(at_s(30));
  q.run_until(at_s(30));
  // Measure only the contended window (last 15 s).
  // (delivered_bytes is cumulative; approximate by overall averages.)
  const double t1 = s1.delivered_bytes() * 8.0 / 30 / 1e6;
  const double t2 = s2.delivered_bytes() * 8.0 / 20 / 1e6;
  EXPECT_GT(t2, t1 * 0.3);  // the joiner is not starved
}

TEST(MultiFlow, ManyFlowsDeterministic) {
  auto run_once = [] {
    EventQueue q;
    scenario::Network net(q, link(50e6), /*seed=*/1);
    CcpHostConfig hcfg;
    hcfg.seed = 1234;
    SimCcpHost host(q, hcfg);
    std::vector<TcpSender*> senders;
    const char* algs[] = {"reno", "cubic", "bbr", "vegas"};
    for (int i = 0; i < 4; ++i) {
      auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, algs[i]);
      senders.push_back(
          &net.add_flow(TcpSenderConfig{}, &flow, at_s(0.5 * i)));
    }
    host.start(at_s(10));
    q.run_until(at_s(10));
    std::vector<uint64_t> out;
    for (auto* snd : senders) out.push_back(snd->delivered_bytes());
    return out;
  };
  EXPECT_EQ(run_once(), run_once());
}

TEST(MultiFlow, NativeAndCcpDctcpCoexistOnEcn) {
  EventQueue q;
  scenario::Network net(q, link(50e6, 2.0, 0.2), /*seed=*/1);
  SimCcpHost host(q, CcpHostConfig{});
  auto& ccp_flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "dctcp");
  algorithms::native::NativeDctcp native(1460, 10 * 1460);
  TcpSenderConfig scfg;
  scfg.ecn_enabled = true;
  auto& s1 = net.add_flow(scfg, &ccp_flow, TimePoint::epoch());
  auto& s2 = net.add_flow(scfg, &native, TimePoint::epoch());
  host.start(at_s(15));
  q.run_until(at_s(15));
  const double t1 = s1.delivered_bytes() * 8.0 / 15 / 1e6;
  const double t2 = s2.delivered_bytes() * 8.0 / 15 / 1e6;
  EXPECT_GT(t1, 10.0);
  EXPECT_GT(t2, 10.0);
  EXPECT_NEAR(t1, t2, std::max(t1, t2) * 0.5);
}

}  // namespace
}  // namespace ccp::sim
