// Writing a new congestion control algorithm against the CCP API.
//
// This is the paper's "ease of programming" pitch (§2.2) made concrete:
// a complete delay-target algorithm — a miniature Copa/Vegas hybrid — in
// ~60 lines of ordinary user-space C++, with floating point, no kernel
// anywhere. It composes the three Table 3 handlers (init /
// on_measurement / on_urgent) with a datapath program written in the
// fluent builder API (§2.1's control language).
#include <algorithm>
#include <cstdio>

#include "lang/builder.hpp"
#include "scenario/topology.hpp"
#include "sim/ccp_host.hpp"
#include "util/units.hpp"

using namespace ccp;
using namespace ccp::lang;  // Expr, ProgramBuilder, v(), f(), pkt()

/// DelayTarget: keep the measured RTT within `target_ratio` of the
/// minimum RTT. MIMD on the window: multiplicative increase while under
/// target, multiplicative decrease when over.
class DelayTarget final : public agent::Algorithm {
 public:
  explicit DelayTarget(const agent::FlowInfo& info)
      : mss_(info.mss), cwnd_(static_cast<double>(info.init_cwnd_bytes)) {}

  std::string_view name() const override { return "delay_target"; }
  agent::AlgorithmTraits traits() const override { return {{"RTT"}, {"CWND"}}; }

  void init(agent::FlowControl& flow) override {
    // The datapath program: smooth the RTT, track the minimum, count
    // acked bytes, surface loss urgently, report once per RTT.
    Program p =
        ProgramBuilder()
            .def("srtt", Expr::c(0), ewma(f("srtt"), pkt(PktField::RttUs), 0.25))
            .def("minrtt", Expr::c(1e9),
                 if_(pkt(PktField::RttUs) > 0,
                     min(f("minrtt"), pkt(PktField::RttUs)), f("minrtt")))
            .def_counter("acked", f("acked") + pkt(PktField::BytesAcked))
            .def_counter("loss", f("loss") + pkt(PktField::LostPackets),
                         /*urgent=*/true)
            .cwnd(v("cwnd"))
            .wait_rtts(1.0)
            .report()
            .build();
    flow.install(p, std::vector<std::pair<std::string, double>>{{"cwnd", cwnd_}});
  }

  void on_measurement(agent::FlowControl& flow,
                      const agent::Measurement& m) override {
    const double srtt = m.get("srtt");
    const double minrtt = m.get("minrtt");
    if (srtt <= 0 || minrtt >= 1e9) return;
    if (srtt < kTargetRatio * minrtt) {
      cwnd_ *= 1.08;  // under the delay budget: claim more
    } else {
      cwnd_ *= 0.95;  // over budget: back off gently
    }
    cwnd_ = std::max(cwnd_, 2.0 * mss_);
    flow.update_fields(
        std::vector<std::pair<std::string, double>>{{"cwnd", cwnd_}});
  }

  void on_urgent(agent::FlowControl& flow, ipc::UrgentKind kind,
                 const agent::Measurement&) override {
    if (kind == ipc::UrgentKind::Loss || kind == ipc::UrgentKind::Timeout) {
      cwnd_ = std::max(cwnd_ / 2.0, 2.0 * mss_);
      flow.update_fields(
          std::vector<std::pair<std::string, double>>{{"cwnd", cwnd_}});
    }
  }

 private:
  static constexpr double kTargetRatio = 1.25;  // allow 25% queueing delay
  double mss_;
  double cwnd_;
};

int main() {
  sim::EventQueue events;
  scenario::Network net(events,
                        {{.rate_bps = 100e6,
                          .delay = Duration::from_millis(10),
                          .buffer_bdp = 2.0}},
                        /*seed=*/1);
  sim::SimCcpHost host(events, sim::CcpHostConfig{});

  // Register the new algorithm — this one line is the whole deployment
  // story ("write once, run everywhere": any CCP datapath can run it).
  host.agent().register_algorithm("delay_target", [](const agent::FlowInfo& info) {
    return std::make_unique<DelayTarget>(info);
  });

  auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460},
                                "delay_target");
  const TimePoint end = TimePoint::epoch() + Duration::from_secs(12);
  host.start(end);
  sim::TcpSenderConfig scfg;
  scfg.record_rtt_samples = true;
  auto& sender = net.add_flow(scfg, &flow, TimePoint::epoch());
  events.run_until(end);

  const double tput = sender.delivered_bytes() * 8.0 / 12.0;
  std::printf("delay_target on 100 Mbit/s, 20 ms RTT, 2 BDP buffer:\n");
  std::printf("  throughput:  %s (%.0f%% of link)\n",
              format_bandwidth(tput).c_str(), tput / 100e6 * 100);
  std::printf("  median RTT:  %.2f ms (target <= %.2f ms)\n",
              sender.rtt_samples().quantile(0.5) / 1000.0, 20.0 * 1.25);
  std::printf("  p95 RTT:     %.2f ms\n",
              sender.rtt_samples().quantile(0.95) / 1000.0);
  std::printf("  losses:      %llu\n",
              static_cast<unsigned long long>(sender.stats().loss_events));
  std::printf("\nThe algorithm never touched a packet: the datapath enforced\n"
              "the window and summarized ACKs; user-space only saw one report\n"
              "per RTT (%llu total).\n",
              static_cast<unsigned long long>(flow.reports_sent()));
  return 0;
}
