// Reproduces Figure 4: "Comparison of the reactivity of a CCP-based
// NewReno implementation and the Linux kernel implementation."
//
// Paper setup: a 60-second NewReno flow starts at t=0; at t=20 s a second
// flow of the same type joins. Both implementations should show the same
// convergence dynamics: the first flow cedes roughly half the link within
// a few seconds and the two flows share fairly thereafter.
#include <cstdio>
#include <cstring>
#include <map>

#include "algorithms/native/native_reno.hpp"
#include "bench/bench_common.hpp"
#include "bench/bench_json.hpp"
#include "scenario/topology.hpp"
#include "sim/ccp_host.hpp"
#include "sim/trace.hpp"
#include "util/series.hpp"

namespace {

using namespace ccp;
using namespace ccp::sim;

constexpr double kRateBps = 1e9;
constexpr double kDurationSecs = 60.0;
constexpr double kSecondFlowStart = 20.0;
const Duration kRtt = Duration::from_millis(10);

struct RunOutput {
  // Per-second goodput of each flow, Mbit/s.
  std::vector<double> tput1, tput2;
  double converge_secs = -1;  // time after t=20 s until within 25% of fair share
  double jain_last20 = 0;
  std::vector<util::FlowSummaryRow> flows;  // scorecard-schema rows
};

RunOutput run(bool use_ccp, uint64_t seed) {
  EventQueue q;
  scenario::Network net(q, {{.rate_bps = kRateBps, .delay = kRtt / 2}}, seed);
  const TimePoint end = TimePoint::epoch() + Duration::from_secs_f(kDurationSecs);

  algorithms::native::NativeReno native1(1460, 10 * 1460);
  algorithms::native::NativeReno native2(1460, 10 * 1460);
  std::unique_ptr<SimCcpHost> host;
  datapath::CcModule* cc1 = &native1;
  datapath::CcModule* cc2 = &native2;
  if (use_ccp) {
    CcpHostConfig host_cfg;
    host_cfg.seed = seed;
    host = std::make_unique<SimCcpHost>(q, host_cfg);
    cc1 = &host->create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
    cc2 = &host->create_flow(datapath::FlowConfig{1460, 10 * 1460}, "reno");
    host->start(end);
  }

  TcpSenderConfig scfg;
  scfg.record_rtt_samples = true;
  auto& s1 = net.add_flow(scfg, cc1, TimePoint::epoch());
  auto& s2 = net.add_flow(scfg, cc2,
                          TimePoint::epoch() + Duration::from_secs_f(kSecondFlowStart));

  RunOutput out;
  uint64_t last1 = 0, last2 = 0;
  for (int sec = 1; sec <= static_cast<int>(kDurationSecs); ++sec) {
    q.run_until(TimePoint::epoch() + Duration::from_secs(sec));
    out.tput1.push_back((s1.delivered_bytes() - last1) * 8.0 / 1e6);
    out.tput2.push_back((s2.delivered_bytes() - last2) * 8.0 / 1e6);
    last1 = s1.delivered_bytes();
    last2 = s2.delivered_bytes();
  }

  // Convergence time: first second after the join where flow 2 reaches
  // 75% of its fair share (half the link).
  const double fair = kRateBps / 2e6;
  for (size_t i = static_cast<size_t>(kSecondFlowStart); i < out.tput2.size(); ++i) {
    if (out.tput2[i] >= 0.75 * fair) {
      out.converge_secs = static_cast<double>(i + 1) - kSecondFlowStart;
      break;
    }
  }
  // Jain fairness over the final 20 seconds.
  double sum1 = 0, sum2 = 0;
  for (size_t i = 40; i < out.tput1.size(); ++i) {
    sum1 += out.tput1[i];
    sum2 += out.tput2[i];
  }
  out.jain_last20 = util::jain_index({sum1, sum2});

  const double total_mbps =
      (s1.delivered_bytes() + s2.delivered_bytes()) * 8.0 / 1e6;
  auto flow_row = [&](TcpSender& snd, const char* name,
                      double active_secs) {
    util::FlowSummaryRow row;
    row.name = name;
    row.throughput_mbps = snd.delivered_bytes() * 8.0 / active_secs / 1e6;
    row.share =
        total_mbps > 0 ? snd.delivered_bytes() * 8.0 / 1e6 / total_mbps : 0;
    row.retransmits = static_cast<double>(snd.stats().retransmits);
    row.timeouts = static_cast<double>(snd.stats().timeouts);
    row.rtt_p50_ms = snd.rtt_samples().quantile(0.5) / 1000.0;
    row.rtt_p95_ms = snd.rtt_samples().quantile(0.95) / 1000.0;
    return row;
  };
  out.flows.push_back(flow_row(s1, "flow1", kDurationSecs));
  out.flows.push_back(flow_row(s2, "flow2", kDurationSecs - kSecondFlowStart));
  return out;
}

void print_series(const char* name, const RunOutput& out) {
  std::printf("\nper-second goodput, %s (Mbit/s; 2 s grid):\n", name);
  // Samples are per-second ending at t = 1, 2, ...; decimate to the 2 s grid.
  std::map<std::string, std::vector<util::SeriesPoint>> series;
  auto full1 = util::make_series(out.tput1, 1.0, 1.0);
  auto full2 = util::make_series(out.tput2, 1.0, 1.0);
  for (size_t i = 1; i < full1.size(); i += 2) {
    series["flow1_mbps"].push_back(full1[i]);
    series["flow2_mbps"].push_back(full2[i]);
  }
  util::write_series_csv(stdout, series);
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    }
  }

  bench::banner("Figure 4 (reproduction)",
                "NewReno reactivity: competing flow joins at t=20 s");
  std::printf("workload: 1 Gbit/s bottleneck, 10 ms RTT, 1 BDP buffer, 60 s;\n"
              "flow 2 starts at t=20 s; seed %llu\n",
              static_cast<unsigned long long>(seed));

  const RunOutput native = run(/*use_ccp=*/false, seed);
  const RunOutput ccp = run(/*use_ccp=*/true, seed);

  bench::section("summary (paper: 'Both implementations exhibit similar "
                 "convergence dynamics')");
  std::printf("%-22s %22s %20s\n", "implementation", "convergence time (s)",
              "Jain index (40-60 s)");
  std::printf("%-22s %22.0f %20.3f\n", "native newreno (Linux)",
              native.converge_secs, native.jain_last20);
  std::printf("%-22s %22.0f %20.3f\n", "CCP newreno", ccp.converge_secs,
              ccp.jain_last20);

  print_series("native newreno (Fig 4b)", native);
  print_series("CCP newreno (Fig 4a)", ccp);

  bench::section("per-flow scorecard rows (native, then CCP)");
  std::vector<util::FlowSummaryRow> rows = native.flows;
  rows.insert(rows.end(), ccp.flows.begin(), ccp.flows.end());
  rows[0].name = "native/flow1";
  rows[1].name = "native/flow2";
  rows[2].name = "ccp/flow1";
  rows[3].name = "ccp/flow2";
  util::write_flow_summary_csv(stdout, rows);

  bench::update_json_section(
      bench::bench_json_path(), "fig4_convergence",
      {{"native_converge_secs", bench::json_num(native.converge_secs)},
       {"native_jain_last20", bench::json_num(native.jain_last20)},
       {"native_retransmits",
        bench::json_num(native.flows[0].retransmits + native.flows[1].retransmits)},
       {"ccp_converge_secs", bench::json_num(ccp.converge_secs)},
       {"ccp_jain_last20", bench::json_num(ccp.jain_last20)},
       {"ccp_retransmits",
        bench::json_num(ccp.flows[0].retransmits + ccp.flows[1].retransmits)},
       {"native_flow2_mbps",
        bench::json_series(util::make_series(native.tput2, 1.0, 1.0))},
       {"ccp_flow2_mbps",
        bench::json_series(util::make_series(ccp.tput2, 1.0, 1.0))}});
  return 0;
}
