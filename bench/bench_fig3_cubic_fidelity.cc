// Reproduces Figure 3: "Comparison of window dynamics of a CCP-based
// Cubic implementation and the Linux kernel implementation", plus the
// §3 summary metrics (utilization and median RTT).
//
// Paper setup: 1 Gbit/s link, 10 ms RTT, 1 BDP of buffer. The paper
// reports Linux achieving 94.4% utilization / 15.8 ms median RTT vs
// CCP's 95.4% / 16.1 ms, with matching microscopic window evolution.
//
// Substitution: the Linux kernel baseline is our in-datapath NativeCubic
// (same cubic function, per-ACK execution); the network is simulated
// with identical parameters.
#include <cstdio>
#include <cstring>
#include <map>

#include "algorithms/native/native_cubic.hpp"
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
constexpr double kDurationSecs = 40.0;
const Duration kRtt = Duration::from_millis(10);

struct RunOutput {
  std::vector<TracePoint> cwnd;
  double utilization = 0;
  double median_rtt_ms = 0;
  uint64_t loss_events = 0;
  util::FlowSummaryRow summary;  // scorecard-schema per-flow row
};

RunOutput run(bool use_ccp, uint64_t seed) {
  EventQueue q;
  scenario::Network net(q, {{.rate_bps = kRateBps, .delay = kRtt / 2}}, seed);
  const TimePoint end = TimePoint::epoch() + Duration::from_secs_f(kDurationSecs);

  TcpSenderConfig scfg;
  scfg.record_rtt_samples = true;

  Tracer tracer(q);
  RunOutput out;

  // Measure utilization after the 2s startup transient, like the paper's
  // steady-state figures.
  const TimePoint measure_from = TimePoint::epoch() + Duration::from_secs(2);

  auto finish = [&](TcpSender& snd, const char* name) {
    q.run_until(measure_from);
    const uint64_t from_bytes = net.hop(0).stats().delivered_bytes;
    q.run_until(end);
    // Wire bytes through the bottleneck, so this can slightly exceed
    // payload goodput.
    out.utilization = (net.hop(0).stats().delivered_bytes - from_bytes) * 8.0 /
                      (kRateBps * (end - measure_from).secs());
    out.median_rtt_ms = snd.rtt_samples().quantile(0.5) / 1000.0;
    out.loss_events = snd.stats().loss_events;
    out.summary.name = name;
    out.summary.throughput_mbps =
        snd.delivered_bytes() * 8.0 / kDurationSecs / 1e6;
    out.summary.share = 1.0;  // single flow per run
    out.summary.retransmits = static_cast<double>(snd.stats().retransmits);
    out.summary.timeouts = static_cast<double>(snd.stats().timeouts);
    out.summary.rtt_p50_ms = out.median_rtt_ms;
    out.summary.rtt_p95_ms = snd.rtt_samples().quantile(0.95) / 1000.0;
  };

  if (use_ccp) {
    CcpHostConfig host_cfg;
    host_cfg.seed = seed;
    SimCcpHost host(q, host_cfg);
    auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, "cubic");
    host.start(end);
    auto& snd = net.add_flow(scfg, &flow, TimePoint::epoch());
    tracer.sample_every("cwnd", Duration::from_millis(50), end,
                        [&flow] { return flow.cwnd_bytes() / 1460.0; });
    finish(snd, "ccp_cubic");
  } else {
    algorithms::native::NativeCubic cubic(1460, 10 * 1460);
    auto& snd = net.add_flow(scfg, &cubic, TimePoint::epoch());
    tracer.sample_every("cwnd", Duration::from_millis(50), end,
                        [&cubic] { return cubic.cwnd_bytes() / 1460.0; });
    finish(snd, "native_cubic");
  }
  out.cwnd = tracer.series("cwnd");
  return out;
}

/// Every 10th sample: the 50 ms trace decimated to the 0.5 s figure grid.
std::vector<TracePoint> decimate(const std::vector<TracePoint>& series) {
  std::vector<TracePoint> out;
  for (size_t i = 0; i < series.size(); i += 10) out.push_back(series[i]);
  return out;
}

void print_series(const char* name, const std::vector<TracePoint>& series) {
  std::printf("\ncwnd evolution, %s (cwnd_pkts; 0.5 s grid):\n", name);
  const std::map<std::string, std::vector<TracePoint>> columns{
      {"cwnd_pkts", decimate(series)}};
  util::write_series_csv(stdout, columns);
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 42;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--seed") == 0 && i + 1 < argc) {
      seed = std::stoull(argv[++i]);
    }
  }

  bench::banner("Figure 3 (reproduction)",
                "Cubic window dynamics: CCP vs in-datapath ('Linux') baseline");
  std::printf("workload: 1 Gbit/s bottleneck, 10 ms RTT, 1 BDP buffer, "
              "%.0f s flow; seed %llu\n", kDurationSecs,
              static_cast<unsigned long long>(seed));

  const RunOutput native = run(/*use_ccp=*/false, seed);
  const RunOutput ccp = run(/*use_ccp=*/true, seed);

  bench::section("summary (paper: Linux 94.4% util / 15.8 ms; CCP 95.4% / 16.1 ms)");
  std::printf("%-22s %12s %16s %12s\n", "implementation", "utilization",
              "median RTT (ms)", "loss events");
  std::printf("%-22s %11.1f%% %16.2f %12llu\n", "native cubic (Linux)",
              native.utilization * 100.0, native.median_rtt_ms,
              static_cast<unsigned long long>(native.loss_events));
  std::printf("%-22s %11.1f%% %16.2f %12llu\n", "CCP cubic",
              ccp.utilization * 100.0, ccp.median_rtt_ms,
              static_cast<unsigned long long>(ccp.loss_events));

  print_series("native cubic (Linux baseline, Fig 3b)", native.cwnd);
  print_series("CCP cubic (Fig 3a)", ccp.cwnd);

  bench::section("per-flow scorecard rows");
  util::write_flow_summary_csv(stdout, {native.summary, ccp.summary});

  bench::update_json_section(
      bench::bench_json_path(), "fig3_cubic_fidelity",
      {{"native_utilization", bench::json_num(native.utilization)},
       {"native_median_rtt_ms", bench::json_num(native.median_rtt_ms)},
       {"native_retransmits", bench::json_num(native.summary.retransmits)},
       {"ccp_utilization", bench::json_num(ccp.utilization)},
       {"ccp_median_rtt_ms", bench::json_num(ccp.median_rtt_ms)},
       {"ccp_retransmits", bench::json_num(ccp.summary.retransmits)},
       {"native_cwnd_pkts", bench::json_series(decimate(native.cwnd))},
       {"ccp_cwnd_pkts", bench::json_series(decimate(ccp.cwnd))}});
  return 0;
}
