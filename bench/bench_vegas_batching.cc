// Reproduces the §2.4 comparison: TCP Vegas implemented with a *vector
// of measurements* vs a *fold function over measurements*, run on the
// same simulated path. The paper's takeaway: vectors are more flexible
// but cost per-packet memory and shipping; folds use constant datapath
// state. We measure behavior (window trajectory, throughput) and the
// report-message bytes each approach moves across the IPC boundary.
#include <cstdio>

#include "bench/bench_common.hpp"
#include "scenario/topology.hpp"
#include "sim/ccp_host.hpp"
#include "sim/trace.hpp"

namespace {

using namespace ccp;
using namespace ccp::sim;

struct RunOutput {
  double tput_mbps = 0;
  double median_rtt_ms = 0;
  uint64_t report_msgs = 0;
  uint64_t report_bytes = 0;
  std::vector<TracePoint> cwnd;
};

RunOutput run(const std::string& alg) {
  EventQueue q;
  scenario::Network net(
      q, {{.rate_bps = 100e6, .delay = Duration::from_millis(5)}}, /*seed=*/1);
  const TimePoint end = TimePoint::epoch() + Duration::from_secs(20);
  SimCcpHost host(q, CcpHostConfig{});
  auto& flow = host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, alg);
  host.start(end);
  TcpSenderConfig scfg;
  scfg.record_rtt_samples = true;
  auto& snd = net.add_flow(scfg, &flow, TimePoint::epoch());
  Tracer tracer(q);
  tracer.sample_every("cwnd", Duration::from_millis(100), end,
                      [&flow] { return flow.cwnd_bytes() / 1460.0; });
  q.run_until(end);

  RunOutput out;
  out.tput_mbps = snd.delivered_bytes() * 8.0 / 20 / 1e6;
  out.median_rtt_ms = snd.rtt_samples().quantile(0.5) / 1000.0;
  out.report_msgs = flow.reports_sent();
  out.report_bytes = host.datapath().stats().bytes_sent;
  out.cwnd = tracer.series("cwnd");
  return out;
}

}  // namespace

int main() {
  bench::banner("§2.4 (reproduction)",
                "Vegas: vector-of-measurements vs fold-function batching");
  std::printf("workload: 100 Mbit/s bottleneck, 10 ms RTT, 1 BDP buffer, 20 s\n");

  const RunOutput fold = run("vegas");
  const RunOutput vec = run("vegas_vector");

  bench::section("behavior (must match: same algorithm, different batching)");
  std::printf("%-18s %12s %16s\n", "variant", "tput Mbit/s", "median RTT (ms)");
  std::printf("%-18s %12.1f %16.2f\n", "fold", fold.tput_mbps, fold.median_rtt_ms);
  std::printf("%-18s %12.1f %16.2f\n", "vector", vec.tput_mbps, vec.median_rtt_ms);

  bench::section("datapath -> agent traffic (the cost axis of §2.4)");
  std::printf("%-18s %10s %14s %16s\n", "variant", "reports", "total bytes",
              "bytes/report");
  std::printf("%-18s %10llu %14llu %16.1f\n", "fold",
              static_cast<unsigned long long>(fold.report_msgs),
              static_cast<unsigned long long>(fold.report_bytes),
              static_cast<double>(fold.report_bytes) / fold.report_msgs);
  std::printf("%-18s %10llu %14llu %16.1f\n", "vector",
              static_cast<unsigned long long>(vec.report_msgs),
              static_cast<unsigned long long>(vec.report_bytes),
              static_cast<double>(vec.report_bytes) / vec.report_msgs);
  std::printf("\nfold state is constant per flow; the vector grows with the\n"
              "per-RTT ACK count (~%.0fx more bytes here), which is the paper's\n"
              "trade-off: flexibility vs per-packet memory and shipping cost.\n",
              static_cast<double>(vec.report_bytes) / fold.report_bytes);

  bench::section("cwnd trajectories (t_secs pkts; 1 s grid)");
  std::printf("%8s %12s %12s\n", "t", "fold", "vector");
  for (size_t i = 0; i < fold.cwnd.size() && i < vec.cwnd.size(); i += 10) {
    std::printf("%8.1f %12.1f %12.1f\n", fold.cwnd[i].t_secs, fold.cwnd[i].value,
                vec.cwnd[i].value);
  }
  return 0;
}
