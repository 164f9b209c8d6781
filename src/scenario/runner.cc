#include "scenario/runner.hpp"

#include <algorithm>
#include <memory>

#include "algorithms/native/make_native.hpp"
#include "scenario/coupled.hpp"
#include "scenario/topology.hpp"
#include "sim/ccp_host.hpp"

namespace ccp::scenario {

namespace {

constexpr uint32_t kMss = 1460;
constexpr uint64_t kInitCwnd = 10 * kMss;

struct FlowRecord {
  const FlowGroupSpec* group = nullptr;
  sim::TcpSender* sender = nullptr;
  double start_secs = 0;
  double stop_secs = 0;  // active-window end (scenario end if no stop)
  uint64_t last_sampled_bytes = 0;
  std::vector<util::SeriesPoint> tput_mbps;
};

/// Per-sample Jain over flows active across the whole sample ending at
/// `t`; flows outside their active window are excluded, not zero-scored.
double sample_jain(const std::vector<FlowRecord>& flows, double t,
                   double interval, size_t sample_idx) {
  std::vector<double> active;
  for (const FlowRecord& f : flows) {
    if (f.start_secs > t - interval + 1e-9 || f.stop_secs < t - 1e-9) continue;
    if (sample_idx < f.tput_mbps.size()) {
      active.push_back(f.tput_mbps[sample_idx].value);
    }
  }
  return active.size() < 2 ? 1.0 : util::jain_index(active);
}

}  // namespace

Scorecard run_scenario(const ScenarioSpec& spec) {
  spec.validate();

  sim::EventQueue events;
  // The network forks its per-hop loss streams from a seed decorrelated
  // from the host's IPC-jitter stream (both descend from spec.seed).
  Network net(events, spec.links, spec.seed ^ 0xda3e39cb94b95bdbULL);

  sim::CcpHostConfig host_cfg;
  host_cfg.ipc_delay = spec.ipc_delay;
  host_cfg.seed = spec.seed;
  sim::SimCcpHost host(events, host_cfg);

  const TimePoint end =
      TimePoint::epoch() + Duration::from_secs_f(spec.duration_secs);

  std::vector<std::unique_ptr<datapath::CcModule>> owned_ccs;
  std::vector<FlowRecord> flows;

  for (const FlowGroupSpec& group : spec.groups) {
    for (uint32_t i = 0; i < group.count; ++i) {
      datapath::CcModule* cc;
      if (group.alg.rfind("native:", 0) == 0) {
        owned_ccs.push_back(algorithms::native::make_native(
            group.alg.substr(7), kMss, kInitCwnd));
        cc = owned_ccs.back().get();
      } else {
        cc = &host.create_flow(datapath::FlowConfig{kMss, kInitCwnd}, group.alg);
      }
      if (group.coupled_subflows > 1) {
        owned_ccs.push_back(
            std::make_unique<CoupledCc>(cc, group.coupled_subflows, 2 * kMss));
        cc = owned_ccs.back().get();
      }

      const double start_secs = group.start_secs + i * group.stagger_secs;
      const double stop_secs =
          group.stop_secs >= 0 ? std::min(group.stop_secs, spec.duration_secs)
                               : spec.duration_secs;

      sim::TcpSenderConfig scfg;
      scfg.record_rtt_samples = true;
      scfg.ecn_enabled = group.ecn;

      Path path;
      if (spec.topology == Topology::kParkingLot) {
        path.first = group.hop_first;
        path.last = group.hop_last;
      }
      path.extra_rtt = group.extra_rtt + group.rtt_step * static_cast<double>(i);

      sim::TcpSender& sender = net.add_flow(
          scfg, cc, TimePoint::epoch() + Duration::from_secs_f(start_secs),
          path);
      if (group.stop_secs >= 0 && stop_secs < spec.duration_secs) {
        events.schedule_at(
            TimePoint::epoch() + Duration::from_secs_f(stop_secs),
            [&sender] { sender.stop(); });
      }

      FlowRecord rec;
      rec.group = &group;
      rec.sender = &sender;
      rec.start_secs = start_secs;
      rec.stop_secs = stop_secs;
      flows.push_back(std::move(rec));
    }
  }

  // Goodput sampling on the scorecard grid.
  const Duration interval = Duration::from_secs_f(spec.sample_interval_secs);
  std::function<void()> sample = [&] {
    const double t = events.now().secs();
    for (FlowRecord& f : flows) {
      const uint64_t bytes = f.sender->delivered_bytes();
      const double mbps =
          (bytes - f.last_sampled_bytes) * 8.0 / spec.sample_interval_secs / 1e6;
      f.last_sampled_bytes = bytes;
      f.tput_mbps.push_back({t, mbps});
    }
    if (events.now() + interval <= end) events.schedule(interval, sample);
  };
  events.schedule(interval, sample);

  host.start(end);
  events.run_until(end);

  // ---- distill the scorecard ----
  Scorecard card;
  card.scenario = spec.name;
  card.seed = spec.seed;
  card.duration_secs = spec.duration_secs;

  double aggregate = 0;
  std::vector<double> tputs;
  for (size_t i = 0; i < flows.size(); ++i) {
    const FlowRecord& rec = flows[i];
    FlowScore score;
    score.group = rec.group->name;
    score.alg = rec.group->alg;
    score.flow = static_cast<uint32_t>(i);
    score.start_secs = rec.start_secs;
    score.stop_secs = rec.stop_secs;
    const double window = std::max(rec.stop_secs - rec.start_secs, 1e-9);
    score.throughput_mbps = rec.sender->delivered_bytes() * 8.0 / window / 1e6;
    score.retransmits = rec.sender->stats().retransmits;
    score.timeouts = rec.sender->stats().timeouts;
    const auto& rtts = rec.sender->rtt_samples();  // stored in microseconds
    if (!rtts.empty()) {
      const double base_ms = net.base_rtt(i).secs() * 1e3;
      score.rtt_p50_ms = rtts.quantile(0.5) / 1e3;
      score.rtt_p95_ms = rtts.quantile(0.95) / 1e3;
      // Queueing delay is RTT shifted by the path's fixed base RTT, so
      // its percentiles are the RTT percentiles minus the base.
      score.qdelay_p50_ms = std::max(0.0, score.rtt_p50_ms - base_ms);
      score.qdelay_p95_ms = std::max(0.0, score.rtt_p95_ms - base_ms);
    }
    score.tput_mbps = rec.tput_mbps;
    aggregate += score.throughput_mbps;
    tputs.push_back(score.throughput_mbps);
    card.total_retransmits += score.retransmits;
    card.total_timeouts += score.timeouts;
    card.flows.push_back(std::move(score));
  }
  card.aggregate_mbps = aggregate;
  for (FlowScore& f : card.flows) {
    f.share = aggregate > 0 ? f.throughput_mbps / aggregate : 0;
  }
  card.jain = util::jain_index(tputs);

  // Convergence: Jain >= threshold held for kConvergenceHold samples,
  // scanning from the last group start.
  double last_start = 0;
  for (const FlowRecord& f : flows) last_start = std::max(last_start, f.start_secs);
  const size_t num_samples = flows.empty() ? 0 : flows[0].tput_mbps.size();
  int held = 0;
  for (size_t s = 0; s < num_samples; ++s) {
    const double t = flows[0].tput_mbps[s].t_secs;
    if (t < last_start + spec.sample_interval_secs) continue;
    if (sample_jain(flows, t, spec.sample_interval_secs, s) >= kConvergenceJain) {
      if (++held == kConvergenceHold) {
        card.convergence_secs =
            flows[0].tput_mbps[s + 1 - kConvergenceHold].t_secs - last_start;
        break;
      }
    } else {
      held = 0;
    }
  }

  for (size_t i = 0; i < net.num_hops(); ++i) {
    const sim::LinkStats& stats = net.hop(i).stats();
    HopScore hop;
    hop.hop = i;
    const double mean_rate =
        net.hop(i).mean_rate_bps(Duration::from_secs_f(spec.duration_secs));
    hop.utilization =
        stats.delivered_bytes * 8.0 / (mean_rate * spec.duration_secs);
    hop.delivered_pkts = stats.delivered_pkts;
    hop.tail_drops = stats.dropped_pkts;
    hop.random_drops = stats.random_dropped_pkts;
    hop.ecn_marks = stats.marked_pkts;
    hop.max_queue_pkts = stats.max_queue_bytes / 1500.0;
    card.hops.push_back(hop);
  }
  return card;
}

}  // namespace ccp::scenario
