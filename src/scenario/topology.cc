#include "scenario/topology.hpp"

#include "util/rng.hpp"

namespace ccp::scenario {

using sim::Packet;

Network::Network(sim::EventQueue& events, const std::vector<LinkSpec>& links,
                 uint64_t seed)
    : events_(events) {
  // Per-hop loss streams fork off one master seed in hop order, so the
  // whole network's impairments replay from a single number.
  Rng master(seed);
  hops_.reserve(links.size());
  for (size_t i = 0; i < links.size(); ++i) {
    const LinkSpec& ls = links[i];
    sim::LinkConfig cfg;
    cfg.rate_bps = ls.rate_bps;
    cfg.prop_delay = ls.delay;
    cfg.queue_capacity_bytes = ls.queue_capacity_bytes();
    if (ls.ecn_threshold_bdp >= 0) {
      const double bdp = ls.rate_bps / 8.0 * (2.0 * ls.delay.secs());
      cfg.ecn_threshold_bytes = static_cast<uint64_t>(bdp * ls.ecn_threshold_bdp);
    }
    cfg.random_loss = ls.random_loss;
    cfg.loss_seed = master.next_u64();
    cfg.rate_schedule = ls.rate_schedule;
    hop_delay_.push_back(ls.delay);
    hops_.push_back(std::make_unique<sim::Link>(
        events_, std::move(cfg),
        [this, i](Packet pkt) { route_from_hop(i, pkt); }));
  }
}

void Network::route_from_hop(size_t hop, Packet pkt) {
  const FlowState& flow = flows_[pkt.flow];
  if (hop < flow.path.last) {
    hops_[hop + 1]->enqueue(std::move(pkt));
  } else if (flow.receiver != nullptr) {
    flow.receiver->on_data(std::move(pkt));
  }
}

sim::TcpSender& Network::add_flow(const sim::TcpSenderConfig& scfg,
                                  datapath::CcModule* cc, TimePoint start,
                                  Path path) {
  const uint32_t flow_id = static_cast<uint32_t>(flows_.size());
  path.last = path.last < hops_.size() ? path.last : hops_.size() - 1;
  if (path.first > path.last) path.first = path.last;

  FlowState state;
  state.path = path;
  // Forward access pipe: half the extra RTT, then into the first hop.
  // It stays even when that half is zero. The zero-delay hop moves each
  // enqueue one event later at the same timestamp, and drop-tail outcomes
  // depend on that tie order: feeding the first hop directly changes all
  // six built-in scorecards and flips Library.RttUnfairnessFavorsShortRtt
  // and Library.ParkingLotLongFlowPaysMultiBottleneckToll
  // (docs/SCENARIOS.md, "Determinism").
  state.access = std::make_unique<sim::DelayPipe>(
      events_, path.extra_rtt / 2,
      [this, first = path.first](Packet pkt) { hops_[first]->enqueue(std::move(pkt)); });
  // Return pipe: the other half of the extra RTT plus the path's reverse
  // propagation (ACK path mirrors the forward propagation, no queueing).
  Duration reverse_delay = path.extra_rtt / 2;
  for (size_t i = path.first; i <= path.last; ++i) reverse_delay += hop_delay_[i];
  state.reverse = std::make_unique<sim::DelayPipe>(
      events_, reverse_delay, [this, flow_id](Packet pkt) {
        flows_[flow_id].sender->on_ack(std::move(pkt));
      });
  state.sender = std::make_unique<sim::TcpSender>(
      events_, flow_id, scfg, cc,
      [this, flow_id](Packet pkt) { flows_[flow_id].access->enqueue(std::move(pkt)); });
  state.receiver = std::make_unique<sim::TcpReceiver>(
      events_, flow_id, sim::TcpReceiverConfig{},
      [this, flow_id](Packet pkt) { flows_[flow_id].reverse->enqueue(std::move(pkt)); });

  flows_.push_back(std::move(state));
  sim::TcpSender& sender = *flows_.back().sender;
  events_.schedule_at(start < events_.now() ? events_.now() : start,
                      [&sender] { sender.start(); });
  return sender;
}

Duration Network::base_rtt(size_t flow) const {
  const Path& path = flows_[flow].path;
  Duration rtt = path.extra_rtt;
  for (size_t i = path.first; i <= path.last; ++i) {
    rtt += hop_delay_[i] * 2.0;
  }
  return rtt;
}

}  // namespace ccp::scenario
