// Aggregate congestion control for flow groups (§5 of the paper; compare
// the Congestion Manager in §4).
//
// A video-call host opens three flows — audio, video, and a screen
// share — toward the same remote site. Individually they would take
// three shares of the bottleneck from other traffic. Grouped in one
// AggregateGroup they compete as a single flow, while an internal 1:6:3
// weighting keeps audio small-but-protected and gives video the bulk.
#include <cstdio>

#include "agent/aggregate.hpp"
#include "algorithms/native/native_reno.hpp"
#include "scenario/topology.hpp"
#include "sim/ccp_host.hpp"
#include "util/units.hpp"

using namespace ccp;

int main() {
  sim::EventQueue events;
  scenario::Network net(
      events, {{.rate_bps = 40e6, .delay = Duration::from_millis(15)}},
      /*seed=*/1);
  sim::SimCcpHost host(events, sim::CcpHostConfig{});

  agent::AggregateGroup call_group;
  host.agent().register_algorithm("call_audio", call_group.member_factory(1.0));
  host.agent().register_algorithm("call_video", call_group.member_factory(6.0));
  host.agent().register_algorithm("call_screen", call_group.member_factory(3.0));

  const TimePoint end = TimePoint::epoch() + Duration::from_secs(30);
  host.start(end);

  datapath::FlowConfig fcfg;
  fcfg.mss = 1460;
  fcfg.init_cwnd_bytes = 10 * 1460;
  auto& audio = host.create_flow(fcfg, "call_audio");
  auto& video = host.create_flow(fcfg, "call_video");
  auto& screen = host.create_flow(fcfg, "call_screen");

  auto& audio_snd = net.add_flow(sim::TcpSenderConfig{}, &audio, TimePoint::epoch());
  auto& video_snd = net.add_flow(sim::TcpSenderConfig{}, &video, TimePoint::epoch());
  auto& screen_snd = net.add_flow(sim::TcpSenderConfig{}, &screen, TimePoint::epoch());

  // Somebody else's download shares the bottleneck.
  algorithms::native::NativeReno other(1460, 10 * 1460);
  auto& other_snd = net.add_flow(sim::TcpSenderConfig{}, &other, TimePoint::epoch());

  events.run_until(end);

  auto mbps = [](const sim::TcpSender& s) {
    return s.delivered_bytes() * 8.0 / 30 / 1e6;
  };
  const double group =
      mbps(audio_snd) + mbps(video_snd) + mbps(screen_snd);
  std::printf("call group vs a competing download (40 Mbit/s bottleneck, 30 s):\n\n");
  std::printf("  %-22s %6.1f Mbit/s (weight 1)\n", "audio", mbps(audio_snd));
  std::printf("  %-22s %6.1f Mbit/s (weight 6)\n", "video", mbps(video_snd));
  std::printf("  %-22s %6.1f Mbit/s (weight 3)\n", "screen share", mbps(screen_snd));
  std::printf("  %-22s %6.1f Mbit/s (= one fair share)\n", "group total", group);
  std::printf("  %-22s %6.1f Mbit/s\n\n", "competing download", mbps(other_snd));
  std::printf("the group's aggregate window: %.1f packets across %zu flows,\n"
              "%llu loss episodes handled once per episode for the whole group.\n",
              call_group.aggregate_cwnd_bytes() / 1460.0, call_group.num_members(),
              static_cast<unsigned long long>(call_group.loss_episodes()));
  return 0;
}
