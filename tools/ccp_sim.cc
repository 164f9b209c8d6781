// ccp_sim — command-line experiment driver.
//
// Runs N flows over a single bottleneck with per-flow congestion control
// (any registered CCP algorithm, or native:<reno|cubic|vegas|dctcp>
// baselines), and emits either a human summary or CSV time series for
// plotting.
//
// Examples:
//   ccp_sim --rate 1Gbps --rtt 10ms --buffer 1.0 --time 30
//           --flow cubic --flow native:cubic
//   ccp_sim --rate 50Mbps --rtt 20ms --flow bbr --flow reno@5 --csv cwnd
//   ccp_sim --list
//
// Flow syntax: <alg>[@start_secs]. CSV series: cwnd | tput | queue.
#include <cstdio>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/native/make_native.hpp"
#include "algorithms/registry.hpp"
#include "scenario/topology.hpp"
#include "sim/ccp_host.hpp"
#include "sim/trace.hpp"
#include "telemetry/stats_server.hpp"
#include "telemetry/telemetry.hpp"
#include "telemetry/trace_export.hpp"
#include "util/series.hpp"
#include "util/units.hpp"

namespace {

using namespace ccp;
using namespace ccp::sim;

struct FlowSpec {
  std::string alg;
  double start_secs = 0;
  bool native = false;
};

struct Options {
  double rate_bps = 100e6;
  Duration rtt = Duration::from_millis(10);
  double buffer_bdp = 1.0;
  double ecn_threshold_bdp = -1;  // <0: ECN off
  double loss = 0.0;              // bottleneck random (non-congestive) loss
  double secs = 20;
  Duration ipc_delay = Duration::from_micros(15);
  std::vector<FlowSpec> flows;
  std::string csv;  // empty = human summary
  std::string stats_sock;  // empty = no stats server
  std::string trace_dump;  // empty = no dump at exit
  uint64_t seed = 42;
};

[[noreturn]] void usage(int code) {
  std::printf(R"(usage: ccp_sim [options] --flow <alg>[@start] [--flow ...]

options:
  --rate <bw>         bottleneck rate, e.g. 100Mbps, 1Gbps   [100Mbps]
  --rtt <dur>         base round-trip time, e.g. 10ms        [10ms]
  --buffer <bdp>      queue size in BDP units                [1.0]
  --ecn <bdp>         ECN marking threshold in BDP (enables ECN)
  --loss <p>          bottleneck random loss probability      [0]
  --time <secs>       simulated seconds                      [20]
  --ipc <dur>         simulated agent IPC delay              [15us]
  --seed <n>          RNG seed                               [42]
  --flow <spec>       algorithm name (repeatable); prefix "native:" for
                      in-datapath baselines; optional @start_secs
  --csv <series>      emit CSV instead of a summary: cwnd | tput | queue
  --stats <path>      serve live telemetry on a unix socket (see ccp_stats)
  --trace-dump <file> write trace + span rings at exit (for ccp_trace_export)
  --list              list available algorithms and exit
)");
  std::exit(code);
}

Options parse_args(int argc, char** argv) {
  Options opt;
  auto need_value = [&](int& i) -> const char* {
    if (i + 1 >= argc) usage(1);
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    try {
      if (std::strcmp(arg, "--rate") == 0) {
        opt.rate_bps = parse_bandwidth_bps(need_value(i));
      } else if (std::strcmp(arg, "--rtt") == 0) {
        opt.rtt = parse_duration(need_value(i));
      } else if (std::strcmp(arg, "--buffer") == 0) {
        opt.buffer_bdp = std::stod(need_value(i));
      } else if (std::strcmp(arg, "--ecn") == 0) {
        opt.ecn_threshold_bdp = std::stod(need_value(i));
      } else if (std::strcmp(arg, "--loss") == 0) {
        opt.loss = std::stod(need_value(i));
      } else if (std::strcmp(arg, "--time") == 0) {
        opt.secs = std::stod(need_value(i));
      } else if (std::strcmp(arg, "--ipc") == 0) {
        opt.ipc_delay = parse_duration(need_value(i));
      } else if (std::strcmp(arg, "--seed") == 0) {
        opt.seed = std::stoull(need_value(i));
      } else if (std::strcmp(arg, "--csv") == 0) {
        opt.csv = need_value(i);
      } else if (std::strcmp(arg, "--stats") == 0) {
        opt.stats_sock = need_value(i);
      } else if (std::strcmp(arg, "--trace-dump") == 0) {
        opt.trace_dump = need_value(i);
      } else if (std::strcmp(arg, "--flow") == 0) {
        std::string spec = need_value(i);
        FlowSpec flow;
        if (const auto at = spec.find('@'); at != std::string::npos) {
          flow.start_secs = std::stod(spec.substr(at + 1));
          spec = spec.substr(0, at);
        }
        if (spec.rfind("native:", 0) == 0) {
          flow.native = true;
          spec = spec.substr(7);
        }
        flow.alg = spec;
        opt.flows.push_back(flow);
      } else if (std::strcmp(arg, "--list") == 0) {
        std::printf("CCP algorithms:");
        for (const auto& name : algorithms::builtin_algorithm_names()) {
          std::printf(" %s", name.c_str());
        }
        std::printf("\nnative baselines: native:reno native:cubic native:vegas "
                    "native:dctcp\n");
        std::exit(0);
      } else if (std::strcmp(arg, "--help") == 0 || std::strcmp(arg, "-h") == 0) {
        usage(0);
      } else {
        std::fprintf(stderr, "unknown option: %s\n", arg);
        usage(1);
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "bad value for %s: %s\n", arg, e.what());
      std::exit(1);
    }
  }
  if (opt.flows.empty()) usage(1);
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  telemetry::init_from_env();
  std::unique_ptr<telemetry::StatsServer> stats_server;
  if (!opt.stats_sock.empty()) {
    stats_server = std::make_unique<telemetry::StatsServer>(opt.stats_sock);
    std::fprintf(stderr, "serving telemetry on %s (attach with ccp_stats)\n",
                 opt.stats_sock.c_str());
  }

  EventQueue events;
  // The loss stream is the first fork of --seed, so a run replays
  // bit-for-bit but is decorrelated from the host's IPC-jitter stream.
  scenario::Network net(events,
                        {{.rate_bps = opt.rate_bps,
                          .delay = opt.rtt / 2,
                          .buffer_bdp = opt.buffer_bdp,
                          .ecn_threshold_bdp = opt.ecn_threshold_bdp,
                          .random_loss = opt.loss}},
                        opt.seed);

  CcpHostConfig host_cfg;
  host_cfg.ipc_delay = opt.ipc_delay;
  host_cfg.seed = opt.seed;
  SimCcpHost host(events, host_cfg);

  const TimePoint end = TimePoint::epoch() + Duration::from_secs_f(opt.secs);
  host.start(end);

  std::vector<std::unique_ptr<datapath::CcModule>> natives;
  std::vector<datapath::CcModule*> ccs;
  std::vector<TcpSender*> senders;
  for (const auto& spec : opt.flows) {
    datapath::CcModule* cc;
    if (spec.native) {
      try {
        natives.push_back(
            algorithms::native::make_native(spec.alg, 1460, 10 * 1460));
      } catch (const std::invalid_argument& e) {
        std::fprintf(stderr, "%s\n", e.what());
        return 1;
      }
      cc = natives.back().get();
    } else {
      cc = &host.create_flow(datapath::FlowConfig{1460, 10 * 1460}, spec.alg);
    }
    ccs.push_back(cc);
    TcpSenderConfig scfg;
    scfg.record_rtt_samples = true;
    scfg.ecn_enabled = opt.ecn_threshold_bdp >= 0;
    senders.push_back(&net.add_flow(
        scfg, cc, TimePoint::epoch() + Duration::from_secs_f(spec.start_secs)));
  }

  Tracer tracer(events);
  if (!opt.csv.empty()) {
    for (size_t i = 0; i < ccs.size(); ++i) {
      if (opt.csv == "cwnd") {
        tracer.sample_every("f" + std::to_string(i), Duration::from_millis(50), end,
                            [cc = ccs[i]] { return cc->cwnd_bytes() / 1460.0; });
      } else if (opt.csv == "tput") {
        tracer.sample_every(
            "f" + std::to_string(i), Duration::from_millis(250), end,
            [snd = senders[i], last = uint64_t{0}]() mutable {
              const uint64_t now_bytes = snd->delivered_bytes();
              const double mbps = (now_bytes - last) * 8.0 / 0.25 / 1e6;
              last = now_bytes;
              return mbps;
            });
      } else if (opt.csv == "queue") {
        tracer.sample_every("queue", Duration::from_millis(50), end,
                            [&net] { return net.hop(0).queue_bytes() / 1500.0; });
      } else {
        std::fprintf(stderr, "unknown csv series: %s\n", opt.csv.c_str());
        return 1;
      }
    }
  }

  events.run_until(end);

  if (!opt.trace_dump.empty()) {
    if (!telemetry::write_current_trace_dump(opt.trace_dump)) {
      std::fprintf(stderr, "ccp_sim: cannot write trace dump %s\n",
                   opt.trace_dump.c_str());
      return 1;
    }
    std::fprintf(stderr, "wrote trace dump to %s (convert with "
                 "ccp_trace_export)\n",
                 opt.trace_dump.c_str());
  }

  if (!opt.csv.empty()) {
    tracer.write_csv(stdout);
    return 0;
  }

  std::printf("%-4s %-14s %-8s %12s %12s %10s %9s %8s\n", "id", "algorithm",
              "start", "goodput", "medianRTT", "p95RTT", "rexmits", "timeouts");
  for (size_t i = 0; i < senders.size(); ++i) {
    const auto& spec = opt.flows[i];
    const double active = opt.secs - spec.start_secs;
    std::printf("%-4zu %-14s %6.1fs %12s %10.2fms %8.2fms %9llu %8llu\n", i,
                (spec.native ? "native:" + spec.alg : spec.alg).c_str(),
                spec.start_secs,
                format_bandwidth(senders[i]->delivered_bytes() * 8.0 / active).c_str(),
                senders[i]->rtt_samples().quantile(0.5) / 1000.0,
                senders[i]->rtt_samples().quantile(0.95) / 1000.0,
                static_cast<unsigned long long>(senders[i]->stats().retransmits),
                static_cast<unsigned long long>(senders[i]->stats().timeouts));
  }
  const auto& link = net.hop(0).stats();
  std::printf("\nbottleneck: %llu pkts delivered, %llu dropped (%llu random), "
              "%llu ECN-marked, max queue %.1f pkts\n",
              static_cast<unsigned long long>(link.delivered_pkts),
              static_cast<unsigned long long>(link.dropped_pkts +
                                              link.random_dropped_pkts),
              static_cast<unsigned long long>(link.random_dropped_pkts),
              static_cast<unsigned long long>(link.marked_pkts),
              link.max_queue_bytes / 1500.0);
  return 0;
}
