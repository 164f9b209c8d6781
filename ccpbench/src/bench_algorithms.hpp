// Algorithms the benchmark registers with the agent beside the built-in
// registry, and the thin timing wrapper the traced run puts around every
// algorithm instance.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>

#include "agent/algorithm.hpp"
#include "harness.hpp"

namespace ccpbench {

// churn1m: folds per ACK but reports far beyond any run's virtual horizon
// — the cadence of a mostly idle million-connection set, so the work left
// is demux, fold, create/close and the agent's Create -> Install path.
// Same text as bench_hotpath's million-flow section.
inline constexpr const char* kChurnProgram =
    "fold { acked := acked + Pkt.bytes_acked init 0;\n"
    "       rtt := ewma(rtt, Pkt.rtt, 0.125) init 0; }\n"
    "control { WaitRtts(100000.0); Report(); }";

// heavy64_loss: the arithmetic-dense BBR/Copa-style fold of bench_hotpath
// (chained filters, a division, a square root, derived scores) with the
// loss counter made volatile and urgent, so lossy ACKs raise immediate
// urgents beside the per-RTT batched reports.
inline constexpr const char* kHeavyProgram = R"(
fold {
  volatile acked := acked + Pkt.bytes_acked                  init 0;
  rtt     := ewma(rtt, Pkt.rtt, 0.125)                        init 0;
  rttvar  := ewma(rttvar, abs(Pkt.rtt - rtt), 0.25)           init 0;
  minrtt  := if(Pkt.rtt > 0, min(minrtt, Pkt.rtt), minrtt)    init 1e9;
  maxrate := max(maxrate, Pkt.rcv_rate)                       init 0;
  bw      := ewma(bw, Pkt.bytes_acked / max(Pkt.rtt, 1), 0.25) init 0;
  volatile loss := loss + Pkt.lost                            init 0 urgent;
  pace    := sqrt(bw * max(rtt - minrtt, 0) + 1)              init 0;
  util    := if(maxrate > 0, Pkt.snd_rate / maxrate, 0)       init 0;
  score   := 0.8 * score + 0.2 * (bw / max(rtt, 1))           init 0;
}
control { Cwnd($cwnd); WaitRtts(1.0); Report(); }
)";

/// Installs kChurnProgram and never answers a report.
class ChurnAlgorithm final : public ccp::agent::Algorithm {
 public:
  std::string_view name() const override { return "bench_churn"; }
  ccp::agent::AlgorithmTraits traits() const override {
    return {{"RTT"}, {"CWND"}};
  }
  void init(ccp::agent::FlowControl& flow) override {
    flow.install_text(kChurnProgram, {});
  }
  void on_measurement(ccp::agent::FlowControl&,
                      const ccp::agent::Measurement&) override {}
  void on_urgent(ccp::agent::FlowControl&, ccp::ipc::UrgentKind,
                 const ccp::agent::Measurement&) override {}
};

/// Runs kHeavyProgram: every report steers cwnd toward a bandwidth-delay
/// estimate, every loss urgent halves it — one UpdateFields per event.
class HeavyAlgorithm final : public ccp::agent::Algorithm {
 public:
  explicit HeavyAlgorithm(const ccp::agent::FlowInfo& info)
      : mss_(info.mss),
        cwnd_(static_cast<double>(info.init_cwnd_bytes > 0
                                      ? info.init_cwnd_bytes
                                      : 10 * info.mss)) {}
  std::string_view name() const override { return "bench_heavy"; }
  ccp::agent::AlgorithmTraits traits() const override {
    return {{"RTT", "Rate", "Loss"}, {"CWND"}};
  }
  void init(ccp::agent::FlowControl& flow) override {
    const std::pair<std::string, double> vars[] = {{"cwnd", cwnd_}};
    flow.install_text(kHeavyProgram, vars);
  }
  void on_measurement(ccp::agent::FlowControl& flow,
                      const ccp::agent::Measurement& m) override {
    // bw is bytes per µs, minrtt µs: their product is a BDP in bytes.
    const double bdp = m.get("bw") * std::min(m.get("minrtt"), 1e7);
    cwnd_ = std::max(0.75 * cwnd_ + 0.5 * bdp, 4.0 * mss_);
    push(flow);
  }
  void on_urgent(ccp::agent::FlowControl& flow, ccp::ipc::UrgentKind,
                 const ccp::agent::Measurement&) override {
    cwnd_ = std::max(cwnd_ / 2.0, 2.0 * mss_);
    push(flow);
  }

 private:
  void push(ccp::agent::FlowControl& flow) {
    const std::pair<std::string, double> vars[] = {{"cwnd", cwnd_}};
    flow.update_fields(vars);
  }
  double mss_;
  double cwnd_;
};

/// Agent-thread trace accumulators. Only the agent thread writes them;
/// the datapath thread reads them after the agent loop has stopped.
struct AgentTrace {
  uint64_t tx_child = 0;  // ticks inside the agent's FrameTx so far
  Span handle;            // CcpAgent::handle_frame, minus tx children
  Span send;              // the agent's FrameTx body
  Span on_measurement;    // Algorithm::on_measurement, minus tx children
  Span on_urgent;         // Algorithm::on_urgent, minus tx children
  uint64_t busy = 0;      // ticks inside the frame handler, children included
};

/// Times on_measurement/on_urgent of the wrapped instance from outside
/// the algorithm layer; everything else passes straight through.
class TimedAlgorithm final : public ccp::agent::Algorithm {
 public:
  TimedAlgorithm(std::unique_ptr<ccp::agent::Algorithm> inner, AgentTrace* tr)
      : inner_(std::move(inner)), tr_(tr) {}
  std::string_view name() const override { return inner_->name(); }
  ccp::agent::AlgorithmTraits traits() const override {
    return inner_->traits();
  }
  void init(ccp::agent::FlowControl& flow) override { inner_->init(flow); }
  void on_measurement(ccp::agent::FlowControl& flow,
                      const ccp::agent::Measurement& m) override {
    const uint64_t child0 = tr_->tx_child;
    const uint64_t t0 = prof_cycles();
    inner_->on_measurement(flow, m);
    tr_->on_measurement.add(prof_cycles() - t0 - (tr_->tx_child - child0));
  }
  void on_urgent(ccp::agent::FlowControl& flow, ccp::ipc::UrgentKind kind,
                 const ccp::agent::Measurement& m) override {
    const uint64_t child0 = tr_->tx_child;
    const uint64_t t0 = prof_cycles();
    inner_->on_urgent(flow, kind, m);
    tr_->on_urgent.add(prof_cycles() - t0 - (tr_->tx_child - child0));
  }

 private:
  std::unique_ptr<ccp::agent::Algorithm> inner_;
  AgentTrace* tr_;
};

}  // namespace ccpbench
