// The paper's §3 prototype datapath, as a second independent datapath
// implementation:
//
//   "Our datapath implementation currently does not support user-defined
//    measurements, user specification of urgent messages, or either
//    event vectors or general fold functions. Rather, the prototype
//    datapath reports only the most recent ACK and an EWMA-filtered RTT,
//    sending rate, and receiving rate."
//
// It cannot run programs: Install messages are counted and dropped, and
// CreateMsg announces supports_programs = false, so the agent translates
// algorithm decisions into per-report DirectControl commands instead
// (§2.1: "it is also possible to support programs purely by issuing
// commands from the CCP each RTT").
//
// Having two datapaths behind one agent is the "write once, run
// everywhere" claim made executable: the same algorithm objects drive
// both (see bench_datapath_capability and the integration tests).
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "datapath/cc_module.hpp"
#include "datapath/datapath.hpp"  // DatapathConfig
#include "datapath/flow.hpp"      // FlowConfig, MessageSink
#include "ipc/wire.hpp"
#include "util/ewma.hpp"
#include "util/flat_map.hpp"
#include "util/rate_estimator.hpp"
#include "util/time.hpp"

namespace ccp::datapath {

class PrototypeDatapath;

/// One flow on the prototype datapath. Fixed measurement set, fixed
/// per-RTT report cadence, enforcement only via direct cwnd/rate.
class PrototypeFlow final : public CcModule {
 public:
  PrototypeFlow(ipc::FlowId id, FlowConfig config, MessageSink sink);

  // Inline: the prototype's whole per-ACK fold is a dozen scalar updates;
  // keeping it in the header lets the stack's ACK loop absorb it without
  // a call. Estimator windows are retuned at report time (maybe_report),
  // not here — the horizon tracks srtt at control cadence, and per-ACK
  // double->Duration conversions were a measurable slice of the budget.
  void on_ack(const AckEvent& ev) override {
    if (cwnd_target_bytes_ > cwnd_bytes_) {
      // Same smooth-increase discipline as the full datapath.
      cwnd_bytes_ = std::min(cwnd_target_bytes_, cwnd_bytes_ + ev.bytes_acked);
    }
    if (ev.has_rtt_sample()) {
      const double rtt_us = static_cast<double>(ev.rtt_sample.micros());
      srtt_us_.update(rtt_us);
      min_rtt_us_ = std::min(min_rtt_us_, rtt_us);
    }
    rcv_rate_.on_bytes(
        ev.bytes_delivered > 0 ? ev.bytes_delivered : ev.bytes_acked, ev.now);
    acked_ += static_cast<double>(ev.bytes_acked);
    acked_pkts_ += ev.packets_acked;
    if (ev.ecn) marked_ += ev.packets_acked;
    loss_ += ev.newly_lost_packets;
    inflight_ = static_cast<double>(ev.bytes_in_flight);
    ++acks_since_report_;
    if (ev.newly_lost_packets > 0 && !urgent_since_report_) emit_loss_urgent();
    maybe_report(ev.now);
  }
  void on_loss(const LossEvent& ev) override;
  void on_timeout(const TimeoutEvent& ev) override;
  // Inline: runs per sent packet and is just the estimator's ring write.
  void on_send(const SendEvent& ev) override { snd_rate_.on_bytes(ev.bytes, ev.now); }
  void tick(TimePoint now) override;

  uint64_t cwnd_bytes() const override { return cwnd_bytes_; }
  double pacing_rate_bps() const override { return rate_bps_; }

  void direct_control(const ipc::DirectControlMsg& msg);

  ipc::FlowId id() const { return id_; }
  uint64_t reports_sent() const { return report_seq_; }
  Duration srtt() const {
    return Duration::from_nanos(static_cast<int64_t>(srtt_us_.value() * 1000));
  }

 private:
  /// Fast path inline: in steady state this is one branch per ACK.
  void maybe_report(TimePoint now) {
    if (next_report_ != TimePoint{} && now < next_report_) return;
    maybe_report_slow(now);
  }
  void maybe_report_slow(TimePoint now);
  void emit_report(TimePoint now);
  void emit_loss_urgent();

  ipc::FlowId id_;
  FlowConfig config_;
  MessageSink sink_;

  uint64_t cwnd_bytes_;
  uint64_t cwnd_target_bytes_;
  double rate_bps_ = 0;

  Ewma srtt_us_{0.125};
  double min_rtt_us_ = 1e9;
  RateEstimator snd_rate_;
  RateEstimator rcv_rate_;

  // Counters since the last report (the fixed "fold").
  double acked_ = 0;
  double acked_pkts_ = 0;
  double marked_ = 0;
  double loss_ = 0;
  double timeout_ = 0;
  double inflight_ = 0;

  TimePoint next_report_{};
  uint64_t report_seq_ = 0;
  uint32_t acks_since_report_ = 0;
  bool urgent_since_report_ = false;

  // Reusable outgoing messages (see CcpFlow): reports and urgents mutate
  // these in place so the per-report path allocates nothing.
  ipc::Message report_msg_{ipc::MeasurementMsg{}};
  ipc::Message urgent_msg_{ipc::UrgentMsg{}};
};

/// Container + agent-facing framing for prototype flows.
class PrototypeDatapath {
 public:
  /// Outgoing-frame callback; bytes are borrowed (copy to keep).
  using FrameTx = std::function<void(std::span<const uint8_t>)>;

  PrototypeDatapath(DatapathConfig config, FrameTx tx);

  PrototypeFlow& create_flow(const FlowConfig& cfg, const std::string& alg_hint,
                             TimePoint now);
  void close_flow(ipc::FlowId id, TimePoint now);
  /// Per-packet demux; inline so the per-ACK lookup is one probe
  /// sequence with no call overhead.
  PrototypeFlow* flow(ipc::FlowId id) {
    auto* slot = flows_.find(id);
    return slot == nullptr ? nullptr : slot->get();
  }

  /// Accepts DirectControl; counts and drops Install/UpdateFields
  /// (unsupported by this datapath).
  void handle_frame(std::span<const uint8_t> frame, TimePoint now);
  void tick(TimePoint now);

  uint64_t unsupported_msgs() const { return unsupported_msgs_; }
  size_t num_flows() const { return flows_.size(); }

 private:
  void send(const ipc::Message& msg);

  DatapathConfig config_;
  FrameTx tx_;
  util::FlatMap<ipc::FlowId, std::unique_ptr<PrototypeFlow>> flows_;
  ipc::FlowId next_flow_id_ = 1;
  uint64_t unsupported_msgs_ = 0;
  ipc::Encoder send_enc_;                // reused per outgoing frame
  std::vector<ipc::Message> rx_scratch_; // reused per incoming frame
  bool rx_busy_ = false;
};

}  // namespace ccp::datapath
