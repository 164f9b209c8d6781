// In-datapath Vegas: per-ACK queue estimation, mirroring the Linux
// tcp_vegas module's structure (the paper notes its vector-mode CCP
// listing "is similar to the Linux implementation").
#pragma once

#include <algorithm>

#include "algorithms/native/native_common.hpp"

namespace ccp::algorithms::native {

class NativeVegas final : public NativeCcBase {
 public:
  NativeVegas(uint32_t mss, uint64_t init_cwnd_bytes, double alpha = 2.0,
              double beta = 4.0)
      : NativeCcBase(mss, init_cwnd_bytes), alpha_(alpha), beta_(beta) {}

  void on_ack(const datapath::AckEvent& ev) override {
    if (!ev.has_rtt_sample() || ev.newly_lost_packets > 0) return;
    const double rtt_us = static_cast<double>(ev.rtt_sample.micros());
    base_rtt_us_ = std::min(base_rtt_us_, rtt_us);
    // Like tcp_vegas.c: evaluate the queue estimate and move the window
    // by at most one segment once per RTT (one cwnd of acked bytes).
    window_acked_ += static_cast<double>(ev.bytes_acked);
    const double in_queue =
        (rtt_us - base_rtt_us_) * (cwnd_ / mss_) / base_rtt_us_;
    if (in_queue < alpha_) ++delta_;
    else if (in_queue > beta_) --delta_;
    if (window_acked_ >= cwnd_) {
      if (delta_ > 0) cwnd_ += mss_;
      else if (delta_ < 0) cwnd_ -= mss_;
      window_acked_ = 0;
      delta_ = 0;
      cwnd_ = std::max(cwnd_, 2.0 * mss_);
    }
  }

  void on_loss(const datapath::LossEvent&) override {
    if (in_recovery_) return;
    in_recovery_ = true;
    cwnd_ = std::max(cwnd_ / 2.0, 2.0 * mss_);
  }

  void on_timeout(const datapath::TimeoutEvent&) override {
    cwnd_ = std::max(cwnd_ / 2.0, 2.0 * mss_);
    in_recovery_ = false;
  }

  double base_rtt_us() const { return base_rtt_us_; }

 private:
  double alpha_;
  double beta_;
  double base_rtt_us_ = 1e9;
  double window_acked_ = 0;
  int delta_ = 0;
};

}  // namespace ccp::algorithms::native
