#include "algorithms/native/native_cubic.hpp"

#include <cmath>

namespace ccp::algorithms::native {

void NativeCubic::on_ack(const datapath::AckEvent& ev) {
  if (ev.has_rtt_sample()) {
    srtt_ = srtt_.is_zero()
                ? ev.rtt_sample
                : Duration::from_nanos(srtt_.nanos() +
                                       (ev.rtt_sample - srtt_).nanos() / 8);
  }
  if (ev.newly_lost_packets > 0 || ev.bytes_acked == 0) return;
  in_recovery_ = false;
  const double acked = static_cast<double>(ev.bytes_acked);
  const double acked_pkts = acked / mss_;

  if (cwnd_ < ssthresh_) {
    cwnd_ += acked;
    if (cwnd_ > ssthresh_) cwnd_ = ssthresh_;
    return;
  }

  const double cwnd_pkts = cwnd_ / mss_;
  if (!epoch_valid_) {
    epoch_valid_ = true;
    epoch_start_ = ev.now;
    if (w_last_max_pkts_ <= 0) w_last_max_pkts_ = cwnd_pkts;
    k_ = std::cbrt(std::max(0.0, (w_last_max_pkts_ - cwnd_pkts) / kC));
    w_est_pkts_ = cwnd_pkts;
  }

  const double t = (ev.now - epoch_start_ + srtt_).secs();
  double target = w_last_max_pkts_ + kC * std::pow(t - k_, 3.0);

  // TCP-friendly region.
  w_est_pkts_ +=
      0.5 * 3.0 * (1.0 - kBeta) / (1.0 + kBeta) * acked_pkts / cwnd_pkts;
  target = std::max(target, w_est_pkts_);

  if (target > cwnd_pkts) {
    // Linux: cwnd grows toward target over one RTT => per-ACK step is
    // (target - cwnd)/cwnd packets per acked packet.
    cwnd_ += (target - cwnd_pkts) / cwnd_pkts * acked_pkts * mss_;
  } else {
    cwnd_ += 0.01 * acked_pkts / cwnd_pkts * mss_;  // above curve: crawl
  }
}

void NativeCubic::on_loss(const datapath::LossEvent&) {
  if (in_recovery_) return;
  in_recovery_ = true;
  epoch_valid_ = false;
  const double cwnd_pkts = cwnd_ / mss_;
  if (cwnd_pkts < w_last_max_pkts_) {
    w_last_max_pkts_ = cwnd_pkts * (2.0 - kBeta) / 2.0;  // fast convergence
  } else {
    w_last_max_pkts_ = cwnd_pkts;
  }
  cwnd_ = std::max(cwnd_ * kBeta, 2.0 * mss_);
  ssthresh_ = cwnd_;
}

void NativeCubic::on_timeout(const datapath::TimeoutEvent&) {
  ssthresh_ = std::max(cwnd_ * kBeta, 2.0 * mss_);
  cwnd_ = mss_;
  epoch_valid_ = false;
  w_last_max_pkts_ = 0;
  in_recovery_ = false;
}

}  // namespace ccp::algorithms::native
