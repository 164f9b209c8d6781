// Events the host stack (our simulator's TCP sender, or any other
// datapath integration) feeds into a CCP flow.
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace ccp::datapath {

/// One incoming acknowledgment, after the stack has processed it.
struct AckEvent {
  TimePoint now;
  uint64_t bytes_acked = 0;     // newly cumulatively acked
  /// Bytes newly known delivered to the receiver, counting SACKed data
  /// when it is SACKed (not when the cumulative ACK later covers it).
  /// This is what delivery-rate estimation must use: a recovery
  /// cum-ACK "delivers" a burst of long-since-received bytes. Zero means
  /// "same as bytes_acked" (convenience for hand-built events in tests).
  uint64_t bytes_delivered = 0;
  uint32_t packets_acked = 0;
  Duration rtt_sample = Duration::zero();  // <= 0 if no valid sample (e.g. rexmit)
  bool ecn = false;             // ACK echoed an ECN mark
  uint32_t newly_lost_packets = 0;  // marked lost by dupack logic on this ACK
  uint64_t bytes_in_flight = 0;     // after this ACK
  uint32_t packets_in_flight = 0;
  uint64_t bytes_pending = 0;       // app data queued but unsent

  /// Zero and negative samples are both "no sample", as in ccp-kernel's
  /// rate_sample_valid: a negative RTT must never reach srtt or Pkt.rtt.
  bool has_rtt_sample() const { return rtt_sample.nanos() > 0; }
};

/// Loss declared via fast retransmit (triple duplicate ACK).
struct LossEvent {
  TimePoint now;
  uint32_t lost_packets = 1;
  uint64_t bytes_in_flight = 0;
};

/// Retransmission timeout fired.
struct TimeoutEvent {
  TimePoint now;
};

/// Outgoing data notification (feeds the sending-rate estimator).
struct SendEvent {
  TimePoint now;
  uint64_t bytes = 0;
};

/// How the cross-flow batch runner (datapath/ack_batch.cc) executes one
/// lane's fold. The value is a pure function of the flow's install-time
/// latches (engine choice, vector mode), so CcpFlow caches it in its hot
/// block at every transition and the runner's per-ACK classification is
/// one byte load instead of a walk over the fold machine's flags.
enum class BatchExec : uint8_t {
  Simd,         // packed batch kernel over the group's SoA slice
  BatchInterp,  // scalar batch interpreter over the SoA slice
  PerLane,      // fold_.on_packet per lane (scalar JIT w/o kernel)
  Verify,       // batch engine on a shadow + authoritative scalar,
                // bitwise-compared per lane (CCP_JIT=Verify)
  Peel,         // full scalar on_ack at finish time
};

}  // namespace ccp::datapath
