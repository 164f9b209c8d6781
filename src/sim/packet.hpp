// The simulator's packet: enough TCP semantics for congestion control
// research (sequencing, cumulative ACKs, timestamp echo for RTT, ECN).
#pragma once

#include <cstdint>

#include "util/time.hpp"

namespace ccp::sim {

struct Packet {
  uint32_t flow = 0;        // flow id, indexes the network's flow table
  uint64_t uid = 0;         // unique per packet, for tracing

  // Data direction.
  uint64_t seq = 0;         // first byte carried
  uint32_t len = 0;         // payload bytes (0 for pure ACK)
  bool retransmit = false;

  // ACK direction.
  bool is_ack = false;
  uint64_t ack_seq = 0;     // next byte expected (cumulative)

  // TCP timestamp option: data carries ts_val; the ACK echoes it.
  TimePoint ts_val{};
  TimePoint ts_echo{};

  // SACK option: up to kMaxSackBlocks [start, end) ranges received above
  // the cumulative ACK. Linux enables SACK by default; recovery fidelity
  // in Figures 3-4 depends on it (cumulative-only NewReno repairs one
  // hole per RTT, which is not what the paper's kernel baseline does).
  static constexpr size_t kMaxSackBlocks = 4;
  uint8_t num_sacks = 0;
  uint64_t sack_start[kMaxSackBlocks] = {};
  uint64_t sack_end[kMaxSackBlocks] = {};

  // ECN (RFC 3168): data sent ECT; queue may set CE; receiver echoes ECE.
  bool ect = false;
  bool ce = false;
  bool ece = false;

  uint32_t header_bytes = 40;  // IP + TCP headers for wire accounting

  uint32_t wire_bytes() const { return len + header_bytes; }
};

}  // namespace ccp::sim
