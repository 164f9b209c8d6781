// End-to-end equivalence of the burst ACK intake.
//
// The contract (CcpDatapath::on_ack_batch): feeding a burst of ACKs
// through the burst intake produces the exact byte stream the scalar
// on_send/on_ack sequence produces in arrival order — same frames, same
// bytes — under every fold engine (JIT on, interpreter, Verify dual-run)
// and every flow state the intake meets mid-burst (repeated flows,
// unknown ids, an expiring watchdog, vector mode). The twin harness here
// drives two identically-configured datapaths with the same randomized
// workload, one per-ACK and one in bursts, and compares the captured
// frames byte for byte.
//
// Telemetry is disabled for the twin comparisons so emitted_ns/span_id
// are deterministic zeros.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <random>
#include <vector>

#include "datapath/datapath.hpp"
#include "datapath/flow.hpp"
#include "lang/jit/jit.hpp"
#include "telemetry/telemetry.hpp"

namespace ccp::datapath {
namespace {

using lang::jit::JitMode;

/// Arithmetic fold with an urgent register (so urgent emission is
/// exercised) and an install-time var.
constexpr const char* kPureProgram = R"(
fold {
  volatile acked := acked + Pkt.bytes_acked            init 0;
  rtt            := ewma(rtt, Pkt.rtt, 0.125)          init 0;
  minrtt         := if(Pkt.rtt > 0, min(minrtt, Pkt.rtt), minrtt) init 0x7fffffff;
  thr            := max(thr, Pkt.rcv_rate * $gain)     init 0;
  volatile loss  := loss + Pkt.lost                    init 0 urgent;
}
control {
  WaitRtts(1.0);
  Report();
}
)";

/// Same shape but with a pow() fold: the JIT lowers it through a libm
/// helper call.
constexpr const char* kLibmProgram = R"(
fold {
  volatile acked := acked + Pkt.bytes_acked  init 0;
  p              := pow(Pkt.rtt + 1, 0.5)    init 0;
  volatile loss  := loss + Pkt.lost          init 0 urgent;
}
control {
  WaitRtts(1.0);
  Report();
}
)";

struct TelemetryGuard {
  explicit TelemetryGuard(bool on) : saved(telemetry::enabled()) {
    telemetry::set_enabled(on);
  }
  ~TelemetryGuard() { telemetry::set_enabled(saved); }
  bool saved;
};

struct JitModeGuard {
  explicit JitModeGuard(JitMode m) : saved(lang::jit::mode()) {
    lang::jit::set_mode(m);
  }
  ~JitModeGuard() { lang::jit::set_mode(saved); }
  JitMode saved;
};

struct FrameLog {
  std::vector<std::vector<uint8_t>> frames;
  CcpDatapath::FrameTx tx() {
    return [this](std::span<const uint8_t> f) {
      frames.emplace_back(f.begin(), f.end());
    };
  }
};

TimePoint at_us(int64_t us) {
  return TimePoint::epoch() + Duration::from_micros(us);
}

ipc::InstallMsg install_msg(ipc::FlowId id, const char* text,
                            std::vector<std::string> names = {},
                            std::vector<double> values = {},
                            bool vector_mode = false) {
  ipc::InstallMsg msg;
  msg.flow_id = id;
  msg.program_text = text;
  msg.var_names = std::move(names);
  msg.var_values = std::move(values);
  msg.vector_mode = vector_mode;
  return msg;
}

/// Two identical datapaths: `scalar` is driven one ACK at a time,
/// `batch` through on_ack_batch. Any install/create applies to both.
struct Twin {
  FrameLog scalar_log, batch_log;
  CcpDatapath scalar{DatapathConfig{}, scalar_log.tx()};
  CcpDatapath batch{DatapathConfig{}, batch_log.tx()};

  void create(ipc::FlowId id, TimePoint now, double watchdog_rtts = 0) {
    FlowConfig cfg;
    cfg.mss = 1460;
    cfg.init_cwnd_bytes = 14600;
    cfg.min_cwnd_bytes = 2920;
    cfg.watchdog_rtts = watchdog_rtts;
    scalar.create_flow_with_id(id, cfg, "twin", now);
    batch.create_flow_with_id(id, cfg, "twin", now);
  }

  void install(const ipc::InstallMsg& msg, TimePoint now) {
    scalar.flow(msg.flow_id)->install(msg, now);
    batch.flow(msg.flow_id)->install(msg, now);
  }

  /// Replays one burst on both sides: the scalar side walks it in
  /// arrival order exactly as a per-ACK stack would.
  void drive(const std::vector<FlowAck>& burst) {
    for (const FlowAck& fa : burst) {
      CcpFlow* flow = scalar.flow(fa.flow_id);
      if (flow == nullptr) continue;
      if (fa.sent_bytes > 0) flow->on_send(SendEvent{fa.ev.now, fa.sent_bytes});
      flow->on_ack(fa.ev);
    }
    batch.on_ack_batch(burst);
  }

  void expect_equal_frames() {
    ASSERT_EQ(scalar_log.frames.size(), batch_log.frames.size());
    for (size_t i = 0; i < scalar_log.frames.size(); ++i) {
      ASSERT_EQ(scalar_log.frames[i], batch_log.frames[i])
          << "frame " << i << " diverged";
    }
  }
};

/// Randomized mixed workload: arithmetic flows, a libm flow, default
/// programs, a vector-mode flow, different var bindings on a shared
/// program, unknown ids, same-flow duplicates within one burst, bursts
/// longer than one 32-ACK intake chunk, losses and ECN marks to trip the
/// urgent registers.
void run_mixed_workload(uint64_t seed, int rounds) {
  Twin twin;
  const TimePoint t0 = at_us(1000);
  for (ipc::FlowId id = 1; id <= 7; ++id) twin.create(id, t0);
  twin.install(install_msg(1, kPureProgram, {"gain"}, {1.0}), t0);
  twin.install(install_msg(2, kPureProgram, {"gain"}, {1.0}), t0);
  twin.install(install_msg(3, kLibmProgram), t0);
  // Flow 4 and 7 keep the default program. Flow 5 runs vector mode.
  // Flow 6 shares kPureProgram with different vars.
  twin.install(install_msg(5, kPureProgram, {"gain"}, {1.0}, true), t0);
  twin.install(install_msg(6, kPureProgram, {"gain"}, {2.5}), t0);

  std::mt19937_64 rng(seed);
  int64_t us = 2000;
  for (int round = 0; round < rounds; ++round) {
    std::vector<FlowAck> burst;
    const size_t n = 1 + rng() % 80;  // spans <1 and >2 intake chunks
    for (size_t i = 0; i < n; ++i) {
      us += 1 + static_cast<int64_t>(rng() % 200);
      FlowAck fa;
      fa.flow_id = 1 + rng() % 8;  // id 8 does not exist: skipped
      fa.sent_bytes = (rng() % 3 == 0) ? 1460 * (1 + rng() % 4) : 0;
      fa.ev.now = at_us(us);
      fa.ev.bytes_acked = 1460 * (1 + rng() % 3);
      fa.ev.packets_acked = static_cast<uint32_t>(fa.ev.bytes_acked / 1460);
      fa.ev.rtt_sample = Duration::from_micros(8000 + rng() % 4000);
      fa.ev.ecn = rng() % 31 == 0;
      fa.ev.newly_lost_packets = rng() % 53 == 0 ? 1 : 0;
      fa.ev.bytes_in_flight = 14600 + rng() % 50000;
      fa.ev.packets_in_flight =
          static_cast<uint32_t>(fa.ev.bytes_in_flight / 1460);
      burst.push_back(fa);
    }
    twin.drive(burst);
  }
  twin.expect_equal_frames();
}

TEST(AckBatch, MatchesScalarPath_JitOn) {
  TelemetryGuard quiet(false);
  JitModeGuard jit(JitMode::On);
  run_mixed_workload(0xacce5501, 300);
}

TEST(AckBatch, MatchesScalarPath_Interpreter) {
  TelemetryGuard quiet(false);
  JitModeGuard jit(JitMode::Off);
  run_mixed_workload(0xacce5502, 300);
}

TEST(AckBatch, MatchesScalarPath_Verify) {
  TelemetryGuard quiet(false);
  JitModeGuard jit(JitMode::Verify);
  const uint64_t before = telemetry::metrics().jit_verify_mismatches.value();
  run_mixed_workload(0xacce5503, 200);
  // Both engines ran every ACK on both sides: they must agree bit for
  // bit.
  EXPECT_EQ(telemetry::metrics().jit_verify_mismatches.value(), before);
}

constexpr JitMode kEngines[] = {JitMode::On, JitMode::Off, JitMode::Verify};

FlowAck ack_at(ipc::FlowId id, int64_t us, int64_t rtt_us = 10000) {
  FlowAck fa;
  fa.flow_id = id;
  fa.ev.now = at_us(us);
  fa.ev.bytes_acked = 1460;
  fa.ev.packets_acked = 1;
  fa.ev.rtt_sample = Duration::from_micros(rtt_us);
  return fa;
}

// A repeat of a flow inside one intake chunk folds on top of the
// previous repeat's registers and emits after it.
TEST(AckBatch, SameFlowTwicePerBurstSplitsWaves) {
  TelemetryGuard quiet(false);
  for (const JitMode mode : kEngines) {
    JitModeGuard jit(mode);
    Twin twin;
    const TimePoint t0 = at_us(1000);
    twin.create(1, t0);
    twin.create(2, t0);
    twin.install(install_msg(1, kPureProgram, {"gain"}, {1.0}), t0);
    twin.install(install_msg(2, kPureProgram, {"gain"}, {1.0}), t0);
    // Flow 1 three times, interleaved with flow 2, then back to back.
    std::vector<FlowAck> burst;
    for (int i = 0; i < 3; ++i) {
      burst.push_back(ack_at(i == 1 ? 2u : 1u, 2000 + 100 * i, 9000 + 10 * i));
    }
    burst.push_back(burst[0]);
    burst.back().ev.now = at_us(2400);
    // Past one RTT, so the repeats of flow 1 also emit reports mid-chunk.
    burst.push_back(ack_at(1, 12000));
    burst.push_back(ack_at(1, 12100));
    twin.drive(burst);
    twin.expect_equal_frames();

    // Fold state must match too, not just emitted frames.
    const auto& a = twin.scalar.flow(1)->fold().state();
    const auto& b = twin.batch.flow(1)->fold().state();
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
      EXPECT_EQ(std::bit_cast<uint64_t>(a[i]), std::bit_cast<uint64_t>(b[i]))
          << "fold " << i;
    }
  }
}

TEST(AckBatch, UnknownFlowIdMidBurstIsSkipped) {
  TelemetryGuard quiet(false);
  for (const JitMode mode : kEngines) {
    JitModeGuard jit(mode);
    Twin twin;
    const TimePoint t0 = at_us(1000);
    twin.create(1, t0);
    twin.create(2, t0);
    twin.install(install_msg(1, kPureProgram, {"gain"}, {1.0}), t0);
    // Flow 99 never existed; flow 2 closes before the burst. Neither may
    // disturb the lanes around them.
    twin.scalar.close_flow(2, t0);
    twin.batch.close_flow(2, t0);
    std::vector<FlowAck> burst;
    int64_t us = 2000;
    for (int i = 0; i < 40; ++i) {
      const ipc::FlowId id = i % 5 == 2 ? 99u : i % 7 == 3 ? 2u : 1u;
      burst.push_back(ack_at(id, us += 700));
    }
    twin.drive(burst);
    twin.expect_equal_frames();
    EXPECT_EQ(twin.batch.flow(1)->acks_folded_total(),
              twin.scalar.flow(1)->acks_folded_total());
    EXPECT_GT(twin.batch.flow(1)->reports_sent(), 0u);
  }
}

TEST(AckBatch, WatchdogExpiryPeelsToScalarFallback) {
  TelemetryGuard quiet(false);
  for (const JitMode mode : kEngines) {
    JitModeGuard jit(mode);
    Twin twin;
    const TimePoint t0 = at_us(1000);
    twin.create(1, t0, /*watchdog_rtts=*/4);
    twin.create(2, t0, /*watchdog_rtts=*/4);
    twin.install(install_msg(1, kPureProgram, {"gain"}, {1.0}), t0);
    twin.install(install_msg(2, kPureProgram, {"gain"}, {1.0}), t0);
    // Warm up RTT estimates so the watchdog arms.
    int64_t us = 2000;
    for (int i = 0; i < 20; ++i) {
      std::vector<FlowAck> burst;
      for (ipc::FlowId id = 1; id <= 2; ++id) burst.push_back(ack_at(id, us += 500));
      twin.drive(burst);
    }
    // A minute of agent silence, then one burst in which both flows
    // cross their deadline: fallback entry (install + emission) happens
    // mid-burst, between the lanes around it, and the lanes after it on
    // the same flow run the fallback program.
    us += 60'000'000;
    std::vector<FlowAck> burst;
    for (int i = 0; i < 20; ++i) {
      burst.push_back(ack_at(1 + static_cast<ipc::FlowId>(i % 2), us += 500));
    }
    twin.drive(burst);
    twin.expect_equal_frames();
    EXPECT_TRUE(twin.batch.flow(1)->in_fallback());
    EXPECT_TRUE(twin.batch.flow(2)->in_fallback());
    EXPECT_EQ(twin.scalar.flow(1)->in_fallback(),
              twin.batch.flow(1)->in_fallback());
  }
}

TEST(AckBatch, IntakeChunksFeedBatchCounters) {
  TelemetryGuard loud(true);
  FrameLog log;
  CcpDatapath dp(DatapathConfig{}, log.tx());
  const TimePoint t0 = at_us(1000);
  for (ipc::FlowId id = 1; id <= 4; ++id) {
    dp.create_flow_with_id(id, FlowConfig{}, "occ", t0);
  }
  auto& m = telemetry::metrics();
  const uint64_t waves0 = m.dp_batch_waves.value();
  const uint64_t lanes0 = m.dp_batch_lanes_sum.value();
  const uint64_t scalar0 = m.dp_batch_scalar_lanes.value();
  const uint64_t simd0 = m.dp_batch_simd_lanes.value();
  std::vector<FlowAck> burst;
  for (int i = 0; i < 70; ++i) {
    burst.push_back(ack_at(1 + static_cast<ipc::FlowId>(i % 4), 2000 + i));
  }
  dp.on_ack_batch(burst);
  // 70 ACKs = chunks of 32 + 32 + 6, every lane scalar.
  EXPECT_EQ(m.dp_batch_waves.value() - waves0, 3u);
  EXPECT_EQ(m.dp_batch_lanes_sum.value() - lanes0, 70u);
  EXPECT_EQ(m.dp_batch_scalar_lanes.value() - scalar0, 70u);
  EXPECT_EQ(m.dp_batch_simd_lanes.value() - simd0, 0u);
}

/// Pkt.rtt straight into a register plus a running minimum: a negative
/// RTT sample that leaked past the "no sample" check shows in both.
constexpr const char* kRttProgram = R"(
fold {
  rtt    := Pkt.rtt               init 0;
  minrtt := min(minrtt, Pkt.rtt)  init 0x7fffffff;
}
control {
  WaitRtts(1.0);
  Report();
}
)";

TEST(AckBatch, NegativeRttSampleIsNoSample) {
  TelemetryGuard quiet(false);
  JitModeGuard jit(JitMode::On);
  Twin twin;
  const TimePoint t0 = at_us(1000);
  for (ipc::FlowId id = 1; id <= 2; ++id) {
    twin.create(id, t0);
    twin.install(install_msg(id, kRttProgram), t0);
  }
  auto burst_at = [](int64_t us, Duration rtt) {
    std::vector<FlowAck> burst;
    for (ipc::FlowId id = 1; id <= 2; ++id) {
      FlowAck fa;
      fa.flow_id = id;
      fa.ev.now = at_us(us);
      fa.ev.bytes_acked = 1460;
      fa.ev.packets_acked = 1;
      fa.ev.rtt_sample = rtt;
      fa.ev.bytes_in_flight = 14600;
      fa.ev.packets_in_flight = 10;
      burst.push_back(fa);
    }
    return burst;
  };
  twin.drive(burst_at(2000, Duration::from_micros(10000)));
  twin.drive(burst_at(2100, Duration::from_micros(10000)));

  // The scalar side runs on_ack, the batch side on_ack_batch.
  for (CcpDatapath* dp : {&twin.scalar, &twin.batch}) {
    for (ipc::FlowId id = 1; id <= 2; ++id) {
      const CcpFlow& flow = *dp->flow(id);
      const lang::CompiledProgram& prog = *flow.fold().program();
      ASSERT_EQ(flow.srtt(), Duration::from_micros(10000));
      ASSERT_EQ(flow.fold().state()[prog.fold_index("rtt")], 10000.0);
    }
  }
  twin.drive(burst_at(2200, Duration::from_micros(-5000)));
  for (CcpDatapath* dp : {&twin.scalar, &twin.batch}) {
    for (ipc::FlowId id = 1; id <= 2; ++id) {
      const CcpFlow& flow = *dp->flow(id);
      const lang::CompiledProgram& prog = *flow.fold().program();
      EXPECT_EQ(flow.srtt(), Duration::from_micros(10000));
      EXPECT_EQ(flow.fold().state()[prog.fold_index("rtt")], 10000.0);
      EXPECT_EQ(flow.fold().state()[prog.fold_index("minrtt")], 10000.0);
    }
  }
  twin.expect_equal_frames();
}

/// Control waits far past the int64-nanosecond range. Each deadline must
/// saturate at "never" rather than overflow into the past, so the program
/// stalls on its first wait instead of reporting on every ACK.
constexpr const char* kHugeWaitPrograms[] = {
    "fold { a := a + Pkt.bytes_acked init 0; }\n"
    "control { WaitRtts(1e300); Report(); }",
    "fold { a := a + Pkt.bytes_acked init 0; }\n"
    "control { Wait(1e300); Report(); }",
    // 1e300 * 1e300 overflows to +inf.
    "fold { a := a + Pkt.bytes_acked init 0; }\n"
    "control { WaitRtts(1e300 * 1e300); Report(); }",
};

TEST(ControlWaitSaturation, HugeWaitsSendAtMostOneReport) {
  TelemetryGuard quiet(false);
  for (const char* text : kHugeWaitPrograms) {
    for (const bool burst_intake : {false, true}) {
      FrameLog log;
      CcpDatapath dp(DatapathConfig{}, log.tx());
      const TimePoint t0 = at_us(1000);
      FlowConfig cfg;
      dp.create_flow_with_id(1, cfg, "wait", t0);
      dp.flow(1)->install(install_msg(1, text), t0);
      std::vector<FlowAck> burst;
      for (int64_t i = 0; i < 10'000; ++i) {
        burst.push_back(ack_at(1, 2000 + 1000 * i));
        if (burst.size() == 32 || i == 9'999) {
          if (burst_intake) {
            dp.on_ack_batch(burst);
          } else {
            for (const FlowAck& fa : burst) dp.flow(1)->on_ack(fa.ev);
          }
          burst.clear();
        }
      }
      dp.tick(at_us(2000 + 1000 * 10'000));
      EXPECT_LE(dp.flow(1)->reports_sent(), 1u)
          << text << (burst_intake ? " (on_ack_batch)" : " (on_ack)");
      EXPECT_EQ(dp.flow(1)->acks_folded_total(), 10'000u);
    }
  }
}

}  // namespace
}  // namespace ccp::datapath
