// Deployed-shape CCP benchmark: one process, CcpDatapath driven on the
// main thread, CcpAgent on its own agent::TransportLoop thread, the two
// joined by the shm ring (ipc::make_shm_ring_pair). The datapath thread
// is a closed-loop generator — always busy, as a poll-mode stack core at
// line rate — replaying seeded ACK events on a virtual clock of 1 µs per
// ACK with a 10 ms RTT, so report and urgent counts per ACK are fixed by
// the schedule while every latency is wall time.
//
//   ccpbench --workload loop64|churn1m|heavy64_loss --seed N --seconds S
//            [--trace 0|1]
//
// Prints a human summary on stderr and one JSON object of raw figures
// and correctness checks on stdout, and exits 1 if a check failed; run.py
// runs several processes and aggregates. With --trace 1 the benchmark
// also times the calls it makes into each layer's public functions (spans
// taken from this file, around the call) and reports per-layer costs.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "agent/agent.hpp"
#include "agent/transport_loop.hpp"
#include "algorithms/registry.hpp"
#include "bench_algorithms.hpp"
#include "datapath/datapath.hpp"
#include "harness.hpp"
#include "ipc/transport.hpp"
#include "lang/vm.hpp"
#include "telemetry/telemetry.hpp"
#include "util/quantiles.hpp"
#include "util/rng.hpp"
#include "util/zipf.hpp"

namespace ccpbench {
namespace {

using ccp::Duration;
using ccp::TimePoint;
namespace datapath = ccp::datapath;
namespace agent = ccp::agent;
namespace ipc = ccp::ipc;

const double g_main_start = mono_secs();  // "process start" for setup_s

constexpr Duration kAckGap = Duration::from_micros(1);
constexpr Duration kRtt = Duration::from_millis(10);
// RTT sample = 10 ms + U[0, 500) µs. The exact value matters little:
// per-ACK costs do not depend on the RTT, and report and urgent counts
// are checked against the schedule of the realised mean RTT (10.25 ms).
// The jitter keeps the RTT filters in the folds off a constant input; a
// constant RTT moved heavy64_loss's figures by under 5% (4-vCPU Xeon VM).
constexpr uint32_t kJitterUs = 500;
constexpr size_t kBurst = 32;             // ACKs per generator step
constexpr uint64_t kTickEvery = 256;      // ACKs between dp.tick() calls
constexpr uint64_t kClockEvery = 4096;    // ACKs between wall-clock checks
constexpr uint64_t kWarmupAcks = 1 << 18; // after set-up, before measuring
constexpr double kSubWindowSecs = 0.05;   // rates and loop percentiles per window
constexpr size_t kRingBytes = 1 << 20;    // per direction
constexpr size_t kTagSlots = 1 << 16;     // frames in flight per direction
constexpr size_t kMaxLoopSamples = 8 << 20;
constexpr size_t kVictims = 1 << 16;
// Generated ACK events, replayed cyclically. Long enough that no one
// seed's loss and jitter clustering sets the latency tail.
constexpr size_t kStreamLen = 1 << 22;
// heavy64_loss's share of ACKs that carry one newly lost packet: the
// random loss of the scenario library's wireless_loss link (0.3%). With
// ~160 ACKs per flow-RTT, about 38% of flow-RTTs then carry an urgent.
constexpr double kLossShare = 0.003;

struct Spec {
  const char* name;
  size_t flows;
  bool batch;                // on_ack_batch bursts, else per-ACK flow()/on_ack
  double loss_share;         // share of ACKs carrying one newly lost packet
  bool zipf;                 // Zipf(1.5) flow popularity, else round robin
  uint64_t acks_per_op;      // one close->create per this many ACKs (pow2)
  // Creates allowed to await their Install. 1 in the 64-flow workloads,
  // so set-up installs each flow at its own point of the spread below.
  size_t create_window;
  double watchdog_rtts;
  size_t rate_ring_entries;  // 0 = datapath default
  size_t tick_flow_budget;
  std::vector<std::string> algs;  // slot s runs algs[s % algs.size()]
};

// loop64: the paper's design point. 64 flows on a fixed registry mix,
//   scalar per-ACK demux + on_send/on_ack with the watchdog armed and
//   per-RTT reports: the report path, the agent handler and the scalar
//   ACK path carry the work. The SoA batch runner, table scale and the
//   heavy fold are bypassed, so changes to them should not move it. A
//   light turnover (one close->create per 65,536 ACKs, here and in
//   heavy64_loss) keeps connection churn present, far below the report
//   traffic, so every workload reports a churn rate.
// churn1m: 1M resident flows (per-flow state several times the L3),
//   Zipf(1.5) bursts of 32 via on_ack_batch, kChurnProgram folding per
//   ACK and reporting beyond the horizon, one close->create per 64 ACKs.
//   Flow-table demux, create/close and the agent registry plus the
//   Install path carry the work; reports are nearly absent. At most
//   1,024 creates may await their Install, and an op waits while that
//   window is full. Unbounded, a slower agent falls behind, the dp->agent
//   ring refuses frames and the two registries diverge after a dropped
//   Create or Close; bounded, churn_ops_per_sec reports whichever side is
//   slower, and any refusal still counts as a failure. At this mix the
//   datapath is the slower side (the agent is about 60% busy), so
//   Create -> Install latency is the loop's, not the window's queue. With
//   3 ops per burst both sides saturate in turn and the latency flips
//   between tens of µs and the window's ~10 ms queue from run to run.
// heavy64_loss: 64 flows, bursts of 32 via on_ack_batch, the dense fold
//   with an urgent loss register and 0.3% of ACKs lossy: the fold (JIT)
//   and the SoA batch runner carry most per-ACK cost, and urgents travel
//   unbatched beside batched reports and are answered at once.
const Spec kSpecs[] = {
    {"loop64", 64, false, 0.0, false, 1 << 16, 1, 8.0, 0, 0,
     {"reno", "cubic", "vegas"}},
    {"churn1m", 1'000'000, true, 0.0, true, 64, 1024, 0.0, 16, 64,
     {"bench_churn"}},
    {"heavy64_loss", 64, true, kLossShare, false, 1 << 16, 1, 0.0, 0, 0,
     {"bench_heavy"}},
};

/// One generated ACK: which resident slot, its RTT jitter, and its loss.
struct Ev {
  uint32_t slot;
  uint16_t jitter_us;
  uint16_t lost;
};

/// Everything the seed decides. The datapath only ever sees these events.
struct Inputs {
  std::vector<Ev> acks;
  std::vector<uint32_t> victims;  // churn/turnover slots, uniform
  double mean_rtt_us = 0;
  double loss_share = 0;          // realized share of lossy ACKs
};

Inputs generate(const Spec& spec, uint64_t seed) {
  ccp::Rng rng(seed);
  ccp::util::ZipfSampler zipf(spec.flows, 1.5);
  Inputs in;
  in.acks.resize(kStreamLen);
  double jitter_sum = 0;
  uint64_t lost = 0;
  for (size_t i = 0; i < kStreamLen; ++i) {
    Ev& e = in.acks[i];
    e.slot = static_cast<uint32_t>(spec.zipf ? zipf(rng) - 1 : i % spec.flows);
    e.jitter_us = static_cast<uint16_t>(rng.next_below(kJitterUs));
    e.lost = spec.loss_share > 0 && rng.chance(spec.loss_share) ? 1 : 0;
    jitter_sum += e.jitter_us;
    lost += e.lost;
  }
  in.victims.resize(kVictims);
  for (uint32_t& v : in.victims) {
    v = static_cast<uint32_t>(rng.next_below(spec.flows));
  }
  in.mean_rtt_us = static_cast<double>(kRtt.nanos()) / 1e3 +
                   jitter_sum / static_cast<double>(kStreamLen);
  in.loss_share = static_cast<double>(lost) / static_cast<double>(kStreamLen);
  return in;
}

struct OriginTag {
  uint64_t t_tx;  // tick the frame entered the datapath's FrameTx
};
struct ReplyTag {
  uint64_t t_origin;  // t_tx of the datapath frame being answered
  uint64_t t_start;   // tick the agent started handling that frame
  uint64_t t_send;    // tick the agent's FrameTx was entered
};

/// Datapath-thread trace accumulators (traced run only).
struct DpTrace {
  uint64_t tx_child = 0;  // ticks inside the datapath FrameTx so far
  Span demux;  // per burst of kBurst lookups
  Span ack, tick, apply, create, close, send, drain;
  uint64_t poll_ticks = 0;  // every command-ring drain, empty ones too
  // Per applied reply: the frame's FrameTx -> agent handle_frame start,
  // and the agent's FrameTx -> datapath apply start.
  std::vector<uint32_t> queue_wait, cmd_wait;
};

/// Counter snapshot over the measured window.
struct Counts {
  uint64_t reports = 0, urgents = 0;
  uint64_t waves = 0, lanes = 0, simd_lanes = 0, scalar_lanes = 0;
  uint64_t frames_out = 0, msgs_out = 0, bytes_out = 0;
  static Counts take(const datapath::CcpDatapath& dp) {
    const auto& m = ccp::telemetry::metrics();
    Counts c;
    c.reports = m.dp_reports.value();
    c.urgents = m.dp_urgents.value();
    c.waves = m.dp_batch_waves.value();
    c.lanes = m.dp_batch_lanes_sum.value();
    c.simd_lanes = m.dp_batch_simd_lanes.value();
    c.scalar_lanes = m.dp_batch_scalar_lanes.value();
    c.frames_out = dp.stats().frames_sent;
    c.msgs_out = dp.stats().msgs_sent;
    c.bytes_out = dp.stats().bytes_sent;
    return c;
  }
  Counts operator-(const Counts& o) const {
    Counts d;
    d.reports = reports - o.reports;
    d.urgents = urgents - o.urgents;
    d.waves = waves - o.waves;
    d.lanes = lanes - o.lanes;
    d.simd_lanes = simd_lanes - o.simd_lanes;
    d.scalar_lanes = scalar_lanes - o.scalar_lanes;
    d.frames_out = frames_out - o.frames_out;
    d.msgs_out = msgs_out - o.msgs_out;
    d.bytes_out = bytes_out - o.bytes_out;
    return d;
  }
};

class Bench {
 public:
  Bench(const Spec& spec, Inputs inputs, bool trace, int dp_cpu, int agent_cpu)
      : spec_(spec),
        in_(std::move(inputs)),
        trace_(trace),
        agent_cpu_(agent_cpu),
        pair_(ipc::make_shm_ring_pair(kRingBytes, ipc::ShmWaitMode::BusyPoll)),
        origin_(kTagSlots),
        replies_(kTagSlots) {
    fcfg_.watchdog_rtts = spec.watchdog_rtts;
    if (spec.rate_ring_entries != 0) {
      fcfg_.rate_ring_entries = spec.rate_ring_entries;
    }
    datapath::DatapathConfig dcfg;
    dcfg.flush_interval = Duration::from_millis(1);
    dcfg.max_batch_msgs = 32;
    dcfg.tick_flow_budget = spec.tick_flow_budget;
    dp_ = std::make_unique<datapath::CcpDatapath>(
        dcfg, [this](std::span<const uint8_t> f) { dp_tx(f); });
    agent_ = std::make_unique<agent::CcpAgent>(
        agent::AgentConfig{}, [this](std::span<const uint8_t> f) { agent_tx(f); });
    register_algorithms();
    dp_rx_ = [this](std::span<const uint8_t> f) { dp_apply(f); };
    loop_ = std::make_unique<agent::TransportLoop>(
        *pair_.b, [this](std::span<const uint8_t> f) { agent_rx(f); });
    // Pinned after the agent thread exists, so it does not inherit the
    // datapath's CPU; it pins itself on its first frame.
    pin_this_thread(dp_cpu);
    resident_.resize(spec.flows);
    loop_samples_.reserve(kMaxLoopSamples);
    for (datapath::FlowAck& fa : burst_) {
      fa.sent_bytes = 1500;
      fa.ev.bytes_acked = 1500;
      fa.ev.packets_acked = 1;
      fa.ev.bytes_in_flight = 64 * 1500;
      fa.ev.packets_in_flight = 64;
    }
    if (trace_) {
      dtr_.queue_wait.reserve(kMaxLoopSamples);
      dtr_.cmd_wait.reserve(kMaxLoopSamples);
    }
  }

  /// Creates every flow, waits until each initial Install is applied,
  /// then warms the loop up. Returns at the first measured ACK.
  void setup() {
    // Creates are spread over one RTT of virtual time, so the flows'
    // per-RTT report phases start evenly spread and report traffic is
    // stationary from the first measured ACK. (Created at one instant,
    // every flow reports in the same flush window and the frames only
    // spread out slowly, so latency tails would drift through a run.)
    const Duration spacing = kRtt / static_cast<int64_t>(spec_.flows);
    for (size_t s = 0; s < spec_.flows; ++s) {
      wait_for([&] { return awaiting_install() < spec_.create_window; });
      resident_[s] = dp_->create_flow(fcfg_, alg_of(s), vnow_).id();
      ++creates_;
      vnow_ += spacing;
    }
    // Each registered algorithm answers a Create with exactly one Install
    // and nothing has reported yet, so every reply so far is an Install.
    wait_for([&] { return replies_applied_ >= spec_.flows; });
    setup_installs_ = replies_applied_;
    run_acks(kWarmupAcks);
  }

  void measure(double seconds) {
    const Counts c0 = Counts::take(*dp_);
    const uint64_t acks0 = acks_, ops0 = ops_, deferred0 = deferred_;
    measuring_.store(true, std::memory_order_release);
    measuring_dp_ = true;
    rate_.start();
    const double cpu0 = thread_cpu_secs();
    const double t_start = mono_secs();
    window_start_ = t_start;
    double sub_start = t_start;
    uint64_t sub_acks = acks_;
    for (;;) {
      run_acks(kClockEvery);
      const double now = mono_secs();
      if (now - sub_start >= kSubWindowSecs) {
        sub_ack_rates_.push_back(static_cast<double>(acks_ - sub_acks) / (now - sub_start));
        sub_loop_ends_.push_back(loop_samples_.size());
        sub_start = now;
        sub_acks = acks_;
      }
      if (now - t_start >= seconds) break;
    }
    const double t_end = mono_secs();
    if (sub_ack_rates_.empty()) {
      sub_ack_rates_.push_back(static_cast<double>(acks_ - acks0) / (t_end - t_start));
    }
    cpu_secs_ = thread_cpu_secs() - cpu0;
    rate_.stop();
    measuring_dp_ = false;
    measuring_.store(false, std::memory_order_release);
    window_secs_ = t_end - t_start;
    window_acks_ = acks_ - acks0;
    window_ops_ = ops_ - ops0;
    window_deferred_ = deferred_ - deferred0;
    window_ = Counts::take(*dp_) - c0;
  }

  /// Flushes, waits until every frame in either direction is handled and
  /// applied, then stops the agent thread.
  bool quiesce() {
    const double deadline = mono_secs() + 60.0;
    int stable = 0;
    while (stable < 2) {
      dp_->flush();
      drain();
      const bool idle =
          agent_handled_.load(std::memory_order_acquire) ==
              dp_frames_sent_.load(std::memory_order_acquire) &&
          replies_applied_ == agent_sent_.load(std::memory_order_acquire);
      stable = idle ? stable + 1 : 0;
      if (mono_secs() > deadline) {
        loop_->stop();
        return false;
      }
    }
    loop_->stop();
    return true;
  }

  /// Prints the figures and checks; returns whether every check passed.
  bool report(uint64_t seed, double seconds, bool quiesced, double gen_secs);

  // Callbacks on both threads hold `this`.
  Bench(const Bench&) = delete;
  Bench& operator=(const Bench&) = delete;

 private:
  const std::string& alg_of(size_t slot) const {
    return spec_.algs[slot % spec_.algs.size()];
  }

  void register_algorithms() {
    using Factory = agent::AlgorithmFactory;
    std::map<std::string, Factory> factories;
    for (const std::string& name : ccp::algorithms::builtin_algorithm_names()) {
      factories[name] = [name](const agent::FlowInfo& info) {
        return ccp::algorithms::make_algorithm(name, info);
      };
    }
    factories["bench_churn"] = [](const agent::FlowInfo&) {
      return std::make_unique<ChurnAlgorithm>();
    };
    factories["bench_heavy"] = [](const agent::FlowInfo& info) {
      return std::make_unique<HeavyAlgorithm>(info);
    };
    for (auto& [name, factory] : factories) {
      if (!trace_) {
        agent_->register_algorithm(name, factory);
        continue;
      }
      agent_->register_algorithm(
          name, [this, f = factory](const agent::FlowInfo& info) {
            return std::make_unique<TimedAlgorithm>(f(info), &atr_);
          });
    }
  }

  // --- datapath thread ---

  void dp_tx(std::span<const uint8_t> frame) {
    const uint64_t t0 = prof_cycles();
    bool ok = origin_.push(OriginTag{t0});
    if (ok) {
      ok = pair_.a->send_frame(frame);
      if (!ok) origin_.retract();
    }
    if (ok) {
      dp_frames_sent_.fetch_add(1, std::memory_order_release);
    } else {
      ++dp_refused_;
    }
    if (trace_) {
      const uint64_t dt = prof_cycles() - t0;
      dtr_.tx_child += dt;
      if (measuring_dp_) dtr_.send.add(dt);
    }
  }

  void dp_apply(std::span<const uint8_t> frame) {
    ReplyTag r{0, 0, 0};
    if (!replies_.pop(r)) ++tag_errors_;
    const uint64_t child0 = dtr_.tx_child;
    const uint64_t t0 = prof_cycles();
    dp_->handle_frame(frame, vnow_);
    const uint64_t t1 = prof_cycles();
    ++replies_applied_;
    apply_ticks_ += t1 - t0;
    if (!measuring_dp_) return;
    if (loop_samples_.size() < kMaxLoopSamples) {
      loop_samples_.push_back(clamp32(t1 - r.t_origin));
    }
    if (trace_) {
      if (dtr_.cmd_wait.size() < kMaxLoopSamples) {
        dtr_.queue_wait.push_back(clamp32(r.t_start - r.t_origin));
        dtr_.cmd_wait.push_back(clamp32(t0 - r.t_send));
      }
      dtr_.apply.add(t1 - t0 - (dtr_.tx_child - child0));
    }
  }

  void drain() {
    if (!trace_) {
      pair_.a->drain_frames(dp_rx_);
      return;
    }
    const uint64_t apply0 = apply_ticks_;
    const uint64_t t0 = prof_cycles();
    const size_t n = pair_.a->drain_frames(dp_rx_);
    if (measuring_dp_) {
      const uint64_t self = prof_cycles() - t0 - (apply_ticks_ - apply0);
      dtr_.poll_ticks += self;
      if (n > 0) dtr_.drain.add(self);
    }
  }

  /// Polls the command ring until `done`. A loop that stops making
  /// progress (a lost Create or Install) is recorded as a failure after
  /// 30 s instead of hanging the run.
  template <typename Fn>
  void wait_for(Fn&& done) {
    const double deadline = mono_secs() + 30.0;
    for (uint32_t spins = 0; !done(); ++spins) {
      drain();
      if ((spins & 1023) == 1023 && mono_secs() > deadline) {
        ++stalls_;
        return;
      }
    }
  }

  /// Creates still waiting for their Install, counting every applied
  /// reply as one: exact in set-up (nothing reports before the first ACK)
  /// and in churn1m (its algorithm answers only Creates); elsewhere report
  /// replies only make it smaller.
  uint64_t awaiting_install() const {
    return creates_ > replies_applied_ ? creates_ - replies_applied_ : 0;
  }

  static uint32_t clamp32(uint64_t v) {
    return static_cast<uint32_t>(std::min<uint64_t>(v, UINT32_MAX));
  }

  /// Replays `n` generated ACKs (a multiple of kBurst) with ticks, churn,
  /// and one command-ring drain per burst.
  void run_acks(uint64_t n) {
    const size_t mask = in_.acks.size() - 1;
    for (uint64_t done = 0; done < n; done += kBurst) {
      if (spec_.batch) {
        ack_burst_batch(mask);
      } else {
        ack_burst_scalar(mask);
      }
      acks_ += kBurst;
      churn();
      if (acks_ % kTickEvery == 0) {
        const uint64_t child0 = dtr_.tx_child;
        const uint64_t t0 = trace_ ? prof_cycles() : 0;
        dp_->tick(vnow_);
        if (trace_ && measuring_dp_) {
          dtr_.tick.add(prof_cycles() - t0 - (dtr_.tx_child - child0));
        }
      }
      drain();
    }
  }

  /// One rx burst handled the way a poll-mode stack core does it: demux
  /// all 32 ACKs, then feed each flow on_send + on_ack in arrival order.
  void ack_burst_scalar(size_t mask) {
    const uint64_t t0 = trace_ ? prof_cycles() : 0;
    for (size_t k = 0; k < kBurst; ++k) {
      flows_[k] = dp_->flow(resident_[in_.acks[(seq_ + k) & mask].slot]);
    }
    const uint64_t child0 = dtr_.tx_child;
    const uint64_t t1 = trace_ ? prof_cycles() : 0;
    datapath::AckEvent ev;
    ev.bytes_acked = 1500;
    ev.packets_acked = 1;
    ev.bytes_in_flight = 64 * 1500;
    ev.packets_in_flight = 64;
    for (size_t k = 0; k < kBurst; ++k) {
      const Ev& e = in_.acks[seq_++ & mask];
      vnow_ += kAckGap;
      ev.now = vnow_;
      ev.rtt_sample = kRtt + Duration::from_micros(e.jitter_us);
      ev.newly_lost_packets = e.lost;
      flows_[k]->on_send(datapath::SendEvent{vnow_, 1500});
      flows_[k]->on_ack(ev);
    }
    if (trace_ && measuring_dp_) {
      const uint64_t t2 = prof_cycles();
      dtr_.demux.add(t1 - t0);
      dtr_.ack.add(t2 - t1 - (dtr_.tx_child - child0));
    }
  }

  void ack_burst_batch(size_t mask) {
    for (datapath::FlowAck& fa : burst_) {
      const Ev& e = in_.acks[seq_++ & mask];
      vnow_ += kAckGap;
      fa.flow_id = resident_[e.slot];
      fa.ev.now = vnow_;
      fa.ev.rtt_sample = kRtt + Duration::from_micros(e.jitter_us);
      fa.ev.newly_lost_packets = e.lost;
    }
    const std::span<const datapath::FlowAck> acks(burst_.data(), burst_.size());
    if (!trace_) {
      dp_->on_ack_batch(acks);
      return;
    }
    // on_ack_batch demuxes internally; a sampled side lookup of the same
    // burst's ids (1 burst in 16) prices CcpDatapath::flow() here.
    if (measuring_dp_ && (++bursts_ & 15) == 0) {
      const uint64_t d0 = prof_cycles();
      for (size_t k = 0; k < kBurst; ++k) flows_[k] = dp_->flow(burst_[k].flow_id);
      dtr_.demux.add(prof_cycles() - d0);
    }
    const uint64_t child0 = dtr_.tx_child;
    const uint64_t t0 = prof_cycles();
    dp_->on_ack_batch(acks);
    const uint64_t t1 = prof_cycles();
    if (measuring_dp_) {
      dtr_.ack.add(t1 - t0 - (dtr_.tx_child - child0));
    }
  }

  /// The close->create ops due after this burst: one per acks_per_op
  /// ACKs. A full create window defers the op — the datapath polls for
  /// Installs until one lands — so the ACK:op mix stays fixed and the
  /// loop runs at the pace of its slower side.
  void churn() {
    const uint64_t due = spec_.acks_per_op >= kBurst
                             ? ((acks_ & (spec_.acks_per_op - 1)) == 0 ? 1 : 0)
                             : kBurst / spec_.acks_per_op;
    for (uint64_t op = 0; op < due; ++op) {
      if (awaiting_install() >= spec_.create_window) {
        ++deferred_;
        wait_for([&] { return awaiting_install() < spec_.create_window; });
      }
      churn_op();
    }
  }

  void churn_op() {
    const uint32_t j = in_.victims[victim_seq_++ & (kVictims - 1)];
    const uint64_t child0 = dtr_.tx_child;
    const uint64_t t0 = trace_ ? prof_cycles() : 0;
    dp_->close_flow(resident_[j], vnow_);
    const uint64_t child1 = dtr_.tx_child;
    const uint64_t t1 = trace_ ? prof_cycles() : 0;
    resident_[j] = dp_->create_flow(fcfg_, alg_of(j), vnow_).id();
    if (trace_ && measuring_dp_) {
      const uint64_t t2 = prof_cycles();
      dtr_.close.add(t1 - t0 - (child1 - child0));
      dtr_.create.add(t2 - t1 - (dtr_.tx_child - child1));
    }
    ++ops_;
    ++creates_;
  }

  // --- agent thread ---

  void agent_rx(std::span<const uint8_t> frame) {
    if (!agent_pinned_) {
      pin_this_thread(agent_cpu_);
      agent_pinned_ = true;
    }
    const bool measuring = measuring_.load(std::memory_order_acquire);
    if (measuring && !agent_window_seen_) {
      agent_stats0_ = agent_->stats();
      agent_window_seen_ = true;
    }
    const uint64_t t0 = prof_cycles();
    OriginTag o{t0};
    if (!origin_.pop(o)) agent_tag_errors_.fetch_add(1, std::memory_order_relaxed);
    cur_origin_ = o.t_tx;
    cur_start_ = t0;
    const uint64_t child0 = atr_.tx_child;
    agent_->handle_frame(frame);
    if (trace_ && measuring) {
      const uint64_t t1 = prof_cycles();
      atr_.handle.add(t1 - t0 - (atr_.tx_child - child0));
      atr_.busy += t1 - t0;
    }
    agent_handled_.fetch_add(1, std::memory_order_release);
  }

  void agent_tx(std::span<const uint8_t> frame) {
    const uint64_t t0 = prof_cycles();
    bool ok = replies_.push(ReplyTag{cur_origin_, cur_start_, t0});
    if (ok) {
      ok = pair_.b->send_frame(frame);
      if (!ok) replies_.retract();
    }
    if (ok) {
      agent_sent_.fetch_add(1, std::memory_order_release);
    } else {
      agent_refused_.fetch_add(1, std::memory_order_relaxed);
    }
    if (trace_) {
      const uint64_t dt = prof_cycles() - t0;
      atr_.tx_child += dt;
      if (measuring_.load(std::memory_order_relaxed)) atr_.send.add(dt);
    }
  }

  // --- traced side measurements, run after the agent thread stopped ---

  /// FoldMachine::on_packet cost per ACK for the programs the resident
  /// flows actually run (weighted by flow count), on the generated stream.
  double fold_ns_per_ack() const {
    std::map<const ccp::lang::CompiledProgram*, size_t> progs;
    const size_t sample = std::min<size_t>(resident_.size(), 4096);
    for (size_t s = 0; s < sample; ++s) {
      const datapath::CcpFlow* fl = dp_->flow(resident_[s]);
      if (fl != nullptr && fl->fold().program() != nullptr) {
        ++progs[fl->fold().program()];
      }
    }
    constexpr size_t kPackets = 1 << 20;
    double weighted = 0;
    size_t total = 0;
    for (const auto& [prog, count] : progs) {
      ccp::lang::FoldMachine m;
      m.install(prog, std::vector<double>(prog->var_names.size(), 15000.0));
      ccp::lang::PktInfo pkt;
      pkt.bytes_acked = 1500;
      pkt.packets_acked = 1;
      pkt.bytes_in_flight = 64.0 * 1500;
      pkt.packets_in_flight = 64;
      pkt.snd_rate_bps = 9.5e8;
      pkt.rcv_rate_bps = 9.0e8;
      pkt.cwnd = 96'000;
      const uint64_t t0 = prof_cycles();
      for (size_t i = 0; i < kPackets; ++i) {
        const Ev& e = in_.acks[i & (in_.acks.size() - 1)];
        pkt.rtt_us = 10'000.0 + e.jitter_us;
        pkt.lost_packets = e.lost;
        pkt.now_us = static_cast<double>(i);
        m.on_packet(pkt);
      }
      const double ns =
          static_cast<double>(prof_cycles() - t0) / rate_.per_ns() / kPackets;
      weighted += ns * static_cast<double>(count);
      total += count;
    }
    return total == 0 ? 0.0 : weighted / static_cast<double>(total);
  }

  const Spec& spec_;
  Inputs in_;
  const bool trace_;
  const int agent_cpu_;
  ipc::TransportPair pair_;  // a: datapath end, b: agent end
  SpscFifo<OriginTag> origin_;
  SpscFifo<ReplyTag> replies_;
  datapath::FlowConfig fcfg_;
  std::unique_ptr<datapath::CcpDatapath> dp_;
  std::unique_ptr<agent::CcpAgent> agent_;
  ipc::FrameSink dp_rx_;

  // Cross-thread state.
  std::atomic<bool> measuring_{false};
  std::atomic<uint64_t> dp_frames_sent_{0};
  std::atomic<uint64_t> agent_handled_{0};
  std::atomic<uint64_t> agent_sent_{0};
  std::atomic<uint64_t> agent_refused_{0};
  std::atomic<uint64_t> agent_tag_errors_{0};

  // Datapath thread.
  std::vector<ipc::FlowId> resident_;
  std::array<datapath::FlowAck, kBurst> burst_{};
  std::array<datapath::CcpFlow*, kBurst> flows_{};
  uint64_t bursts_ = 0;
  TimePoint vnow_ = TimePoint::epoch() + Duration::from_millis(1);
  uint64_t seq_ = 0, victim_seq_ = 0;
  uint64_t acks_ = 0, ops_ = 0, creates_ = 0, deferred_ = 0;
  uint64_t replies_applied_ = 0, setup_installs_ = 0;
  uint64_t dp_refused_ = 0, tag_errors_ = 0, stalls_ = 0;
  uint64_t apply_ticks_ = 0;
  bool measuring_dp_ = false;
  std::vector<uint32_t> loop_samples_;
  std::vector<double> sub_ack_rates_;
  std::vector<size_t> sub_loop_ends_;  // loop_samples_ size at each sub-window end
  TickRate rate_;
  double window_start_ = 0, window_secs_ = 0, cpu_secs_ = 0;
  uint64_t window_acks_ = 0, window_ops_ = 0, window_deferred_ = 0;
  Counts window_;
  DpTrace dtr_;

  // Agent thread (read by the datapath thread only after loop_->stop()).
  bool agent_pinned_ = false;
  bool agent_window_seen_ = false;
  agent::AgentStats agent_stats0_;
  uint64_t cur_origin_ = 0, cur_start_ = 0;
  AgentTrace atr_;

  // Declared last: the agent thread uses every member above.
  std::unique_ptr<agent::TransportLoop> loop_;
};

/// Tick samples [begin, end) converted to µs.
ccp::SampleSet ticks_as_us(const std::vector<uint32_t>& v, size_t begin, size_t end,
                           double tpn) {
  ccp::SampleSet set;
  set.reserve(end - begin);
  for (size_t i = begin; i < end; ++i) set.add(static_cast<double>(v[i]) / tpn / 1e3);
  return set;
}

double median(const std::vector<double>& v) {
  ccp::SampleSet set;
  for (const double x : v) set.add(x);
  return set.quantile(0.5);
}

bool Bench::report(uint64_t seed, double seconds, bool quiesced, double gen_secs) {
  // Peak RSS before the sample sets below add their own copies.
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double tpn = rate_.per_ns();
  const double acks = static_cast<double>(window_acks_);
  const agent::AgentStats& as = agent_->stats();
  const datapath::DatapathStats& ds = dp_->stats();
  const agent::AgentStats a0 = agent_window_seen_ ? agent_stats0_ : as;

  // Failures: refused frames either way, decode/install errors on either
  // side, messages for unknown flows or algorithms, tag mismatches, and
  // registries that disagree at the end.
  const uint64_t refused = dp_refused_ + agent_refused_.load();
  const bool registries_agree = quiesced && agent_->num_flows() == dp_->num_flows() &&
                                dp_->num_flows() == spec_.flows;
  const uint64_t failed = refused + ds.decode_errors + ds.install_errors +
                          as.decode_errors + as.unknown_flow_msgs +
                          as.unknown_algorithm + tag_errors_ +
                          agent_tag_errors_.load() + stalls_ + (registries_agree ? 0 : 1);
  const uint64_t attempted = dp_frames_sent_.load() + agent_sent_.load() + refused + 1;

  // The generator's schedule: flows x RTTs of virtual time in the window.
  const double flow_rtts = static_cast<double>(spec_.flows) * acks *
                           static_cast<double>(kAckGap.nanos()) / 1e3 /
                           in_.mean_rtt_us;
  const double reports_per_flow_rtt = static_cast<double>(window_.reports) / flow_rtts;
  const double urgents_per_flow_rtt = static_cast<double>(window_.urgents) / flow_rtts;
  // Scheduled reports: one per flow-RTT (WaitRtts(1.0)), none for the
  // churn program (beyond the horizon). Scheduled urgents: one per report
  // interval holding at least one lossy ACK (the datapath damps the
  // rest); each flow sees mean_rtt / flows ACKs per RTT in round robin.
  const bool reports_per_rtt = !spec_.zipf;
  const double acks_per_flow_rtt = in_.mean_rtt_us / static_cast<double>(spec_.flows);
  const double sched_urgents =
      reports_per_rtt ? 1.0 - std::pow(1.0 - in_.loss_share, acks_per_flow_rtt) : 0.0;
  const bool reports_ok = reports_per_rtt
                              ? std::fabs(reports_per_flow_rtt - 1.0) <= 0.1
                              : reports_per_flow_rtt <= 1e-3;
  const bool urgents_ok =
      sched_urgents > 0
          ? std::fabs(urgents_per_flow_rtt / sched_urgents - 1.0) <= 0.1
          : window_.urgents == 0;
  const uint64_t fallbacks = ccp::telemetry::metrics().dp_fallbacks.value();
  const bool installs_ok = setup_installs_ == spec_.flows;
  // A watchdog fallback means the agent stalled for watchdog_rtts RTTs of
  // virtual time (a few ms of wall time at line rate): reported as
  // resilience.fallbacks, not a wrong output.
  if (fallbacks != 0) {
    std::fprintf(stderr, "ccpbench %s: %llu watchdog fallbacks\n", spec_.name,
                 static_cast<unsigned long long>(fallbacks));
  }

  // loop_p50_us/loop_p99_us: medians over the 50 ms sub-windows of each
  // one's percentile. A multi-ms vCPU preemption of either thread (host
  // steal on a shared VM) inflates the windows it lands in, not the
  // figure; the pooled p99 is kept too.
  std::vector<double> sub_p50, sub_p99;
  size_t begin = 0;
  for (const size_t end : sub_loop_ends_) {
    if (end - begin >= 1000) {
      const ccp::SampleSet part = ticks_as_us(loop_samples_, begin, end, tpn);
      sub_p50.push_back(part.quantile(0.5));
      sub_p99.push_back(part.quantile(0.99));
    }
    begin = end;
  }
  const ccp::SampleSet loop = ticks_as_us(loop_samples_, 0, loop_samples_.size(), tpn);
  const double loop_p50 = loop.quantile(0.5);
  const double loop_p99_pooled = loop.quantile(0.99);
  if (sub_p99.empty()) {  // too few samples per window: pooled figures
    sub_p50.push_back(loop_p50);
    sub_p99.push_back(loop_p99_pooled);
  }
  const double loop_p99 = median(sub_p99);
  const bool correct = failed == 0 && registries_agree && reports_ok &&
                       urgents_ok && installs_ok &&
                       !loop_samples_.empty();

  std::string out = "{";
  auto num = [&](const char* key, double v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": %.9g", out.size() > 1 ? ", " : "", key, v);
    out += buf;
  };
  auto list = [&](const char* key, const std::vector<double>& v) {
    out += std::string(out.size() > 1 ? ", " : "") + "\"" + key + "\": [";
    for (size_t i = 0; i < v.size(); ++i) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.9g", i == 0 ? "" : ", ", v[i]);
      out += buf;
    }
    out += "]";
  };
  auto flag = [&](const char* key, bool v) {
    out += std::string(out.size() > 1 ? ", " : "") + "\"" + key + "\": " +
           (v ? "true" : "false");
  };
  flag("correct", correct);
  flag("registries_agree", registries_agree);
  flag("reports_ok", reports_ok);
  flag("urgents_ok", urgents_ok);
  flag("installs_ok", installs_ok);
  flag("traced", trace_);
  num("seed", static_cast<double>(seed));
  num("seconds", seconds);
  num("attempted", static_cast<double>(attempted));
  num("failed", static_cast<double>(failed));
  num("acks_per_sec", median(sub_ack_rates_));
  num("acks_per_sec_mean", acks / window_secs_);
  // Over the whole window: the 64-flow workloads do only a handful of
  // ops per sub-window, too few for a per-window rate.
  num("churn_ops_per_sec", static_cast<double>(window_ops_) / window_secs_);
  num("loop_p50_us", loop_p50);
  num("loop_p99_us", loop_p99);
  num("loop_p99_pooled_us", loop_p99_pooled);
  // Per sub-window figures; run.py takes medians over every process's.
  list("sub_acks_per_sec", sub_ack_rates_);
  list("sub_loop_p50_us", sub_p50);
  list("sub_loop_p99_us", sub_p99);
  num("loop_samples", static_cast<double>(loop_samples_.size()));
  // Input generation is the benchmark's own work, not the system's.
  const double setup_s = window_start_ - g_main_start - gen_secs;
  num("setup_s", setup_s);
  num("input_gen_s", gen_secs);
  num("rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0);
  num("window_s", window_secs_);
  num("window_acks", acks);
  num("window_ops", static_cast<double>(window_ops_));
  // Ops that waited for the create window: while 0, the ops run at a
  // fixed share of the ACKs and churn_ops_per_sec = acks / acks_per_op.
  num("agent.deferred_ops", static_cast<double>(window_deferred_));
  num("ipc.frames_refused", static_cast<double>(refused));
  num("flows", static_cast<double>(dp_->num_flows()));
  num("agent_flows", static_cast<double>(agent_->num_flows()));
  num("datapath.reports_per_flow_rtt", reports_per_flow_rtt);
  num("urgents_per_flow_rtt", urgents_per_flow_rtt);
  num("sched_urgents_per_flow_rtt", sched_urgents);
  num("resilience.fallbacks", static_cast<double>(fallbacks));
  num("datapath.reports", static_cast<double>(window_.reports));
  num("datapath.urgents", static_cast<double>(window_.urgents));
  num("datapath.frames_out", static_cast<double>(window_.frames_out));
  num("datapath.msgs_per_frame", window_.frames_out == 0 ? 0.0
                            : static_cast<double>(window_.msgs_out) / window_.frames_out);
  num("ipc.bytes_per_frame", window_.frames_out == 0 ? 0.0
                             : static_cast<double>(window_.bytes_out) / window_.frames_out);
  num("datapath.index_grows", static_cast<double>(dp_->flow_table().stats().grows));
  num("datapath.rehash_steps", static_cast<double>(dp_->flow_table().stats().rehash_steps));
  num("datapath.batch_lanes_per_wave", window_.waves == 0 ? 0.0
                                  : static_cast<double>(window_.lanes) / window_.waves);
  const uint64_t lanes = window_.simd_lanes + window_.scalar_lanes;
  num("datapath.simd_lane_share", lanes == 0 ? 0.0 : static_cast<double>(window_.simd_lanes) / lanes);
  num("datapath.cpu_ns_per_ack", cpu_secs_ * 1e9 / acks);
  num("agent.measurements", static_cast<double>(as.measurements - a0.measurements));
  num("agent.urgents", static_cast<double>(as.urgents - a0.urgents));
  num("agent.creates", static_cast<double>(as.flows_created - a0.flows_created));
  num("agent.installs", static_cast<double>(as.installs_sent - a0.installs_sent));

  if (trace_) {
    auto per_ack = [&](uint64_t t) { return static_cast<double>(t) / tpn / acks; };
    const double ack_ns = per_ack(dtr_.ack.ticks);
    const double demux_ns = dtr_.demux.ns_per_call(tpn) / kBurst;
    const double tick_ns = per_ack(dtr_.tick.ticks);
    const double apply_ns = dtr_.apply.ns_per_call(tpn);
    // Ledger: every datapath-thread self cost amortised to ns/ACK by its
    // measured cadence. In the batch workloads demux runs inside
    // on_ack_batch and is already part of ack_ns.
    const double ledger = ack_ns + (spec_.batch ? 0.0 : per_ack(dtr_.demux.ticks)) +
                          tick_ns + per_ack(dtr_.apply.ticks) +
                          per_ack(dtr_.send.ticks) + per_ack(dtr_.poll_ticks) +
                          per_ack(dtr_.create.ticks) + per_ack(dtr_.close.ticks);
    const double wall_ns_per_ack = window_secs_ * 1e9 / acks;
    const ccp::SampleSet qw = ticks_as_us(dtr_.queue_wait, 0, dtr_.queue_wait.size(), tpn);
    const ccp::SampleSet cw = ticks_as_us(dtr_.cmd_wait, 0, dtr_.cmd_wait.size(), tpn);
    const double qw_us = qw.quantile(0.5);
    const double cw_us = cw.quantile(0.5);
    const double handle_ns = atr_.handle.ns_per_call(tpn);
    const double loop_sum_us = qw_us + handle_ns / 1e3 + cw_us + apply_ns / 1e3;
    num("datapath.ack_ns", ack_ns);
    num("datapath.demux_ns", demux_ns);
    num("datapath.tick_ns_per_ack", tick_ns);
    num("datapath.apply_ns", apply_ns);
    num("datapath.create_ns", dtr_.create.ns_per_call(tpn));
    num("datapath.close_ns", dtr_.close.ns_per_call(tpn));
    num("ipc.dp_send_ns", dtr_.send.ns_per_call(tpn));
    num("ipc.agent_send_ns", atr_.send.ns_per_call(tpn));
    num("ipc.dp_drain_ns", dtr_.drain.ns_per_call(tpn));
    num("agent.handle_ns", handle_ns);
    num("agent.queue_wait_us", qw_us);
    num("agent.cmd_wait_us", cw_us);
    num("agent.busy_share", static_cast<double>(atr_.busy) / tpn / (window_secs_ * 1e9));
    num("algorithms.on_measurement_ns", atr_.on_measurement.ns_per_call(tpn));
    num("algorithms.on_urgent_ns", atr_.on_urgent.ns_per_call(tpn));
    num("lang.fold_ns", fold_ns_per_ack());
    num("ledger_ns_per_ack", ledger);
    num("wall_ns_per_ack", wall_ns_per_ack);
    num("ledger_gap_pct", 100.0 * (wall_ns_per_ack - ledger) / wall_ns_per_ack);
    num("loop_ledger_us", loop_sum_us);
    num("loop_ledger_gap_pct", 100.0 * (loop_p50 - loop_sum_us) / loop_p50);
  }
  out += "}";
  std::fprintf(stderr,
               "ccpbench %s%s: %.3f M acks/s, loop p50 %.1f us p99 %.1f us "
               "(%zu samples), churn %.0f ops/s (%llu deferred), setup %.3f s, "
               "reports/flow-RTT %.3f, urgents/flow-RTT %.3f (sched %.3f), "
               "failed %llu/%llu, correct=%d\n",
               spec_.name, trace_ ? " [traced]" : "", median(sub_ack_rates_) / 1e6,
               loop_p50, loop_p99, loop_samples_.size(),
               static_cast<double>(window_ops_) / window_secs_,
               static_cast<unsigned long long>(window_deferred_), setup_s, reports_per_flow_rtt,
               urgents_per_flow_rtt, sched_urgents,
               static_cast<unsigned long long>(failed),
               static_cast<unsigned long long>(attempted), correct ? 1 : 0);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
  std::fflush(stderr);
  return correct;
}

int usage() {
  std::fprintf(stderr,
               "usage: ccpbench --workload loop64|churn1m|heavy64_loss "
               "--seed N --seconds S [--trace 0|1]\n");
  return 2;
}

}  // namespace
}  // namespace ccpbench

int main(int argc, char** argv) {
  using namespace ccpbench;
  const char* workload = nullptr;
  uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key == "--workload") workload = argv[i + 1];
    else if (key == "--seed") seed = std::strtoull(argv[i + 1], nullptr, 10);
    else if (key == "--seconds") seconds = std::atof(argv[i + 1]);
    else if (key == "--trace") trace = std::atoi(argv[i + 1]) != 0;
    else return usage();
  }
  const Spec* spec = nullptr;
  for (const Spec& s : kSpecs) {
    if (workload != nullptr && std::strcmp(workload, s.name) == 0) spec = &s;
  }
  if (spec == nullptr || seconds <= 0) return usage();

  // Datapath and agent on distinct CPUs: unpinned, the two threads can
  // share a core and loop_p99_us turns bimodal (tens of µs against
  // milliseconds on identical runs).
  const std::vector<int> cpus = allowed_cpus();
  const int dp_cpu = cpus.size() >= 2 ? cpus[cpus.size() - 2] : -1;
  const int agent_cpu = cpus.size() >= 2 ? cpus[cpus.size() - 1] : -1;

  const double gen0 = mono_secs();
  Inputs inputs = generate(*spec, seed);
  const double gen_secs = mono_secs() - gen0;
  auto* bench = new Bench(*spec, std::move(inputs), trace, dp_cpu, agent_cpu);
  bench->setup();
  bench->measure(seconds);
  const bool quiesced = bench->quiesce();
  const bool correct = bench->report(seed, seconds, quiesced, gen_secs);
  // The agent thread has been joined; skip tearing down a million flows.
  std::_Exit(correct ? 0 : 1);
}
