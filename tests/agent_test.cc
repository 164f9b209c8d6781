#include <gtest/gtest.h>

#include "agent/agent.hpp"
#include "agent/transport_loop.hpp"
#include "lang/compiler.hpp"
#include "lang/error.hpp"
#include "lang/parser.hpp"
#include "telemetry/telemetry.hpp"

namespace ccp::agent {
namespace {

/// A scripted algorithm that records every callback.
class Probe final : public Algorithm {
 public:
  struct Shared {
    int inits = 0;
    int measurements = 0;
    int urgents = 0;
    std::vector<double> last_acked;
    ipc::UrgentKind last_kind{};
  };

  Probe(Shared* shared, std::string program,
        std::vector<std::pair<std::string, double>> vars)
      : shared_(shared), program_(std::move(program)), vars_(std::move(vars)) {}

  std::string_view name() const override { return "probe"; }
  AlgorithmTraits traits() const override { return {{"ACKs"}, {"CWND"}}; }

  void init(FlowControl& flow) override {
    ++shared_->inits;
    flow.install_text(program_, vars_);
  }
  void on_measurement(FlowControl&, const Measurement& m) override {
    ++shared_->measurements;
    shared_->last_acked.push_back(m.get("acked", -1));
  }
  void on_urgent(FlowControl&, ipc::UrgentKind kind, const Measurement&) override {
    ++shared_->urgents;
    shared_->last_kind = kind;
  }

 private:
  Shared* shared_;
  std::string program_;
  std::vector<std::pair<std::string, double>> vars_;
};

struct Harness {
  std::vector<std::vector<ipc::Message>> sent;
  Probe::Shared probe;
  AgentConfig config;
  std::unique_ptr<CcpAgent> agent;

  explicit Harness(AgentConfig cfg = {}) : config(std::move(cfg)) {
    config.default_algorithm = "probe";
    agent = std::make_unique<CcpAgent>(config, [this](std::span<const uint8_t> frame) {
      sent.push_back(ipc::decode_frame(frame));
    });
  }

  void register_probe(
      std::string program =
          "fold { volatile acked := acked + Pkt.bytes_acked init 0; }\n"
          "control { Cwnd($cwnd); WaitRtts(1.0); Report(); }",
      std::vector<std::pair<std::string, double>> vars = {{"cwnd", 14600.0}}) {
    agent->register_algorithm("probe", [this, program, vars](const FlowInfo&) {
      return std::make_unique<Probe>(&probe, program, vars);
    });
  }

  void deliver(const ipc::Message& msg) {
    agent->handle_frame(ipc::encode_frame(msg));
  }

  template <typename T>
  std::vector<T> sent_of() const {
    std::vector<T> out;
    for (const auto& frame : sent) {
      for (const auto& msg : frame) {
        if (auto* m = std::get_if<T>(&msg)) out.push_back(*m);
      }
    }
    return out;
  }
};

ipc::CreateMsg create(ipc::FlowId id, const std::string& hint = "") {
  ipc::CreateMsg m;
  m.flow_id = id;
  m.mss = 1460;
  m.init_cwnd_bytes = 14600;
  m.alg_hint = hint;
  return m;
}

TEST(Agent, CreateInstantiatesAlgorithmAndInstalls) {
  Harness h;
  h.register_probe();
  h.deliver(create(1));
  EXPECT_EQ(h.probe.inits, 1);
  EXPECT_EQ(h.agent->num_flows(), 1u);
  auto installs = h.sent_of<ipc::InstallMsg>();
  ASSERT_EQ(installs.size(), 1u);
  EXPECT_EQ(installs[0].flow_id, 1u);
  EXPECT_NO_THROW(lang::parse_program(installs[0].program_text));
}

TEST(Agent, MeasurementDispatchedByFieldName) {
  Harness h;
  h.register_probe();
  h.deliver(create(1));
  ipc::MeasurementMsg m;
  m.flow_id = 1;
  m.fields = {4321.0};  // positional: 'acked' is the only register
  h.deliver(m);
  EXPECT_EQ(h.probe.measurements, 1);
  ASSERT_EQ(h.probe.last_acked.size(), 1u);
  EXPECT_DOUBLE_EQ(h.probe.last_acked[0], 4321.0);
}

TEST(Agent, UrgentDispatched) {
  Harness h;
  h.register_probe();
  h.deliver(create(1));
  ipc::UrgentMsg u;
  u.flow_id = 1;
  u.kind = ipc::UrgentKind::Timeout;
  h.deliver(u);
  EXPECT_EQ(h.probe.urgents, 1);
  EXPECT_EQ(h.probe.last_kind, ipc::UrgentKind::Timeout);
}

TEST(Agent, UnknownFlowMessagesCounted) {
  Harness h;
  h.register_probe();
  ipc::MeasurementMsg m;
  m.flow_id = 404;
  h.deliver(m);
  EXPECT_EQ(h.agent->stats().unknown_flow_msgs, 1u);
  EXPECT_EQ(h.probe.measurements, 0);
}

TEST(Agent, UnknownAlgorithmCounted) {
  Harness h;
  h.register_probe();
  h.deliver(create(1, "quantum_tcp"));
  EXPECT_EQ(h.agent->stats().unknown_algorithm, 1u);
  EXPECT_EQ(h.agent->num_flows(), 0u);
}

TEST(Agent, FlowCloseDestroysState) {
  Harness h;
  h.register_probe();
  h.deliver(create(1));
  h.deliver(ipc::Message(ipc::FlowCloseMsg{1}));
  EXPECT_EQ(h.agent->num_flows(), 0u);
  // Subsequent measurements are orphaned, not crashes.
  ipc::MeasurementMsg m;
  m.flow_id = 1;
  h.deliver(m);
  EXPECT_EQ(h.agent->stats().unknown_flow_msgs, 1u);
}

TEST(Agent, MalformedFrameCounted) {
  Harness h;
  h.register_probe();
  std::vector<uint8_t> junk = {1, 2, 3};
  h.agent->handle_frame(junk);
  EXPECT_EQ(h.agent->stats().decode_errors, 1u);
}

TEST(Agent, PolicyCapsRateInInstalledProgram) {
  AgentConfig cfg;
  cfg.policy.max_rate_bps = 1e6;
  Harness h(cfg);
  h.register_probe("control { Rate($r); WaitRtts(1.0); Report(); }",
                   {{"r", 5e9}});
  h.deliver(create(1));
  auto installs = h.sent_of<ipc::InstallMsg>();
  ASSERT_EQ(installs.size(), 1u);
  // The cap must be baked into the program text as min(..., cap).
  EXPECT_NE(installs[0].program_text.find("min"), std::string::npos);
  EXPECT_NE(installs[0].program_text.find("1000000"), std::string::npos);
}

TEST(Agent, PolicyClampsCwndBothWays) {
  AgentConfig cfg;
  cfg.policy.min_cwnd_bytes = 3000;
  cfg.policy.max_cwnd_bytes = 50000;
  Harness h(cfg);
  h.register_probe();
  h.deliver(create(1));
  auto installs = h.sent_of<ipc::InstallMsg>();
  ASSERT_EQ(installs.size(), 1u);
  EXPECT_NE(installs[0].program_text.find("max"), std::string::npos);
  EXPECT_NE(installs[0].program_text.find("50000"), std::string::npos);
}

// Regression test for the positional update_fields bug: bindings given
// in a different order than the program's $-variable order must still
// land on the right variables.
TEST(Agent, UpdateFieldsUsesProgramVariableOrder) {
  Harness h;
  // Program order: $b first (in fold), then $a.
  h.register_probe(
      "fold { x := $b init 0; }\n"
      "control { Cwnd($a); WaitRtts(1.0); Report(); }",
      {{"a", 111.0}, {"b", 222.0}});

  class Updater final : public Algorithm {
   public:
    std::string_view name() const override { return "updater"; }
    AlgorithmTraits traits() const override { return {}; }
    void init(FlowControl& flow) override {
      flow.install_text(
          "fold { x := $b init 0; }\n"
          "control { Cwnd($a); WaitRtts(1.0); Report(); }",
          std::vector<std::pair<std::string, double>>{{"a", 111.0}, {"b", 222.0}});
    }
    void on_measurement(FlowControl& flow, const Measurement&) override {
      // Update only $a; $b must keep its old value.
      flow.update_fields(
          std::vector<std::pair<std::string, double>>{{"a", 333.0}});
    }
    void on_urgent(FlowControl&, ipc::UrgentKind, const Measurement&) override {}
  };
  h.agent->register_algorithm(
      "updater", [](const FlowInfo&) { return std::make_unique<Updater>(); });
  h.deliver(create(7, "updater"));
  ipc::MeasurementMsg m;
  m.flow_id = 7;
  m.fields = {0.0};
  h.deliver(m);

  auto updates = h.sent_of<ipc::UpdateFieldsMsg>();
  ASSERT_EQ(updates.size(), 1u);
  // Program variable order is [b, a] (b appears first in the fold).
  ASSERT_EQ(updates[0].var_values.size(), 2u);
  EXPECT_DOUBLE_EQ(updates[0].var_values[0], 222.0);  // $b preserved
  EXPECT_DOUBLE_EQ(updates[0].var_values[1], 333.0);  // $a updated
}

TEST(Agent, AlgorithmAccessorWorks) {
  Harness h;
  h.register_probe();
  h.deliver(create(1));
  ASSERT_NE(h.agent->algorithm(1), nullptr);
  EXPECT_EQ(h.agent->algorithm(1)->name(), "probe");
  EXPECT_EQ(h.agent->algorithm(2), nullptr);
}

TEST(Agent, VectorMeasurementSamplesDecoded) {
  Harness h;
  h.register_probe();
  h.deliver(create(1));
  ipc::MeasurementMsg m;
  m.flow_id = 1;
  m.is_vector = true;
  m.num_acks_folded = 2;
  m.fields = {100, 1460, 0, 0, 5e6, 6e6,   // sample 1
              200, 2920, 1, 1, 7e6, 8e6};  // sample 2
  Measurement meas(nullptr, &m);
  auto samples = meas.samples();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_DOUBLE_EQ(samples[0].rtt_us, 100);
  EXPECT_DOUBLE_EQ(samples[1].bytes_acked, 2920);
  EXPECT_DOUBLE_EQ(samples[1].lost, 1);
}

TEST(Agent, ReportLatencyBeyondOldSaturationRecordsCorrectly) {
  // Regression for the p50 = 65.535 µs plateau in BENCH_hotpath.json.
  // The emitted_ns stamp was never the problem (it is a full u64 on the
  // wire); the latency histogram's quantile() returned raw bucket uppers
  // at 8-sub-bucket resolution, so everything at the top of the
  // distribution reported exactly 65535 ns. A synthetic latency three
  // orders of magnitude past that point must round-trip through the
  // stamp and come back within the histogram's documented 3.125% bucket
  // error — not clamp.
  telemetry::set_enabled(true);
  auto& hist = telemetry::metrics().report_latency_ns;
  hist.reset();

  Harness h;
  h.register_probe();
  h.deliver(create(1));

  constexpr uint64_t kSyntheticLatencyNs = 100'000'000;  // 100 ms
  for (int i = 0; i < 9; ++i) {
    ipc::MeasurementMsg m;
    m.flow_id = 1;
    m.fields = {1.0};
    m.emitted_ns = telemetry::now_ns() - kSyntheticLatencyNs;
    h.deliver(m);
  }
  telemetry::set_enabled(false);

  ASSERT_EQ(hist.count(), 9u);
  const double p50 = hist.quantile(0.5);
  EXPECT_GT(p50, 65'535'000.0) << "latency percentile still saturating";
  EXPECT_GE(p50, static_cast<double>(kSyntheticLatencyNs) * 0.96);
  // Handler overhead between now_ns() and the record is microseconds;
  // the upper slack is bucket error, not scheduling noise.
  EXPECT_LE(p50, static_cast<double>(kSyntheticLatencyNs) * 1.04);
}

// --- resync (docs/RESILIENCE.md) ---

ipc::FlowSummaryMsg summary(ipc::FlowId id, uint64_t token,
                            uint32_t cwnd = 30'000) {
  ipc::FlowSummaryMsg m;
  m.flow_id = id;
  m.mss = 1460;
  m.cwnd_bytes = cwnd;
  m.srtt_us = 12'000;
  m.in_fallback = true;
  m.alg_hint = "";  // falls back to the configured default algorithm
  m.token = token;
  return m;
}

TEST(Agent, FlowSummaryRebuildsFlowAndReinstalls) {
  Harness h;
  h.register_probe();
  h.agent->expect_resync(3);
  h.deliver(summary(9, /*token=*/3));
  EXPECT_EQ(h.agent->num_flows(), 1u);
  EXPECT_EQ(h.agent->stats().flows_resynced, 1u);
  EXPECT_EQ(h.probe.inits, 1);  // algorithm re-initialized the flow
  // init() installs the program — that very Install is what pulls the
  // datapath flow out of fallback.
  auto installs = h.sent_of<ipc::InstallMsg>();
  ASSERT_EQ(installs.size(), 1u);
  EXPECT_EQ(installs[0].flow_id, 9u);
}

TEST(Agent, FlowSummaryFromSupersededResyncDropped) {
  Harness h;
  h.register_probe();
  h.agent->expect_resync(5);
  h.deliver(summary(9, /*token=*/4));  // stale generation
  EXPECT_EQ(h.agent->num_flows(), 0u);
  EXPECT_EQ(h.agent->stats().flows_resynced, 0u);
  h.deliver(summary(9, /*token=*/5));
  EXPECT_EQ(h.agent->num_flows(), 1u);
}

TEST(Agent, FlowSummaryForKnownFlowIsIgnored) {
  Harness h;
  h.register_probe();
  h.deliver(create(1));
  ASSERT_EQ(h.probe.inits, 1);
  // Live local state is fresher than any replay: do not re-init.
  h.deliver(summary(1, /*token=*/0));
  EXPECT_EQ(h.probe.inits, 1);
  EXPECT_EQ(h.agent->stats().flows_resynced, 0u);
}

// --- adaptive idle backoff (transport_loop.hpp) ---

// --- prepare-once Install cache ---------------------------------------

/// Installs `text(flow id)` at init and records what it sees: the
/// decoded `acked` register per measurement, and the message of any
/// ProgramError the install raised.
class TextProbe final : public Algorithm {
 public:
  struct Shared {
    std::vector<double> acked;
    std::vector<std::string> errors;
  };
  TextProbe(Shared* shared, std::string text) : shared_(shared), text_(std::move(text)) {}
  std::string_view name() const override { return "text"; }
  AlgorithmTraits traits() const override { return {}; }
  void init(FlowControl& flow) override {
    try {
      flow.install_text(text_, std::vector<std::pair<std::string, double>>{
                                   {"cwnd", 20000.0}, {"r", 5e9}});
    } catch (const lang::ProgramError& e) {
      shared_->errors.push_back(e.what());
    }
  }
  void on_measurement(FlowControl&, const Measurement& m) override {
    shared_->acked.push_back(m.get("acked", -1));
  }
  void on_urgent(FlowControl&, ipc::UrgentKind, const Measurement&) override {}

 private:
  Shared* shared_;
  std::string text_;
};

/// A valid program whose text differs per `n` (its WaitRtts constant).
std::string numbered_program(int n) {
  return "fold { x := Pkt.rtt init 0; volatile acked := acked + "
         "Pkt.bytes_acked init 0; }\n"
         "control { Cwnd($cwnd); Rate($r); WaitRtts(" +
         std::to_string(n + 1) + ".0); Report(); }";
}

struct CacheHarness {
  Harness h;
  TextProbe::Shared shared;
  explicit CacheHarness(AgentConfig cfg = {}) : h(std::move(cfg)) {
    h.agent->register_algorithm("text", [this](const FlowInfo& info) {
      // Flow id n installs program n; id >= 1000 installs program 0.
      const int n = info.id >= 1000 ? 0 : static_cast<int>(info.id);
      return std::make_unique<TextProbe>(&shared, numbered_program(n));
    });
  }
};

TEST(AgentInstallCache, CachedInstallIsByteIdenticalIncludingPolicy) {
  const bool saved = telemetry::enabled();
  telemetry::set_enabled(false);  // emitted_ns stays 0 on both installs
  AgentConfig cfg;
  cfg.policy.max_rate_bps = 1e6;
  cfg.policy.min_cwnd_bytes = 3000;
  cfg.policy.max_cwnd_bytes = 50000;
  CacheHarness c(cfg);
  c.h.deliver(create(1000, "text"));
  c.h.deliver(create(1001, "text"));
  telemetry::set_enabled(saved);
  EXPECT_TRUE(c.shared.errors.empty());
  auto installs = c.h.sent_of<ipc::InstallMsg>();
  ASSERT_EQ(installs.size(), 2u);
  EXPECT_EQ(c.h.agent->prepared_programs(), 1u);
  // Policy clamps are in the (cached) printed text.
  EXPECT_NE(installs[1].program_text.find("1000000"), std::string::npos);
  EXPECT_NE(installs[1].program_text.find("50000"), std::string::npos);
  EXPECT_NE(installs[1].program_text.find("3000"), std::string::npos);
  EXPECT_EQ(installs[0].flow_id, 1000u);
  EXPECT_EQ(installs[1].flow_id, 1001u);
  installs[1].flow_id = installs[0].flow_id;
  EXPECT_EQ(ipc::encode_frame(ipc::Message{installs[0]}),
            ipc::encode_frame(ipc::Message{installs[1]}));
}

TEST(AgentInstallCache, RejectedProgramIsNotCachedAndFailsAlike) {
  for (const char* text : {"fold { x := Pkt.rtt / 0 init 0; }\n"
                            "control { WaitRtts(1.0); Report(); }",
                            "fold { x := := init 0; }"}) {
    Harness h;
    TextProbe::Shared shared;
    h.agent->register_algorithm("bad", [&shared, text](const FlowInfo&) {
      return std::make_unique<TextProbe>(&shared, std::string(text));
    });
    for (ipc::FlowId id = 1; id <= 3; ++id) h.deliver(create(id, "bad"));
    ASSERT_EQ(shared.errors.size(), 3u) << text;
    EXPECT_EQ(shared.errors[1], shared.errors[0]);
    EXPECT_EQ(shared.errors[2], shared.errors[0]);
    EXPECT_EQ(h.agent->prepared_programs(), 0u);
    EXPECT_TRUE(h.sent_of<ipc::InstallMsg>().empty());
  }
}

TEST(AgentInstallCache, DistinctTextsStayWithinCapacity) {
  CacheHarness c;
  const int cap = static_cast<int>(lang::kDefaultProgramCacheCapacity);
  for (int n = 1; n <= cap + 1; ++n) {
    c.h.deliver(create(static_cast<ipc::FlowId>(n), "text"));
  }
  EXPECT_EQ(c.h.sent_of<ipc::InstallMsg>().size(), static_cast<size_t>(cap + 1));
  EXPECT_EQ(c.h.agent->prepared_programs(), lang::kDefaultProgramCacheCapacity);
}

TEST(AgentInstallCache, EvictedLayoutStillDecodesReports) {
  CacheHarness c;
  c.h.deliver(create(1, "text"));  // program 1, then evicted below
  const int cap = static_cast<int>(lang::kDefaultProgramCacheCapacity);
  for (int n = 2; n <= cap + 1; ++n) {
    c.h.deliver(create(static_cast<ipc::FlowId>(n), "text"));
  }
  ASSERT_EQ(c.h.agent->prepared_programs(), lang::kDefaultProgramCacheCapacity);
  ipc::MeasurementMsg m;
  m.flow_id = 1;
  m.fields = {7.0, 4321.0};  // [x, acked]
  c.h.deliver(m);
  ASSERT_EQ(c.shared.acked.size(), 1u);
  EXPECT_DOUBLE_EQ(c.shared.acked[0], 4321.0);
}

TEST(AdaptiveBackoff, DoublesFromFloorToCapAndResets) {
  AdaptiveBackoff b;  // 50 us floor, 1 ms cap
  using std::chrono::microseconds;
  EXPECT_EQ(b.next(), microseconds(50));
  EXPECT_EQ(b.next(), microseconds(100));
  EXPECT_EQ(b.next(), microseconds(200));
  EXPECT_EQ(b.next(), microseconds(400));
  EXPECT_EQ(b.next(), microseconds(800));
  EXPECT_EQ(b.next(), microseconds(1000));  // capped, not 1600
  EXPECT_EQ(b.next(), microseconds(1000));  // stays at the cap
  b.reset();  // traffic arrived: back to the floor
  EXPECT_EQ(b.next(), microseconds(50));
}

TEST(AdaptiveBackoff, CustomBounds) {
  AdaptiveBackoff b(std::chrono::microseconds(10),
                    std::chrono::microseconds(35));
  EXPECT_EQ(b.next(), std::chrono::microseconds(10));
  EXPECT_EQ(b.next(), std::chrono::microseconds(20));
  EXPECT_EQ(b.next(), std::chrono::microseconds(35));
  EXPECT_EQ(b.current(), std::chrono::microseconds(35));
}

}  // namespace
}  // namespace ccp::agent
