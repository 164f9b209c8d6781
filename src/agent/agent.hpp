// The CCP agent: the user-space "glue" between congestion control
// algorithms and datapaths (§2). It demultiplexes datapath messages to
// per-flow algorithm instances, ships Install/UpdateFields/DirectControl
// commands back, and imposes host policy (per-connection rate/cwnd caps)
// on every decision an algorithm makes.
#pragma once

#include <functional>
#include <list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "agent/algorithm.hpp"
#include "ipc/wire.hpp"
#include "util/flat_map.hpp"

namespace ccp::agent {

/// Host policy applied to all algorithm decisions (§2: "imposes policies
/// on the decisions of the congestion control algorithms, e.g.,
/// per-connection maximum transmission rates").
struct Policy {
  std::optional<double> max_rate_bps;
  std::optional<double> max_cwnd_bytes;
  std::optional<double> min_cwnd_bytes;
};

struct AgentConfig {
  std::string default_algorithm = "reno";
  Policy policy;
};

struct AgentStats {
  uint64_t flows_created = 0;
  uint64_t flows_closed = 0;
  uint64_t measurements = 0;
  uint64_t urgents = 0;
  uint64_t installs_sent = 0;
  uint64_t decode_errors = 0;
  uint64_t unknown_flow_msgs = 0;
  uint64_t unknown_algorithm = 0;
  uint64_t flows_resynced = 0;  // rebuilt from replayed FlowSummary msgs
};

/// A program as the agent prepared it under its policy (agent.cc).
struct PreparedProgram;

class CcpAgent {
 public:
  /// Outgoing-frame callback; bytes are borrowed (copy to keep).
  using FrameTx = std::function<void(std::span<const uint8_t>)>;

  CcpAgent(AgentConfig config, FrameTx tx);
  ~CcpAgent();

  /// Registers an algorithm under `name`. Flows whose Create carries that
  /// name as alg_hint (or the configured default) use this factory.
  void register_algorithm(const std::string& name, AlgorithmFactory factory);

  /// Feeds one frame from the datapath. Malformed frames are dropped.
  void handle_frame(std::span<const uint8_t> frame);

  const AgentStats& stats() const { return stats_; }
  size_t num_flows() const { return flows_.size(); }

  /// Resync filter: accept replayed FlowSummary messages only when they
  /// echo `token` (the supervisor's connection generation). Summaries
  /// from a superseded request are dropped. Zero = accept any token.
  void expect_resync(uint64_t token) { expected_resync_token_ = token; }

  /// Algorithm instance for a flow (tests/introspection); null if absent.
  Algorithm* algorithm(ipc::FlowId id);

  /// Program texts currently held prepared (tests/introspection). Bounded
  /// by lang::kDefaultProgramCacheCapacity, the datapath cache's bound.
  size_t prepared_programs() const { return prepared_.size(); }

 private:
  class FlowEntry;

  void on_create(const ipc::CreateMsg& msg);
  void on_measurement(const ipc::MeasurementMsg& msg);
  void on_urgent(const ipc::UrgentMsg& msg);
  void on_close(const ipc::FlowCloseMsg& msg);
  void on_flow_summary(const ipc::FlowSummaryMsg& msg);
  void send(const ipc::Message& msg);
  /// Parses, policy-rewrites, checks, and prints `text` once per distinct
  /// text; later calls return the cached result. Throws (and caches
  /// nothing) for a malformed or rejected program.
  std::shared_ptr<const PreparedProgram> prepare_text(std::string_view text);
  /// Copies the active control-loop span (the report/urgent currently
  /// being handled) onto an outgoing command, stamping the send time.
  /// No-op outside a handler or when the report carried no span.
  void stamp_span(telemetry::SpanStamp& span);

  AgentConfig config_;
  FrameTx tx_;
  std::map<std::string, AlgorithmFactory> registry_;  // cold: lookups at Create only
  util::FlatMap<ipc::FlowId, std::unique_ptr<FlowEntry>> flows_;
  AgentStats stats_;
  uint64_t expected_resync_token_ = 0;  // 0 = accept any

  // prepare_text's LRU, keyed by the raw program text (front = most
  // recent; the index views the list nodes' keys, stable across
  // splices). Sound because the policy is fixed for the agent's
  // lifetime. Eviction drops only the cache's reference: flows keep
  // theirs.
  struct PreparedEntry {
    std::string key;
    std::shared_ptr<const PreparedProgram> prog;
  };
  std::list<PreparedEntry> prepared_;
  std::unordered_map<std::string_view, std::list<PreparedEntry>::iterator>
      prepared_index_;

  // Hot-path scratch, reused across frames (see CcpDatapath for the
  // reentrancy discipline around rx_busy_).
  ipc::Encoder send_enc_;
  std::vector<ipc::Message> rx_scratch_;
  bool rx_busy_ = false;
  ipc::MeasurementMsg urgent_view_;  // urgent fields presented as a measurement

  // Span context of the report/urgent being handled right now; zero
  // span_id outside handlers. Commands issued from inside a handler
  // inherit it via stamp_span(), which is what links a datapath report
  // to the command it provoked.
  telemetry::SpanStamp current_span_;

  friend class FlowEntry;
};

}  // namespace ccp::agent
