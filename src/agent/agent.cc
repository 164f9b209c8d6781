#include "agent/agent.hpp"

#include <utility>

#include "lang/compiler.hpp"
#include "lang/error.hpp"
#include "lang/parser.hpp"
#include "lang/printer.hpp"
#include "lang/sema.hpp"
#include "telemetry/telemetry.hpp"
#include "util/logging.hpp"

namespace ccp::agent {

namespace {

/// Applies host policy by rewriting the program AST: every Rate(x)
/// becomes Rate(min(x, cap)) and every Cwnd(x) becomes
/// Cwnd(min(max(x, lo), hi)). The clamps travel *with* the program into
/// the datapath, so policy holds even between agent round trips.
void apply_policy(lang::Program& prog, const Policy& policy) {
  for (auto& instr : prog.control) {
    if (instr.op == lang::ControlInstr::Op::SetRate && policy.max_rate_bps) {
      instr.arg = prog.arena.add_binary(lang::BinaryOp::Min, instr.arg,
                                        prog.arena.add_const(*policy.max_rate_bps));
    }
    if (instr.op == lang::ControlInstr::Op::SetCwnd) {
      if (policy.min_cwnd_bytes) {
        instr.arg = prog.arena.add_binary(lang::BinaryOp::Max, instr.arg,
                                          prog.arena.add_const(*policy.min_cwnd_bytes));
      }
      if (policy.max_cwnd_bytes) {
        instr.arg = prog.arena.add_binary(lang::BinaryOp::Min, instr.arg,
                                          prog.arena.add_const(*policy.max_cwnd_bytes));
      }
    }
  }
}

}  // namespace

/// What the agent derives from one program under its policy: the
/// policy-rewritten, checked program text an Install carries, plus the
/// layout its reports are decoded with. Immutable once built, so every
/// flow running the program shares one copy.
struct PreparedProgram {
  std::string text;                      // printed, policy-applied program
  std::vector<std::string> field_names;  // fold registers, report order
  std::vector<std::string> var_names;    // $vars, UpdateFields order
};

namespace {

/// Policy-rewrites, checks, and prints one program. Throws for a program
/// the datapath must never see.
std::shared_ptr<const PreparedProgram> prepare(lang::Program prog,
                                               const Policy& policy) {
  apply_policy(prog, policy);
  // Reject bad programs here, before they ever reach the datapath.
  lang::check_or_throw(prog);
  auto out = std::make_shared<PreparedProgram>();
  out->text = lang::print_program(prog);
  for (const auto& reg : prog.folds) out->field_names.push_back(reg.name);
  out->var_names = prog.vars;
  return out;
}

/// The layout a flow decodes with before its first Install.
const std::shared_ptr<const PreparedProgram>& empty_layout() {
  static const std::shared_ptr<const PreparedProgram> empty =
      std::make_shared<PreparedProgram>();
  return empty;
}

double clamp_opt(double v, const std::optional<double>& lo,
                 const std::optional<double>& hi) {
  if (lo && v < *lo) v = *lo;
  if (hi && v > *hi) v = *hi;
  return v;
}

}  // namespace

double Measurement::get(std::string_view name, double fallback) const {
  if (names_ == nullptr) return fallback;
  for (size_t i = 0; i < names_->size() && i < msg_->fields.size(); ++i) {
    if ((*names_)[i] == name) return msg_->fields[i];
  }
  return fallback;
}

bool Measurement::has(std::string_view name) const {
  if (names_ == nullptr) return false;
  for (size_t i = 0; i < names_->size() && i < msg_->fields.size(); ++i) {
    if ((*names_)[i] == name) return true;
  }
  return false;
}

std::vector<PktSample> Measurement::samples() const {
  std::vector<PktSample> out;
  if (!msg_->is_vector) return out;
  constexpr size_t kFields = 6;
  const size_t n = msg_->fields.size() / kFields;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const double* f = msg_->fields.data() + i * kFields;
    out.push_back(PktSample{f[0], f[1], f[2], f[3], f[4], f[5]});
  }
  return out;
}

/// Per-flow bookkeeping in the agent: the algorithm instance, the layout
/// of the installed program (to decode positional reports), and the
/// FlowControl implementation handed to the algorithm.
class CcpAgent::FlowEntry final : public FlowControl {
 public:
  FlowEntry(CcpAgent* agent, FlowInfo info, std::unique_ptr<Algorithm> alg,
            bool supports_programs)
      : agent_(agent),
        info_(info),
        alg_(std::move(alg)),
        supports_programs_(supports_programs) {}

  Algorithm& alg() { return *alg_; }
  /// The installed program's layout. Handlers hold their own reference:
  /// an algorithm that reinstalls mid-handler replaces this one.
  const std::shared_ptr<const PreparedProgram>& layout() const { return layout_; }

  /// Install round-trip bookkeeping: send_install() stamps, the first
  /// report that arrives afterwards closes the loop (there is no
  /// install-ack message; the next report proves the program is live).
  uint64_t take_install_sent_ns() {
    const uint64_t t = install_sent_ns_;
    install_sent_ns_ = 0;
    return t;
  }

  // --- FlowControl ---

  const FlowInfo& info() const override { return info_; }

  void install(const lang::Program& program,
               std::span<const std::pair<std::string, double>> vars) override {
    if (!supports_programs_) {
      install_direct(vars);
      return;
    }
    // prepare() takes a copy, so policy rewriting leaves the caller's
    // AST alone.
    send_install(prepare(program, agent_->config_.policy), vars);
  }

  void install_text(std::string program_text,
                    std::span<const std::pair<std::string, double>> vars) override {
    if (!supports_programs_) {
      // Malformed text still throws, as on a programmable datapath.
      (void)lang::parse_program(program_text);
      install_direct(vars);
      return;
    }
    send_install(agent_->prepare_text(program_text), vars);
  }

  void update_fields(std::span<const std::pair<std::string, double>> vars) override {
    if (!supports_programs_) {
      // Refresh the remembered bindings, then issue direct commands.
      const auto& var_names = layout_->var_names;
      for (const auto& [name, value] : vars) {
        for (size_t i = 0; i < var_names.size(); ++i) {
          if (var_names[i] == name) {
            last_var_values_[i] = value;
            break;
          }
        }
      }
      translate_to_direct(vars);
      return;
    }
    ipc::UpdateFieldsMsg msg;
    msg.flow_id = info_.id;
    const auto& var_names = layout_->var_names;
    msg.var_values.assign(var_names.size(), 0.0);
    for (size_t i = 0; i < var_names.size(); ++i) {
      bool found = false;
      for (const auto& [name, value] : vars) {
        if (name == var_names[i]) {
          msg.var_values[i] = value;
          found = true;
          break;
        }
      }
      if (!found) msg.var_values[i] = last_var_values_[i];
    }
    last_var_values_ = msg.var_values;
    agent_->stamp_span(msg.span);
    agent_->send(ipc::Message(std::move(msg)));
  }

  void set_cwnd(double bytes) override {
    ipc::DirectControlMsg msg;
    msg.flow_id = info_.id;
    msg.cwnd_bytes = clamp_opt(bytes, agent_->config_.policy.min_cwnd_bytes,
                               agent_->config_.policy.max_cwnd_bytes);
    agent_->stamp_span(msg.span);
    agent_->send(msg);
  }

  void set_rate(double bps) override {
    ipc::DirectControlMsg msg;
    msg.flow_id = info_.id;
    msg.rate_bps = clamp_opt(bps, std::nullopt, agent_->config_.policy.max_rate_bps);
    agent_->stamp_span(msg.span);
    agent_->send(msg);
  }

  void set_vector_mode(bool enabled) override {
    vector_mode_requested_ = enabled;
  }
  bool vector_mode_requested() const { return vector_mode_requested_; }

 private:
  /// Capability translation for program-less datapaths (§2.1: "it is
  /// also possible to support programs purely by issuing commands from
  /// the CCP each RTT"): by convention, algorithm programs bind their
  /// window as $cwnd (or $cwnd_cap) and their rate as $rate; those
  /// bindings become DirectControl commands. Everything else the program
  /// would have computed is lost — the fidelity cost of a limited
  /// datapath, quantified by bench_datapath_capability.
  void translate_to_direct(std::span<const std::pair<std::string, double>> vars) {
    ipc::DirectControlMsg msg;
    msg.flow_id = info_.id;
    for (const auto& [name, value] : vars) {
      if (name == "cwnd") {
        msg.cwnd_bytes = clamp_opt(value, agent_->config_.policy.min_cwnd_bytes,
                                   agent_->config_.policy.max_cwnd_bytes);
      } else if (name == "cwnd_cap" && !msg.cwnd_bytes.has_value()) {
        msg.cwnd_bytes = clamp_opt(value, agent_->config_.policy.min_cwnd_bytes,
                                   agent_->config_.policy.max_cwnd_bytes);
      } else if (name == "rate") {
        msg.rate_bps =
            clamp_opt(value, std::nullopt, agent_->config_.policy.max_rate_bps);
      }
    }
    if (msg.cwnd_bytes.has_value() || msg.rate_bps.has_value()) {
      agent_->stamp_span(msg.span);
      agent_->send(msg);
    }
  }

  /// Limited datapath: fixed report layout, direct control only.
  void install_direct(std::span<const std::pair<std::string, double>> vars) {
    auto layout = std::make_shared<PreparedProgram>();
    layout->field_names = ipc::prototype_field_names();
    last_var_values_.clear();
    for (const auto& [name, value] : vars) {
      layout->var_names.push_back(name);
      last_var_values_.push_back(value);
    }
    layout_ = std::move(layout);
    translate_to_direct(vars);
  }

  void send_install(std::shared_ptr<const PreparedProgram> prog,
                    std::span<const std::pair<std::string, double>> vars) {
    ipc::InstallMsg msg;
    msg.flow_id = info_.id;
    msg.program_text = prog->text;
    msg.vector_mode = vector_mode_requested_;
    for (const auto& [name, value] : vars) {
      msg.var_names.push_back(name);
      msg.var_values.push_back(value);
    }

    // Remember the layout for decoding subsequent reports. Crucially,
    // last_var_values_ follows the *program's* variable order, because
    // UpdateFieldsMsg is positional in that order — not in whatever
    // order the algorithm happened to list bindings.
    layout_ = std::move(prog);
    const auto& var_names = layout_->var_names;
    last_var_values_.assign(var_names.size(), 0.0);
    for (size_t i = 0; i < var_names.size(); ++i) {
      for (const auto& [name, value] : vars) {
        if (name == var_names[i]) {
          last_var_values_[i] = value;
          break;
        }
      }
    }

    ++agent_->stats_.installs_sent;
    if (telemetry::enabled()) {
      telemetry::metrics().agent_installs.inc();
      install_sent_ns_ = telemetry::now_ns();
      msg.emitted_ns = install_sent_ns_;
      telemetry::trace(telemetry::TraceKind::InstallSent, info_.id, 0.0);
    }
    agent_->stamp_span(msg.span);
    agent_->send(ipc::Message(std::move(msg)));
  }

  CcpAgent* agent_;
  FlowInfo info_;
  std::unique_ptr<Algorithm> alg_;
  bool supports_programs_;
  std::shared_ptr<const PreparedProgram> layout_ = empty_layout();
  std::vector<double> last_var_values_;
  bool vector_mode_requested_ = false;
  uint64_t install_sent_ns_ = 0;
};

CcpAgent::CcpAgent(AgentConfig config, FrameTx tx)
    : config_(std::move(config)), tx_(std::move(tx)) {}

CcpAgent::~CcpAgent() = default;

void CcpAgent::register_algorithm(const std::string& name, AlgorithmFactory factory) {
  registry_[name] = std::move(factory);
}

Algorithm* CcpAgent::algorithm(ipc::FlowId id) {
  auto* slot = flows_.find(id);
  return slot == nullptr ? nullptr : &(*slot)->alg();
}

std::shared_ptr<const PreparedProgram> CcpAgent::prepare_text(
    std::string_view text) {
  if (auto it = prepared_index_.find(text); it != prepared_index_.end()) {
    prepared_.splice(prepared_.begin(), prepared_, it->second);  // most recent
    return it->second->prog;
  }
  // Throws before anything is cached: a rejected text fails the same way
  // on every install.
  auto prog = prepare(lang::parse_program(text), config_.policy);
  prepared_.push_front(PreparedEntry{std::string(text), prog});
  prepared_index_.emplace(prepared_.front().key, prepared_.begin());
  while (prepared_.size() > lang::kDefaultProgramCacheCapacity) {
    prepared_index_.erase(prepared_.back().key);
    prepared_.pop_back();
  }
  return prog;
}

void CcpAgent::send(const ipc::Message& msg) {
  send_enc_.clear();
  ipc::encode_frame_into(send_enc_, msg);
  tx_(send_enc_.buffer());
}

void CcpAgent::stamp_span(telemetry::SpanStamp& span) {
  if (current_span_.span_id == 0) return;
  span = current_span_;
  span.agent_send_ns = telemetry::now_ns();
}

void CcpAgent::handle_frame(std::span<const uint8_t> frame) {
  const bool use_scratch = !rx_busy_;
  std::vector<ipc::Message> local;
  std::vector<ipc::Message>& msgs = use_scratch ? rx_scratch_ : local;
  if (use_scratch) rx_busy_ = true;
  size_t n_msgs = 0;
  try {
    n_msgs = ipc::decode_frame_into(frame, msgs);
  } catch (const ipc::WireError& e) {
    if (use_scratch) rx_busy_ = false;
    ++stats_.decode_errors;
    if (telemetry::enabled()) telemetry::metrics().agent_decode_errors.inc();
    CCP_WARN("agent: dropping malformed frame: %s", e.what());
    return;
  }
  for (size_t i = 0; i < n_msgs; ++i) {
    const auto& msg = msgs[i];
    std::visit(
        [this](const auto& m) {
          using T = std::decay_t<decltype(m)>;
          if constexpr (std::is_same_v<T, ipc::CreateMsg>) on_create(m);
          else if constexpr (std::is_same_v<T, ipc::MeasurementMsg>) on_measurement(m);
          else if constexpr (std::is_same_v<T, ipc::UrgentMsg>) on_urgent(m);
          else if constexpr (std::is_same_v<T, ipc::FlowCloseMsg>) on_close(m);
          else if constexpr (std::is_same_v<T, ipc::FlowSummaryMsg>) on_flow_summary(m);
          else {
            CCP_WARN("agent: unexpected message type from datapath");
          }
        },
        msg);
  }
  if (use_scratch) rx_busy_ = false;
}

void CcpAgent::on_create(const ipc::CreateMsg& msg) {
  const std::string& alg_name =
      msg.alg_hint.empty() ? config_.default_algorithm : msg.alg_hint;
  auto factory_it = registry_.find(alg_name);
  if (factory_it == registry_.end()) {
    ++stats_.unknown_algorithm;
    CCP_WARN("agent: no algorithm '%s' registered for flow %u; flow will run the "
             "datapath default program",
             alg_name.c_str(), msg.flow_id);
    return;
  }
  FlowInfo info;
  info.id = msg.flow_id;
  info.mss = msg.mss;
  info.init_cwnd_bytes = msg.init_cwnd_bytes;

  auto entry = std::make_unique<FlowEntry>(this, info, factory_it->second(info),
                                           msg.supports_programs);
  FlowEntry& ref = *entry;
  flows_.insert_or_assign(msg.flow_id, std::move(entry));
  ++stats_.flows_created;
  try {
    ref.alg().init(ref);
  } catch (const lang::ProgramError& e) {
    CCP_ERROR("agent: algorithm '%s' failed to initialize flow %u: %s",
              alg_name.c_str(), msg.flow_id, e.what());
  }
}

void CcpAgent::on_flow_summary(const ipc::FlowSummaryMsg& msg) {
  if (expected_resync_token_ != 0 && msg.token != expected_resync_token_) {
    return;  // replay from a superseded resync request
  }
  if (flows_.find(msg.flow_id) != nullptr) {
    return;  // flow already known; our state is fresher than the replay
  }
  const std::string& alg_name =
      msg.alg_hint.empty() ? config_.default_algorithm : msg.alg_hint;
  auto factory_it = registry_.find(alg_name);
  if (factory_it == registry_.end()) {
    ++stats_.unknown_algorithm;
    CCP_WARN("agent: no algorithm '%s' registered for resynced flow %u",
             alg_name.c_str(), msg.flow_id);
    return;
  }
  FlowInfo info;
  info.id = msg.flow_id;
  info.mss = msg.mss;
  // Resume near where the flow actually is (the live enforced window),
  // not from the original init_cwnd — a restarted agent must not reset
  // every flow to slow start.
  info.init_cwnd_bytes = msg.cwnd_bytes != 0 ? msg.cwnd_bytes : 10 * msg.mss;

  auto entry = std::make_unique<FlowEntry>(this, info, factory_it->second(info),
                                           /*supports_programs=*/true);
  FlowEntry& ref = *entry;
  flows_.insert_or_assign(msg.flow_id, std::move(entry));
  ++stats_.flows_resynced;
  if (telemetry::enabled()) telemetry::metrics().agent_flows_resynced.inc();
  try {
    // init() installs the algorithm's program, which is what pulls the
    // flow out of the datapath's safe-mode fallback.
    ref.alg().init(ref);
  } catch (const lang::ProgramError& e) {
    CCP_ERROR("agent: algorithm '%s' failed to resync flow %u: %s",
              alg_name.c_str(), msg.flow_id, e.what());
  }
}

void CcpAgent::on_measurement(const ipc::MeasurementMsg& msg) {
  auto* slot = flows_.find(msg.flow_id);
  if (slot == nullptr) {
    ++stats_.unknown_flow_msgs;
    if (telemetry::enabled()) telemetry::metrics().agent_unknown_flow.inc();
    return;
  }
  ++stats_.measurements;
  FlowEntry& entry = **slot;
  uint64_t t0 = 0;
  if (telemetry::enabled()) {
    auto& tm = telemetry::metrics();
    tm.agent_measurements.inc();
    t0 = telemetry::now_ns();
    // One clock read covers both: report->handler latency ends where the
    // handler-duration window begins.
    if (msg.emitted_ns != 0 && t0 > msg.emitted_ns) {
      tm.report_latency_ns.record(t0 - msg.emitted_ns);
    }
    if (const uint64_t sent = entry.take_install_sent_ns();
        sent != 0 && t0 > sent) {
      tm.install_rtt_ns.record(t0 - sent);
    }
    telemetry::trace(telemetry::TraceKind::Measurement, msg.flow_id,
                     static_cast<double>(msg.report_seq));
    // Open the span context for the handler: any command the algorithm
    // issues from on_measurement inherits this report's span.
    current_span_.span_id = msg.span_id;
    current_span_.emit_ns = msg.emitted_ns;
    current_span_.agent_recv_ns = t0;
  }
  const std::shared_ptr<const PreparedProgram> layout = entry.layout();
  Measurement m(&layout->field_names, &msg);
  entry.alg().on_measurement(entry, m);
  current_span_ = telemetry::SpanStamp{};
  if (t0 != 0) {
    telemetry::metrics().agent_measurement_handler_ns.record(
        telemetry::now_ns() - t0);
  }
}

void CcpAgent::on_urgent(const ipc::UrgentMsg& msg) {
  auto* slot = flows_.find(msg.flow_id);
  if (slot == nullptr) {
    ++stats_.unknown_flow_msgs;
    if (telemetry::enabled()) telemetry::metrics().agent_unknown_flow.inc();
    return;
  }
  ++stats_.urgents;
  uint64_t t0 = 0;
  if (telemetry::enabled()) {
    auto& tm = telemetry::metrics();
    tm.agent_urgents.inc();
    t0 = telemetry::now_ns();
    if (msg.emitted_ns != 0 && t0 > msg.emitted_ns) {
      tm.urgent_latency_ns.record(t0 - msg.emitted_ns);
    }
    current_span_.span_id = msg.span_id;
    current_span_.emit_ns = msg.emitted_ns;
    current_span_.agent_recv_ns = t0;
  }
  FlowEntry& entry = **slot;
  // Urgent snapshots share the fold layout with measurements. The view
  // struct is a reused member: fields are copied (capacity reused), not
  // reallocated, per urgent.
  urgent_view_.flow_id = msg.flow_id;
  urgent_view_.fields.assign(msg.fields.begin(), msg.fields.end());
  const std::shared_ptr<const PreparedProgram> layout = entry.layout();
  Measurement m(&layout->field_names, &urgent_view_);
  entry.alg().on_urgent(entry, msg.kind, m);
  current_span_ = telemetry::SpanStamp{};
  if (t0 != 0) {
    telemetry::metrics().agent_urgent_handler_ns.record(telemetry::now_ns() - t0);
  }
}

void CcpAgent::on_close(const ipc::FlowCloseMsg& msg) {
  if (flows_.erase(msg.flow_id) > 0) ++stats_.flows_closed;
}

}  // namespace ccp::agent
