#include "scenario/spec.hpp"

#include <cstdio>
#include <sstream>
#include <stdexcept>

#include "util/units.hpp"

namespace ccp::scenario {

namespace {

[[noreturn]] void bad(const std::string& what) {
  throw std::invalid_argument("scenario spec: " + what);
}

/// Splits "key=value" (value may be empty for flag-like tokens).
std::pair<std::string, std::string> split_kv(const std::string& token) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos) bad("expected key=value, got '" + token + "'");
  return {token.substr(0, eq), token.substr(eq + 1)};
}

double parse_num(const std::string& key, const std::string& value) {
  try {
    size_t used = 0;
    const double v = std::stod(value, &used);
    if (used != value.size()) throw std::invalid_argument(value);
    return v;
  } catch (const std::exception&) {
    bad("bad number for " + key + ": '" + value + "'");
  }
}

LinkSpec parse_link(std::istringstream& rest) {
  LinkSpec link;
  std::string token;
  while (rest >> token) {
    auto [key, value] = split_kv(token);
    if (key == "rate") {
      link.rate_bps = parse_bandwidth_bps(value);
    } else if (key == "delay") {
      link.delay = parse_duration(value);
    } else if (key == "buffer") {
      link.buffer_bdp = parse_num(key, value);
    } else if (key == "queue_bytes") {
      link.queue_bytes = static_cast<uint64_t>(parse_num(key, value));
    } else if (key == "ecn") {
      link.ecn_threshold_bdp = parse_num(key, value);
    } else if (key == "loss") {
      link.random_loss = parse_num(key, value);
    } else if (key.rfind("rate@", 0) == 0) {
      // rate@<time>=<bandwidth>: one variable-rate schedule entry.
      link.rate_schedule.push_back(
          {parse_duration(key.substr(5)), parse_bandwidth_bps(value)});
    } else {
      bad("unknown link key '" + key + "'");
    }
  }
  return link;
}

FlowGroupSpec parse_group(std::istringstream& rest) {
  FlowGroupSpec group;
  std::string token;
  while (rest >> token) {
    auto [key, value] = split_kv(token);
    if (key == "name") {
      group.name = value;
    } else if (key == "alg") {
      group.alg = value;
    } else if (key == "count") {
      group.count = static_cast<uint32_t>(parse_num(key, value));
    } else if (key == "start") {
      group.start_secs = parse_num(key, value);
    } else if (key == "stop") {
      group.stop_secs = parse_num(key, value);
    } else if (key == "stagger") {
      group.stagger_secs = parse_num(key, value);
    } else if (key == "extra_rtt") {
      group.extra_rtt = parse_duration(value);
    } else if (key == "rtt_step") {
      group.rtt_step = parse_duration(value);
    } else if (key == "hops") {
      // "a-b" or a single hop index.
      const size_t dash = value.find('-');
      if (dash == std::string::npos) {
        group.hop_first = group.hop_last =
            static_cast<size_t>(parse_num(key, value));
      } else {
        group.hop_first =
            static_cast<size_t>(parse_num(key, value.substr(0, dash)));
        group.hop_last =
            static_cast<size_t>(parse_num(key, value.substr(dash + 1)));
      }
    } else if (key == "coupled") {
      group.coupled_subflows = static_cast<uint32_t>(parse_num(key, value));
    } else if (key == "ecn") {
      group.ecn = parse_num(key, value) != 0;
    } else {
      bad("unknown group key '" + key + "'");
    }
  }
  if (group.name.empty()) group.name = group.alg;
  return group;
}

}  // namespace

void ScenarioSpec::validate() const {
  if (name.empty()) bad("missing name");
  if (links.empty()) bad("at least one link required");
  if (topology == Topology::kOneHop && links.size() != 1) {
    bad("dumbbell topology takes exactly one link");
  }
  if (groups.empty()) bad("at least one flow group required");
  if (duration_secs <= 0) bad("duration must be positive");
  if (sample_interval_secs <= 0) bad("sample interval must be positive");
  for (const LinkSpec& link : links) {
    if (link.rate_bps <= 0) bad("link rate must be positive");
    if (link.random_loss < 0 || link.random_loss >= 1) {
      bad("link loss must be in [0, 1)");
    }
    for (size_t i = 1; i < link.rate_schedule.size(); ++i) {
      if (link.rate_schedule[i].at <= link.rate_schedule[i - 1].at) {
        bad("rate schedule must be ascending in time");
      }
    }
    for (const sim::RateChange& change : link.rate_schedule) {
      if (change.rate_bps <= 0) bad("scheduled rate must be positive");
    }
  }
  for (const FlowGroupSpec& group : groups) {
    if (group.count == 0) bad("group '" + group.name + "': count must be >= 1");
    if (group.alg.empty()) bad("group '" + group.name + "': missing alg");
    if (group.start_secs < 0) {
      bad("group '" + group.name + "': start must be >= 0");
    }
    if (group.stop_secs >= 0 && group.stop_secs <= group.start_secs) {
      bad("group '" + group.name + "': stop must be after start");
    }
    if (group.hop_first >= links.size()) {
      bad("group '" + group.name + "': hop_first beyond last hop");
    }
    if (group.hop_last < group.hop_first) {
      bad("group '" + group.name + "': hop_last before hop_first");
    }
    if (group.coupled_subflows < 1) {
      bad("group '" + group.name + "': coupled must be >= 1");
    }
    if (group.coupled_subflows > 1 && group.count % group.coupled_subflows) {
      bad("group '" + group.name + "': count must be a multiple of coupled");
    }
  }
}

ScenarioSpec parse_spec(const std::string& text) {
  ScenarioSpec spec;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (const size_t hash = line.find('#'); hash != std::string::npos) {
      line.resize(hash);
    }
    std::istringstream rest(line);
    std::string directive;
    if (!(rest >> directive)) continue;  // blank line
    if (directive == "scenario") {
      if (!(rest >> spec.name)) bad("scenario directive needs a name");
    } else if (directive == "describe") {
      std::string word, text_out;
      while (rest >> word) {
        if (!text_out.empty()) text_out += ' ';
        text_out += word;
      }
      spec.description = text_out;
    } else if (directive == "topology") {
      std::string kind;
      rest >> kind;
      if (kind == "dumbbell") {
        spec.topology = Topology::kOneHop;
      } else if (kind == "parking_lot") {
        spec.topology = Topology::kParkingLot;
      } else {
        bad("unknown topology '" + kind + "'");
      }
    } else if (directive == "duration") {
      std::string value;
      rest >> value;
      spec.duration_secs = parse_num(directive, value);
    } else if (directive == "seed") {
      std::string value;
      rest >> value;
      spec.seed = static_cast<uint64_t>(parse_num(directive, value));
    } else if (directive == "ipc") {
      std::string value;
      rest >> value;
      spec.ipc_delay = parse_duration(value);
    } else if (directive == "sample_interval") {
      std::string value;
      rest >> value;
      spec.sample_interval_secs = parse_num(directive, value);
    } else if (directive == "link") {
      spec.links.push_back(parse_link(rest));
    } else if (directive == "group") {
      spec.groups.push_back(parse_group(rest));
    } else {
      bad("unknown directive '" + directive + "'");
    }
  }
  spec.validate();
  return spec;
}

std::string format_spec(const ScenarioSpec& spec) {
  std::string out;
  char buf[256];
  auto emit = [&](const char* fmt, auto... args) {
    const int n = std::snprintf(buf, sizeof(buf), fmt, args...);
    if (n > 0) out.append(buf, static_cast<size_t>(n));
  };
  emit("scenario %s\n", spec.name.c_str());
  if (!spec.description.empty()) emit("describe %s\n", spec.description.c_str());
  emit("topology %s\n",
       spec.topology == Topology::kOneHop ? "dumbbell" : "parking_lot");
  emit("duration %g\n", spec.duration_secs);
  emit("seed %llu\n", static_cast<unsigned long long>(spec.seed));
  emit("ipc %lldus\n", static_cast<long long>(spec.ipc_delay.micros()));
  emit("sample_interval %g\n", spec.sample_interval_secs);
  for (const LinkSpec& link : spec.links) {
    emit("link rate=%gbps delay=%lldus buffer=%g", link.rate_bps,
         static_cast<long long>(link.delay.micros()), link.buffer_bdp);
    if (link.queue_bytes > 0) {
      emit(" queue_bytes=%llu", static_cast<unsigned long long>(link.queue_bytes));
    }
    if (link.ecn_threshold_bdp >= 0) emit(" ecn=%g", link.ecn_threshold_bdp);
    if (link.random_loss > 0) emit(" loss=%g", link.random_loss);
    for (const sim::RateChange& change : link.rate_schedule) {
      emit(" rate@%lldus=%gbps", static_cast<long long>(change.at.micros()),
           change.rate_bps);
    }
    emit("\n");
  }
  for (const FlowGroupSpec& group : spec.groups) {
    emit("group name=%s alg=%s count=%u start=%g", group.name.c_str(),
         group.alg.c_str(), group.count, group.start_secs);
    if (group.stop_secs >= 0) emit(" stop=%g", group.stop_secs);
    if (group.stagger_secs > 0) emit(" stagger=%g", group.stagger_secs);
    if (group.extra_rtt > Duration::zero()) {
      emit(" extra_rtt=%lldus", static_cast<long long>(group.extra_rtt.micros()));
    }
    if (group.rtt_step > Duration::zero()) {
      emit(" rtt_step=%lldus", static_cast<long long>(group.rtt_step.micros()));
    }
    if (group.hop_first != 0 || group.hop_last != SIZE_MAX) {
      emit(" hops=%zu-%zu", group.hop_first,
           group.hop_last == SIZE_MAX ? spec.links.size() - 1 : group.hop_last);
    }
    if (group.coupled_subflows > 1) emit(" coupled=%u", group.coupled_subflows);
    if (group.ecn) emit(" ecn=1");
    emit("\n");
  }
  return out;
}

}  // namespace ccp::scenario
