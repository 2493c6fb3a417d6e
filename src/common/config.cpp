#include "common/config.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "common/number.hpp"

namespace sia {

namespace {

// Parses all of `value` into `out`'s type; throws Error naming the key.
template <class T>
T parse_value(const std::string& key, const std::string& value) {
  T out{};
  if (!parse_number(value, out)) {
    throw Error("FaultPlan: bad value for '" + key + "': '" + value + "'");
  }
  return out;
}

std::string format_double(double value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

constexpr const char* kDiskFaults[] = {"", "eio", "enospc", "short"};

// Parses "X@msg:N" / "X@op:N" suffixes: returns {head, N} where N defaults
// to `default_at` when no @-suffix is present.
std::pair<std::string, long> parse_at(const std::string& key,
                                      const std::string& value,
                                      const std::string& marker,
                                      long default_at) {
  const std::size_t at = value.find('@');
  if (at == std::string::npos) return {value, default_at};
  const std::string suffix = value.substr(at + 1);
  if (suffix.rfind(marker, 0) != 0) {
    throw Error("FaultPlan: '" + key + "' expects '@" + marker +
                "N' suffix, got '" + value + "'");
  }
  return {value.substr(0, at),
          parse_value<long>(key, suffix.substr(marker.size()))};
}

}  // namespace

FaultPlan FaultPlan::parse(const std::string& text) {
  FaultPlan plan;
  if (text.empty()) return plan;
  // Comma-separated tokens; an empty one (",,", a trailing comma) is an
  // error below.
  for (std::size_t begin = 0, end = 0; begin <= text.size(); begin = end + 1) {
    end = std::min(text.find(',', begin), text.size());
    const std::string token = text.substr(begin, end - begin);
    const std::size_t eq = token.find('=');
    if (eq == std::string::npos || eq == 0) {
      throw Error("FaultPlan: expected key=value, got '" + token + "'");
    }
    const std::string key = token.substr(0, eq);
    const std::string value = token.substr(eq + 1);
    if (key == "drop") {
      plan.drop = parse_value<double>(key, value);
    } else if (key == "dup") {
      plan.dup = parse_value<double>(key, value);
    } else if (key == "reorder") {
      plan.reorder = parse_value<double>(key, value);
    } else if (key == "delay_ms") {
      plan.delay_ms = parse_value<int>(key, value);
    } else if (key == "delay_jitter_ms") {
      plan.delay_jitter_ms = parse_value<int>(key, value);
    } else if (key == "kill_rank") {
      auto [rank, at] = parse_at(key, value, "msg:", 1);
      plan.kill_rank = parse_value<int>(key, rank);
      plan.kill_at_msg = at;
    } else if (key == "disk") {
      auto [kind, at] = parse_at(key, value, "op:", 1);
      const auto* found =
          std::find(std::begin(kDiskFaults) + 1, std::end(kDiskFaults), kind);
      if (found == std::end(kDiskFaults)) {
        throw Error("FaultPlan: unknown disk fault '" + kind +
                    "' (want eio|enospc|short)");
      }
      plan.disk_fault = static_cast<int>(found - std::begin(kDiskFaults));
      plan.disk_fault_at_op = at;
    } else if (key == "seed") {
      plan.seed = parse_value<std::uint64_t>(key, value);
    } else {
      throw Error("FaultPlan: unknown key '" + key + "'");
    }
  }
  plan.validate();
  return plan;
}

std::string FaultPlan::to_string() const {
  std::string out;
  const auto add = [&out](bool set, const std::string& item) {
    if (set) out += (out.empty() ? "" : ",") + item;
  };
  add(drop != 0.0, "drop=" + format_double(drop));
  add(dup != 0.0, "dup=" + format_double(dup));
  add(reorder != 0.0, "reorder=" + format_double(reorder));
  add(delay_ms != 0, "delay_ms=" + std::to_string(delay_ms));
  add(delay_jitter_ms != 0,
      "delay_jitter_ms=" + std::to_string(delay_jitter_ms));
  add(kill_rank != -1 || kill_at_msg != 0,
      "kill_rank=" + std::to_string(kill_rank) +
          "@msg:" + std::to_string(kill_at_msg));
  // Clamped: validate() rejects any other kind.
  add(disk_fault != 0, std::string("disk=") +
                           kDiskFaults[std::clamp(disk_fault, 0, 3)] +
                           "@op:" + std::to_string(disk_fault_at_op));
  add(seed != 1, "seed=" + std::to_string(seed));
  return out;
}

FaultPlan FaultPlan::from_env() {
  const char* text = std::getenv("SIA_FAULT_PLAN");
  if (text == nullptr) return FaultPlan{};
  return parse(text);
}

void FaultPlan::validate() const {
  for (const double p : {drop, dup, reorder}) {
    if (!(p >= 0.0 && p <= 1.0)) {
      throw Error("FaultPlan: drop, dup and reorder must be probabilities "
                  "in [0,1], got " + format_double(p));
    }
  }
  if (delay_ms < 0 || delay_jitter_ms < 0) {
    throw Error("FaultPlan: delays must be >= 0");
  }
  if (kill_rank >= 0 && kill_at_msg < 1) {
    throw Error("FaultPlan: kill_rank needs @msg:N with N >= 1");
  }
  if (disk_fault < 0 || disk_fault > 3) {
    throw Error("FaultPlan: disk fault kind out of range");
  }
  if (disk_fault != 0 && disk_fault_at_op < 1) {
    throw Error("FaultPlan: disk fault needs @op:N with N >= 1");
  }
}

namespace {

// Columns: name, member, sial_tool flag, planner axis, lo, hi; in
// SipConfig's order, which the bundle and the plan line follow.
const Knob kKnobs[] = {
    {"workers", &SipConfig::workers, "-w", false, 1},
    {"io_servers", &SipConfig::io_servers, "-s", false, 0},
    {"default_segment", &SipConfig::default_segment, "-g", true, 1},
    {"subsegments_per_segment", &SipConfig::subsegments_per_segment, nullptr,
     false, 1},
    {"worker_memory_bytes", &SipConfig::worker_memory_bytes},
    {"server_cache_bytes", &SipConfig::server_cache_bytes, nullptr, true},
    {"opt_level", &SipConfig::opt_level, nullptr, false, 0, 2},
    {"prefetch_depth", &SipConfig::prefetch_depth, nullptr, true, 0},
    {"worker_threads", &SipConfig::worker_threads, "-t", true, -1},
    {"window_limit", &SipConfig::window_limit, nullptr, true, 1},
    {"server_disk_threads", &SipConfig::server_disk_threads, nullptr, true, 0},
    {"server_cold_io", &SipConfig::server_cold_io},
    {"sparse_threshold", &SipConfig::sparse_threshold, "--sparse-threshold",
     false, 0},
    {"coalesce_puts", &SipConfig::coalesce_puts, nullptr, true},
    {"batch_gets", &SipConfig::batch_gets},
    {"chunk_divisor", &SipConfig::chunk_divisor, nullptr, true, 1},
    {"min_chunk", &SipConfig::min_chunk, nullptr, true, 1},
    {"work_stealing", &SipConfig::work_stealing},
    {"autotune", &SipConfig::autotune},
    {"calibration_file", &SipConfig::calibration_file},
    {"scratch_dir", &SipConfig::scratch_dir},
    {"dry_run_only", &SipConfig::dry_run_only},
    {"profiling", &SipConfig::profiling},
    {"fault_plan", &SipConfig::fault_plan},
    {"reliable_protocol", &SipConfig::reliable_protocol},
    {"retry_timeout_ms", &SipConfig::retry_timeout_ms, nullptr, false, 1},
    {"retry_max", &SipConfig::retry_max, nullptr, false, 1},
    {"heartbeat_ms", &SipConfig::heartbeat_ms},
    {"heartbeat_misses", &SipConfig::heartbeat_misses, nullptr, false, 1},
    {"server_recovery", &SipConfig::server_recovery},
    {"transport", &SipConfig::transport, "--transport"},
    {"socket_address", &SipConfig::socket_address},
    {"spawn_helper", &SipConfig::spawn_helper},
    {"connect_timeout_ms", &SipConfig::connect_timeout_ms, nullptr, false, 1},
};

// Knob values as text, by member type.
std::string to_text(bool value) { return value ? "on" : "off"; }
std::string to_text(double value) { return format_double(value); }
std::string to_text(const std::string& value) { return value; }
std::string to_text(const FaultPlan& value) { return value.to_string(); }
template <class T>
std::string to_text(T value) {
  return std::to_string(value);
}

bool from_text(std::string_view text, bool& value) {
  if (text != "on" && text != "off") return false;
  value = text == "on";
  return true;
}
bool from_text(std::string_view text, std::string& value) {
  value = text;
  return true;
}
bool from_text(std::string_view text, FaultPlan& value) {
  try {
    value = FaultPlan::parse(std::string(text));
    return true;
  } catch (const Error&) {
    return false;
  }
}
template <class T>
bool from_text(std::string_view text, T& value) {
  return parse_number(text, value);
}

// Calls f(prefix, map) for each map field; an entry travels as a
// `<prefix><key>=<value>` line.
template <class Config, class F>
void each_map(Config& config, F f) {
  f("segment.", config.segment_overrides);
  f("constant.", config.constants);
  f("computed.", config.computed_served);
}

}  // namespace

std::string Knob::format(const SipConfig& config) const {
  return std::visit([&](auto field) { return to_text(config.*field); },
                    member);
}

bool Knob::parse(SipConfig& config, std::string_view text) const {
  return std::visit([&](auto field) { return from_text(text, config.*field); },
                    member);
}

std::span<const Knob> knobs() { return kKnobs; }

std::string encode_config(const SipConfig& config) {
  std::string out;
  const auto line = [&out](std::string_view key, const std::string& value) {
    out.append(key).append("=").append(value).append("\n");
  };
  for (const Knob& knob : kKnobs) line(knob.name, knob.format(config));
  each_map(config, [&](const std::string& prefix, const auto& map) {
    for (const auto& [key, value] : map) line(prefix + key, to_text(value));
  });
  return out;
}

SipConfig decode_config(std::string_view text) {
  SipConfig config;
  while (!text.empty()) {
    const std::size_t eol = text.find('\n');
    const std::string_view line = text.substr(0, eol);
    const std::size_t eq = line.find('=');
    if (eol == std::string_view::npos || eq == std::string_view::npos ||
        eq == 0) {
      throw Error("SipConfig: expected a key=value line, got '" +
                  std::string(line) + "'");
    }
    text.remove_prefix(eol + 1);
    const std::string_view key = line.substr(0, eq);
    const std::string_view value = line.substr(eq + 1);
    const Knob* knob = std::find_if(std::begin(kKnobs), std::end(kKnobs),
                                    [&](const Knob& k) { return key == k.name; });
    bool known = knob != std::end(kKnobs);
    bool parsed = known && knob->parse(config, value);
    each_map(config, [&](std::string_view prefix, auto& map) {
      if (known || !key.starts_with(prefix)) return;
      known = true;
      parsed = from_text(value, map[std::string(key.substr(prefix.size()))]);
    });
    if (!parsed) {
      throw Error(std::string("SipConfig: ") +
                  (known ? "bad value in '" : "unknown key in '") +
                  std::string(line) + "'");
    }
  }
  config.validate();
  return config;
}

void SipConfig::validate() const {
  for (const Knob& knob : kKnobs) {
    double value = 0.0;  // strings and fault plans carry no bounds
    std::visit(
        [&](auto field) {
          using T = std::decay_t<decltype(this->*field)>;
          if constexpr (std::is_arithmetic_v<T>) value = this->*field;
        },
        knob.member);
    if (value >= knob.lo && value <= knob.hi) continue;
    char what[160];
    std::snprintf(what, sizeof(what),
                  "SipConfig: %s must be in [%g, %g], got %s", knob.name,
                  knob.lo, knob.hi, knob.format(*this).c_str());
    throw Error(what);
  }
  for (const auto& [type, seg] : segment_overrides) {
    if (seg < 1) {
      throw Error("SipConfig: segment override for '" + type +
                  "' must be >= 1");
    }
  }
  fault_plan.validate();
  if (transport != "thread" && transport != "loopback" &&
      transport != "spawn") {
    throw Error("SipConfig: transport must be thread, loopback, or spawn, "
                "got '" + transport + "'");
  }
  if (fault_plan.kill_rank >= total_ranks()) {
    throw Error("FaultPlan: kill_rank out of range for this launch");
  }
  if (fault_plan.kill_rank == master_rank()) {
    throw Error("FaultPlan: cannot kill the master rank");
  }
}

int SipConfig::segment_for(const std::string& index_type) const {
  auto it = segment_overrides.find(index_type);
  return it == segment_overrides.end() ? default_segment : it->second;
}

}  // namespace sia
