// Per-layer metrics: names, units, and how each is read from the
// counters a run returns (ProfileReport, TrafficStats, WorkerTotals) or
// from the spans the traced run records around the public API calls.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sial/bytecode.hpp"
#include "sip/launch.hpp"

namespace perfbench {

struct LayerMetric {
  std::string name;  // "layer.key"; the counter's layer and key
  std::string unit;
  // Set: the metric is the median duration of this span. Empty: the
  // median of the counter `name` names.
  std::string span;
};

// Every per-layer metric, in BENCHMARK.json order.
const std::vector<LayerMetric>& layer_metrics();

// Splits "sip.wait.block_s" into the counter layer "sip.wait" and key
// "block_s".
std::pair<std::string, std::string> split_name(const std::string& name);

// The per-layer counters of one run, keyed by metric name. Under spawn
// transport the profile-derived metrics are left out, never zeroed.
// `program` is the optimized program the run executed (for mapping
// profile lines to contraction instructions).
std::map<std::string, double> run_counters(
    const sia::sip::RunResult& result, const sia::sial::CompiledProgram& program,
    double run_seconds, bool spawned);

// Bytecode instructions left after optimization (nops excluded).
double live_instructions(const sia::sial::CompiledProgram& program);

}  // namespace perfbench
