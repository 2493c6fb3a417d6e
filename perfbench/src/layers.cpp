#include "layers.hpp"

#include <set>

namespace perfbench {

namespace {

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

LayerMetric span(const std::string& name, const std::string& span_name) {
  return LayerMetric{name, "s", span_name};
}

LayerMetric counter(const std::string& name, const std::string& unit) {
  return LayerMetric{name, unit, ""};
}

// Source lines holding a contraction (block_binary with the * operator).
std::set<int> contraction_lines(const sia::sial::CompiledProgram& program) {
  std::set<int> lines;
  for (const sia::sial::Instruction& instr : program.code) {
    if (instr.op == sia::sial::Opcode::kBlockBinary &&
        static_cast<sia::sial::BinOp>(instr.a1) == sia::sial::BinOp::kMul) {
      lines.insert(instr.line);
    }
  }
  return lines;
}

}  // namespace

const std::vector<LayerMetric>& layer_metrics() {
  static const std::vector<LayerMetric> metrics = {
      span("sial.compile_s", "compile"),
      span("sial.optimize_s", "optimize"),
      counter("sial.instructions", "count"),
      span("sip.analyze_s", "analyze"),
      span("planner.plan_s", "plan"),
      span("planner.gemm_probe_s", "gemm_probe"),
      counter("planner.candidates", "count"),
      counter("blas.gemm_gflops", "GFLOP/s"),
      counter("blas.kernel_s", "s"),
      counter("chem.execute_s", "s"),
      counter("sip.busy_s", "s"),
      counter("sip.instructions_retired", "count"),
      counter("sip.ns_per_instruction", "ns"),
      counter("sip.executor.pool_busy_s", "s"),
      counter("sip.executor.drain_wait_s", "s"),
      counter("sip.executor.drains", "count"),
      counter("sip.executor.hazard_stalls", "count"),
      counter("sip.executor.avg_occupancy", "entries"),
      counter("sip.wait.block_s", "s"),
      counter("sip.wait.served_s", "s"),
      counter("sip.wait.chunk_s", "s"),
      counter("sip.wait.barrier_s", "s"),
      counter("sip.wait.collective_s", "s"),
      counter("sip.wait_pct", "%"),
      counter("sip.sched.chunks", "count"),
      counter("sip.sched.steals_granted", "count"),
      counter("sip.sched.imbalance_pct", "%"),
      counter("msg.messages", "count"),
      counter("msg.payload_mb", "MB"),
      counter("msg.msgs_per_s", "1/s"),
      counter("msg.zero_copy_frac", "ratio"),
      counter("msg.puts_coalesced_frac", "ratio"),
      counter("msg.serialized_messages", "count"),
      counter("msg.frames_rejected", "count"),
      counter("msg.peer_down_drops", "count"),
      counter("block.cache_hit_frac", "ratio"),
      counter("block.peak_local_mb", "MB"),
      counter("block.pool_heap_fallbacks", "count"),
      counter("served.requests", "count"),
      counter("served.server_cache_hit_frac", "ratio"),
      counter("served.disk_reads", "count"),
      counter("served.disk_writes", "count"),
      counter("served.reads_coalesced", "count"),
      counter("served.write_batches", "count"),
      counter("served.lookahead_useful_frac", "ratio"),
      counter("host.steal_pct", "%"),
      counter("trace.overhead_pct", "%"),
  };
  return metrics;
}

std::pair<std::string, std::string> split_name(const std::string& name) {
  const std::size_t dot = name.rfind('.');
  return {name.substr(0, dot), name.substr(dot + 1)};
}

double live_instructions(const sia::sial::CompiledProgram& program) {
  double n = 0.0;
  for (const sia::sial::Instruction& instr : program.code) {
    if (instr.op != sia::sial::Opcode::kNop) n += 1.0;
  }
  return n;
}

std::map<std::string, double> run_counters(
    const sia::sip::RunResult& result,
    const sia::sial::CompiledProgram& program, double run_seconds,
    bool spawned) {
  const sia::sip::ProfileReport& p = result.profile;
  const sia::msg::TrafficStats& t = result.traffic;
  const auto& w = result.workers;
  const auto& s = p.served;
  std::map<std::string, double> c;

  // Master-side scheduling, fabric traffic and I/O-server counters reach
  // the launching process in every transport.
  c["sip.sched.chunks"] = static_cast<double>(p.scheduling.chunks_served);
  c["sip.sched.steals_granted"] =
      static_cast<double>(p.scheduling.steals_granted);
  c["sip.sched.imbalance_pct"] = p.scheduling.imbalance_percent();
  const double messages = static_cast<double>(t.messages_sent);
  c["msg.messages"] = messages;
  c["msg.payload_mb"] =
      static_cast<double>(t.payload_doubles_sent) * sizeof(double) / 1e6;
  c["msg.msgs_per_s"] = ratio(messages, run_seconds);
  c["msg.zero_copy_frac"] =
      ratio(static_cast<double>(t.zero_copy_messages), messages);
  c["msg.serialized_messages"] = static_cast<double>(t.serialized_messages);
  c["msg.frames_rejected"] = static_cast<double>(t.frames_rejected);
  c["msg.peer_down_drops"] = static_cast<double>(t.peer_down_drops);
  c["served.requests"] = static_cast<double>(s.server_requests);
  c["served.server_cache_hit_frac"] =
      ratio(static_cast<double>(s.server_cache_hits),
            static_cast<double>(s.server_requests + s.server_lookahead_requests));
  c["served.disk_reads"] = static_cast<double>(s.server_disk_reads);
  c["served.disk_writes"] = static_cast<double>(s.server_disk_writes);
  c["served.reads_coalesced"] = static_cast<double>(s.reads_coalesced);
  c["served.write_batches"] = static_cast<double>(s.write_batches);
  if (spawned) return c;

  // Worker profiles and totals live in the worker processes under spawn
  // and are not shipped back; from here on the metrics need them.
  const std::set<int> contractions = contraction_lines(program);
  double kernel_s = 0.0, execute_s = 0.0, retired = 0.0;
  for (const auto& line : p.lines) {
    retired += static_cast<double>(line.count);
    if (line.opcode == "execute") execute_s += line.seconds;
    if (line.opcode == "block_binary" && contractions.count(line.line)) {
      kernel_s += line.seconds;
    }
  }
  c["blas.kernel_s"] = kernel_s;
  c["chem.execute_s"] = execute_s;
  c["sip.busy_s"] = p.total_busy;
  c["sip.instructions_retired"] = retired;
  c["sip.ns_per_instruction"] = ratio(p.total_busy * 1e9, retired);
  c["sip.executor.pool_busy_s"] = p.executor.thread_busy_seconds;
  c["sip.executor.drain_wait_s"] = p.executor.drain_wait_seconds;
  c["sip.executor.drains"] = static_cast<double>(p.executor.drains);
  c["sip.executor.hazard_stalls"] =
      static_cast<double>(p.executor.hazard_stalls);
  c["sip.executor.avg_occupancy"] = p.executor.avg_occupancy();
  c["sip.wait.block_s"] = p.block_wait;
  c["sip.wait.served_s"] = p.served_wait;
  c["sip.wait.chunk_s"] = p.chunk_wait;
  c["sip.wait.barrier_s"] = p.barrier_wait;
  c["sip.wait.collective_s"] = p.collective_wait;
  c["sip.wait_pct"] = p.wait_percent();
  // "coalesced / (coalesced + sent)": puts merged into the shadow table
  // against puts that went to a home, remote or local.
  const double coalesced = static_cast<double>(w.puts_coalesced);
  c["msg.puts_coalesced_frac"] = ratio(
      coalesced,
      coalesced + static_cast<double>(w.puts_remote + w.puts_local));
  c["block.cache_hit_frac"] =
      ratio(static_cast<double>(w.cache_hits),
            static_cast<double>(w.cache_hits + w.cache_misses));
  c["block.peak_local_mb"] =
      static_cast<double>(w.peak_local_doubles) * sizeof(double) / 1e6;
  c["block.pool_heap_fallbacks"] = static_cast<double>(w.pool_heap_fallbacks);
  const double issued = static_cast<double>(s.client_lookahead_issued);
  c["served.lookahead_useful_frac"] = ratio(
      issued - static_cast<double>(s.client_lookahead_misses), issued);
  return c;
}

}  // namespace perfbench
