#include "sip/rank_report.hpp"

#include <algorithm>
#include <cstring>
#include <map>
#include <string>
#include <type_traits>

#include "common/error.hpp"
#include "msg/tags.hpp"
#include "sip/interpreter.hpp"
#include "sip/superinstr.hpp"

namespace sia::sip {

namespace {

[[noreturn]] void reject(int rank, const std::string& why) {
  throw RuntimeError("rank " + std::to_string(rank) +
                     " sent a malformed result report: " + why);
}

class Writer {
 public:
  std::vector<std::uint8_t> bytes;

  void word(std::uint64_t value) { raw(&value, sizeof(value)); }
  template <class... Fields>
  void operator()(const Fields&... fields) { (put(fields), ...); }

 private:
  void raw(const void* data, std::size_t size) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    bytes.insert(bytes.end(), p, p + size);
  }
  template <class T>
  void put(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    word(sizeof(T));
    raw(&value, sizeof(T));
  }
  template <class T>
  void put(const std::vector<T>& rows) {
    static_assert(std::is_trivially_copyable_v<T>);
    word(sizeof(T));
    word(rows.size());
    raw(rows.data(), rows.size() * sizeof(T));
  }
};

class Reader {
 public:
  Reader(int rank, const void* data, std::size_t size)
      : rank_(rank), at_(static_cast<const std::uint8_t*>(data)), left_(size) {}

  bool done() const { return left_ == 0; }
  std::uint64_t word() {
    std::uint64_t value = 0;
    raw(&value, sizeof(value));
    return value;
  }
  template <class... Fields>
  void operator()(Fields&... fields) { (get(fields), ...); }

 private:
  void raw(void* out, std::size_t size) {
    if (size > left_) reject(rank_, "truncated");
    if (size > 0) std::memcpy(out, at_, size);
    at_ += size;
    left_ -= size;
  }
  void expect_size(std::size_t size) {
    if (word() != size) reject(rank_, "section size mismatch");
  }
  template <class T>
  void get(T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    expect_size(sizeof(T));
    raw(&value, sizeof(T));
  }
  template <class T>
  void get(std::vector<T>& rows) {
    static_assert(std::is_trivially_copyable_v<T>);
    expect_size(sizeof(T));
    const std::uint64_t count = word();
    if (count > left_ / sizeof(T)) reject(rank_, "row count past the payload");
    rows.resize(static_cast<std::size_t>(count));
    raw(rows.data(), rows.size() * sizeof(T));
  }

  int rank_;
  const std::uint8_t* at_;
  std::size_t left_;
};

// Section flags, the first word on the wire.
constexpr std::uint64_t kWorker = 1, kServer = 2, kProcess = 4;

// Every field of the present sections, in wire order; `io` is a Writer
// or a Reader, so encode and decode cannot drift apart.
template <class Io, class Report>
void walk(Io& io, Report& r) {
  if (auto& w = r.worker) {
    io(w->dist, w->served, w->cache, w->pool_heap_fallbacks,
       w->peak_local_doubles, w->channel, w->duplicates_dropped,
       w->contract_flops, w->totals, w->executor, w->lines, w->pardos,
       w->home, w->scalars);
  }
  if (auto& s = r.server) io(s->stats, s->presence);
  if (auto& p = r.process) {
    io(p->traffic, p->chaos, p->faults_disk, p->kernels_screened);
  }
}

void check_ids(const RankReport& r, const sial::ResolvedProgram& program) {
  const sial::CompiledProgram& code = program.code();
  const int first_server = program.config().first_server_rank();
  const auto check = [&](std::int64_t id, std::size_t size, const char* what) {
    if (id < 0 || static_cast<std::uint64_t>(id) >= size) {
      reject(r.rank, std::string(what) + " " + std::to_string(id) +
                         " out of range");
    }
  };
  check(r.rank, static_cast<std::size_t>(program.config().total_ranks()),
        "rank");
  if (r.worker) {
    check(r.rank - 1, static_cast<std::size_t>(first_server - 1), "worker");
    for (const auto& row : r.worker->lines) {
      check(row.pc, code.code.size(), "pc");
    }
    for (const auto& row : r.worker->pardos) {
      check(row.pardo_id, code.pardos.size(), "pardo");
    }
    for (const auto& row : r.worker->home) {
      check(row.array_id, program.arrays().size(), "array");
    }
    const std::size_t scalars = r.worker->scalars.size();
    if (scalars != 0 && (r.rank != 1 || scalars != code.scalars.size())) {
      reject(r.rank, "unexpected scalar count");
    }
  }
  if (r.server) {
    check(r.rank - first_server, static_cast<std::size_t>(
              program.config().io_servers), "server");
    for (const auto& row : r.server->presence) {
      check(row.array_id, program.arrays().size(), "array");
    }
  }
}

}  // namespace

RankReport collect(const Interpreter& worker) {
  RankReport report;
  report.rank = 1 + worker.worker_index();
  RankReport::Worker& w = report.worker.emplace();
  w.dist = worker.dist().stats();
  w.served = worker.served().stats();
  w.cache = worker.dist().cache_stats();
  w.pool_heap_fallbacks =
      static_cast<std::int64_t>(worker.pool().stats().heap_fallbacks);
  w.peak_local_doubles =
      static_cast<std::int64_t>(worker.data().peak_doubles());
  if (const msg::ReliableChannel* channel = worker.channel()) {
    w.channel = channel->stats();
  }
  w.duplicates_dropped = worker.sequencer().duplicates_dropped();
  w.contract_flops = static_cast<std::int64_t>(worker.contract_flops());
  w.totals = worker.profiler().totals();
  if (const DataflowExecutor* executor = worker.executor()) {
    w.executor = executor->stats();
  }
  for (const auto& [pc, entry] : worker.profiler().instructions()) {
    w.lines.push_back({pc, entry});
  }
  for (const auto& [pardo_id, entry] : worker.profiler().pardos()) {
    w.pardos.push_back({pardo_id, entry});
  }
  std::map<int, std::int64_t> home;
  for (const auto& [id, block] : worker.dist().home_blocks()) {
    ++home[id.array_id];
  }
  for (const auto& [array_id, blocks] : home) {
    w.home.push_back({array_id, 0, blocks});
  }
  if (report.rank == 1) {
    // Collectives synchronized the scalars; worker 0 holds the result copy.
    const auto scalars = worker.data().scalars();
    w.scalars.assign(scalars.begin(), scalars.end());
  }
  return report;
}

RankReport collect(const IoServer& server) {
  RankReport report;
  report.rank = server.rank();
  RankReport::Server& s = report.server.emplace();
  s.stats = server.stats();
  for (const auto& [array_id, census] : server.presence()) {
    s.presence.push_back({array_id, census.first, census.second});
  }
  return report;
}

RankReport::Process collect_process(const msg::Fabric& fabric,
                                    const msg::ChaosFabric* chaos,
                                    const msg::DiskFaultInjector* disk,
                                    std::uint64_t kernels_screened_before) {
  RankReport::Process p;
  p.traffic = fabric.total_stats();
  if (chaos != nullptr) p.chaos = chaos->chaos_stats();
  if (disk != nullptr) p.faults_disk = disk->faults_injected();
  p.kernels_screened = static_cast<std::int64_t>(kernels_screened_count() -
                                                 kernels_screened_before);
  return p;
}

msg::Message encode(const RankReport& report) {
  Writer out;
  out.word((report.worker ? kWorker : 0) | (report.server ? kServer : 0) |
           (report.process ? kProcess : 0));
  walk(out, report);
  msg::Message message;
  message.tag = msg::kResultReport;
  message.src = report.rank;
  message.header = {static_cast<std::int64_t>(out.bytes.size())};
  message.data.resize((out.bytes.size() + 7) / 8);
  std::memcpy(message.data.data(), out.bytes.data(), out.bytes.size());
  return message;
}

RankReport decode(const msg::Message& message,
                  const sial::ResolvedProgram& program) {
  RankReport report;
  report.rank = message.src;
  const std::uint64_t words = message.data.size();
  if (message.header.size() != 1 || message.header[0] < 0 ||
      static_cast<std::uint64_t>(message.header[0]) > words * 8) {
    reject(report.rank, "truncated");
  }
  const auto bytes = static_cast<std::size_t>(message.header[0]);
  if ((bytes + 7) / 8 != words) reject(report.rank, "oversized");
  Reader in(report.rank, message.data.data(), bytes);
  const std::uint64_t flags = in.word();
  if ((flags & ~(kWorker | kServer | kProcess)) != 0) {
    reject(report.rank, "unknown section flags");
  }
  if ((flags & kWorker) != 0) report.worker.emplace();
  if ((flags & kServer) != 0) report.server.emplace();
  if ((flags & kProcess) != 0) report.process.emplace();
  walk(in, report);
  if (!in.done()) reject(report.rank, "trailing bytes");
  check_ids(report, program);
  return report;
}

void aggregate(const std::vector<RankReport>& reports,
               const Master::Stats& master,
               const sial::ResolvedProgram& program, RunResult& result) {
  const sial::CompiledProgram& code = program.code();
  ProfileReport& profile = result.profile;
  RunResult::WorkerTotals& totals = result.workers;
  ProfileReport::ServedPipeline& served = profile.served;
  ProfileReport::Robustness& robustness = profile.robustness;
  ProfileReport::Screening& screening = profile.screening;
  ProfileReport::Executor& executor = profile.executor;
  std::map<int, ProfileReport::LineCost> line_costs;
  std::map<int, ProfileReport::PardoCost> pardo_costs;
  std::map<std::int64_t, std::int64_t> live_blocks;  // array id -> blocks

  for (const RankReport& report : reports) {
    if (const auto& p = report.process) {
      result.traffic += p->traffic;
      robustness.faults_dropped += p->chaos.drops;
      robustness.faults_duplicated += p->chaos.dups;
      robustness.faults_delayed += p->chaos.delays;
      robustness.faults_reordered += p->chaos.reorders;
      robustness.faults_kill_swallowed += p->chaos.kill_swallowed;
      robustness.faults_disk += p->faults_disk;
      screening.kernels_screened += p->kernels_screened;
    }
    if (const auto& s = report.server) {
      served.server_requests += s->stats.requests;
      served.server_lookahead_requests += s->stats.lookahead_requests;
      served.server_cache_hits += s->stats.cache_hits;
      served.server_disk_reads += s->stats.disk_reads;
      served.server_disk_writes += s->stats.disk_writes;
      served.reads_coalesced += s->stats.reads_coalesced;
      served.write_batches += s->stats.write_batches;
      served.map_flushes += s->stats.map_flushes;
      served.computed += s->stats.computed;
      robustness.dup_msgs_dropped += s->stats.dup_msgs_dropped;
      screening.requests_screened += s->stats.requests_screened;
      screening.evictions_screened += s->stats.evictions_screened;
      for (const RankReport::ArrayRow& row : s->presence) {
        // Blocks with real bytes on disk; screened markers read as zero.
        live_blocks[row.array_id] += row.present - row.screened;
      }
    }
    const auto& w = report.worker;
    if (!w) continue;
    for (const RankReport::LineRow& row : w->lines) {
      const sial::Instruction& instr =
          code.code[static_cast<std::size_t>(row.pc)];
      ProfileReport::LineCost& cost = line_costs[static_cast<int>(row.pc)];
      cost.line = instr.line;
      cost.opcode = sial::opcode_name(instr.op);
      cost.count += row.entry.count;
      cost.seconds += row.entry.seconds;
      profile.total_busy += row.entry.seconds;
    }
    for (const RankReport::PardoRow& row : w->pardos) {
      const int id = static_cast<int>(row.pardo_id);
      const int start = code.pardos[static_cast<std::size_t>(id)].start_pc;
      ProfileReport::PardoCost& cost = pardo_costs[id];
      cost.pardo_id = id;
      cost.line =
          start >= 0 ? code.code[static_cast<std::size_t>(start)].line : 0;
      cost.iterations += row.entry.iterations;
      cost.elapsed += row.entry.elapsed;
      cost.wait += row.entry.wait;
    }
    const Profiler::Totals& t = w->totals;
    profile.total_wait += t.wait;
    profile.block_wait += t.wait_for(WaitKind::kBlock);
    profile.served_wait += t.wait_for(WaitKind::kServed);
    profile.chunk_wait += t.wait_for(WaitKind::kChunk);
    profile.barrier_wait += t.wait_for(WaitKind::kBarrier);
    profile.collective_wait += t.wait_for(WaitKind::kCollective);
    profile.worker_block_wait.push_back(t.wait_for(WaitKind::kBlock) +
                                        t.wait_for(WaitKind::kServed));
    profile.total_elapsed = std::max(profile.total_elapsed, t.elapsed);

    const ProfileReport::Executor& e = w->executor;
    executor.threads = std::max(executor.threads, e.threads);
    executor.tasks_executed += e.tasks_executed;
    executor.tasks_helped += e.tasks_helped;
    executor.entries_retired += e.entries_retired;
    executor.hazard_stalls += e.hazard_stalls;
    executor.raw_deps += e.raw_deps;
    executor.war_deps += e.war_deps;
    executor.waw_deps += e.waw_deps;
    executor.operand_stalls += e.operand_stalls;
    executor.drains += e.drains;
    executor.drains_issued += e.drains_issued;
    executor.window_peak = std::max(executor.window_peak, e.window_peak);
    executor.occupancy_sum += e.occupancy_sum;
    executor.occupancy_samples += e.occupancy_samples;
    executor.drain_wait_seconds += e.drain_wait_seconds;
    executor.thread_busy_seconds += e.thread_busy_seconds;
    executor.help_seconds += e.help_seconds;
    profile.contract_flops += w->contract_flops;

    totals.gets_issued += w->dist.gets_issued;
    totals.gets_local += w->dist.gets_local;
    totals.gets_cached += w->dist.gets_cached;
    totals.implicit_gets += w->dist.implicit_gets;
    totals.puts_remote += w->dist.puts_remote;
    totals.puts_local += w->dist.puts_local;
    totals.puts_coalesced += w->dist.puts_coalesced;
    totals.prepares_coalesced += w->served.prepares_coalesced;
    totals.coalesce_flushes +=
        w->dist.coalesce_flushes + w->served.coalesce_flushes;
    totals.cache_hits += w->cache.hits;
    totals.cache_misses += w->cache.misses;
    totals.cache_evictions += w->cache.evictions;
    totals.pool_heap_fallbacks += w->pool_heap_fallbacks;
    totals.peak_local_doubles =
        std::max(totals.peak_local_doubles,
                 static_cast<std::size_t>(w->peak_local_doubles));
    served.client_requests_issued += w->served.requests_issued;
    served.client_requests_cached += w->served.requests_cached;
    served.client_lookahead_issued += w->served.lookahead_issued;
    served.client_lookahead_misses += w->served.lookahead_misses;
    served.client_lookahead_promoted += w->served.lookahead_promoted;
    robustness.retries_sent += w->channel.retries_sent;
    robustness.acks_timed_out += w->channel.acks_timed_out;
    robustness.dup_msgs_dropped += w->duplicates_dropped;
    screening.puts_screened += w->dist.puts_screened;
    screening.gets_screened += w->dist.gets_screened;
    screening.prepares_screened += w->served.prepares_screened;
    screening.zero_reads += w->dist.zero_reads + w->served.zero_reads;
    for (const RankReport::ArrayRow& row : w->home) {
      live_blocks[row.array_id] += row.present;
    }
    for (std::size_t s = 0; s < w->scalars.size(); ++s) {
      result.scalars[code.scalars[s].name] = w->scalars[s];
    }
  }

  // Line time includes the waits spent inside instructions; busy is
  // compute only.
  profile.total_busy = std::max(0.0, profile.total_busy - profile.total_wait);
  for (const auto& [pc, cost] : line_costs) profile.lines.push_back(cost);
  std::sort(profile.lines.begin(), profile.lines.end(),
            [](const auto& a, const auto& b) { return a.seconds > b.seconds; });
  for (const auto& [id, cost] : pardo_costs) profile.pardos.push_back(cost);

  robustness.heartbeats_missed = master.heartbeats_missed;
  robustness.server_recoveries = master.server_recoveries;
  robustness.sends_after_stop = result.traffic.sends_after_stop;
  ProfileReport::Scheduling& scheduling = profile.scheduling;
  scheduling.chunks_served = master.chunks_served;
  scheduling.steal_attempts = master.steal_attempts;
  scheduling.steals_granted = master.steals_granted;
  scheduling.stolen_iterations = master.stolen_iterations;
  scheduling.worker_iterations = master.worker_iterations;

  // A sparse array's screened population is everything that never
  // materialized: blocks replaced by norm markers plus blocks whose every
  // contribution was dropped at the sender.
  screening.threshold = program.config().sparse_threshold;
  screening.blocks_screened = result.traffic.blocks_screened;
  screening.bytes_elided = result.traffic.bytes_elided;
  if (screening.threshold <= 0.0) return;
  for (std::size_t a = 0; a < program.arrays().size(); ++a) {
    const sial::ResolvedArray& array = program.arrays()[a];
    if (!array.sparse) continue;
    const auto it = live_blocks.find(static_cast<std::int64_t>(a));
    const std::int64_t live = it == live_blocks.end() ? 0 : it->second;
    screening.arrays.push_back(
        {array.name, array.total_blocks - live, array.total_blocks});
  }
}

}  // namespace sia::sip
