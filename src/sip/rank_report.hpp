// One end-of-run report per rank, and the one aggregation that turns a
// launch's reports into its RunResult.
//
// The paper's SIP profiles every super instruction and every pardo at no
// cost because each step is coarse (§VIII). That holds for every rank
// here, thread or process: the thread-mode launch `collect`s each rank's
// report after the join; a spawned child collects its own and ships
// `encode(report)` over its one-shot kResultReport connection, and the
// parent `decode`s it. Both transports then build RunResult through
// `aggregate`.
//
// A report is a bag of the runtime's own stats structs. The codec copies
// each struct whole behind its size in bytes, and each table as rows of
// fixed-size records behind the row size and count. Profile rows carry a
// pc; the aggregator maps it to line and opcode through the resolved
// program, never through the peer.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "block/block_cache.hpp"
#include "msg/chaos.hpp"
#include "msg/reliable.hpp"
#include "sip/dist_array.hpp"
#include "sip/io_server.hpp"
#include "sip/launch.hpp"
#include "sip/served_array.hpp"

namespace sia::sip {

class Interpreter;

struct RankReport {
  struct LineRow {
    std::int64_t pc = 0;
    Profiler::Entry entry;
    bool operator==(const LineRow&) const = default;
  };
  struct PardoRow {
    std::int64_t pardo_id = 0;
    Profiler::PardoEntry entry;
    bool operator==(const PardoRow&) const = default;
  };
  // Blocks of one array: a worker's home blocks of a distributed array
  // (`screened` zero), or a server's presence census of a served one.
  struct ArrayRow {
    std::int64_t array_id = 0;
    std::int64_t screened = 0;
    std::int64_t present = 0;
    bool operator==(const ArrayRow&) const = default;
  };

  struct Worker {
    DistArrayManager::Stats dist;
    ServedArrayClient::Stats served;
    BlockCache::Stats cache;
    std::int64_t pool_heap_fallbacks = 0;
    std::int64_t peak_local_doubles = 0;
    msg::ReliableChannel::Stats channel;
    std::int64_t duplicates_dropped = 0;  // by the worker's sequencer
    std::int64_t contract_flops = 0;      // Interpreter::contract_flops
    Profiler::Totals totals;
    ProfileReport::Executor executor;  // zero with worker_threads = 0
    std::vector<LineRow> lines;
    std::vector<PardoRow> pardos;
    std::vector<ArrayRow> home;
    std::vector<double> scalars;  // worker 0 only: the result copy
    bool operator==(const Worker&) const = default;
  };
  struct Server {
    IoServer::Stats stats;
    std::vector<ArrayRow> presence;
    bool operator==(const Server&) const = default;
  };
  // One fabric instance's counters: filled by rank 0 in thread mode, and
  // by the hub and by each child in spawn mode.
  struct Process {
    msg::TrafficStats traffic;
    msg::ChaosStats chaos;
    std::int64_t faults_disk = 0;
    std::int64_t kernels_screened = 0;  // delta over the run
    bool operator==(const Process&) const = default;
  };

  int rank = 0;
  std::optional<Worker> worker;
  std::optional<Server> server;
  std::optional<Process> process;
  bool operator==(const RankReport&) const = default;
};

// Reports of a rank whose run() returned.
RankReport collect(const Interpreter& worker);
RankReport collect(const IoServer& server);
// `chaos` and `disk` may be null.
RankReport::Process collect_process(const msg::Fabric& fabric,
                                    const msg::ChaosFabric* chaos,
                                    const msg::DiskFaultInjector* disk,
                                    std::uint64_t kernels_screened_before);

// kResultReport codec: src = rank, header = [byte_count], data = bytes
// packed 8 per double. `decode` trusts nothing from the peer: a size word
// this build disagrees with, a row count past the payload, trailing
// bytes, or a rank, pc, pardo, array or scalar count outside `program`
// throws RuntimeError naming the rank.
msg::Message encode(const RankReport& report);
RankReport decode(const msg::Message& message,
                  const sial::ResolvedProgram& program);

// Fills `result` (which arrives with its dry-run report) from the
// reports, in rank order, and the master's counters. Per-line, per-pardo
// and wait times are summed over workers; elapsed is the slowest worker.
void aggregate(const std::vector<RankReport>& reports,
               const Master::Stats& master,
               const sial::ResolvedProgram& program, RunResult& result);

}  // namespace sia::sip
