// Runtime benchmark: every sweep over the SIP's launch knobs (paper
// §VI-A: tuning parameters chosen at launch, results unchanged) as one
// table of grids, run by one harness into one host-stamped JSON file.
//
//   bench_json [out.json] [grid ...]    (no grids named: all of them)
//
// A grid is data: cells (label, SIAL source, checksum scalar, SipConfig)
// and a gate over the cells' median runs. Reps alternate cell by cell so
// host-load drift hits every cell alike. The file is written even when a
// gate breaks; the exit status is then 1.
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "blas/gemm.hpp"
#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "chem/reference.hpp"
#include "common/timer.hpp"
#include "sip/launch.hpp"
#include "sip/spawn.hpp"

namespace {

using namespace sia;

constexpr int kReps = 5;

[[gnu::format(printf, 1, 2)]] std::string strf(const char* format, ...) {
  char buffer[512];
  va_list args;
  va_start(args, format);
  std::vsnprintf(buffer, sizeof(buffer), format, args);
  va_end(args);
  return buffer;
}

// ---------------------------------------------------------------------
// The harness.

struct Cell {
  std::string label;
  std::string source;
  const char* scalar;  // result scalar reported as the checksum
  SipConfig config;
  bool cold = false;  // remove config.calibration_file before every run
};

struct Sample {
  double seconds = 0.0;
  double checksum = 0.0;
  sip::RunResult result;
};

Sample run_once(const Cell& cell) {
  if (cell.cold) std::filesystem::remove(cell.config.calibration_file);
  sip::Sip sip(cell.config);
  Sample sample;
  const double t0 = wall_seconds();
  sample.result = sip.run_source(cell.source);
  sample.seconds = wall_seconds() - t0;
  sample.checksum = sample.result.scalar(cell.scalar);
  return sample;
}

Sample median_of(std::vector<Sample> runs) {
  std::sort(runs.begin(), runs.end(), [](const Sample& a, const Sample& b) {
    return a.seconds < b.seconds;
  });
  return std::move(runs[runs.size() / 2]);
}

// A grid's median runs, by cell label.
using Medians = std::map<std::string, Sample>;

// What a gate found: the grid's headline ratios, if it states any, and
// every invariant that broke (none: the grid passes).
struct Verdict {
  std::string summary;
  std::vector<std::string> failures;

  void require(bool ok, std::string what) {
    if (!ok) failures.push_back(std::move(what));
  }
  // Every cell whose label starts with `prefix` reproduces the reference
  // cell's checksum bit for bit.
  void identical(const Medians& m, const std::string& reference,
                 const std::string& prefix = "") {
    const double want = m.at(reference).checksum;
    for (const auto& [label, sample] : m) {
      if (label.rfind(prefix, 0) != 0) continue;
      require(sample.checksum == want,
              strf("%s checksum %.17g differs from %s %.17g", label.c_str(),
                   sample.checksum, reference.c_str(), want));
    }
  }
};

struct Grid {
  const char* name;
  std::vector<Cell> cells;
  std::function<void(const Medians&, Verdict&)> gate;
};

Medians run_grid(const Grid& grid) {
  std::vector<std::vector<Sample>> runs(grid.cells.size());
  for (int rep = 0; rep < kReps; ++rep) {
    for (std::size_t c = 0; c < grid.cells.size(); ++c) {
      runs[c].push_back(run_once(grid.cells[c]));
    }
  }
  Medians medians;
  for (std::size_t c = 0; c < grid.cells.size(); ++c) {
    medians.emplace(grid.cells[c].label, median_of(std::move(runs[c])));
    const std::string& calibration = grid.cells[c].config.calibration_file;
    if (!calibration.empty()) std::filesystem::remove(calibration);
  }
  return medians;
}

// ---------------------------------------------------------------------
// The column table, in row order: every row carries every column.

std::int64_t count_opcodes(const sip::ProfileReport& profile,
                           std::initializer_list<const char*> names) {
  std::int64_t total = 0;
  for (const auto& line : profile.lines) {
    for (const char* name : names) {
      if (line.opcode == name) total += line.count;
    }
  }
  return total;
}

std::vector<std::pair<const char*, double>> columns(
    const sip::RunResult& r) {
  const msg::TrafficStats& t = r.traffic;
  const auto& x = r.profile.executor;
  const auto& s = r.profile.served;
  const auto& z = r.profile.screening;
  const auto& p = r.profile.plan;
  const double requests = static_cast<double>(s.server_requests +
                                              s.server_lookahead_requests);
  double screened = 0.0, blocks = 0.0;
  for (const auto& census : z.arrays) {
    screened += static_cast<double>(census.screened);
    blocks += static_cast<double>(census.total);
  }
  return {
      // Fabric traffic (whole-fabric totals) and put coalescing.
      {"messages", t.messages_sent},
      {"payload_doubles", t.payload_doubles_sent},
      {"zero_copy_messages", t.zero_copy_messages},
      {"zero_copy_doubles", t.zero_copy_doubles},
      {"serialized_messages", t.serialized_messages},
      {"serialized_doubles", t.serialized_doubles},
      {"puts_coalesced",
       r.workers.puts_coalesced + r.workers.prepares_coalesced},
      {"coalesce_flushes", r.workers.coalesce_flushes},
      // Dataflow executor.
      {"entries_retired", x.entries_retired}, {"pool_tasks", x.tasks_executed},
      {"hazard_stalls", x.hazard_stalls}, {"operand_stalls", x.operand_stalls},
      {"raw_deps", x.raw_deps}, {"war_deps", x.war_deps},
      {"waw_deps", x.waw_deps}, {"drains", x.drains},
      {"window_peak", x.window_peak}, {"avg_occupancy", x.avg_occupancy()},
      {"drain_wait_ms", x.drain_wait_seconds * 1e3},
      {"pool_busy_ms", x.thread_busy_seconds * 1e3},
      {"tasks_helped", x.tasks_helped}, {"help_ms", x.help_seconds * 1e3},
      // Served-array pipeline.
      {"client_requests_issued", s.client_requests_issued},
      {"client_requests_cached", s.client_requests_cached},
      {"client_lookahead_issued", s.client_lookahead_issued},
      {"client_lookahead_misses", s.client_lookahead_misses},
      {"server_requests", s.server_requests},
      {"server_lookahead_requests", s.server_lookahead_requests},
      {"server_cache_hits", s.server_cache_hits},
      {"server_cache_hit_rate",
       requests > 0 ? static_cast<double>(s.server_cache_hits) / requests
                    : 0.0},
      {"disk_reads", s.server_disk_reads},
      {"disk_writes", s.server_disk_writes},
      {"reads_coalesced", s.reads_coalesced},
      {"write_batches", s.write_batches}, {"map_flushes", s.map_flushes},
      // Norm-based screening.
      {"blocks_screened", t.blocks_screened}, {"bytes_elided", t.bytes_elided},
      {"kernels_screened", z.kernels_screened},
      {"puts_screened", z.puts_screened}, {"gets_screened", z.gets_screened},
      {"prepares_screened", z.prepares_screened},
      {"requests_screened", z.requests_screened},
      {"zero_reads", z.zero_reads},
      {"evictions_screened", z.evictions_screened},
      {"array_blocks_screened_pct",
       blocks > 0 ? 100.0 * screened / blocks : 0.0},
      // Executed opcodes, from the per-line profile.
      {"barriers_executed",
       count_opcodes(r.profile, {"sip_barrier", "server_barrier"})},
      {"get_executions", count_opcodes(r.profile, {"get", "request"})},
      {"prefetches", count_opcodes(r.profile, {"prefetch"})},
      // The launch-time planner (zero unless the cell autotunes).
      {"candidates", p.candidates},
      {"predicted_seconds", p.predicted_seconds},
      {"error_percent", p.error_percent()},
  };
}

double column(const Sample& sample, std::string_view name) {
  for (const auto& [key, value] : columns(sample.result)) {
    if (name == key) return value;
  }
  std::abort();  // a gate asked for a column the table does not have
}

// ---------------------------------------------------------------------
// The JSON writer and the host fingerprint.

std::string json_string(std::string_view text) {
  std::string out = "\"";
  for (const char ch : text) {
    if (ch == '"' || ch == '\\') out += '\\';
    out += ch;
  }
  return out + "\"";
}

// Every digit; non-finite values become null so the file stays JSON.
std::string json_number(double value) {
  return std::isfinite(value) ? strf("%.17g", value) : "null";
}

std::string joined(const std::vector<std::string>& items,
                   const char* separator) {
  std::string out;
  for (const std::string& item : items) {
    out += (out.empty() ? "" : separator) + item;
  }
  return out;
}

// The knobs a cell moved off their defaults, then its SIAL constants.
// The calibration path is per-process scratch, not a setting.
std::string knob_line(const SipConfig& config) {
  static const SipConfig defaults;
  std::vector<std::string> settings;
  for (const Knob& knob : knobs()) {
    const std::string value = knob.format(config);
    if (value != knob.format(defaults) &&
        std::string_view(knob.name) != "calibration_file") {
      settings.push_back(std::string(knob.name) + "=" + value);
    }
  }
  for (const auto& [name, value] : config.constants) {
    settings.push_back(name + "=" + std::to_string(value));
  }
  return joined(settings, " ");
}

std::string row_json(const char* grid, const Cell& cell,
                     const Sample& sample) {
  std::string row = "{\"grid\": " + json_string(grid) +
                    ", \"cell\": " + json_string(cell.label) +
                    ", \"config\": " + json_string(knob_line(cell.config)) +
                    ", \"plan\": " +
                    json_string(sample.result.profile.plan.summary) +
                    ", \"wall_seconds\": " + json_number(sample.seconds) +
                    ", \"checksum\": " + json_number(sample.checksum);
  for (const auto& [name, value] : columns(sample.result)) {
    row += ", " + json_string(name) + ": " + json_number(value);
  }
  return row + "}";
}

// First line a shell command prints, or "unknown".
std::string shell(const char* command) {
  std::string out;
  if (std::FILE* pipe = ::popen(command, "r")) {
    char buffer[256];
    if (std::fgets(buffer, sizeof(buffer), pipe)) out = buffer;
    ::pclose(pipe);
  }
  if (!out.empty() && out.back() == '\n') out.pop_back();
  return out.empty() ? "unknown" : out;
}

// Rows measured under different fingerprints are not comparable.
std::string host_json() {
  return "{\"nproc\": " + std::to_string(std::atoi(shell("nproc").c_str())) +
         ", \"cpu\": " +
         json_string(shell("sed -n 's/^model name.*: //p' /proc/cpuinfo")) +
         ", \"gemm_kernel\": " + json_string(blas::gemm_kernel_name()) +
         ", \"build_type\": " + json_string(SIA_BENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string(__VERSION__) + ", \"git\": " +
         json_string(shell("git -C '" SIA_BENCH_SOURCE_DIR
                           "' describe --always --dirty 2>/dev/null")) +
         "}";
}

// ---------------------------------------------------------------------
// The grids.

SipConfig config(int workers, int io_servers, int segment,
                 std::map<std::string, long> constants) {
  SipConfig config;
  config.workers = workers;
  config.io_servers = io_servers;
  config.default_segment = segment;
  config.constants = std::move(constants);
  return config;
}

// Application-style SIAL: doubled "just in case" barriers, a wrong-class
// server_barrier, and a loop-invariant get re-issued every iteration.
const char* kOptDefensiveSource = R"SIAL(
sial opt_defensive
aoindex a = 1, norb
aoindex b = 1, norb
index it = 1, niter
distributed A(a,b)
temp t(a,b)
temp w(a,b)
scalar s
scalar fnorm2
pardo a, b
  execute random_block t(a,b) 5
  put A(a,b) = t(a,b)
endpardo a, b
sip_barrier
sip_barrier
s = 0.0
pardo a, b
  do it
    get A(a,b)
    w(a,b) = A(a,b)
    s += w(a,b) * w(a,b)
  enddo it
endpardo a, b
sip_barrier
sip_barrier
server_barrier
fnorm2 = 0.0
collective fnorm2 += s
endsial
)SIAL";

// The overlap engine (zero-copy, put coalescing, batched gets) on vs off,
// and comm_storm over each transport; the gap to thread is the fault-free
// cost of socket ranks. Four workers, so no bit-identity gate.
Grid comm_grid() {
  const std::string storm = chem::comm_storm_source();
  const auto storm_cell = [&](const char* label, long norb, bool overlap,
                              const char* transport) {
    SipConfig c = config(4, 0, 4, {{"norb", norb}});
    c.coalesce_puts = c.batch_gets = overlap;
    c.transport = transport;
    return Cell{label, storm, "cnorm2", c};
  };
  const SipConfig mp2 = config(4, 0, 4, {{"norb", 24}, {"nocc", 8}});
  SipConfig ccd = mp2;
  ccd.constants["maxiter"] = 3;
  return {"comm",
          {storm_cell("storm_n128_overlap", 128, true, "thread"),
           storm_cell("storm_n128_ablated", 128, false, "thread"),
           storm_cell("storm_n64_thread", 64, true, "thread"),
           storm_cell("storm_n64_loopback", 64, true, "loopback"),
           storm_cell("storm_n64_spawn", 64, true, "spawn"),
           {"mp2_n24", chem::mp2_energy_source(), "e2", mp2},
           {"ccd_n24_it3", chem::ccd_energy_source(), "energy", ccd}},
          [](const Medians&, Verdict&) {}};
}

// The served-array pipeline (disk threads, look-ahead, write-behind) on vs
// off. The server cache is ~1/9 of the array and cold I/O keeps files out
// of the page cache: the arrays-larger-than-RAM regime.
Grid io_grid() {
  const std::string source = chem::io_storm_source();
  const auto io_cell = [&](const char* label, bool pipelined) {
    SipConfig c = config(
        4, 1, 96, {{"norb", 1536}, {"nsweeps", 6}, {"nshared", 1536}});
    c.server_cache_bytes = 2u << 20;
    c.server_cold_io = true;
    c.server_disk_threads = c.prefetch_depth = pipelined ? 4 : 0;
    return Cell{label, source, "snorm2", c};
  };
  return {"io",
          {io_cell("storm_n1536_s6_pipelined", true),
           io_cell("storm_n1536_s6_serial", false)},
          [](const Medians& m, Verdict& v) {
            v.identical(m, "storm_n1536_s6_serial");
          }};
}

// comm_storm n=1536 (7.25 GFLOP) serial, on the window at 2 and 4 pool
// threads, and in a spawned worker process. One worker keeps the chunk
// schedule deterministic, so cnorm2 is bit-identical everywhere.
Grid pardo_grid() {
  const std::string source = chem::comm_storm_source();
  const auto pardo_cell = [&](const char* engine, int threads,
                              const char* transport) {
    SipConfig c = config(1, 0, 128, {{"norb", 1536}});
    c.worker_threads = threads;
    c.transport = transport;
    return Cell{strf("storm_n1536_s128_%s", engine), source, "cnorm2", c};
  };
  return {"pardo",
          {pardo_cell("serial", 0, "thread"),
           pardo_cell("threads2", 2, "thread"),
           pardo_cell("threads4", 4, "thread"),
           pardo_cell("spawn_serial", 0, "spawn")},
          [](const Medians& m, Verdict& v) {
            v.identical(m, "storm_n1536_s128_serial");
          }};
}

// Screening thresholds over the banded sparse_fock (at 1e-8 ~80% of
// operand blocks screen out) and the served sparse_mp2 (37% at 1e-8, none
// at 1e-12), plus one-worker threshold-0 and stripped-`sparse` (dense)
// cells whose accumulation order is reproducible.
Grid sparse_grid() {
  const std::string fock = chem::sparse_fock_source();
  const std::string mp2 = chem::sparse_mp2_source();
  std::string fock_dense = fock, mp2_dense = mp2;
  for (std::string* source : {&fock_dense, &mp2_dense}) {
    for (std::size_t at; (at = source->find("sparse ")) != std::string::npos;)
      source->erase(at, 7);
  }
  SipConfig fock4 = config(4, 1, 32, {{"norb", 768}});
  SipConfig mp24 = config(4, 1, 8, {{"norb", 96}, {"nocc", 32}});
  SipConfig fock1 = fock4, mp21 = mp24;
  fock1.workers = mp21.workers = 1;
  Grid grid{"sparse",
            {{"fock_w1_t0", fock, "fnorm2", fock1},
             {"fock_w1_dense", fock_dense, "fnorm2", fock1},
             {"mp2_w1_t0", mp2, "e2", mp21},
             {"mp2_w1_dense", mp2_dense, "e2", mp21}},
            {}};
  for (const double t : {0.0, 1e-12, 1e-8}) {
    fock4.sparse_threshold = mp24.sparse_threshold = t;
    grid.cells.push_back(
        {strf("fock_n768_g32_t%g", t), fock, "fnorm2", fock4});
    grid.cells.push_back(
        {strf("mp2_o32_v64_g8_t%g", t), mp2, "e2", mp24});
  }
  grid.gate = [](const Medians& m, Verdict& v) {
    const Sample& screened = m.at("fock_n768_g32_t1e-08");
    const double speedup =
        m.at("fock_n768_g32_t0").seconds / screened.seconds;
    const double pct = column(screened, "array_blocks_screened_pct");
    v.summary = strf("fock 1e-8: %.2fx faster than exact, %.1f%% of "
                     "blocks screened", speedup, pct);
    v.identical(m, "fock_w1_dense", "fock_w1_");
    v.identical(m, "mp2_w1_dense", "mp2_w1_");
    v.require(speedup >= 2.0, strf("fock 1e-8 speedup %.2fx < 2x", speedup));
    v.require(pct >= 50.0, strf("only %.1f%% of fock blocks screened", pct));
  };
  return grid;
}

// The mid-end at -O0/-O1/-O2, serial and on the 2-thread window. One
// worker: every cell reproduces its -O0 serial checksum bit for bit.
Grid opt_grid() {
  const Cell workloads[] = {
      {"storm", chem::comm_storm_source(), "cnorm2",
       config(1, 0, 128, {{"norb", 768}})},
      // One server: server_barrier needs a server to talk to.
      {"defensive", kOptDefensiveSource, "fnorm2",
       config(1, 1, 64, {{"norb", 768}, {"niter", 16}})},
  };
  Grid grid{"opt", {}, [](const Medians& m, Verdict& v) {
              v.identical(m, "storm_O0_threads0", "storm_");
              v.identical(m, "defensive_O0_threads0", "defensive_");
            }};
  for (const Cell& load : workloads) {
    for (const int level : {0, 1, 2}) {
      for (const int threads : {0, 2}) {
        Cell cell = load;
        cell.label += strf("_O%d_threads%d", level, threads);
        cell.config.opt_level = level;
        cell.config.worker_threads = threads;
        grid.cells.push_back(std::move(cell));
      }
    }
  }
  return grid;
}

// Does the planner land near the best hand cell with no user knobs? Each
// sweep has hand cells pinning the knob, then two cells leaving it to the
// planner: auto_cold on a fresh calibration file, then auto on the file
// auto_cold just wrote (one calibration pair).
Grid plan_grid() {
  Grid grid{"plan", {}, {}};
  const auto add_sweep = [&](const char* sweep, const std::string& source,
                             const char* scalar, SipConfig c,
                             int SipConfig::*knob, const char* knob_name,
                             std::initializer_list<int> values) {
    for (const int value : values) {
      c.*knob = value;
      grid.cells.push_back(
          {strf("%s_%s%d", sweep, knob_name, value), source, scalar, c});
    }
    c.*knob = SipConfig{}.*knob;
    c.autotune = true;
    c.calibration_file = (std::filesystem::temp_directory_path() /
                          strf("sia_bench_%d_%s.cal", ::getpid(), sweep))
                             .string();
    grid.cells.push_back(
        {strf("%s_auto_cold", sweep), source, scalar, c, /*cold=*/true});
    grid.cells.push_back({strf("%s_auto", sweep), source, scalar, c});
  };
  add_sweep("storm", chem::comm_storm_source(), "cnorm2",
            config(1, 0, 48, {{"norb", 768}}), &SipConfig::worker_threads,
            "threads", {0, 1, 2, 4});
  add_sweep("fock", chem::fock_build_source(), "fnorm",
            config(4, 0, 8, {{"norb", 32}}), &SipConfig::default_segment,
            "segment", {2, 4, 8, 16, 32});
  grid.gate = [](const Medians& m, Verdict& v) {
    for (const std::string sweep : {"storm", "fock"}) {
      double best = 1e300;
      for (const auto& [label, sample] : m) {
        if (label.rfind(sweep, 0) == 0 && label.find("_auto") == label.npos) {
          best = std::min(best, sample.seconds);
        }
      }
      const Sample& tuned = m.at(sweep + "_auto");
      v.summary += strf(
          "%s%s: auto %.2fx of best hand cell, model error %.1f%% cold, "
          "%.1f%% calibrated",
          v.summary.empty() ? "" : "; ", sweep.c_str(), tuned.seconds / best,
          m.at(sweep + "_auto_cold").result.profile.plan.error_percent(),
          tuned.result.profile.plan.error_percent());
    }
    // Correctness, not timing: tuned runs reproduce the hand cells
    // (comm_storm at one worker is bit-identical across engines) and the
    // reference Fock norm.
    v.identical(m, "storm_auto", "storm_");
    const double want = chem::ref_fock_norm(32);
    for (const char* label : {"fock_auto_cold", "fock_auto"}) {
      const double got = m.at(label).checksum;
      v.require(std::abs(got - want) <= 1e-9 * want,
                strf("%s fnorm %.17g vs reference %.17g", label, got, want));
    }
  };
  return grid;
}

// The dataflow executor on comm_storm n=384, one worker, as (pool
// threads, window depth) cells, each grid with its own serial reference.
Grid executor_grid(const char* name,
                   std::vector<std::pair<int, int>> threads_and_windows) {
  const std::string source = chem::comm_storm_source();
  Grid grid{name, {}, [](const Medians& m, Verdict& v) {
              v.identical(m, "serial");
            }};
  for (const auto& [threads, window] : threads_and_windows) {
    SipConfig c = config(1, 0, 48, {{"norb", 384}});
    c.worker_threads = threads;
    c.window_limit = window;
    grid.cells.push_back(
        {threads == 0 ? std::string("serial")
                      : strf("threads%d_window%d", threads, window),
         source, "cnorm2", c});
  }
  return grid;
}

}  // namespace

int main(int argc, char** argv) {
  chem::register_chem_superinstructions();
  // The binary is its own spawn helper for the spawn-transport cells.
  if (sip::is_spawn_child(argc, argv)) return sip::run_spawn_child(argc, argv);
  // Hermetic runs: each cell's SipConfig alone decides how it runs.
  for (const char* name :
       {"SIA_AUTOTUNE", "SIA_TRANSPORT", "SIA_FAULT_PLAN", "SIA_CALIBRATION"}) {
    ::unsetenv(name);
  }
  const std::string path = argc > 1 ? argv[1] : "BENCH_runtime.json";
  const std::vector<std::string> wanted(argv + std::min(argc, 2),
                                        argv + argc);
  std::vector<Grid> grids = {
      comm_grid(), io_grid(), pardo_grid(), sparse_grid(), opt_grid(),
      plan_grid(),
      executor_grid("threads", {{0, 64}, {1, 64}, {2, 64}, {4, 64}, {8, 64}}),
      executor_grid("window",
                    {{0, 64}, {4, 2}, {4, 4}, {4, 8}, {4, 16}, {4, 64}})};
  std::erase_if(grids, [&](const Grid& g) {
    return !wanted.empty() && !std::count(wanted.begin(), wanted.end(), g.name);
  });
  if (!wanted.empty() && grids.size() != wanted.size()) {
    std::fprintf(stderr, "unknown or repeated grid name\n");
    return 2;
  }

  std::vector<std::string> verdicts, rows;
  bool ok = true;
  for (const Grid& grid : grids) {
    const Medians medians = run_grid(grid);
    Verdict verdict;
    grid.gate(medians, verdict);
    std::printf("%s: %s%s%s\n", grid.name,
                verdict.failures.empty() ? "pass" : "FAIL",
                verdict.summary.empty() ? "" : "; ", verdict.summary.c_str());
    std::vector<std::string> failures;
    for (const std::string& failure : verdict.failures) {
      std::fprintf(stderr, "FAIL %s: %s\n", grid.name, failure.c_str());
      failures.push_back(json_string(failure));
    }
    ok = ok && failures.empty();
    verdicts.push_back("{\"name\": " + json_string(grid.name) +
                       ", \"summary\": " + json_string(verdict.summary) +
                       ", \"failures\": [" + joined(failures, ", ") + "]}");
    for (const Cell& cell : grid.cells) {
      rows.push_back(row_json(grid.name, cell, medians.at(cell.label)));
    }
  }

  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    return 1;
  }
  std::fprintf(out,
               "{\n  \"host\": %s,\n  \"reps\": %d,\n  \"grids\": [\n    %s\n"
               "  ],\n  \"benchmarks\": [\n    %s\n  ]\n}\n",
               host_json().c_str(), kReps, joined(verdicts, ",\n    ").c_str(),
               joined(rows, ",\n    ").c_str());
  std::fclose(out);
  std::printf("wrote %s%s\n", path.c_str(), ok ? "" : " (gates FAILED)");
  return ok ? 0 : 1;
}
