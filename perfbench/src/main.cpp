// The SIA benchmark harness: one workload per invocation.
//
//   sia_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                 --work-dir <dir> [--source-id <id>] [--smoke]
//                 [--force none|throw|wrong|hang] [--deadline-s <s>]
//   sia_perfbench --list
//
// Untraced (--trace 0) it measures the end-to-end metrics: set-up time
// (compile + Sip construction + dry run + plan, repeated, median), time
// to a verified result (Sip::run repeated for --seconds, median) and
// peak resident memory. Traced (--trace 1) it records spans around the
// same public calls plus the gemm probe, optimize and reference check,
// attaches each run's per-layer counters to its run span, writes Chrome
// trace-event JSON, and prints the per-layer metrics read back from that
// trace. The last stdout line is always the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
// perfbench/run.py builds this binary and is the supported entry point.
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "blas/gemm.hpp"
#include "chem/integrals.hpp"
#include "json.hpp"
#include "layers.hpp"
#include "sial/compiler.hpp"
#include "sial/opt/optimizer.hpp"
#include "sip/launch.hpp"
#include "sip/planner.hpp"
#include "sip/spawn.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return -1.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// run_s: the median over the runs the hypervisor disturbed least. On a
// virtual machine other guests take turns on the physical CPUs (steal
// time); a run that lost more of its CPU time that way ran slower for
// reasons outside the program. Runs are ranked by their steal share and
// those at or below the median share are kept: always at least half of
// them, all of them when no run was disturbed.
double least_stolen_median(const std::vector<double>& run_s,
                           const std::vector<double>& steal) {
  const double cutoff = median(steal);
  std::vector<double> kept;
  for (std::size_t i = 0; i < run_s.size(); ++i) {
    if (steal[i] <= cutoff) kept.push_back(run_s[i]);
  }
  return median(kept);
}

// Written in the result, not measured: -1 marks a metric this workload
// cannot observe (spawned ranks do not ship their profiles back), so it
// is never mistaken for a measured zero.
constexpr double kAbsent = -1.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;
  std::string work_dir;
  std::string source_id = "unknown";
  std::string force = "none";
  double deadline_s = 60.0;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr, "sia_perfbench: %s\n", why.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") o.workload = value;
      else if (arg == "--seed") o.seed = std::stoull(value);
      else if (arg == "--seconds") o.seconds = std::stod(value);
      else if (arg == "--trace") o.trace = value == "1";
      else if (arg == "--work-dir") o.work_dir = value;
      else if (arg == "--source-id") o.source_id = value;
      else if (arg == "--force") o.force = value;
      else if (arg == "--deadline-s") o.deadline_s = std::stod(value);
      else usage("unknown option " + arg);
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  if (o.work_dir.empty()) usage("--work-dir is required");
  if (o.force != "none" && o.force != "throw" && o.force != "wrong" &&
      o.force != "hang") {
    usage("--force must be none, throw, wrong or hang");
  }
  return o;
}

// Environment variables the runtime reads. Any of them left set in the
// caller's shell would silently change the program being measured.
void make_hermetic(const std::string& work_dir) {
  for (const char* name : {"SIA_AUTOTUNE", "SIA_TRANSPORT", "SIA_FAULT_PLAN",
                           "SIA_CALIBRATION", "SIA_LOG"}) {
    ::unsetenv(name);
  }
  // Sip scratch directories (served-array files, spawn bundles) go under
  // TMPDIR: keep them inside the benchmark's own directory.
  const std::string tmp = work_dir + "/tmp";
  std::filesystem::create_directories(tmp);
  ::setenv("TMPDIR", tmp.c_str(), 1);
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos) {
        std::size_t start = colon + 1;
        while (start < line.size() && line[start] == ' ') ++start;
        return line.substr(start);
      }
    }
  }
  return "unknown";
}

int online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) return CPU_COUNT(&set);
  return static_cast<int>(std::thread::hardware_concurrency());
}

// Host fingerprint: results with different fingerprints are not
// comparable (run.py --compare refuses to diff them).
std::string fingerprint_json(const Options& o) {
  return std::string("{\"nproc\": ") + std::to_string(online_cpus()) +
         ", \"cpu\": " + json_string(cpu_model()) +
         ", \"gemm_kernel\": " +
         json_string(std::string(sia::blas::gemm_kernel_name())) +
         ", \"build_type\": " + json_string(PERFBENCH_BUILD_TYPE) +
         ", \"compiler\": " + json_string(__VERSION__) +
         ", \"source\": " + json_string(o.source_id) + "}";
}

// Peak resident set in MB: this process's peak plus the largest reaped
// child's (RUSAGE_CHILDREN covers spawned ranks). ru_maxrss is in KiB.
double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(self.ru_maxrss + children.ru_maxrss) / 1024.0;
}

// Aggregate CPU time of the machine from /proc/stat, in clock ticks:
// the time the hypervisor ran other guests while this one's virtual
// CPUs were runnable (steal), and the total.
struct CpuTicks {
  double steal = 0.0;
  double total = 0.0;
};

CpuTicks cpu_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  CpuTicks t;
  double v = 0.0;
  for (int field = 0; field < 8 && in >> v; ++field) {
    t.total += v;
    if (field == 7) t.steal = v;
  }
  return t;
}

// Everything the result line reports. Shared with the watchdog, which
// reports a hung attempt as failed and ends the process.
struct State {
  std::mutex mu;
  long attempted = 0;
  long failed = 0;
  std::vector<double> run_s;    // successful runs only
  std::vector<double> steal;    // steal share of each successful run
  double peak_rss_mb = -1.0;    // through set-up and the first run
  std::vector<double> setup_s;
  double last_result = 0.0;             // scalar of the last good run
  std::map<std::string, double> layer;  // traced run: per-layer metrics
  bool attempt_open = false;
  Clock::time_point attempt_start;
};

std::string result_line(State& s, bool trace) {
  std::string metrics;
  auto add = [&](const std::string& name, double value,
                 const std::string& unit) {
    if (!metrics.empty()) metrics += ", ";
    metrics += json_string(name) + ": {\"value\": " + json_number(value) +
               ", \"unit\": " + json_string(unit) + "}";
  };
  if (trace) {
    for (const LayerMetric& m : layer_metrics()) {
      auto it = s.layer.find(m.name);
      add(m.name, it == s.layer.end() ? kAbsent : it->second, m.unit);
    }
  } else {
    add("run_s", least_stolen_median(s.run_s, s.steal), "s");
    add("setup_s", median(s.setup_s), "s");
    add("peak_rss_mb", s.peak_rss_mb, "MB");
  }
  const bool correct = s.attempted > 0 && s.failed == 0;
  return std::string("{\"correct\": ") + (correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(s.attempted) +
         ", \"failed\": " + std::to_string(s.failed) + ", \"metrics\": {" +
         metrics + "}}";
}

// Fails an attempt that outlives the deadline: a run stuck in the
// runtime cannot be cancelled, so the watchdog reports it and exits.
// run.py then stops whatever processes the hung run left behind.
class Watchdog {
 public:
  Watchdog(State& state, double deadline_s, bool trace)
      : state_(state), deadline_s_(deadline_s), trace_(trace),
        thread_([this] { loop(); }) {}
  ~Watchdog() {
    {
      std::lock_guard<std::mutex> lock(mu_);
      stop_ = true;
    }
    cv_.notify_all();
    thread_.join();
  }
  Watchdog(const Watchdog&) = delete;
  Watchdog& operator=(const Watchdog&) = delete;

 private:
  void loop() {
    std::unique_lock<std::mutex> lock(mu_);
    while (!cv_.wait_for(lock, std::chrono::milliseconds(100),
                         [this] { return stop_; })) {
      std::lock_guard<std::mutex> state_lock(state_.mu);
      if (!state_.attempt_open ||
          seconds_since(state_.attempt_start) < deadline_s_) {
        continue;
      }
      state_.failed += 1;
      std::fprintf(stderr, "attempt exceeded the %.1f s deadline: failed\n",
                   deadline_s_);
      std::printf("error_rate %.6f (%ld/%ld)\n%s\n",
                  static_cast<double>(state_.failed) /
                      static_cast<double>(state_.attempted),
                  state_.failed, state_.attempted,
                  result_line(state_, trace_).c_str());
      std::fflush(stdout);
      std::fflush(stderr);
      std::_Exit(0);
    }
  }

  State& state_;
  double deadline_s_;
  bool trace_;
  std::mutex mu_;
  std::condition_variable cv_;
  bool stop_ = false;
  std::thread thread_;  // last: starts after the members it reads
};

// One run of the workload up to a checked result. A run that throws or
// misses its reference counts as failed.
void attempt(const Workload& w, sia::sip::Sip& sip,
             const sia::sial::CompiledProgram& program,
             const sia::sial::CompiledProgram& optimized, Tracer& tracer,
             State& state, const std::string& force) {
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.attempted += 1;
    state.attempt_open = true;
    state.attempt_start = Clock::now();
  }
  bool ok = false;
  double run_s = 0.0;
  double steal = 0.0;
  const ScopedSpan whole(tracer, "attempt");
  try {
    sia::sip::RunResult result;
    const int run_span = tracer.begin("run", whole.id());
    const CpuTicks ticks0 = cpu_ticks();
    const auto start = Clock::now();
    if (force == "throw") throw std::runtime_error("forced failure");
    if (force == "hang") {
      std::this_thread::sleep_for(std::chrono::hours(1));
    }
    result = w.spawned() ? sip.run_source(w.source) : sip.run(program);
    run_s = seconds_since(start);
    const CpuTicks ticks1 = cpu_ticks();
    steal = ticks1.total > ticks0.total
                ? (ticks1.steal - ticks0.steal) / (ticks1.total - ticks0.total)
                : 0.0;
    tracer.end(run_span);
    if (tracer.enabled()) {
      std::map<std::string, std::map<std::string, double>> by_layer;
      for (const auto& [name, value] :
           run_counters(result, optimized, run_s, w.spawned())) {
        const auto [layer, key] = split_name(name);
        by_layer[layer][key] = value;
      }
      for (const auto& [layer, values] : by_layer) {
        tracer.counter(layer, values, run_span);
      }
      tracer.counter("host", {{"steal_pct", 100.0 * steal}}, run_span);
    }
    const ScopedSpan check_span(tracer, "reference_check", whole.id());
    Check check = w.check(result);
    if (force == "wrong") check = w.check(check.got * 2.0 + 1.0);
    ok = check.ok;
    if (ok) {
      std::lock_guard<std::mutex> lock(state.mu);
      state.last_result = check.got;
    }
    if (!ok) std::fprintf(stderr, "reference check failed: %s\n",
                          check.detail.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "run failed: %s\n", e.what());
  }
  std::lock_guard<std::mutex> lock(state.mu);
  state.attempt_open = false;
  if (ok) {
    state.run_s.push_back(run_s);
    state.steal.push_back(steal);
  } else {
    state.failed += 1;
  }
}

// compile + Sip construction + dry run + plan: what a default
// `sial_tool run` pays before any rank starts. The plan reads a private
// calibration file that never exists, so every plan is cold.
double setup_once(const Workload& w, const std::string& calibration,
                  Tracer& tracer) {
  std::filesystem::remove(calibration);
  sia::SipConfig config = w.config;
  config.calibration_file = calibration;
  const ScopedSpan setup(tracer, "setup");
  const auto start = Clock::now();
  sia::sial::CompiledProgram program;
  {
    const ScopedSpan span(tracer, "compile", setup.id());
    program = sia::sial::compile_sial(w.source);
  }
  int construct = tracer.begin("construct", setup.id());
  sia::sip::Sip sip(config);
  tracer.end(construct);
  {
    const ScopedSpan span(tracer, "analyze", setup.id());
    (void)sip.analyze(program);
  }
  const int plan_span = tracer.begin("plan", setup.id());
  const sia::sip::PlanChoice choice = sip.plan(program);
  tracer.end(plan_span);
  const double seconds = seconds_since(start);
  tracer.counter("planner", {{"candidates", choice.candidates}}, plan_span);
  return seconds;
}

// Layer probes that sit outside set-up: the mid-end on its own, the
// planner's GEMM probe on its own, and dgemm at ccd's 256^3 block shape.
void probe_layers(const Workload& w, Tracer& tracer) {
  const sia::sial::CompiledProgram program =
      sia::sial::compile_sial(w.source);
  for (int rep = 0; rep < 5; ++rep) {
    const int span = tracer.begin("optimize");
    const sia::sial::opt::OptResult opt =
        sia::sial::opt::optimize(program, w.config.opt_level);
    tracer.end(span);
    tracer.counter("sial", {{"instructions", live_instructions(opt.program)}},
                   span);
  }
  for (int rep = 0; rep < 5; ++rep) {
    const ScopedSpan span(tracer, "gemm_probe");
    (void)sia::sip::measure_gemm_gflops();
  }
  constexpr std::size_t kDim = 256;
  std::vector<double> a(kDim * kDim), b(kDim * kDim), c(kDim * kDim);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 0.5 + static_cast<double>(i % 17) * 0.03125;
    b[i] = 0.25 + static_cast<double>(i % 13) * 0.0625;
  }
  sia::blas::dgemm(kDim, kDim, kDim, 1.0, a.data(), kDim, b.data(), kDim,
                   0.0, c.data(), kDim);  // warm-up
  for (int rep = 0; rep < 7; ++rep) {
    const int span = tracer.begin("gemm_256");
    const auto start = Clock::now();
    sia::blas::dgemm(kDim, kDim, kDim, 1.0, a.data(), kDim, b.data(), kDim,
                     0.0, c.data(), kDim);
    const double s = seconds_since(start);
    tracer.end(span);
    tracer.counter("blas",
                   {{"gemm_gflops", 2.0 * kDim * kDim * kDim / s * 1e-9}},
                   span);
  }
}

// Per-layer metrics read back from the trace: span medians and counter
// medians. Metrics no span or counter recorded stay absent.
std::map<std::string, double> layers_from_trace(const Tracer& tracer) {
  std::map<std::string, double> out;
  for (const LayerMetric& m : layer_metrics()) {
    std::vector<double> values;
    if (!m.span.empty()) {
      values = tracer.span_seconds(m.span);
    } else {
      const auto [layer, key] = split_name(m.name);
      values = tracer.counter_values(layer, key);
    }
    if (!values.empty()) out[m.name] = median(values);
  }
  return out;
}

// The self-test's reference checks: the exact result must pass and a
// perturbed one must be rejected.
bool perturbation_rejected(const Workload& w, double got) {
  const double perturbed =
      w.rel_tol == 0.0 ? std::nextafter(got, 2.0 * got + 1.0)
                       : got * (1.0 + 100.0 * w.rel_tol);
  const bool pass = w.check(got).ok;
  const bool reject = !w.check(perturbed).ok;
  std::printf("selftest %s: exact result %s, perturbed result %s\n",
              w.name.c_str(), pass ? "accepted" : "REJECTED",
              reject ? "rejected" : "ACCEPTED");
  return pass && reject;
}

int run(const Options& o) {
  make_hermetic(o.work_dir);
  const Workload w = make_workload(o.workload, o.seed, o.smoke);
  const std::string fingerprint = fingerprint_json(o);
  const std::string calibration = o.work_dir + "/calibration.cold";
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              w.name.c_str(), static_cast<unsigned long long>(o.seed),
              o.seconds, o.trace ? 1 : 0, o.smoke ? " smoke" : "");
  std::printf("host %s\n", fingerprint.c_str());
  std::printf("reference %s = %.17g (%s)\n", w.scalar.c_str(), w.want,
              w.reference_note.c_str());

  State state;
  Tracer tracer(o.trace);
  Tracer untraced(false);

  // Set-up, repeated; its median is setup_s.
  const int setups = o.smoke ? 3 : 21;
  for (int i = 0; i < setups; ++i) {
    state.setup_s.push_back(setup_once(w, calibration, tracer));
  }
  if (o.trace) probe_layers(w, tracer);

  sia::sial::CompiledProgram program = sia::sial::compile_sial(w.source);
  const sia::sial::CompiledProgram optimized =
      sia::sial::opt::optimize(program, w.config.opt_level).program;
  sia::sip::Sip sip(w.config);

  Watchdog watchdog(state, o.deadline_s, o.trace);
  // Warm-up: lazy set-up (pool threads, page cache, first-touch) is not
  // part of the steady-state time, but its result is checked and counts.
  attempt(w, sip, program, optimized, untraced, state, "none");
  // A one-shot `sial_tool run` is set-up plus one run, so that is what
  // peak_rss_mb covers. Later runs in this process start from memory
  // earlier runs left behind: on ccd their peaks vary by about 10%, on
  // served_io they climb run after run.
  {
    std::lock_guard<std::mutex> lock(state.mu);
    state.peak_rss_mb = peak_rss_mb();
  }
  // The traced run alternates traced and untraced attempts so the cost
  // of tracing is measured on the same host in the same window.
  std::vector<double> traced_s, plain_s;
  const auto window = Clock::now();
  int n = 0;
  while (n < 3 || seconds_since(window) < o.seconds) {
    const bool traced = o.trace && n % 2 == 0;
    const std::string force = n == 0 ? o.force : "none";
    const std::size_t before = state.run_s.size();
    attempt(w, sip, program, optimized, traced ? tracer : untraced, state,
            force);
    if (state.run_s.size() > before) {
      (traced ? traced_s : plain_s).push_back(state.run_s.back());
    }
    ++n;
    if (o.smoke && n >= 3) break;
  }

  const bool selftest_ok = !o.smoke || state.run_s.empty() ||
                           perturbation_rejected(w, state.last_result);

  if (o.trace) {
    const bool both = !traced_s.empty() && !plain_s.empty();
    const double overhead =
        both ? 100.0 * (median(traced_s) - median(plain_s)) / median(plain_s)
             : kAbsent;
    if (both) tracer.counter("trace", {{"overhead_pct", overhead}});
    state.layer = layers_from_trace(tracer);
    std::filesystem::create_directories(o.work_dir + "/traces");
    const std::string path = o.work_dir + "/traces/" + w.name + "-seed" +
                             std::to_string(o.seed) + ".trace.json";
    const std::string other = "{\"workload\": " + json_string(w.name) +
                              ", \"seed\": " + std::to_string(o.seed) +
                              ", \"host\": " + fingerprint + "}";
    if (!tracer.write_chrome_json(path, other)) {
      std::fprintf(stderr, "could not write %s\n", path.c_str());
      return 1;
    }
    std::printf("trace written to %s\n", path.c_str());
    std::printf("tracing overhead %.3f%% (traced median %.6f s over %zu runs, "
                "untraced %.6f s over %zu runs)\n",
                overhead, median(traced_s), traced_s.size(), median(plain_s),
                plain_s.size());
    for (const LayerMetric& m : layer_metrics()) {
      auto it = state.layer.find(m.name);
      if (it == state.layer.end()) {
        std::printf("  %-30s absent\n", m.name.c_str());
      } else {
        std::printf("  %-30s %.6g %s\n", m.name.c_str(), it->second,
                    m.unit.c_str());
      }
    }
  } else {
    std::vector<double> sorted = state.run_s;
    std::sort(sorted.begin(), sorted.end());
    auto at = [&](double q) {
      return sorted.empty() ? -1.0
                            : sorted[static_cast<std::size_t>(
                                  q * static_cast<double>(sorted.size() - 1))];
    };
    std::printf("run_s %.6f s: median of the runs with the least host "
                "steal (at most %.2f%% of CPU time)\n",
                least_stolen_median(state.run_s, state.steal),
                100.0 * median(state.steal));
    std::printf("  all %zu runs: median %.6f s (min %.6f, p25 %.6f, "
                "p75 %.6f, max %.6f), steal median %.2f%%, max %.2f%%\n",
                sorted.size(), median(state.run_s), at(0.0), at(0.25),
                at(0.75), at(1.0), 100.0 * median(state.steal),
                state.steal.empty() ? 0.0
                                    : 100.0 * *std::max_element(
                                                  state.steal.begin(),
                                                  state.steal.end()));
    std::printf("setup_s median %.6f s over %zu set-ups\n",
                median(state.setup_s), state.setup_s.size());
    std::printf("peak_rss_mb %.3f MB through set-up and the first run\n",
                state.peak_rss_mb);
  }

  std::lock_guard<std::mutex> lock(state.mu);
  std::printf("error_rate %.6f (%ld/%ld)\n",
              static_cast<double>(state.failed) /
                  static_cast<double>(state.attempted),
              state.failed, state.attempted);
  const std::string line = result_line(state, o.trace);
  std::filesystem::create_directories(o.work_dir + "/results");
  const std::string result_path =
      o.work_dir + "/results/" + w.name + "-seed" + std::to_string(o.seed) +
      "-trace" + (o.trace ? "1" : "0") + (o.smoke ? "-smoke" : "") + ".json";
  std::string samples;
  for (std::size_t i = 0; i < state.run_s.size(); ++i) {
    samples += (samples.empty() ? "[" : ", [") + json_number(state.run_s[i]) +
               ", " + json_number(state.steal[i]) + "]";
  }
  if (std::FILE* out = std::fopen(result_path.c_str(), "w")) {
    std::fprintf(out,
                 "{\"workload\": %s, \"seed\": %llu, \"seconds\": %s, "
                 "\"trace\": %d, \"host\": %s, \"result\": %s, "
                 "\"run_s_samples\": [%s]}\n",
                 json_string(w.name).c_str(),
                 static_cast<unsigned long long>(o.seed),
                 json_number(o.seconds).c_str(), o.trace ? 1 : 0,
                 fingerprint.c_str(), line.c_str(), samples.c_str());
    std::fclose(out);
  }
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
  return selftest_ok ? 0 : 3;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  // Spawned ranks re-exec this binary; give the runtime first refusal.
  sia::chem::register_chem_superinstructions();
  if (sia::sip::is_spawn_child(argc, argv)) {
    return sia::sip::run_spawn_child(argc, argv);
  }
  if (argc == 2 && std::string(argv[1]) == "--list") {
    for (const std::string& name : perfbench::workload_names()) {
      std::printf("workload %s\n", name.c_str());
    }
    for (const perfbench::LayerMetric& m : perfbench::layer_metrics()) {
      std::printf("per_layer %s %s\n", m.name.c_str(), m.unit.c_str());
    }
    return 0;
  }
  try {
    return perfbench::run(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sia_perfbench: %s\n", e.what());
    return 1;
  }
}
