// In-memory span and counter recorder for the benchmark's traced run.
//
// Spans wrap the benchmark's calls into the public API (compile,
// optimize, analyze, plan, gemm probe, run, reference check); counters
// carry the per-layer figures a run returns. Everything stays in memory
// until write_chrome_json() emits Chrome trace-event JSON (load it in
// chrome://tracing or Perfetto). A disabled tracer records nothing, so
// the untraced runs that give the end-to-end numbers pay one branch.
#pragma once

#include <chrono>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  explicit Tracer(bool enabled);

  bool enabled() const { return enabled_; }

  // Opens a span and returns its id (-1 when disabled). `parent` is the
  // id of the enclosing span, or -1.
  int begin(const std::string& name, int parent = -1);
  void end(int id);

  // Records a counter event named `layer` at the end of span `at` (or
  // now, when `at` is -1), one series per key.
  void counter(const std::string& layer,
               const std::map<std::string, double>& values, int at = -1);

  // Duration in seconds of every closed span with this name, in order.
  std::vector<double> span_seconds(const std::string& name) const;
  // Every recorded value of counter `layer`'s key `key`, in order.
  std::vector<double> counter_values(const std::string& layer,
                                     const std::string& key) const;

  // Writes {"traceEvents": [...], "otherData": <other_json>}. Returns
  // false if the file could not be written.
  bool write_chrome_json(const std::string& path,
                         const std::string& other_json) const;

 private:
  struct Span {
    std::string name;
    int parent = -1;
    double start_us = 0.0;
    double end_us = -1.0;
  };
  struct Counter {
    std::string layer;
    double ts_us = 0.0;
    std::map<std::string, double> values;
  };

  double now_us() const;

  bool enabled_;
  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<Counter> counters_;
};

// Opens a span on construction and closes it on destruction.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& tracer, const std::string& name, int parent = -1)
      : tracer_(tracer), id_(tracer.begin(name, parent)) {}
  ~ScopedSpan() { tracer_.end(id_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  int id() const { return id_; }

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
