#include "trace.hpp"

#include <cstdio>

#include "json.hpp"

namespace perfbench {

Tracer::Tracer(bool enabled)
    : enabled_(enabled), origin_(std::chrono::steady_clock::now()) {}

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::begin(const std::string& name, int parent) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, parent, now_us(), -1.0});
  return static_cast<int>(spans_.size()) - 1;
}

void Tracer::end(int id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end_us = now_us();
}

void Tracer::counter(const std::string& layer,
                     const std::map<std::string, double>& values, int at) {
  if (!enabled_ || values.empty()) return;
  const double ts = at >= 0 ? spans_[static_cast<std::size_t>(at)].end_us
                            : now_us();
  counters_.push_back(Counter{layer, ts, values});
}

std::vector<double> Tracer::span_seconds(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (span.name == name && span.end_us >= 0.0) {
      out.push_back((span.end_us - span.start_us) * 1e-6);
    }
  }
  return out;
}

std::vector<double> Tracer::counter_values(const std::string& layer,
                                           const std::string& key) const {
  std::vector<double> out;
  for (const Counter& c : counters_) {
    if (c.layer != layer) continue;
    auto it = c.values.find(key);
    if (it != c.values.end()) out.push_back(it->second);
  }
  return out;
}

bool Tracer::write_chrome_json(const std::string& path,
                               const std::string& other_json) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"traceEvents\": [\n", out);
  bool first = true;
  auto sep = [&] {
    if (!first) std::fputs(",\n", out);
    first = false;
  };
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_us < 0.0) continue;
    sep();
    std::fprintf(out,
                 "{\"name\": %s, \"cat\": \"perfbench\", \"ph\": \"X\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, "
                 "\"args\": {\"span_id\": %zu, \"parent_id\": %d}}",
                 json_string(span.name).c_str(), span.start_us,
                 span.end_us - span.start_us, i, span.parent);
  }
  for (const Counter& c : counters_) {
    sep();
    std::fprintf(out,
                 "{\"name\": %s, \"cat\": \"perfbench\", \"ph\": \"C\", "
                 "\"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"args\": {",
                 json_string(c.layer).c_str(), c.ts_us);
    bool first_value = true;
    for (const auto& [key, value] : c.values) {
      std::fprintf(out, "%s%s: %s", first_value ? "" : ", ",
                   json_string(key).c_str(), json_number(value).c_str());
      first_value = false;
    }
    std::fputs("}}", out);
  }
  std::fprintf(out, "\n], \"displayTimeUnit\": \"ms\", \"otherData\": %s}\n",
               other_json.c_str());
  return std::fclose(out) == 0;
}

}  // namespace perfbench
