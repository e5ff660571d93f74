#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include <sched.h>
#include <sys/resource.h>

namespace perfbench {

double UsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

double UsSince(Clock::time_point start) {
  return UsBetween(start, Clock::now());
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(p * static_cast<double>(values.size()));
  const size_t i = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return values[std::min(i, values.size() - 1)];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

int Cores() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return static_cast<int>(std::max(1u, std::thread::hardware_concurrency()));
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// ------------------------------------------------------------------ Result

void Result::Set(const std::string& name, double value,
                 const std::string& unit) {
  metrics_[name] = Metric{value, unit};
}

void Result::Fail(const std::string& what) {
  ++failed_;
  if (failed_ <= 20) std::fprintf(stderr, "output check failed: %s\n", what.c_str());
}

void Result::Restrict(
    const std::vector<std::pair<std::string, std::string>>& names,
    bool required) {
  std::map<std::string, Metric> kept;
  for (const auto& [name, unit] : names) {
    const auto it = metrics_.find(name);
    if (it != metrics_.end()) {
      kept[name] = Metric{it->second.value, unit};
    } else {
      if (required) Fail("metric " + name + " was not measured");
      kept[name] = Metric{0.0, unit};
    }
  }
  metrics_ = std::move(kept);
}

std::string Result::Json() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  char number[64];
  for (const auto& [name, metric] : metrics_) {
    if (!first) out += ", ";
    first = false;
    const double v = std::isfinite(metric.value) ? metric.value : 0.0;
    std::snprintf(number, sizeof(number), "%.17g", v);
    out += "\"" + name + "\": {\"value\": " + number + ", \"unit\": \"" +
           metric.unit + "\"}";
  }
  out += "}}";
  return out;
}

// ------------------------------------------------------------------ Tracer

namespace {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

std::string LayerOf(const char* name) {
  const std::string s(name);
  return s.substr(0, s.find('.'));
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, uint64_t request)
    : tracer_(tracer) {
  if (tracer_ == nullptr || !tracer_->enabled_) return;
  index_ = static_cast<int32_t>(tracer_->spans_.size());
  tracer_->spans_.push_back(Span{name, NowNs(), 0, tracer_->open_, request});
  tracer_->open_ = index_;
}

Tracer::Scope::~Scope() {
  if (index_ < 0) return;
  Span& span = tracer_->spans_[static_cast<size_t>(index_)];
  span.end_ns = NowNs();
  tracer_->open_ = span.parent;
}

std::map<std::string, double> Tracer::SelfUsByLayer() const {
  std::vector<int64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[LayerOf(s.name)] +=
        static_cast<double>(s.end_ns - s.start_ns - child_ns[i]) / 1000.0;
  }
  return self;
}

bool Tracer::Write(const std::string& path, const std::string& thread) const {
  if (path.empty() || spans_.empty()) return true;
  FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"thread\":\"%s\",\"span\":%zu,\"name\":\"%s\","
                 "\"start_ns\":%lld,\"end_ns\":%lld,\"parent\":%d,"
                 "\"request\":%llu}\n",
                 thread.c_str(), i, s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns), s.parent,
                 static_cast<unsigned long long>(s.request));
  }
  return std::fclose(f) == 0;
}

const std::vector<std::string>& TracedLayers() {
  static const std::vector<std::string> layers = {
      "bench", "server",  "protocol", "engine", "index",
      "btree", "storage", "nearest",  "query",  "relational"};
  return layers;
}

void SetSelfTimes(const std::vector<std::pair<const Tracer*, uint64_t>>& tracers,
                  Result* result) {
  std::map<std::string, double> per_op;
  for (const auto& [tracer, ops] : tracers) {
    const double n = static_cast<double>(std::max<uint64_t>(1, ops));
    for (const auto& [layer, us] : tracer->SelfUsByLayer()) per_op[layer] += us / n;
  }
  for (const std::string& layer : TracedLayers()) {
    result->Set(layer + ".self_us", per_op[layer], "us");
  }
}

void PrintEnvironment(const Args& args) {
#if defined(__x86_64__) || defined(__i386__)
  const bool avx2 = __builtin_cpu_supports("avx2");
  const bool bmi2 = __builtin_cpu_supports("bmi2");
#else
  const bool avx2 = false;
  const bool bmi2 = false;
#endif
  std::printf(
      "env {\"compiler\": \"%s\", \"build_type\": \"%s\", \"cores\": %d, "
      "\"avx2\": %s, \"bmi2\": %s, \"workload\": \"%s\", \"seed\": %llu, "
      "\"seconds\": %g, \"trace\": %s}\n",
      PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, Cores(),
      avx2 ? "true" : "false", bmi2 ? "true" : "false", args.workload.c_str(),
      static_cast<unsigned long long>(args.seed), args.seconds,
      args.trace ? "true" : "false");
}

}  // namespace perfbench
