// Shared pieces of the load generator: arguments, timing, percentiles,
// the in-memory span tracer and the result line.

#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Command line of one run (see main.cc).
struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Per-run scratch directory for database files; run.py creates it and
  /// removes it afterwards, also when the run fails.
  std::string dir;
  /// Where a traced run writes its spans (JSON lines).
  std::string spans_out;
};

double UsSince(Clock::time_point start);
double UsBetween(Clock::time_point a, Clock::time_point b);

/// Nearest-rank percentile (p in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Cores the scheduler gives this process.
int Cores();

/// Peak resident set of this process, in MiB.
double PeakRssMb();

/// The last stdout line of a run: correctness, attempt/failure counts and
/// named metrics with units.
class Result {
 public:
  void Set(const std::string& name, double value, const std::string& unit);
  /// Records a failed output check (counted, and printed to stderr).
  void Fail(const std::string& what);
  void Attempt(uint64_t n = 1) { attempted_ += n; }

  /// Keeps exactly the metrics `names` (name, unit). A missing one is a
  /// failure when `required`, and otherwise reads 0: that layer is not on
  /// this workload's path.
  void Restrict(const std::vector<std::pair<std::string, std::string>>& names,
                bool required);

  bool correct() const { return failed_ == 0 && attempted_ > 0; }
  std::string Json() const;

 private:
  struct Metric {
    double value = 0;
    std::string unit;
  };
  std::map<std::string, Metric> metrics_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// In-memory span recorder for one thread. A span is named
/// "<layer>.<call>"; spans nest through Scope lifetimes, and the spans of
/// one request share its id. Disabled tracers record nothing.
class Tracer {
 public:
  struct Span {
    const char* name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int32_t parent = -1;
    uint64_t request = 0;
  };

  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, uint64_t request);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    int32_t index_ = -1;
  };

  explicit Tracer(bool enabled) : enabled_(enabled) {}

  /// Self time (span duration minus the part its children cover), summed
  /// per layer, in microseconds.
  std::map<std::string, double> SelfUsByLayer() const;

  /// Appends the spans as JSON lines, tagged with `thread`.
  bool Write(const std::string& path, const std::string& thread) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int32_t open_ = -1;
};

/// Every layer the benchmark traces, in report order.
const std::vector<std::string>& TracedLayers();

/// Adds "<layer>.self_us" for every traced layer: for each tracer, its
/// self time in the layer per operation that tracer traced (the tracer's
/// op count given beside it), summed over the tracers.
void SetSelfTimes(const std::vector<std::pair<const Tracer*, uint64_t>>& tracers,
                  Result* result);

/// Prints the environment block (compiler, build type, cores, ISA).
void PrintEnvironment(const Args& args);

/// Workload entry points; each fills `result` and returns false only on a
/// set-up failure that leaves no result to report.
bool RunServeRead(const Args& args, Result* result);
bool RunServeWrite(const Args& args, Result* result);
bool RunNearest(const Args& args, Result* result);
bool RunCrossmatch(const Args& args, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
