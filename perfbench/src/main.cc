// The load generator: runs one workload and prints its result line.
//
//   perfbench --workload <serve_read|serve_write|nearest|crossmatch>
//             --seed <n> --seconds <s> --trace <0|1> --dir <scratch dir>
//             [--spans <file>]
//
// --trace 0 measures the end-to-end metrics; --trace 1 is the separate
// traced run that reports the per-layer metrics. The last stdout line is
// the JSON result; run.py wraps this binary (build, scratch directory,
// source stamp). Exit status is 0 only when every output check passed.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace {

using perfbench::Args;
using perfbench::Result;

// Name and unit of every metric a run reports; BENCHMARK.json lists the
// same names.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"throughput", "1/s"},      {"p50_us", "us"},
    {"p99_us", "us"},           {"setup_s", "s"},
    {"peak_rss_mb", "MiB"},      {"bytes_per_point", "B"},
};

// A layer metric that a workload's path never reaches reads 0 there (a
// traced crossmatch makes no server calls, so its server numbers are 0).
std::vector<std::pair<std::string, std::string>> PerLayer() {
  std::vector<std::pair<std::string, std::string>> metrics = {
      {"server.ping_us", "us"},
      {"server.wire_overhead_us", "us"},
      {"protocol.encode_us", "us"},
      {"protocol.decode_us", "us"},
      {"engine.view_create_us", "us"},
      {"engine.view_drop_us", "us"},
      {"engine.new_epoch_view_share", "ratio"},
      {"index.query_us", "us"},
      {"index.seeks_per_query", "count"},
      {"index.efficiency", "ratio"},
      {"btree.leaf_pages_per_query", "count"},
      {"btree.internal_pages_per_query", "count"},
      {"decompose.elements_per_query", "count"},
      {"storage.pager_reads_per_query", "count"},
      {"wal.bytes_per_point", "B"},
      {"wal.commits_per_fsync", "ratio"},
      {"checkpoint.ms", "ms"},
      {"commit.p50_us", "us"},
      {"commit.p99_us", "us"},
      {"commit.late_p99_us", "us"},
      {"nearest.regions_per_query", "count"},
      {"nearest.scans_per_query", "count"},
      {"nearest.points_examined_per_result", "count"},
      {"nearest.leaf_pages_per_query", "count"},
      {"join.sort_s", "s"},
      {"join.merge_s", "s"},
      {"join.candidate_ratio", "ratio"},
      {"join.sort_pages", "count"},
      {"join.parallel_speedup", "ratio"},
      {"query.plan_us", "us"},
      {"trace.overhead_pct", "%"},
  };
  for (const std::string& layer : perfbench::TracedLayers()) {
    metrics.emplace_back(layer + ".self_us", "us");
  }
  return metrics;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--dir") {
      args->dir = value;
    } else if (key == "--spans") {
      args->spans_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->dir.empty() &&
         args->seconds > 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload W --seed N --seconds S "
                 "--trace 0|1 --dir DIR [--spans FILE]\n");
    return 2;
  }
  perfbench::PrintEnvironment(args);

  Result result;
  bool ran = false;
  if (args.workload == "serve_read") {
    ran = perfbench::RunServeRead(args, &result);
  } else if (args.workload == "serve_write") {
    ran = perfbench::RunServeWrite(args, &result);
  } else if (args.workload == "nearest") {
    ran = perfbench::RunNearest(args, &result);
  } else if (args.workload == "crossmatch") {
    ran = perfbench::RunCrossmatch(args, &result);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }
  if (!ran) {
    std::fprintf(stderr, "workload '%s' failed during set-up\n",
                 args.workload.c_str());
    return 1;
  }

  result.Restrict(args.trace ? PerLayer() : kEndToEnd,
                  /*required=*/!args.trace);
  std::printf("%s\n", result.Json().c_str());
  return result.correct() ? 0 : 1;
}
