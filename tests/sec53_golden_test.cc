// The paper's Section 5.3.2 table as an exact golden: experiments U, C, D
// and R with bench_sec53_experiments' configuration (5000 points, page
// capacity 20, data seed 11, query seed 53, five locations per cell).
// Every figure is a counter, so the table is a pure function of the seeds
// and immune to host noise. Per experiment it records the leaf pages and
// the tree height; per (volume, aspect) cell the data pages summed over
// the five queries, the most any one of them read, and the results summed.
// A fault in the skip-merge moves pages or results and fails it. Review a
// diff, then regenerate with
//
//   ./sec53_golden_test --update-golden

#include <cmath>
#include <cstdio>
#include <string>

#include <gtest/gtest.h>

#include "golden.h"
#include "workload/experiment.h"

namespace probe::workload {
namespace {

/// A per-query mean over the cell's locations, back to the exact sum.
uint64_t Sum(double mean, int locations) {
  return static_cast<uint64_t>(std::llround(mean * locations));
}

std::string Render(Distribution dist) {
  ExperimentConfig config;
  config.data.distribution = dist;
  config.data.count = 5000;
  config.data.seed = 11;
  config.query_seed = 53;
  const ExperimentReport report = RunRangeExperiment(config);

  char line[160];
  std::snprintf(line, sizeof(line),
                "experiment %s: points %llu, leaf pages %llu, height %d\n"
                "volume aspect pages_sum pages_max results_sum\n",
                DistributionName(dist).c_str(),
                static_cast<unsigned long long>(report.points),
                static_cast<unsigned long long>(report.leaf_pages),
                report.tree_height);
  std::string out = line;
  for (const ExperimentCell& cell : report.cells) {
    std::snprintf(line, sizeof(line), "%g %g %llu %llu %llu\n", cell.volume,
                  cell.aspect,
                  static_cast<unsigned long long>(
                      Sum(cell.mean_pages, config.locations)),
                  static_cast<unsigned long long>(cell.max_pages),
                  static_cast<unsigned long long>(
                      Sum(cell.mean_results, config.locations)));
    out += line;
  }
  return out;
}

TEST(Sec53GoldenTest, ExperimentsUCDR) {
  std::string table;
  for (const Distribution dist :
       {Distribution::kUniform, Distribution::kClustered,
        Distribution::kDiagonal, Distribution::kRoadNetwork}) {
    if (!table.empty()) table += "\n";
    table += Render(dist);
  }
  testutil::CheckGolden("sec53_experiments.txt", table);
}

}  // namespace
}  // namespace probe::workload

int main(int argc, char** argv) {
  return probe::testutil::GoldenTestMain(argc, argv);
}
