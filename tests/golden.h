#ifndef PROBE_TESTS_GOLDEN_H_
#define PROBE_TESTS_GOLDEN_H_

#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

/// \file
/// Golden-file snapshots: a test renders a deterministic text (an EXPLAIN
/// plan, the Section 5.3.2 table) and compares it byte for byte with a
/// checked-in file under tests/golden/. A diff is a behavior change:
/// review it, then regenerate every snapshot of that test binary with
///
///   ./<test> --update-golden
///
/// which rewrites the files in the source tree and exits green. Each
/// golden test gets PROBE_GOLDEN_DIR from tests/CMakeLists.txt and uses
/// GoldenTestMain as its main().

namespace probe::testutil {

/// True when the binary was started with --update-golden.
inline bool& UpdateGolden() {
  static bool update = false;
  return update;
}

/// Compares `content` with tests/golden/`file`, or rewrites that file
/// under --update-golden.
inline void CheckGolden(const std::string& file, const std::string& content) {
  const std::string path = std::string(PROBE_GOLDEN_DIR) + "/" + file;
  if (UpdateGolden()) {
    std::ofstream out(path, std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << content;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << path
                         << " is missing; run with --update-golden to create";
  std::ostringstream want;
  want << in.rdbuf();
  EXPECT_EQ(content, want.str())
      << "'" << file << "' drifted from " << path
      << "\nif the change is intended, rerun with --update-golden";
}

/// main() of a golden test: strips --update-golden, then runs the tests.
inline int GoldenTestMain(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--update-golden") {
      UpdateGolden() = true;
      for (int j = i; j + 1 < argc; ++j) argv[j] = argv[j + 1];
      --argc;
      break;
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}

}  // namespace probe::testutil

#endif  // PROBE_TESTS_GOLDEN_H_
