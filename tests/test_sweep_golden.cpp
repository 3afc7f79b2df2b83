// Golden-file regression over the sweep output format: the byte-exact CSVs
// of the `wsf-sweep --smoke` grid (exp::smoke_spec(), fixed seeds) and of
// the same grid under steal-half with the last-victim and nearest victim
// policies are checked into tests/golden/ and diffed against fresh
// in-process runs. Any silent drift in simulation results, row order,
// aggregation, victim selection, or CSV rendering (e.g. mangled commas)
// fails here in ctest instead of only in CI's shard-merge diff.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "exp/checkpoint.hpp"
#include "exp/sweep.hpp"
#include "support/table.hpp"

#if !defined(WSF_GOLDEN_FILE) || !defined(WSF_STEAL_GOLDEN_FILE)
#error "WSF_GOLDEN_FILE and WSF_STEAL_GOLDEN_FILE must point at tests/golden/"
#endif

namespace wsf {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

struct Golden {
  const char* name;
  const char* path;
  /// wsf-sweep flags that regenerate the file.
  const char* flags;
  exp::SweepSpec (*spec)();
  std::size_t rows;
};

exp::SweepSpec steal_smoke_spec() {
  exp::SweepSpec spec = exp::smoke_spec();
  spec.steal_policies = {core::StealPolicy::Half};
  spec.victim_policies = {core::VictimPolicy::LastVictim,
                          core::VictimPolicy::Nearest};
  return spec;
}

class SweepGolden : public ::testing::TestWithParam<Golden> {
 protected:
  std::string regenerate_hint() const {
    return std::string("  ./build/tools/wsf-sweep ") + GetParam().flags +
           " --format=csv --out=" + GetParam().path;
  }
};

TEST_P(SweepGolden, CsvMatchesCheckedInGoldenFile) {
  const Golden& g = GetParam();
  const std::string golden = slurp(g.path);
  ASSERT_FALSE(golden.empty()) << "cannot read golden file " << g.path
                               << " — regenerate with:\n"
                               << regenerate_hint();
  exp::SweepTableOptions opts;
  opts.threads = 4;
  const std::string fresh = exp::run_sweep_table(g.spec(), opts).to_csv();
  if (fresh != golden) {
    // Find the first differing line so the failure is actionable without
    // diffing hundreds of lines by eye.
    std::istringstream a(golden), b(fresh);
    std::string la, lb;
    std::size_t line = 0;
    while (std::getline(a, la) && std::getline(b, lb)) {
      ++line;
      if (la != lb) break;
    }
    FAIL() << "sweep CSV drifted from the golden file at line " << line
           << "\n  golden: " << la << "\n  fresh:  " << lb
           << "\nIf the change is intentional, regenerate with:\n"
           << regenerate_hint();
  }
}

TEST_P(SweepGolden, GoldenFileIsLosslessUnderRoundTrip) {
  // The golden bytes themselves round-trip through the parser — so the
  // checked-in artifact stays loadable by wsf-plot and merge tooling.
  const std::string golden = slurp(GetParam().path);
  ASSERT_FALSE(golden.empty());
  const support::Table t = support::Table::from_csv(golden);
  EXPECT_EQ(t.to_csv(), golden);
  EXPECT_EQ(t.headers(), exp::sweep_table_headers());
  EXPECT_EQ(t.num_rows(), GetParam().rows);  // the grid's configuration count
}

INSTANTIATE_TEST_SUITE_P(
    Grids, SweepGolden,
    ::testing::Values(
        Golden{"Smoke", WSF_GOLDEN_FILE, "--smoke", exp::smoke_spec, 120},
        Golden{"StealSmoke", WSF_STEAL_GOLDEN_FILE,
               "--smoke --steal=half --victim=last-victim,nearest",
               steal_smoke_spec, 240}),
    [](const auto& info) { return std::string(info.param.name); });

}  // namespace
}  // namespace wsf
