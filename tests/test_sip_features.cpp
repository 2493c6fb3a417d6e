// SIP feature tests: subindices (slices, insertions, do-in/pardo-in),
// local arrays with wildcard allocation, and segment-size overrides.
#include <gtest/gtest.h>

#include "sip/launch.hpp"

namespace sia::sip {
namespace {

SipConfig feature_config(int workers = 2) {
  SipConfig config;
  config.workers = workers;
  config.io_servers = 0;
  config.default_segment = 4;
  config.subsegments_per_segment = 2;
  config.constants = {{"n", 8}};
  return config;
}

RunResult run(const std::string& body,
              SipConfig config = feature_config()) {
  Sip sip(config);
  return sip.run_source("sial test\n" + body + "\nendsial\n");
}

// Slices and insertions with hand-computed results, run on both engines:
// at issue on the interpreter thread (worker_threads 0) and through a
// 2-thread window.
class SipFeatureEngineTest : public ::testing::TestWithParam<int> {
 protected:
  SipConfig config() const {
    SipConfig config = feature_config();
    config.worker_threads = GetParam();
    return config;
  }
};

INSTANTIATE_TEST_SUITE_P(Engines, SipFeatureEngineTest,
                         ::testing::Values(0, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

// Sum over the n x n grid (n = 8) of the squares of fill_coords' values,
// 100 * r + c at 1-based element (r, c).
double coords_norm2() {
  double sum = 0.0;
  for (long r = 1; r <= 8; ++r) {
    for (long c = 1; c <= 8; ++c) sum += (100.0 * r + c) * (100.0 * r + c);
  }
  return sum;
}

TEST(SipFeatureTest, DoInIteratesSubsegmentsOfCurrentBlock) {
  // n = 8, segment 4 -> 2 segments; 2 subsegments each -> ii visits 4
  // values total, 2 per super segment.
  const RunResult result = run(R"(
moindex i = 1, n
subindex ii of i
scalar count
scalar subsum
do i
  do ii in i
    count += 1.0
    subsum += ii
  enddo ii
enddo i
)");
  EXPECT_DOUBLE_EQ(result.scalar("count"), 4.0);
  EXPECT_DOUBLE_EQ(result.scalar("subsum"), 1.0 + 2.0 + 3.0 + 4.0);
}

TEST_P(SipFeatureEngineTest, SliceExtractsSubblock) {
  // Xi is a full block (4 wide); Xii picks the subblock; the paper's
  // Figure 1 scenario reduced to one dimension plus a second index.
  const RunResult result = run(R"(
moindex i = 1, n
moindex j = 1, n
subindex ii of i
temp xi(i,j)
temp xii(ii,j)
scalar norm_full
scalar norm_parts
do i
  do j
    execute fill_coords xi(i,j)
    norm_full += xi(i,j) * xi(i,j)
    do ii in i
      xii(ii,j) = xi(ii,j)
      norm_parts += xii(ii,j) * xii(ii,j)
    enddo ii
  enddo j
enddo i
)",
                               config());
  // Slices tile the block exactly: the norms must agree.
  EXPECT_NEAR(result.scalar("norm_parts"), result.scalar("norm_full"),
              1e-9);
  EXPECT_GT(result.scalar("norm_full"), 0.0);
  EXPECT_DOUBLE_EQ(result.scalar("norm_full"), coords_norm2());
  EXPECT_DOUBLE_EQ(result.scalar("norm_parts"), coords_norm2());
}

TEST_P(SipFeatureEngineTest, InsertionWritesBackSubblock) {
  const RunResult result = run(R"(
moindex i = 1, n
moindex j = 1, n
subindex ii of i
temp xi(i,j)
temp xii(ii,j)
scalar diff
do i
  do j
    execute fill_coords xi(i,j)
    do ii in i
      xii(ii,j) = xi(ii,j)
      xii(ii,j) *= 2.0
      xi(ii,j) = xii(ii,j)
    enddo ii
    # xi is now exactly doubled
    diff += xi(i,j) * xi(i,j)
  enddo j
enddo i
)",
                               config());
  EXPECT_GT(result.scalar("diff"), 0.0);
  EXPECT_DOUBLE_EQ(result.scalar("diff"), 4.0 * coords_norm2());
}

TEST_P(SipFeatureEngineTest, InsertionDoublesExactly) {
  const RunResult result = run(R"(
moindex i = 1, n
moindex j = 1, n
subindex ii of i
temp xi(i,j)
temp yi(i,j)
temp xii(ii,j)
temp di(i,j)
scalar err
do i
  do j
    execute fill_coords xi(i,j)
    execute fill_coords yi(i,j)
    yi(i,j) *= 2.0
    do ii in i
      xii(ii,j) = xi(ii,j)
      xii(ii,j) *= 2.0
      xi(ii,j) = xii(ii,j)
    enddo ii
    di(i,j) = xi(i,j) - yi(i,j)
    err += di(i,j) * di(i,j)
  enddo j
enddo i
)",
                               config());
  EXPECT_NEAR(result.scalar("err"), 0.0, 1e-18);
}

TEST(SipFeatureTest, PardoInParallelizesSubsegments) {
  const RunResult result = run(R"(
moindex i = 1, n
subindex ii of i
scalar lsum
scalar total
do i
  pardo ii in i
    lsum += 1.0
  endpardo ii
enddo i
total = 0.0
collective total += lsum
)");
  EXPECT_DOUBLE_EQ(result.scalar("total"), 4.0);
}

TEST_P(SipFeatureEngineTest, StaticSliceAndInsert) {
  const RunResult result = run(R"(
moindex i = 1, n
subindex ii of i
static s(i)
temp t(ii)
scalar sum
do i
  do ii in i
    t(ii) = 1.0
    s(ii) = t(ii)
  enddo ii
enddo i
do i
  sum += s(i) * s(i)
enddo i
)",
                               config());
  EXPECT_DOUBLE_EQ(result.scalar("sum"), 8.0);
}

TEST(SipFeatureTest, AllocateWildcardRow) {
  // allocate l(*,j) materializes a full row of blocks (the paper's "fully
  // formed in at least one dimension").
  const RunResult result = run(R"(
moindex i = 1, n
moindex j = 1, n
local l(i,j)
temp t(i,j)
scalar sum
do j
  allocate l(*,j)
  do i
    t(i,j) = 1.0
    l(i,j) = t(i,j)
  enddo i
  do i
    sum += l(i,j) * l(i,j)
  enddo i
  deallocate l(*,j)
enddo j
)");
  EXPECT_DOUBLE_EQ(result.scalar("sum"), 64.0);
}

TEST(SipFeatureTest, LocalPersistsAcrossPardoIterations) {
  const RunResult result = run(R"(
moindex i = 1, n
moindex j = 1, n
local l(i,j)
temp t(i,j)
scalar lsum
scalar total
allocate l(*,*)
pardo i, j
  t(i,j) = 2.0
  l(i,j) = t(i,j)
endpardo i, j
pardo i, j
  lsum += l(i,j) * l(i,j)
endpardo i, j
total = 0.0
collective total += lsum
)",
                               feature_config(1));
  // Single worker: the same worker wrote and reads all blocks.
  EXPECT_DOUBLE_EQ(result.scalar("total"), 64.0 * 4.0);
}

TEST(SipFeatureTest, SegmentOverrideChangesGranularity) {
  SipConfig config = feature_config();
  config.segment_overrides["moindex"] = 2;  // 4 segments instead of 2
  const RunResult result = run(R"(
moindex i = 1, n
scalar count
do i
  count += 1.0
enddo i
)",
                               config);
  EXPECT_DOUBLE_EQ(result.scalar("count"), 4.0);
}

TEST(SipFeatureTest, ResultIndependentOfSubsegmentCount) {
  const std::string program = R"(
moindex i = 1, n
moindex j = 1, n
subindex ii of i
temp xi(i,j)
temp xii(ii,j)
scalar norm
do i
  do j
    execute fill_coords xi(i,j)
    do ii in i
      xii(ii,j) = xi(ii,j)
      norm += xii(ii,j) * xii(ii,j)
    enddo ii
  enddo j
enddo i
)";
  SipConfig two = feature_config();
  two.subsegments_per_segment = 2;
  SipConfig four = feature_config();
  four.subsegments_per_segment = 4;
  const RunResult result_two = run(program, two);
  const RunResult result_four = run(program, four);
  EXPECT_NEAR(result_two.scalar("norm"), result_four.scalar("norm"), 1e-9);
}

TEST(SipFeatureTest, PrintStatementsDoNotDisturbResults) {
  const RunResult result = run(R"(
scalar x
println "starting"
x = 42.0
print x
println "done"
)");
  EXPECT_DOUBLE_EQ(result.scalar("x"), 42.0);
}

}  // namespace
}  // namespace sia::sip
