// Deeper interpreter scenarios: rank-6 intermediates (the paper's §IV-E
// motivation for subindices), nested procedures, execute over
// distributed operands, and tail-segment arithmetic.
#include <gtest/gtest.h>

#include <cmath>

#include "chem/integrals.hpp"
#include "sip/launch.hpp"

namespace sia::sip {
namespace {

SipConfig more_config(int workers = 2, int segment = 2) {
  chem::register_chem_superinstructions();
  SipConfig config;
  config.workers = workers;
  config.io_servers = 0;
  config.default_segment = segment;
  config.subsegments_per_segment = 2;
  config.constants = {{"n", 4}, {"big", 10}};
  return config;
}

RunResult run(const std::string& body, SipConfig config = more_config()) {
  Sip sip(config);
  return sip.run_source("sial test\n" + body + "\nendsial\n");
}

// Puts and remote operands with hand-computed results, run on both
// engines: at issue on the interpreter thread (worker_threads 0) and
// through a 2-thread window.
class SipMoreEngineTest : public ::testing::TestWithParam<int> {
 protected:
  SipConfig config() const {
    SipConfig config = more_config();
    config.worker_threads = GetParam();
    return config;
  }
};

INSTANTIATE_TEST_SUITE_P(Engines, SipMoreEngineTest, ::testing::Values(0, 2),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "threads" + std::to_string(info.param);
                         });

TEST(SipMoreTest, Rank6ContractionFromTwoRank4s) {
  // The paper's A(a,b,c,k)*B(k,l,m,n) -> C(a,b,c,l,m,n) case (§IV-E).
  const RunResult result = run(R"(
moindex a = 1, n
moindex b = 1, n
moindex c = 1, n
moindex k = 1, n
moindex l = 1, n
moindex m = 1, n
moindex q = 1, n
temp ta(a,b,c,k)
temp tb(k,l,m,q)
temp tc(a,b,c,l,m,q)
scalar s
scalar total
pardo a, b
  do c
    do l
      do m
        do q
          tc(a,b,c,l,m,q) = 0.0
          do k
            execute fill_value ta(a,b,c,k) 1.0
            execute fill_value tb(k,l,m,q) 1.0
            tc(a,b,c,l,m,q) += ta(a,b,c,k) * tb(k,l,m,q)
          enddo k
          s += tc(a,b,c,l,m,q) * tc(a,b,c,l,m,q)
        enddo q
      enddo m
    enddo l
  enddo c
endpardo a, b
total = 0.0
collective total += s
)");
  // Every rank-6 element is sum over 4 k-elements of 1*1 = 4; there are
  // 4^6 elements in total across all blocks.
  EXPECT_DOUBLE_EQ(result.scalar("total"), 4096.0 * 16.0);
}

TEST(SipMoreTest, Rank6WithSubindexDimensions) {
  // Declaring the intermediate over subindices shrinks its blocks by the
  // sub-segmentation factor — the paper's remedy for seg^6 blow-up.
  const RunResult result = run(R"(
moindex a = 1, n
moindex b = 1, n
subindex aa of a
temp small(aa,b)
temp full(a,b)
scalar s
do a
  do b
    execute fill_coords full(a,b)
    do aa in a
      small(aa,b) = full(aa,b)
      s += small(aa,b) * small(aa,b)
    enddo aa
  enddo b
enddo a
)");
  // The sliced pieces tile the full blocks: compare against a direct sum.
  const RunResult direct = run(R"(
moindex a = 1, n
moindex b = 1, n
temp full(a,b)
scalar s
do a
  do b
    execute fill_coords full(a,b)
    s += full(a,b) * full(a,b)
  enddo b
enddo a
)");
  EXPECT_NEAR(result.scalar("s"), direct.scalar("s"), 1e-9);
}

TEST(SipMoreTest, NestedProcedureCalls) {
  const RunResult result = run(R"(
scalar x
proc inner
  x += 1.0
endproc
proc outer
  call inner
  call inner
endproc
call outer
call outer
call inner
)");
  EXPECT_DOUBLE_EQ(result.scalar("x"), 5.0);
}

TEST_P(SipMoreEngineTest, ExecuteReadsDistributedBlock) {
  // A super instruction may take a distributed block as a (read-only)
  // argument; the interpreter fetches and clones it.
  const RunResult result = run(R"(
moindex i = 1, n
distributed d(i)
temp t(i)
scalar nrm
pardo i
  t(i) = 3.0
  put d(i) = t(i)
endpardo i
sip_barrier
do i
  get d(i)
  execute block_nrm2 d(i) nrm
enddo i
)",
                               config());
  // Last block visited: 2 elements of 3.0.
  EXPECT_NEAR(result.scalar("nrm"), std::sqrt(2.0 * 9.0), 1e-12);
}

TEST(SipMoreTest, TailSegmentsEverywhere) {
  // big = 10 with segment 4: segments of extent 4, 4, 2.
  SipConfig config = more_config(3, 4);
  const RunResult result = run(R"(
moindex p = 1, big
moindex q = 1, big
distributed d(p,q)
temp t(p,q)
temp u(p,q)
scalar lsum
scalar total
pardo p, q
  t(p,q) = 1.0
  put d(p,q) = t(p,q)
endpardo p, q
sip_barrier
pardo p, q
  get d(p,q)
  u(p,q) = d(p,q)
  lsum += u(p,q) * u(p,q)
endpardo p, q
total = 0.0
collective total += lsum
)",
                               config);
  EXPECT_DOUBLE_EQ(result.scalar("total"), 100.0);
}

TEST(SipMoreTest, ContractionOverTailSegments) {
  SipConfig config = more_config(2, 4);
  const RunResult result = run(R"(
moindex p = 1, big
moindex q = 1, big
moindex r = 1, big
temp a(p,q)
temp b(q,r)
temp c(p,r)
scalar s
do p
  do r
    c(p,r) = 0.0
    do q
      a(p,q) = 1.0
      b(q,r) = 1.0
      c(p,r) += a(p,q) * b(q,r)
    enddo q
    s += c(p,r) * c(p,r)
  enddo r
enddo p
)",
                               config);
  // Each c element sums over all 10 q elements -> 10; 100 elements total.
  EXPECT_DOUBLE_EQ(result.scalar("s"), 100.0 * 100.0);
}

TEST(SipMoreTest, IfInsidePardoUsesIterationIndices) {
  const RunResult result = run(R"(
moindex i = 1, n
scalar lsum
scalar total
pardo i
  if i == 1
    lsum += 10.0
  else
    lsum += 1.0
  endif
endpardo i
total = 0.0
collective total += lsum
)");
  // Segments 1 and 2: one takes the then-branch, one the else-branch.
  EXPECT_DOUBLE_EQ(result.scalar("total"), 11.0);
}

TEST(SipMoreTest, ScalarsSurviveAcrossPardosPerWorker) {
  const RunResult result = run(R"(
moindex i = 1, n
scalar steps
scalar total
steps = 100.0
pardo i
  steps += 1.0
endpardo i
pardo i
  steps += 1.0
endpardo i
total = 0.0
collective total += steps
)");
  // Each of 2 workers starts at 100 and adds its iteration count; the
  // total over workers is 2*100 + 4 (iterations of both pardos).
  EXPECT_DOUBLE_EQ(result.scalar("total"), 204.0);
}

TEST_P(SipMoreEngineTest, PutFromStaticBlock) {
  // Also put += and prepare += from a permuted source, twice each. (A
  // sliced source cannot be put: sema rejects subindices on distributed
  // and served arrays, and put/prepare need matching indices.)
  SipConfig config = this->config();
  config.io_servers = 1;
  const RunResult result = run(R"(
moindex i = 1, n
moindex j = 1, n
static st(i)
static sp(i,j)
distributed d(i)
distributed e(j,i)
served s(j,i)
temp u(i)
temp v(j,i)
temp w(j,i)
scalar lsum
scalar total
scalar ecross
scalar scross
do i
  st(i) = 4.0
  do j
    execute fill_coords sp(i,j)
  enddo j
enddo i
pardo i
  put d(i) = st(i)
endpardo i
pardo i, j
  put e(j,i) += sp(i,j)
  put e(j,i) += sp(i,j)
  prepare s(j,i) += sp(i,j)
  prepare s(j,i) += sp(i,j)
endpardo i, j
sip_barrier
server_barrier
pardo i
  get d(i)
  u(i) = d(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
lsum = 0.0
pardo j, i
  execute fill_coords w(j,i)
  get e(j,i)
  v(j,i) = e(j,i)
  lsum += v(j,i) * w(j,i)
endpardo j, i
ecross = 0.0
collective ecross += lsum
lsum = 0.0
pardo j, i
  execute fill_coords w(j,i)
  request s(j,i)
  v(j,i) = s(j,i)
  lsum += v(j,i) * w(j,i)
endpardo j, i
scross = 0.0
collective scross += lsum
)",
                               config);
  EXPECT_DOUBLE_EQ(result.scalar("total"), 4.0 * 16.0);
  // e(j,i) and s(j,i) hold twice sp's element (i,j), 100 * i + j;
  // w(j,i) holds 100 * j + i.
  double cross = 0.0;
  for (long i = 1; i <= 4; ++i) {
    for (long j = 1; j <= 4; ++j) {
      cross += 2.0 * (100.0 * i + j) * (100.0 * j + i);
    }
  }
  EXPECT_DOUBLE_EQ(result.scalar("ecross"), cross);
  EXPECT_DOUBLE_EQ(result.scalar("scross"), cross);
}

TEST(SipMoreTest, DeepLoopNesting) {
  const RunResult result = run(R"(
index a = 1, 2
index b = 1, 2
index c = 1, 2
index d = 1, 2
index e = 1, 2
index f = 1, 2
scalar count
do a
 do b
  do c
   do d
    do e
     do f
      count += 1.0
     enddo f
    enddo e
   enddo d
  enddo c
 enddo b
enddo a
)");
  EXPECT_DOUBLE_EQ(result.scalar("count"), 64.0);
}

TEST(SipMoreTest, ManyPardoIndices) {
  const RunResult result = run(R"(
moindex a = 1, n
moindex b = 1, n
moindex c = 1, n
moindex d = 1, n
moindex e = 1, n
scalar lsum
scalar total
pardo a, b, c, d, e where a <= b where b <= c
  lsum += 1.0
endpardo a, b, c, d, e
total = 0.0
collective total += lsum
)");
  // a<=b<=c over 2 segments each: 4 combinations; d,e free: 4 each.
  EXPECT_DOUBLE_EQ(result.scalar("total"), 4.0 * 4.0);
}

}  // namespace
}  // namespace sia::sip
