// SIP distributed-array tests: put/get/accumulate, create/delete, caching,
// and barrier-epoch semantics across worker counts.
#include <gtest/gtest.h>

#include "block/block_pool.hpp"
#include "msg/fabric.hpp"
#include "msg/tags.hpp"
#include "sial/compiler.hpp"
#include "sip/dist_array.hpp"
#include "sip/launch.hpp"
#include "sip/shared.hpp"

namespace sia::sip {
namespace {

SipConfig config_with(int workers, int segment = 3) {
  SipConfig config;
  config.workers = workers;
  config.io_servers = 0;
  config.default_segment = segment;
  config.constants = {{"n", 9}};
  return config;
}

RunResult run(const std::string& body, const SipConfig& config) {
  Sip sip(config);
  return sip.run_source("sial test\n" + body + "\nendsial\n");
}

constexpr const char* kPutGetRoundTrip = R"(
moindex i = 1, n
moindex j = 1, n
distributed d(i,j)
temp t(i,j)
temp u(i,j)
scalar lsum
scalar total
pardo i, j
  execute fill_coords t(i,j)
  put d(i,j) = t(i,j)
endpardo i, j
sip_barrier
pardo i, j
  get d(i,j)
  execute fill_coords t(i,j)
  u(i,j) = d(i,j)
  u(i,j) -= t(i,j)
  lsum += u(i,j) * u(i,j)
endpardo i, j
total = 0.0
collective total += lsum
)";

TEST(SipDistTest, PutGetRoundTripAcrossWorkerCounts) {
  for (const int workers : {1, 2, 4, 7}) {
    const RunResult result = run(kPutGetRoundTrip, config_with(workers));
    EXPECT_NEAR(result.scalar("total"), 0.0, 1e-18)
        << workers << " workers";
  }
}

TEST(SipDistTest, AccumulatePutsSumContributions) {
  // Every (i,j) iteration accumulates 1.0 into the SAME block d(1,1)...
  // rather: every worker accumulates into its own (i,j); we instead
  // accumulate twice from two pardos without a barrier (allowed for +=).
  const RunResult result = run(R"(
moindex i = 1, n
distributed d(i)
temp t(i)
temp u(i)
scalar lsum
scalar total
pardo i
  t(i) = 1.0
  put d(i) = t(i)
endpardo i
sip_barrier
pardo i
  t(i) = 2.0
  put d(i) += t(i)
  put d(i) += t(i)
endpardo i
sip_barrier
pardo i
  get d(i)
  u(i) = d(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
)",
                               config_with(3));
  // Elements are 1 + 2 + 2 = 5; 9 elements.
  EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0 * 25.0);
}

TEST(SipDistTest, GetWithoutExplicitGetStillWorks) {
  // Reading a distributed block without a preceding `get` issues the
  // fetch implicitly (counted in the stats).
  const RunResult result = run(R"(
moindex i = 1, n
distributed d(i)
temp t(i)
temp u(i)
scalar lsum
scalar total
pardo i
  t(i) = 3.0
  put d(i) = t(i)
endpardo i
sip_barrier
pardo i
  u(i) = d(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
)",
                               config_with(3));
  EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0 * 9.0);
}

TEST(SipDistTest, CreateDeleteAndRefill) {
  const RunResult result = run(R"(
moindex i = 1, n
distributed d(i)
temp t(i)
temp u(i)
scalar lsum
scalar total
create d
pardo i
  t(i) = 1.0
  put d(i) = t(i)
endpardo i
sip_barrier
delete d
sip_barrier
create d
pardo i
  t(i) = 7.0
  put d(i) = t(i)
endpardo i
sip_barrier
pardo i
  get d(i)
  u(i) = d(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
)",
                               config_with(2));
  EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0 * 49.0);
}

TEST(SipDistTest, ManySmallBlocksManyWorkers) {
  SipConfig config = config_with(6, /*segment=*/1);
  const RunResult result = run(kPutGetRoundTrip, config);
  EXPECT_NEAR(result.scalar("total"), 0.0, 1e-18);
  // With segment 1 there are 81 blocks; communication must have happened.
  EXPECT_GT(result.traffic.messages_sent, 81);
}

TEST(SipDistTest, StatsAccountLocalAndRemote) {
  const RunResult result = run(kPutGetRoundTrip, config_with(4));
  EXPECT_GT(result.workers.puts_remote + result.workers.puts_local, 0);
  EXPECT_GT(result.workers.gets_issued + result.workers.gets_local +
                result.workers.gets_cached,
            0);
}

TEST(SipDistTest, CacheReusesFetchedBlocks) {
  // The same remote block is read twice in one iteration: the second read
  // must hit the worker cache, not the network.
  const RunResult result = run(R"(
moindex i = 1, n
distributed d(i)
temp t(i)
temp u(i)
temp v(i)
scalar lsum
scalar total
pardo i
  t(i) = 2.0
  put d(i) = t(i)
endpardo i
sip_barrier
pardo i
  get d(i)
  u(i) = d(i)
  v(i) = d(i)
  lsum += u(i) * v(i)
endpardo i
total = 0.0
collective total += lsum
)",
                               config_with(4));
  EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0 * 4.0);
  EXPECT_GT(result.workers.gets_cached + result.workers.gets_local, 0);
}

TEST(SipDistTest, PrefetchIssuesLookaheadGets) {
  // A get inside a sequential do loop triggers look-ahead fetches.
  SipConfig config = config_with(2);
  config.prefetch_depth = 2;
  const RunResult with_prefetch = run(R"(
moindex i = 1, n
moindex j = 1, n
distributed d(i,j)
temp t(i,j)
temp u(i,j)
scalar lsum
scalar total
pardo i, j
  t(i,j) = 1.0
  put d(i,j) = t(i,j)
endpardo i, j
sip_barrier
pardo i
  do j
    get d(i,j)
    u(i,j) = d(i,j)
    lsum += u(i,j) * u(i,j)
  enddo j
endpardo i
total = 0.0
collective total += lsum
)",
                                      config);
  EXPECT_DOUBLE_EQ(with_prefetch.scalar("total"), 81.0);
}

TEST(SipDistTest, PrefetchOffGivesSameAnswer) {
  SipConfig off = config_with(3);
  off.prefetch_depth = 0;
  SipConfig on = config_with(3);
  on.prefetch_depth = 4;
  const RunResult result_off = run(kPutGetRoundTrip, off);
  const RunResult result_on = run(kPutGetRoundTrip, on);
  EXPECT_DOUBLE_EQ(result_off.scalar("total"), result_on.scalar("total"));
}

TEST(SipDistTest, CoalescingMergesRepeatedAccumulatePuts) {
  // Every iteration of the do loop accumulates into the SAME distributed
  // block: write combining merges the n/segment contributions of one
  // pardo task into a single put message. Results must be identical.
  constexpr const char* kRepeatedAccumulate = R"(
moindex i = 1, n
moindex k = 1, n
distributed d(i)
temp t(i)
temp u(i)
scalar lsum
scalar total
pardo i
  do k
    t(i) = 1.0
    put d(i) += t(i)
  enddo k
endpardo i
sip_barrier
pardo i
  get d(i)
  u(i) = d(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
)";
  SipConfig off_config = config_with(4);
  off_config.coalesce_puts = false;
  SipConfig on_config = config_with(4);
  on_config.coalesce_puts = true;
  const RunResult off = run(kRepeatedAccumulate, off_config);
  const RunResult on = run(kRepeatedAccumulate, on_config);

  // 3 k-segments accumulate 1.0 -> each of the 9 elements is 3.0.
  EXPECT_DOUBLE_EQ(off.scalar("total"), 9.0 * 9.0);
  EXPECT_DOUBLE_EQ(on.scalar("total"), off.scalar("total"));

  // With coalescing the shadow table absorbed repeat accumulates...
  EXPECT_GT(on.workers.puts_coalesced, 0);
  EXPECT_EQ(off.workers.puts_coalesced, 0);
  // ...so strictly fewer put messages crossed the fabric.
  EXPECT_LT(on.workers.puts_remote + on.workers.puts_local,
            off.workers.puts_remote + off.workers.puts_local);
  // Every merged accumulate is exactly one put that never became a
  // message: the per-put counters must balance. (Asserting on whole-run
  // traffic.messages_sent here was flaky — totals include
  // timing-dependent background traffic such as chunk requests landing
  // in different epochs, demand-get dedup races, and heartbeats.)
  EXPECT_EQ(on.workers.puts_remote + on.workers.puts_local +
                on.workers.puts_coalesced,
            off.workers.puts_remote + off.workers.puts_local);
}

TEST(SipDistTest, CoalescingFlushedAtBarrierIsVisibleToOtherWorkers) {
  // A worker's shadowed accumulates must all be applied at the home
  // before any reader past the barrier sees the block; the round-trip
  // equality above plus this cross-worker read exercises the flush path
  // with several blocks per shadow table.
  SipConfig config = config_with(3, /*segment=*/2);
  config.coalesce_puts = true;
  const RunResult result = run(R"(
moindex i = 1, n
moindex k = 1, n
distributed d(i)
temp t(i)
temp u(i)
scalar lsum
scalar total
pardo k
  do i
    t(i) = 2.0
    put d(i) += t(i)
  enddo i
endpardo k
sip_barrier
pardo i
  get d(i)
  u(i) = d(i)
  lsum += u(i) * u(i)
endpardo i
total = 0.0
collective total += lsum
)",
                               config);
  // 5 k-segment tasks each accumulate 2.0 -> every element is 10.0.
  EXPECT_DOUBLE_EQ(result.scalar("total"), 9.0 * 100.0);
}

TEST(SipDistTest, PermutedPut) {
  // put with permuted source indices stores the transposed block.
  const RunResult result = run(R"(
moindex i = 1, n
moindex j = 1, n
distributed d(i,j)
temp t(j,i)
temp u(i,j)
temp w(j,i)
scalar lsum
scalar total
pardo i, j
  execute fill_coords t(j,i)
  put d(i,j) = t(j,i)
endpardo i, j
sip_barrier
pardo i, j
  get d(i,j)
  execute fill_coords w(j,i)
  u(i,j) = w(j,i)
  u(i,j) -= d(i,j)
  lsum += u(i,j) * u(i,j)
endpardo i, j
total = 0.0
collective total += lsum
)",
                               config_with(2));
  EXPECT_NEAR(result.scalar("total"), 0.0, 1e-18);
}

// Barrier epochs at one home store, driven with hand-built messages. A
// get or put carries the epoch its sender was in, and the home checks
// write records against that epoch rather than its own, which lags
// whenever the home has not yet processed its own barrier release.
class HomeEpochTest : public ::testing::Test {
 protected:
  HomeEpochTest()
      : program_(sial::compile_sial("sial epochs\nmoindex i = 1, n\n"
                                    "distributed d(i)\nendsial\n"),
                 config_),
        fabric_(config_.total_ranks()) {
    shared_.program = &program_;
    shared_.fabric = &fabric_;
    shared_.config = config_;
    const int segment = 1;
    id_ = BlockId(0, {&segment, 1});
    linear_ = id_.linearize(program_.array(0).num_segments);
    // Workers are ranks 1..3: the block's home, and two others that play
    // the writer and the requester.
    home_ = shared_.owner_rank(id_);
    writer_ = home_ % 3 + 1;
    requester_ = writer_ % 3 + 1;
    dist_ = std::make_unique<DistArrayManager>(shared_, home_, pool_, 1024);
  }

  void put_from(int writer, std::int64_t epoch) {
    msg::Message message;
    message.src = writer;
    message.tag = msg::kBlockPut;
    message.header = {id_.array_id, linear_, writer, epoch};
    message.data.assign(3, 1.0);
    dist_->handle_put(message, /*accumulate=*/false);
  }

  void get_from(int requester, std::int64_t epoch) {
    msg::Message message;
    message.src = requester;
    message.tag = msg::kBlockGetRequest;
    message.header = {id_.array_id, linear_, requester, epoch};
    dist_->handle_get_request(message);
  }

  // Runs `body` and returns the RuntimeError it raised ("" if none).
  template <typename Body>
  static std::string error_of(Body body) {
    try {
      body();
    } catch (const RuntimeError& error) {
      return error.what();
    }
    return "";
  }

  const SipConfig config_ = config_with(3);
  sial::ResolvedProgram program_;
  msg::Fabric fabric_;
  SipShared shared_;
  BlockPool pool_;
  std::unique_ptr<DistArrayManager> dist_;
  BlockId id_;
  std::int64_t linear_ = 0;
  int home_ = 0, writer_ = 0, requester_ = 0;
};

TEST_F(HomeEpochTest, LaggingHomeServesGetFromNextEpoch) {
  // The home is still in epoch 0; the requester has passed the barrier.
  ASSERT_EQ(dist_->epoch(), 0);
  put_from(writer_, 0);
  EXPECT_EQ(error_of([&] { get_from(requester_, 1); }), "");
  const std::optional<msg::Message> reply = fabric_.try_recv(requester_);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->tag, msg::kBlockGetReply);
  EXPECT_EQ(reply->header.at(2), 1) << "block found";
}

TEST_F(HomeEpochTest, GetInTheWritersEpochStillThrows) {
  put_from(writer_, 0);
  EXPECT_NE(error_of([&] { get_from(requester_, 0); })
                .find("same epoch as a put by another worker"),
            std::string::npos);
}

TEST_F(HomeEpochTest, TwoWritersInOneEpochStillThrow) {
  // Both puts are tagged epoch 1 while the home is still in epoch 0.
  put_from(writer_, 1);
  EXPECT_NE(error_of([&] { put_from(requester_, 1); })
                .find("two workers put"),
            std::string::npos);
}

TEST_F(HomeEpochTest, WritersInDifferentEpochsDoNotConflict) {
  put_from(writer_, 0);
  EXPECT_EQ(error_of([&] { put_from(requester_, 1); }), "");
}

}  // namespace
}  // namespace sia::sip
