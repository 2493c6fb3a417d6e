// Tests for the intra-worker dataflow executor: hazard ordering
// (RAW/WAR/WAW), deterministic program-order retirement, pending-operand
// parking, error attribution, cancellation, and — end to end — the
// bit-identity guarantee: any worker_threads setting must reproduce the
// serial interpreter's results exactly, not just approximately.
//
// The unit tests deliberately use *plain* (non-atomic) shared variables
// guarded only by the executor's hazard edges: under ThreadSanitizer
// (cmake -DSIA_TSAN=ON; ctest -L tsan) that proves the executor
// establishes real happens-before ordering, not just lucky timing.
#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "block/block.hpp"
#include "block/block_pool.hpp"
#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "chem/reference.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "sip/executor.hpp"
#include "sip/launch.hpp"

namespace sia::sip {
namespace {

BlockId bid(int array, int seg) {
  const std::array<int, 1> segs{seg};
  return BlockId(array, std::span<const int>(segs));
}

void nap(int ms) {
  std::this_thread::sleep_for(std::chrono::milliseconds(ms));
}

// Interpreter-thread service loop: pump until the window drains.
void drive(DataflowExecutor& executor, int timeout_ms = 20000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (!executor.idle()) {
    executor.pump();
    if (executor.idle()) break;
    executor.wait_progress(5);
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "executor did not drain in time";
  }
}

TEST(DataflowExecutorTest, RawHazardOrdersReadBehindWrite) {
  DataflowExecutor executor(4, 64);
  int value = 0;       // written by the producer, read by the consumer
  int observed = -1;

  DataflowExecutor::Entry writer;
  writer.writes = {bid(0, 1)};
  writer.execute = [&] {
    nap(30);  // give a broken executor every chance to run the reader early
    value = 42;
  };
  executor.enqueue(std::move(writer));

  DataflowExecutor::Entry reader;
  reader.reads = {bid(0, 1)};
  reader.execute = [&] { observed = value; };
  executor.enqueue(std::move(reader));

  drive(executor);
  EXPECT_EQ(observed, 42);
  EXPECT_EQ(executor.stats().entries_retired, 2);
  EXPECT_GE(executor.stats().hazard_stalls, 1);
}

TEST(DataflowExecutorTest, WarHazardHoldsWriterForEarlierReader) {
  DataflowExecutor executor(4, 64);
  int value = 1;
  int observed = -1;

  DataflowExecutor::Entry reader;
  reader.reads = {bid(0, 2)};
  reader.execute = [&] {
    nap(30);
    observed = value;  // must see the pre-write value
  };
  executor.enqueue(std::move(reader));

  DataflowExecutor::Entry writer;
  writer.writes = {bid(0, 2)};
  writer.execute = [&] { value = 2; };
  executor.enqueue(std::move(writer));

  drive(executor);
  EXPECT_EQ(observed, 1);
  EXPECT_EQ(value, 2);
}

TEST(DataflowExecutorTest, WawHazardSerializesWriters) {
  DataflowExecutor executor(4, 64);
  int value = 0;

  DataflowExecutor::Entry first;
  first.writes = {bid(0, 3)};
  first.execute = [&] {
    nap(30);
    value = 10;
  };
  executor.enqueue(std::move(first));

  DataflowExecutor::Entry second;
  second.writes = {bid(0, 3)};
  second.execute = [&] { value = 20; };
  executor.enqueue(std::move(second));

  drive(executor);
  EXPECT_EQ(value, 20);  // program order wins, not completion luck
}

TEST(DataflowExecutorTest, IndependentEntriesRunConcurrently) {
  DataflowExecutor executor(2, 64);
  // Each entry waits (bounded) for the other: only true out-of-order
  // issue to two pool threads lets both finish.
  std::atomic<int> arrived{0};
  bool saw_peer[2] = {false, false};

  for (int i = 0; i < 2; ++i) {
    DataflowExecutor::Entry entry;
    entry.writes = {bid(0, 10 + i)};  // disjoint: no hazard between them
    entry.execute = [&, i] {
      arrived.fetch_add(1);
      const auto deadline = std::chrono::steady_clock::now() +
                            std::chrono::seconds(10);
      while (arrived.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      saw_peer[i] = arrived.load() == 2;
    };
    executor.enqueue(std::move(entry));
  }

  drive(executor, 30000);
  EXPECT_TRUE(saw_peer[0]);
  EXPECT_TRUE(saw_peer[1]);
}

TEST(DataflowExecutorTest, RenamedWriteSkipsFalseWawButKeepsRaw) {
  DataflowExecutor executor(2, 64);
  const BlockId key = bid(0, 7);
  // A plain-writes `key`; B renamed-writes it (fresh storage). Without
  // renaming B would WAW-chain behind A; with it they run concurrently —
  // each waits (bounded) for the other, so serialization would fail the
  // saw_peer checks. C reads `key` and must still RAW-chain onto B: the
  // plain int it copies is only published if the executor establishes
  // the ordering (TSAN-checked).
  std::atomic<int> arrived{0};
  bool saw_peer[2] = {false, false};
  int renamed_value = 0;  // plain on purpose
  int seen_by_reader = 0;

  for (int i = 0; i < 2; ++i) {
    DataflowExecutor::Entry entry;
    if (i == 0) {
      entry.writes = {key};
    } else {
      entry.renamed_writes = {key};
    }
    entry.execute = [&, i] {
      arrived.fetch_add(1);
      const auto deadline =
          std::chrono::steady_clock::now() + std::chrono::seconds(10);
      while (arrived.load() < 2 &&
             std::chrono::steady_clock::now() < deadline) {
        std::this_thread::yield();
      }
      saw_peer[i] = arrived.load() == 2;
      if (i == 1) renamed_value = 42;
    };
    executor.enqueue(std::move(entry));
  }
  DataflowExecutor::Entry reader;
  reader.reads = {key};
  reader.execute = [&] { seen_by_reader = renamed_value; };
  executor.enqueue(std::move(reader));

  drive(executor, 30000);
  EXPECT_TRUE(saw_peer[0]);
  EXPECT_TRUE(saw_peer[1]);
  EXPECT_EQ(seen_by_reader, 42);
}

TEST(DataflowExecutorTest, RetirementFollowsProgramOrder) {
  DataflowExecutor executor(4, 64);
  constexpr int kEntries = 16;
  std::vector<int> retire_order;  // retire runs on this thread: no lock

  for (int i = 0; i < kEntries; ++i) {
    DataflowExecutor::Entry entry;
    entry.writes = {bid(0, 100 + i)};  // all independent
    entry.execute = [i] { nap((kEntries - i) % 5); };  // finish out of order
    entry.retire = [&retire_order, i] { retire_order.push_back(i); };
    executor.enqueue(std::move(entry));
  }

  drive(executor);
  ASSERT_EQ(retire_order.size(), static_cast<std::size_t>(kEntries));
  for (int i = 0; i < kEntries; ++i) EXPECT_EQ(retire_order[i], i);
}

TEST(DataflowExecutorTest, RetireOnlyEntryWaitsForProgramOrder) {
  DataflowExecutor executor(2, 64);
  std::vector<int> retire_order;

  DataflowExecutor::Entry compute;
  compute.writes = {bid(0, 1)};
  compute.execute = [] { nap(30); };
  compute.retire = [&] { retire_order.push_back(0); };
  executor.enqueue(std::move(compute));

  // No execute closure: models a deferred get/put send. It is "done"
  // immediately but must still retire behind the slow compute entry.
  DataflowExecutor::Entry send;
  send.retire = [&] { retire_order.push_back(1); };
  executor.enqueue(std::move(send));

  drive(executor);
  ASSERT_EQ(retire_order.size(), 2u);
  EXPECT_EQ(retire_order[0], 0);
  EXPECT_EQ(retire_order[1], 1);
}

TEST(DataflowExecutorTest, PendingOperandParksEntryUntilResolved) {
  DataflowExecutor executor(2, 64);
  BlockPool pool;
  const std::array<int, 1> extents{4};
  auto block = std::make_shared<Block>(BlockShape(std::span<const int>(extents)),
                                       pool.allocate(4));
  block->data()[0] = 3.5;

  bool released = false;  // touched only on this (interpreter) thread
  int resolve_calls = 0;
  auto op = std::make_shared<BlockPtr>();
  double seen = 0.0;

  DataflowExecutor::Entry entry;
  entry.reads = {bid(0, 7)};
  DataflowExecutor::PendingOperand pending;
  pending.id = bid(0, 7);
  pending.resolve = [&, block]() -> BlockPtr {
    ++resolve_calls;
    return released ? block : nullptr;
  };
  pending.deposit = [op](BlockPtr b) { *op = std::move(b); };
  entry.pending_operands.push_back(std::move(pending));
  entry.execute = [&, op] { seen = (*op)->data()[0]; };
  executor.enqueue(std::move(entry));

  // The fetch has not "arrived": pumping must re-poll, not execute.
  executor.pump();
  executor.pump();
  EXPECT_FALSE(executor.idle());
  EXPECT_EQ(seen, 0.0);
  EXPECT_GE(resolve_calls, 2);

  released = true;
  drive(executor);
  EXPECT_EQ(seen, 3.5);
  EXPECT_GE(executor.stats().operand_stalls, 1);
}

TEST(DataflowExecutorTest, ExecuteErrorRethrownAtRetireInProgramOrder) {
  DataflowExecutor executor(2, 64);
  bool first_retired = false;

  DataflowExecutor::Entry ok;
  ok.writes = {bid(0, 1)};
  ok.execute = [] { nap(10); };
  ok.retire = [&] { first_retired = true; };
  executor.enqueue(std::move(ok));

  DataflowExecutor::Entry bad;
  bad.writes = {bid(0, 2)};
  bad.pc = 7;
  bad.execute = [] { throw RuntimeError("injected executor failure"); };
  executor.enqueue(std::move(bad));

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::seconds(20);
  bool threw = false;
  while (!threw) {
    ASSERT_LT(std::chrono::steady_clock::now(), deadline);
    try {
      executor.pump();
      if (executor.idle()) break;
      executor.wait_progress(5);
    } catch (const RuntimeError& error) {
      threw = true;
      EXPECT_NE(std::string(error.what()).find("injected executor failure"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(threw);
  EXPECT_TRUE(first_retired);  // the healthy entry retired first
  EXPECT_EQ(executor.last_error_pc(), 7);
  executor.cancel();
}

TEST(DataflowExecutorTest, OperandResolutionErrorIsAttributed) {
  DataflowExecutor executor(1, 64);
  DataflowExecutor::Entry entry;
  entry.reads = {bid(0, 9)};
  entry.pc = 12;
  DataflowExecutor::PendingOperand pending;
  pending.id = bid(0, 9);
  pending.resolve = []() -> BlockPtr {
    throw RuntimeError("get: no such block");
  };
  pending.deposit = [](BlockPtr) {};
  entry.pending_operands.push_back(std::move(pending));
  entry.execute = [] { FAIL() << "must not execute"; };
  executor.enqueue(std::move(entry));

  EXPECT_THROW(executor.pump(), RuntimeError);
  EXPECT_EQ(executor.last_error_pc(), 12);
  executor.cancel();
}

TEST(DataflowExecutorTest, CancelDropsUnstartedEntries) {
  DataflowExecutor executor(1, 64);
  bool tail_executed = false;
  bool tail_retired = false;

  DataflowExecutor::Entry slow;
  slow.writes = {bid(0, 1)};
  slow.execute = [] { nap(40); };
  executor.enqueue(std::move(slow));

  DataflowExecutor::Entry tail;  // single thread: cannot have started
  tail.writes = {bid(0, 1)};     // and WAW-blocked behind `slow` anyway
  tail.execute = [&] { tail_executed = true; };
  tail.retire = [&] { tail_retired = true; };
  executor.enqueue(std::move(tail));

  executor.cancel();
  EXPECT_TRUE(executor.idle());
  EXPECT_FALSE(tail_executed);
  EXPECT_FALSE(tail_retired);
}

TEST(DataflowExecutorTest, WindowLimit) {
  DataflowExecutor executor(2, 2);
  EXPECT_FALSE(executor.window_full());

  for (int i = 0; i < 2; ++i) {
    DataflowExecutor::Entry entry;
    entry.writes = {bid(0, 1)};
    entry.execute = [] { nap(20); };
    executor.enqueue(std::move(entry));
  }
  EXPECT_TRUE(executor.window_full());
  EXPECT_EQ(executor.window_size(), 2u);

  drive(executor);
  EXPECT_FALSE(executor.window_full());
  EXPECT_EQ(executor.stats().window_peak, 2);
  EXPECT_EQ(executor.stats().tasks_executed, 2);
}

// ---------------------------------------------------------------------
// Inline entries: `execute` runs on the interpreter thread but waits only
// on its own hazards.

// Interpreter-side wait for the inline entry: pump until it may run.
void wait_inline_runnable(DataflowExecutor& executor) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!executor.inline_runnable()) {
    executor.pump();
    if (executor.inline_runnable()) break;
    executor.wait_progress(5);
    ASSERT_LT(std::chrono::steady_clock::now(), deadline)
        << "inline entry never became runnable";
  }
}

TEST(DataflowExecutorTest, InlineEntryRunsOnCallingThread) {
  DataflowExecutor executor(2, 64);
  std::thread::id ran_on;
  DataflowExecutor::Entry entry;
  entry.writes = {bid(0, 1)};
  entry.run_inline = true;
  entry.execute = [&] { ran_on = std::this_thread::get_id(); };
  executor.enqueue(std::move(entry));

  wait_inline_runnable(executor);
  EXPECT_TRUE(executor.run_inline());
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  drive(executor);
  EXPECT_EQ(executor.stats().tasks_executed, 0);
  EXPECT_EQ(executor.stats().entries_retired, 1);
}

TEST(DataflowExecutorTest, InlineEntryOvertakesUnrelatedRunningEntry) {
  DataflowExecutor executor(1, 64);
  std::atomic<bool> nap_done{false};
  DataflowExecutor::Entry napper;
  napper.writes = {bid(0, 1)};
  napper.execute = [&] {
    nap(200);
    nap_done = true;
  };
  executor.enqueue(std::move(napper));

  // Disjoint block: no hazard, so it must not wait out the 200 ms nap.
  bool ran = false;
  DataflowExecutor::Entry entry;
  entry.writes = {bid(0, 2)};
  entry.run_inline = true;
  entry.execute = [&] { ran = true; };
  executor.enqueue(std::move(entry));

  wait_inline_runnable(executor);
  EXPECT_TRUE(executor.run_inline());
  EXPECT_TRUE(ran);
  EXPECT_FALSE(nap_done.load()) << "inline entry waited for an unrelated one";
  EXPECT_EQ(executor.window_size(), 2u);  // retirement stays in order
  drive(executor);
  EXPECT_TRUE(nap_done.load());
}

TEST(DataflowExecutorTest, InlineReaderWaitsForNappingWriter) {
  DataflowExecutor executor(2, 64);
  int value = 0;  // plain on purpose: the RAW edge must publish it
  DataflowExecutor::Entry writer;
  writer.writes = {bid(0, 3)};
  writer.execute = [&] {
    nap(100);
    value = 42;
  };
  executor.enqueue(std::move(writer));

  int observed = -1;
  DataflowExecutor::Entry reader;
  reader.reads = {bid(0, 3)};
  reader.run_inline = true;
  reader.execute = [&] { observed = value; };
  executor.enqueue(std::move(reader));
  EXPECT_FALSE(executor.inline_runnable());

  wait_inline_runnable(executor);
  EXPECT_TRUE(executor.run_inline());
  EXPECT_EQ(observed, 42);
  drive(executor);
  EXPECT_GE(executor.stats().raw_deps, 1);
}

TEST(DataflowExecutorTest, InlineEntryErrorSurfacesAtRetire) {
  DataflowExecutor executor(1, 64);
  DataflowExecutor::Entry entry;
  entry.writes = {bid(0, 4)};
  entry.pc = 5;
  entry.run_inline = true;
  entry.execute = [] { throw RuntimeError("injected inline failure"); };
  executor.enqueue(std::move(entry));

  wait_inline_runnable(executor);
  EXPECT_FALSE(executor.run_inline());
  EXPECT_THROW(executor.pump(), RuntimeError);
  EXPECT_EQ(executor.last_error_pc(), 5);
  executor.cancel();
}

// ---------------------------------------------------------------------
// Helping: the interpreter thread runs ready pool entries itself.

// Holds a pool thread inside execute until released, so a test can
// saturate the pool deterministically. Releases on destruction too, and
// waits the entry out, so a failed assertion cannot hang the executor.
struct PoolGate {
  std::atomic<bool> started{false};
  std::atomic<bool> released{false};
  std::atomic<bool> finished{false};

  ~PoolGate() {
    released = true;
    while (started && !finished) nap(1);
  }
  DataflowExecutor::Entry entry(int seg) {
    DataflowExecutor::Entry e;
    e.writes = {bid(1, seg)};
    e.execute = [this] {
      started = true;
      while (!released) nap(1);
      finished = true;
    };
    return e;
  }
  void wait_started() const {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (!started && std::chrono::steady_clock::now() < deadline) nap(1);
    ASSERT_TRUE(started.load()) << "pool thread never took the gate entry";
  }
};

TEST(DataflowExecutorTest, HelpedEntryRetiresInProgramOrder) {
  DataflowExecutor executor(1, 64);
  PoolGate gate;
  std::vector<int> retire_order;  // retire runs on this thread: no lock
  DataflowExecutor::Entry head = gate.entry(1);
  head.retire = [&] { retire_order.push_back(0); };
  executor.enqueue(std::move(head));
  gate.wait_started();

  std::thread::id ran_on;
  DataflowExecutor::Entry helped;
  helped.writes = {bid(0, 2)};
  helped.execute = [&] { ran_on = std::this_thread::get_id(); };
  helped.retire = [&] { retire_order.push_back(1); };
  executor.enqueue(std::move(helped));
  DataflowExecutor::Entry tail;
  tail.writes = {bid(0, 3)};
  tail.execute = [] {};
  tail.retire = [&] { retire_order.push_back(2); };
  executor.enqueue(std::move(tail));

  // The pool's one thread is busy: both entries run here, in issue order,
  // but neither may retire ahead of the gated head.
  EXPECT_TRUE(executor.help(/*only_if_saturated=*/true));
  EXPECT_EQ(ran_on, std::this_thread::get_id());
  EXPECT_TRUE(executor.help());
  EXPECT_FALSE(executor.help());  // nothing left ready
  executor.pump();
  EXPECT_TRUE(retire_order.empty());
  EXPECT_EQ(executor.window_size(), 3u);

  gate.released = true;
  drive(executor);
  EXPECT_EQ(retire_order, (std::vector<int>{0, 1, 2}));
  EXPECT_EQ(executor.stats().tasks_helped, 2);
  EXPECT_EQ(executor.stats().tasks_executed, 1);  // pool-only count
  EXPECT_GE(executor.stats().help_seconds, 0.0);
}

TEST(DataflowExecutorTest, HelpedEntryErrorRethrownAtItsRetire) {
  DataflowExecutor executor(1, 64);
  PoolGate gate;
  bool head_retired = false;
  DataflowExecutor::Entry head = gate.entry(1);
  head.pc = 3;
  head.retire = [&] { head_retired = true; };
  executor.enqueue(std::move(head));
  gate.wait_started();

  DataflowExecutor::Entry bad;
  bad.writes = {bid(0, 2)};
  bad.pc = 9;
  bad.execute = [] { throw RuntimeError("injected helped failure"); };
  executor.enqueue(std::move(bad));

  // The helper captures the error like a pool thread would: help itself
  // does not throw, and the error waits for the entry's turn to retire.
  EXPECT_TRUE(executor.help());
  EXPECT_NO_THROW(executor.pump());
  EXPECT_FALSE(head_retired);

  gate.released = true;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  bool threw = false;
  while (!threw && std::chrono::steady_clock::now() < deadline) {
    try {
      executor.pump();
      executor.wait_progress(5);
    } catch (const RuntimeError& error) {
      threw = true;
      EXPECT_NE(std::string(error.what()).find("injected helped failure"),
                std::string::npos);
    }
  }
  EXPECT_TRUE(threw);
  EXPECT_TRUE(head_retired);
  EXPECT_EQ(executor.last_error_pc(), 9);
  executor.cancel();
}

TEST(DataflowExecutorTest, HelpTakesNoInlineOrWaitingEntry) {
  DataflowExecutor executor(1, 64);
  PoolGate gate;
  executor.enqueue(gate.entry(1));
  gate.wait_started();

  bool hazard_ran = false;
  DataflowExecutor::Entry hazard;  // RAW behind the gated writer
  hazard.reads = {bid(1, 1)};
  hazard.execute = [&] { hazard_ran = true; };
  executor.enqueue(std::move(hazard));

  bool arrived = false;  // touched only on this (interpreter) thread
  bool operand_ran = false;
  DataflowExecutor::Entry parked;  // operand still in flight
  parked.reads = {bid(0, 7)};
  DataflowExecutor::PendingOperand pending;
  pending.id = bid(0, 7);
  const std::array<int, 1> extents{1};
  const BlockShape shape{std::span<const int>(extents)};
  pending.resolve = [&]() -> BlockPtr {
    return arrived ? std::make_shared<Block>(shape) : nullptr;
  };
  pending.deposit = [](BlockPtr) {};
  parked.pending_operands.push_back(std::move(pending));
  parked.execute = [&] { operand_ran = true; };
  executor.enqueue(std::move(parked));

  bool inline_ran = false;
  DataflowExecutor::Entry inline_entry;  // runnable, but only by run_inline
  inline_entry.writes = {bid(0, 8)};
  inline_entry.run_inline = true;
  inline_entry.execute = [&] { inline_ran = true; };
  executor.enqueue(std::move(inline_entry));
  executor.pump();
  EXPECT_TRUE(executor.inline_runnable());

  EXPECT_FALSE(executor.help());
  EXPECT_FALSE(executor.help(/*only_if_saturated=*/true));
  EXPECT_FALSE(hazard_ran);
  EXPECT_FALSE(operand_ran);
  EXPECT_FALSE(inline_ran);
  EXPECT_EQ(executor.stats().tasks_helped, 0);

  EXPECT_TRUE(executor.run_inline());
  arrived = true;
  gate.released = true;
  drive(executor);
  EXPECT_TRUE(hazard_ran);
  EXPECT_TRUE(operand_ran);
  EXPECT_TRUE(inline_ran);
}

TEST(DataflowExecutorTest, SaturatedOnlyHelpLeavesWorkToAnIdlePoolThread) {
  DataflowExecutor executor(2, 64);
  PoolGate first;
  executor.enqueue(first.entry(1));
  first.wait_started();

  // One of two pool threads is idle: the entry is the pool's, whether or
  // not that thread has woken up to take it yet.
  std::atomic<bool> ran{false};
  bool pool_ran = false;  // published to this thread by `ran`
  const std::thread::id me = std::this_thread::get_id();
  DataflowExecutor::Entry entry;
  entry.writes = {bid(0, 2)};
  entry.execute = [&] {
    pool_ran = std::this_thread::get_id() != me;
    ran = true;
  };
  executor.enqueue(std::move(entry));
  EXPECT_FALSE(executor.help(/*only_if_saturated=*/true));
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (!ran && std::chrono::steady_clock::now() < deadline) nap(1);
  ASSERT_TRUE(ran.load());
  EXPECT_TRUE(pool_ran);

  // Both pool threads busy: now the same call runs a ready entry here.
  PoolGate second;
  executor.enqueue(second.entry(3));
  second.wait_started();
  bool helped_here = false;
  DataflowExecutor::Entry saturated;
  saturated.writes = {bid(0, 4)};
  saturated.execute = [&] { helped_here = std::this_thread::get_id() == me; };
  executor.enqueue(std::move(saturated));
  EXPECT_TRUE(executor.help(/*only_if_saturated=*/true));
  EXPECT_TRUE(helped_here);

  first.released = true;
  second.released = true;
  drive(executor);
  EXPECT_EQ(executor.stats().tasks_helped, 1);
  EXPECT_EQ(executor.stats().tasks_executed, 3);
}

// ---------------------------------------------------------------------
// End-to-end bit-identity: the acceptance criterion for the whole
// feature. Results must be *exactly* equal (EXPECT_EQ on doubles, not
// EXPECT_NEAR): program-order retirement plus hazard-serialized
// accumulates make the threaded schedule arithmetic-identical to the
// serial interpreter *for the same pardo chunk assignment*. Guided
// self-scheduling hands chunks out in request-arrival order, so with
// several workers the assignment (and hence the grouping of the
// floating-point collective sums) is timing-dependent with or without
// the executor. The strict tests therefore run one worker — where the
// whole schedule is deterministic — and a separate multi-worker test
// checks the threaded runtime against the chemistry references at the
// integration suite's tolerances.

SipConfig chem_config() {
  chem::register_chem_superinstructions();
  SipConfig config;
  config.workers = 3;
  config.io_servers = 1;
  config.default_segment = 4;
  config.constants = {{"norb", 8}, {"nocc", 4}, {"maxiter", 3}};
  return config;
}

SipConfig single_worker_config() {
  SipConfig config = chem_config();
  config.workers = 1;
  return config;
}

std::map<std::string, double> run_scalars(const SipConfig& config,
                                          const std::string& source) {
  Sip sip(config);
  return sip.run_source(source).scalars;
}

// Compares the programs' collective output scalars for *exact* equality.
// Worker-local partials (esum, rlocal, ...) are excluded: which pardo
// chunks worker 0 happens to execute is demand-scheduled and therefore
// timing-dependent even without the executor; only the collective sums
// are defined program results — and those must not change by one ulp.
void expect_bit_identical(const std::map<std::string, double>& base,
                          const std::map<std::string, double>& got,
                          const std::vector<std::string>& outputs,
                          const std::string& label) {
  for (const std::string& name : outputs) {
    const auto expected = base.find(name);
    const auto it = got.find(name);
    ASSERT_NE(expected, base.end()) << label << ": missing scalar " << name;
    ASSERT_NE(it, got.end()) << label << ": missing scalar " << name;
    EXPECT_EQ(it->second, expected->second) << label << ": scalar " << name;
  }
}

// The bit-identity matrix: every chemistry program with `execute` super
// instructions — now inline window entries — against the serial engine,
// over worker_threads x window_limit. window_limit=1 leaves the inline
// entry alone in the window; 2 puts constant back-pressure on the scan;
// 64 lets the pool run far behind the interpreter thread. Three threads
// make an odd pool; four oversubscribe a small host.
void expect_matrix_bit_identical(const std::string& source,
                                 const std::vector<std::string>& outputs,
                                 const std::string& program) {
  SipConfig config = single_worker_config();
  config.worker_threads = 0;
  const auto base = run_scalars(config, source);
  for (const int threads : {1, 2, 3, 4}) {
    for (const int window : {1, 2, 64}) {
      config.worker_threads = threads;
      config.window_limit = window;
      expect_bit_identical(base, run_scalars(config, source), outputs,
                           program + " worker_threads=" +
                               std::to_string(threads) +
                               " window_limit=" + std::to_string(window));
    }
  }
}

TEST(ExecutorIntegrationTest, CcdBitIdenticalMatrix) {
  expect_matrix_bit_identical(chem::ccd_energy_source(), {"energy", "rnorm2"},
                              "ccd");
}

TEST(ExecutorIntegrationTest, Mp2BitIdenticalMatrix) {
  // mp2_block_energy accumulates into a scalar argument: the side effect
  // must land in program order on the interpreter thread.
  expect_matrix_bit_identical(chem::mp2_energy_source(), {"e2"}, "mp2");
}

TEST(ExecutorIntegrationTest, ServedMp2BitIdenticalMatrix) {
  expect_matrix_bit_identical(chem::mp2_served_source(), {"e2", "tnorm2"},
                              "served mp2");
}

TEST(ExecutorIntegrationTest, FockBuildBitIdenticalMatrix) {
  expect_matrix_bit_identical(chem::fock_build_source(), {"fnorm2", "fnorm"},
                              "fock_build");
}

TEST(ExecutorIntegrationTest, CcdThreadedUnderChaosAppliesExactlyOnce) {
  // Three threaded workers under drop/dup plans: a lost put would fail a
  // get or leave a stale amplitude, and a duplicated put or reduction
  // applied twice would shift the collective sums far past 1e-11.
  SipConfig config = chem_config();
  config.default_segment = 2;  // 16 amplitude blocks: real get/put traffic
  config.worker_threads = 2;
  config.retry_timeout_ms = 50;
  double norm2 = 0.0;
  const double energy = chem::ref_ccd_energy(8, 4, 3, &norm2);
  std::int64_t dropped = 0;
  std::int64_t duplicated = 0;
  for (int seed = 1; seed <= 3; ++seed) {
    const std::string plan = "drop=0.03,dup=0.05,seed=" + std::to_string(seed);
    config.fault_plan = FaultPlan::parse(plan);
    Sip sip(config);
    const RunResult result = sip.run_source(chem::ccd_energy_source());
    dropped += result.profile.robustness.faults_dropped;
    duplicated += result.profile.robustness.faults_duplicated;
    EXPECT_NEAR(result.scalar("energy"), energy, 1e-11) << plan;
    EXPECT_NEAR(result.scalar("rnorm2"), norm2, 1e-11) << plan;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(duplicated, 0);
}

TEST(ExecutorIntegrationTest, CommStormBitIdenticalWithCoalescing) {
  SipConfig config = single_worker_config();
  config.coalesce_puts = true;
  config.worker_threads = 0;
  const auto base = run_scalars(config, chem::comm_storm_source());
  config.worker_threads = 2;
  expect_bit_identical(base, run_scalars(config, chem::comm_storm_source()),
                       {"cnorm2"}, "comm_storm worker_threads=2 coalescing");
}

TEST(ExecutorIntegrationTest, RandomizedSegmentSweepBitIdentical) {
  // Vary the block grid so hazard patterns (partial tail segments,
  // accumulate-chain lengths, get/contract overlap) differ per run.
  // comm_storm's do-k loop over get/contract/put+= is the densest
  // window traffic of the chem suite; segment 3 leaves a tail segment
  // of 2 against norb=8.
  for (const int segment : {2, 3, 4}) {
    SipConfig config = single_worker_config();
    config.default_segment = segment;
    config.worker_threads = 0;
    const auto base = run_scalars(config, chem::comm_storm_source());
    for (const int threads : {2, 4}) {
      config.worker_threads = threads;
      expect_bit_identical(
          base, run_scalars(config, chem::comm_storm_source()), {"cnorm2"},
          "segment=" + std::to_string(segment) +
              " threads=" + std::to_string(threads));
    }
  }
}

TEST(ExecutorIntegrationTest, MultiWorkerThreadedMatchesReference) {
  // Three workers, each with a two-thread window: the distributed puts,
  // gets, and coalesced accumulates must still reproduce the dense
  // references at the integration suite's tolerances (exactness across
  // worker counts is not defined — see the note above).
  SipConfig config = chem_config();
  config.worker_threads = 2;
  {
    Sip sip(config);
    const RunResult result = sip.run_source(chem::mp2_energy_source());
    EXPECT_NEAR(result.scalar("e2"), chem::ref_mp2_energy(8, 4), 1e-12);
  }
  {
    Sip sip(config);
    const RunResult result = sip.run_source(chem::ccd_energy_source());
    double norm2 = 0.0;
    const double energy = chem::ref_ccd_energy(8, 4, 3, &norm2);
    EXPECT_NEAR(result.scalar("energy"), energy, 1e-11);
    EXPECT_NEAR(result.scalar("rnorm2"), norm2, 1e-11);
  }
}

TEST(ExecutorIntegrationTest, ProfileReportsExecutorCounters) {
  // comm_storm, not mp2: mp2's body is pure `execute` super instructions
  // (which run inline, never on the pool), so only block-op traffic
  // proves the counters flow from the executor through launch
  // aggregation.
  SipConfig config = single_worker_config();
  config.worker_threads = 2;
  Sip sip(config);
  const RunResult result = sip.run_source(chem::comm_storm_source());
  const ProfileReport::Executor& agg = result.profile.executor;
  EXPECT_EQ(agg.threads, 2);
  EXPECT_GT(agg.entries_retired, 0);
  EXPECT_GT(agg.tasks_executed, 0);
  EXPECT_GT(agg.drains, 0);  // pardo boundaries and barriers drain
  EXPECT_GE(agg.window_peak, 1);
  EXPECT_NE(result.profile.to_string().find("dataflow executor"),
            std::string::npos);

  config.worker_threads = 0;
  Sip serial(config);
  const RunResult base = serial.run_source(chem::comm_storm_source());
  EXPECT_FALSE(base.profile.executor.any());
  EXPECT_EQ(base.profile.to_string().find("dataflow executor"),
            std::string::npos);
}

TEST(ExecutorIntegrationTest, DrainWaitIsNotChargedToLines) {
  // Each block dot drains the window behind a 512^3 contraction that the
  // pool thread took while the interpreter filled `d` (a fill costs far
  // less than the contraction but gives the pool thread time to wake). That wait is
  // reported as the executor's drain_wait_seconds, and entries the
  // interpreter ran itself (here, typically the copy into `e`, ready
  // while the pool thread is busy) as its help_seconds; the dot's line
  // must carry neither. With one worker the program's wall time is the
  // lines plus the drains plus the help (plus per-step loop overhead, far
  // below 1% here); charging either to lines as well would overshoot it.
  SipConfig config;
  config.workers = 1;
  config.worker_threads = 1;
  config.default_segment = 512;
  config.constants = {{"n", 1024}};
  Sip sip(config);
  const RunResult result = sip.run_source(R"(sial drain_attribution
moindex i = 1, n
moindex j = 1, n
moindex k = 1, n
temp a(i,k)
temp b(k,j)
temp c(i,j)
temp d(i,k)
temp e(i,k)
scalar x
pardo i, j
  do k
    execute random_block a(i,k) 1.0
    execute random_block b(k,j) 2.0
    c(i,j) = a(i,k) * b(k,j)
    execute random_block d(i,k) 3.0
    e(i,k) = d(i,k)
    x += c(i,j) * c(i,j)
  enddo k
endpardo i, j
endsial
)");
  double lines = 0.0;
  for (const ProfileReport::LineCost& cost : result.profile.lines) {
    lines += cost.seconds;
  }
  const ProfileReport::Executor& executor = result.profile.executor;
  const double drains = executor.drain_wait_seconds;
  const double help = executor.help_seconds;
  const double elapsed = result.profile.total_elapsed;
  EXPECT_GT(drains, 0.02 * elapsed);  // the check below can tell
  EXPECT_NEAR(lines + drains + help, elapsed, 0.01 * elapsed)
      << "lines " << lines << " s, drains " << drains << " s, help " << help
      << " s (" << executor.tasks_helped << " entries)";
}

TEST(ExecutorIntegrationTest, CcdShapedProgramBitIdenticalWhileHelping) {
  // One worker, the ccd pattern: integral blocks filled inline, a
  // contraction into a renamed temp, an accumulate. With one or two pool
  // threads the interpreter runs ready contractions and accumulates
  // itself whenever the pool is saturated; the checksum must still equal
  // the serial engine's bit for bit.
  SipConfig config = single_worker_config();
  config.constants = {{"n", 8}};
  config.default_segment = 2;
  const std::string source = R"(sial help_shape
moindex a = 1, n
moindex i = 1, n
moindex b = 1, n
moindex j = 1, n
moindex c = 1, n
moindex d = 1, n
temp v(a,c,b,d)
temp t(c,i,d,j)
temp tmp(a,i,b,j)
temp r(a,i,b,j)
scalar rlocal
scalar rnorm2
pardo a, i, b, j
  execute compute_integrals r(a,i,b,j)
  do c
    do d
      execute compute_integrals v(a,c,b,d)
      execute compute_integrals t(c,i,d,j)
      tmp(a,i,b,j) = v(a,c,b,d) * t(c,i,d,j)
      r(a,i,b,j) += tmp(a,i,b,j)
    enddo d
  enddo c
  rlocal += r(a,i,b,j) * r(a,i,b,j)
endpardo a, i, b, j
rnorm2 = 0.0
collective rnorm2 += rlocal
endsial
)";
  // 4^4 pardo iterations x 4^2 contractions of 2*4*4*4 flops each. The
  // count is the same whichever thread ran a contraction.
  constexpr std::int64_t kFlops = 256 * 16 * 128;
  config.worker_threads = 0;
  Sip serial(config);
  const RunResult base = serial.run_source(source);
  ASSERT_GT(base.scalar("rnorm2"), 0.0);
  EXPECT_EQ(base.profile.contract_flops, kFlops);
  for (const int threads : {1, 2}) {
    config.worker_threads = threads;
    Sip sip(config);
    const RunResult got = sip.run_source(source);
    const std::string what =
        "help_shape worker_threads=" + std::to_string(threads);
    expect_bit_identical(base.scalars, got.scalars, {"rnorm2"}, what);
    EXPECT_EQ(got.profile.contract_flops, kFlops) << what;
  }
}

TEST(ExecutorIntegrationTest, RuntimeErrorKeepsLineAttributionThreaded) {
  SipConfig config = chem_config();
  config.worker_threads = 2;
  Sip sip(config);
  try {
    sip.run_source(R"(sial bad_get
moindex i = 1, norb
distributed d(i)
temp u(i)
scalar x
pardo i
  get d(i)
  u(i) = d(i)
  x += u(i) * u(i)
endpardo i
endsial
)");
    FAIL() << "expected a runtime error for get of a never-written block";
  } catch (const Error& error) {
    const std::string what = error.what();
    // The deferred failure must still name the faulting SIAL source
    // line, not wherever the window happened to drain.
    EXPECT_NE(what.find("never been put"), std::string::npos) << what;
    EXPECT_NE(what.find("line"), std::string::npos) << what;
  }
}

TEST(ExecutorConfigTest, WorkerThreadKnobValidation) {
  SipConfig config;
  config.worker_threads = -2;
  EXPECT_THROW(config.validate(), Error);
  config.worker_threads = -1;
  EXPECT_GE(config.effective_worker_threads(), 0);
  config.worker_threads = 3;
  EXPECT_EQ(config.effective_worker_threads(), 3);
  config.window_limit = 0;
  EXPECT_THROW(config.validate(), Error);
}

// ---------------------------------------------------------------------
// Sharded block pool under the executor's allocation pattern.

TEST(ShardedPoolTest, StealDrainsWholeClassFromOneThread) {
  // 20 slots are dealt round-robin over 8 shards; one thread's home
  // shard holds at most 3, so draining all 20 exercises stealing.
  BlockPool pool({{16, 20}}, /*allow_heap_fallback=*/false);
  std::vector<PoolBuffer> held;
  for (int i = 0; i < 20; ++i) {
    held.push_back(pool.allocate(16));
    ASSERT_TRUE(held.back().valid());
  }
  EXPECT_EQ(pool.stats().pool_allocs, 20u);
  EXPECT_EQ(pool.free_slots_for(16), 0u);
  EXPECT_THROW(pool.allocate(16), RuntimeError);  // true exhaustion
  held.clear();
  EXPECT_EQ(pool.free_slots_for(16), 20u);
}

TEST(ShardedPoolTest, HeapFallbackCountsWhenExhausted) {
  BlockPool pool({{8, 2}}, /*allow_heap_fallback=*/true);
  const PoolBuffer a = pool.allocate(8);
  const PoolBuffer b = pool.allocate(8);
  const PoolBuffer c = pool.allocate(8);  // class drained: heap
  EXPECT_TRUE(c.valid());
  EXPECT_EQ(pool.stats().heap_fallbacks, 1u);
  EXPECT_EQ(pool.stats().pool_allocs, 2u);
}

TEST(ShardedPoolTest, CrossThreadReleaseReturnsSlot) {
  BlockPool pool({{4, 1}}, /*allow_heap_fallback=*/false);
  PoolBuffer buffer = pool.allocate(4);
  std::thread releaser([&] { PoolBuffer moved = std::move(buffer); });
  releaser.join();
  EXPECT_EQ(pool.free_slots_for(4), 1u);
  EXPECT_TRUE(pool.allocate(4).valid());  // slot usable from any shard
}

TEST(ShardedPoolTest, ConcurrentChurnBalances) {
  BlockPool pool({{32, 64}}, /*allow_heap_fallback=*/true);
  constexpr int kThreads = 4;
  constexpr int kIters = 300;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&pool, t] {
      std::vector<PoolBuffer> live;
      for (int i = 0; i < kIters; ++i) {
        live.push_back(pool.allocate(1 + (i * 7 + t * 13) % 32));
        if (live.size() > 8) live.erase(live.begin());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  const BlockPool::Stats stats = pool.stats();
  EXPECT_EQ(stats.in_use_doubles, 0u);
  EXPECT_GT(stats.pool_allocs, 0u);
  EXPECT_GT(stats.peak_in_use_doubles, 0u);
}

}  // namespace
}  // namespace sia::sip
