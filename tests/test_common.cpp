// Unit tests for the common utilities.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <thread>

#include "common/config.hpp"
#include "common/error.hpp"
#include "common/number.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/timer.hpp"

namespace sia {
namespace {

TEST(SipConfigTest, DefaultsValidate) {
  SipConfig config;
  EXPECT_NO_THROW(config.validate());
  EXPECT_EQ(config.total_ranks(), 1 + config.workers + config.io_servers);
}

TEST(SipConfigTest, RejectsBadWorkerCount) {
  SipConfig config;
  config.workers = 0;
  EXPECT_THROW(config.validate(), Error);
}

TEST(SipConfigTest, RejectsBadSegment) {
  SipConfig config;
  config.default_segment = 0;
  EXPECT_THROW(config.validate(), Error);
}

TEST(SipConfigTest, RejectsBadSegmentOverride) {
  SipConfig config;
  config.segment_overrides["moindex"] = -1;
  EXPECT_THROW(config.validate(), Error);
}

TEST(SipConfigTest, RejectsNegativePrefetch) {
  SipConfig config;
  config.prefetch_depth = -1;
  EXPECT_THROW(config.validate(), Error);
}

TEST(SipConfigTest, SegmentForUsesOverride) {
  SipConfig config;
  config.default_segment = 8;
  config.segment_overrides["moindex"] = 4;
  EXPECT_EQ(config.segment_for("moindex"), 4);
  EXPECT_EQ(config.segment_for("aoindex"), 8);
}

TEST(SipConfigTest, RankLayout) {
  SipConfig config;
  config.workers = 3;
  config.io_servers = 2;
  EXPECT_EQ(config.master_rank(), 0);
  EXPECT_EQ(config.first_worker_rank(), 1);
  EXPECT_EQ(config.first_server_rank(), 4);
  EXPECT_EQ(config.total_ranks(), 6);
}

// Expects `action` to throw Error whose message names `key`.
template <class Action>
void expect_error_naming(Action action, const std::string& key) {
  try {
    action();
    ADD_FAILURE() << "no error; expected one naming '" << key << "'";
  } catch (const Error& error) {
    EXPECT_NE(std::string(error.what()).find(key), std::string::npos)
        << error.what();
  }
}

TEST(NumberTest, ParsesWholeStringIntoTheTargetType) {
  int i = 7;
  EXPECT_TRUE(parse_number("-12", i));
  EXPECT_EQ(i, -12);
  EXPECT_FALSE(parse_number("12x", i));
  EXPECT_FALSE(parse_number("", i));
  EXPECT_FALSE(parse_number("4294967297", i));  // would truncate to 1
  EXPECT_EQ(i, -12);
  std::size_t bytes = 0;
  EXPECT_FALSE(parse_number("-1", bytes));
  double d = 0.0;
  EXPECT_TRUE(parse_number("2.5e-3", d));
  EXPECT_DOUBLE_EQ(d, 2.5e-3);
}

TEST(FaultPlanTest, RejectsValuesThatWouldTruncate) {
  // static_cast<int> of these once turned rank 4294967297 into rank 1
  // and a 2^32 ms delay into no delay.
  expect_error_naming([] { FaultPlan::parse("kill_rank=4294967297@msg:1"); },
                      "kill_rank");
  expect_error_naming([] { FaultPlan::parse("delay_ms=4294967296"); },
                      "delay_ms");
  expect_error_naming([] { FaultPlan::parse("delay_jitter_ms=1e3"); },
                      "delay_jitter_ms");
  expect_error_naming([] { FaultPlan::parse("seed=-1"); }, "seed");
}

TEST(FaultPlanTest, ToStringIsTheInverseOfParse) {
  FaultPlan plan;
  plan.drop = 0.1;
  plan.dup = 1.0 / 3.0;
  plan.reorder = 0.25;
  plan.delay_ms = 3;
  plan.delay_jitter_ms = 4;
  plan.kill_rank = 2;
  plan.kill_at_msg = 7;
  plan.disk_fault = 2;
  plan.disk_fault_at_op = 9;
  plan.seed = 123456789012345ull;
  EXPECT_EQ(FaultPlan::parse(plan.to_string()), plan) << plan.to_string();
  EXPECT_EQ(FaultPlan{}.to_string(), "");
  EXPECT_EQ(FaultPlan::parse(FaultPlan{}.to_string()), FaultPlan{});
}

// Every SipConfig field, set by name to a non-default value. A field the
// codec leaves out falls back to its default and fails the round trip.
SipConfig every_field_set() {
  SipConfig c;
  c.workers = 3;
  c.io_servers = 2;
  c.default_segment = 5;
  c.segment_overrides = {{"moindex", 3}, {"aoindex", 7}};
  c.subsegments_per_segment = 4;
  c.worker_memory_bytes = (1ull << 40) + 3;
  c.server_cache_bytes = (5ull << 20) + 1;
  c.opt_level = 1;
  c.prefetch_depth = 6;
  c.worker_threads = 3;
  c.window_limit = 17;
  c.server_disk_threads = 5;
  c.server_cold_io = true;
  c.sparse_threshold = 1.0 / 3.0;
  c.coalesce_puts = false;
  c.batch_gets = false;
  c.chunk_divisor = 5;
  c.min_chunk = 9;
  c.work_stealing = false;
  c.autotune = true;
  c.calibration_file = "/tmp/cal file";
  c.scratch_dir = "/tmp/scratch=dir";
  c.constants = {{"norb", 12}, {"nocc", -4}};
  c.computed_served = {{"V", "ao_integrals"}};
  c.dry_run_only = true;
  c.profiling = false;
  c.fault_plan = FaultPlan::parse(
      "drop=0.125,dup=0.0625,reorder=0.3,delay_ms=2,delay_jitter_ms=1,"
      "kill_rank=4@msg:50,disk=short@op:8,seed=77");
  c.reliable_protocol = true;
  c.retry_timeout_ms = 150;
  c.retry_max = 4;
  c.heartbeat_ms = -1;
  c.heartbeat_misses = 8;
  c.server_recovery = false;
  c.transport = "spawn";
  c.socket_address = "tcp:127.0.0.1:0";
  c.spawn_helper = "/usr/bin/helper";
  c.connect_timeout_ms = 2500;
  return c;
}

TEST(ConfigCodecTest, RoundTripsEveryField) {
  const SipConfig c = every_field_set();
  ASSERT_NO_THROW(c.validate());
  EXPECT_FALSE(c == SipConfig{});
  EXPECT_EQ(decode_config(encode_config(c)), c) << encode_config(c);
  EXPECT_EQ(decode_config(encode_config(SipConfig{})), SipConfig{});
}

TEST(ConfigCodecTest, RejectsBadLinesNamingTheKey) {
  expect_error_naming([] { decode_config("no_such_knob=1\n"); },
                      "no_such_knob");
  expect_error_naming([] { decode_config("window_limit=abc\n"); },
                      "window_limit");
  expect_error_naming([] { decode_config("window_limit=0\n"); },
                      "window_limit");
  expect_error_naming([] { decode_config("workers=4294967297\n"); },
                      "workers");
  expect_error_naming([] { decode_config("coalesce_puts=2\n"); },
                      "coalesce_puts");
  expect_error_naming([] { decode_config("segment.moindex=x\n"); },
                      "segment.moindex");
  expect_error_naming([] { decode_config("fault_plan=drop=2\n"); },
                      "fault_plan");
}

TEST(ConfigCodecTest, ValidationNamesTheKnob) {
  SipConfig config;
  config.chunk_divisor = 0;
  expect_error_naming([&] { config.validate(); }, "chunk_divisor");
  config = SipConfig{};
  config.opt_level = 3;
  expect_error_naming([&] { config.validate(); }, "opt_level");
}

TEST(ConfigCodecTest, EachKnobHasOneName) {
  std::set<std::string> names;
  for (const Knob& knob : knobs()) {
    EXPECT_TRUE(names.insert(knob.name).second) << knob.name;
  }
}

TEST(ErrorTest, CompileErrorCarriesLine) {
  CompileError error("bad token", 42);
  EXPECT_EQ(error.line(), 42);
  EXPECT_NE(std::string(error.what()).find("42"), std::string::npos);
}

TEST(ErrorTest, InfeasibleErrorCarriesWorkerCount) {
  InfeasibleError error("too big", 128);
  EXPECT_EQ(error.workers_needed(), 128);
  EXPECT_NE(std::string(error.what()).find("128"), std::string::npos);
}

TEST(ErrorTest, CheckMacroThrowsInternalError) {
  EXPECT_THROW(SIA_CHECK(false, "should fire"), InternalError);
  EXPECT_NO_THROW(SIA_CHECK(true, "should not fire"));
}

TEST(RngTest, SplitmixIsDeterministic) {
  EXPECT_EQ(splitmix64(12345), splitmix64(12345));
  EXPECT_NE(splitmix64(12345), splitmix64(12346));
}

TEST(RngTest, UnitDoubleInRange) {
  for (std::uint64_t k = 0; k < 1000; ++k) {
    const double x = unit_double(k);
    EXPECT_GE(x, 0.0);
    EXPECT_LT(x, 1.0);
  }
}

TEST(RngTest, HashCombineOrderSensitive) {
  const std::uint64_t a = hash_combine(hash_combine(1, 2), 3);
  const std::uint64_t b = hash_combine(hash_combine(1, 3), 2);
  EXPECT_NE(a, b);
}

TEST(StatsTest, RunningStatsBasics) {
  RunningStats stats;
  for (const double x : {1.0, 2.0, 3.0, 4.0}) stats.add(x);
  EXPECT_EQ(stats.count(), 4);
  EXPECT_DOUBLE_EQ(stats.mean(), 2.5);
  EXPECT_DOUBLE_EQ(stats.min(), 1.0);
  EXPECT_DOUBLE_EQ(stats.max(), 4.0);
  EXPECT_DOUBLE_EQ(stats.sum(), 10.0);
  EXPECT_NEAR(stats.stddev(), 1.2909944487, 1e-9);
}

TEST(StatsTest, EmptyStatsAreZero) {
  RunningStats stats;
  EXPECT_EQ(stats.count(), 0);
  EXPECT_EQ(stats.mean(), 0.0);
  EXPECT_EQ(stats.stddev(), 0.0);
}

TEST(StatsTest, TablePrinterFormatsRows) {
  std::ostringstream out;
  TablePrinter table(out, {"a", "b"}, {6, 8});
  table.print_header();
  table.print_row({"1", "2.50"});
  const std::string text = out.str();
  EXPECT_NE(text.find("a"), std::string::npos);
  EXPECT_NE(text.find("2.50"), std::string::npos);
  EXPECT_NE(text.find("------"), std::string::npos);
}

TEST(StatsTest, TablePrinterRejectsWrongCellCount) {
  std::ostringstream out;
  TablePrinter table(out, {"a"}, {4});
  EXPECT_THROW(table.print_row({"1", "2"}), InternalError);
}

TEST(StatsTest, NumFormatsDigits) {
  EXPECT_EQ(TablePrinter::num(3.14159, 2), "3.14");
  EXPECT_EQ(TablePrinter::num(2.0, 0), "2");
}

TEST(TimerTest, StopwatchAccumulates) {
  Stopwatch watch;
  watch.start();
  const double dt = watch.stop();
  EXPECT_GE(dt, 0.0);
  EXPECT_EQ(watch.intervals(), 1);
  EXPECT_GE(watch.total(), dt);
}

TEST(TimerTest, ScopedTimerStops) {
  Stopwatch watch;
  { ScopedTimer timer(watch); }
  EXPECT_FALSE(watch.running());
  EXPECT_EQ(watch.intervals(), 1);
}

TEST(TimerTest, WallClockAdvances) {
  const double a = wall_seconds();
  std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(wall_seconds(), a);
}

}  // namespace
}  // namespace sia
