// RankReport: the one end-of-run report every rank hands back, thread or
// spawned process. The codec must round-trip every counter, reject any
// report that does not fit this build and this program (naming the
// rank), and the aggregator must read line and opcode from the program.
#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/error.hpp"
#include "sial/compiler.hpp"
#include "sip/rank_report.hpp"

namespace sia::sip {
namespace {

constexpr const char* kSource = R"(
sial report_ids
moindex i = 1, n
moindex j = 1, n
distributed d(i,j)
served s(i,j)
temp t(i,j)
scalar lsum
scalar total
pardo i, j
  execute fill_coords t(i,j)
  put d(i,j) = t(i,j)
  prepare s(i,j) = t(i,j)
endpardo i, j
total = 0.0
collective total += lsum
endsial
)";

// Ranks: 0 master, 1-2 workers, 3 the I/O server.
const sial::ResolvedProgram& program() {
  static const std::unique_ptr<sial::ResolvedProgram> resolved = [] {
    SipConfig config;
    config.workers = 2;
    config.io_servers = 1;
    config.default_segment = 3;
    config.constants = {{"n", 6}};
    return std::make_unique<sial::ResolvedProgram>(
        sial::compile_sial(kSource), config);
  }();
  return *resolved;
}

// Sets every 8-byte word of a stats struct to a distinct nonzero
// pattern, so no counter keeps its default and a field the codec skips
// cannot round-trip by accident.
template <class T>
void fill(T& value, std::int64_t& seed) {
  static_assert(sizeof(T) % sizeof(std::int64_t) == 0);
  std::int64_t words[sizeof(T) / sizeof(std::int64_t)];
  for (std::int64_t& word : words) word = ++seed;
  std::memcpy(&value, words, sizeof(T));
}

RankReport::Process full_process(std::int64_t& seed) {
  RankReport::Process p;
  fill(p.traffic, seed);
  fill(p.chaos, seed);
  fill(p.faults_disk, seed);
  fill(p.kernels_screened, seed);
  return p;
}

RankReport full_worker() {
  std::int64_t seed = 0;
  RankReport report;
  report.rank = 1;
  RankReport::Worker& w = report.worker.emplace();
  fill(w.dist, seed);
  fill(w.served, seed);
  fill(w.cache, seed);
  fill(w.pool_heap_fallbacks, seed);
  fill(w.peak_local_doubles, seed);
  fill(w.channel, seed);
  fill(w.duplicates_dropped, seed);
  fill(w.contract_flops, seed);
  fill(w.totals, seed);
  fill(w.executor, seed);
  const std::int64_t last_pc =
      static_cast<std::int64_t>(program().code().code.size()) - 1;
  w.lines = {{0, {3, 0.5}}, {last_pc, {7, 0.25}}};
  w.pardos = {{0, {4, 0.125, 0.0625}}};
  w.home = {{0, 0, 5}};
  w.scalars.assign(program().code().scalars.size(), 2.5);
  report.process = full_process(seed);
  return report;
}

RankReport full_server() {
  std::int64_t seed = 100;
  RankReport report;
  report.rank = 3;
  RankReport::Server& s = report.server.emplace();
  fill(s.stats, seed);
  s.presence = {{1, 2, 9}};
  report.process = full_process(seed);
  return report;
}

// Overwrites the 8-byte word at `offset` of the encoded payload.
void patch_word(msg::Message& message, std::size_t offset,
                std::uint64_t value) {
  std::memcpy(reinterpret_cast<char*>(message.data.data()) + offset, &value,
              sizeof(value));
}

void expect_rejected(const msg::Message& message, const std::string& why) {
  try {
    decode(message, program());
    ADD_FAILURE() << "decode accepted a report with " << why;
  } catch (const RuntimeError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("rank " + std::to_string(message.src)),
              std::string::npos)
        << what;
    EXPECT_NE(what.find(why), std::string::npos) << what;
  }
}

TEST(RankReportTest, RoundTripKeepsEveryCounter) {
  for (const RankReport& report : {full_worker(), full_server()}) {
    ASSERT_NE(report, RankReport{});
    const msg::Message message = encode(report);
    EXPECT_EQ(message.src, report.rank);
    const RankReport decoded = decode(message, program());
    EXPECT_EQ(decoded, report) << "rank " << report.rank;
    if (report.worker) {
      // Named, so a help counter outside the walked struct fails here.
      EXPECT_NE(report.worker->executor.tasks_helped, 0);
      EXPECT_EQ(decoded.worker->executor.tasks_helped,
                report.worker->executor.tasks_helped);
      EXPECT_EQ(decoded.worker->executor.help_seconds,
                report.worker->executor.help_seconds);
      EXPECT_NE(report.worker->contract_flops, 0);
      EXPECT_EQ(decoded.worker->contract_flops,
                report.worker->contract_flops);
    }
  }
  // A section is present or absent on both sides of the wire.
  RankReport bare;
  bare.rank = 2;
  EXPECT_EQ(decode(encode(bare), program()), bare);
}

TEST(RankReportTest, TruncatedReportsAreRejected) {
  msg::Message message = encode(full_worker());
  message.data.pop_back();
  expect_rejected(message, "truncated");

  // A consistent header over a payload cut inside a section.
  message = encode(full_worker());
  message.data.pop_back();
  message.header[0] = static_cast<std::int64_t>(message.data.size() * 8);
  expect_rejected(message, "truncated");

  message = encode(full_worker());
  message.header.clear();
  expect_rejected(message, "truncated");
}

TEST(RankReportTest, OversizedReportsAreRejected) {
  msg::Message message = encode(full_server());
  message.data.push_back(0.0);
  expect_rejected(message, "oversized");

  message = encode(full_server());
  message.data.push_back(0.0);
  message.header[0] += 8;
  expect_rejected(message, "trailing bytes");
}

TEST(RankReportTest, LayoutMismatchesAreRejected) {
  // Wire order: flags word, then the server stats behind their size word,
  // then the presence rows behind their row size and count.
  const std::size_t stats_size = 8;
  const std::size_t presence_count =
      stats_size + 8 + sizeof(IoServer::Stats) + 8;
  msg::Message message = encode(full_server());
  patch_word(message, stats_size, sizeof(IoServer::Stats) + 8);
  expect_rejected(message, "section size mismatch");

  message = encode(full_server());
  patch_word(message, presence_count, std::uint64_t{1} << 40);
  expect_rejected(message, "row count past the payload");

  message = encode(full_server());
  patch_word(message, 0, 8);
  expect_rejected(message, "unknown section flags");
}

TEST(RankReportTest, OutOfRangeIdsAreRejected) {
  const sial::CompiledProgram& code = program().code();
  RankReport report = full_worker();
  report.worker->lines.push_back(
      {static_cast<std::int64_t>(code.code.size()), {1, 0.0}});
  expect_rejected(encode(report), "pc");

  report = full_worker();
  report.worker->pardos.push_back(
      {static_cast<std::int64_t>(code.pardos.size()), {}});
  expect_rejected(encode(report), "pardo");

  report = full_worker();
  report.worker->home.push_back(
      {static_cast<std::int64_t>(program().arrays().size()), 0, 1});
  expect_rejected(encode(report), "array");

  report = full_server();
  report.server->presence.push_back({-1, 0, 1});
  expect_rejected(encode(report), "array");

  report = full_worker();
  report.worker->scalars.push_back(1.0);
  expect_rejected(encode(report), "scalar count");

  // Scalars come from worker rank 1 only; sections match the rank's role.
  report = full_worker();
  report.rank = 2;
  expect_rejected(encode(report), "scalar count");
  report = full_worker();
  report.rank = 3;
  expect_rejected(encode(report), "worker");
  report = full_server();
  report.rank = 2;
  expect_rejected(encode(report), "server");
  report = full_server();
  report.rank = 4;
  expect_rejected(encode(report), "rank 4 out of range");
}

TEST(RankReportTest, AggregateTakesLinesFromTheProgram) {
  RankReport worker;
  worker.rank = 1;
  worker.worker.emplace().lines = {{2, {3, 0.5}}};
  worker.worker->scalars.assign(program().code().scalars.size(), 1.5);
  RankReport retired;  // a server incarnation retired by a respawn
  retired.rank = 3;
  retired.server.emplace().stats.requests = 4;
  RankReport server = retired;
  server.server->stats.requests = 5;

  RunResult result;
  aggregate({worker, server, retired}, Master::Stats{}, program(), result);
  ASSERT_EQ(result.profile.lines.size(), 1u);
  const sial::Instruction& instr = program().code().code[2];
  EXPECT_EQ(result.profile.lines[0].line, instr.line);
  EXPECT_EQ(result.profile.lines[0].opcode, sial::opcode_name(instr.op));
  EXPECT_EQ(result.profile.lines[0].count, 3);
  EXPECT_EQ(result.profile.served.server_requests, 9);
  EXPECT_EQ(result.scalar("total"), 1.5);
}

TEST(RankReportTest, AggregateSumsPoolAndHelpedWork) {
  std::vector<RankReport> reports;
  for (int rank = 1; rank <= 2; ++rank) {
    RankReport& report = reports.emplace_back();
    report.rank = rank;
    RankReport::Worker& w = report.worker.emplace();
    w.scalars.assign(program().code().scalars.size(), 0.0);
    w.executor.threads = 1;
    w.executor.tasks_executed = 4 * rank;
    w.executor.tasks_helped = rank;
    w.executor.help_seconds = 0.25 * rank;
    w.executor.thread_busy_seconds = 0.5 * rank;
    w.contract_flops = std::int64_t{1'500'000'000} * rank;
  }
  RunResult result;
  aggregate(reports, Master::Stats{}, program(), result);
  const ProfileReport::Executor& e = result.profile.executor;
  EXPECT_EQ(e.tasks_executed, 12);
  EXPECT_EQ(e.tasks_helped, 3);
  EXPECT_EQ(e.help_seconds, 0.75);
  EXPECT_EQ(e.thread_busy_seconds, 1.5);
  EXPECT_EQ(result.profile.contract_flops, 4'500'000'000);
  const std::string text = result.profile.to_string();
  EXPECT_NE(text.find("3 helped (750.00 ms)"), std::string::npos) << text;
  // 4.5 GFLOP over 1.5 s pool busy + 0.75 s helped.
  EXPECT_NE(text.find("contractions: 4.50 GFLOP, 2.0 GFLOP/s"),
            std::string::npos)
      << text;
}

}  // namespace
}  // namespace sia::sip
