// Multi-process chaos matrix: the socket fabric with every worker and
// I/O-server rank in its own OS process (`transport=spawn`), driven
// through the same two-outcome contract as the in-process chaos suite —
// a faulted run either completes bit-identical to the fault-free thread
// baseline or aborts with a diagnosis naming the fault. The kill cases
// use real SIGKILL: the scheduled rank raises the signal against its own
// process, so the master's watchdog sees true process death, not a
// cooperative shutdown.
//
// This binary is its own spawn helper: main() routes `--sia-child`
// re-execs into run_spawn_child() before gtest ever initializes, so it
// links GTest::gtest (not gtest_main).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>

#include "chem/integrals.hpp"
#include "chem/programs.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "sip/launch.hpp"
#include "sip/spawn.hpp"

namespace sia::sip {
namespace {

// Same integer-valued distributed-array storm as test_chaos.cpp: puts,
// accumulating puts, and gets between workers, with a checksum that is
// bit-identical under any schedule but shifts by a whole integer if a
// message is lost or double-applied.
std::string dist_storm_source() {
  return R"SIAL(
sial dist_storm
aoindex a = 1, norb
aoindex k = 1, norb

distributed A(a,k)
temp t(a,k)
temp u(a,k)
scalar csum
scalar cnorm2

pardo a, k
  execute fill_coords t(a,k)
  put A(a,k) = t(a,k)
endpardo a, k
sip_barrier

pardo a, k
  execute fill_coords u(a,k)
  put A(a,k) += u(a,k)
endpardo a, k
sip_barrier

csum = 0.0
pardo a, k
  get A(a,k)
  t(a,k) = A(a,k)
  csum += t(a,k) * t(a,k)
endpardo a, k
cnorm2 = 0.0
collective cnorm2 += csum
endsial
)SIAL";
}

SipConfig dist_config(const std::string& transport) {
  SipConfig config;
  config.workers = 2;
  config.io_servers = 1;
  config.default_segment = 4;
  config.retry_timeout_ms = 50;
  config.transport = transport;
  config.constants = {{"norb", 16}};
  return config;
}

SipConfig storm_config(const std::string& transport) {
  chem::register_chem_superinstructions();
  SipConfig config;
  config.workers = 2;
  config.io_servers = 1;
  config.default_segment = 8;
  config.server_cache_bytes = 8 * 8 * 8 * sizeof(double);  // 8 blocks
  config.server_disk_threads = 2;
  config.prefetch_depth = 2;
  config.retry_timeout_ms = 50;
  config.transport = transport;
  config.constants = {{"norb", 64}, {"nsweeps", 1}, {"nshared", 32}};
  return config;
}

// Hard wall-clock deadline: a multi-process run that neither completes
// nor aborts would otherwise hang the suite on orphaned children.
RunResult run_with_deadline(const SipConfig& config,
                            const std::string& source,
                            int deadline_seconds = 180) {
  auto task = std::async(std::launch::async, [&config, &source] {
    Sip sip(config);
    return sip.run_source(source);
  });
  if (task.wait_for(std::chrono::seconds(deadline_seconds)) !=
      std::future_status::ready) {
    std::fprintf(stderr,
                 "spawn run exceeded the %d s deadline (hang) — aborting\n",
                 deadline_seconds);
    std::fflush(stderr);
    std::abort();
  }
  return task.get();  // rethrows the run's error, if any
}

RunResult run_with_plan(SipConfig config, const std::string& source,
                        const std::string& plan) {
  config.fault_plan = FaultPlan::parse(plan);
  return run_with_deadline(config, source);
}

double dist_baseline() {
  static const double value =
      run_with_deadline(dist_config("thread"), dist_storm_source())
          .scalar("cnorm2");
  return value;
}

double storm_baseline() {
  static const double value =
      run_with_deadline(storm_config("thread"), chem::io_storm_source())
          .scalar("snorm2");
  return value;
}

// ---------------------------------------------------------------------
// Fault-free transport parity: loopback (framed socketpair, one process)
// and spawn (real processes) must both reproduce the thread baseline
// bit-identically, and must actually have gone through the serializer.

TEST(SpawnParityTest, LoopbackMatchesThreadBitIdentically) {
  const RunResult result =
      run_with_deadline(dist_config("loopback"), dist_storm_source());
  EXPECT_EQ(result.scalar("cnorm2"), dist_baseline());
  EXPECT_GT(result.traffic.serialized_messages, 0);
  EXPECT_EQ(result.traffic.frames_rejected, 0);
}

TEST(SpawnParityTest, SpawnMatchesThreadBitIdentically) {
  const RunResult result =
      run_with_deadline(dist_config("spawn"), dist_storm_source());
  EXPECT_EQ(result.scalar("cnorm2"), dist_baseline());
  EXPECT_GT(result.traffic.serialized_messages, 0);
  EXPECT_EQ(result.traffic.frames_rejected, 0);
  EXPECT_EQ(result.profile.robustness.retries_sent, 0);
}

TEST(SpawnParityTest, SpawnServedStormMatchesThread) {
  const RunResult result =
      run_with_deadline(storm_config("spawn"), chem::io_storm_source());
  EXPECT_EQ(result.scalar("snorm2"), storm_baseline());
  // The served path (prepare/request) crossed process boundaries.
  EXPECT_GT(result.profile.served.server_requests, 0);
}

// Spawned ranks ship their whole RankReport: the per-line and per-pardo
// profile, the window's counters, the worker totals and the screening
// counters come back as in thread mode. A sparse array under a nonzero
// threshold screens puts, gets and block dots; pardo iterations and the
// screening counters are schedule-independent, so both transports must
// report the same totals.
std::string screened_source() {
  return R"SIAL(
sial screened_storm
aoindex a = 1, norb
aoindex k = 1, norb
sparse distributed D(a,k)
temp t(a,k)
temp u(a,k)
scalar lsum
scalar total
pardo a, k
  execute fill_decay t(a,k) 2.0 7
  put D(a,k) = t(a,k)
endpardo a, k
sip_barrier
lsum = 0.0
pardo a, k
  get D(a,k)
  u(a,k) = D(a,k)
  lsum += u(a,k) * u(a,k)
endpardo a, k
total = 0.0
collective total += lsum
endsial
)SIAL";
}

TEST(SpawnParityTest, SpawnShipsTheFullProfile) {
  SipConfig config = dist_config("thread");
  config.io_servers = 0;
  config.worker_threads = 2;
  config.sparse_threshold = 1e-3;
  const RunResult thread = run_with_deadline(config, screened_source());
  config.transport = "spawn";
  const RunResult spawn = run_with_deadline(config, screened_source());
  const ProfileReport& p = spawn.profile;

  EXPECT_FALSE(p.lines.empty());
  EXPECT_GT(p.total_elapsed, 0.0);
  ASSERT_EQ(p.pardos.size(), thread.profile.pardos.size());
  for (std::size_t i = 0; i < p.pardos.size(); ++i) {
    EXPECT_EQ(p.pardos[i].pardo_id, thread.profile.pardos[i].pardo_id);
    EXPECT_GT(p.pardos[i].iterations, 0) << "pardo " << i;
    EXPECT_EQ(p.pardos[i].iterations, thread.profile.pardos[i].iterations)
        << "pardo " << i;
  }
  EXPECT_TRUE(p.executor.any());
  EXPECT_EQ(p.executor.threads, 2);
  EXPECT_GT(spawn.workers.gets_issued + spawn.workers.gets_local, 0);
  EXPECT_GT(spawn.workers.peak_local_doubles, 0u);
  EXPECT_TRUE(p.screening.any());
  EXPECT_GT(p.screening.puts_screened, 0);
  EXPECT_EQ(p.screening.puts_screened, thread.profile.screening.puts_screened);
  EXPECT_GT(p.screening.kernels_screened, 0);
  EXPECT_EQ(p.screening.kernels_screened,
            thread.profile.screening.kernels_screened);
  EXPECT_EQ(p.screening.zero_reads, thread.profile.screening.zero_reads);
  ASSERT_EQ(p.screening.arrays.size(), 1u);
  EXPECT_EQ(p.screening.arrays[0].screened,
            thread.profile.screening.arrays[0].screened);
}

// ---------------------------------------------------------------------
// Chaos across real processes: drop, duplication, and delay injected
// identically in every child (pure function of {seed, src, counter}),
// recovered by the reliable layer over real sockets.

TEST(SpawnChaosTest, DropsAreRetransmittedAcrossProcesses) {
  const double baseline = dist_baseline();
  std::int64_t dropped = 0;
  std::int64_t retries = 0;
  for (int seed = 1; seed <= 8; ++seed) {
    const RunResult result =
        run_with_plan(dist_config("spawn"), dist_storm_source(),
                      "drop=0.02,seed=" + std::to_string(seed));
    EXPECT_EQ(result.scalar("cnorm2"), baseline) << "seed " << seed;
    dropped += result.profile.robustness.faults_dropped;
    retries += result.profile.robustness.retries_sent;
  }
  EXPECT_GT(dropped, 0);
  EXPECT_GT(retries, 0);
}

TEST(SpawnChaosTest, DuplicatesApplyExactlyOnceAcrossProcesses) {
  const double baseline = dist_baseline();
  std::int64_t duplicated = 0;
  for (int seed = 1; seed <= 3; ++seed) {
    const RunResult result =
        run_with_plan(dist_config("spawn"), dist_storm_source(),
                      "dup=0.02,seed=" + std::to_string(seed));
    EXPECT_EQ(result.scalar("cnorm2"), baseline) << "seed " << seed;
    duplicated += result.profile.robustness.faults_duplicated;
  }
  EXPECT_GT(duplicated, 0);
}

TEST(SpawnChaosTest, DelayAndReorderConvergeAcrossProcesses) {
  const double baseline = dist_baseline();
  std::int64_t perturbed = 0;
  for (int seed = 1; seed <= 3; ++seed) {
    const RunResult result = run_with_plan(
        dist_config("spawn"), dist_storm_source(),
        "delay_ms=3,delay_jitter_ms=4,reorder=0.05,seed=" +
            std::to_string(seed));
    EXPECT_EQ(result.scalar("cnorm2"), baseline) << "seed " << seed;
    perturbed += result.profile.robustness.faults_delayed +
                 result.profile.robustness.faults_reordered;
  }
  EXPECT_GT(perturbed, 0);
}

// ---------------------------------------------------------------------
// SIGKILL a worker process: the scheduled rank raises a real SIGKILL
// against itself, the master's heartbeat watchdog notices the silence,
// and the launch aborts with the watchdog's diagnosis — never a hang.

TEST(SpawnKillTest, WorkerSigkillAbortsWithDiagnosis) {
  const auto start = std::chrono::steady_clock::now();
  try {
    run_with_plan(dist_config("spawn"), dist_storm_source(),
                  "kill_rank=1@msg:10,seed=1");
    FAIL() << "spawn run with a SIGKILLed worker completed";
  } catch (const RuntimeError& error) {
    const std::string what = error.what();
    EXPECT_NE(what.find("worker rank 1 unresponsive"), std::string::npos)
        << what;
  }
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  EXPECT_LT(seconds, 60.0);
}

// ---------------------------------------------------------------------
// SIGKILL the (only) I/O-server process: the watchdog respawns it as a
// fresh process (incarnation 1), which rebuilds from the durable files +
// ack journal; worker retransmits repopulate the rest, bit-identically.

TEST(SpawnKillTest, ServerSigkillRecoversBitIdentically) {
  const double baseline = storm_baseline();
  const SipConfig config = storm_config("spawn");
  const int server_rank = config.first_server_rank();  // rank 3
  const RunResult result = run_with_plan(
      config, chem::io_storm_source(),
      "kill_rank=" + std::to_string(server_rank) + "@msg:25,seed=1");
  EXPECT_EQ(result.scalar("snorm2"), baseline);
  EXPECT_EQ(result.profile.robustness.server_recoveries, 1);
}

}  // namespace
}  // namespace sia::sip

// Custom main: a `--sia-child` re-exec is a spawned rank of one of the
// tests above and must never reach gtest.
int main(int argc, char** argv) {
  if (sia::sip::is_spawn_child(argc, argv)) {
    sia::chem::register_chem_superinstructions();
    return sia::sip::run_spawn_child(argc, argv);
  }
  ::testing::InitGoogleTest(&argc, argv);
  return RUN_ALL_TESTS();
}
