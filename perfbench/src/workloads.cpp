#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <stdexcept>

#include "chem/programs.hpp"
#include "chem/reference.hpp"
#include "common/rng.hpp"

namespace perfbench {

namespace {

// chem::ref_ccd_energy(96, 32, 1): the dense single-threaded reference
// loops take 11 minutes at this size (RelWithDebInfo build of
// src/chem/reference.cpp, 2.0 GHz Xeon VM), so the value is stored.
// Regenerate it by calling that function with these arguments; the same
// call returns final_norm2 = 0.10698578496952912.
constexpr long kCcdNorb = 96;
constexpr long kCcdNocc = 32;
constexpr double kCcdEnergy = 0.34039434036388572;

// A launch configuration with every knob written out, so a change of a
// SipConfig default cannot silently change what is measured. Fields the
// workloads differ in are set by the caller afterwards.
sia::SipConfig pinned_config() {
  sia::SipConfig c;
  c.workers = 2;
  c.io_servers = 0;
  c.default_segment = 8;
  c.segment_overrides.clear();
  c.subsegments_per_segment = 2;
  c.worker_memory_bytes = 256ull << 20;
  c.server_cache_bytes = 32ull << 20;
  c.opt_level = 2;
  c.prefetch_depth = 2;
  c.worker_threads = 0;  // never -1: auto depends on the host's cores
  c.window_limit = 64;
  c.server_disk_threads = 2;
  c.server_cold_io = false;
  c.sparse_threshold = 0.0;
  c.coalesce_puts = true;
  c.batch_gets = true;
  c.chunk_divisor = 2;
  c.min_chunk = 1;
  c.work_stealing = true;
  c.autotune = false;
  c.calibration_file.clear();  // set by the harness to a private path
  c.scratch_dir.clear();       // fresh directory under TMPDIR per Sip
  c.constants.clear();
  c.computed_served.clear();
  c.dry_run_only = false;
  c.profiling = true;
  c.fault_plan = sia::FaultPlan{};
  c.reliable_protocol = false;
  c.retry_timeout_ms = 200;
  c.retry_max = 10;
  c.heartbeat_ms = 0;
  c.heartbeat_misses = 5;
  c.server_recovery = true;
  c.transport = "thread";
  // Spawned ranks reach the hub over loopback TCP: the default unix
  // socket lives in the scratch directory and silently falls back to TCP
  // when that path is too long, which would make the transport depend on
  // where the checkout sits.
  c.socket_address = "tcp:127.0.0.1:0";
  c.spawn_helper.clear();  // re-exec this binary (see main)
  c.connect_timeout_ms = 10000;
  return c;
}

// comm_storm with its random_block seed replaced by the benchmark's.
std::string storm_source(std::uint64_t fill_seed) {
  std::string source = sia::chem::comm_storm_source();
  const std::string needle = "random_block t(a,k) 11\n";
  const std::size_t at = source.find(needle);
  if (at == std::string::npos) {
    throw std::runtime_error("comm_storm source no longer seeds random_block "
                             "with 11; update perfbench");
  }
  source.replace(at, needle.size(),
                 "random_block t(a,k) " + std::to_string(fill_seed) + "\n");
  return source;
}

// The random_block fill seed the benchmark seed selects; small enough to
// be an exact SIAL number literal.
std::uint64_t storm_fill_seed(std::uint64_t seed) {
  return 1 + sia::splitmix64(seed) % 1000000;
}

double storm_reference_cnorm2(long norb, std::uint64_t fill_seed) {
  // A(a,k) exactly as builtin_random_block fills it: the key folds the
  // 1-based global coordinates into the seed with hash_combine.
  const auto n = static_cast<std::size_t>(norb);
  std::vector<double> a(n * n);
  for (long r = 1; r <= norb; ++r) {
    for (long k = 1; k <= norb; ++k) {
      std::uint64_t key = fill_seed;
      key = sia::hash_combine(key, static_cast<std::uint64_t>(r));
      key = sia::hash_combine(key, static_cast<std::uint64_t>(k));
      a[static_cast<std::size_t>(r - 1) * n + static_cast<std::size_t>(k - 1)] =
          2.0 * sia::unit_double(key) - 1.0;
    }
  }
  // ||A A^T||_F^2 by plain loops.
  double norm2 = 0.0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t s = 0; s < n; ++s) {
      double c = 0.0;
      for (std::size_t k = 0; k < n; ++k) c += a[r * n + k] * a[s * n + k];
      norm2 += c * c;
    }
  }
  return norm2;
}

double served_reference_snorm2(long norb, long nsweeps, long nshared,
                               int workers) {
  // fill_coords writes 100*a + k into element (a, k). The sweeps read
  // every element nsweeps times; the shared-read phase runs on every
  // worker and reads rows 1..nshared once each.
  using u128 = unsigned __int128;
  auto s1 = [](u128 n) { return n * (n + 1) / 2; };
  auto s2 = [](u128 n) { return n * (n + 1) * (2 * n + 1) / 6; };
  // sum over a in [1,rows], k in [1,cols] of (100a + k)^2.
  auto block_sum = [&](u128 rows, u128 cols) {
    return 10000 * cols * s2(rows) + 200 * s1(rows) * s1(cols) +
           rows * s2(cols);
  };
  const u128 n = static_cast<u128>(norb);
  const u128 total =
      static_cast<u128>(nsweeps) * block_sum(n, n) +
      static_cast<u128>(workers) * block_sum(static_cast<u128>(nshared), n);
  if (total >= (static_cast<u128>(1) << 53)) {
    throw std::runtime_error(
        "served_io checksum exceeds 2^53: the SIP's schedule-dependent "
        "summation order would no longer be exact");
  }
  return static_cast<double>(static_cast<std::uint64_t>(total));
}

Workload ccd(bool smoke) {
  Workload w;
  w.name = "ccd";
  w.source = sia::chem::ccd_energy_source();
  w.config = pinned_config();
  w.config.workers = 2;
  w.config.worker_threads = 1;  // the window engine, one pool thread each
  const long norb = smoke ? 16 : kCcdNorb;
  const long nocc = smoke ? 4 : kCcdNocc;
  w.config.default_segment = smoke ? 4 : 16;
  w.config.constants = {{"norb", norb}, {"nocc", nocc}, {"maxiter", 1}};
  w.scalar = "energy";
  w.rel_tol = 1e-9;
  if (smoke) {
    w.want = sia::chem::ref_ccd_energy(norb, nocc, 1);
    w.reference_note = "chem::ref_ccd_energy(16, 4, 1), computed live";
  } else {
    w.want = kCcdEnergy;
    w.reference_note = "chem::ref_ccd_energy(96, 32, 1), stored";
  }
  return w;
}

Workload storm(std::uint64_t seed, bool smoke, bool spawn) {
  Workload w;
  w.name = spawn ? "storm_spawn" : "storm";
  const std::uint64_t fill_seed = storm_fill_seed(seed);
  w.source = storm_source(fill_seed);
  w.config = pinned_config();
  w.config.workers = 3;
  w.config.worker_threads = 0;  // the serial engine
  w.config.default_segment = 4;
  w.config.transport = spawn ? "spawn" : "thread";
  const long norb = smoke ? (spawn ? 16 : 32) : 256;
  w.config.constants = {{"norb", norb}};
  w.scalar = "cnorm2";
  // put+= reaches each C block from several workers in whatever order
  // the fabric delivers, which moves the last bits of the sum.
  w.rel_tol = 1e-10;
  w.want = storm_reference_cnorm2(norb, fill_seed);
  w.reference_note = "plain loops over A * A^T, fill seed " +
                     std::to_string(fill_seed);
  return w;
}

Workload served_io(bool smoke) {
  Workload w;
  w.name = "served_io";
  w.source = sia::chem::io_storm_source();
  w.config = pinned_config();
  w.config.workers = 2;
  w.config.io_servers = 1;
  w.config.worker_threads = 0;
  w.config.server_disk_threads = 2;
  w.config.server_cold_io = false;  // warm page cache: measure the server
  // The checksum is a sum of integer squares that the SIP adds in
  // schedule-dependent order; it is exact only while every partial sum
  // stays below 2^53, which bounds norb at this segment.
  const long segment = smoke ? 12 : 96;
  const long norb = smoke ? 48 : 960;
  const long nsweeps = smoke ? 1 : 2;
  const long nshared = smoke ? 12 : 192;
  w.config.default_segment = static_cast<int>(segment);
  // The array is norb^2 doubles; the server cache holds three blocks, so
  // the array is more than 30x the cache.
  w.config.server_cache_bytes =
      static_cast<std::size_t>(3 * segment * segment) * sizeof(double);
  w.config.constants = {
      {"norb", norb}, {"nsweeps", nsweeps}, {"nshared", nshared}};
  w.scalar = "snorm2";
  w.rel_tol = 0.0;
  w.want = served_reference_snorm2(norb, nsweeps, nshared, w.config.workers);
  w.reference_note = "closed form of the fill_coords codes";
  return w;
}

}  // namespace

Check Workload::check(double got) const {
  Check c;
  c.got = got;
  c.want = want;
  const double err = std::fabs(got - want);
  const double scale = std::fabs(want);
  c.ok = rel_tol == 0.0 ? got == want : err <= rel_tol * scale;
  char tol[32] = "exact";
  if (rel_tol != 0.0) std::snprintf(tol, sizeof(tol), "%.3g", rel_tol);
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s = %.17g, reference %.17g (%s), "
                "relative error %.3g, tolerance %s",
                scalar.c_str(), got, want, reference_note.c_str(),
                scale > 0.0 ? err / scale : err, tol);
  c.detail = buf;
  return c;
}

Check Workload::check(const sia::sip::RunResult& result) const {
  auto it = result.scalars.find(scalar);
  if (it == result.scalars.end()) {
    Check c;
    c.detail = "run result has no scalar '" + scalar + "'";
    return c;
  }
  return check(it->second);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"ccd", "storm",
                                                 "storm_spawn", "served_io"};
  return names;
}

Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke) {
  if (name == "ccd") return ccd(smoke);
  if (name == "storm") return storm(seed, smoke, false);
  if (name == "storm_spawn") return storm(seed, smoke, true);
  if (name == "served_io") return served_io(smoke);
  throw std::runtime_error("unknown workload '" + name + "'");
}

}  // namespace perfbench
