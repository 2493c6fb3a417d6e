// The benchmark's workloads: for each, a SIAL program, a launch
// configuration with every knob pinned, and an independent reference
// check of the result.
//
// References never run the SIP: ccd compares against a stored value of
// chem::ref_ccd_energy (dense loops), storm against plain loops over
// A * A^T keyed exactly like the random_block builtin, and served_io
// against the closed form of the fill_coords integer codes.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "sip/launch.hpp"

namespace perfbench {

// Outcome of a reference check.
struct Check {
  bool ok = false;
  double got = 0.0;
  double want = 0.0;
  std::string detail;  // human-readable comparison
};

struct Workload {
  std::string name;
  std::string source;         // SIAL program text
  sia::SipConfig config;      // every knob set explicitly
  std::string scalar;         // result scalar the reference checks
  double want = 0.0;          // reference value
  double rel_tol = 0.0;       // 0: exact equality
  std::string reference_note; // where `want` came from

  // True when the run must go through Sip::run_source (spawned ranks
  // recompile the source and cannot take a CompiledProgram).
  bool spawned() const { return config.spawn_processes(); }

  Check check(double got) const;
  Check check(const sia::sip::RunResult& result) const;
};

// Workload names in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

// Builds workload `name` from `seed`. `smoke` selects the tiny sizes of
// the self-test (references then computed live). Throws on an unknown
// name.
Workload make_workload(const std::string& name, std::uint64_t seed,
                       bool smoke);

}  // namespace perfbench
