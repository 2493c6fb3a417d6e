// sial_tool: a command-line front end for the SIAL tool chain.
//
//   sial_tool compile  <file.sial>          parse + check + disassemble
//   sial_tool dryrun   <file.sial> [opts]   master's memory analysis
//   sial_tool run      <file.sial> [opts]   execute on the SIP
//   sial_tool plan     <file.sial> [opts]   print the autotuner's plan and
//                                           predicted time, without running
//   sial_tool model    <file.sial> [opts]   project cluster-scale
//                                           performance (paper sec. VIII)
//
// Options: -w N (workers), -s N (io servers), -g N (segment size),
//          -t N (compute threads per worker; 0 = no dataflow window),
//          --sparse-threshold X (screen sparse-array blocks with
//          Frobenius norm below X; 0 = exact dense execution),
//          --transport thread|loopback|spawn (ranks as threads, threads
//          over sockets, or processes) — the knob table's six flags,
//          -O0 / -O1 / -O2 (bytecode optimization level; default -O2),
//          --dump-bytecode[=opt|raw] (annotated listing of the optimized
//          bytecode, or the raw compiler output),
//          -D name=value (symbolic constant; repeatable),
//          --no-autotune (run with the configuration exactly as given;
//          `run` otherwise plans at launch — knobs set on the command
//          line are pinned and never overridden; SIA_AUTOTUNE=0/1 wins
//          over both)
//
// This is the developer-facing workflow the paper describes: compile the
// SIAL program once, dry-run it to check feasibility, then run it with
// runtime-chosen tuning parameters. Optimizer diagnostics (what was
// hoisted, which barriers were dropped, which temps defeat renaming) are
// rendered to stderr with caret snippets against the source.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>

#include "chem/integrals.hpp"
#include "common/config.hpp"
#include "common/error.hpp"
#include "common/number.hpp"
#include "sial/compiler.hpp"
#include "sial/diag.hpp"
#include "sial/disasm.hpp"
#include "sial/opt/optimizer.hpp"
#include "sim/machine.hpp"
#include "sim/program_model.hpp"
#include "sim/report.hpp"
#include "sim/sip_model.hpp"
#include "sip/launch.hpp"
#include "sip/spawn.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw sia::Error("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

int usage() {
  std::string flags;
  for (const sia::Knob& knob : sia::knobs()) {
    if (knob.flag == nullptr) continue;
    flags += std::string(" [") + knob.flag + " " + knob.name + "]";
  }
  std::fprintf(stderr,
               "usage: sial_tool {compile|dryrun|run|plan|model} <file.sial>"
               "%s [-O0|-O1|-O2] [--dump-bytecode[=opt|raw]] "
               "[-D name=value]... [--no-autotune]\n",
               flags.c_str());
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  // Spawned rank re-exec: this process is a worker or I/O server of a
  // `--transport spawn` run, not a fresh tool invocation.
  if (sia::sip::is_spawn_child(argc, argv)) {
    sia::chem::register_chem_superinstructions();
    return sia::sip::run_spawn_child(argc, argv);
  }
  if (argc < 3) return usage();
  const std::string command = argv[1];
  const std::string path = argv[2];

  sia::SipConfig config;
  config.constants = {{"norb", 8}, {"nocc", 4}, {"maxiter", 2}, {"n", 8}};
  bool dump_bytecode = false;
  bool dump_raw = false;
  bool no_autotune = false;
  const std::span<const sia::Knob> knobs = sia::knobs();
  for (int arg = 3; arg < argc; ++arg) {
    const auto knob = std::find_if(
        knobs.begin(), knobs.end(), [&](const sia::Knob& k) {
          return k.flag != nullptr && std::strcmp(k.flag, argv[arg]) == 0;
        });
    if (knob != knobs.end() && arg + 1 < argc) {
      const char* flag = argv[arg];
      const char* text = argv[++arg];
      if (!knob->parse(config, text)) {
        std::fprintf(stderr, "sial_tool: bad value for %s: '%s'\n", flag,
                     text);
        return 2;
      }
    } else if (std::strncmp(argv[arg], "-O", 2) == 0 &&
               std::strlen(argv[arg]) == 3 && argv[arg][2] >= '0' &&
               argv[arg][2] <= '2') {
      config.opt_level = argv[arg][2] - '0';
    } else if (std::strcmp(argv[arg], "--dump-bytecode") == 0 ||
               std::strcmp(argv[arg], "--dump-bytecode=opt") == 0) {
      dump_bytecode = true;
    } else if (std::strcmp(argv[arg], "--dump-bytecode=raw") == 0) {
      dump_bytecode = true;
      dump_raw = true;
    } else if (std::strcmp(argv[arg], "--no-autotune") == 0) {
      no_autotune = true;
    } else if (std::strcmp(argv[arg], "-D") == 0 && arg + 1 < argc) {
      const std::string def = argv[++arg];
      const std::size_t eq = def.find('=');
      if (eq == std::string::npos) return usage();
      if (!sia::parse_number(std::string_view(def).substr(eq + 1),
                             config.constants[def.substr(0, eq)])) {
        std::fprintf(stderr, "sial_tool: bad value for -D: '%s'\n",
                     def.c_str());
        return 2;
      }
    } else {
      return usage();
    }
  }

  try {
    sia::chem::register_chem_superinstructions();
    const std::string source = read_file(path);
    const sia::sial::CompiledProgram program =
        sia::sial::compile_sial(source);

    // The mid-end runs here too so the tool can show its diagnostics and
    // the optimized listing; the launch re-runs it from the same raw
    // program (optimize is deterministic).
    const sia::sial::opt::OptResult opt =
        sia::sial::opt::optimize(program, config.opt_level);
    std::fputs(
        sia::sial::render_diags(opt.diagnostics, source, path).c_str(),
        stderr);

    if (dump_bytecode) {
      std::fputs(dump_raw
                     ? sia::sial::disassemble(program).c_str()
                     : sia::sial::disassemble_annotated(opt.program).c_str(),
                 stdout);
      if (command == "compile") return 0;
    }

    if (command == "compile") {
      std::fputs(sia::sial::disassemble(program).c_str(), stdout);
      return 0;
    }
    if (command == "dryrun") {
      sia::sip::Sip sip(config);
      std::fputs(sip.analyze(program).to_string().c_str(), stdout);
      return 0;
    }
    if (command == "plan") {
      const sia::sip::Sip sip(config);
      const sia::sip::PlanChoice choice = sip.plan(program);
      std::printf("plan: %s\n", choice.summary.c_str());
      std::printf("predicted %.3f s (serial baseline %.3f s), "
                  "%d candidates swept, %s calibration\n",
                  choice.predicted_seconds, choice.baseline_seconds,
                  choice.candidates, choice.calibrated ? "host" : "cold");
      if (!choice.pinned.empty()) {
        std::printf("pinned by user:");
        for (const std::string& knob : choice.pinned) {
          std::printf(" %s", knob.c_str());
        }
        std::printf("\n");
      }
      return 0;
    }
    if (command == "model") {
      const sia::sial::ResolvedProgram resolved(opt.program, config);
      const sia::sim::WorkloadModel workload =
          sia::sim::model_program(resolved);
      std::printf("derived workload '%s': %.3g total flops, %zu phases\n",
                  workload.name.c_str(), workload.total_flops(),
                  workload.phases.size());
      for (const auto& phase : workload.phases) {
        std::printf("  %-16s %lld tasks x %d sweeps, %.3g flops/task, "
                    "%lld fetches/task\n",
                    phase.name.c_str(),
                    static_cast<long long>(phase.tasks), phase.sweeps,
                    phase.flops_per_task,
                    static_cast<long long>(phase.fetches_per_task));
      }
      const sia::sim::MachineModel machine = sia::sim::cray_xt5();
      std::printf("\nprojected on %s:\n%8s %12s %8s\n",
                  machine.name.c_str(), "cores", "seconds", "wait%");
      for (const long p : {64L, 256L, 1024L, 4096L, 16384L}) {
        const sia::sim::SiaOutcome outcome = sia::sim::simulate_sia(
            machine, workload, p, sia::sim::SimOptions{});
        std::printf("%8ld %12.3f %8.1f\n", p, outcome.seconds,
                    outcome.wait_percent);
      }
      return 0;
    }
    if (command == "run") {
      config.autotune = !no_autotune;
      sia::sip::Sip sip(config);
      // run_source (not run): spawn mode ships the source to children.
      const sia::sip::RunResult result = sip.run_source(source);
      std::printf("final scalars:\n");
      for (const auto& [name, value] : result.scalars) {
        std::printf("  %-16s = %.12g\n", name.c_str(), value);
      }
      std::printf("\n%s", result.profile.to_string().c_str());
      return 0;
    }
    return usage();
  } catch (const std::exception& error) {
    std::fprintf(stderr, "sial_tool: %s\n", error.what());
    return 1;
  }
}
