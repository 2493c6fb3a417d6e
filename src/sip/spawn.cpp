#include "sip/spawn.hpp"

#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <fstream>
#include <map>
#include <string_view>
#include <thread>
#include <vector>

#include "common/error.hpp"
#include "common/log.hpp"
#include "common/number.hpp"
#include "common/posix_io.hpp"
#include "msg/chaos.hpp"
#include "msg/frame.hpp"
#include "msg/socket_fabric.hpp"
#include "msg/tags.hpp"
#include "sial/compiler.hpp"
#include "sial/opt/optimizer.hpp"
#include "sip/interpreter.hpp"
#include "sip/io_server.hpp"
#include "sip/master.hpp"
#include "sip/rank_report.hpp"
#include "sip/shared.hpp"
#include "sip/superinstr.hpp"

namespace sia::sip {

namespace {

// ---------------------------------------------------------------------
// Bundle: what a child rebuilds its half of the launch from. A
// `connect=<hub address>` line, encode_config of the launch's config with
// its resolved scratch directory, an empty line, then the SIAL source.

struct Bundle {
  SipConfig config;
  std::string connect;  // hub address for the spoke fabric
  std::string source;
};

std::string serialize_bundle(SipConfig config, const std::string& connect,
                             const std::string& scratch_dir,
                             const std::string& source) {
  config.scratch_dir = scratch_dir;
  return "connect=" + connect + "\n" + encode_config(config) + "\n" + source;
}

Bundle parse_bundle(const std::string& text) {
  // Config lines are never empty, so the first empty line ends them.
  const std::size_t eol = text.find('\n');
  const std::size_t end = text.find("\n\n");
  if (!text.starts_with("connect=") || end == std::string::npos) {
    throw Error("spawn bundle: expected connect, config and source sections");
  }
  return {decode_config(std::string_view(text).substr(eol + 1, end - eol)),
          text.substr(8, eol - 8), text.substr(end + 2)};
}

// Writes `message` from `rank` over a fresh one-shot connection to the
// hub. Best effort by design: if the hub is already gone (it stops on
// abort), the report is simply lost — the error that caused the abort
// reached the master through the live fabric before it stopped.
void send_one_shot(const std::string& connect, int rank,
                   msg::Message message) {
  msg::SocketAddress addr;
  try {
    addr = msg::SocketAddress::parse(connect);
  } catch (const std::exception&) {
    return;
  }
  const int fd = msg::connect_socket(addr);
  if (fd < 0) return;
  message.src = rank;
  std::vector<std::uint8_t> frame;
  msg::encode_message_frame(message, /*dst=*/0, frame);
  write_full(fd, frame.data(), frame.size());
  close_quiet(fd);
}

pid_t spawn_rank(const std::string& helper, int rank,
                 const std::string& bundle_path, int incarnation) {
  std::vector<std::string> args = {helper,
                                   "--sia-child",
                                   "--rank",
                                   std::to_string(rank),
                                   "--bundle",
                                   bundle_path,
                                   "--incarnation",
                                   std::to_string(incarnation)};
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& arg : args) argv.push_back(arg.data());
  argv.push_back(nullptr);
  const pid_t pid = ::fork();
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    ::_exit(127);  // exec failed; the watchdog will diagnose the silence
  }
  return pid;
}

// Reaps every live child: polite waitpid polling under a deadline, then
// SIGKILL for stragglers (an aborted child may be blocked on a fabric
// that no longer answers).
void reap_children(std::vector<pid_t>& pids) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  for (;;) {
    bool pending = false;
    for (pid_t& pid : pids) {
      if (pid <= 0) continue;
      int status = 0;
      const pid_t r = retry_eintr([&] { return ::waitpid(pid, &status, WNOHANG); });
      if (r == pid || (r < 0 && errno == ECHILD)) {
        pid = -1;
      } else {
        pending = true;
      }
    }
    if (!pending || std::chrono::steady_clock::now() >= deadline) break;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  for (pid_t& pid : pids) {
    if (pid <= 0) continue;
    ::kill(pid, SIGKILL);
    int status = 0;
    retry_eintr([&] { return ::waitpid(pid, &status, 0); });
    pid = -1;
  }
}

}  // namespace

msg::Message make_abort_message(const std::string& text) {
  msg::Message message;
  message.tag = msg::kAbort;
  message.header = {static_cast<std::int64_t>(text.size())};
  message.data.resize((text.size() + 7) / 8, 0.0);
  if (!text.empty()) {
    std::memcpy(message.data.data(), text.data(), text.size());
  }
  return message;
}

std::string abort_text(const msg::Message& message) {
  if (message.header.empty()) return "aborted by remote rank";
  const std::size_t bytes = static_cast<std::size_t>(
      std::max<std::int64_t>(0, message.header[0]));
  if (bytes == 0 || bytes > message.data.size() * 8) {
    return "aborted by remote rank";
  }
  std::string text(bytes, '\0');
  std::memcpy(text.data(), message.data.data(), bytes);
  return text;
}

bool is_spawn_child(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--sia-child") == 0) return true;
  }
  return false;
}

int run_spawn_child(int argc, char** argv) {
  int rank = -1;
  int incarnation = 0;
  std::string bundle_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rank" && i + 1 < argc) {
      parse_number(argv[++i], rank);
    } else if (arg == "--bundle" && i + 1 < argc) {
      bundle_path = argv[++i];
    } else if (arg == "--incarnation" && i + 1 < argc) {
      parse_number(argv[++i], incarnation);
    }
  }
  std::string connect;  // known once the bundle parses; used for aborts
  try {
    ignore_sigpipe();
    if (rank < 1 || bundle_path.empty()) {
      throw Error("spawn child: need --rank R and --bundle <path>");
    }
    std::ifstream in(bundle_path, std::ios::binary);
    if (!in) throw Error("spawn child: cannot read bundle " + bundle_path);
    std::string text((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
    Bundle bundle = parse_bundle(text);
    connect = bundle.connect;
    SipConfig config = bundle.config;
    if (incarnation > 0 && config.fault_plan.kill_rank >= 0) {
      // A respawned incarnation must not re-fire the scheduled kill (the
      // thread-mode equivalent is ChaosFabric's one-shot latch, which a
      // fresh process has lost). Clearing the kill may deactivate the
      // whole plan, so pin the reliable protocol on: every other rank
      // still stamps seq/ack and expects durability acks.
      config.fault_plan.kill_rank = -1;
      config.fault_plan.kill_at_msg = 0;
      config.reliable_protocol = true;
    }
    config.validate();
    if (rank >= config.total_ranks()) {
      throw Error("spawn child: rank out of range");
    }
    register_builtin_superinstructions();
    const sial::CompiledProgram program = sial::compile_sial(bundle.source);
    const sial::ResolvedProgram resolved(
        sial::opt::optimize(program, config.opt_level).program, config);
    const DryRunReport dry = dry_run(resolved);

    SipShared shared;
    shared.program = &resolved;
    shared.config = config;
    shared.scratch_dir = config.scratch_dir;
    shared.pool_plan = dry.pool_plan;
    shared.init_rank_status(config.total_ranks());
    std::unique_ptr<msg::DiskFaultInjector> disk_injector;
    if (config.fault_plan.disk_fault != 0) {
      disk_injector = std::make_unique<msg::DiskFaultInjector>(config.fault_plan);
      shared.disk_injector = disk_injector.get();
    }

    msg::SocketOptions sopts;
    sopts.role = msg::SocketOptions::Role::kSpoke;
    sopts.address = bundle.connect;
    sopts.local_rank = rank;
    sopts.connect_timeout_ms = config.connect_timeout_ms;
    sopts.on_fatal = [&shared](const std::string& what) {
      if (shared.fabric != nullptr) shared.raise_abort(what);
    };
    std::unique_ptr<msg::Fabric> fabric =
        std::make_unique<msg::SocketFabric>(config.total_ranks(), sopts);
    msg::ChaosFabric* chaos =
        msg::ChaosFabric::wrap(fabric, config.fault_plan);
    if (chaos != nullptr) {
      // A chaos kill in a real process is a real death: SIGKILL, no
      // destructors, no goodbye — the master's watchdog must find out
      // the hard way, exactly as with a crashed MPI rank.
      chaos->set_kill_hook([rank](int dying) {
        if (dying == rank) std::raise(SIGKILL);
      });
    }
    shared.fabric = fabric.get();

    const std::uint64_t kernels_screened_before = kernels_screened_count();
    // The rank stays alive until its report is sent, so the parent does
    // not wait on its teardown.
    std::unique_ptr<Interpreter> worker;
    std::unique_ptr<IoServer> server;
    RankReport report;
    if (shared.is_worker(rank)) {
      worker = std::make_unique<Interpreter>(shared, rank - 1);
      worker->run();
      report = collect(*worker);
    } else {
      server = std::make_unique<IoServer>(shared, rank);
      server->run();
      report = collect(*server);
    }
    report.process = collect_process(*fabric, chaos, disk_injector.get(),
                                     kernels_screened_before);

    std::string first_error;
    {
      std::lock_guard<std::mutex> lock(shared.error_mutex);
      first_error = shared.first_error;
    }
    send_one_shot(connect, rank,
                  first_error.empty() ? encode(report)
                                      : make_abort_message(first_error));
    return first_error.empty() ? 0 : 1;
  } catch (const std::exception& error) {
    SIA_WARN(rank) << "spawn child failed: " << error.what();
    if (!connect.empty()) {
      send_one_shot(connect, rank,
                    make_abort_message("rank " + std::to_string(rank) + ": " +
                                       error.what()));
    }
    return 1;
  }
}

RunResult run_spawned(const SipConfig& config_in,
                      const std::string& scratch_dir,
                      const std::string& source,
                      const sial::ResolvedProgram& resolved,
                      RunResult result) {
  SipConfig config = config_in;
  // Real processes die for real even without injected faults. Keep the
  // heartbeat watchdog on so a lost child becomes a diagnosed abort
  // instead of a hang (thread mode leaves it off in fault-free runs:
  // a thread cannot vanish without taking the process with it).
  if (config.heartbeat_ms == 0 && !config.fault_tolerance_enabled()) {
    config.heartbeat_ms = SipConfig::kAutoHeartbeatMs;
  }
  const int total = config.total_ranks();
  const std::uint64_t kernels_screened_before = kernels_screened_count();

  std::string address = config.socket_address;
  if (address.empty()) {
    const std::string path = scratch_dir + "/hub.sock";
    // sun_path is ~108 bytes; fall back to loopback TCP for deep
    // scratch paths rather than failing the bind.
    address = path.size() < 90 ? "unix:" + path : "tcp:127.0.0.1:0";
  }
  msg::SocketOptions hub_opts;
  hub_opts.role = msg::SocketOptions::Role::kHub;
  hub_opts.address = address;
  hub_opts.connect_timeout_ms = config.connect_timeout_ms;
  auto socket = std::make_unique<msg::SocketFabric>(total, hub_opts);
  msg::SocketFabric* hub = socket.get();
  std::unique_ptr<msg::Fabric> fabric = std::move(socket);
  msg::ChaosFabric* chaos = msg::ChaosFabric::wrap(fabric, config.fault_plan);

  SipShared shared;
  shared.program = &resolved;
  shared.fabric = fabric.get();
  shared.config = config;
  shared.scratch_dir = scratch_dir;
  shared.pool_plan = result.dry_run.pool_plan;
  shared.init_rank_status(total);

  remove_ack_journals(config, scratch_dir);

  const std::string bundle_path = scratch_dir + "/spawn.bundle";
  {
    std::ofstream out(bundle_path, std::ios::binary | std::ios::trunc);
    out << serialize_bundle(config, hub->listen_address(), scratch_dir,
                            source);
    if (!out) throw Error("spawn: cannot write bundle " + bundle_path);
  }
  const std::string helper =
      config.spawn_helper.empty() ? "/proc/self/exe" : config.spawn_helper;

  std::vector<pid_t> child_pids(static_cast<std::size_t>(total), -1);
  for (int r = 1; r < total; ++r) {
    const pid_t pid = spawn_rank(helper, r, bundle_path, 0);
    if (pid < 0) {
      reap_children(child_pids);
      throw Error("spawn: fork failed for rank " + std::to_string(r) + ": " +
                  std::strerror(errno));
    }
    child_pids[static_cast<std::size_t>(r)] = pid;
  }
  if (!hub->wait_for_peers(config.connect_timeout_ms)) {
    std::string missing;
    for (int r = 1; r < total; ++r) {
      if (!hub->peer_connected(r)) {
        missing += (missing.empty() ? "" : ", ") + std::to_string(r);
      }
    }
    fabric->stop();
    reap_children(child_pids);
    throw RuntimeError("spawn: ranks {" + missing + "} never connected to " +
                       hub->listen_address() + " within " +
                       std::to_string(config.connect_timeout_ms) + " ms");
  }

  Master master(shared);
  if (config.fault_tolerance_enabled() && config.server_recovery) {
    shared.respawn_server = [&](int rank) -> bool {
      if (!shared.is_server(rank)) return false;
      // Drop the dead process's stale connection so the respawned one's
      // hello is not shadowed, clear the darkness, and re-exec.
      hub->disconnect(rank);
      fabric->revive(rank);
      pid_t& slot = child_pids[static_cast<std::size_t>(rank)];
      if (slot > 0) {
        int status = 0;
        retry_eintr([&] { return ::waitpid(slot, &status, WNOHANG); });
      }
      const pid_t pid = spawn_rank(helper, rank, bundle_path, 1);
      if (pid < 0) return false;
      slot = pid;
      return true;
    };
  }
  master.run();  // this thread is rank 0

  std::string first_error;
  {
    std::lock_guard<std::mutex> lock(shared.error_mutex);
    first_error = shared.first_error;
  }

  // Success path: children send their kResultReport over one-shot
  // connections after kShutdown; the hub is still accepting (stop()
  // has not run). On abort the reports are moot — the error already
  // arrived as a kAbort through the live fabric.
  std::map<int, msg::Message> reports;
  if (first_error.empty()) {
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(15);
    while (static_cast<int>(reports.size()) < total - 1 &&
           std::chrono::steady_clock::now() < deadline) {
      bool got = false;
      while (auto m = fabric->try_recv_tag(0, msg::kResultReport)) {
        reports[m->src] = std::move(*m);
        got = true;
      }
      while (auto m = fabric->try_recv_tag(0, msg::kAbort)) {
        if (first_error.empty()) first_error = abort_text(*m);
      }
      if (!first_error.empty()) break;
      if (!got) std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  fabric->stop();
  reap_children(child_pids);
  if (!first_error.empty()) throw RuntimeError(first_error);
  if (reports.find(1) == reports.end()) {
    throw RuntimeError(
        "spawn: worker rank 1 exited without reporting results");
  }

  // The hub's own fabric (rank 0 traffic plus socket robustness
  // atomics) is one more process section beside every child's.
  std::vector<RankReport> decoded(1);
  decoded[0].process =
      collect_process(*fabric, chaos, nullptr, kernels_screened_before);
  for (const auto& [rank, report] : reports) {
    decoded.push_back(decode(report, resolved));
  }
  aggregate(decoded, master.stats(), resolved, result);
  return result;
}

}  // namespace sia::sip
