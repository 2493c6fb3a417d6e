// Intra-worker dataflow executor: the instruction window.
//
// The paper's workers are coarse-grained interpreters whose every step is
// a super instruction — exactly the granularity at which intra-node
// parallelism is cheap to schedule (the SIA itself later grew
// multithreaded workers, Lotrich et al. arXiv:2003.01688). This module
// gives each worker a compute thread pool plus an *instruction window*:
// the interpreter thread decodes super instructions into window entries
// carrying their block-level read/write sets, and any entry whose
// RAW/WAR/WAW hazards are clear is issued to the pool out of program
// order. The interpreter thread keeps draining the fabric meanwhile, so
// compute overlaps the async get/put engine: an entry blocked on a remote
// operand parks in the window and is woken when the reply arrives instead
// of stalling the whole worker.
//
// An entry flagged `run_inline` is a super instruction (`execute`): it
// goes through the same scoreboard, so it waits only on the entries whose
// blocks it touches and later readers RAW-chain onto it, but the pool
// never takes it. The interpreter thread pumps until its hazards and
// operands clear (inline_runnable), runs it itself (run_inline), and
// then decodes on while the pool keeps working on earlier entries.
//
// The interpreter thread also computes (help): it runs one ready pool
// entry itself before decoding further whenever every pool thread is
// busy, and before every sleep in its wait loops (window full, drain,
// inline wait). A decoder that only fed the pool would either leave
// ready entries queued behind a saturated pool or run the window full of
// renamed temps; helping keeps the window short and the interpreter on
// the critical path's work. A helped entry runs through the same
// run/complete path as a pool task and retires in program order like any
// other; its time is the executor's help_seconds, not the line's.
//
// Retirement is strictly in program order on the interpreter thread.
// Communication side effects (put/prepare sends, deferred gets) happen at
// retire, so the fabric sees the exact message sequence of the serial
// interpreter; and because two writers of the same block are themselves
// ordered by the hazard rules (an accumulate reads its target, so +=
// chains serialize in program order), array contents and checksums stay
// bit-identical to the serial path — the invariant every benchmark
// baseline relies on.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "block/block.hpp"
#include "block/block_id.hpp"
#include "sip/profiler.hpp"

namespace sia::sip {

class DataflowExecutor {
 public:
  // A not-yet-resolved operand of a window entry: a remote block that had
  // not arrived at decode time. The interpreter thread re-runs `resolve`
  // on every pump until it returns a block (communication managers are
  // not thread safe, so resolution never happens on the pool).
  struct PendingOperand {
    BlockId id;
    // Returns the block once available (issuing/refreshing the fetch as a
    // side effect), or nullptr while still in flight. May throw — e.g. a
    // get that the home answered with "no such block" — and the error is
    // attributed to the owning entry.
    std::function<BlockPtr()> resolve;
    // Where to deposit the resolved block (a slot inside the entry's
    // closure state, written on the interpreter thread before the entry
    // becomes ready; the state transition publishes it to the pool).
    std::function<void(BlockPtr)> deposit;
  };

  struct Entry {
    // Block-level hazard sets. Keys are base (container) BlockIds; sliced
    // accesses are tracked conservatively through their containing block.
    std::vector<BlockId> reads;
    std::vector<BlockId> writes;
    // Writes backed by freshly allocated storage (decode-time register
    // renaming of full temp overwrites): earlier in-flight accesses hold
    // pointers to the superseded physical block, so these take no
    // WAW/WAR dependencies — but they still claim the scoreboard's
    // last-writer slot so later readers RAW-chain onto this entry. An id
    // must not appear in both `writes` and `renamed_writes`.
    std::vector<BlockId> renamed_writes;
    // Heavy work, run on a pool thread (or by run_inline) once hazards
    // are clear and all pending operands resolved. May be null
    // (retire-only entries, e.g. a deferred get issue).
    std::function<void()> execute;
    // Program-order side effects, run on the interpreter thread at
    // retirement (put/prepare sends, deferred gets). May be null.
    std::function<void()> retire;
    std::vector<PendingOperand> pending_operands;
    // Bytecode position, for error attribution.
    int pc = -1;
    // Run `execute` on the enqueuing (interpreter) thread instead of the
    // pool; see inline_runnable/run_inline. At most one such entry may be
    // waiting to run at a time.
    bool run_inline = false;
  };

  // The window's counters are the profile's executor section; `threads`
  // is this pool's size.
  using Stats = ProfileReport::Executor;

  // `threads` >= 1. `window_limit` bounds the number of in-flight entries
  // (the scan-ahead distance).
  DataflowExecutor(int threads, std::size_t window_limit);
  ~DataflowExecutor();
  DataflowExecutor(const DataflowExecutor&) = delete;
  DataflowExecutor& operator=(const DataflowExecutor&) = delete;

  // ------------------------------------------------------------------
  // Interpreter-thread interface.

  // Adds an entry at the window tail. The caller must have made room
  // first (window_full() false — see pump/wait_progress).
  void enqueue(Entry entry);

  // Makes progress without blocking: resolves pending operands, issues
  // newly ready entries to the pool, and retires completed entries from
  // the window head in program order (running their retire actions).
  // Rethrows, in program order, any error a pool thread captured.
  void pump();

  // Blocks up to `timeout_ms` for a completion event (or returns at once
  // if one arrived since the last pump). The caller loops
  // { pump(); service_messages(); wait_progress(...); } so fabric service
  // continues while compute is in flight.
  void wait_progress(int timeout_ms);

  // True once the waiting inline entry may run: its hazards cleared and
  // its operands resolved, or it already failed (resolution error).
  bool inline_runnable() const;

  // Runs one ready, non-inline entry (the oldest) on the calling thread
  // and completes it; it retires at a later pump, in program order, and
  // an error it throws is rethrown there with its own pc. Never takes the
  // inline entry or an entry still waiting on hazards or operands. With
  // `only_if_saturated` it runs one only while every pool thread is busy:
  // an idle pool thread would take the entry anyway. Returns whether an
  // entry ran.
  bool help(bool only_if_saturated = false);

  // Runs the waiting inline entry's execute on the calling thread and
  // completes it; it retires in program order like any other entry.
  // Returns false if the entry failed — its error is rethrown when it
  // retires, so the caller drains to surface it in program order.
  bool run_inline();

  bool window_full() const { return window_.size() >= window_limit_; }
  bool idle() const { return window_.empty(); }
  std::size_t window_size() const { return window_.size(); }

  // Drops every entry that has not started executing and waits for the
  // running ones; retire actions are NOT run. Used on abort paths so the
  // worker can unwind without waiting for operands that will never
  // arrive. Safe to call repeatedly.
  void cancel();

  // Accounting for interpreter-side drains at a boundary: bumps
  // Stats::drains_issued, and when the window was busy (the interpreter
  // waited it empty) drains / drain_wait_seconds too.
  void record_drain(bool was_busy, double wait_seconds);

  // Bytecode position of the entry whose error pump() is currently
  // rethrowing (or whose retire action is running); -1 otherwise. Lets
  // the interpreter attribute deferred errors to the right SIAL line.
  int last_error_pc() const { return last_error_pc_; }

  const Stats& stats() const { return stats_; }

  // Contraction flops the pool threads ran (contract_flops_on_this_thread
  // deltas around each pool task). Helped and inline entries run on the
  // interpreter thread, which counts its own.
  std::uint64_t pool_contract_flops() const {
    std::lock_guard<std::mutex> lock(mutex_);
    return pool_contract_flops_;
  }

 private:
  enum class State {
    kWaitingOperands,  // pending operands unresolved
    kWaitingHazards,   // operands ready, earlier conflicting entries live
    kReady,            // queued for the pool (inline: for run_inline)
    kRunning,
    kDone,             // execute finished (or failed: error_ set)
    kRetired,
  };

  struct Node {
    Entry entry;
    std::uint64_t seq = 0;
    State state = State::kWaitingOperands;
    int unmet_deps = 0;              // earlier entries this one waits on
    std::vector<Node*> dependents;   // entries waiting on this one
    std::exception_ptr error;
    bool counted_operand_stall = false;
  };

  // Per-hazard-key scoreboard: the last enqueued writer and the readers
  // that arrived after it (what a later writer must wait out).
  struct KeyState {
    Node* last_writer = nullptr;
    std::vector<Node*> readers_since_write;
  };

  void worker_loop();
  // Lock held. Runs the node's execute with the lock released, captures
  // its error and completes it: the one run path of pool tasks, helped
  // entries and the inline entry. Returns the seconds execute took.
  double run_locked(std::unique_lock<std::mutex>& lock, Node* node);
  // Lock held. Pops the oldest entry of the issue queue.
  Node* take_ready_locked();
  // Lock held. Moves a node whose deps and operands cleared into the
  // ready queue (or straight to Done for retire-only entries).
  void make_ready_locked(Node* node);
  void on_complete_locked(Node* node);
  void resolve_operands_locked(std::unique_lock<std::mutex>& lock);

  const std::size_t window_limit_;
  mutable std::mutex mutex_;
  std::condition_variable pool_cv_;      // wakes pool threads
  std::condition_variable progress_cv_;  // wakes the interpreter thread
  std::deque<std::unique_ptr<Node>> window_;  // program order, head retires
  std::vector<Node*> ready_;                  // issue queue for the pool
  Node* inline_ = nullptr;  // the inline entry waiting for run_inline
  std::unordered_map<BlockId, KeyState, BlockIdHash> keys_;
  std::uint64_t next_seq_ = 1;
  int pool_running_ = 0;  // pool threads inside an execute
  int last_error_pc_ = -1;
  bool progress_event_ = false;
  bool shutdown_ = false;
  bool cancelled_ = false;
  std::vector<std::thread> pool_;
  Stats stats_;
  std::uint64_t pool_contract_flops_ = 0;
};

}  // namespace sia::sip
