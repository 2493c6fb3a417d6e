// The SIP worker: a bytecode interpreter over the message fabric.
//
// "Each worker loops through the instruction table executing bytecode
// instructions, periodically checking for messages and processing them"
// (paper §V-B). This interpreter services its mailbox between
// instructions and while blocked, which is what makes the fully
// asynchronous protocol deadlock-free: a worker waiting for a block keeps
// answering other workers' get requests.
//
// Waits are instrumented: any time spent blocked on a block, a chunk, a
// barrier release, or a collective is recorded as wait time against the
// enclosing pardo loop (paper §VI-B).
#pragma once

#include <array>
#include <functional>
#include <map>
#include <memory>
#include <unordered_map>
#include <vector>

#include "block/block_pool.hpp"
#include "msg/reliable.hpp"
#include "sip/data_manager.hpp"
#include "sip/executor.hpp"
#include "sip/dist_array.hpp"
#include "sip/prefetch.hpp"
#include "sip/profiler.hpp"
#include "sip/served_array.hpp"
#include "sip/shared.hpp"
#include "sip/superinstr.hpp"

namespace sia::sip {

class Interpreter {
 public:
  // `worker_index` is 0-based; the fabric rank is 1 + worker_index.
  Interpreter(SipShared& shared, int worker_index);

  // Executes the program from pc 0 to kHalt. Exceptions abort the whole
  // launch; the method itself never throws.
  void run();

  // Post-run access for result collection (see rank_report.hpp).
  const DataManager& data() const { return *data_; }
  const DistArrayManager& dist() const { return *dist_; }
  const ServedArrayClient& served() const { return *served_; }
  const BlockPool& pool() const { return *pool_; }
  const Profiler& profiler() const { return profiler_; }
  int worker_index() const { return worker_index_; }
  // Null when worker_threads resolves to 0: every op then runs at issue,
  // through the same binders and compute bodies, with no window entry.
  const DataflowExecutor* executor() const { return executor_.get(); }
  // Flops of the unscreened block contractions this worker ran: its
  // interpreter thread's (serial ops, helped and inline entries) plus its
  // pool threads'.
  std::uint64_t contract_flops() const {
    return contract_flops_ +
           (executor_ ? executor_->pool_contract_flops() : 0);
  }
  // Null when the reliable protocol is off.
  const msg::ReliableChannel* channel() const { return channel_.get(); }
  const msg::PeerSequencer& sequencer() const { return sequencer_; }

 private:
  struct Frame {
    enum class Kind { kDo, kPardo };
    Kind kind = Kind::kDo;
    int start_pc = -1;
    int end_pc = -1;
    // do loops.
    int index_id = -1;
    long current = 0;
    long last = 0;
    // pardo loops.
    int pardo_id = -1;
    std::int64_t instance = 0;
    std::vector<std::int64_t> filtered;  // surviving raw linear positions
    std::int64_t chunk_begin = 0, chunk_end = 0;
    std::int64_t pos = 0;  // next position within [chunk_begin, chunk_end)
    double started_at = 0.0;
  };

  // ------------------------------------------------------------------
  // Execution.
  void execute_program();
  // Executes the instruction at pc_; advances pc_.
  void step();

  void exec_pardo_start(const sial::Instruction& instr);
  void exec_pardo_end(const sial::Instruction& instr);
  void exec_do_start(const sial::Instruction& instr);
  void exec_do_end(const sial::Instruction& instr);
  void exec_get(const sial::Instruction& instr);
  void exec_request(const sial::Instruction& instr);
  // Optimizer-hoisted loop-invariant fetch (kPrefetch): non-blocking
  // get/request with a zero-trip guard on the hoisted loop's bounds.
  void exec_prefetch(const sial::Instruction& instr);
  // Issues the get (or served request) for `id`; deferred to a
  // retire-only window entry while an un-retired window put targets it.
  void issue_fetch(const BlockId& id, bool served);
  // Snapshot of the enclosing do/pardo loops, innermost first, for
  // prefetch_candidates (shared by exec_get and exec_request look-ahead).
  std::vector<LoopContext> loop_contexts() const;
  // Issues the asynchronous fetch for every distributed/served block
  // operand of `instr` starting at `first_block` (plus execute args), so
  // all replies are in flight before the first blocking read (wait-any).
  // Gated by config.batch_gets.
  void batch_issue_gets(const sial::Instruction& instr,
                        std::size_t first_block);
  void exec_allocate(const sial::Instruction& instr, bool allocate);
  // Under the window `execute` is an inline entry: it waits for its own
  // hazards and operands only and runs on this thread (see executor.hpp).
  void exec_execute(const sial::Instruction& instr);
  // Bound arguments of one `execute`, shared by both engines. `remote` holds the base block of a distributed/served argument
  // (cloned at run time), `containers` the containing block of a sliced
  // local argument (cut at run time and inserted back afterwards).
  struct ExecCall {
    std::vector<ExecArgValue> values;
    std::vector<BlockPtr> remote;      // by argument position
    std::vector<BlockPtr> containers;  // by argument position
  };
  // Binds the arguments of `execute`. With `entry` null remote blocks are
  // fetched now (see bind_read_operand). Otherwise each block argument
  // records its hazards in `entry` under the declared access: remote
  // arguments become operands of the entry, sliced ones a
  // read-modify-write of their container, and a declared `write` temp is
  // renamed.
  std::shared_ptr<ExecCall> bind_execute(const sial::Instruction& instr,
                                         const SuperInstruction& si,
                                         DataflowExecutor::Entry* entry);
  // Makes the clones and slices, runs `fn`, and writes sliced arguments
  // back into their containers.
  void run_execute(const SuperInstructionFn& fn, ExecCall& call);
  void exec_barrier(bool server);
  void exec_collective(const sial::Instruction& instr);
  void exec_checkpoint(const sial::Instruction& instr, bool restore);

  // ------------------------------------------------------------------
  // Block operations. Each op has one binder and one compute body, and
  // the two engines differ only in whether a bound op is enqueued or run
  // at once. A binder called with a window entry (worker_threads >= 1)
  // records the op's hazards in it, renames full temp overwrites, and
  // leaves remote blocks that have not arrived as pending operands.
  // Called with no entry (worker_threads = 0, or an op that runs at
  // issue, such as block_dot) it fetches remote blocks now, renames
  // nothing, and snapshots no put payload.
  //
  // Under the window the interpreter thread scans ahead over the
  // straight-line region, binding *in program order* (decode-time
  // renaming makes captures behave like serial snapshots), and hands the
  // heavy block work to the pool. Scalar and control-flow opcodes still
  // execute at scan time — they never enter the window, which is what
  // lets the window span inner do-loop iterations.

  // The bound operands of one block op. Held on the stack when the op
  // runs at issue, shared with the entry's closures otherwise.
  struct BlockOp {
    sial::BlockSelector dst_selector;
    BlockPtr dst;        // unsliced destination binding
    BlockPtr container;  // sliced destination: containing block
    std::array<BlockPtr, 2> src{};        // operand base blocks
    std::array<sial::BlockSelector, 2> src_sel{};
    BlockPtr put_payload;  // window put: produced by execute, sent at retire
  };

  // A block compute op (copy/binary/scaled-copy/scalar-op). `scalar0` is
  // the operand popped at scan time.
  void exec_block_op(const sial::Instruction& instr, double scalar0);
  // put/prepare: under the window the payload is shaped on the pool and
  // sent at retire.
  void exec_put_prepare(const sial::Instruction& instr, bool served);
  // Binds every block of a block op (compute, put/prepare, block_dot)
  // into `op`: the sources, then a compute op's destination. `owner` is
  // the shared state holding `op` (null with no entry).
  void bind_block_op(const sial::Instruction& instr, BlockOp& op,
                     DataflowExecutor::Entry* entry,
                     const std::shared_ptr<void>& owner);
  // Binds a source operand into `slot` and returns its selector. With
  // `entry` null the base block is fetched now (fetch_base_block).
  // Otherwise the read is recorded in `entry`: local-kind blocks resolve
  // immediately; distributed/served blocks either hit the cache or
  // become PendingOperands that deposit into `slot`, kept alive by
  // `owner` (with the fetch issued now unless an un-retired window put
  // targets the same block).
  sial::BlockSelector bind_read_operand(DataflowExecutor::Entry* entry,
                                        const std::shared_ptr<void>& owner,
                                        BlockPtr& slot,
                                        const sial::BlockOperand& operand);
  // Returns the block once available, nullptr while in flight, throws
  // when it can never arrive. Defers while one of our own window puts
  // targets `id`. Pump-time resolution of pending operands, and the rule
  // fetch_base_block waits on.
  BlockPtr resolve_dist_operand(const BlockId& id);
  BlockPtr resolve_served_operand(const BlockId& id);
  // Shared look-ahead prediction (see prefetch.hpp): the candidates for
  // `operand`'s next iterations, minus blocks an un-retired window put
  // targets. Empty when prefetch_depth is 0.
  std::vector<BlockId> lookahead_candidates(
      const sial::BlockOperand& operand) const;
  // Effective source `i` of a bound op: the bound block, or for a sliced
  // operand its slice, cut into `cut`.
  static const BlockPtr& source(const BlockOp& op, std::size_t i,
                                BlockPtr& cut);
  // The compute body of every block compute op, run on a pool thread or
  // at issue.
  void run_block_op(const sial::Instruction& instr, BlockOp& op,
                    double scalar0);
  // The put/prepare payload: source 0 permuted into the target's index
  // order, checked against the target's shape.
  BlockPtr put_payload(const sial::Instruction& instr, const BlockOp& op,
                       bool served);
  void send_put(const BlockId& target, BlockPtr payload, bool accumulate,
                bool served);
  // Enqueues, first making room in the window (pumping retires and
  // servicing the fabric while it is full).
  void enqueue_entry(DataflowExecutor::Entry entry);
  // Blocks until the window is empty: every entry executed and retired.
  // Required before any operation whose semantics assume no entry is in
  // flight (barriers, collectives, pardo-iteration boundaries,
  // allocate/create/delete, block-dot).
  void drain_window();
  // Time the executor's own buckets have taken so far: drain_window
  // blocked, plus helped entries run (0 with no window). Lines are
  // charged only with the rest of their step.
  double off_line_seconds() const {
    return executor_ ? executor_->stats().drain_wait_seconds +
                           executor_->stats().help_seconds
                     : 0.0;
  }

  // Requests the next chunk for the frame; false when the pardo is done.
  bool pardo_request_chunk(Frame& frame);
  // Starts the next iteration in the current chunk (or next chunk);
  // false when no iterations remain.
  bool pardo_advance(Frame& frame);
  void set_pardo_indices(const Frame& frame, std::int64_t raw);
  void clear_pardo_indices(const Frame& frame);

  // ------------------------------------------------------------------
  // Blocks.
  sial::BlockSelector resolve(const sial::BlockOperand& operand) const;
  // The stored block behind a selector; waits for remote blocks,
  // servicing messages meanwhile.
  BlockPtr fetch_base_block(const sial::BlockSelector& selector);
  // Permutes `src` (with src_ids) into the id order of dst_ids; returns
  // `src` itself when the order already matches.
  BlockPtr permuted_for(const BlockPtr& src, std::span<const int> src_ids,
                        std::span<const int> dst_ids,
                        const BlockShape& dst_shape);

  static std::span<const int> ids_of(const sial::BlockOperand& operand) {
    return {operand.index_ids.data(),
            static_cast<std::size_t>(operand.rank)};
  }

  // ------------------------------------------------------------------
  // Messaging and waiting.
  void service_messages();
  // Mutable reference: block payloads are adopted out of the message.
  void handle_message(msg::Message& message);
  // Reliable protocol: route an admitted data-plane message (put or get
  // request released by the sequencer) to its handler, acking puts.
  void dispatch_admitted(msg::Message& message);
  // Blocks until every tracked send is acked. Ordered sends to I/O
  // servers are nudged with flush hints (their durability acks only go
  // out when the dirty block hits disk). Must run before any barrier
  // enter: the barrier protocol assumes all data-plane traffic landed.
  void drain_channel();
  // Services messages until `ready` returns true; accounts wait time
  // against the enclosing pardo, bucketed by what was awaited.
  void wait_until(const std::function<bool()>& ready, const char* what,
                  WaitKind kind);
  int current_pardo_id() const;

  // ------------------------------------------------------------------
  // Scalar stack.
  double pop();
  void push(double value);

  SipShared& shared_;
  int worker_index_;
  int my_rank_;
  const sial::ResolvedProgram& program_;
  Profiler profiler_;
  std::uint64_t contract_flops_ = 0;  // interpreter thread's, set at the end

  std::unique_ptr<BlockPool> pool_;
  std::unique_ptr<DataManager> data_;
  std::unique_ptr<DistArrayManager> dist_;
  std::unique_ptr<ServedArrayClient> served_;
  // Reliable delivery (fault tolerance): tracked sends with retransmit,
  // and exactly-once admission of incoming puts. Null/idle when off.
  std::unique_ptr<msg::ReliableChannel> channel_;
  msg::PeerSequencer sequencer_;

  int pc_ = 0;
  bool exiting_loop_ = false;
  std::vector<double> stack_;
  std::vector<Frame> frames_;
  std::vector<int> call_stack_;  // return pcs

  // Protocol bookkeeping.
  std::map<int, std::int64_t> pardo_instance_;  // per pardo id
  std::int64_t barrier_seq_ = 0;
  std::int64_t collective_seq_ = 0;
  // Kind of the barrier currently awaited; the epoch advance must happen
  // the moment the release message is *handled*, because later messages
  // in the same service batch already belong to the new epoch.
  bool pending_barrier_server_ = false;
  // Replies captured by handle_message, consumed by waiting code.
  std::map<std::pair<int, std::int64_t>, std::pair<std::int64_t, std::int64_t>>
      chunk_replies_;               // (pardo, instance) -> [begin, end)
  std::map<std::int64_t, bool> barrier_released_;
  std::map<std::int64_t, double> collective_results_;

  // Resolved super instructions by table id.
  std::vector<const SuperInstruction*> superinstructions_;
  // The registered super instruction behind an `execute`; throws if the
  // SIP has none by that name.
  const SuperInstruction& superinstruction(const sial::Instruction& instr) const;

  // Un-retired window put/prepare counts per destination block: scan-time
  // gets and operand binds for these ids defer until the put's retire has
  // actually sent (or locally applied) the data, preserving
  // read-your-own-write ordering across the window.
  std::unordered_map<BlockId, int, BlockIdHash> window_put_targets_;
  // Declared last: entries hold closures over the managers above, so the
  // executor (and its pool threads) must die first.
  std::unique_ptr<DataflowExecutor> executor_;
};

}  // namespace sia::sip
