#include "sip/interpreter.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "blas/elementwise.hpp"
#include "common/log.hpp"
#include "common/timer.hpp"
#include "msg/tags.hpp"
#include "sip/checkpoint.hpp"
#include "sip/prefetch.hpp"
#include "sip/spawn.hpp"

namespace sia::sip {

using sial::ArrayKind;
using sial::BlockOperand;
using sial::BlockSelector;
using sial::Instruction;
using sial::Opcode;

namespace {

// AssignStmt::Op values as compiled into a0.
enum Mode { kModeAssign = 0, kModeAcc = 1, kModeSub = 2, kModeScale = 3 };

// The element origin of a sliced selector, as slice/insert take it.
std::span<const int> origin_of(const BlockSelector& sel) {
  return {sel.slice_origin.data(), static_cast<std::size_t>(sel.rank)};
}

}  // namespace

Interpreter::Interpreter(SipShared& shared, int worker_index)
    : shared_(shared), worker_index_(worker_index),
      my_rank_(shared.worker_rank(worker_index)),
      program_(*shared.program), profiler_(shared.config.profiling) {
  pool_ = std::make_unique<BlockPool>(shared_.pool_plan,
                                      /*allow_heap_fallback=*/true);
  data_ = std::make_unique<DataManager>(program_, *pool_);
  const std::size_t cache_doubles = std::max<std::size_t>(
      shared_.config.worker_memory_bytes / sizeof(double) / 4, 4096);
  dist_ = std::make_unique<DistArrayManager>(shared_, my_rank_, *pool_,
                                             cache_doubles,
                                             shared_.config.coalesce_puts);
  served_ = std::make_unique<ServedArrayClient>(shared_, my_rank_, *pool_,
                                                cache_doubles,
                                                shared_.config.coalesce_puts);
  if (shared_.config.fault_tolerance_enabled()) {
    channel_ = std::make_unique<msg::ReliableChannel>(
        shared_.fabric, my_rank_, shared_.config.retry_timeout_ms,
        shared_.config.retry_max);
    dist_->set_channel(channel_.get());
    served_->set_channel(channel_.get());
  }

  const int worker_threads = shared_.config.effective_worker_threads();
  if (worker_threads > 0) {
    executor_ = std::make_unique<DataflowExecutor>(
        worker_threads,
        static_cast<std::size_t>(shared_.config.window_limit));
  }

  // Resolve super instruction names once.
  const auto& names = program_.code().superinstructions;
  superinstructions_.reserve(names.size());
  for (const std::string& name : names) {
    // Missing ones error on first use.
    superinstructions_.push_back(SuperInstructionRegistry::global().find(name));
  }
}

// ---------------------------------------------------------------------
// Messaging.

void Interpreter::dispatch_admitted(msg::Message& message) {
  switch (message.tag) {
    case msg::kBlockPut:
    case msg::kBlockPutAcc: {
      // Apply, then ack with the applied seq. Home blocks are in-memory
      // state that dies with the run, so unlike a served prepare there is
      // no durability to wait for: applied == safe to ack.
      const int src = message.src;
      const std::uint64_t seq = message.seq;
      dist_->handle_put(message, message.tag == msg::kBlockPutAcc);
      msg::Message ack;
      ack.tag = msg::kProtoAck;
      ack.ack = seq;
      shared_.fabric->send(my_rank_, src, std::move(ack));
      break;
    }
    case msg::kBlockGetRequest:
      dist_->handle_get_request(message);
      break;
    default:
      throw InternalError("sequencer released unexpected tag " +
                          std::to_string(message.tag));
  }
}

void Interpreter::handle_message(msg::Message& message) {
  // Replies double as acks for their tracked request under the reliable
  // protocol; clear the retransmit entry before normal dispatch (even a
  // reply the handler then drops as stale still acknowledges delivery).
  if (channel_ && message.ack != 0 &&
      (message.tag == msg::kBlockGetReply ||
       message.tag == msg::kServedReply)) {
    channel_->on_ack(message.src, message.ack);
  }
  switch (message.tag) {
    case msg::kBlockGetRequest:
      if (channel_ && message.seq != 0) {
        // May depend on an ordered put still in flight (msg.ack).
        msg::PeerSequencer::Admit admitted =
            sequencer_.admit_after(std::move(message));
        for (msg::Message& released : admitted.deliver) {
          dispatch_admitted(released);
        }
      } else {
        dist_->handle_get_request(message);
      }
      break;
    case msg::kBlockGetReply:
      dist_->handle_get_reply(message);
      break;
    case msg::kBlockPut:
    case msg::kBlockPutAcc:
      if (channel_ && message.seq != 0) {
        const int src = message.src;
        const std::uint64_t seq = message.seq;
        msg::PeerSequencer::Admit admitted =
            sequencer_.admit_ordered(std::move(message));
        if (admitted.duplicate) {
          // Retransmit of an applied put whose ack was lost: re-ack so
          // the sender stops retrying (the apply itself must not repeat —
          // accumulate twice is silent corruption).
          msg::Message ack;
          ack.tag = msg::kProtoAck;
          ack.ack = seq;
          shared_.fabric->send(my_rank_, src, std::move(ack));
        }
        for (msg::Message& released : admitted.deliver) {
          dispatch_admitted(released);
        }
      } else {
        dist_->handle_put(message, message.tag == msg::kBlockPutAcc);
      }
      break;
    case msg::kBlockDelete:
      dist_->handle_delete(message);
      break;
    case msg::kServedReply:
      served_->handle_reply(message);
      break;
    case msg::kProtoAck:
      if (channel_) channel_->on_ack(message.src, message.ack);
      break;
    case msg::kHeartbeatPing: {
      msg::Message pong;
      pong.tag = msg::kHeartbeatAck;
      pong.header = {message.header.empty() ? 0 : message.header[0],
                     my_rank_};
      shared_.fabric->send(my_rank_, shared_.master_rank(),
                           std::move(pong));
      break;
    }
    case msg::kChunkReply:
      chunk_replies_[{static_cast<int>(message.header[0]),
                      message.header[1]}] = {message.header[2],
                                             message.header[3]};
      break;
    case msg::kChunkStealRequest: {
      // The master wants the tail of this worker's outstanding chunk for
      // a starved worker. Clamp the proposed split to the current scan
      // position — iterations already started (including ones still in
      // the dataflow window, which are all < pos) are never revoked — and
      // grant [max(split, pos), chunk_end). Runs on the interpreter
      // thread like every handler, so touching the frame is safe.
      const int pardo_id = static_cast<int>(message.header[0]);
      const std::int64_t instance = message.header[1];
      const std::int64_t split = message.header[2];
      std::int64_t grant_begin = 0, grant_end = 0;
      for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
        Frame& frame = *it;
        if (frame.kind != Frame::Kind::kPardo ||
            frame.pardo_id != pardo_id || frame.instance != instance) {
          continue;
        }
        const std::int64_t safe = std::max(split, frame.pos);
        if (safe < frame.chunk_end) {
          grant_begin = safe;
          grant_end = frame.chunk_end;
          frame.chunk_end = safe;
        }
        break;
      }
      msg::Message reply;
      reply.tag = msg::kChunkStealReply;
      reply.header = {pardo_id, instance, grant_begin, grant_end};
      shared_.fabric->send(my_rank_, shared_.master_rank(),
                           std::move(reply));
      break;
    }
    case msg::kBarrierRelease:
      barrier_released_[message.header[0]] = true;
      // Advance the epoch immediately: messages behind this one in the
      // mailbox were sent by workers already past the barrier.
      if (pending_barrier_server_) {
        served_->advance_epoch();
      } else {
        dist_->advance_epoch();
      }
      break;
    case msg::kScalarBcast:
      collective_results_[message.header[0]] = message.data.at(0);
      break;
    case msg::kAbort:
      // Another rank's fatal error, relayed by the master. In spawn mode
      // this message is the only way the news reaches this process.
      shared_.raise_abort(abort_text(message));
      break;  // the next check_abort unwinds via Aborted
    default:
      throw InternalError("worker received unexpected tag " +
                          std::to_string(message.tag));
  }
}

void Interpreter::service_messages() {
  if (channel_) channel_->poll();  // retransmit overdue tracked sends
  while (auto message = shared_.fabric->try_recv(my_rank_)) {
    handle_message(*message);
  }
}

void Interpreter::wait_until(const std::function<bool()>& ready,
                             const char* what, WaitKind kind) {
  service_messages();
  if (ready()) return;
  const double start = wall_seconds();
  // Publish what this rank is blocked on so the master's watchdog can
  // name it in a diagnosed abort if the run wedges.
  shared_.set_rank_status(my_rank_, static_cast<int>(kind));
  while (!ready()) {
    shared_.check_abort();
    if (channel_) channel_->poll();
    auto message = shared_.fabric->recv_for(my_rank_, 10);
    if (message.has_value()) {
      handle_message(*message);
      service_messages();
    }
  }
  shared_.set_rank_status(my_rank_, -1);
  const double waited = wall_seconds() - start;
  profiler_.record_wait(current_pardo_id(), waited, kind);
  SIA_DEBUG(my_rank_) << "waited " << waited * 1e3 << " ms for " << what;
}

void Interpreter::drain_channel() {
  if (!channel_ || channel_->idle()) return;
  const double start = wall_seconds();
  shared_.set_rank_status(my_rank_, static_cast<int>(WaitKind::kBarrier));
  auto last_hint = std::chrono::steady_clock::time_point{};
  while (!channel_->idle()) {
    shared_.check_abort();
    channel_->poll();
    // Unacked ordered sends to an I/O server are prepares whose
    // durability ack only goes out when the block hits disk — which may
    // be never if it just sits in the server's cache. Nudge the server
    // to flush. (Worker-to-worker puts ack on apply; no nudge needed.)
    const auto now = std::chrono::steady_clock::now();
    if (now - last_hint > std::chrono::milliseconds(50)) {
      for (int dst : channel_->unacked_ordered_dsts()) {
        if (shared_.is_server(dst)) {
          msg::Message hint;
          hint.tag = msg::kServerFlushHint;
          shared_.fabric->send(my_rank_, dst, std::move(hint));
        }
      }
      last_hint = now;
    }
    auto message = shared_.fabric->recv_for(my_rank_, 10);
    if (message.has_value()) {
      handle_message(*message);
      service_messages();
    }
  }
  shared_.set_rank_status(my_rank_, -1);
  profiler_.record_wait(current_pardo_id(), wall_seconds() - start,
                        WaitKind::kBarrier);
}

int Interpreter::current_pardo_id() const {
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    if (it->kind == Frame::Kind::kPardo) return it->pardo_id;
  }
  return -1;
}

// ---------------------------------------------------------------------
// Scalar stack.

double Interpreter::pop() {
  SIA_CHECK(!stack_.empty(), "scalar stack underflow");
  const double value = stack_.back();
  stack_.pop_back();
  return value;
}

void Interpreter::push(double value) { stack_.push_back(value); }

// ---------------------------------------------------------------------
// Block access.

BlockSelector Interpreter::resolve(const BlockOperand& operand) const {
  return program_.resolve_operand(operand, data_->index_values());
}

BlockPtr Interpreter::fetch_base_block(const BlockSelector& selector) {
  const ArrayKind kind = program_.array(selector.array_id).kind;
  if (kind != ArrayKind::kDistributed && kind != ArrayKind::kServed) {
    return data_->read_local_kind(selector);
  }
  // The window's pump-time resolution rule, waited on here. Callers hold
  // no window entry, so no un-retired window put targets the block.
  const BlockId id = selector.id();
  const bool served = kind == ArrayKind::kServed;
  const auto resolve_now = [&] {
    return served ? resolve_served_operand(id) : resolve_dist_operand(id);
  };
  BlockPtr block = resolve_now();
  if (block == nullptr) {
    wait_until([&] { return (block = resolve_now()) != nullptr; },
               served ? "served block" : "distributed block",
               served ? WaitKind::kServed : WaitKind::kBlock);
  }
  return block;
}

BlockPtr Interpreter::permuted_for(const BlockPtr& src,
                                   std::span<const int> src_ids,
                                   std::span<const int> dst_ids,
                                   const BlockShape& dst_shape) {
  bool identity = src_ids.size() == dst_ids.size();
  if (identity) {
    for (std::size_t d = 0; d < src_ids.size(); ++d) {
      if (src_ids[d] != dst_ids[d]) {
        identity = false;
        break;
      }
    }
  }
  if (identity) return src;  // callers only read the result
  // Stage the permuted copy in pool memory — this runs per iteration on
  // put/prepare hot loops and must not bypass the paper's preallocated
  // block stacks (§V-B) with ad-hoc heap traffic.
  auto out = std::make_shared<Block>(dst_shape,
                                     pool_->allocate(dst_shape.element_count()));
  block_copy_permute(*out, dst_ids, *src, src_ids, CopyMode::kAssign);
  return out;
}

BlockPtr Interpreter::resolve_dist_operand(const BlockId& id) {
  // One of our own window puts still targets this block: its data is not
  // at the home yet (the send happens at the put's retire). Wait it out —
  // program-order retirement guarantees it lands before this entry needs
  // the operand.
  if (window_put_targets_.count(id) > 0) return nullptr;
  // In flight: the reply is what clears `pending`, so this check is all a
  // waiting caller repeats.
  if (dist_->pending(id)) return nullptr;
  // Home block, cached copy, or (throws) a block that was never put.
  if (BlockPtr block = dist_->try_read(id)) return block;
  dist_->issue_get(id, /*implicit=*/true);
  return nullptr;
}

BlockPtr Interpreter::resolve_served_operand(const BlockId& id) {
  if (window_put_targets_.count(id) > 0) return nullptr;
  if (BlockPtr block = served_->try_read(id)) return block;
  // Unconditional: a no-op while a demand fetch is in flight, but if only
  // a look-ahead is pending this sends the demand request that promotes
  // the server's queued read-ahead job — otherwise the worker would block
  // at low priority behind every other rank's demand reads.
  served_->issue_request(id);
  return nullptr;
}

// ---------------------------------------------------------------------
// Block operations: binders and compute bodies shared by both engines.

BlockSelector Interpreter::bind_read_operand(
    DataflowExecutor::Entry* entry, const std::shared_ptr<void>& owner,
    BlockPtr& slot, const BlockOperand& operand) {
  const BlockSelector selector = resolve(operand);
  if (entry == nullptr) {
    slot = fetch_base_block(selector);
    return selector;
  }
  const BlockId id = selector.id();
  entry->reads.push_back(id);
  // Parks the read until a pump resolves it into `slot`.
  const auto park = [&](std::function<BlockPtr()> resolve_later) {
    entry->pending_operands.push_back(DataflowExecutor::PendingOperand{
        id, std::move(resolve_later),
        [target = std::shared_ptr<BlockPtr>(owner, &slot)](BlockPtr block) {
          *target = std::move(block);
        }});
  };
  switch (program_.array(selector.array_id).kind) {
    case ArrayKind::kStatic:
    case ArrayKind::kTemp:
    case ArrayKind::kLocal:
      // Decode-time binding: the pointer snapshot plus the RAW dep on the
      // last window writer reproduce serial read-after-write semantics.
      slot = data_->read_local_kind(selector);
      return selector;
    case ArrayKind::kDistributed:
      if (window_put_targets_.count(id) == 0) {
        if (shared_.owner_rank(id) == my_rank_) {
          slot = dist_->try_read(id);  // throws if never put
          return selector;
        }
        dist_->issue_get(id, /*implicit=*/true);
        if (BlockPtr block = dist_->try_read(id)) {
          slot = std::move(block);
          return selector;
        }
        // The window stalls on this fetch: pull the prefetcher's
        // prediction for the same operand (one source of truth, see
        // prefetch.hpp) so the following iterations' fetches overlap
        // this entry's wait. issue_get dedups re-requests.
        for (const BlockId& candidate : lookahead_candidates(operand)) {
          dist_->issue_get(candidate, /*implicit=*/true);
        }
      }
      park([this, id] { return resolve_dist_operand(id); });
      return selector;
    case ArrayKind::kServed:
      if (window_put_targets_.count(id) == 0) {
        served_->issue_request(id);
        if (BlockPtr block = served_->try_read(id)) {
          slot = std::move(block);
          return selector;
        }
        // Stalled on the I/O server: queue the shared look-ahead
        // prediction as low-priority read-ahead behind the demand fetch.
        for (const BlockId& candidate : lookahead_candidates(operand)) {
          served_->issue_lookahead(candidate);
        }
      }
      park([this, id] { return resolve_served_operand(id); });
      return selector;
  }
  throw InternalError("bind_read_operand: bad array kind");
}

void Interpreter::bind_block_op(const Instruction& instr, BlockOp& op,
                                DataflowExecutor::Entry* entry,
                                const std::shared_ptr<void>& owner) {
  // block_dot has no destination: both of its blocks are sources.
  const std::size_t first = instr.op == Opcode::kBlockDot ? 0 : 1;
  if (entry == nullptr) batch_issue_gets(instr, first);
  if (first == 1) op.dst_selector = resolve(instr.blocks[0]);
  // Sources bind before the destination so a self-referencing op
  // (tmp = tmp * x) captures the pre-instruction block even when the
  // destination is renamed below.
  for (std::size_t i = first; i < instr.blocks.size(); ++i) {
    op.src_sel[i - first] =
        bind_read_operand(entry, owner, op.src[i - first], instr.blocks[i]);
  }

  bool needs_existing = false;
  switch (instr.op) {
    case Opcode::kBlockDot:
    case Opcode::kPut:
    case Opcode::kPrepare:
      return;  // nothing local is written
    case Opcode::kBlockScalarOp:
    case Opcode::kBlockCopy:
    case Opcode::kBlockScaledCopy:
      needs_existing = instr.a0 != kModeAssign;
      break;
    case Opcode::kBlockBinary:
      needs_existing = instr.a0 == kModeAcc;
      break;
    default:
      throw InternalError("bind_block_op: bad opcode");
  }
  // In the window, a full overwrite of an unsliced temp is
  // register-renamed to fresh storage: without this, the single physical
  // block behind a loop-reused temp (do k { tmp = A*B; put C += tmp })
  // WAW-chains every iteration and the pool runs one contraction at a
  // time. With static dataflow sets (-O1 and above) the compile-time
  // proof decides; otherwise fall back to the dynamic discovery. Both
  // rules agree wherever the static analysis claims renamability.
  const BlockSelector& dst = op.dst_selector;
  const bool renamed =
      entry != nullptr && !dst.sliced &&
      (program_.code().analyzed
           ? instr.renames_dst
           : !needs_existing &&
                 program_.array(dst.array_id).kind == ArrayKind::kTemp);
  if (!dst.sliced) {
    op.dst = needs_existing ? data_->read_local_kind(dst)
             : renamed      ? data_->rename_local(dst)
                            : data_->write_local_kind(dst);
  } else {
    // Insertion: a read-modify-write of the containing block.
    op.container = data_->read_local_kind(dst);
  }
  if (entry == nullptr) return;
  if (renamed) {
    entry->renamed_writes.push_back(dst.id());
  } else {
    entry->writes.push_back(dst.id());
  }
  // A sliced write is a read-modify-write of the container, and an
  // accumulate reads its target: both add a read so the RAW rule chains
  // same-target updates in program order.
  if (needs_existing || dst.sliced) entry->reads.push_back(dst.id());
}

const BlockPtr& Interpreter::source(const BlockOp& op, std::size_t i,
                                    BlockPtr& cut) {
  const BlockSelector& sel = op.src_sel[i];
  if (!sel.sliced) return op.src[i];
  cut = std::make_shared<Block>(
      slice(*op.src[i], origin_of(sel), sel.shape()));
  return cut;
}

void Interpreter::run_block_op(const Instruction& instr, BlockOp& op,
                               double scalar0) {
  // Pure block compute over bound operands, on a pool thread or at
  // issue. Must not touch data_/dist_/served_/profiler (interpreter-thread
  // state); pool_ allocation is thread safe.
  const auto with_dst = [&](bool needs_existing, const auto& compute) {
    const BlockSelector& dst = op.dst_selector;
    if (!dst.sliced) {
      compute(*op.dst);
      return;
    }
    Block scratch = needs_existing
                        ? slice(*op.container, origin_of(dst), dst.shape())
                        : Block(dst.shape());
    compute(scratch);
    insert(*op.container, origin_of(dst), scratch);
  };

  switch (instr.op) {
    case Opcode::kBlockScalarOp:
      switch (instr.a0) {
        case kModeAssign:
          with_dst(false,
                   [&](Block& dst) { blas::fill(dst.data(), scalar0); });
          return;
        case kModeAcc:
          with_dst(true,
                   [&](Block& dst) { blas::shift(dst.data(), scalar0); });
          return;
        case kModeSub:
          with_dst(true,
                   [&](Block& dst) { blas::shift(dst.data(), -scalar0); });
          return;
        case kModeScale:
          with_dst(true,
                   [&](Block& dst) { blas::scal(dst.data(), scalar0); });
          return;
        default:
          throw InternalError("bad block scalar mode");
      }
    case Opcode::kBlockCopy: {
      BlockPtr cut;
      const Block& src = *source(op, 0, cut);
      const CopyMode mode = instr.a0 == kModeAssign ? CopyMode::kAssign
                            : instr.a0 == kModeAcc  ? CopyMode::kAccumulate
                                                    : CopyMode::kSubtract;
      with_dst(mode != CopyMode::kAssign, [&](Block& dst_block) {
        block_copy_permute(dst_block, ids_of(instr.blocks[0]), src,
                           ids_of(instr.blocks[1]), mode,
                           shared_.config.sparse_threshold);
      });
      return;
    }
    case Opcode::kBlockBinary: {
      BlockPtr cut_a, cut_b;
      const Block& a = *source(op, 0, cut_a);
      const Block& b = *source(op, 1, cut_b);
      const bool accumulate = instr.a0 == kModeAcc;
      const auto bin_op = static_cast<sial::BinOp>(instr.a1);
      with_dst(accumulate, [&](Block& dst_block) {
        if (bin_op == sial::BinOp::kMul) {
          block_contract(dst_block, ids_of(instr.blocks[0]), a,
                         ids_of(instr.blocks[1]), b,
                         ids_of(instr.blocks[2]), accumulate,
                         shared_.config.sparse_threshold);
        } else {
          block_add(dst_block, ids_of(instr.blocks[0]), a,
                    ids_of(instr.blocks[1]), b, ids_of(instr.blocks[2]),
                    bin_op == sial::BinOp::kSub, accumulate);
        }
      });
      return;
    }
    case Opcode::kBlockScaledCopy: {
      BlockPtr cut;
      const BlockPtr& src = source(op, 0, cut);
      with_dst(instr.a0 != kModeAssign, [&](Block& dst_block) {
        BlockPtr permuted =
            permuted_for(src, ids_of(instr.blocks[1]),
                         ids_of(instr.blocks[0]), dst_block.shape());
        auto src_span = permuted->data();
        auto dst_span = dst_block.data();
        switch (instr.a0) {
          case kModeAssign:
            for (std::size_t i = 0; i < dst_span.size(); ++i) {
              dst_span[i] = scalar0 * src_span[i];
            }
            return;
          case kModeAcc:
            blas::axpy(scalar0, src_span, dst_span);
            return;
          case kModeSub:
            blas::axpy(-scalar0, src_span, dst_span);
            return;
          default:
            throw InternalError("bad scaled copy mode");
        }
      });
      return;
    }
    default:
      throw InternalError("run_block_op: bad opcode");
  }
}

BlockPtr Interpreter::put_payload(const Instruction& instr,
                                  const BlockOp& op, bool served) {
  BlockPtr cut;
  BlockPtr shaped =
      permuted_for(source(op, 0, cut), ids_of(instr.blocks[1]),
                   ids_of(instr.blocks[0]), op.dst_selector.shape());
  if (shaped->size() != op.dst_selector.shape().element_count()) {
    throw RuntimeError(std::string(served ? "prepare" : "put") +
                       ": block shape mismatch");
  }
  return shaped;
}

void Interpreter::send_put(const BlockId& target, BlockPtr payload,
                           bool accumulate, bool served) {
  // Hand the shared_ptr over: when `payload` is the last reference (the
  // common permuted-copy case) the manager ships it zero-copy.
  if (served) {
    served_->prepare(target, std::move(payload), accumulate);
  } else {
    dist_->put(target, std::move(payload), accumulate);
  }
}

void Interpreter::exec_block_op(const Instruction& instr, double scalar0) {
  if (executor_ == nullptr) {
    BlockOp op;
    bind_block_op(instr, op, /*entry=*/nullptr, /*owner=*/nullptr);
    run_block_op(instr, op, scalar0);
    return;
  }
  DataflowExecutor::Entry entry;
  entry.pc = pc_;
  auto op = std::make_shared<BlockOp>();
  bind_block_op(instr, *op, &entry, op);

  // Decode-time screening: an accumulate-mode contraction whose operands
  // are both bound already (local/cached, no fetch pending) and whose
  // norm product is below the threshold contributes nothing — leave the
  // entry retire-only, so it flows straight through the window without
  // ever occupying a pool thread. Sliced operands screen on the base
  // block's norm, which bounds every slice's norm from above. Operands
  // still in flight fall through to the execute-time screen inside
  // block_contract.
  const double screen = shared_.config.sparse_threshold;
  const bool screened_contract =
      screen > 0.0 && instr.op == Opcode::kBlockBinary &&
      instr.a0 == kModeAcc &&
      static_cast<sial::BinOp>(instr.a1) == sial::BinOp::kMul &&
      entry.pending_operands.empty() && op->src[0] != nullptr &&
      op->src[1] != nullptr &&
      op->src[0]->norm() * op->src[1]->norm() < screen;
  if (screened_contract) {
    note_kernel_screened();
  } else {
    const Instruction* ip = &instr;  // program code is stable for the run
    entry.execute = [this, ip, op, scalar0] {
      run_block_op(*ip, *op, scalar0);
    };
  }
  enqueue_entry(std::move(entry));
}

void Interpreter::exec_put_prepare(const Instruction& instr, bool served) {
  const bool accumulate = instr.a0 == 1;
  if (executor_ == nullptr) {
    BlockOp op;
    bind_block_op(instr, op, /*entry=*/nullptr, /*owner=*/nullptr);
    send_put(op.dst_selector.id(), put_payload(instr, op, served),
             accumulate, served);
    return;
  }
  DataflowExecutor::Entry entry;
  entry.pc = pc_;
  auto op = std::make_shared<BlockOp>();
  bind_block_op(instr, *op, &entry, op);
  const BlockId target = op->dst_selector.id();
  ++window_put_targets_[target];

  const Instruction* ip = &instr;
  // Shape the payload on the pool (the permuted copy is the expensive
  // part of a put); the send itself is a retire-time program-order
  // effect, so the fabric sees the exact serial message sequence and the
  // coalescing shadow table merges in serial order.
  entry.execute = [this, ip, op, served] {
    BlockPtr shaped = put_payload(*ip, *op, served);
    if (shaped.get() == op->src[0].get()) {
      // Identity permute: the payload aliases the source block, which a
      // later window writer may overwrite once its WAR dependency on this
      // entry clears — before our retire-time send. Snapshot it now; the
      // hazard rules make the execute-time contents equal the serial
      // at-pc value, and the exclusive copy ships zero-copy.
      auto copy = std::make_shared<Block>(shaped->shape(),
                                          pool_->allocate(shaped->size()));
      blas::copy(shaped->data(), copy->data());
      shaped = std::move(copy);
    }
    op->put_payload = std::move(shaped);
  };
  entry.retire = [this, op, target, accumulate, served] {
    send_put(target, std::move(op->put_payload), accumulate, served);
    auto it = window_put_targets_.find(target);
    if (it != window_put_targets_.end() && --it->second <= 0) {
      window_put_targets_.erase(it);
    }
  };
  enqueue_entry(std::move(entry));
}

// ---------------------------------------------------------------------
// Dataflow window (worker_threads >= 1).

void Interpreter::enqueue_entry(DataflowExecutor::Entry entry) {
  while (executor_->window_full()) {
    shared_.check_abort();
    service_messages();
    executor_->pump();
    if (executor_->window_full() && !executor_->help()) {
      executor_->wait_progress(2);
    }
  }
  executor_->enqueue(std::move(entry));
  executor_->pump();
  // Help before decoding further: with every pool thread busy, a ready
  // entry would wait for one while the window fills with renamed temps.
  executor_->help(/*only_if_saturated=*/true);
}

void Interpreter::drain_window() {
  if (!executor_) return;
  if (executor_->idle()) {
    executor_->record_drain(/*was_busy=*/false, 0.0);
    return;
  }
  const double start = wall_seconds();
  const double helped0 = executor_->stats().help_seconds;
  while (true) {
    shared_.check_abort();
    executor_->pump();
    if (executor_->idle()) break;
    service_messages();
    executor_->pump();
    if (executor_->idle()) break;
    if (!executor_->help()) executor_->wait_progress(2);
  }
  // Helped entries are the executor's help_seconds, not drain wait.
  executor_->record_drain(/*was_busy=*/true,
                          wall_seconds() - start -
                              (executor_->stats().help_seconds - helped0));
}

// ---------------------------------------------------------------------
// Pardo machinery.

void Interpreter::set_pardo_indices(const Frame& frame, std::int64_t raw) {
  const sial::PardoInfo& pardo =
      program_.code().pardos[static_cast<std::size_t>(frame.pardo_id)];
  std::vector<long> decoded(pardo.index_ids.size());
  program_.pardo_decode(pardo, data_->index_values(), raw, decoded);
  for (std::size_t d = 0; d < pardo.index_ids.size(); ++d) {
    data_->set_index_value(pardo.index_ids[d], decoded[d]);
  }
}

void Interpreter::clear_pardo_indices(const Frame& frame) {
  const sial::PardoInfo& pardo =
      program_.code().pardos[static_cast<std::size_t>(frame.pardo_id)];
  for (const int id : pardo.index_ids) data_->clear_index_value(id);
}

bool Interpreter::pardo_request_chunk(Frame& frame) {
  msg::Message request;
  request.tag = msg::kChunkRequest;
  request.header = {frame.pardo_id, frame.instance,
                    static_cast<std::int64_t>(frame.filtered.size())};
  shared_.fabric->send(my_rank_, shared_.master_rank(), std::move(request));

  const std::pair<int, std::int64_t> key{frame.pardo_id, frame.instance};
  wait_until([&] { return chunk_replies_.count(key) > 0; }, "pardo chunk",
             WaitKind::kChunk);
  const auto [begin, end] = chunk_replies_[key];
  chunk_replies_.erase(key);
  frame.chunk_begin = begin;
  frame.chunk_end = end;
  frame.pos = begin;
  return begin < end;
}

bool Interpreter::pardo_advance(Frame& frame) {
  // Iteration boundary: by default the window must drain first (retires
  // feed the coalescing shadow tables, and clear_temps below frees
  // blocks that in-flight entries may still touch), then write-combined
  // put/prepare accumulates push out before starting the next iteration
  // (or blocking on the master for a chunk).
  //
  // A pardo the optimizer proved window-safe (PardoInfo::window_safe)
  // skips the drain: the flush still has to happen after every earlier
  // put retired, so it rides an in-order retire-only entry instead.
  // clear_temps stays at scan time — in-flight entries keep shared_ptrs
  // to the blocks they touch, and the proof guarantees every temp is
  // fully overwritten (hence renamed to fresh storage) before its next
  // use. Per-worker retire order equals program order, so the flushed
  // message sequence — and with it every accumulation order — is
  // unchanged and results stay bit-identical to the drained path.
  const bool span_window =
      executor_ != nullptr &&
      program_.code()
          .pardos[static_cast<std::size_t>(frame.pardo_id)]
          .window_safe;
  if (span_window) {
    DataflowExecutor::Entry entry;
    entry.pc = pc_;
    entry.retire = [this] {
      dist_->flush_coalesced();
      served_->flush_coalesced();
    };
    enqueue_entry(std::move(entry));
  } else {
    drain_window();
    dist_->flush_coalesced();
    served_->flush_coalesced();
  }
  // Poll the mailbox once per iteration boundary: a compute-bound body
  // may issue no blocking operation for a whole chunk, and the master's
  // steal requests (and peers' get requests) should not wait that long.
  service_messages();
  while (true) {
    if (frame.pos < frame.chunk_end) {
      data_->clear_temps();
      set_pardo_indices(
          frame, frame.filtered[static_cast<std::size_t>(frame.pos)]);
      ++frame.pos;
      profiler_.record_pardo_iteration(frame.pardo_id);
      return true;
    }
    if (!pardo_request_chunk(frame)) {
      if (span_window) {
        // Loop exhausted: the caller is about to tear the frame down
        // (clear_pardo_indices), so everything in flight must land now.
        drain_window();
        dist_->flush_coalesced();
        served_->flush_coalesced();
      }
      return false;
    }
  }
}

void Interpreter::exec_pardo_start(const Instruction& instr) {
  // Sema rejects syntactic nesting; nesting routed through a procedure
  // call is only visible here. It would desynchronize the master's
  // per-instance chunk bookkeeping, so refuse it outright.
  for (const Frame& frame : frames_) {
    if (frame.kind == Frame::Kind::kPardo) {
      throw RuntimeError(
          "pardo loops may not be nested (this one is reached through a "
          "procedure called inside another pardo)");
    }
  }
  Frame frame;
  frame.kind = Frame::Kind::kPardo;
  frame.start_pc = pc_;
  frame.end_pc = instr.a1;
  frame.pardo_id = instr.a0;
  frame.instance = pardo_instance_[instr.a0]++;
  frame.started_at = wall_seconds();
  const sial::PardoInfo& pardo =
      program_.code().pardos[static_cast<std::size_t>(instr.a0)];
  frame.filtered =
      program_.pardo_filtered_space(pardo, data_->index_values());

  frames_.push_back(std::move(frame));
  if (pardo_advance(frames_.back())) {
    ++pc_;
    return;
  }
  profiler_.record_pardo_elapsed(frames_.back().pardo_id,
                                 wall_seconds() - frames_.back().started_at);
  frames_.pop_back();
  pc_ = instr.a1 + 1;  // skip past kPardoEnd
}

void Interpreter::exec_pardo_end(const Instruction& instr) {
  (void)instr;
  SIA_CHECK(!frames_.empty() && frames_.back().kind == Frame::Kind::kPardo,
            "pardo_end without matching frame");
  Frame& frame = frames_.back();
  if (pardo_advance(frame)) {
    pc_ = frame.start_pc + 1;
    return;
  }
  data_->clear_temps();
  clear_pardo_indices(frame);
  profiler_.record_pardo_elapsed(frame.pardo_id,
                                 wall_seconds() - frame.started_at);
  frames_.pop_back();
  ++pc_;
}

void Interpreter::exec_do_start(const Instruction& instr) {
  const sial::ResolvedIndex& index = program_.index(instr.a0);
  long first = 0, last = 0;
  if (instr.a2 >= 0) {
    const long super_value = data_->index_value(instr.a2);
    if (super_value == sial::kUndefinedIndexValue) {
      throw RuntimeError("'do " + index.name +
                         " in ...': super index has no value");
    }
    first = (super_value - 1) * index.subs_per_segment + 1;
    last = std::min<long>(super_value * index.subs_per_segment,
                          index.seg_hi);
  } else {
    first = index.seg_lo;
    last = index.seg_hi;
  }
  if (first > last) {
    pc_ = instr.a1 + 1;
    return;
  }
  Frame frame;
  frame.kind = Frame::Kind::kDo;
  frame.start_pc = pc_;
  frame.end_pc = instr.a1;
  frame.index_id = instr.a0;
  frame.current = first;
  frame.last = last;
  frames_.push_back(frame);
  data_->set_index_value(instr.a0, first);
  ++pc_;
}

void Interpreter::exec_do_end(const Instruction& instr) {
  (void)instr;
  SIA_CHECK(!frames_.empty() && frames_.back().kind == Frame::Kind::kDo,
            "do_end without matching frame");
  Frame& frame = frames_.back();
  if (exiting_loop_) {
    exiting_loop_ = false;
  } else if (frame.current + 1 <= frame.last) {
    ++frame.current;
    data_->set_index_value(frame.index_id, frame.current);
    pc_ = frame.start_pc + 1;
    return;
  }
  data_->clear_index_value(frame.index_id);
  frames_.pop_back();
  ++pc_;
}

// ---------------------------------------------------------------------
// Communication instructions.

std::vector<LoopContext> Interpreter::loop_contexts() const {
  std::vector<LoopContext> loops;
  loops.reserve(frames_.size());
  for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
    LoopContext loop;
    if (it->kind == Frame::Kind::kDo) {
      loop.is_pardo = false;
      loop.index_id = it->index_id;
      loop.current = it->current;
      loop.last = it->last;
    } else {
      loop.is_pardo = true;
      loop.pardo =
          &program_.code().pardos[static_cast<std::size_t>(it->pardo_id)];
      loop.filtered = &it->filtered;
      loop.next_pos = it->pos;
      loop.end_pos = it->chunk_end;
    }
    loops.push_back(loop);
  }
  return loops;
}

std::vector<BlockId> Interpreter::lookahead_candidates(
    const sial::BlockOperand& operand) const {
  if (shared_.config.prefetch_depth <= 0) return {};
  const std::vector<LoopContext> loops = loop_contexts();
  // Blocks one of our own un-retired puts targets must not be requested:
  // the fetch would race the put's retire-time send. Skipping (rather
  // than deferring) a speculative fetch is always safe. With no put in
  // flight there is nothing to filter.
  std::function<bool(const BlockId&)> excluded;
  if (!window_put_targets_.empty()) {
    excluded = [this](const BlockId& id) {
      return window_put_targets_.count(id) > 0;
    };
  }
  return lookahead_read_set(program_, operand, data_->index_values(), loops,
                            shared_.config.prefetch_depth, excluded);
}

void Interpreter::issue_fetch(const BlockId& id, bool served) {
  const auto issue = [this, id, served] {
    if (served) {
      served_->issue_request(id);
    } else {
      dist_->issue_get(id);
    }
  };
  if (window_put_targets_.count(id) == 0) {
    issue();
    return;
  }
  // Read-your-own-write across the window: an un-retired put targets this
  // block, so the fetch must not reach the home (or server) before that
  // put's data. Defer the issue to a retire-only window entry —
  // program-order retirement runs it right after the put's send.
  DataflowExecutor::Entry entry;
  entry.pc = pc_;
  entry.retire = issue;
  enqueue_entry(std::move(entry));
}

void Interpreter::exec_get(const Instruction& instr) {
  issue_fetch(resolve(instr.blocks[0]).id(), /*served=*/false);

  // Look ahead along the enclosing loops (paper §V-A).
  for (const BlockId& candidate : lookahead_candidates(instr.blocks[0])) {
    dist_->issue_get(candidate);
  }
}

void Interpreter::exec_request(const Instruction& instr) {
  issue_fetch(resolve(instr.blocks[0]).id(), /*served=*/true);

  // Served-array look-ahead, mirroring exec_get: speculative requests for
  // the next iterations become low-priority read-ahead jobs at the I/O
  // server, warming its cache (and this worker's) behind demand traffic.
  for (const BlockId& candidate : lookahead_candidates(instr.blocks[0])) {
    served_->issue_lookahead(candidate);
  }
}

void Interpreter::exec_prefetch(const Instruction& instr) {
  // Optimizer-hoisted fetch of a loop-invariant block (src/sial/opt/).
  // Zero-trip guard first, replicating exec_do_start's bounds: if the
  // loop this fetch was hoisted from will not run, the unoptimized
  // program never issued it — the block may legitimately not exist.
  const sial::ResolvedIndex& index = program_.index(instr.a0);
  long first = 0, last = 0;
  if (instr.a1 >= 0) {
    const long super_value = data_->index_value(instr.a1);
    if (super_value == sial::kUndefinedIndexValue) {
      return;  // the kDoStart right behind us reports the error
    }
    first = (super_value - 1) * index.subs_per_segment + 1;
    last = std::min<long>(super_value * index.subs_per_segment,
                          index.seg_hi);
  } else {
    first = index.seg_lo;
    last = index.seg_hi;
  }
  if (first > last) return;

  issue_fetch(resolve(instr.blocks[0]).id(),
              program_.array(instr.blocks[0].array_id).kind ==
                  ArrayKind::kServed);
}

void Interpreter::batch_issue_gets(const Instruction& instr,
                                   std::size_t first_block) {
  if (!shared_.config.batch_gets) return;
  const auto issue = [&](const BlockOperand& operand) {
    const sial::ResolvedArray& array = program_.array(operand.array_id);
    if (array.kind == ArrayKind::kDistributed) {
      dist_->issue_get(resolve(operand).id(), /*implicit=*/true);
    } else if (array.kind == ArrayKind::kServed) {
      served_->issue_request(resolve(operand).id());
    }
  };
  for (std::size_t i = first_block; i < instr.blocks.size(); ++i) {
    issue(instr.blocks[i]);
  }
  for (const sial::ExecOperand& earg : instr.eargs) {
    if (earg.kind == sial::ExecOperand::Kind::kBlock) issue(earg.block);
  }
}

void Interpreter::exec_allocate(const Instruction& instr, bool allocate) {
  const BlockOperand& operand = instr.blocks[0];
  const sial::ResolvedArray& array = program_.array(operand.array_id);
  std::array<int, blas::kMaxRank> lo{}, hi{};
  for (int d = 0; d < operand.rank; ++d) {
    const std::size_t ud = static_cast<std::size_t>(d);
    const int index_id = operand.index_ids[ud];
    if (index_id == sial::kWildcardIndex) {
      lo[ud] = 1;
      hi[ud] = array.num_segments[ud];
      continue;
    }
    const long value = data_->index_value(index_id);
    if (value == sial::kUndefinedIndexValue) {
      throw RuntimeError("allocate: index '" +
                         program_.index(index_id).name + "' has no value");
    }
    const int local = static_cast<int>(value) - array.seg_lo[ud] + 1;
    if (local < 1 || local > array.num_segments[ud]) {
      throw RuntimeError("allocate: index value outside array '" +
                         array.name + "'");
    }
    lo[ud] = hi[ud] = local;
  }
  const std::span<const int> lo_span{lo.data(),
                                     static_cast<std::size_t>(operand.rank)};
  const std::span<const int> hi_span{hi.data(),
                                     static_cast<std::size_t>(operand.rank)};
  if (allocate) {
    data_->allocate_local(operand.array_id, lo_span, hi_span);
  } else {
    data_->deallocate_local(operand.array_id, lo_span, hi_span);
  }
}

const SuperInstruction& Interpreter::superinstruction(
    const Instruction& instr) const {
  const SuperInstruction* si =
      superinstructions_[static_cast<std::size_t>(instr.a0)];
  if (si == nullptr) {
    throw RuntimeError(
        "unknown super instruction '" +
        program_.code()
            .superinstructions[static_cast<std::size_t>(instr.a0)] +
        "' (not registered with the SIP)");
  }
  return *si;
}

void Interpreter::exec_execute(const Instruction& instr) {
  const SuperInstruction& si = superinstruction(instr);
  if (executor_ == nullptr) {
    run_execute(si.fn, *bind_execute(instr, si, /*entry=*/nullptr));
    return;
  }
  // An inline window entry: it waits only for its own hazards and
  // operands, never for the whole window.
  DataflowExecutor::Entry entry;
  entry.pc = pc_;
  entry.run_inline = true;
  std::shared_ptr<ExecCall> call = bind_execute(instr, si, &entry);
  const SuperInstructionFn* fn = &si.fn;
  entry.execute = [this, fn, call] { run_execute(*fn, *call); };
  enqueue_entry(std::move(entry));

  // Service the fabric and help run ready entries while waiting; the
  // pool keeps working on earlier entries.
  while (!executor_->inline_runnable()) {
    shared_.check_abort();
    service_messages();
    executor_->pump();
    if (!executor_->inline_runnable() && !executor_->help()) {
      executor_->wait_progress(2);
    }
  }
  // Scalar arguments and printing take effect here, in program order.
  // A failure is rethrown when the entry retires: drain to surface it
  // behind any earlier entry's error.
  if (!executor_->run_inline()) drain_window();
}

std::shared_ptr<Interpreter::ExecCall> Interpreter::bind_execute(
    const Instruction& instr, const SuperInstruction& si,
    DataflowExecutor::Entry* entry) {
  if (entry == nullptr) batch_issue_gets(instr, 0);
  const std::size_t n = instr.eargs.size();
  auto call = std::make_shared<ExecCall>();
  call->values.resize(n);
  call->remote.resize(n);
  call->containers.resize(n);

  std::vector<BlockId> block_ids;
  for (std::size_t i = 0; i < n; ++i) {
    const sial::ExecOperand& earg = instr.eargs[i];
    ExecArgValue& value = call->values[i];
    value.kind = earg.kind;
    switch (earg.kind) {
      case sial::ExecOperand::Kind::kBlock:
        value.selector = resolve(earg.block);
        block_ids.push_back(value.selector.id());
        break;
      case sial::ExecOperand::Kind::kScalar:
        value.scalar = &data_->scalar_ref(earg.slot);
        break;
      case sial::ExecOperand::Kind::kString:
        value.text =
            program_.code().strings[static_cast<std::size_t>(earg.slot)];
        break;
      case sial::ExecOperand::Kind::kNumber:
        value.number = earg.number;
        break;
    }
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (instr.eargs[i].kind != sial::ExecOperand::Kind::kBlock) continue;
    ExecArgValue& value = call->values[i];
    const BlockSelector& sel = value.selector;
    const BlockId id = sel.id();
    const ArrayKind kind = program_.array(sel.array_id).kind;
    if (kind == ArrayKind::kDistributed || kind == ArrayKind::kServed) {
      // Read-only, whatever the declared access.
      bind_read_operand(entry, call, call->remote[i], instr.eargs[i].block);
      continue;
    }
    if (sel.sliced) {
      // A read-modify-write of the containing block, whatever the access.
      call->containers[i] = data_->read_local_kind(sel);
      if (entry != nullptr) {
        entry->reads.push_back(id);
        entry->writes.push_back(id);
      }
      continue;
    }
    const ArgAccess access = si.access_of(i);
    // A full overwrite of an unsliced temp gets fresh storage in the
    // window, exactly like bind_block_op's destination — unless another
    // argument names the same block and would see the renamed storage.
    if (entry != nullptr && access == ArgAccess::kWrite &&
        kind == ArrayKind::kTemp &&
        std::count(block_ids.begin(), block_ids.end(), id) == 1) {
      value.block = data_->rename_local(sel);
      entry->renamed_writes.push_back(id);
      continue;
    }
    value.block = data_->has_block(id) ? data_->read_local_kind(sel)
                                       : data_->write_local_kind(sel);
    if (entry != nullptr) {
      if (access != ArgAccess::kWrite) entry->reads.push_back(id);
      if (access != ArgAccess::kRead) entry->writes.push_back(id);
    }
  }
  return call;
}

void Interpreter::run_execute(const SuperInstructionFn& fn, ExecCall& call) {
  for (std::size_t i = 0; i < call.values.size(); ++i) {
    ExecArgValue& value = call.values[i];
    const BlockSelector& sel = value.selector;
    if (call.remote[i] != nullptr) {
      // Distributed/served: read-only clone.
      value.block = std::make_shared<Block>(
          sel.sliced ? slice(*call.remote[i], origin_of(sel), sel.shape())
                     : call.remote[i]->clone());
    } else if (call.containers[i] != nullptr) {
      value.block = std::make_shared<Block>(
          slice(*call.containers[i], origin_of(sel), sel.shape()));
    }
  }
  SuperInstructionContext context(program_, call.values, worker_index_,
                                  shared_.num_workers());
  fn(context);
  for (std::size_t i = 0; i < call.values.size(); ++i) {
    if (call.containers[i] != nullptr) {
      insert(*call.containers[i], origin_of(call.values[i].selector),
             *call.values[i].block);
    }
  }
}

void Interpreter::exec_barrier(bool server) {
  // Window entries may still produce puts at retire; every one of them
  // must be out before the coalesced flush and the barrier enter.
  drain_window();
  // All coalesced writes must be at their home/server before this worker
  // enters the barrier: the fabric enqueues synchronously, so flushing
  // here guarantees the puts sit in the destination mailbox ahead of the
  // master's release (which is only sent after every worker entered).
  dist_->flush_coalesced();
  served_->flush_coalesced();
  // Under the reliable protocol the guarantee must be stronger: every
  // tracked send *acked*, not merely enqueued — a dropped put that is
  // retransmitted after the release would land in the wrong epoch.
  drain_channel();
  const std::int64_t seq = ++barrier_seq_;
  pending_barrier_server_ = server;
  msg::Message enter;
  enter.tag = msg::kBarrierEnter;
  enter.header = {seq, server ? 1 : 0};
  shared_.fabric->send(my_rank_, shared_.master_rank(), std::move(enter));
  // The epoch advance happens inside handle_message when the release
  // arrives (see kBarrierRelease).
  wait_until([&] { return barrier_released_.count(seq) > 0; }, "barrier",
             WaitKind::kBarrier);
  barrier_released_.erase(seq);
}

void Interpreter::exec_collective(const Instruction& instr) {
  const std::int64_t seq = ++collective_seq_;
  msg::Message reduce;
  reduce.tag = msg::kScalarReduce;
  reduce.header = {seq, instr.a1};
  reduce.data = {data_->scalar(instr.a1)};
  shared_.fabric->send(my_rank_, shared_.master_rank(), std::move(reduce));
  wait_until([&] { return collective_results_.count(seq) > 0; },
             "collective", WaitKind::kCollective);
  data_->scalar_ref(instr.a0) += collective_results_[seq];
  collective_results_.erase(seq);
}

void Interpreter::exec_checkpoint(const Instruction& instr, bool restore) {
  const int array_id = instr.a0;
  const std::string& key =
      program_.code().strings[static_cast<std::size_t>(instr.a1)];
  const sial::ResolvedArray& array = program_.array(array_id);

  exec_barrier(/*server=*/false);
  if (!restore) {
    checkpoint::write_part(shared_.scratch_dir, key, worker_index_,
                           program_, array_id, dist_->home_blocks());
    if (worker_index_ == 0) {
      checkpoint::Manifest manifest;
      manifest.array_name = array.name;
      manifest.parts = shared_.num_workers();
      manifest.total_blocks = array.total_blocks;
      checkpoint::write_manifest(shared_.scratch_dir, key, manifest);
    }
  } else {
    const checkpoint::Manifest manifest =
        checkpoint::read_manifest(shared_.scratch_dir, key);
    if (manifest.array_name != array.name) {
      throw RuntimeError("restore: checkpoint '" + key + "' holds array '" +
                         manifest.array_name + "', not '" + array.name +
                         "'");
    }
    dist_->delete_array(array_id);
    dist_->create_array(array_id);
    for (int part = 0; part < manifest.parts; ++part) {
      checkpoint::read_part(
          shared_.scratch_dir, key, part,
          [&](std::int64_t linear, const std::vector<double>& payload) {
            const BlockId id = BlockId::from_linear(array_id, linear,
                                                    array.num_segments);
            if (shared_.owner_rank(id) != my_rank_) return;
            const BlockShape shape = program_.grid_block_shape(
                array,
                {id.segments.data(), static_cast<std::size_t>(id.rank)});
            if (shape.element_count() != payload.size()) {
              throw RuntimeError("restore: block size mismatch in '" + key +
                                 "'");
            }
            auto block = std::make_shared<Block>(
                shape, pool_->allocate(shape.element_count()));
            std::copy(payload.begin(), payload.end(),
                      block->data().begin());
            dist_->store_home_block(id, std::move(block));
          });
    }
  }
  exec_barrier(/*server=*/false);
}

// ---------------------------------------------------------------------
// Main loop.

void Interpreter::step() {
  const Instruction& instr =
      program_.code().code[static_cast<std::size_t>(pc_)];
  switch (instr.op) {
    case Opcode::kNop:
      ++pc_;
      return;
    case Opcode::kPardoStart:
      exec_pardo_start(instr);
      return;
    case Opcode::kPardoEnd:
      exec_pardo_end(instr);
      return;
    case Opcode::kDoStart:
      exec_do_start(instr);
      return;
    case Opcode::kDoEnd:
      exec_do_end(instr);
      return;
    case Opcode::kJump:
      pc_ = instr.a0;
      return;
    case Opcode::kJumpIfFalse:
      pc_ = pop() != 0.0 ? pc_ + 1 : instr.a0;
      return;
    case Opcode::kCall:
      call_stack_.push_back(pc_ + 1);
      pc_ = program_.code()
                .procs[static_cast<std::size_t>(instr.a0)]
                .entry_pc;
      return;
    case Opcode::kReturn:
      SIA_CHECK(!call_stack_.empty(), "return without call");
      pc_ = call_stack_.back();
      call_stack_.pop_back();
      return;
    case Opcode::kExitLoop:
      exiting_loop_ = true;
      pc_ = instr.a0;
      return;
    case Opcode::kPushNumber:
      push(instr.f0);
      ++pc_;
      return;
    case Opcode::kPushScalar:
      push(data_->scalar(instr.a0));
      ++pc_;
      return;
    case Opcode::kPushIndex: {
      const long value = data_->index_value(instr.a0);
      if (value == sial::kUndefinedIndexValue) {
        throw RuntimeError("index '" + program_.index(instr.a0).name +
                           "' read without a value");
      }
      push(static_cast<double>(value));
      ++pc_;
      return;
    }
    case Opcode::kPushConst:
      push(program_.constant_value(instr.a0));
      ++pc_;
      return;
    case Opcode::kNeg:
      push(-pop());
      ++pc_;
      return;
    case Opcode::kAdd: {
      const double rhs = pop();
      push(pop() + rhs);
      ++pc_;
      return;
    }
    case Opcode::kSub: {
      const double rhs = pop();
      push(pop() - rhs);
      ++pc_;
      return;
    }
    case Opcode::kMul: {
      const double rhs = pop();
      push(pop() * rhs);
      ++pc_;
      return;
    }
    case Opcode::kDiv: {
      const double rhs = pop();
      if (rhs == 0.0) throw RuntimeError("scalar division by zero");
      push(pop() / rhs);
      ++pc_;
      return;
    }
    case Opcode::kSqrt:
      push(std::sqrt(pop()));
      ++pc_;
      return;
    case Opcode::kAbs:
      push(std::abs(pop()));
      ++pc_;
      return;
    case Opcode::kExpFn:
      push(std::exp(pop()));
      ++pc_;
      return;
    case Opcode::kCompare: {
      const double rhs = pop();
      const double lhs = pop();
      bool result = false;
      switch (static_cast<sial::CmpOp>(instr.a0)) {
        case sial::CmpOp::kLt: result = lhs < rhs; break;
        case sial::CmpOp::kLe: result = lhs <= rhs; break;
        case sial::CmpOp::kGt: result = lhs > rhs; break;
        case sial::CmpOp::kGe: result = lhs >= rhs; break;
        case sial::CmpOp::kEq: result = lhs == rhs; break;
        case sial::CmpOp::kNe: result = lhs != rhs; break;
      }
      push(result ? 1.0 : 0.0);
      ++pc_;
      return;
    }
    case Opcode::kStoreScalar: {
      const double value = pop();
      double& slot = data_->scalar_ref(instr.a0);
      switch (instr.a1) {
        case kModeAssign: slot = value; break;
        case kModeAcc: slot += value; break;
        case kModeSub: slot -= value; break;
        case kModeScale: slot *= value; break;
        default: throw InternalError("bad scalar store mode");
      }
      ++pc_;
      return;
    }
    case Opcode::kBlockDot: {
      // Reduces into the scalar stack, which later scan-time instructions
      // consume: serialize with the window.
      drain_window();
      BlockOp op;
      bind_block_op(instr, op, /*entry=*/nullptr, /*owner=*/nullptr);
      BlockPtr cut_a, cut_b;
      push(block_dot(*source(op, 0, cut_a), ids_of(instr.blocks[0]),
                     *source(op, 1, cut_b), ids_of(instr.blocks[1]),
                     shared_.config.sparse_threshold));
      ++pc_;
      return;
    }
    case Opcode::kPrintTop:
      if (worker_index_ == 0) {
        std::printf("[sial:%s] %.12g\n", program_.code().name.c_str(),
                    stack_.back());
        std::fflush(stdout);
      }
      pop();
      ++pc_;
      return;
    case Opcode::kPrintString:
      if (worker_index_ == 0) {
        std::printf(
            "[sial:%s] %s\n", program_.code().name.c_str(),
            program_.code().strings[static_cast<std::size_t>(instr.a0)]
                .c_str());
        std::fflush(stdout);
      }
      ++pc_;
      return;
    case Opcode::kBlockScalarOp:
    case Opcode::kBlockScaledCopy:
      exec_block_op(instr, pop());
      ++pc_;
      return;
    case Opcode::kBlockCopy:
    case Opcode::kBlockBinary:
      exec_block_op(instr, 0.0);
      ++pc_;
      return;
    case Opcode::kGet:
      exec_get(instr);
      ++pc_;
      return;
    case Opcode::kRequest:
      exec_request(instr);
      ++pc_;
      return;
    case Opcode::kPrefetch:
      exec_prefetch(instr);
      ++pc_;
      return;
    case Opcode::kPut:
      exec_put_prepare(instr, /*served=*/false);
      ++pc_;
      return;
    case Opcode::kPrepare:
      exec_put_prepare(instr, /*served=*/true);
      ++pc_;
      return;
    case Opcode::kAllocate:
      exec_allocate(instr, true);
      ++pc_;
      return;
    case Opcode::kDeallocate:
      // Frees local blocks an in-flight entry may still reference by id.
      drain_window();
      exec_allocate(instr, false);
      ++pc_;
      return;
    case Opcode::kCreate:
      drain_window();
      dist_->create_array(instr.a0);
      ++pc_;
      return;
    case Opcode::kDeleteArr:
      drain_window();
      dist_->delete_array(instr.a0);
      ++pc_;
      return;
    case Opcode::kExecute:
      exec_execute(instr);
      ++pc_;
      return;
    case Opcode::kSipBarrier:
      exec_barrier(false);
      ++pc_;
      return;
    case Opcode::kServerBarrier:
      exec_barrier(true);
      ++pc_;
      return;
    case Opcode::kCollective:
      drain_window();
      exec_collective(instr);
      ++pc_;
      return;
    case Opcode::kCheckpoint:
      exec_checkpoint(instr, false);
      ++pc_;
      return;
    case Opcode::kRestoreArr:
      exec_checkpoint(instr, true);
      ++pc_;
      return;
    case Opcode::kHalt:
      return;  // caller notices
  }
  throw InternalError("unhandled opcode");
}

void Interpreter::execute_program() {
  const double start = wall_seconds();
  const std::uint64_t flops0 = contract_flops_on_this_thread();
  while (true) {
    shared_.check_abort();
    service_messages();
    // Resolve operands that just arrived, issue unblocked entries, retire
    // completed ones — every scan step, so the window turns over even
    // while the interpreter thread is busy decoding.
    if (executor_) executor_->pump();
    const int pc = pc_;
    const Instruction& instr =
        program_.code().code[static_cast<std::size_t>(pc)];
    if (instr.op == Opcode::kHalt) break;
    const double t0 = wall_seconds();
    const double off_line0 = off_line_seconds();
    step();
    // Drain wait and helped entries are reported on their own
    // (ProfileReport::Executor); charge the line only with the rest of
    // its step.
    profiler_.record_instruction(
        pc, wall_seconds() - t0 - (off_line_seconds() - off_line0));
  }
  drain_window();
  profiler_.record_total(wall_seconds() - start);
  contract_flops_ = contract_flops_on_this_thread() - flops0;

  // Nothing may stay write-combined past the end of the program.
  dist_->flush_coalesced();
  served_->flush_coalesced();
  drain_channel();

  // Tell the master this worker is done; keep servicing messages until
  // the fabric stops or all peers finish (other workers may still need
  // blocks homed here).
  msg::Message done;
  done.tag = msg::kBarrierEnter;
  done.header = {0, 2};
  shared_.fabric->send(my_rank_, shared_.master_rank(), std::move(done));
  while (!shared_.fabric->stopped()) {
    auto message = shared_.fabric->recv_for(my_rank_, 20);
    if (!message.has_value()) {
      if (shared_.abort_flag.load(std::memory_order_acquire)) break;
      continue;
    }
    if (message->tag == msg::kShutdown) break;
    handle_message(*message);
  }
}

void Interpreter::run() {
  try {
    execute_program();
  } catch (const Aborted&) {
    // Another rank failed first. Unwind the window without running
    // retires: pending operands may never arrive once peers are gone.
    if (executor_) executor_->cancel();
  } catch (const std::exception& error) {
    if (executor_) executor_->cancel();
    // A deferred error surfaces at retirement, by which time pc_ has
    // scanned ahead; the executor remembers the failing entry's pc.
    int pc = pc_;
    if (executor_ && executor_->last_error_pc() >= 0) {
      pc = executor_->last_error_pc();
    }
    const int line =
        pc >= 0 && pc < static_cast<int>(program_.code().code.size())
            ? program_.code().code[static_cast<std::size_t>(pc)].line
            : 0;
    shared_.raise_abort(std::string(error.what()) +
                        (line > 0 ? " (at SIAL line " + std::to_string(line) +
                                        ")"
                                  : ""));
  }
}

}  // namespace sia::sip