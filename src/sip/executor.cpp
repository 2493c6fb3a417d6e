#include "sip/executor.hpp"

#include <algorithm>

#include "common/error.hpp"
#include "common/timer.hpp"
#include "sip/superinstr.hpp"

namespace sia::sip {

DataflowExecutor::DataflowExecutor(int threads, std::size_t window_limit)
    : window_limit_(std::max<std::size_t>(window_limit, 1)) {
  SIA_CHECK(threads >= 1, "DataflowExecutor needs at least one thread");
  stats_.threads = threads;
  pool_.reserve(static_cast<std::size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool_.emplace_back([this] { worker_loop(); });
  }
}

DataflowExecutor::~DataflowExecutor() {
  cancel();
  {
    std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  pool_cv_.notify_all();
  for (std::thread& thread : pool_) thread.join();
}

void DataflowExecutor::enqueue(Entry entry) {
  std::unique_lock<std::mutex> lock(mutex_);
  SIA_CHECK(window_.size() < window_limit_,
            "instruction window overflow (caller must drain first)");
  SIA_CHECK(!entry.run_inline || inline_ == nullptr,
            "inline entry enqueued while another waits to run");
  auto node_ptr = std::make_unique<Node>();
  Node* node = node_ptr.get();
  node->entry = std::move(entry);
  node->seq = next_seq_++;
  if (node->entry.run_inline) inline_ = node;

  stats_.occupancy_sum += static_cast<std::int64_t>(window_.size());
  ++stats_.occupancy_samples;

  // Dependency scan against the per-block scoreboard. Reads first (RAW on
  // the last writer), then writes (WAW on the last writer, WAR on every
  // reader since) — gathering into a dedup'd set because an accumulate
  // both reads and writes its target.
  std::vector<Node*> deps;
  // Classified edge counters see every live edge (before cross-kind
  // dedup); `deps` itself stays dedup'd for the scheduling bookkeeping.
  const auto live = [&](Node* dep) {
    return dep != nullptr && dep != node && dep->state != State::kDone &&
           dep->state != State::kRetired;
  };
  const auto add_dep = [&](Node* dep) {
    if (!live(dep)) return;
    if (std::find(deps.begin(), deps.end(), dep) == deps.end()) {
      deps.push_back(dep);
    }
  };
  for (const BlockId& id : node->entry.reads) {
    KeyState& ks = keys_[id];
    if (live(ks.last_writer)) ++stats_.raw_deps;
    add_dep(ks.last_writer);
    ks.readers_since_write.push_back(node);
  }
  for (const BlockId& id : node->entry.writes) {
    KeyState& ks = keys_[id];
    if (live(ks.last_writer)) ++stats_.waw_deps;
    add_dep(ks.last_writer);
    for (Node* reader : ks.readers_since_write) {
      if (live(reader)) ++stats_.war_deps;
      add_dep(reader);
    }
    ks.last_writer = node;
    ks.readers_since_write.clear();
  }
  // Renamed writes: fresh storage, so earlier accesses of the id are not
  // hazards; claim the scoreboard so later accesses chain onto this node.
  for (const BlockId& id : node->entry.renamed_writes) {
    KeyState& ks = keys_[id];
    ks.last_writer = node;
    ks.readers_since_write.clear();
  }
  node->unmet_deps = static_cast<int>(deps.size());
  for (Node* dep : deps) dep->dependents.push_back(node);

  if (!node->entry.pending_operands.empty()) {
    node->state = State::kWaitingOperands;
    node->counted_operand_stall = true;
    ++stats_.operand_stalls;
    if (node->unmet_deps > 0) ++stats_.hazard_stalls;
  } else if (node->unmet_deps > 0) {
    node->state = State::kWaitingHazards;
    ++stats_.hazard_stalls;
  } else {
    make_ready_locked(node);
  }
  window_.push_back(std::move(node_ptr));
  stats_.window_peak = std::max(
      stats_.window_peak, static_cast<std::int64_t>(window_.size()));
}

void DataflowExecutor::make_ready_locked(Node* node) {
  if (node->entry.execute == nullptr) {
    // Retire-only entry: nothing to run, it is complete the moment its
    // hazards clear (its side effects wait for in-order retirement).
    node->state = State::kDone;
    on_complete_locked(node);
    return;
  }
  node->state = State::kReady;
  if (node->entry.run_inline) return;  // waits for run_inline
  ready_.push_back(node);
  pool_cv_.notify_one();
}

bool DataflowExecutor::inline_runnable() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return inline_ != nullptr &&
         (inline_->state == State::kReady || inline_->state == State::kDone);
}

bool DataflowExecutor::run_inline() {
  std::unique_lock<std::mutex> lock(mutex_);
  SIA_CHECK(inline_ != nullptr && (inline_->state == State::kReady ||
                                   inline_->state == State::kDone),
            "run_inline without a runnable inline entry");
  Node* node = inline_;
  inline_ = nullptr;
  if (node->state != State::kDone) run_locked(lock, node);
  return node->error == nullptr;
}

bool DataflowExecutor::help(bool only_if_saturated) {
  std::unique_lock<std::mutex> lock(mutex_);
  if (ready_.empty() ||
      (only_if_saturated && pool_running_ < stats_.threads)) {
    return false;
  }
  stats_.help_seconds += run_locked(lock, take_ready_locked());
  ++stats_.tasks_helped;
  return true;
}

DataflowExecutor::Node* DataflowExecutor::take_ready_locked() {
  Node* node = ready_.front();
  ready_.erase(ready_.begin());
  return node;
}

double DataflowExecutor::run_locked(std::unique_lock<std::mutex>& lock,
                                    Node* node) {
  node->state = State::kRunning;
  lock.unlock();
  const double t0 = wall_seconds();
  std::exception_ptr error;
  try {
    node->entry.execute();
  } catch (...) {
    error = std::current_exception();
  }
  const double elapsed = wall_seconds() - t0;
  lock.lock();
  node->error = error;
  node->state = State::kDone;
  on_complete_locked(node);
  return elapsed;
}

void DataflowExecutor::on_complete_locked(Node* node) {
  for (Node* dependent : node->dependents) {
    if (--dependent->unmet_deps == 0 &&
        dependent->state == State::kWaitingHazards) {
      make_ready_locked(dependent);
    }
  }
  node->dependents.clear();
  progress_event_ = true;
  progress_cv_.notify_all();
}

void DataflowExecutor::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    pool_cv_.wait(lock, [&] { return shutdown_ || !ready_.empty(); });
    if (shutdown_) return;
    ++pool_running_;
    const std::uint64_t flops0 = contract_flops_on_this_thread();
    stats_.thread_busy_seconds += run_locked(lock, take_ready_locked());
    pool_contract_flops_ += contract_flops_on_this_thread() - flops0;
    ++stats_.tasks_executed;
    --pool_running_;
  }
}

void DataflowExecutor::resolve_operands_locked(
    std::unique_lock<std::mutex>& lock) {
  // Interpreter thread only. The resolve callbacks poke the (non-thread-
  // safe) communication managers, which is fine: pool threads never touch
  // them, and the deposit-then-state-change under the lock publishes the
  // block to whichever pool thread later runs the entry.
  (void)lock;
  for (const auto& node_ptr : window_) {
    Node* node = node_ptr.get();
    if (node->state != State::kWaitingOperands) continue;
    auto& pending = node->entry.pending_operands;
    for (std::size_t i = 0; i < pending.size();) {
      BlockPtr block;
      try {
        block = pending[i].resolve();
      } catch (...) {
        // Operand will never arrive (e.g. "never been put"): fail the
        // entry; the error surfaces at its in-order retirement.
        node->error = std::current_exception();
        node->state = State::kDone;
        pending.clear();
        on_complete_locked(node);
        break;
      }
      if (block == nullptr) {
        ++i;
        continue;
      }
      pending[i].deposit(std::move(block));
      pending.erase(pending.begin() + static_cast<std::ptrdiff_t>(i));
    }
    if (node->state == State::kWaitingOperands && pending.empty()) {
      if (node->unmet_deps > 0) {
        node->state = State::kWaitingHazards;
      } else {
        make_ready_locked(node);
      }
    }
  }
}

void DataflowExecutor::pump() {
  std::unique_lock<std::mutex> lock(mutex_);
  resolve_operands_locked(lock);

  // An inline entry retires only after run_inline handed it over.
  while (!window_.empty() && window_.front()->state == State::kDone &&
         window_.front().get() != inline_) {
    std::unique_ptr<Node> node = std::move(window_.front());
    window_.pop_front();
    // Scrub the scoreboard: later entries must not chase a dangling
    // pointer once this node is gone (their deps on it were already
    // released at completion).
    const auto scrub_write = [&](const BlockId& id) {
      auto it = keys_.find(id);
      if (it != keys_.end() && it->second.last_writer == node.get()) {
        it->second.last_writer = nullptr;
      }
    };
    for (const BlockId& id : node->entry.writes) scrub_write(id);
    for (const BlockId& id : node->entry.renamed_writes) scrub_write(id);
    for (const BlockId& id : node->entry.reads) {
      auto it = keys_.find(id);
      if (it == keys_.end()) continue;
      auto& readers = it->second.readers_since_write;
      readers.erase(std::remove(readers.begin(), readers.end(), node.get()),
                    readers.end());
      if (readers.empty() && it->second.last_writer == nullptr) {
        keys_.erase(it);
      }
    }
    ++stats_.entries_retired;
    node->state = State::kRetired;
    lock.unlock();
    if (node->error != nullptr) {
      last_error_pc_ = node->entry.pc;
      std::rethrow_exception(node->error);
    }
    if (node->entry.retire != nullptr) {
      last_error_pc_ = node->entry.pc;
      node->entry.retire();
      last_error_pc_ = -1;
    }
    lock.lock();
  }
}

void DataflowExecutor::wait_progress(int timeout_ms) {
  std::unique_lock<std::mutex> lock(mutex_);
  progress_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                        [&] { return progress_event_ || shutdown_; });
  progress_event_ = false;
}

void DataflowExecutor::record_drain(bool was_busy, double wait_seconds) {
  std::lock_guard<std::mutex> lock(mutex_);
  ++stats_.drains_issued;
  if (!was_busy) return;
  ++stats_.drains;
  stats_.drain_wait_seconds += wait_seconds;
}

void DataflowExecutor::cancel() {
  std::unique_lock<std::mutex> lock(mutex_);
  cancelled_ = true;
  inline_ = nullptr;
  // Abandon everything that has not reached the pool yet, then wait out
  // the tasks already running (pure block compute, so they finish on
  // their own — no fabric dependence).
  ready_.clear();
  for (const auto& node_ptr : window_) {
    Node* node = node_ptr.get();
    if (node->state == State::kWaitingOperands ||
        node->state == State::kWaitingHazards ||
        node->state == State::kReady) {
      node->state = State::kDone;
      node->dependents.clear();
    }
  }
  progress_cv_.wait(lock, [&] {
    for (const auto& node_ptr : window_) {
      if (node_ptr->state == State::kRunning) return false;
    }
    return true;
  });
  window_.clear();
  keys_.clear();
}

}  // namespace sia::sip
