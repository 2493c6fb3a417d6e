#include "msg/chaos.hpp"

#include "common/error.hpp"
#include "common/rng.hpp"
#include "msg/tags.hpp"

namespace sia::msg {

namespace {
// Salts separating the independent fault draws for one message.
constexpr std::uint64_t kSaltDrop = 0x6472u;
constexpr std::uint64_t kSaltDup = 0x6475u;
constexpr std::uint64_t kSaltReorder = 0x726fu;
constexpr std::uint64_t kSaltJitter = 0x6a69u;
// Reorder is realized as a short extra delay so later same-tag messages
// overtake the victim; long enough to reliably lose a race with an
// immediate follow-up send, short enough not to trip retransmit timers.
constexpr int kReorderDelayMs = 2;
}  // namespace

ChaosFabric::ChaosFabric(std::unique_ptr<Fabric> base, const FaultPlan& plan)
    : Fabric(base->ranks()),
      base_(std::move(base)),
      plan_(plan),
      sent_counter_(static_cast<std::size_t>(ranks())),
      kill_counter_(static_cast<std::size_t>(ranks())),
      killed_(static_cast<std::size_t>(ranks())) {
  for (int r = 0; r < ranks(); ++r) {
    sent_counter_[static_cast<std::size_t>(r)].store(0);
    kill_counter_[static_cast<std::size_t>(r)].store(0);
    killed_[static_cast<std::size_t>(r)].store(false);
  }
  delay_thread_ = std::thread([this] { pump_delayed(); });
}

ChaosFabric::ChaosFabric(int ranks, const FaultPlan& plan)
    : ChaosFabric(std::make_unique<Fabric>(ranks), plan) {}

ChaosFabric* ChaosFabric::wrap(std::unique_ptr<Fabric>& fabric,
                               const FaultPlan& plan) {
  if (!plan.active()) return nullptr;
  auto chaos = std::make_unique<ChaosFabric>(std::move(fabric), plan);
  ChaosFabric* raw = chaos.get();
  fabric = std::move(chaos);
  return raw;
}

ChaosFabric::~ChaosFabric() {
  {
    std::lock_guard<std::mutex> lock(delay_mutex_);
    delay_quit_ = true;
  }
  delay_cv_.notify_all();
  if (delay_thread_.joinable()) delay_thread_.join();
}

bool ChaosFabric::protected_tag(int tag) {
  switch (tag) {
    case kBlockGetRequest:
    case kBlockGetReply:
    case kBlockPut:
    case kBlockPutAcc:
    case kServedPrepare:
    case kServedPrepareAcc:
    case kServedRequest:
    case kServedReply:
    case kProtoAck:
      return true;
    default:
      return false;
  }
}

double ChaosFabric::draw(int src, std::uint64_t counter,
                         std::uint64_t salt) const {
  std::uint64_t key = plan_.seed;
  key = hash_combine(key, static_cast<std::uint64_t>(src));
  key = hash_combine(key, counter);
  key = hash_combine(key, salt);
  return unit_double(key);
}

void ChaosFabric::send(int src, int dst, Message message) {
  if (src < 0 || src >= ranks() || dst < 0 || dst >= ranks()) {
    throw InternalError("ChaosFabric::send: rank out of range");
  }

  // Scheduled kill: the rank goes dark at its Nth message — that send and
  // everything after it (data and control alike) is swallowed. The latch
  // makes the kill one-shot: after revive() the counter is past the
  // trigger forever, and a respawned rank must not die again on its first
  // send.
  if (src == plan_.kill_rank &&
      !kill_fired_.load(std::memory_order_acquire)) {
    const std::uint64_t nth =
        kill_counter_[static_cast<std::size_t>(src)].fetch_add(
            1, std::memory_order_relaxed) +
        1;
    if (nth >= static_cast<std::uint64_t>(plan_.kill_at_msg) &&
        !kill_fired_.exchange(true, std::memory_order_acq_rel)) {
      killed_[static_cast<std::size_t>(src)].store(
          true, std::memory_order_release);
      // In a spawned rank the hook turns the simulated death into a real
      // one (raise SIGKILL); it does not return in that case.
      if (kill_hook_) kill_hook_(src);
    }
  }
  if (killed(src) || killed(dst)) {
    kill_swallowed_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  if (!protected_tag(message.tag)) {
    base_->send(src, dst, std::move(message));
    return;
  }

  const std::uint64_t n =
      sent_counter_[static_cast<std::size_t>(src)].fetch_add(
          1, std::memory_order_relaxed);

  if (plan_.drop > 0.0 && draw(src, n, kSaltDrop) < plan_.drop) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    return;
  }

  const bool duplicate =
      plan_.dup > 0.0 && draw(src, n, kSaltDup) < plan_.dup;
  const bool reorder =
      plan_.reorder > 0.0 && draw(src, n, kSaltReorder) < plan_.reorder;

  int delay_ms = plan_.delay_ms;
  if (plan_.delay_jitter_ms > 0) {
    delay_ms += static_cast<int>(draw(src, n, kSaltJitter) *
                                 (plan_.delay_jitter_ms + 1));
  }
  if (reorder) {
    reorders_.fetch_add(1, std::memory_order_relaxed);
    delay_ms += kReorderDelayMs;
  }

  Message copy;
  if (duplicate) copy = message;  // shares the BlockPtr; receivers dedup

  if (delay_ms > 0) {
    delays_.fetch_add(1, std::memory_order_relaxed);
    enqueue_delayed(src, dst, std::move(message), delay_ms);
  } else {
    base_->send(src, dst, std::move(message));
  }
  if (duplicate) {
    dups_.fetch_add(1, std::memory_order_relaxed);
    if (delay_ms > 0) {
      enqueue_delayed(src, dst, std::move(copy), delay_ms);
    } else {
      base_->send(src, dst, std::move(copy));
    }
  }
}

std::optional<Message> ChaosFabric::try_recv(int rank) {
  if (killed(rank)) return std::nullopt;
  return base_->try_recv(rank);
}

std::optional<Message> ChaosFabric::try_recv_tag(int rank, int tag) {
  if (killed(rank)) return std::nullopt;
  return base_->try_recv_tag(rank, tag);
}

bool ChaosFabric::has_message(int rank) const {
  if (killed(rank)) return false;
  return base_->has_message(rank);
}

std::optional<Message> ChaosFabric::recv(int rank) {
  if (killed(rank)) return std::nullopt;
  return base_->recv(rank);
}

std::optional<Message> ChaosFabric::recv_for(int rank, int timeout_ms) {
  if (killed(rank)) {
    // A dead rank's thread must not busy-spin while it waits for the
    // watchdog (or the respawn) to notice; sleep out the timeout.
    std::this_thread::sleep_for(std::chrono::milliseconds(timeout_ms));
    return std::nullopt;
  }
  return base_->recv_for(rank, timeout_ms);
}

void ChaosFabric::barrier(int rank) { base_->barrier(rank); }

void ChaosFabric::deliver(int src, int dst, Message message) {
  base_->deliver(src, dst, std::move(message));
}

TrafficStats ChaosFabric::stats(int rank) const { return base_->stats(rank); }

TrafficStats ChaosFabric::total_stats() const {
  return base_->total_stats();
}

void ChaosFabric::record_screened(int rank, std::int64_t doubles_elided) {
  base_->record_screened(rank, doubles_elided);
}

void ChaosFabric::revive(int rank) {
  killed_[static_cast<std::size_t>(rank)].store(false,
                                                std::memory_order_release);
  base_->revive(rank);
}

void ChaosFabric::stop() {
  // Set this decorator's own stop flag first (killed ranks' recv paths
  // consult it), then stop the transport underneath, then wake the pump.
  Fabric::stop();
  base_->stop();
  delay_cv_.notify_all();
}

void ChaosFabric::enqueue_delayed(int src, int dst, Message message,
                                  int delay_ms) {
  {
    std::lock_guard<std::mutex> lock(delay_mutex_);
    delayed_.push(Delayed{std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(delay_ms),
                          delay_order_++, src, dst, std::move(message)});
  }
  delay_cv_.notify_all();
}

void ChaosFabric::pump_delayed() {
  std::unique_lock<std::mutex> lock(delay_mutex_);
  for (;;) {
    if (delay_quit_) return;
    if (delayed_.empty()) {
      delay_cv_.wait(lock,
                     [&] { return delay_quit_ || !delayed_.empty(); });
      continue;
    }
    const auto due = delayed_.top().due;
    const auto now = std::chrono::steady_clock::now();
    if (now < due) {
      delay_cv_.wait_until(lock, due);
      continue;
    }
    Delayed item = std::move(const_cast<Delayed&>(delayed_.top()));
    delayed_.pop();
    lock.unlock();
    // Re-check darkness and stop at delivery time: the destination may
    // have died (or the run aborted) while the message sat in the heap.
    if (!stopped() && !killed(item.src) && !killed(item.dst)) {
      deliver(item.src, item.dst, std::move(item.msg));
    }
    lock.lock();
  }
}

ChaosStats ChaosFabric::chaos_stats() const {
  ChaosStats stats;
  stats.drops = drops_.load(std::memory_order_relaxed);
  stats.dups = dups_.load(std::memory_order_relaxed);
  stats.delays = delays_.load(std::memory_order_relaxed);
  stats.reorders = reorders_.load(std::memory_order_relaxed);
  stats.kill_swallowed = kill_swallowed_.load(std::memory_order_relaxed);
  return stats;
}

void DiskFaultInjector::check(const std::string& what) {
  if (kind_ == 0) return;
  const long nth = op_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
  if (nth != at_op_) return;
  injected_.fetch_add(1, std::memory_order_relaxed);
  switch (kind_) {
    case 1:
      throw RuntimeError("injected disk fault: EIO during " + what);
    case 2:
      throw RuntimeError("injected disk fault: ENOSPC during " + what);
    case 3:
      throw RuntimeError("injected disk fault: short write during " + what);
    default:
      return;
  }
}

}  // namespace sia::msg
