// Super instructions.
//
// Computational super instructions "simply take blocks as input and
// generate new blocks as output and do not involve communication" (paper
// §I). This module has three parts:
//   1. the intrinsic block kernels behind SIAL's built-in operators —
//      block contraction (permute + DGEMM, §III footnote 3), permuted
//      copy/accumulate, element-wise add/sub, full-contraction dot;
//   2. the registry for user-defined super instructions invoked with
//      `execute` ("non-intrinsic super instructions can be added to the
//      SIP without changing the SIAL language", §IV-C);
//   3. a set of generally useful built-ins (fills, norms, prints).
//
// Kernel operands carry their index-variable ids per dimension; dimension
// identity IS index-variable identity, which is how the contraction
// planner knows what to contract.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "block/block.hpp"
#include "sial/program.hpp"

namespace sia::sip {

// ---------------------------------------------------------------------
// Intrinsic kernels.

enum class CopyMode { kAssign = 0, kAccumulate = 1, kSubtract = 2 };

// dst(dst_ids) = / += contraction of a(a_ids) with b(b_ids) over the index
// ids common to a and b. dst_ids must be exactly the non-common ids (any
// order). An empty common set is an outer product.
//
// With screen_threshold > 0 the GEMM is skipped outright when
// ||A||_F * ||B||_F < threshold (submultiplicativity bounds the dropped
// contribution's Frobenius norm by that product): accumulate mode is a
// no-op, assign mode zero-fills dst. The cached block norms make the test
// O(1) per call.
void block_contract(Block& dst, std::span<const int> dst_ids, const Block& a,
                    std::span<const int> a_ids, const Block& b,
                    std::span<const int> b_ids, bool accumulate,
                    double screen_threshold = 0.0);

// Full contraction of two blocks over identical id sets -> scalar.
// With screen_threshold > 0, returns 0 without touching the data when
// ||a|| * ||b|| < threshold (Cauchy–Schwarz bounds the dropped value).
double block_dot(const Block& a, std::span<const int> a_ids, const Block& b,
                 std::span<const int> b_ids, double screen_threshold = 0.0);

// Test hook: number of full-block permute copies of A/B operands that
// block_contract has materialized since process start. The gather-packing
// contraction engine folds operand transposes into GEMM packing, so this
// stays zero; tests assert on it to catch regressions.
std::uint64_t contract_operand_permute_count();

// Flops (2*m*n*k) of the unscreened block_contract calls the calling
// thread has run. Thread-local, so counting costs a contraction no shared
// cache line; each worker sums its own threads (see
// Interpreter::contract_flops).
std::uint64_t contract_flops_on_this_thread();

// Number of block kernels (contractions, dots, permuted accumulates)
// skipped by norm screening since process start.
std::uint64_t kernels_screened_count();
// Bumps that counter for a kernel elided before it ever reached a pool
// thread (decode-time screening in the executor window).
void note_kernel_screened();

// dst(dst_ids) op= src(src_ids) with permutation derived from the ids.
// With screen_threshold > 0, accumulate/subtract of a source block with
// ||src|| < threshold is skipped (assign still copies: dst must be
// defined afterwards).
void block_copy_permute(Block& dst, std::span<const int> dst_ids,
                        const Block& src, std::span<const int> src_ids,
                        CopyMode mode, double screen_threshold = 0.0);

// dst(dst_ids) =/+= a(a_ids) +/- b(b_ids), all over the same id set.
void block_add(Block& dst, std::span<const int> dst_ids, const Block& a,
               std::span<const int> a_ids, const Block& b,
               std::span<const int> b_ids, bool subtract, bool accumulate);

// ---------------------------------------------------------------------
// User-defined super instructions.

// One prepared argument of an `execute` call.
struct ExecArgValue {
  sial::ExecOperand::Kind kind = sial::ExecOperand::Kind::kNumber;
  // kBlock: the working block (writable) and its selector. If the operand
  // was sliced the block is a scratch copy that the interpreter writes
  // back afterwards.
  BlockPtr block;
  sial::BlockSelector selector;
  double* scalar = nullptr;  // kScalar: points at the worker's slot
  std::string text;          // kString
  double number = 0.0;       // kNumber
};

class SuperInstructionContext {
 public:
  SuperInstructionContext(const sial::ResolvedProgram& program,
                          std::vector<ExecArgValue>& args, int worker_index,
                          int num_workers)
      : program_(program), args_(args), worker_index_(worker_index),
        num_workers_(num_workers) {}

  int num_args() const { return static_cast<int>(args_.size()); }
  sial::ExecOperand::Kind arg_kind(int i) const { return arg(i).kind; }

  Block& block_arg(int i);
  const sial::BlockSelector& selector(int i) const;
  double& scalar_arg(int i);
  const std::string& string_arg(int i) const;
  double number_arg(int i) const;

  // Absolute (1-based) element coordinate of the first element of block
  // argument `i` along dimension `d`; with the extents this lets a super
  // instruction compute globally consistent values (the on-demand
  // integral generators rely on it).
  long first_element(int i, int d) const;

  const sial::ResolvedProgram& program() const { return program_; }
  int worker_index() const { return worker_index_; }
  int num_workers() const { return num_workers_; }

 private:
  const ExecArgValue& arg(int i) const;
  ExecArgValue& arg(int i);

  const sial::ResolvedProgram& program_;
  std::vector<ExecArgValue>& args_;
  int worker_index_;
  int num_workers_;
};

// Visits each element of block argument `arg` together with its absolute
// 1-based coordinates, in storage order.
template <typename Fn>
void for_each_element(SuperInstructionContext& ctx, int arg, Fn&& fn) {
  Block& block = ctx.block_arg(arg);
  const sial::BlockSelector& sel = ctx.selector(arg);
  const int rank = sel.rank;
  std::array<int, blas::kMaxRank> counter{};
  std::array<long, blas::kMaxRank> coords{};
  auto data = block.data();
  for (std::size_t n = 0; n < data.size(); ++n) {
    for (int d = 0; d < rank; ++d) {
      coords[static_cast<std::size_t>(d)] =
          sel.first_element[static_cast<std::size_t>(d)] +
          counter[static_cast<std::size_t>(d)];
    }
    fn(data[n], std::span<const long>(coords.data(),
                                      static_cast<std::size_t>(rank)));
    for (int d = rank - 1; d >= 0; --d) {
      const std::size_t ud = static_cast<std::size_t>(d);
      if (++counter[ud] < sel.extents[ud]) break;
      counter[ud] = 0;
    }
  }
}

using SuperInstructionFn = std::function<void(SuperInstructionContext&)>;

// How a super instruction uses one of its arguments. Only block arguments
// matter to the runtime: the threaded engine turns them into the hazard
// sets of the `execute`'s window entry.
//   kRead       contents are read, never modified
//   kWrite      a full overwrite that never reads the old contents; an
//               unsliced temp argument is renamed to fresh storage
//   kReadWrite  read and modified in place (the conservative default)
enum class ArgAccess { kRead, kWrite, kReadWrite };

struct SuperInstruction {
  SuperInstructionFn fn;
  // Declared access by argument position. Positions past the end — every
  // position of an instruction registered without a list — are
  // kReadWrite.
  std::vector<ArgAccess> access;

  ArgAccess access_of(std::size_t arg) const {
    return arg < access.size() ? access[arg] : ArgAccess::kReadWrite;
  }
};

class SuperInstructionRegistry {
 public:
  // Process-global registry (workers share it read-mostly).
  static SuperInstructionRegistry& global();

  // Registers or replaces a super instruction, optionally declaring how
  // it accesses each argument (see ArgAccess).
  void register_instruction(const std::string& name, SuperInstructionFn fn,
                            std::vector<ArgAccess> access = {});
  // nullptr if unknown.
  const SuperInstruction* find(const std::string& name) const;
  std::vector<std::string> names() const;

 private:
  mutable std::mutex mutex_;
  std::map<std::string, SuperInstruction> table_;
};

// Registers the built-in execute-able super instructions (the block
// argument is declared `write` for the fills and `read` for the rest):
//   fill_value <block> <number>         every element := number
//   fill_coords <block>                 element := base-100 coordinate code
//   random_block <block> <number seed>  deterministic pseudo-random fill
//   fill_decay <block> <rate> <seed>    random fill damped by
//                                       exp(-rate*|c0 - c_mid|): banded
//                                       block-norm decay for sparsity
//   block_nrm2 <block> <scalar>         scalar := ||block||_2
//   block_asum <block> <scalar>         scalar := sum |elements|
//   block_max_abs <block> <scalar>      scalar := max |element|
//   print_block_norm <block>            prints the 2-norm
// Idempotent; called by the SIP launcher.
void register_builtin_superinstructions();

}  // namespace sia::sip
