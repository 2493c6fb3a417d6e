// Dense matrix multiply kernels.
//
// The SIP's computational super instructions "should be implemented as
// efficiently as possible on the given platform ... taking advantage of
// high quality implementations of library routines such as DGEMM" (paper
// §V-A). No vendor BLAS is available here, so this is our DGEMM: a cache-
// blocked, register-tiled, row-major kernel with a micro-kernel chosen at
// run time from CPUID: AVX-512F 8x24, else AVX2/FMA 6x8, else portable
// 4x8. The two SIMD kernels give the same bits: each C element is
// acc = fma(a_ip, b_pj, acc) over p from zero within one k panel (of a
// size every kernel shares), then C += acc, an order that does not depend
// on the tile shape. Partial edge tiles run on a scratch copy of C's live
// corner, so they take the same C += acc. The portable kernel rounds
// without FMA and agrees only to rounding.
//
// Packing reads each operand along its unit-stride runs: an A slab whose
// rows are consecutive in memory copies a contiguous column per k step,
// and a B slab copies each row's runs of adjacent columns (entry by entry
// when no two are adjacent). Only padding is zero-filled, and alpha == 1
// skips the scaling pass.
//
// Two entry points share the blocked driver:
//   * dgemm        — plain strided row-major operands;
//   * dgemm_gather — operands addressed through per-row/per-column offset
//     tables, so a tensor operand whose axes must be permuted before the
//     multiply is read in permuted order *during packing* instead of being
//     materialized by a separate transpose pass (transpose-aware packing).
// Block contractions reduce to dgemm_gather via a ContractionPlan
// (paper §III, footnote 3).
#pragma once

#include <cstddef>
#include <string_view>

namespace sia::blas {

// C (m x n) = alpha * A (m x k) * B (k x n) + beta * C.
// All matrices are dense row-major with the given leading dimensions
// (elements per row). Aliasing between C and A/B is not allowed.
void dgemm(std::size_t m, std::size_t n, std::size_t k, double alpha,
           const double* a, std::size_t lda, const double* b, std::size_t ldb,
           double beta, double* c, std::size_t ldc);

// As dgemm, but A and B are addressed through offset tables:
//   A(i, p) = a[a_row_off[i] + a_col_off[p]]
//   B(p, j) = b[b_row_off[p] + b_col_off[j]]
// Because a row-major tensor offset is additive over disjoint axis groups,
// any "matricized" view of a permuted tensor can be expressed this way;
// the tables are built once per contraction plan and the transpose is
// folded into panel packing. C is written densely (row-major, ldc).
void dgemm_gather(std::size_t m, std::size_t n, std::size_t k, double alpha,
                  const double* a, const std::size_t* a_row_off,
                  const std::size_t* a_col_off, const double* b,
                  const std::size_t* b_row_off, const std::size_t* b_col_off,
                  double beta, double* c, std::size_t ldc);

// Convenience overload for packed (ld == logical width) matrices.
inline void dgemm_packed(std::size_t m, std::size_t n, std::size_t k,
                         double alpha, const double* a, const double* b,
                         double beta, double* c) {
  dgemm(m, n, k, alpha, a, k, b, n, beta, c, n);
}

// Reference triple loop used by tests to validate the blocked kernel.
void dgemm_naive(std::size_t m, std::size_t n, std::size_t k, double alpha,
                 const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double beta, double* c, std::size_t ldc);

// Name of the micro-kernel currently in use ("avx512-8x24", "avx2-6x8",
// "portable-4x8"). The kernel is selected once, on first use, from runtime
// CPU features.
std::string_view gemm_kernel_name();

// Forces a specific micro-kernel: "portable", "avx2", "avx512", or "auto"
// (redo CPU detection). Returns false (and leaves the selection unchanged)
// if the requested kernel is not available on this build/CPU, e.g.
// "avx512" without avx512f. Intended for tests and benchmarks; not
// thread-safe against concurrent dgemm calls.
bool select_gemm_kernel(std::string_view name);

}  // namespace sia::blas
