#include "blas/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <vector>

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))
#define SIA_X86_KERNELS 1
#include <immintrin.h>
#else
#define SIA_X86_KERNELS 0
#endif

namespace sia::blas {
namespace {

// Cache-block sizes: MC x KC panel of A stays in L2, KC x NC panel of B in
// L3/L2. The register micro-tile shape (mr x nr) comes from the dispatched
// micro-kernel; every kernel shares kKc, which is what keeps them
// bit-identical (see the kernel comment below).
constexpr std::size_t kMc = 72;
constexpr std::size_t kKc = 256;
constexpr std::size_t kNc = 1024;
constexpr std::size_t kMaxMr = 8;
constexpr std::size_t kMaxNr = 24;

// Below this flop count packing overhead dominates; use the direct loop.
constexpr std::size_t kSmallProblem = 32 * 32 * 32;

// A micro-kernel computes the FULL tile
//   C[0:mr, 0:nr] += A_panel (mr x kc) * B_panel (kc x nr)
// from packed panels: A packed column-by-column (mr entries per k step),
// B packed row-by-row (nr entries per k step). Partial edge tiles are
// routed through a scratch tile by the driver.
//
// The SIMD kernels are bit-identical to each other: each C element is
// acc = fma(a_ip, b_pj, acc) over p from zero within one kc panel, then
// C += acc. That order does not depend on the tile shape, so kernels of
// different widths at the same kKc produce the same bits. The portable
// kernel multiplies and adds separately and agrees only to rounding.
using MicroKernelFn = void (*)(std::size_t kc, const double* a_pack,
                               const double* b_pack, double* c,
                               std::size_t ldc);

struct KernelInfo {
  std::size_t mr;
  std::size_t nr;
  MicroKernelFn fn;
  const char* name;  // "<select_gemm_kernel() spelling>-<mr>x<nr>"
  bool (*supported)();
};

// ---------------------------------------------------------------------
// Portable 4x8 micro-kernel (compiles everywhere, autovectorizes on most
// targets).

void micro_kernel_portable(std::size_t kc, const double* a_pack,
                           const double* b_pack, double* c, std::size_t ldc) {
  constexpr std::size_t mr = 4;
  constexpr std::size_t nr = 8;
  double acc[mr][nr] = {};
  for (std::size_t p = 0; p < kc; ++p) {
    const double* b_row = b_pack + p * nr;
    const double* a_col = a_pack + p * mr;
    for (std::size_t i = 0; i < mr; ++i) {
      const double ai = a_col[i];
      for (std::size_t j = 0; j < nr; ++j) {
        acc[i][j] += ai * b_row[j];
      }
    }
  }
  for (std::size_t i = 0; i < mr; ++i) {
    double* c_row = c + i * ldc;
    for (std::size_t j = 0; j < nr; ++j) {
      c_row[j] += acc[i][j];
    }
  }
}

bool always_supported() { return true; }

#if SIA_X86_KERNELS
// ---------------------------------------------------------------------
// AVX2+FMA 6x8 micro-kernel: 12 accumulator ymm registers + 2 B vectors +
// 1 A broadcast = 15 of 16, the classic BLIS-style tiling. Compiled with a
// target attribute so the translation unit itself needs no special flags;
// selected at runtime only when the CPU reports AVX2 and FMA.

__attribute__((target("avx2,fma"))) void micro_kernel_avx2_6x8(
    std::size_t kc, const double* a_pack, const double* b_pack, double* c,
    std::size_t ldc) {
  __m256d acc00 = _mm256_setzero_pd(), acc01 = _mm256_setzero_pd();
  __m256d acc10 = _mm256_setzero_pd(), acc11 = _mm256_setzero_pd();
  __m256d acc20 = _mm256_setzero_pd(), acc21 = _mm256_setzero_pd();
  __m256d acc30 = _mm256_setzero_pd(), acc31 = _mm256_setzero_pd();
  __m256d acc40 = _mm256_setzero_pd(), acc41 = _mm256_setzero_pd();
  __m256d acc50 = _mm256_setzero_pd(), acc51 = _mm256_setzero_pd();
  for (std::size_t p = 0; p < kc; ++p) {
    const __m256d b0 = _mm256_loadu_pd(b_pack + p * 8);
    const __m256d b1 = _mm256_loadu_pd(b_pack + p * 8 + 4);
    const double* a_col = a_pack + p * 6;
    __m256d ai = _mm256_broadcast_sd(a_col + 0);
    acc00 = _mm256_fmadd_pd(ai, b0, acc00);
    acc01 = _mm256_fmadd_pd(ai, b1, acc01);
    ai = _mm256_broadcast_sd(a_col + 1);
    acc10 = _mm256_fmadd_pd(ai, b0, acc10);
    acc11 = _mm256_fmadd_pd(ai, b1, acc11);
    ai = _mm256_broadcast_sd(a_col + 2);
    acc20 = _mm256_fmadd_pd(ai, b0, acc20);
    acc21 = _mm256_fmadd_pd(ai, b1, acc21);
    ai = _mm256_broadcast_sd(a_col + 3);
    acc30 = _mm256_fmadd_pd(ai, b0, acc30);
    acc31 = _mm256_fmadd_pd(ai, b1, acc31);
    ai = _mm256_broadcast_sd(a_col + 4);
    acc40 = _mm256_fmadd_pd(ai, b0, acc40);
    acc41 = _mm256_fmadd_pd(ai, b1, acc41);
    ai = _mm256_broadcast_sd(a_col + 5);
    acc50 = _mm256_fmadd_pd(ai, b0, acc50);
    acc51 = _mm256_fmadd_pd(ai, b1, acc51);
  }
  // Lambdas would not inherit the target attribute, so the row stores are
  // written out long-hand.
  __m256d lo[6] = {acc00, acc10, acc20, acc30, acc40, acc50};
  __m256d hi[6] = {acc01, acc11, acc21, acc31, acc41, acc51};
  for (std::size_t i = 0; i < 6; ++i) {
    double* row = c + i * ldc;
    _mm256_storeu_pd(row, _mm256_add_pd(_mm256_loadu_pd(row), lo[i]));
    _mm256_storeu_pd(row + 4, _mm256_add_pd(_mm256_loadu_pd(row + 4), hi[i]));
  }
}

// ---------------------------------------------------------------------
// AVX-512F 8x24 micro-kernel: 24 accumulator zmm registers + 3 B vectors
// + 1 A broadcast = 28 of 32. Eight rows keep an A slab inside one
// 16-wide run of a segment-16 block's unit-stride axis, so pack_a copies
// it with contiguous loads. The unrolled loops leave every accumulator a
// named register (no spills at -O2).

__attribute__((target("avx512f"))) void micro_kernel_avx512_8x24(
    std::size_t kc, const double* a_pack, const double* b_pack, double* c,
    std::size_t ldc) {
  __m512d acc[8][3];
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) {
    acc[i][0] = acc[i][1] = acc[i][2] = _mm512_setzero_pd();
  }
  for (std::size_t p = 0; p < kc; ++p) {
    const double* b_row = b_pack + p * 24;
    const __m512d b0 = _mm512_loadu_pd(b_row);
    const __m512d b1 = _mm512_loadu_pd(b_row + 8);
    const __m512d b2 = _mm512_loadu_pd(b_row + 16);
    const double* a_col = a_pack + p * 8;
#pragma GCC unroll 8
    for (int i = 0; i < 8; ++i) {
      const __m512d ai = _mm512_set1_pd(a_col[i]);
      acc[i][0] = _mm512_fmadd_pd(ai, b0, acc[i][0]);
      acc[i][1] = _mm512_fmadd_pd(ai, b1, acc[i][1]);
      acc[i][2] = _mm512_fmadd_pd(ai, b2, acc[i][2]);
    }
  }
#pragma GCC unroll 8
  for (int i = 0; i < 8; ++i) {
    double* row = c + static_cast<std::size_t>(i) * ldc;
#pragma GCC unroll 3
    for (int j = 0; j < 3; ++j) {
      _mm512_storeu_pd(row + 8 * j,
                       _mm512_add_pd(_mm512_loadu_pd(row + 8 * j), acc[i][j]));
    }
  }
}

bool avx2_supported() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}
bool avx512_supported() { return __builtin_cpu_supports("avx512f"); }
#endif  // SIA_X86_KERNELS

// In preference order: detection takes the first the CPU supports.
constexpr KernelInfo kKernels[] = {
#if SIA_X86_KERNELS
    {8, 24, micro_kernel_avx512_8x24, "avx512-8x24", avx512_supported},
    {6, 8, micro_kernel_avx2_6x8, "avx2-6x8", avx2_supported},
#endif
    {4, 8, micro_kernel_portable, "portable-4x8", always_supported},
};

const KernelInfo* detect_kernel() {
  for (const KernelInfo& kernel : kKernels) {
    if (kernel.supported()) return &kernel;
  }
  return nullptr;  // unreachable: the portable kernel is always supported
}

std::atomic<const KernelInfo*> g_kernel{nullptr};

const KernelInfo& active_kernel() {
  const KernelInfo* kernel = g_kernel.load(std::memory_order_acquire);
  if (kernel == nullptr) {
    kernel = detect_kernel();
    g_kernel.store(kernel, std::memory_order_release);
  }
  return *kernel;
}

// ---------------------------------------------------------------------
// Operand accessors: how packing reads A and B. Element (row, col) lives
// at base[row_offset(row) + col_offset(col)]. Strided is the classic
// row-major view; Gather reads through the plan's offset tables, folding
// an arbitrary tensor permutation into the packing pass.

struct StridedView {
  const double* base;
  std::size_t ld;
  std::size_t row_offset(std::size_t row) const { return row * ld; }
  std::size_t col_offset(std::size_t col) const { return col; }
};

struct GatherView {
  const double* base;
  const std::size_t* row_off;
  const std::size_t* col_off;
  std::size_t row_offset(std::size_t row) const { return row_off[row]; }
  std::size_t col_offset(std::size_t col) const { return col_off[col]; }
};

// Packs the mc x kc panel of A starting at (i0, p0) into micro-tile order:
// for each mr-row slab, kc columns of mr entries. Rows beyond mc are
// zero-padded so the micro-kernel always sees a full slab. A slab whose
// rows are consecutive in memory (a segmented axis of extent s gives runs
// of s rows) copies mr contiguous entries per k step; otherwise each k
// step gathers one entry per row.
template <typename ViewA>
void pack_a(const ViewA& a, std::size_t i0, std::size_t p0, std::size_t mc,
            std::size_t kc, double alpha, std::size_t mr_tile,
            std::vector<double>& out) {
  out.resize(((mc + mr_tile - 1) / mr_tile) * mr_tile * kc);
  for (std::size_t ir = 0; ir < mc; ir += mr_tile) {
    const std::size_t mr = std::min(mr_tile, mc - ir);
    double* dst = out.data() + ir * kc;
    const double* rows[kMaxMr];
    bool consecutive = true;
    for (std::size_t i = 0; i < mr; ++i) {
      rows[i] = a.base + a.row_offset(i0 + ir + i);
      consecutive = consecutive && rows[i] == rows[0] + i;
    }
    if (consecutive) {
      for (std::size_t p = 0; p < kc; ++p) {
        const double* s = rows[0] + a.col_offset(p0 + p);
        double* d = dst + p * mr_tile;
        for (std::size_t i = 0; i < mr; ++i) d[i] = s[i];
      }
    } else {
      for (std::size_t p = 0; p < kc; ++p) {
        const std::size_t off = a.col_offset(p0 + p);
        double* d = dst + p * mr_tile;
        for (std::size_t i = 0; i < mr; ++i) d[i] = rows[i][off];
      }
    }
    if (mr < mr_tile) {
      for (std::size_t p = 0; p < kc; ++p) {
        std::fill(dst + p * mr_tile + mr, dst + (p + 1) * mr_tile, 0.0);
      }
    }
  }
  // Scaling the packed copy rounds alpha * a once, as scaling on load
  // would; alpha == 1 (every block contraction) skips the pass.
  if (alpha != 1.0) {
    for (double& value : out) value *= alpha;
  }
}

// Positions [start, start + len) of an offset table whose offsets are
// consecutive: they read base[off + q], a contiguous load.
struct Run {
  std::size_t start;
  std::size_t len;
  std::size_t off;
};

// Splits positions [0, count) of `offset` into maximal unit-stride runs,
// written to `runs` (room for `count`); returns how many. A segmented
// tensor axis of extent s gives runs of s along its unit-stride axis.
template <typename OffsetFn>
std::size_t unit_runs(std::size_t count, OffsetFn offset, Run* runs) {
  std::size_t n = 0;
  for (std::size_t q = 0; q < count; ++q) {
    const std::size_t off = offset(q);
    if (n > 0 && runs[n - 1].off + runs[n - 1].len == off) {
      ++runs[n - 1].len;
    } else {
      runs[n++] = Run{q, 1, off};
    }
  }
  return n;
}

// Packs the kc x nc panel of B starting at (p0, j0) into micro-tile order:
// for each nr-column slab, kc rows of nr entries, zero-padded on the
// right. Each row copies the slab's columns run by run, or entry by entry
// when no two of them are adjacent.
template <typename ViewB>
void pack_b(const ViewB& b, std::size_t p0, std::size_t j0, std::size_t kc,
            std::size_t nc, std::size_t nr_tile, std::vector<double>& out) {
  out.resize(((nc + nr_tile - 1) / nr_tile) * nr_tile * kc);
  for (std::size_t jr = 0; jr < nc; jr += nr_tile) {
    const std::size_t nr = std::min(nr_tile, nc - jr);
    double* dst = out.data() + jr * kc;
    Run runs[kMaxNr];
    const std::size_t n_runs = unit_runs(
        nr, [&](std::size_t j) { return b.col_offset(j0 + jr + j); }, runs);
    for (std::size_t p = 0; p < kc; ++p) {
      const double* src = b.base + b.row_offset(p0 + p);
      double* row = dst + p * nr_tile;
      if (n_runs == nr) {
        // No two columns adjacent (ccd's hole-hole ladder operand
        // T(a,k,b,l)): gather entry by entry. The run loop below packs
        // such a panel in about twice the time.
        for (std::size_t j = 0; j < nr; ++j) row[j] = src[runs[j].off];
      } else {
        for (std::size_t r = 0; r < n_runs; ++r) {
          const double* s = src + runs[r].off;
          double* d = row + runs[r].start;
          for (std::size_t q = 0; q < runs[r].len; ++q) d[q] = s[q];
        }
      }
      std::fill(row + nr, row + nr_tile, 0.0);
    }
  }
}

void scale_c(std::size_t m, std::size_t n, double beta, double* c,
             std::size_t ldc) {
  if (beta == 1.0) return;
  for (std::size_t i = 0; i < m; ++i) {
    double* row = c + i * ldc;
    if (beta == 0.0) {
      std::fill(row, row + n, 0.0);
    } else {
      for (std::size_t j = 0; j < n; ++j) row[j] *= beta;
    }
  }
}

// Shared blocked driver. C must already be beta-scaled.
template <typename ViewA, typename ViewB>
void gemm_blocked(std::size_t m, std::size_t n, std::size_t k, double alpha,
                  const ViewA& a, const ViewB& b, double* c,
                  std::size_t ldc) {
  const KernelInfo& kernel = active_kernel();
  const std::size_t mr_tile = kernel.mr;
  const std::size_t nr_tile = kernel.nr;

  thread_local std::vector<double> a_pack;
  thread_local std::vector<double> b_pack;
  // Lanes outside an edge tile's live corner only ever hold earlier
  // corners plus zero products (packing pads with zeros).
  double edge_tile[kMaxMr * kMaxNr] = {};

  for (std::size_t j0 = 0; j0 < n; j0 += kNc) {
    const std::size_t nc = std::min(kNc, n - j0);
    for (std::size_t p0 = 0; p0 < k; p0 += kKc) {
      const std::size_t kc = std::min(kKc, k - p0);
      pack_b(b, p0, j0, kc, nc, nr_tile, b_pack);
      for (std::size_t i0 = 0; i0 < m; i0 += kMc) {
        const std::size_t mc = std::min(kMc, m - i0);
        pack_a(a, i0, p0, mc, kc, alpha, mr_tile, a_pack);
        for (std::size_t jr = 0; jr < nc; jr += nr_tile) {
          const std::size_t nr = std::min(nr_tile, nc - jr);
          const double* b_tile = b_pack.data() + jr * kc;
          for (std::size_t ir = 0; ir < mc; ir += mr_tile) {
            const std::size_t mr = std::min(mr_tile, mc - ir);
            const double* a_tile = a_pack.data() + ir * kc;
            double* c_tile = c + (i0 + ir) * ldc + j0 + jr;
            if (mr == mr_tile && nr == nr_tile) {
              kernel.fn(kc, a_tile, b_tile, c_tile, ldc);
            } else {
              // Partial edge tile: run the kernel on a dense scratch copy
              // of C's live mr x nr corner and copy that corner back, so
              // an edge element takes the same C += acc as a full tile's.
              for (std::size_t i = 0; i < mr; ++i) {
                std::copy_n(c_tile + i * ldc, nr, edge_tile + i * nr_tile);
              }
              kernel.fn(kc, a_tile, b_tile, edge_tile, nr_tile);
              for (std::size_t i = 0; i < mr; ++i) {
                std::copy_n(edge_tile + i * nr_tile, nr, c_tile + i * ldc);
              }
            }
          }
        }
      }
    }
  }
}

template <typename ViewA, typename ViewB>
void gemm_dispatch(std::size_t m, std::size_t n, std::size_t k, double alpha,
                   const ViewA& a, const ViewB& b, double beta, double* c,
                   std::size_t ldc) {
  scale_c(m, n, beta, c, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == 0.0) return;

  if (m == 1 && n == 1) {
    // Degenerate full contraction: a plain dot, never worth packing.
    double sum = 0.0;
    const std::size_t a_row = a.row_offset(0);
    for (std::size_t p = 0; p < k; ++p) {
      sum += a.base[a_row + a.col_offset(p)] *
             b.base[b.row_offset(p) + b.col_offset(0)];
    }
    c[0] += alpha * sum;
    return;
  }

  if (m * n * k < kSmallProblem) {
    for (std::size_t i = 0; i < m; ++i) {
      const std::size_t a_row = a.row_offset(i);
      double* c_row = c + i * ldc;
      for (std::size_t p = 0; p < k; ++p) {
        const double aip = alpha * a.base[a_row + a.col_offset(p)];
        const std::size_t b_row = b.row_offset(p);
        for (std::size_t j = 0; j < n; ++j) {
          c_row[j] += aip * b.base[b_row + b.col_offset(j)];
        }
      }
    }
    return;
  }

  gemm_blocked(m, n, k, alpha, a, b, c, ldc);
}

}  // namespace

void dgemm(std::size_t m, std::size_t n, std::size_t k, double alpha,
           const double* a, std::size_t lda, const double* b, std::size_t ldb,
           double beta, double* c, std::size_t ldc) {
  gemm_dispatch(m, n, k, alpha, StridedView{a, lda}, StridedView{b, ldb},
                beta, c, ldc);
}

void dgemm_gather(std::size_t m, std::size_t n, std::size_t k, double alpha,
                  const double* a, const std::size_t* a_row_off,
                  const std::size_t* a_col_off, const double* b,
                  const std::size_t* b_row_off, const std::size_t* b_col_off,
                  double beta, double* c, std::size_t ldc) {
  gemm_dispatch(m, n, k, alpha, GatherView{a, a_row_off, a_col_off},
                GatherView{b, b_row_off, b_col_off}, beta, c, ldc);
}

void dgemm_naive(std::size_t m, std::size_t n, std::size_t k, double alpha,
                 const double* a, std::size_t lda, const double* b,
                 std::size_t ldb, double beta, double* c, std::size_t ldc) {
  for (std::size_t i = 0; i < m; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      double sum = 0.0;
      for (std::size_t p = 0; p < k; ++p) {
        sum += a[i * lda + p] * b[p * ldb + j];
      }
      c[i * ldc + j] = alpha * sum + beta * c[i * ldc + j];
    }
  }
}

std::string_view gemm_kernel_name() { return active_kernel().name; }

bool select_gemm_kernel(std::string_view name) {
  if (name == "auto") {
    g_kernel.store(detect_kernel(), std::memory_order_release);
    return true;
  }
  for (const KernelInfo& kernel : kKernels) {
    const std::string_view kernel_name = kernel.name;
    if (name == kernel_name.substr(0, kernel_name.find('-'))) {
      if (!kernel.supported()) return false;
      g_kernel.store(&kernel, std::memory_order_release);
      return true;
    }
  }
  return false;
}

}  // namespace sia::blas
