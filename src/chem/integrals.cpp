#include "chem/integrals.hpp"

#include <array>
#include <cmath>
#include <mutex>
#include <span>

#include "common/error.hpp"
#include "sip/io_server.hpp"
#include "sip/superinstr.hpp"

namespace sia::chem {

double orbital_energy(long p, long nocc) {
  if (p <= nocc) {
    return -2.0 + 0.01 * static_cast<double>(p);
  }
  return 1.0 + 0.01 * static_cast<double>(p - nocc);
}

double synthetic_integral(long p, long q, long r, long s) {
  const double dpq = static_cast<double>(p > q ? p - q : q - p);
  const double drs = static_cast<double>(r > s ? r - s : s - r);
  const double cpq = 0.5 * static_cast<double>(p + q);
  const double crs = 0.5 * static_cast<double>(r + s);
  const double dc = cpq > crs ? cpq - crs : crs - cpq;
  // Smooth, decaying, symmetric under p<->q, r<->s, and (pq)<->(rs).
  return 0.25 * std::exp(-0.20 * dpq) * std::exp(-0.20 * drs) /
         (1.0 + 0.10 * dc);
}

double synthetic_core_h(long p, long q) {
  const double d = static_cast<double>(p > q ? p - q : q - p);
  const double diag = p == q ? -2.0 - 0.002 * static_cast<double>(p) : 0.0;
  return diag - 0.5 * std::exp(-0.3 * d) * (p == q ? 0.0 : 1.0);
}

double synthetic_density(long p, long q) {
  const double d = static_cast<double>(p > q ? p - q : q - p);
  return std::exp(-0.25 * d) / (1.0 + 0.002 * static_cast<double>(p + q));
}

double mp2_denominator(long i, long a, long j, long b, long nocc) {
  return orbital_energy(i, nocc) + orbital_energy(j, nocc) -
         orbital_energy(a, nocc) - orbital_energy(b, nocc);
}

double denominator_from_coords(std::span<const long> coords, long nocc) {
  double denom = 0.0;
  for (const long p : coords) {
    const double eps = orbital_energy(p, nocc);
    denom += p <= nocc ? eps : -eps;
  }
  return denom;
}

namespace {

using sia::sip::SuperInstructionContext;

// Visits element `value` of block argument `arg` together with its
// absolute 1-based coordinates.
template <typename Fn>
void visit_block(SuperInstructionContext& ctx, int arg, Fn&& fn) {
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

void require_rank(SuperInstructionContext& ctx, int arg, int rank,
                  const char* who) {
  if (ctx.selector(arg).rank != rank) {
    throw RuntimeError(std::string(who) + ": block argument " +
                       std::to_string(arg) + " must have rank " +
                       std::to_string(rank));
  }
}

// compute_integrals V(p,q,r,s): fill the block with synthetic (pq|rs).
void si_compute_integrals(SuperInstructionContext& ctx) {
  require_rank(ctx, 0, 4, "compute_integrals");
  visit_block(ctx, 0, [](double& value, std::span<const long> c) {
    value = synthetic_integral(c[0], c[1], c[2], c[3]);
  });
}

// compute_core_h H(p,q).
void si_compute_core_h(SuperInstructionContext& ctx) {
  require_rank(ctx, 0, 2, "compute_core_h");
  visit_block(ctx, 0, [](double& value, std::span<const long> c) {
    value = synthetic_core_h(c[0], c[1]);
  });
}

// compute_density D(p,q).
void si_compute_density(SuperInstructionContext& ctx) {
  require_rank(ctx, 0, 2, "compute_density");
  visit_block(ctx, 0, [](double& value, std::span<const long> c) {
    value = synthetic_density(c[0], c[1]);
  });
}

// mp2_block_energy V1(i,a,j,b) V2(i,b,j,a) <esum scalar> <nocc scalar>:
//   esum += sum over the block of V1 * (2 V1 - V2(swapped)) / D(iajb).
void si_mp2_block_energy(SuperInstructionContext& ctx) {
  require_rank(ctx, 0, 4, "mp2_block_energy");
  require_rank(ctx, 1, 4, "mp2_block_energy");
  const long nocc = static_cast<long>(ctx.number_arg(3));
  const Block& v2 = ctx.block_arg(1);
  const sial::BlockSelector& sel1 = ctx.selector(0);
  const sial::BlockSelector& sel2 = ctx.selector(1);

  double sum = 0.0;
  visit_block(ctx, 0, [&](double& v1, std::span<const long> c) {
    // c = (i, a, j, b) absolute; the exchange integral lives in the V2
    // block laid out as (i, b, j, a).
    const std::array<int, 4> swapped = {
        static_cast<int>(c[0] - sel2.first_element[0]),
        static_cast<int>(c[3] - sel2.first_element[1]),
        static_cast<int>(c[2] - sel2.first_element[2]),
        static_cast<int>(c[1] - sel2.first_element[3]),
    };
    const double exchange = v2.at(swapped);
    const double denom = denominator_from_coords(c, nocc);
    sum += v1 * (2.0 * v1 - exchange) / denom;
  });
  (void)sel1;
  ctx.scalar_arg(2) += sum;
}

// cc_update T(a,i,b,j) R(a,i,b,j) <nocc scalar>:
//   T = R / (eps(i) + eps(j) - eps(a) - eps(b)).
void si_cc_update(SuperInstructionContext& ctx) {
  require_rank(ctx, 0, 4, "cc_update");
  require_rank(ctx, 1, 4, "cc_update");
  const long nocc = static_cast<long>(ctx.number_arg(2));
  const Block& r = ctx.block_arg(1);
  if (r.size() != ctx.block_arg(0).size()) {
    throw RuntimeError("cc_update: T and R shapes differ");
  }
  const double* src = r.data().data();
  std::size_t n = 0;
  visit_block(ctx, 0, [&](double& t, std::span<const long> c) {
    t = src[n++] / denominator_from_coords(c, nocc);
  });
}

}  // namespace

void register_chem_superinstructions() {
  static std::once_flag once;
  std::call_once(once, [] {
    constexpr sip::ArgAccess kR = sip::ArgAccess::kRead;
    constexpr sip::ArgAccess kW = sip::ArgAccess::kWrite;
    constexpr sip::ArgAccess kRW = sip::ArgAccess::kReadWrite;
    auto& registry = sip::SuperInstructionRegistry::global();
    registry.register_instruction("compute_integrals", si_compute_integrals,
                                  {kW});
    registry.register_instruction("compute_core_h", si_compute_core_h, {kW});
    registry.register_instruction("compute_density", si_compute_density,
                                  {kW});
    registry.register_instruction("mp2_block_energy", si_mp2_block_energy,
                                  {kR, kR, kRW, kR});
    registry.register_instruction("cc_update", si_cc_update, {kW, kR, kR});

    // Server-side on-demand integral generation for computed served
    // arrays (paper §V-B: I/O servers compute integral blocks instead of
    // storing them). Enable per array via
    // SipConfig::computed_served[array] = "integral_generator".
    sip::ServerComputeRegistry::global().register_generator(
        "integral_generator",
        [](Block& block, std::span<const long> first) {
          if (block.shape().rank() != 4) {
            throw RuntimeError("integral_generator needs a rank-4 array");
          }
          auto data = block.data();
          std::size_t n = 0;
          for (int p = 0; p < block.shape().extent(0); ++p) {
            for (int q = 0; q < block.shape().extent(1); ++q) {
              for (int r = 0; r < block.shape().extent(2); ++r) {
                for (int s = 0; s < block.shape().extent(3); ++s) {
                  data[n++] = synthetic_integral(first[0] + p, first[1] + q,
                                                 first[2] + r, first[3] + s);
                }
              }
            }
          }
        });
  });
}

}  // namespace sia::chem
