#include "chem/integrals.hpp"

#include <array>
#include <cmath>
#include <mutex>
#include <span>
#include <vector>

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

namespace {

double distance(long a, long b) {
  return static_cast<double>(a > b ? a - b : b - a);
}

// The three factors of synthetic_integral, (pq|rs) =
// pair(p,q) * decay(r,s) / coulomb(p+q-r-s). The scalar function and the
// block filler both multiply and divide these same values in the same
// order, so a table-built element equals the scalar one bit for bit.
double pair_factor(long p, long q) {
  return 0.25 * std::exp(-0.20 * distance(p, q));
}

double decay_factor(long r, long s) { return std::exp(-0.20 * distance(r, s)); }

// The pair centroids (p+q)/2 and (r+s)/2 are exact half-integers, so
// their distance is exactly |p+q-r-s| / 2.
double coulomb_factor(long pq_minus_rs) {
  return 1.0 + 0.10 * (0.5 * distance(pq_minus_rs, 0));
}

// Orbital p's term of an orientation-independent denominator.
double signed_energy(long p, long nocc) {
  const double eps = orbital_energy(p, nocc);
  return p <= nocc ? eps : -eps;
}

void require_rank4(std::span<const long> first, std::span<const int> extents,
                   std::size_t size, const char* who) {
  SIA_CHECK(first.size() == 4 && extents.size() == 4 &&
                size == static_cast<std::size_t>(extents[0]) *
                            static_cast<std::size_t>(extents[1]) *
                            static_cast<std::size_t>(extents[2]) *
                            static_cast<std::size_t>(extents[3]),
            who);
}

}  // namespace

double synthetic_integral(long p, long q, long r, long s) {
  // Smooth, decaying, symmetric under p<->q, r<->s, and (pq)<->(rs).
  return pair_factor(p, q) * decay_factor(r, s) /
         coulomb_factor(p + q - r - s);
}

void fill_integral_block(std::span<double> out, std::span<const long> first,
                         std::span<const int> extents) {
  require_rank4(first, extents, out.size(), "integral block shape");
  const int e0 = extents[0], e1 = extents[1], e2 = extents[2],
            e3 = extents[3];
  std::vector<double> pair(static_cast<std::size_t>(e0 * e1));
  for (int a = 0; a < e0; ++a) {
    for (int b = 0; b < e1; ++b) {
      pair[static_cast<std::size_t>(a * e1 + b)] =
          pair_factor(first[0] + a, first[1] + b);
    }
  }
  std::vector<double> decay(static_cast<std::size_t>(e2 * e3));
  for (int c = 0; c < e2; ++c) {
    for (int d = 0; d < e3; ++d) {
      decay[static_cast<std::size_t>(c * e3 + d)] =
          decay_factor(first[2] + c, first[3] + d);
    }
  }
  // coulomb[k] is the factor of local offset k = (c+d) - (a+b) + top,
  // i.e. of p+q-r-s = base + top - k; it runs forward with d.
  const int top = e0 + e1 - 2;
  const long base = first[0] + first[1] - first[2] - first[3];
  std::vector<double> coulomb(static_cast<std::size_t>(top + e2 + e3 - 1));
  for (std::size_t k = 0; k < coulomb.size(); ++k) {
    coulomb[k] = coulomb_factor(base + top - static_cast<long>(k));
  }

  double* value = out.data();
  for (int a = 0; a < e0; ++a) {
    for (int b = 0; b < e1; ++b) {
      const double f = pair[static_cast<std::size_t>(a * e1 + b)];
      for (int c = 0; c < e2; ++c) {
        const double* g = decay.data() + c * e3;
        const double* h = coulomb.data() + (top - a - b + c);
        for (int d = 0; d < e3; ++d) *value++ = f * g[d] / h[d];
      }
    }
  }
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
  for (const long p : coords) denom += signed_energy(p, nocc);
  return denom;
}

void fill_denominator_block(std::span<double> out, std::span<const long> first,
                            std::span<const int> extents, long nocc) {
  require_rank4(first, extents, out.size(), "denominator block shape");
  // One signed-energy table per dimension, laid end to end; the partial
  // sums are hoisted but added in denominator_from_coords' order.
  std::array<const double*, 4> eps{};
  std::vector<double> table(static_cast<std::size_t>(
      extents[0] + extents[1] + extents[2] + extents[3]));
  std::size_t at = 0;
  for (std::size_t dim = 0; dim < 4; ++dim) {
    eps[dim] = table.data() + at;
    for (int k = 0; k < extents[dim]; ++k) {
      table[at++] = signed_energy(first[dim] + k, nocc);
    }
  }
  double* value = out.data();
  for (int a = 0; a < extents[0]; ++a) {
    const double s0 = 0.0 + eps[0][a];
    for (int b = 0; b < extents[1]; ++b) {
      const double s1 = s0 + eps[1][b];
      for (int c = 0; c < extents[2]; ++c) {
        const double s2 = s1 + eps[2][c];
        for (int d = 0; d < extents[3]; ++d) *value++ = s2 + eps[3][d];
      }
    }
  }
}

namespace {

using sia::sip::SuperInstructionContext;

void require_rank(SuperInstructionContext& ctx, int arg, int rank,
                  const char* who) {
  if (ctx.selector(arg).rank != rank) {
    throw RuntimeError(std::string(who) + ": block argument " +
                       std::to_string(arg) + " must have rank " +
                       std::to_string(rank));
  }
}

// The absolute first element and extents of rank-4 block argument `arg`.
std::span<const long> first_of(SuperInstructionContext& ctx, int arg) {
  return {ctx.selector(arg).first_element.data(), 4};
}
std::span<const int> extents_of(SuperInstructionContext& ctx, int arg) {
  return {ctx.selector(arg).extents.data(), 4};
}

// compute_integrals V(p,q,r,s): fill the block with synthetic (pq|rs).
void si_compute_integrals(SuperInstructionContext& ctx) {
  require_rank(ctx, 0, 4, "compute_integrals");
  fill_integral_block(ctx.block_arg(0).data(), first_of(ctx, 0),
                      extents_of(ctx, 0));
}

// compute_core_h H(p,q).
void si_compute_core_h(SuperInstructionContext& ctx) {
  require_rank(ctx, 0, 2, "compute_core_h");
  sip::for_each_element(ctx, 0, [](double& value, std::span<const long> c) {
    value = synthetic_core_h(c[0], c[1]);
  });
}

// compute_density D(p,q).
void si_compute_density(SuperInstructionContext& ctx) {
  require_rank(ctx, 0, 2, "compute_density");
  sip::for_each_element(ctx, 0, [](double& value, std::span<const long> c) {
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
  const sial::BlockSelector& sel2 = ctx.selector(1);
  std::vector<double> denom(ctx.block_arg(0).size());
  fill_denominator_block(denom, first_of(ctx, 0), extents_of(ctx, 0), nocc);

  double sum = 0.0;
  std::size_t n = 0;
  sip::for_each_element(ctx, 0, [&](double& v1, std::span<const long> c) {
    // c = (i, a, j, b) absolute; the exchange integral lives in the V2
    // block laid out as (i, b, j, a).
    const std::array<int, 4> swapped = {
        static_cast<int>(c[0] - sel2.first_element[0]),
        static_cast<int>(c[3] - sel2.first_element[1]),
        static_cast<int>(c[2] - sel2.first_element[2]),
        static_cast<int>(c[1] - sel2.first_element[3]),
    };
    const double exchange = v2.at(swapped);
    sum += v1 * (2.0 * v1 - exchange) / denom[n++];
  });
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
  std::vector<double> denom(r.size());
  fill_denominator_block(denom, first_of(ctx, 0), extents_of(ctx, 0), nocc);
  const double* src = r.data().data();
  const std::span<double> t = ctx.block_arg(0).data();
  for (std::size_t n = 0; n < t.size(); ++n) t[n] = src[n] / denom[n];
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
          std::array<int, 4> extents{};
          for (int d = 0; d < 4; ++d) extents[d] = block.shape().extent(d);
          fill_integral_block(block.data(), first, extents);
        });
  });
}

}  // namespace sia::chem
