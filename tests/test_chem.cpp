// Tests for the synthetic chemistry data and reference implementations.
#include <gtest/gtest.h>

#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "chem/integrals.hpp"
#include "chem/reference.hpp"
#include "chem/system.hpp"
#include "common/config.hpp"
#include "sip/launch.hpp"
#include "sip/superinstr.hpp"

namespace sia::chem {
namespace {

TEST(SystemTest, PresetsHaveSensibleShapes) {
  for (const MolecularSystem& system :
       {luciferin(), water_cluster(), rdx(), hmx(), cytosine_oh(),
        diamond_nv()}) {
    EXPECT_GT(system.nocc, 0) << system.name;
    EXPECT_GT(system.nvirt(), system.nocc) << system.name;
  }
  EXPECT_EQ(diamond_nv().nbasis, 2944);  // stated in the paper's Fig. 6
}

TEST(OrbitalEnergyTest, OccupiedBelowVirtual) {
  const long nocc = 10;
  for (long p = 1; p <= nocc; ++p) {
    EXPECT_LT(orbital_energy(p, nocc), 0.0);
  }
  for (long p = nocc + 1; p <= 30; ++p) {
    EXPECT_GT(orbital_energy(p, nocc), 0.0);
  }
  // Monotone within each class.
  EXPECT_LT(orbital_energy(1, nocc), orbital_energy(2, nocc));
  EXPECT_LT(orbital_energy(11, nocc), orbital_energy(12, nocc));
}

TEST(IntegralTest, PermutationalSymmetry) {
  // (pq|rs) = (qp|rs) = (pq|sr) = (rs|pq).
  const double v = synthetic_integral(3, 7, 2, 9);
  EXPECT_DOUBLE_EQ(synthetic_integral(7, 3, 2, 9), v);
  EXPECT_DOUBLE_EQ(synthetic_integral(3, 7, 9, 2), v);
  EXPECT_DOUBLE_EQ(synthetic_integral(2, 9, 3, 7), v);
}

TEST(IntegralTest, DecaysOffDiagonal) {
  EXPECT_GT(synthetic_integral(5, 5, 5, 5),
            synthetic_integral(5, 9, 5, 5));
  EXPECT_GT(synthetic_integral(5, 9, 5, 5),
            synthetic_integral(5, 20, 5, 5));
  EXPECT_GT(synthetic_integral(2, 2, 2, 2),
            synthetic_integral(2, 2, 30, 30));
}

TEST(IntegralTest, CoreHamiltonianSymmetric) {
  EXPECT_DOUBLE_EQ(synthetic_core_h(3, 8), synthetic_core_h(8, 3));
  EXPECT_LT(synthetic_core_h(4, 4), 0.0);  // diagonal dominated, negative
}

TEST(IntegralTest, DensitySymmetricAndDecaying) {
  EXPECT_DOUBLE_EQ(synthetic_density(2, 6), synthetic_density(6, 2));
  EXPECT_GT(synthetic_density(5, 5), synthetic_density(5, 10));
}

TEST(DenominatorTest, OrientationIndependent) {
  const long nocc = 6;
  // (a,i,b,j) and (i,a,j,b) orders give the same denominator.
  const std::array<long, 4> aibj = {9, 2, 8, 3};
  const std::array<long, 4> iajb = {2, 9, 3, 8};
  EXPECT_DOUBLE_EQ(denominator_from_coords(aibj, nocc),
                   denominator_from_coords(iajb, nocc));
  EXPECT_DOUBLE_EQ(denominator_from_coords(iajb, nocc),
                   mp2_denominator(2, 9, 3, 8, nocc));
}

TEST(DenominatorTest, AlwaysNegativeForExcitations) {
  const long nocc = 6;
  for (long i = 1; i <= nocc; ++i) {
    for (long a = nocc + 1; a <= 20; ++a) {
      EXPECT_LT(mp2_denominator(i, a, i, a, nocc), 0.0);
    }
  }
}

// ---------------------------------------------------------------------
// Table-built blocks: every element must equal the scalar function bit
// for bit, wherever the block sits and however it is cut.

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

TEST(BlockFillerTest, EveryElementMatchesTheScalarFunctions) {
  constexpr long kNocc = 5;
  // Odd offsets, extents of 1 (a short last segment), and blocks that
  // straddle the occupied/virtual boundary.
  const std::vector<std::pair<std::array<long, 4>, std::array<int, 4>>>
      blocks = {{{1, 1, 1, 1}, {4, 4, 4, 4}},
                {{3, 8, 5, 1}, {3, 1, 4, 2}},
                {{7, 2, 9, 4}, {5, 3, 2, 6}},
                {{11, 11, 2, 13}, {1, 2, 1, 1}}};
  for (const auto& [first, extents] : blocks) {
    const std::size_t size = static_cast<std::size_t>(
        extents[0] * extents[1] * extents[2] * extents[3]);
    std::vector<double> integrals(size);
    std::vector<double> denominators(size);
    fill_integral_block(integrals, first, extents);
    fill_denominator_block(denominators, first, extents, kNocc);
    std::size_t n = 0;
    for (int a = 0; a < extents[0]; ++a) {
      for (int b = 0; b < extents[1]; ++b) {
        for (int c = 0; c < extents[2]; ++c) {
          for (int d = 0; d < extents[3]; ++d, ++n) {
            const std::array<long, 4> at = {first[0] + a, first[1] + b,
                                            first[2] + c, first[3] + d};
            EXPECT_TRUE(same_bits(
                integrals[n], synthetic_integral(at[0], at[1], at[2], at[3])))
                << "integral at " << at[0] << "," << at[1] << "," << at[2]
                << "," << at[3];
            EXPECT_TRUE(same_bits(denominators[n],
                                  denominator_from_coords(at, kNocc)))
                << "denominator at " << at[0] << "," << at[1] << ","
                << at[2] << "," << at[3];
          }
        }
      }
    }
  }
}

// check_integrals V <bad> <checked>: counts V's elements, and those not
// bit-equal to synthetic_integral at their absolute coordinates.
void check_integrals(sip::SuperInstructionContext& ctx) {
  sip::for_each_element(ctx, 0, [&](double& value, std::span<const long> c) {
    ctx.scalar_arg(2) += 1.0;
    if (!same_bits(value, synthetic_integral(c[0], c[1], c[2], c[3]))) {
      ctx.scalar_arg(1) += 1.0;
    }
  });
}

// check_inverse_denominators T <nocc> <bad> <checked>: T = 1 / D.
void check_inverse_denominators(sip::SuperInstructionContext& ctx) {
  const long nocc = static_cast<long>(ctx.number_arg(1));
  sip::for_each_element(ctx, 0, [&](double& value, std::span<const long> c) {
    ctx.scalar_arg(3) += 1.0;
    if (!same_bits(value, 1.0 / denominator_from_coords(c, nocc))) {
      ctx.scalar_arg(2) += 1.0;
    }
  });
}

TEST(BlockFillerTest, SuperInstructionsMatchThroughSegmentsAndSlices) {
  // norb 11 in segments of 4: the last segment is three orbitals wide,
  // and `v(pp,q,r,s)` reaches the integral filler through a rank-4 slice
  // selector whose first element sits at an odd offset inside its block.
  register_chem_superinstructions();
  auto& registry = sip::SuperInstructionRegistry::global();
  registry.register_instruction("check_integrals", check_integrals,
                                {sip::ArgAccess::kRead});
  registry.register_instruction("check_inverse_denominators",
                                check_inverse_denominators,
                                {sip::ArgAccess::kRead});
  for (const int threads : {0, 2}) {
    SipConfig config;
    config.workers = 1;
    config.worker_threads = threads;
    config.default_segment = 4;
    config.constants = {{"norb", 11}, {"nocc", 5}};
    sip::Sip sip(config);
    const sip::RunResult result = sip.run_source(R"(sial block_fillers
moindex p = 1, norb
moindex q = 1, norb
moindex r = 1, norb
moindex s = 1, norb
subindex pp of p
temp v(p,q,r,s)
temp one(p,q,r,s)
temp t(p,q,r,s)
scalar noccs
scalar bad
scalar checked
noccs = nocc
do p
  do q
    do r
      do s
        execute compute_integrals v(p,q,r,s)
        execute check_integrals v(p,q,r,s) bad checked
        do pp in p
          execute compute_integrals v(pp,q,r,s)
          execute check_integrals v(pp,q,r,s) bad checked
        enddo pp
        execute fill_value one(p,q,r,s) 1.0
        execute cc_update t(p,q,r,s) one(p,q,r,s) noccs
        execute check_inverse_denominators t(p,q,r,s) noccs bad checked
      enddo s
    enddo r
  enddo q
enddo p
endsial
)");
    EXPECT_EQ(result.scalar("checked"), 3.0 * 11 * 11 * 11 * 11)
        << "worker_threads " << threads;
    EXPECT_EQ(result.scalar("bad"), 0.0) << "worker_threads " << threads;
  }
}

TEST(ReferenceTest, Mp2EnergyIsNegative) {
  const double e2 = ref_mp2_energy(10, 4);
  EXPECT_LT(e2, 0.0);
  EXPECT_GT(e2, -10.0);  // sane magnitude
}

TEST(ReferenceTest, Mp2EnergyGrowsWithBasis) {
  // More virtuals -> more (negative) correlation energy.
  EXPECT_LT(ref_mp2_energy(14, 4), ref_mp2_energy(8, 4));
}

TEST(ReferenceTest, AmplitudeNormPositive) {
  EXPECT_GT(ref_mp2_amp_norm2(10, 4), 0.0);
}

TEST(ReferenceTest, CcdIterationsConverge) {
  // The amplitude norm change between consecutive iteration counts
  // shrinks (the toy CCD is contractive at this size).
  double n3 = 0.0, n4 = 0.0, n5 = 0.0;
  ref_ccd_energy(8, 4, 3, &n3);
  ref_ccd_energy(8, 4, 4, &n4);
  ref_ccd_energy(8, 4, 5, &n5);
  const double d34 = std::abs(n4 - n3);
  const double d45 = std::abs(n5 - n4);
  EXPECT_LT(d45, d34);
}

TEST(ReferenceTest, CcdZeroIterationsUsesT0) {
  // With 0 sweeps the energy is the MP2-like pair energy sum T0.V.
  double norm2 = 0.0;
  const double e0 = ref_ccd_energy(8, 4, 0, &norm2);
  EXPECT_LT(e0, 0.0);
  double want = 0.0;
  for (long i = 1; i <= 4; ++i) {
    for (long j = 1; j <= 4; ++j) {
      for (long a = 5; a <= 8; ++a) {
        for (long b = 5; b <= 8; ++b) {
          const double v = synthetic_integral(a, i, b, j);
          want += v * v / mp2_denominator(i, a, j, b, 4);
        }
      }
    }
  }
  EXPECT_NEAR(e0, want, 1e-12);
}

TEST(ReferenceTest, FockMatrixSymmetric) {
  const long n = 10;
  const std::vector<double> fock = ref_fock_matrix(n);
  for (long mu = 0; mu < n; ++mu) {
    for (long nu = 0; nu < n; ++nu) {
      EXPECT_NEAR(fock[static_cast<std::size_t>(mu * n + nu)],
                  fock[static_cast<std::size_t>(nu * n + mu)], 1e-12);
    }
  }
  EXPECT_GT(ref_fock_norm(n), 0.0);
}

TEST(ReferenceTest, ContractionChecksumDeterministic) {
  EXPECT_DOUBLE_EQ(ref_contraction_rnorm2(6, 3, 7.0),
                   ref_contraction_rnorm2(6, 3, 7.0));
  EXPECT_NE(ref_contraction_rnorm2(6, 3, 7.0),
            ref_contraction_rnorm2(6, 3, 8.0));
}

TEST(ChemSuperInstructionsTest, RegistrationIsIdempotent) {
  register_chem_superinstructions();
  register_chem_superinstructions();
  SUCCEED();
}

}  // namespace
}  // namespace sia::chem
