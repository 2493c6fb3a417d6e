// Deterministic synthetic electronic-structure data.
//
// The paper's runtime computes blocks of two-electron integrals on demand
// instead of storing the 8 TB array ("each block of V is computed on
// demand using the intrinsic super instruction compute_integrals", §IV-D).
// We reproduce the data-flow exactly with a synthetic integral: a smooth,
// rapidly decaying, permutation-symmetric function of the global orbital
// indices. It is physically meaningless but has the right structure —
// computable per element from global coordinates, symmetric under
// (p<->q), (r<->s) and (pq)<->(rs), and decaying off-diagonal so iterative
// amplitude equations converge.
//
// This header also registers the chem super instructions with the SIP:
//   compute_integrals  V(p,q,r,s)        fill a rank-4 integral block
//   compute_core_h     H(p,q)            fill a rank-2 core-Hamiltonian
//   compute_density    D(p,q)            fill a rank-2 model density
//   mp2_block_energy   V1 V2 esum        accumulate an MP2 pair energy
//   cc_update          T R               T = R / orbital-energy denominator
// All are pure functions of absolute coordinates, so every worker sees
// identical replicated data.
#pragma once

#include <span>

namespace sia::chem {

// Model orbital energy of 1-based orbital p. Occupied orbitals (p <=
// nocc) sit around -2, virtuals above +1; the gap keeps perturbative
// denominators well away from zero.
double orbital_energy(long p, long nocc);

// Synthetic two-electron integral (pq|rs), 1-based orbital indices.
double synthetic_integral(long p, long q, long r, long s);

// Synthetic one-electron (core) Hamiltonian element.
double synthetic_core_h(long p, long q);

// Synthetic density matrix element.
double synthetic_density(long p, long q);

// MP2 denominator for excitation (i,j) -> (a,b).
double mp2_denominator(long i, long a, long j, long b, long nocc);

// Orientation-independent denominator: occupied orbitals (p <= nocc)
// enter with +eps, virtuals with -eps, so any index order of a doubles
// amplitude block yields the same value.
double denominator_from_coords(std::span<const long> coords, long nocc);

// Table-built rank-4 blocks. `out` is a row-major block whose first
// element sits at absolute coordinates `first`, with `extents` elements
// per dimension. Each element is bit-equal to synthetic_integral /
// denominator_from_coords at its coordinates: the integral filler
// combines per-block tables of the scalar function's own factors (a
// (p,q) pair factor, an (r,s) pair factor, a denominator indexed by
// p+q-r-s), and the denominator filler adds per-dimension orbital terms
// in the scalar function's order. One multiply and one divide (one add)
// per element instead of two exp and a divide.
void fill_integral_block(std::span<double> out, std::span<const long> first,
                         std::span<const int> extents);
void fill_denominator_block(std::span<double> out, std::span<const long> first,
                            std::span<const int> extents, long nocc);

// Registers the chem super instructions (idempotent). The number of
// occupied orbitals is read from the SIAL program's `nocc` constant via
// the context, so callers pass it once per program, not per call:
// instructions that need it take it as an explicit scalar/number
// argument in SIAL (see programs.cpp).
void register_chem_superinstructions();

}  // namespace sia::chem
