#pragma once
// The `specialized` kernel backend's pattern lookup: order-specialized CSR
// kernels whose sparsity structure (rowPtr / colIdx) is a compile-time
// constant, in the spirit of SeisSol/libxsmm's sparsity-unrolled generated
// kernels (paper Sec. IV-B) — the nonzero loops fully unroll, column
// offsets become immediate operands, and the CSR index arrays are never
// loaded in the hot loop. Matrix *values* stay runtime operands, so one
// compiled kernel serves every operator sharing the pattern.
//
// Registered patterns live in src/linalg/specialized_tables.inc, generated
// by tools/gen_specialized.cpp and committed (see the generator for the
// registered set and the drift-safety story). The lookup is an exact match
// on (rows, cols, rowPtr, colIdx): a miss returns nullptr and the caller
// keeps using the generic vector table of small_gemm_dispatch.hpp — the
// documented per-operator fallback of the specialized backend, never a
// correctness hazard.
//
// Bitwise contract: the specialized kernels replay the generic vector
// kernels' loop structure and per-output term order exactly (k-ascending,
// identical register blocking), with the pattern constants substituted for
// the CSR arrays — results are bitwise-identical to the scalar reference
// like every other backend (tests/test_kernel_backends.cpp). ISA handling
// matches the vector backend too: the returned pointer is the widest
// runtime clone (AVX-512, AVX2, baseline) the host supports, chosen once
// at lookup time via `detectCpuSimd`.
//
// W == 1 lookups return nullptr by design: the vector backend delegates
// the W == 1 CSR shapes to the scalar reference (small_gemm_vector.hpp),
// and the specialized backend keeps that choice.
#include <cstdint>

#include "common/types.hpp"
#include "linalg/csr.hpp"

namespace nglts::linalg {

/// Signature of a specialized right-multiply: drop-in for
/// `SmallGemmOps::rightCsr`. The `b` argument supplies the runtime values
/// (its index arrays are ignored — the kernel's pattern IS b's pattern,
/// which the lookup verified).
template <typename Real>
using SpecializedRightCsrFn = std::uint64_t (*)(int_t nVars, int_t kEff, const Csr<Real>& b,
                                                const Real* d, Real* o, int_t ldd, int_t ldo);

/// Signature of a specialized star-multiply: drop-in for
/// `SmallGemmOps::starCsr` under the same values-only contract.
template <typename Real>
using SpecializedStarCsrFn = std::uint64_t (*)(const Csr<Real>& a, int_t nCols, int_t ld,
                                               const Real* d, Real* o);

/// Exact-pattern lookup for the right shape; nullptr when the pattern is
/// not registered, W == 1, or the build has no vector kernels.
template <typename Real, int W>
SpecializedRightCsrFn<Real> findSpecializedRightCsr(const Csr<Real>& op);

/// Exact-pattern lookup for the star shape; same miss semantics.
template <typename Real, int W>
SpecializedStarCsrFn<Real> findSpecializedStarCsr(const Csr<Real>& op);

extern template SpecializedRightCsrFn<float> findSpecializedRightCsr<float, 1>(const Csr<float>&);
extern template SpecializedRightCsrFn<float> findSpecializedRightCsr<float, 2>(const Csr<float>&);
extern template SpecializedRightCsrFn<float> findSpecializedRightCsr<float, 4>(const Csr<float>&);
extern template SpecializedRightCsrFn<float> findSpecializedRightCsr<float, 8>(const Csr<float>&);
extern template SpecializedRightCsrFn<float> findSpecializedRightCsr<float, 16>(
    const Csr<float>&);
extern template SpecializedRightCsrFn<double> findSpecializedRightCsr<double, 1>(
    const Csr<double>&);
extern template SpecializedRightCsrFn<double> findSpecializedRightCsr<double, 2>(
    const Csr<double>&);
extern template SpecializedRightCsrFn<double> findSpecializedRightCsr<double, 4>(
    const Csr<double>&);

extern template SpecializedStarCsrFn<float> findSpecializedStarCsr<float, 1>(const Csr<float>&);
extern template SpecializedStarCsrFn<float> findSpecializedStarCsr<float, 2>(const Csr<float>&);
extern template SpecializedStarCsrFn<float> findSpecializedStarCsr<float, 4>(const Csr<float>&);
extern template SpecializedStarCsrFn<float> findSpecializedStarCsr<float, 8>(const Csr<float>&);
extern template SpecializedStarCsrFn<float> findSpecializedStarCsr<float, 16>(const Csr<float>&);
extern template SpecializedStarCsrFn<double> findSpecializedStarCsr<double, 1>(
    const Csr<double>&);
extern template SpecializedStarCsrFn<double> findSpecializedStarCsr<double, 2>(
    const Csr<double>&);
extern template SpecializedStarCsrFn<double> findSpecializedStarCsr<double, 4>(
    const Csr<double>&);

} // namespace nglts::linalg
