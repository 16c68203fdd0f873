// Kernel backend equivalence (docs/KERNELS.md): the explicit-SIMD vector
// backend must be *bitwise*-identical to the scalar reference for every
// dispatched kernel — the documented tolerance policy is zero — and must
// return identical analytic flop counts. Covered here:
//   * per-kernel randomized-operand exactness for {W = 1, 2, 4} x
//     {dense, CSR} x {star, right} (double and float),
//   * the fused-width CSR right-multiply on the real stiffness/CK
//     operators and the CSR star on the elastic Jacobian union pattern,
//   * the W = 1 dense right-multiply on the real DG operators of orders
//     1-6 and the W = 1 dense star on the Jacobian/coupling shapes, with
//     trims, zeros, -0.0 and subnormals (double and float),
//   * bit-exact broadcasts (`vecdetail::splat`) for every vector width,
//   * axpy / scale-copy helper exactness,
//   * flop-count parity across backends,
//   * backend registry / resolution / parsing behavior,
//   * AderKernels-level equivalence (full ADER predictor + updates), and
//   * an end-to-end quickstart run per forced backend with a bitwise
//     seismogram comparison.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "basis/global_matrices.hpp"
#include "cli/scenario.hpp"
#include "kernels/ader_kernels.hpp"
#include "kernels/kernel_setup.hpp"
#include "linalg/small_gemm_dispatch.hpp"
#include "mesh/box_gen.hpp"
#include "mesh/geometry.hpp"
#include "physics/attenuation.hpp"
#include "physics/jacobians.hpp"

namespace nl = nglts::linalg;
namespace nk = nglts::kernels;
namespace nm = nglts::mesh;
namespace np = nglts::physics;
using nglts::idx_t;
using nglts::int_t;
using nl::KernelBackend;

namespace {

/// Bitwise comparison of two Real buffers (EXPECT_EQ would treat -0 == +0).
template <typename Real>
::testing::AssertionResult bitwiseEqual(const std::vector<Real>& a, const std::vector<Real>& b) {
  if (a.size() != b.size()) return ::testing::AssertionFailure() << "size mismatch";
  if (std::memcmp(a.data(), b.data(), a.size() * sizeof(Real)) == 0)
    return ::testing::AssertionSuccess();
  for (std::size_t i = 0; i < a.size(); ++i)
    if (std::memcmp(&a[i], &b[i], sizeof(Real)) != 0)
      return ::testing::AssertionFailure()
             << "first bitwise mismatch at [" << i << "]: " << a[i] << " vs " << b[i];
  return ::testing::AssertionFailure() << "memcmp mismatch";
}

template <typename Real>
std::vector<Real> randomVec(std::size_t n, unsigned seed, double sparsity = 0.0) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::uniform_real_distribution<double> pick(0.0, 1.0);
  std::vector<Real> v(n, Real(0));
  for (auto& x : v)
    if (pick(rng) >= sparsity) x = static_cast<Real>(uni(rng));
  return v;
}

nl::Matrix toMatrix(const std::vector<double>& v, int_t r, int_t c) {
  nl::Matrix m(r, c);
  for (int_t i = 0; i < r; ++i)
    for (int_t j = 0; j < c; ++j) m(i, j) = v[static_cast<std::size_t>(i) * c + j];
  return m;
}

/// Run every dispatched kernel under both backends on randomized operands
/// (with zeros salted in to exercise the skip paths) and assert bitwise
/// output equality plus flop-count parity.
/// Skip (instead of fail) on the rare build/host without the vector
/// backend — the scalar reference is the only implementation there.
#define NGLTS_REQUIRE_VECTOR_BACKEND()                                        \
  if (!nl::vectorBackendCompiled() || !nl::detectCpuSimd().any())             \
  GTEST_SKIP() << "vector backend unavailable on this build/host"

template <typename Real, int W>
void checkBackendsAgree(unsigned seed) {
  NGLTS_REQUIRE_VECTOR_BACKEND();
  const auto& scalar = nl::smallGemmOps<Real, W>(KernelBackend::kScalar);
  const auto& vector = nl::smallGemmOps<Real, W>(KernelBackend::kVector);
  ASSERT_EQ(scalar.backend, KernelBackend::kScalar);
  ASSERT_EQ(vector.backend, KernelBackend::kVector);

  // star: O[m][nCols][W] += A[m][k] * D[k][nCols][W], ld > nCols (padding).
  // Both an even shape and an odd one (nCols = 13): the odd rows end in
  // partial-vector tails, where a contraction asymmetry between the
  // backends' codegen would surface (the single-lane-tail rule of
  // small_gemm_vector.hpp exists because of exactly this).
  for (const int_t nCols : {int_t(20), int_t(13)}) {
    const int_t m = 9, k = 9, ld = nCols + 4;
    const auto aDense = randomVec<double>(static_cast<std::size_t>(m) * k, seed, 0.5);
    std::vector<Real> a(aDense.begin(), aDense.end());
    const auto d = randomVec<Real>(static_cast<std::size_t>(k) * ld * W, seed + 1);
    auto o1 = randomVec<Real>(static_cast<std::size_t>(m) * ld * W, seed + 2);
    auto o2 = o1;  // accumulate onto identical nonzero outputs
    const auto f1 = scalar.starDense(m, k, nCols, ld, a.data(), d.data(), o1.data());
    const auto f2 = vector.starDense(m, k, nCols, ld, a.data(), d.data(), o2.data());
    EXPECT_EQ(f1, f2) << "starDense flop parity";
    EXPECT_TRUE(bitwiseEqual(o1, o2)) << "starDense W=" << W;

    const auto csr = nl::toCsr<Real>(toMatrix(aDense, m, k));
    auto c1 = randomVec<Real>(static_cast<std::size_t>(m) * ld * W, seed + 3);
    auto c2 = c1;
    const auto g1 = scalar.starCsr(csr, nCols, ld, d.data(), c1.data());
    const auto g2 = vector.starCsr(csr, nCols, ld, d.data(), c2.data());
    EXPECT_EQ(g1, g2) << "starCsr flop parity";
    EXPECT_TRUE(bitwiseEqual(c1, c2)) << "starCsr W=" << W;
  }

  // right: O[nVars][nEff][W] += D[nVars][kEff][W] * B[kEff][nEff], with the
  // kEff trim and distinct leading dimensions.
  {
    const int_t nVars = 9, kDim = 20, nDim = 10, kEff = 14, ldd = 22, ldo = 13;
    const auto bDense = randomVec<double>(static_cast<std::size_t>(kDim) * nDim, seed + 4, 0.4);
    std::vector<Real> b(bDense.begin(), bDense.end());
    const auto d = randomVec<Real>(static_cast<std::size_t>(nVars) * ldd * W, seed + 5, 0.2);
    auto o1 = randomVec<Real>(static_cast<std::size_t>(nVars) * ldo * W, seed + 6);
    auto o2 = o1;
    const auto f1 =
        scalar.rightDense(nVars, kEff, nDim, nDim, d.data(), b.data(), o1.data(), ldd, ldo);
    const auto f2 =
        vector.rightDense(nVars, kEff, nDim, nDim, d.data(), b.data(), o2.data(), ldd, ldo);
    EXPECT_EQ(f1, f2) << "rightDense flop parity";
    EXPECT_TRUE(bitwiseEqual(o1, o2)) << "rightDense W=" << W;

    const auto csr = nl::toCsr<Real>(toMatrix(bDense, kDim, nDim));
    auto c1 = randomVec<Real>(static_cast<std::size_t>(nVars) * ldo * W, seed + 7);
    auto c2 = c1;
    const auto g1 = scalar.rightCsr(nVars, kEff, csr, d.data(), c1.data(), ldd, ldo);
    const auto g2 = vector.rightCsr(nVars, kEff, csr, d.data(), c2.data(), ldd, ldo);
    EXPECT_EQ(g1, g2) << "rightCsr flop parity";
    EXPECT_TRUE(bitwiseEqual(c1, c2)) << "rightCsr W=" << W;
  }

  // axpy / scale-copy helpers over an odd length (vector tails exercised).
  {
    const std::size_t n = 211;
    const auto src = randomVec<Real>(n, seed + 8);
    auto d1 = randomVec<Real>(n, seed + 9);
    auto d2 = d1;
    scalar.axpy(Real(0.37), src.data(), d1.data(), n);
    vector.axpy(Real(0.37), src.data(), d2.data(), n);
    EXPECT_TRUE(bitwiseEqual(d1, d2)) << "axpy";
    scalar.scaleCopy(Real(-1.91), src.data(), d1.data(), n);
    vector.scaleCopy(Real(-1.91), src.data(), d2.data(), n);
    EXPECT_TRUE(bitwiseEqual(d1, d2)) << "scaleCopy";
  }
}

} // namespace

// -- per-kernel exactness: {W=1,2,4} x {dense,CSR}, double and float --------

TEST(KernelBackends, BitwiseAgreementDoubleW1) { checkBackendsAgree<double, 1>(11); }
TEST(KernelBackends, BitwiseAgreementDoubleW2) { checkBackendsAgree<double, 2>(12); }
TEST(KernelBackends, BitwiseAgreementDoubleW4) { checkBackendsAgree<double, 4>(13); }
TEST(KernelBackends, BitwiseAgreementFloatW1) { checkBackendsAgree<float, 1>(14); }
TEST(KernelBackends, BitwiseAgreementFloatW4) { checkBackendsAgree<float, 4>(15); }
TEST(KernelBackends, BitwiseAgreementFloatW8) { checkBackendsAgree<float, 8>(16); }
TEST(KernelBackends, BitwiseAgreementFloatW16) { checkBackendsAgree<float, 16>(17); }

// -- W = 1 right-multiply on the real DG operators --------------------------

namespace {

/// D operand with the values the skip rule cares about salted in: exact
/// zeros and -0.0 (skipped by the reference), subnormals (not skipped; the
/// broadcast must keep their bits), and one variable whose row is zero
/// throughout, so its -0.0-seeded outputs must come back untouched.
template <typename Real>
std::vector<Real> saltedD(int_t nVars, int_t ldd, unsigned seed) {
  auto d = randomVec<Real>(static_cast<std::size_t>(nVars) * ldd, seed);
  for (std::size_t i = 0; i < d.size(); ++i) {
    if (i % 7 == 3) d[i] = Real(0);
    if (i % 7 == 5) d[i] = Real(-0.0);
    if (i % 11 == 4) d[i] = std::numeric_limits<Real>::denorm_min() * Real(i % 5 + 1);
  }
  if (nVars > 1)
    for (int_t k = 0; k < ldd; ++k)
      d[static_cast<std::size_t>(ldd) + k] = k % 2 ? Real(0) : Real(-0.0);
  return d;
}

/// The reference's `rightDense` at W = 1 against the vector backend's
/// register-blocked kernel on every global operator family (stiffness,
/// CK derivative, face projection, lift, neighbor flux) of orders 1-6, so
/// every column chunk width and tail runs; with kEff/nEff trims, a
/// variable count that leaves a block remainder, and outputs pre-seeded
/// with -0.0 (the case the per-variable `d == 0` skip protects).
template <typename Real>
void checkRightDenseW1OnOperators(unsigned seed) {
  NGLTS_REQUIRE_VECTOR_BACKEND();
  const auto& scalar = nl::smallGemmOps<Real, 1>(KernelBackend::kScalar);
  const auto& vector = nl::smallGemmOps<Real, 1>(KernelBackend::kVector);
  for (int_t order = 1; order <= 6; ++order) {
    const auto gm = nglts::basis::buildGlobalMatrices(order);
    for (const nl::Matrix* m : {&gm->kXi[0], &gm->gXi[2], &gm->fluxLocal[1], &gm->fluxLift[3],
                                &gm->fluxNeigh[2][4]}) {
      const nl::SmallOp<Real> op(*m);
      for (const int_t nVars : {int_t(9), int_t(4)})
        for (const int_t kEff : {op.rows, (op.rows + 1) / 2})
          for (const int_t nEff : {op.cols, op.cols - 1, (op.cols + 1) / 2}) {
            if (nEff < 1) continue;
            const int_t ldd = op.rows + 1, ldo = op.cols + 2;
            const auto d = saltedD<Real>(nVars, ldd, seed);
            auto o1 = randomVec<Real>(static_cast<std::size_t>(nVars) * ldo, seed + 1);
            for (std::size_t i = 0; i < o1.size(); i += 3) o1[i] = Real(-0.0);
            auto o2 = o1;
            const auto f1 = scalar.rightDense(nVars, kEff, nEff, op.cols, d.data(),
                                              op.dense.data(), o1.data(), ldd, ldo);
            const auto f2 = vector.rightDense(nVars, kEff, nEff, op.cols, d.data(),
                                              op.dense.data(), o2.data(), ldd, ldo);
            EXPECT_EQ(f1, f2) << "rightDense W=1 flop parity";
            EXPECT_TRUE(bitwiseEqual(o1, o2))
                << "order " << order << " operator " << op.rows << "x" << op.cols << " nVars "
                << nVars << " kEff " << kEff << " nEff " << nEff;
            ++seed;
          }
    }
  }
}

/// W = 1 dense star through the same register-blocked kernel (the star
/// shape is the right shape with the operands' roles swapped): the
/// Jacobian (9 x 9) and anelastic coupling (6 x 9, 9 x 6) shapes over
/// every column count the orders 1-6 produce, with zero, -0.0 and
/// subnormal operator entries, an all-zero operator row and -0.0-seeded
/// outputs.
template <typename Real>
void checkStarDenseW1(unsigned seed) {
  NGLTS_REQUIRE_VECTOR_BACKEND();
  const auto& scalar = nl::smallGemmOps<Real, 1>(KernelBackend::kScalar);
  const auto& vector = nl::smallGemmOps<Real, 1>(KernelBackend::kVector);
  const std::pair<int_t, int_t> shapes[] = {{9, 9}, {6, 9}, {9, 6}};
  for (const auto& [m, k] : shapes)
    for (const int_t nCols : {1, 3, 4, 6, 10, 15, 20, 21, 35, 56}) {
      const int_t ld = nCols + 3;
      const auto a = saltedD<Real>(m, k, seed);
      const auto d = randomVec<Real>(static_cast<std::size_t>(k) * ld, seed + 1);
      auto o1 = randomVec<Real>(static_cast<std::size_t>(m) * ld, seed + 2);
      for (std::size_t i = 0; i < o1.size(); i += 3) o1[i] = Real(-0.0);
      auto o2 = o1;
      const auto f1 = scalar.starDense(m, k, nCols, ld, a.data(), d.data(), o1.data());
      const auto f2 = vector.starDense(m, k, nCols, ld, a.data(), d.data(), o2.data());
      EXPECT_EQ(f1, f2) << "starDense W=1 flop parity";
      EXPECT_TRUE(bitwiseEqual(o1, o2)) << m << "x" << k << " star, nCols " << nCols;
      ++seed;
    }
}

// Vectors wider than the baseline ISA pass by value in the splat test
// below; nothing leaves this file, so the ABI note is moot.
#if NGLTS_HAVE_VECTOR_KERNELS
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wpsabi"

template <typename Real, int Bytes>
void expectSplatKeepsBits() {
  using V = typename nl::vecdetail::VecT<Real, Bytes>::type;
  using U = std::conditional_t<sizeof(Real) == 8, std::uint64_t, std::uint32_t>;
  constexpr int kLanes = Bytes / static_cast<int>(sizeof(Real));
  const U nanPayload = sizeof(Real) == 8 ? U(0x7ff80000deadbeefull) : U(0x7fc0beefu);
  const U negNan = sizeof(Real) == 8 ? U(0xfff8000000000123ull) : U(0xffc00123u);
  Real nan1, nan2;
  std::memcpy(&nan1, &nanPayload, sizeof nan1);
  std::memcpy(&nan2, &negNan, sizeof nan2);
  using lim = std::numeric_limits<Real>;
  for (const Real s : {Real(-0.0), Real(0), nan1, nan2, lim::denorm_min(), -lim::denorm_min(),
                       lim::min() - lim::denorm_min(), -lim::infinity(), Real(1.5)}) {
    const V v = nl::vecdetail::splat<V, Real>(s);
    Real lanes[kLanes];
    std::memcpy(lanes, &v, sizeof v);
    for (int i = 0; i < kLanes; ++i)
      EXPECT_EQ(std::memcmp(&lanes[i], &s, sizeof s), 0)
          << sizeof(Real) << "-byte lanes, " << Bytes << "-byte vector, lane " << i;
  }
}

#pragma GCC diagnostic pop
#endif // NGLTS_HAVE_VECTOR_KERNELS

} // namespace

TEST(KernelBackends, RightDenseW1OnOperatorsDouble) { checkRightDenseW1OnOperators<double>(31); }
TEST(KernelBackends, RightDenseW1OnOperatorsFloat) { checkRightDenseW1OnOperators<float>(32); }
TEST(KernelBackends, StarDenseW1Double) { checkStarDenseW1<double>(33); }
TEST(KernelBackends, StarDenseW1Float) { checkStarDenseW1<float>(34); }

/// The broadcast is a bit copy: -0.0, NaN payloads and subnormals survive in
/// every lane of every vector width the kernels use.
TEST(KernelBackends, SplatKeepsBitPatterns) {
#if NGLTS_HAVE_VECTOR_KERNELS
  expectSplatKeepsBits<double, 8>();
  expectSplatKeepsBits<double, 16>();
  expectSplatKeepsBits<double, 32>();
  expectSplatKeepsBits<double, 64>();
  expectSplatKeepsBits<float, 4>();
  expectSplatKeepsBits<float, 8>();
  expectSplatKeepsBits<float, 16>();
  expectSplatKeepsBits<float, 32>();
  expectSplatKeepsBits<float, 64>();
#else
  GTEST_SKIP() << "no vector kernels in this build";
#endif
}

// -- registry / resolution / parsing ----------------------------------------

TEST(KernelBackends, RegistryListsScalarAndVector) {
  const auto& reg = nl::kernelBackendRegistry();
  ASSERT_EQ(reg.size(), 2u);
  EXPECT_EQ(reg[0].id, KernelBackend::kScalar);
  EXPECT_STREQ(reg[0].name, "scalar");
  EXPECT_TRUE(reg[0].available);  // the reference backend always exists
  EXPECT_EQ(reg[1].id, KernelBackend::kVector);
  EXPECT_STREQ(reg[1].name, "vector");
  for (const auto& info : reg) EXPECT_FALSE(std::string(info.description).empty());
}

TEST(KernelBackends, ParseRoundTrips) {
  EXPECT_EQ(nl::parseKernelBackend("auto"), KernelBackend::kAuto);
  EXPECT_EQ(nl::parseKernelBackend("scalar"), KernelBackend::kScalar);
  EXPECT_EQ(nl::parseKernelBackend("vector"), KernelBackend::kVector);
  EXPECT_THROW(nl::parseKernelBackend("specialized"), std::invalid_argument);
  EXPECT_THROW(nl::parseKernelBackend("avx512"), std::invalid_argument);
  EXPECT_THROW(nl::parseKernelBackend(""), std::invalid_argument);
  for (auto b : {KernelBackend::kAuto, KernelBackend::kScalar, KernelBackend::kVector})
    EXPECT_EQ(nl::parseKernelBackend(nl::kernelBackendName(b)), b);
}

TEST(KernelBackends, ResolutionNeverReturnsAuto) {
  EXPECT_EQ(nl::resolveKernelBackend(KernelBackend::kScalar), KernelBackend::kScalar);
  const KernelBackend autoPick = nl::resolveKernelBackend(KernelBackend::kAuto);
  EXPECT_NE(autoPick, KernelBackend::kAuto);
  // On GCC/Clang builds the vector kernels are compiled in; auto must pick
  // them whenever the CPU reports any SIMD, and an explicit vector request
  // must then resolve (not fall back, not throw).
  if (nl::vectorBackendCompiled() && nl::detectCpuSimd().any()) {
    EXPECT_EQ(autoPick, KernelBackend::kVector);
    EXPECT_EQ(nl::resolveKernelBackend(KernelBackend::kVector), KernelBackend::kVector);
    EXPECT_EQ(nl::resolvedKernelBackendLabel(KernelBackend::kVector).rfind("vector(", 0), 0u);
  }
}

TEST(KernelBackends, DetectionIsStableAndLabelled) {
  const auto& simd = nl::detectCpuSimd();
  EXPECT_EQ(&simd, &nl::detectCpuSimd());  // cached
  EXPECT_EQ(simd.any(), std::string(simd.isa) != "none");
  EXPECT_EQ(nl::resolvedKernelBackendLabel(KernelBackend::kScalar), "scalar");
}

// -- fused-width CSR kernels on the real DG operators -----------------------

namespace {

/// The generic-geometry star pattern (union over directions of the elastic
/// Jacobian patterns) with pattern-preserving random values.
nl::Matrix elasticStarUnion(unsigned seed) {
  const np::Material mat = np::elasticMaterial(2700.0, 6000.0, 3464.0);
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> uni(0.1, 2.0);
  nl::Matrix u(nglts::kElasticVars, nglts::kElasticVars);
  for (int_t d = 0; d < 3; ++d) {
    const nl::Matrix j = np::elasticJacobian(mat, d);
    for (int_t r = 0; r < nglts::kElasticVars; ++r)
      for (int_t c = 0; c < nglts::kElasticVars; ++c)
        if (j(r, c) != 0.0 && u(r, c) == 0.0) u(r, c) = uni(rng);
  }
  return u;
}

/// Vector vs scalar CSR right-multiply on the stiffness and CK operators
/// of orders 3/4 at a fused width: bitwise-identical outputs and identical
/// analytic flop counts, including the runtime kEff trim (and its clamp
/// past b.rows).
template <typename Real, int W>
void checkRightCsrOnOperators(unsigned seed) {
  NGLTS_REQUIRE_VECTOR_BACKEND();
  const auto& scalar = nl::smallGemmOps<Real, W>(KernelBackend::kScalar);
  const auto& vector = nl::smallGemmOps<Real, W>(KernelBackend::kVector);
  for (const int_t order : {int_t(3), int_t(4)}) {
    const auto gm = nglts::basis::buildGlobalMatrices(order);
    for (const nl::Matrix* m : {&gm->kXi[0], &gm->gXi[1]}) {
      const auto csr = nl::toCsr<Real>(*m);
      const int_t nVars = 9, ldd = csr.rows + 3, ldo = csr.cols + 2;
      for (const int_t kEff : {csr.rows, csr.rows / 2, csr.rows + 5}) {
        const auto d =
            randomVec<Real>(static_cast<std::size_t>(nVars) * ldd * W, seed, 0.2);
        auto o1 = randomVec<Real>(static_cast<std::size_t>(nVars) * ldo * W, seed + 1);
        auto o2 = o1;
        const auto f1 = scalar.rightCsr(nVars, kEff, csr, d.data(), o1.data(), ldd, ldo);
        const auto f2 = vector.rightCsr(nVars, kEff, csr, d.data(), o2.data(), ldd, ldo);
        EXPECT_EQ(f1, f2) << "flop parity, order " << order << " kEff " << kEff;
        EXPECT_TRUE(bitwiseEqual(o1, o2))
            << "order " << order << " W " << W << " kEff " << kEff;
        ++seed;
      }
    }
  }
}

/// Vector vs scalar CSR star on the elastic union pattern, with both an
/// even and an odd (tail-bearing) column count.
template <typename Real, int W>
void checkStarCsrOnUnion(unsigned seed) {
  NGLTS_REQUIRE_VECTOR_BACKEND();
  const auto& scalar = nl::smallGemmOps<Real, W>(KernelBackend::kScalar);
  const auto& vector = nl::smallGemmOps<Real, W>(KernelBackend::kVector);
  const auto csr = nl::toCsr<Real>(elasticStarUnion(seed));
  for (const int_t nCols : {int_t(20), int_t(13)}) {
    const int_t ld = nCols + 4;
    const auto d = randomVec<Real>(static_cast<std::size_t>(csr.cols) * ld * W, seed + 1);
    auto o1 = randomVec<Real>(static_cast<std::size_t>(csr.rows) * ld * W, seed + 2);
    auto o2 = o1;
    const auto f1 = scalar.starCsr(csr, nCols, ld, d.data(), o1.data());
    const auto f2 = vector.starCsr(csr, nCols, ld, d.data(), o2.data());
    EXPECT_EQ(f1, f2) << "star flop parity, nCols " << nCols;
    EXPECT_TRUE(bitwiseEqual(o1, o2)) << "star W " << W << " nCols " << nCols;
  }
}

} // namespace

TEST(KernelBackends, RightCsrOnOperatorsDoubleW2) { checkRightCsrOnOperators<double, 2>(21); }
TEST(KernelBackends, RightCsrOnOperatorsDoubleW4) { checkRightCsrOnOperators<double, 4>(22); }
TEST(KernelBackends, RightCsrOnOperatorsFloatW8) { checkRightCsrOnOperators<float, 8>(23); }
TEST(KernelBackends, RightCsrOnOperatorsFloatW16) { checkRightCsrOnOperators<float, 16>(24); }
TEST(KernelBackends, StarCsrOnUnionDoubleW2) { checkStarCsrOnUnion<double, 2>(25); }
TEST(KernelBackends, StarCsrOnUnionFloatW8) { checkStarCsrOnUnion<float, 8>(26); }

// -- AderKernels-level equivalence ------------------------------------------

namespace {

struct BackendFixture {
  nm::TetMesh mesh;
  std::vector<nm::ElementGeometry> geo;
  std::vector<np::Material> mats;
  std::vector<nk::ElementData<double>> ed;

  BackendFixture() {
    nm::BoxSpec spec;
    spec.planes[0] = nm::uniformPlanes(0.0, 1.0, 3);
    spec.planes[1] = nm::uniformPlanes(0.0, 1.0, 3);
    spec.planes[2] = nm::uniformPlanes(0.0, 1.0, 3);
    spec.periodic = {true, true, true};
    spec.jitter = 0.15;
    mesh = nm::generateBox(spec);
    geo = nm::computeGeometry(mesh);
    mats.assign(mesh.numElements(), np::viscoElasticMaterial(2600.0, 4.0, 2.0, 120.0, 40.0,
                                                             /*mechanisms=*/3, 1.0));
    ed = nk::buildAllElementData<double>(mesh, geo, mats, 3);
  }
};

/// Full predictor + local update + neighbor update + compression under one
/// backend; returns (all outputs concatenated, total flops).
template <int W>
std::pair<std::vector<double>, std::uint64_t> runAderPipeline(const BackendFixture& f,
                                                              bool sparse,
                                                              KernelBackend backend) {
  nk::AderKernels<double, W> kern(4, 3, sparse, f.mats[0].omega, backend);
  EXPECT_NE(kern.backend(), KernelBackend::kAuto);
  auto s = kern.makeScratch();
  std::mt19937 rng(77);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  std::vector<double> q(kern.dofsPerElement());
  for (auto& v : q) v = uni(rng);
  std::vector<double> ti(kern.dofsPerElement(), 0.0), b1(kern.elasticDofsPerElement()),
      b2(b1.size()), b3(b1.size(), 0.25), stack(4 * b1.size()),
      neigh(b1.size()), face(kern.faceDataSize(), 0.0);
  for (auto& v : neigh) v = uni(rng);
  std::uint64_t flops = 0;
  flops += kern.timePredict(f.ed[0], q.data(), 1e-3, ti.data(), b1.data(), b2.data(), b3.data(),
                            true, s, stack.data());
  flops += kern.volumeAndLocalSurface(f.ed[0], ti.data(), q.data(), s);
  const auto& fi = f.mesh.faces[0][0];
  flops += kern.neighborContribution(f.ed[0], 0, fi.neighborFace, fi.perm, neigh.data(),
                                     q.data(), s);
  flops += kern.compressBuffer(0, fi.perm, neigh.data(), face.data());
  flops += kern.neighborContributionFaceLocal(f.ed[0], 0, face.data(), q.data(), s);
  flops += kern.integrateDerivStack(stack.data(), 1e-4, 2e-4, b2.data());
  kern.evalTaylorElastic(stack.data(), 5e-4, b1.data());

  std::vector<double> all;
  for (const auto* v : {&q, &ti, &b1, &b2, &b3, &face})
    all.insert(all.end(), v->begin(), v->end());
  return {all, flops};
}

} // namespace

TEST(KernelBackends, AderKernelsBitwiseAcrossBackends) {
  NGLTS_REQUIRE_VECTOR_BACKEND();
  const BackendFixture f;
  for (const bool sparse : {false, true}) {
    const auto [sOut, sFlops] = runAderPipeline<1>(f, sparse, KernelBackend::kScalar);
    const auto [vOut, vFlops] = runAderPipeline<1>(f, sparse, KernelBackend::kVector);
    EXPECT_EQ(sFlops, vFlops) << "flop parity, sparse=" << sparse;
    EXPECT_TRUE(bitwiseEqual(sOut, vOut)) << "sparse=" << sparse;
  }
  const auto [sOut2, sFlops2] = runAderPipeline<2>(f, true, KernelBackend::kScalar);
  const auto [vOut2, vFlops2] = runAderPipeline<2>(f, true, KernelBackend::kVector);
  EXPECT_EQ(sFlops2, vFlops2);
  EXPECT_TRUE(bitwiseEqual(sOut2, vOut2));
}

// -- end-to-end: quickstart seismogram per forced backend -------------------

TEST(KernelBackends, QuickstartSeismogramBitwiseAcrossBackends) {
  NGLTS_REQUIRE_VECTOR_BACKEND();
  nglts::cli::registerBuiltinScenarios();
  const auto* s = nglts::cli::ScenarioRegistry::instance().find("quickstart");
  ASSERT_NE(s, nullptr);
  auto runWith = [&](KernelBackend b) {
    nglts::cli::ScenarioOptions opts;
    opts.meshScale = 0.4;
    opts.order = 3;
    opts.endTime = 0.3;
    opts.quiet = true;
    opts.kernelBackend = b;
    return s->run(opts);
  };
  const auto scalarRun = runWith(KernelBackend::kScalar);
  const auto vectorRun = runWith(KernelBackend::kVector);
  const auto autoRun = runWith(KernelBackend::kAuto);
  ASSERT_FALSE(scalarRun.trace.empty());
  EXPECT_EQ(scalarRun.stats.flops, vectorRun.stats.flops) << "end-to-end flop parity";
  EXPECT_TRUE(bitwiseEqual(scalarRun.trace, vectorRun.trace));
  EXPECT_TRUE(bitwiseEqual(scalarRun.trace, autoRun.trace));
  // The summary records which backend produced the run (CI greps it).
  EXPECT_NE(scalarRun.summary.find("kernel backend: scalar"), std::string::npos);
  EXPECT_NE(vectorRun.summary.find("kernel backend: vector"), std::string::npos);
}
