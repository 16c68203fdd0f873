// Equivalence suite of the distributed path on the layered engine
// (ISSUE 3 headline, extended by ISSUE 8): for every scheme {gts, lts,
// baseline} x rank count {1, 2, 4} x fused width {1, 2, 4} x exchange mode
// {lockstep, overlapped}, the distributed run must be *bitwise identical*
// to the single-rank `Simulation` — seismograms and DOFs — and the raw
// 9 x B payloads must agree with the compressed 9 x F payloads to
// round-off. The distributed engine runs the same kernels over the same
// schedule with the same neighbor values, so no tolerance is needed
// against the reference; any drift is a protocol bug. The overlapped
// exchange splits each cluster op into halo-boundary and interior subsets
// (src/parallel/exchange.cpp) — identical element updates in a different
// issue order, so it must stay bitwise too.
#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "mesh/box_gen.hpp"
#include "parallel/dist_sim.hpp"
#include "physics/attenuation.hpp"
#include "solver/simulation.hpp"

namespace ns = nglts::solver;
namespace npar = nglts::parallel;
namespace nm = nglts::mesh;
namespace np = nglts::physics;
namespace nsei = nglts::seismo;
using nglts::idx_t;
using nglts::int_t;

namespace {

struct Fixture {
  nm::TetMesh mesh;
  std::vector<np::Material> mats;
};

/// Small two-velocity-layer box with genuine multi-cluster LTS behaviour
/// (the quickstart setting, shrunk to test size).
Fixture makeFixture(int_t mechanisms, idx_t n = 4) {
  Fixture f;
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[1] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[2] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.jitter = 0.18;
  spec.freeSurfaceTop = true;
  f.mesh = nm::generateBox(spec);
  f.mats.resize(f.mesh.numElements());
  for (idx_t e = 0; e < f.mesh.numElements(); ++e) {
    const double vs = f.mesh.centroid(e)[2] > 500.0 ? 400.0 : 1600.0;
    if (mechanisms > 0)
      f.mats[e] = np::viscoElasticMaterial(2600.0, vs * std::sqrt(3.0), vs, 120.0, 40.0,
                                           mechanisms, 0.6);
    else
      f.mats[e] = np::elasticMaterial(2600.0, vs * std::sqrt(3.0), vs);
  }
  return f;
}

ns::SimConfig makeCfg(ns::TimeScheme scheme, int_t mechanisms) {
  ns::SimConfig cfg;
  cfg.order = 3;
  cfg.mechanisms = mechanisms;
  cfg.scheme = scheme;
  cfg.numClusters = 3;
  cfg.lambda = 1.0;
  cfg.attenuationFreq = 0.6;
  return cfg;
}

std::vector<int_t> stripePartition(const nm::TetMesh& mesh, int_t parts) {
  std::vector<int_t> p(mesh.numElements());
  for (idx_t e = 0; e < mesh.numElements(); ++e) {
    const int_t s = static_cast<int_t>(mesh.centroid(e)[0] / 1000.0 * parts);
    p[e] = std::min(parts - 1, std::max<int_t>(0, s));
  }
  return p;
}

void initWave(const std::array<double, 3>& x, int_t, double* q9) {
  for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
  const double r2 = (x[0] - 450.0) * (x[0] - 450.0) + (x[1] - 500.0) * (x[1] - 500.0) +
                    (x[2] - 500.0) * (x[2] - 500.0);
  q9[nglts::kVelU] = std::exp(-r2 / (200.0 * 200.0));
}

template <typename Sim, int W>
void addSetup(Sim& sim) {
  std::vector<double> laneScale(W);
  for (int w = 0; w < W; ++w) laneScale[w] = 1.0 + 1.5 * w; // lanes must differ
  auto stf = std::make_shared<nsei::RickerWavelet>(0.6, 0.5);
  sim.addPointSource(
      nsei::momentTensorSource({510.0, 480.0, 350.0}, {0, 0, 0, 1e9, 0, 0}, stf), laneScale);
  ASSERT_GE(sim.addReceiver({760.0, 730.0, 930.0}), 0);
}

template <typename SimA, typename SimB>
void expectBitwiseSeismograms(const SimA& a, const SimB& b, int_t lanes) {
  for (int_t lane = 0; lane < lanes; ++lane) {
    const nsei::Seismogram& ta = a.receiver(0).traces[lane];
    const nsei::Seismogram& tb = b.receiver(0).traces[lane];
    ASSERT_GT(ta.size(), 0u) << "reference recorded nothing";
    ASSERT_EQ(ta.size(), tb.size()) << "lane " << lane;
    for (std::size_t i = 0; i < ta.size(); ++i) {
      ASSERT_EQ(ta.times[i], tb.times[i]) << "lane " << lane << " sample " << i;
      for (int_t v = 0; v < nglts::kElasticVars; ++v)
        ASSERT_EQ(ta.values[i][v], tb.values[i][v])
            << "lane " << lane << " sample " << i << " quantity " << v;
    }
  }
}

/// Reference vs distributed run, compressed payloads: bitwise. Templated
/// on the arithmetic type so the W=4 instantiations are covered in both
/// precisions (ISSUE 8 satellite), and parameterized on transport and
/// exchange mode so the overlapped path is held to the same bitwise gate
/// as the lockstep reference.
template <typename Real, int W>
void runEquivalence(ns::TimeScheme scheme, int_t nRanks, int_t mechanisms,
                    npar::Transport transport = npar::Transport::kSeq, bool overlap = false) {
  const double tEnd = 0.2;
  Fixture f = makeFixture(mechanisms);
  const ns::SimConfig cfg = makeCfg(scheme, mechanisms);

  ns::Simulation<Real, W> ref(f.mesh, f.mats, cfg);
  addSetup<ns::Simulation<Real, W>, W>(ref);
  ref.setInitialCondition(initWave);
  ref.run(tEnd);

  npar::DistConfig dcfg;
  dcfg.sim = cfg;
  dcfg.compressFaces = true;
  dcfg.transport = transport;
  dcfg.overlap = overlap;
  npar::DistributedSimulation<Real, W> dist(f.mesh, f.mats, stripePartition(f.mesh, nRanks),
                                            dcfg);
  ASSERT_EQ(dist.ranks(), nRanks);
  addSetup<npar::DistributedSimulation<Real, W>, W>(dist);
  dist.setInitialCondition(initWave);
  dist.run(tEnd);

  expectBitwiseSeismograms(ref, dist, W);
  for (idx_t e = 0; e < f.mesh.numElements(); ++e) {
    const Real* a = ref.dofs(e);
    const Real* b = dist.dofs(e);
    for (std::size_t i = 0; i < ref.kernels().dofsPerElement(); ++i)
      ASSERT_EQ(a[i], b[i]) << "element " << e << " dof " << i;
  }
}

} // namespace

class DistEquivalence
    : public ::testing::TestWithParam<std::tuple<ns::TimeScheme, int_t>> {};

TEST_P(DistEquivalence, BitwiseVsSingleRank) {
  const auto [scheme, ranks] = GetParam();
  runEquivalence<double, 1>(scheme, ranks, /*mechanisms=*/0);
}

TEST_P(DistEquivalence, BitwiseVsSingleRankFusedW2) {
  const auto [scheme, ranks] = GetParam();
  runEquivalence<double, 2>(scheme, ranks, /*mechanisms=*/0);
}

TEST_P(DistEquivalence, OverlapBitwiseVsSingleRank) {
  // Overlapped exchange (boundary compute -> send -> interior compute /
  // interior compute -> recv -> boundary compute) against the plain
  // single-rank solver: the split issue order must not change one bit.
  const auto [scheme, ranks] = GetParam();
  runEquivalence<double, 1>(scheme, ranks, /*mechanisms=*/0, npar::Transport::kSeq,
                            /*overlap=*/true);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByRanks, DistEquivalence,
    ::testing::Combine(::testing::Values(ns::TimeScheme::kGts, ns::TimeScheme::kLtsNextGen,
                                         ns::TimeScheme::kLtsBaseline),
                       ::testing::Values<int_t>(1, 2, 4)),
    [](const ::testing::TestParamInfo<DistEquivalence::ParamType>& info) {
      const char* scheme = std::get<0>(info.param) == ns::TimeScheme::kGts ? "gts"
                           : std::get<0>(info.param) == ns::TimeScheme::kLtsNextGen
                               ? "lts"
                               : "baseline";
      return std::string(scheme) + "_x" + std::to_string(std::get<1>(info.param)) + "ranks";
    });

TEST(DistEquivalenceExtra, AnelasticBitwiseVsSingleRank) {
  runEquivalence<double, 1>(ns::TimeScheme::kLtsNextGen, 2, /*mechanisms=*/3);
}

// ISSUE 8 satellite: the W=4 explicit instantiations were missing from the
// distributed layer even though the executor, policies and `Simulation`
// all carry them — these two tests pin the full W=4 path (both precisions)
// to the single-rank reference so the gap cannot reopen.
TEST(DistEquivalenceExtra, FusedW4DoubleBitwiseVsSingleRank) {
  runEquivalence<double, 4>(ns::TimeScheme::kLtsNextGen, 2, /*mechanisms=*/0);
}

TEST(DistEquivalenceExtra, FusedW4FloatBitwiseVsSingleRank) {
  runEquivalence<float, 4>(ns::TimeScheme::kLtsNextGen, 2, /*mechanisms=*/0);
}

TEST(DistEquivalenceExtra, FusedW4FloatOverlapBitwiseVsSingleRank) {
  runEquivalence<float, 4>(ns::TimeScheme::kLtsNextGen, 4, /*mechanisms=*/0,
                           npar::Transport::kSeq, /*overlap=*/true);
}

TEST(DistEquivalenceExtra, AnelasticOverlapThreadTransportBitwise) {
  // The hardest protocol combination: anelastic payload extension + thread
  // transport + overlapped exchange, still bitwise against the single-rank
  // solver.
  runEquivalence<double, 1>(ns::TimeScheme::kLtsNextGen, 4, /*mechanisms=*/3,
                            npar::Transport::kThread, /*overlap=*/true);
}

TEST(DistEquivalenceExtra, BaselineOverlapThreadTransportBitwise) {
  // The baseline scheme ships trimmed derivative stacks instead of buffers;
  // its overlapped thread-transport run must hit the same bitwise gate.
  runEquivalence<double, 1>(ns::TimeScheme::kLtsBaseline, 4, /*mechanisms=*/0,
                            npar::Transport::kThread, /*overlap=*/true);
}

TEST(DistEquivalenceExtra, RawMatchesCompressedToRoundOff) {
  // Raw 9 x B vs sender-compressed 9 x F payloads: both reproduce the
  // shared-memory arithmetic exactly, so they agree far below round-off of
  // the solution scale (the assert allows round-off as per Sec. V-C).
  const double tEnd = 0.2;
  Fixture f = makeFixture(/*mechanisms=*/3);
  const ns::SimConfig cfg = makeCfg(ns::TimeScheme::kLtsNextGen, 3);
  const auto part = stripePartition(f.mesh, 3);

  auto runMode = [&](bool compress) {
    npar::DistConfig dcfg;
    dcfg.sim = cfg;
    dcfg.compressFaces = compress;
    npar::DistributedSimulation<double, 1> sim(f.mesh, f.mats, part, dcfg);
    sim.setInitialCondition(initWave);
    sim.run(tEnd);
    std::vector<double> out;
    for (idx_t e = 0; e < f.mesh.numElements(); ++e) {
      const double* q = sim.dofs(e);
      out.insert(out.end(), q, q + 90);
    }
    return out;
  };
  const auto raw = runMode(false);
  const auto compressed = runMode(true);
  double worst = 0.0, scale = 0.0;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    worst = std::max(worst, std::fabs(raw[i] - compressed[i]));
    scale = std::max(scale, std::fabs(raw[i]));
  }
  ASSERT_GT(scale, 0.0);
  EXPECT_LE(worst, 1e-12 * scale);
}

TEST(DistEquivalenceExtra, ThreadedMatchesSequentialBitwise) {
  // ThreadComm interleaving must not change any element's update order, so
  // the per-rank-thread run is bitwise equal to the SeqComm lockstep.
  const double tEnd = 0.2;
  Fixture f = makeFixture(/*mechanisms=*/0);
  const ns::SimConfig cfg = makeCfg(ns::TimeScheme::kLtsNextGen, 0);
  const auto part = stripePartition(f.mesh, 4);

  auto runMode = [&](npar::Transport transport) {
    npar::DistConfig dcfg;
    dcfg.sim = cfg;
    dcfg.transport = transport;
    npar::DistributedSimulation<double, 1> sim(f.mesh, f.mats, part, dcfg);
    sim.setInitialCondition(initWave);
    sim.run(tEnd);
    std::vector<double> out;
    for (idx_t e = 0; e < f.mesh.numElements(); ++e) {
      const double* q = sim.dofs(e);
      out.insert(out.end(), q, q + 90);
    }
    return out;
  };
  const auto seq = runMode(npar::Transport::kSeq);
  const auto thr = runMode(npar::Transport::kThread);
  ASSERT_EQ(seq.size(), thr.size());
  for (std::size_t i = 0; i < seq.size(); ++i) ASSERT_EQ(seq[i], thr[i]) << "dof " << i;
}
