// The cluster-contiguous solver arena (solver/state.hpp): permutation
// round-trip of the external <-> internal id maps, the cluster-contiguity
// invariant of the internal layout, the neighbor-packing property of
// partition::buildClusterReordering, and permutation invariance: the same
// mesh with its elements in a shuffled order lands in a different arena
// layout but yields bitwise-identical seismograms and DOFs (addressed by
// external id) for every scheme and on two ranks — the layout never
// changes operand order, only where the operands live.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <random>

#include "mesh/box_gen.hpp"
#include "parallel/dist_sim.hpp"
#include "partition/reorder.hpp"
#include "physics/attenuation.hpp"
#include "solver/simulation.hpp"

namespace ns = nglts::solver;
namespace nm = nglts::mesh;
namespace np = nglts::physics;
namespace nsei = nglts::seismo;
namespace npar = nglts::parallel;
namespace npart = nglts::partition;
using nglts::idx_t;
using nglts::int_t;

namespace {

struct Box {
  nm::TetMesh mesh;
  std::vector<np::Material> mats;
};

/// Two-velocity-layer box (miniature LOH-style setting) that yields a
/// genuine multi-cluster clustering.
Box makeBox(idx_t n = 5) {
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[1] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[2] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.jitter = 0.18;
  spec.freeSurfaceTop = true;
  Box box{nm::generateBox(spec), {}};
  box.mats.resize(box.mesh.numElements());
  for (idx_t e = 0; e < box.mesh.numElements(); ++e) {
    const double vs = box.mesh.centroid(e)[2] > 500.0 ? 400.0 : 1600.0;
    box.mats[e] = np::elasticMaterial(2600.0, vs * std::sqrt(3.0), vs);
  }
  return box;
}

ns::SimConfig makeCfg(ns::TimeScheme scheme, int_t numClusters) {
  ns::SimConfig cfg;
  cfg.order = 3;
  cfg.scheme = scheme;
  cfg.numClusters = numClusters;
  return cfg;
}

ns::Simulation<double, 1> makeSim(ns::TimeScheme scheme, int_t numClusters) {
  Box box = makeBox();
  return ns::Simulation<double, 1>(std::move(box.mesh), std::move(box.mats),
                                   makeCfg(scheme, numClusters));
}

/// The same box with its elements in a seeded shuffled order: element
/// records and their faces move, neighbor ids are remapped, vertices stay.
/// `perm.newId[e]` is the shuffled id of original element e.
struct ShuffledBox {
  Box box;
  npart::Reordering perm;
};

ShuffledBox shuffleElements(const Box& box, unsigned seed) {
  const idx_t n = box.mesh.numElements();
  npart::Reordering r;
  r.oldId.resize(n);
  std::iota(r.oldId.begin(), r.oldId.end(), idx_t{0});
  std::shuffle(r.oldId.begin(), r.oldId.end(), std::mt19937(seed));
  r.newId.resize(n);
  for (idx_t e = 0; e < n; ++e) r.newId[r.oldId[e]] = e;
  ShuffledBox out{{npart::applyReordering(box.mesh, r), npart::permute(box.mats, r)}, r};
  nm::checkConnectivity(out.box.mesh);
  return out;
}

template <typename Sim>
void addSourceAndReceiver(Sim& sim) {
  auto stf = std::make_shared<nsei::RickerWavelet>(0.6, 2.0);
  sim.addPointSource(
      nsei::momentTensorSource({510.0, 480.0, 350.0}, {0, 0, 0, 1e9, 0, 0}, stf));
  ASSERT_GE(sim.addReceiver({760.0, 730.0, 930.0}), 0);
}

} // namespace

TEST(StateReorder, PermutationRoundTrip) {
  auto sim = makeSim(ns::TimeScheme::kLtsNextGen, 3);
  const auto& st = sim.state();
  const idx_t n = st.numElements();
  ASSERT_EQ(n, sim.meshRef().numElements());
  std::vector<char> hit(n, 0);
  for (idx_t ext = 0; ext < n; ++ext) {
    const idx_t in = st.toInternal(ext);
    ASSERT_GE(in, 0);
    ASSERT_LT(in, n);
    EXPECT_EQ(st.toExternal(in), ext);
    EXPECT_EQ(hit[in], 0) << "internal slot assigned twice";
    hit[in] = 1;
  }
}

TEST(StateReorder, ClustersAreContiguousRanges) {
  auto sim = makeSim(ns::TimeScheme::kLtsNextGen, 3);
  const auto& st = sim.state();

  // Ranges tile [0, n) and every element inside a range carries its
  // cluster's id.
  idx_t covered = 0;
  for (int_t c = 0; c < st.numClusters(); ++c) {
    EXPECT_EQ(st.clusterBegin(c), covered);
    for (idx_t el = st.clusterBegin(c); el < st.clusterEnd(c); ++el)
      ASSERT_EQ(st.clusterOf(el), c);
    covered = st.clusterEnd(c);
  }
  EXPECT_EQ(covered, st.numElements());

  // Range sizes agree with the clustering (per external cluster ids).
  const auto& clustering = sim.clustering();
  for (int_t c = 0; c < st.numClusters(); ++c)
    EXPECT_EQ(st.clusterEnd(c) - st.clusterBegin(c), clustering.clusterSize[c]);

  // The internal id of every external element lands inside its cluster's
  // range.
  for (idx_t ext = 0; ext < st.numElements(); ++ext) {
    const int_t c = clustering.cluster[ext];
    const idx_t in = st.toInternal(ext);
    EXPECT_GE(in, st.clusterBegin(c));
    EXPECT_LT(in, st.clusterEnd(c));
  }
}

TEST(StateReorder, BfsPacksNeighborsCloserThanStableSort) {
  // The BFS numbering must not do worse than the plain by-cluster stable
  // sort on the mean same-cluster neighbor distance (the quantity the
  // neighbor phase's cache behaviour depends on).
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1.0, 7);
  spec.planes[1] = nm::uniformPlanes(0.0, 1.0, 7);
  spec.planes[2] = nm::uniformPlanes(0.0, 1.0, 7);
  spec.jitter = 0.1;
  auto mesh = nm::generateBox(spec);
  // Synthetic two-cluster split along x.
  std::vector<int_t> cluster(mesh.numElements());
  for (idx_t e = 0; e < mesh.numElements(); ++e)
    cluster[e] = mesh.centroid(e)[0] > 0.5 ? 1 : 0;

  auto meanNeighborDistance = [&](const npart::Reordering& r) {
    double sum = 0.0;
    idx_t count = 0;
    for (idx_t e = 0; e < mesh.numElements(); ++e)
      for (int_t f = 0; f < 4; ++f) {
        const idx_t nb = mesh.faces[e][f].neighbor;
        if (nb < 0 || cluster[nb] != cluster[e]) continue;
        sum += std::abs(static_cast<double>(r.newId[e] - r.newId[nb]));
        ++count;
      }
    return sum / count;
  };

  const auto bfs = npart::buildClusterReordering(mesh, cluster, true);
  const auto sorted = npart::buildClusterReordering(mesh, cluster, false);
  EXPECT_LE(meanNeighborDistance(bfs), meanNeighborDistance(sorted));

  // Both are cluster-contiguous.
  for (const auto* r : {&bfs, &sorted}) {
    const auto perm = npart::permute(cluster, *r);
    EXPECT_NO_THROW(npart::clusterRanges(perm, 2));
  }
}

namespace {

/// Seismograms must agree bit for bit (memcmp: -0.0 and NaN payloads count).
void expectSameTrace(const nsei::Seismogram& a, const nsei::Seismogram& b) {
  ASSERT_EQ(a.times.size(), b.times.size());
  ASSERT_GT(a.times.size(), 0u);
  EXPECT_EQ(std::memcmp(a.times.data(), b.times.data(), a.times.size() * sizeof(double)), 0);
  EXPECT_EQ(std::memcmp(a.values.data(), b.values.data(),
                        a.values.size() * sizeof(a.values[0])),
            0);
}

/// `scheme` on the box and on its shuffled copy: the clustering follows the
/// elements, the arena layouts differ, and seismograms and DOFs agree bit
/// for bit by external id.
void expectShuffleInvariant(ns::TimeScheme scheme, int_t numClusters, double tEnd) {
  const Box box = makeBox();
  const ShuffledBox sh = shuffleElements(box, 20261020);
  const ns::SimConfig cfg = makeCfg(scheme, numClusters);
  ns::Simulation<double, 1> ref(box.mesh, box.mats, cfg);
  ns::Simulation<double, 1> shuf(sh.box.mesh, sh.box.mats, cfg);
  const idx_t n = box.mesh.numElements();

  ASSERT_EQ(ref.clustering().numClusters, shuf.clustering().numClusters);
  if (numClusters > 1) ASSERT_GT(ref.clustering().numClusters, 1);
  bool layoutMoved = false;
  for (idx_t e = 0; e < n; ++e) {
    const idx_t s = sh.perm.newId[e];
    ASSERT_EQ(ref.clustering().cluster[e], shuf.clustering().cluster[s]) << "element " << e;
    layoutMoved |= ref.state().toInternal(e) != shuf.state().toInternal(s);
  }
  EXPECT_TRUE(layoutMoved) << "the shuffle left every arena slot in place";

  addSourceAndReceiver(ref);
  addSourceAndReceiver(shuf);
  ref.run(tEnd);
  shuf.run(tEnd);

  expectSameTrace(ref.receiver(0).traces[0], shuf.receiver(0).traces[0]);
  const std::size_t bytes = ref.kernels().dofsPerElement() * sizeof(double);
  for (idx_t e = 0; e < n; ++e)
    ASSERT_EQ(std::memcmp(ref.dofs(e), shuf.dofs(sh.perm.newId[e]), bytes), 0)
        << "element " << e;
}

} // namespace

TEST(StateReorder, GtsBitwiseUnderElementShuffle) {
  expectShuffleInvariant(ns::TimeScheme::kGts, 1, 0.5);
}

TEST(StateReorder, LtsBitwiseUnderElementShuffle) {
  expectShuffleInvariant(ns::TimeScheme::kLtsNextGen, 3, 0.5);
}

TEST(StateReorder, BaselineBitwiseUnderElementShuffle) {
  // The buffer+derivative baseline scheme's neighbor phase reads whole
  // derivative-stack arena slices.
  expectShuffleInvariant(ns::TimeScheme::kLtsBaseline, 3, 0.3);
}

TEST(StateReorder, TwoRankLtsBitwiseUnderElementShuffle) {
  // Two ranks over the shuffled box against one rank over the original:
  // the rank-local halo views are built in the shuffled order too.
  const double tEnd = 0.3;
  const Box box = makeBox();
  const ShuffledBox sh = shuffleElements(box, 7);
  const ns::SimConfig cfg = makeCfg(ns::TimeScheme::kLtsNextGen, 3);
  ns::Simulation<double, 1> ref(box.mesh, box.mats, cfg);
  addSourceAndReceiver(ref);
  ref.run(tEnd);

  std::vector<int_t> part(sh.box.mesh.numElements());
  for (idx_t e = 0; e < sh.box.mesh.numElements(); ++e)
    part[e] = sh.box.mesh.centroid(e)[0] > 500.0 ? 1 : 0;
  npar::DistConfig dcfg;
  dcfg.sim = cfg;
  npar::DistributedSimulation<double, 1> dist(sh.box.mesh, sh.box.mats, part, dcfg);
  ASSERT_EQ(dist.ranks(), 2);
  addSourceAndReceiver(dist);
  dist.run(tEnd);

  expectSameTrace(ref.receiver(0).traces[0], dist.receiver(0).traces[0]);
  const std::size_t bytes = ref.kernels().dofsPerElement() * sizeof(double);
  for (idx_t e = 0; e < box.mesh.numElements(); ++e)
    ASSERT_EQ(std::memcmp(ref.dofs(e), dist.dofs(sh.perm.newId[e]), bytes), 0)
        << "element " << e;
}
