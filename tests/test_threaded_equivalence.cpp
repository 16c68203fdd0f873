// Equivalence suite of the thread-parallel StepExecutor: for every scheme
// {gts, lts, baseline} x thread count {2, 8} x fused width {1, 2}, the
// threaded run must be *bitwise identical* to the single-thread run —
// seismograms, DOFs and exact flop totals. The executor cuts every schedule
// op into `dynamicChunkCount(numThreads)` chunks of a pure chunk map and
// work-steals them whole; each element is updated by exactly one chunk with
// chunk-private scratch, so steal timing can never change a result and no
// tolerance is needed — any drift is a chunking/workspace bug. Also
// covered: adversarial steal timings injected through the executor's chunk-delay seam, the hybrid
// ranks x threads distributed run (lockstep and overlapped exchange) vs the
// 1-rank 1-thread reference, the steal scheduler's chunk-indivisibility
// property, and the numThreads validation.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <random>
#include <thread>
#include <tuple>

#include "mesh/box_gen.hpp"
#include "parallel/dist_sim.hpp"
#include "physics/attenuation.hpp"
#include "solver/simulation.hpp"
#include "solver/threading.hpp"

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

ns::SimConfig makeCfg(ns::TimeScheme scheme, int_t mechanisms, int_t threads) {
  ns::SimConfig cfg;
  cfg.order = 3;
  cfg.mechanisms = mechanisms;
  cfg.scheme = scheme;
  cfg.numClusters = 3;
  cfg.lambda = 1.0;
  cfg.attenuationFreq = 0.6;
  cfg.numThreads = threads;
  return cfg;
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

template <typename SimA, typename SimB>
void expectBitwiseDofs(const SimA& a, const SimB& b, idx_t numElements, std::size_t dofs) {
  for (idx_t e = 0; e < numElements; ++e) {
    const double* qa = a.dofs(e);
    const double* qb = b.dofs(e);
    for (std::size_t i = 0; i < dofs; ++i)
      ASSERT_EQ(qa[i], qb[i]) << "element " << e << " dof " << i;
  }
}

/// 1-thread reference vs `threads`-thread run of the same Simulation:
/// bitwise seismograms and DOFs, and exact flop parity (the per-chunk
/// uint64 counters sum to the same total whichever thread ran which chunk).
template <int W>
void runThreadEquivalence(ns::TimeScheme scheme, int_t threads, int_t mechanisms) {
  const double tEnd = 0.2;
  Fixture f = makeFixture(mechanisms);

  const ns::SimConfig refCfg = makeCfg(scheme, mechanisms, /*threads=*/1);
  ns::Simulation<double, W> ref(f.mesh, f.mats, refCfg);
  addSetup<ns::Simulation<double, W>, W>(ref);
  ref.setInitialCondition(initWave);
  const ns::PerfStats stRef = ref.run(tEnd);

  const ns::SimConfig thrCfg = makeCfg(scheme, mechanisms, threads);
  ns::Simulation<double, W> thr(f.mesh, f.mats, thrCfg);
  addSetup<ns::Simulation<double, W>, W>(thr);
  thr.setInitialCondition(initWave);
  const ns::PerfStats stThr = thr.run(tEnd);

  EXPECT_EQ(stRef.cycles, stThr.cycles);
  EXPECT_EQ(stRef.elementUpdates, stThr.elementUpdates);
  EXPECT_EQ(stRef.flops, stThr.flops) << "flop totals must match exactly";
  expectBitwiseSeismograms(ref, thr, W);
  expectBitwiseDofs(ref, thr, f.mesh.numElements(), ref.kernels().dofsPerElement());
}

} // namespace

class ThreadedEquivalence
    : public ::testing::TestWithParam<std::tuple<ns::TimeScheme, int_t>> {};

TEST_P(ThreadedEquivalence, BitwiseVsSingleThread) {
  const auto [scheme, threads] = GetParam();
  runThreadEquivalence<1>(scheme, threads, /*mechanisms=*/0);
}

TEST_P(ThreadedEquivalence, BitwiseVsSingleThreadFusedW2) {
  const auto [scheme, threads] = GetParam();
  runThreadEquivalence<2>(scheme, threads, /*mechanisms=*/0);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesByThreads, ThreadedEquivalence,
    ::testing::Combine(::testing::Values(ns::TimeScheme::kGts, ns::TimeScheme::kLtsNextGen,
                                         ns::TimeScheme::kLtsBaseline),
                       ::testing::Values<int_t>(2, 8)),
    [](const ::testing::TestParamInfo<ThreadedEquivalence::ParamType>& info) {
      const char* scheme = std::get<0>(info.param) == ns::TimeScheme::kGts ? "gts"
                           : std::get<0>(info.param) == ns::TimeScheme::kLtsNextGen
                               ? "lts"
                               : "baseline";
      return std::string(scheme) + "_x" + std::to_string(std::get<1>(info.param)) +
             "threads";
    });

TEST(ThreadedEquivalenceExtra, AnelasticBitwiseVsSingleThread) {
  runThreadEquivalence<1>(ns::TimeScheme::kLtsNextGen, 8, /*mechanisms=*/3);
}

TEST(ThreadedEquivalenceExtra, ThreadsExceedingElementsBitwise) {
  // 64 threads -> 256 chunks over clusters far smaller than that: empty
  // chunks (staticChunk yields empty ranges) and all-thief queues must be
  // harmless and the result bitwise.
  runThreadEquivalence<1>(ns::TimeScheme::kLtsNextGen, 64, /*mechanisms=*/0);
}

TEST(ThreadedEquivalenceStress, RandomizedStealTimingStaysBitwise) {
  // Adversarial steal timing: a per-chunk delay injected through the
  // executor's test seam perturbs which thread wins each claim race, across
  // N repeats with different pseudo-random delay patterns and thread
  // counts. Every repeat must reproduce the 1-thread reference bit for bit.
  const int_t kRepeats = 6;
  const std::uint64_t kCycles = 3;
  Fixture f = makeFixture(/*mechanisms=*/0);

  ns::Simulation<double, 1> ref(f.mesh, f.mats, makeCfg(ns::TimeScheme::kLtsNextGen, 0, 1));
  addSetup<ns::Simulation<double, 1>, 1>(ref);
  ref.setInitialCondition(initWave);
  const ns::PerfStats stRef = ref.runCycles(kCycles);

  for (int_t rep = 0; rep < kRepeats; ++rep) {
    const int_t threads = 2 + rep % 7;
    ns::Simulation<double, 1> thr(f.mesh, f.mats,
                                  makeCfg(ns::TimeScheme::kLtsNextGen, 0, threads));
    addSetup<ns::Simulation<double, 1>, 1>(thr);
    thr.setInitialCondition(initWave);
    // Stateless mixing of (repeat, chunk) into a 0..120 us sleep: the hook
    // runs concurrently on all threads, so it must not share mutable state.
    thr.setChunkDelayHook([rep](int_t chunk) {
      std::uint64_t h = static_cast<std::uint64_t>(chunk) * 0x9e3779b97f4a7c15ULL +
                        static_cast<std::uint64_t>(rep) * 0xbf58476d1ce4e5b9ULL;
      h ^= h >> 31;
      std::this_thread::sleep_for(std::chrono::microseconds(h % 121));
    });
    const ns::PerfStats stThr = thr.runCycles(kCycles);

    EXPECT_EQ(stRef.flops, stThr.flops) << "repeat " << rep;
    expectBitwiseSeismograms(ref, thr, 1);
    expectBitwiseDofs(ref, thr, f.mesh.numElements(), ref.kernels().dofsPerElement());
  }
}

TEST(ThreadedEquivalenceExtra, HybridRanksTimesThreadsBitwiseVs1x1) {
  // The executor's OpenMP teams nested inside ThreadComm rank threads
  // (--ranks x --threads) vs the 1-rank 1-thread shared-memory reference,
  // with the lockstep exchange and with --overlap (each op split into a
  // halo-boundary and an interior subset run, both multi-threaded).
  const double tEnd = 0.2;
  Fixture f = makeFixture(/*mechanisms=*/0);

  ns::Simulation<double, 1> ref(f.mesh, f.mats, makeCfg(ns::TimeScheme::kLtsNextGen, 0, 1));
  addSetup<ns::Simulation<double, 1>, 1>(ref);
  ref.setInitialCondition(initWave);
  ref.run(tEnd);

  std::vector<int_t> part(f.mesh.numElements());
  for (idx_t e = 0; e < f.mesh.numElements(); ++e)
    part[e] = f.mesh.centroid(e)[0] < 500.0 ? 0 : 1;
  for (const bool overlap : {false, true}) {
    SCOPED_TRACE(overlap ? "overlap" : "lockstep");
    npar::DistConfig dcfg;
    dcfg.sim = makeCfg(ns::TimeScheme::kLtsNextGen, 0, /*threads=*/2);
    dcfg.transport = npar::Transport::kThread; // rank threads, each with a 2-thread team
    dcfg.overlap = overlap;
    npar::DistributedSimulation<double, 1> dist(f.mesh, f.mats, part, dcfg);
    ASSERT_EQ(dist.ranks(), 2);
    addSetup<npar::DistributedSimulation<double, 1>, 1>(dist);
    dist.setInitialCondition(initWave);
    dist.run(tEnd);

    expectBitwiseSeismograms(ref, dist, 1);
    expectBitwiseDofs(ref, dist, f.mesh.numElements(), ref.kernels().dofsPerElement());
  }
}

TEST(ThreadedConfig, RejectsNonPositiveThreadCounts) {
  ns::SimConfig cfg = makeCfg(ns::TimeScheme::kGts, 0, 0);
  EXPECT_THROW(ns::validateSimConfig(cfg), std::invalid_argument);
  cfg.numThreads = -2;
  EXPECT_THROW(ns::validateSimConfig(cfg), std::invalid_argument);
  Fixture f = makeFixture(0, /*n=*/2);
  EXPECT_THROW((ns::Simulation<double, 1>(f.mesh, f.mats, cfg)), std::invalid_argument);
  cfg.numThreads = 1;
  EXPECT_NO_THROW(ns::validateSimConfig(cfg));
}

TEST(ThreadedConfig, ChunkIdsCoverEveryWorkspace) {
  // Every op is cut into exactly dynamicChunkCount(numThreads) chunks and
  // chunk c runs with workspace c: one cycle must deliver each chunk id in
  // [0, dynamicChunkCount(3)) to the delay seam, and no other.
  Fixture f = makeFixture(0, /*n=*/2);
  const int_t threads = 3;
  const int_t nChunks = ns::dynamicChunkCount(threads);
  EXPECT_EQ(nChunks, threads * ns::kStealChunksPerThread);
  ns::Simulation<double, 1> sim(f.mesh, f.mats, makeCfg(ns::TimeScheme::kGts, 0, threads));
  std::vector<std::atomic<int>> seen(nChunks + 1);
  sim.setChunkDelayHook([&](int_t chunk) {
    seen[chunk >= 0 && chunk < nChunks ? chunk : nChunks].fetch_add(1);
  });
  sim.runCycles(1);
  for (int_t c = 0; c < nChunks; ++c) EXPECT_GT(seen[c].load(), 0) << "chunk " << c;
  EXPECT_EQ(seen[nChunks].load(), 0) << "chunk id out of the workspace range";
}

TEST(ThreadedConfig, DynamicStealPermutesChunksButNeverSplitsOne) {
  // Chunk-indivisibility property of the work-stealing scheduler: for random
  // (range, numThreads), `stealChunks` may run the chunks in any sequence,
  // but every chunk id is delivered to `fn` exactly once (never split across
  // threads, never run twice), every element of the range is covered exactly
  // once, and a synthetic per-op flop count accumulated in per-chunk
  // counters matches the serial sum exactly — the same argument that keeps
  // the executor bitwise.
  std::mt19937 rng(987654u);
  for (int_t iter = 0; iter < 30; ++iter) {
    const idx_t begin = static_cast<idx_t>(rng() % 64);
    const idx_t n = static_cast<idx_t>(rng() % 1500);
    const int_t threads = 1 + static_cast<int_t>(rng() % 16);
    const int_t nChunks = ns::dynamicChunkCount(threads);

    auto flopOf = [](idx_t el) {
      return static_cast<std::uint64_t>(el) * 2654435761u + 17u;
    };

    std::vector<std::atomic<int>> runs(nChunks);
    std::vector<std::atomic<int>> hits(n > 0 ? n : 1);
    std::vector<std::uint64_t> chunkFlops(nChunks, 0); // written by the one owning thread
    std::vector<int_t> execOrder(nChunks, -1);
    std::atomic<int_t> execPos{0};

    ns::stealChunks(nChunks, threads, [&](int_t c) {
      execOrder[execPos.fetch_add(1)] = c;
      runs[c].fetch_add(1);
      const ns::ChunkRange r = ns::staticChunk(begin, begin + n, nChunks, c);
      for (idx_t el = r.begin; el < r.end; ++el) {
        hits[el - begin].fetch_add(1);
        chunkFlops[c] += flopOf(el);
      }
    });

    for (int_t c = 0; c < nChunks; ++c)
      ASSERT_EQ(runs[c].load(), 1) << "chunk " << c << " iter " << iter;
    for (idx_t e = 0; e < n; ++e)
      ASSERT_EQ(hits[e].load(), 1) << "element " << begin + e << " iter " << iter;
    // Execution order is a permutation of the chunk ids (steals reorder,
    // never drop or duplicate).
    ASSERT_EQ(execPos.load(), nChunks);
    std::vector<int_t> sortedExec = execOrder;
    std::sort(sortedExec.begin(), sortedExec.end());
    for (int_t c = 0; c < nChunks; ++c) ASSERT_EQ(sortedExec[c], c);
    // Exact flop parity with the serial accumulation (uint64 sums commute).
    std::uint64_t serial = 0, stolen = 0;
    for (idx_t el = begin; el < begin + n; ++el) serial += flopOf(el);
    for (std::uint64_t f : chunkFlops) stolen += f;
    ASSERT_EQ(stolen, serial) << "iter " << iter;
  }
}

TEST(ThreadedConfig, StaticChunkCoversRangeExactlyOnce) {
  // The chunk map partitions any range: concatenated chunks reproduce
  // [begin, end) in order, for teams larger and smaller than the range.
  for (idx_t n : {0, 1, 5, 64, 1000})
    for (int_t t : {1, 2, 3, 8, 64}) {
      idx_t expect = 17; // arbitrary non-zero begin
      for (int_t c = 0; c < t; ++c) {
        const ns::ChunkRange r = ns::staticChunk(17, 17 + n, t, c);
        EXPECT_EQ(r.begin, expect);
        EXPECT_LE(r.begin, r.end);
        expect = r.end;
      }
      EXPECT_EQ(expect, 17 + n);
    }
}
