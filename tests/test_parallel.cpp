#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <tuple>

#include "mesh/box_gen.hpp"
#include "parallel/comm.hpp"
#include "parallel/dist_sim.hpp"
#include "parallel/halo.hpp"
#include "physics/attenuation.hpp"
#include "solver/simulation.hpp"

namespace npar = nglts::parallel;
namespace nm = nglts::mesh;
namespace np = nglts::physics;
namespace ns = nglts::solver;
using nglts::idx_t;
using nglts::int_t;

TEST(Comm, SeqFifoOrder) {
  npar::SeqComm c(2);
  c.send(0, 1, 7, {1});
  c.send(0, 1, 7, {2});
  EXPECT_EQ(c.recv(1, 0, 7)[0], 1);
  EXPECT_EQ(c.recv(1, 0, 7)[0], 2);
  EXPECT_EQ(c.bytesSent(), 2u);
  EXPECT_EQ(c.messagesSent(), 2u);
}

TEST(Comm, ParseTransportRoundTrip) {
  EXPECT_EQ(npar::parseTransport("seq"), npar::Transport::kSeq);
  EXPECT_EQ(npar::parseTransport("thread"), npar::Transport::kThread);
  EXPECT_EQ(npar::parseTransport("mpi"), npar::Transport::kMpi);
  EXPECT_THROW(npar::parseTransport("tcp"), std::invalid_argument);
  EXPECT_EQ(npar::transportName(npar::Transport::kSeq), "seq");
  EXPECT_EQ(npar::transportName(npar::Transport::kThread), "thread");
  EXPECT_EQ(npar::transportName(npar::Transport::kMpi), "mpi");
}

TEST(Comm, MpiStubSingleProcessSemantics) {
  // Without NGLTS_WITH_MPI the stub must behave like a one-process world
  // (so root-only output guards stay transport-agnostic) and creating the
  // communicator must fail loudly, naming the CMake switch.
  if (npar::mpiSupport()) GTEST_SKIP() << "built with real MPI";
  npar::mpiInit(nullptr, nullptr); // documented no-op
  EXPECT_EQ(npar::mpiWorldRank(), 0);
  EXPECT_EQ(npar::mpiWorldSize(), 1);
  try {
    npar::makeMpiComm(1);
    FAIL() << "stub makeMpiComm must throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("NGLTS_WITH_MPI"), std::string::npos) << e.what();
  }
  npar::mpiFinalize(); // documented no-op
}

TEST(Comm, SeqMissingMessageThrows) {
  npar::SeqComm c(2);
  EXPECT_THROW(c.recv(1, 0, 3), std::runtime_error);
}

TEST(Comm, TagsIsolateChannels) {
  npar::SeqComm c(2);
  c.send(0, 1, 1, {10});
  c.send(0, 1, 2, {20});
  EXPECT_EQ(c.recv(1, 0, 2)[0], 20);
  EXPECT_EQ(c.recv(1, 0, 1)[0], 10);
}

TEST(Comm, ThreadBlockingRecv) {
  npar::ThreadComm c(2);
  std::thread producer([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    c.send(0, 1, 5, {42});
  });
  const auto msg = c.recv(1, 0, 5);
  producer.join();
  ASSERT_EQ(msg.size(), 1u);
  EXPECT_EQ(msg[0], 42);
}

TEST(Comm, ThreadFifoStressManyRanksSmallMessages) {
  // Many ranks, many small messages, randomized interleave via per-rank
  // yield loops: every (src, dst, tag) channel must deliver in FIFO order
  // and bytesSent() must account for every payload byte exactly once.
  const int_t ranks = 8;
  const int rounds = 40;
  const std::int64_t tags[] = {0, 7, 11};
  npar::ThreadComm comm(ranks);
  std::atomic<std::uint64_t> sentBytes{0};
  std::atomic<std::uint64_t> sentMessages{0};
  std::atomic<int> fifoViolations{0};

  std::vector<std::thread> threads;
  threads.reserve(ranks);
  for (int_t r = 0; r < ranks; ++r)
    threads.emplace_back([&, r] {
      std::mt19937 rng(1234u + static_cast<unsigned>(r));
      for (int k = 0; k < rounds; ++k) {
        // Send round k to every peer on every tag, yielding a random number
        // of times between sends to shuffle the global interleaving.
        for (int_t dst = 0; dst < ranks; ++dst) {
          if (dst == r) continue;
          for (std::int64_t tag : tags) {
            std::vector<std::uint8_t> msg(1 + static_cast<std::size_t>(rng() % 4),
                                          static_cast<std::uint8_t>(r));
            msg[0] = static_cast<std::uint8_t>(k); // sequence number
            sentBytes += msg.size();
            ++sentMessages;
            comm.send(r, dst, tag, std::move(msg));
            for (unsigned y = rng() % 4; y > 0; --y) std::this_thread::yield();
          }
        }
        // Receive round k from every peer; blocking receives interleave
        // with the other ranks' sends.
        for (int_t src = 0; src < ranks; ++src) {
          if (src == r) continue;
          for (std::int64_t tag : tags) {
            const auto msg = comm.recv(r, src, tag);
            if (msg.empty() || msg[0] != static_cast<std::uint8_t>(k)) ++fifoViolations;
            for (unsigned y = rng() % 3; y > 0; --y) std::this_thread::yield();
          }
        }
      }
    });
  for (auto& t : threads) t.join();
  EXPECT_EQ(fifoViolations.load(), 0);
  EXPECT_EQ(comm.bytesSent(), sentBytes.load());
  EXPECT_EQ(comm.messagesSent(), sentMessages.load());
}

namespace {

struct DistFixture {
  nm::TetMesh mesh;
  std::vector<np::Material> mats;
};

DistFixture makeFixture(idx_t n = 5) {
  DistFixture f;
  nm::BoxSpec spec;
  spec.planes[0] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[1] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.planes[2] = nm::uniformPlanes(0.0, 1000.0, n);
  spec.jitter = 0.18;
  f.mesh = nm::generateBox(spec);
  f.mats.resize(f.mesh.numElements());
  for (idx_t e = 0; e < f.mesh.numElements(); ++e) {
    const double vs = f.mesh.centroid(e)[2] > 500.0 ? 400.0 : 1600.0;
    f.mats[e] = np::elasticMaterial(2600.0, vs * std::sqrt(3.0), vs);
  }
  return f;
}

std::vector<int_t> stripePartition(const nm::TetMesh& mesh, int_t parts, double extent) {
  std::vector<int_t> p(mesh.numElements());
  for (idx_t e = 0; e < mesh.numElements(); ++e) {
    const int_t s = static_cast<int_t>(mesh.centroid(e)[0] / extent * parts);
    p[e] = std::min(parts - 1, s);
  }
  return p;
}

void initWave(double x0, const std::array<double, 3>& x, double* q9) {
  for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
  const double r2 = (x[0] - x0) * (x[0] - x0) + (x[1] - 500.0) * (x[1] - 500.0) +
                    (x[2] - 500.0) * (x[2] - 500.0);
  q9[nglts::kVelU] = std::exp(-r2 / (200.0 * 200.0));
}

npar::DistConfig makeDistConfig(bool compress = true,
                                npar::Transport transport = npar::Transport::kSeq) {
  npar::DistConfig cfg;
  cfg.sim.order = 3;
  cfg.sim.scheme = ns::TimeScheme::kLtsNextGen;
  cfg.sim.numClusters = 3;
  cfg.compressFaces = compress;
  cfg.transport = transport;
  return cfg;
}

template <typename Real>
std::vector<Real> runDistributed(int_t ranks, bool compress, npar::Transport transport,
                                 std::uint64_t* bytes = nullptr,
                                 std::uint64_t* messages = nullptr, bool overlap = false) {
  DistFixture f = makeFixture();
  const auto part = stripePartition(f.mesh, ranks, 1000.0);
  npar::DistConfig cfg = makeDistConfig(compress, transport);
  cfg.overlap = overlap;
  npar::DistributedSimulation<Real, 1> sim(f.mesh, f.mats, part, cfg);
  sim.setInitialCondition(
      [](const std::array<double, 3>& x, int_t, double* q9) { initWave(450.0, x, q9); });
  const auto st = sim.run(0.3);
  if (bytes) *bytes = st.commBytes;
  if (messages) *messages = st.messages;
  std::vector<Real> out;
  for (idx_t e = 0; e < f.mesh.numElements(); ++e) {
    const Real* q = sim.dofs(e);
    out.insert(out.end(), q, q + 10 * 9); // leading block is plenty
  }
  return out;
}

// Adversarial wrapper around ThreadComm, injected through
// DistConfig::commFactory: every send carries a per-channel sequence number
// and is forwarded only after a pseudo-random backoff, shuffling the global
// interleaving the overlapped exchange observes; every recv verifies its
// channel's sequence number. Zero violations means the engine relies only
// on the per-(src, dst, tag) FIFO the Communicator contract guarantees,
// never on cross-channel ordering or send/compute timing.
class JitterComm final : public npar::Communicator {
 public:
  explicit JitterComm(int_t ranks) : Communicator(ranks), inner_(ranks) {}

  void send(int_t from, int_t to, std::int64_t tag, std::vector<std::uint8_t> data) override {
    std::uint64_t seq;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      seq = nextSend_[std::make_tuple(from, to, tag)]++;
    }
    std::vector<std::uint8_t> framed(8 + data.size());
    for (int b = 0; b < 8; ++b) framed[b] = static_cast<std::uint8_t>(seq >> (8 * b));
    std::copy(data.begin(), data.end(), framed.begin() + 8);
    // Delay the forward by a payload-dependent amount. Per-channel order is
    // still FIFO (each rank sends from one thread), but the global
    // interleaving across channels and against compute is scrambled.
    std::uint64_t h = (seq * 0x9e3779b97f4a7c15ULL) ^ static_cast<std::uint64_t>(tag);
    h ^= h >> 33;
    for (unsigned y = static_cast<unsigned>(h % 5); y > 0; --y) std::this_thread::yield();
    if (h % 7 == 0) std::this_thread::sleep_for(std::chrono::microseconds(50));
    inner_.send(from, to, tag, std::move(framed));
  }

  std::vector<std::uint8_t> recv(int_t to, int_t from, std::int64_t tag) override {
    auto framed = inner_.recv(to, from, tag);
    if (framed.size() < 8) {
      ++violations_;
      return framed;
    }
    std::uint64_t seq = 0;
    for (int b = 0; b < 8; ++b) seq |= static_cast<std::uint64_t>(framed[b]) << (8 * b);
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (seq != nextRecv_[std::make_tuple(from, to, tag)]++) ++violations_;
    }
    return std::vector<std::uint8_t>(framed.begin() + 8, framed.end());
  }

  std::uint64_t bytesSent() const override { return inner_.bytesSent(); }
  std::uint64_t messagesSent() const override { return inner_.messagesSent(); }
  int violations() const { return violations_.load(); }

 private:
  npar::ThreadComm inner_;
  std::mutex mutex_;
  std::map<std::tuple<int_t, int_t, std::int64_t>, std::uint64_t> nextSend_;
  std::map<std::tuple<int_t, int_t, std::int64_t>, std::uint64_t> nextRecv_;
  std::atomic<int> violations_{0};
};

} // namespace

TEST(DistributedSim, SingleRankMatchesMultiRankBitwise) {
  std::uint64_t bytes = 0, messages = 0;
  const auto one = runDistributed<double>(1, true, npar::Transport::kSeq);
  const auto four = runDistributed<double>(4, true, npar::Transport::kSeq, &bytes, &messages);
  ASSERT_EQ(one.size(), four.size());
  for (std::size_t i = 0; i < one.size(); ++i) ASSERT_EQ(one[i], four[i]) << "dof " << i;
  EXPECT_GT(bytes, 0u);
  EXPECT_GT(messages, 0u);
}

TEST(DistributedSim, FloatEngineMatchesSharedMemoryBitwise) {
  // Single-precision rank engines must also be bitwise equal to the
  // shared-memory solver (same kernels, same neighbor values).
  DistFixture f = makeFixture();
  ns::SimConfig scfg = makeDistConfig().sim;
  ns::Simulation<float, 1> ref(f.mesh, f.mats, scfg);
  ref.setInitialCondition(
      [](const std::array<double, 3>& x, int_t, double* q9) { initWave(450.0, x, q9); });
  ref.run(0.3);

  const auto dist = runDistributed<float>(4, true, npar::Transport::kSeq);
  std::size_t i = 0;
  for (idx_t e = 0; e < f.mesh.numElements(); ++e) {
    const float* q = ref.dofs(e);
    for (int_t j = 0; j < 90; ++j, ++i) ASSERT_EQ(q[j], dist[i]) << "element " << e;
  }
}

TEST(DistributedSim, CompressedMatchesUncompressed) {
  const auto a = runDistributed<double>(3, true, npar::Transport::kSeq);
  const auto b = runDistributed<double>(3, false, npar::Transport::kSeq);
  double worst = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) worst = std::max(worst, std::fabs(a[i] - b[i]));
  EXPECT_LT(worst, 1e-11);
}

TEST(DistributedSim, CompressionReducesBytes) {
  std::uint64_t bytesCompressed = 0, bytesRaw = 0;
  runDistributed<double>(4, true, npar::Transport::kSeq, &bytesCompressed);
  runDistributed<double>(4, false, npar::Transport::kSeq, &bytesRaw);
  EXPECT_GT(bytesRaw, 0u);
  // F(3)/B(3) = 6/10 per dataset, message counts identical.
  EXPECT_NEAR(static_cast<double>(bytesCompressed) / bytesRaw, 0.6, 1e-6);
}

TEST(DistributedSim, ThreadedMatchesSequential) {
  const auto seq = runDistributed<double>(4, true, npar::Transport::kSeq);
  const auto thr = runDistributed<double>(4, true, npar::Transport::kThread);
  ASSERT_EQ(seq.size(), thr.size());
  for (std::size_t i = 0; i < seq.size(); ++i) ASSERT_EQ(seq[i], thr[i]) << "dof " << i;
}

TEST(DistributedSim, OverlapSendsSameMessagesAsLockstep) {
  // The overlapped exchange reorders compute against communication but
  // must post exactly the same messages and bytes on the same channels.
  std::uint64_t bytesLock = 0, msgLock = 0, bytesOv = 0, msgOv = 0;
  const auto lock =
      runDistributed<double>(4, true, npar::Transport::kSeq, &bytesLock, &msgLock);
  const auto ov = runDistributed<double>(4, true, npar::Transport::kSeq, &bytesOv, &msgOv,
                                         /*overlap=*/true);
  EXPECT_EQ(bytesLock, bytesOv);
  EXPECT_EQ(msgLock, msgOv);
  EXPECT_GT(msgLock, 0u);
  ASSERT_EQ(lock.size(), ov.size());
  for (std::size_t i = 0; i < lock.size(); ++i) ASSERT_EQ(lock[i], ov[i]) << "dof " << i;
}

TEST(DistributedSim, OverlapSurvivesAdversarialMessageTiming) {
  // ISSUE 8 stress gate: run the overlapped thread-transport engine over a
  // JitterComm that delays sends and scrambles the cross-channel
  // interleaving, assert zero per-channel FIFO violations, and require the
  // DOFs to stay bitwise equal to the SeqComm lockstep run.
  const auto lock = runDistributed<double>(4, true, npar::Transport::kSeq);

  DistFixture f = makeFixture();
  const auto part = stripePartition(f.mesh, 4, 1000.0);
  npar::DistConfig cfg = makeDistConfig();
  cfg.transport = npar::Transport::kThread;
  cfg.overlap = true;
  JitterComm* probe = nullptr;
  cfg.commFactory = [&probe](int_t ranks) {
    auto comm = std::make_unique<JitterComm>(ranks);
    probe = comm.get();
    return comm;
  };
  npar::DistributedSimulation<double, 1> sim(f.mesh, f.mats, part, cfg);
  sim.setInitialCondition(
      [](const std::array<double, 3>& x, int_t, double* q9) { initWave(450.0, x, q9); });
  const auto st = sim.run(0.3);
  ASSERT_NE(probe, nullptr);
  EXPECT_EQ(probe->violations(), 0);
  EXPECT_GT(probe->messagesSent(), 0u);
  EXPECT_GT(st.messages, 0u);

  std::size_t i = 0;
  for (idx_t e = 0; e < f.mesh.numElements(); ++e) {
    const double* q = sim.dofs(e);
    for (int_t j = 0; j < 90; ++j, ++i) ASSERT_EQ(q[j], lock[i]) << "element " << e;
  }
}

TEST(DistributedSim, MpiTransportWithoutBuildThrows) {
  // Requesting --transport mpi on a stub build must fail at construction
  // with the actionable makeMpiComm error, not deadlock or fall back.
  if (npar::mpiSupport()) GTEST_SKIP() << "built with real MPI";
  DistFixture f = makeFixture(3);
  npar::DistConfig cfg = makeDistConfig();
  cfg.transport = npar::Transport::kMpi;
  EXPECT_THROW((npar::DistributedSimulation<double, 1>(
                   f.mesh, f.mats, stripePartition(f.mesh, 2, 1000.0), cfg)),
               std::runtime_error);
}

TEST(DistributedSim, EmptyRankThrows) {
  // A rank without elements would deadlock ThreadComm and break the
  // lockstep schedule: the constructor must reject it up front.
  DistFixture f = makeFixture(3);
  std::vector<int_t> part(f.mesh.numElements(), 0);
  part[0] = 2; // ranks {0, 2} populated, rank 1 empty
  EXPECT_THROW((npar::DistributedSimulation<double, 1>(f.mesh, f.mats, part, makeDistConfig())),
               std::invalid_argument);
}

TEST(DistributedSim, BadPartitionsThrow) {
  DistFixture f = makeFixture(3);
  std::vector<int_t> negative(f.mesh.numElements(), 0);
  negative[1] = -1;
  EXPECT_THROW(
      (npar::DistributedSimulation<double, 1>(f.mesh, f.mats, negative, makeDistConfig())),
      std::invalid_argument);
  std::vector<int_t> tooShort(f.mesh.numElements() - 1, 0);
  EXPECT_THROW(
      (npar::DistributedSimulation<double, 1>(f.mesh, f.mats, tooShort, makeDistConfig())),
      std::invalid_argument);
}

TEST(HaloView, OwnedPrefixAndHaloSuffix) {
  DistFixture f = makeFixture(3);
  const auto geo = nm::computeGeometry(f.mesh);
  const auto dt = nglts::lts::cflTimeSteps(geo, f.mats, 3);
  const auto clustering = nglts::lts::buildClustering(f.mesh, dt, 3, 1.0);
  const auto part = stripePartition(f.mesh, 2, 1000.0);
  for (int_t r = 0; r < 2; ++r) {
    const auto view = npar::buildHaloView(f.mesh, geo, f.mats, clustering, part, r);
    ASSERT_GT(view.numOwned, 0);
    ASSERT_GT(static_cast<idx_t>(view.localToGlobal.size()), view.numOwned)
        << "stripe cut must produce halo elements";
    for (idx_t le = 0; le < static_cast<idx_t>(view.localToGlobal.size()); ++le) {
      const idx_t ge = view.localToGlobal[le];
      EXPECT_EQ(view.globalToLocal[ge], le);
      EXPECT_EQ(part[ge] == r, le < view.numOwned);
      EXPECT_EQ(view.clustering.cluster[le], clustering.cluster[ge]);
      // Owned faces keep every locally-present neighbor; halo faces keep
      // only links back into the owned set.
      for (int_t fc = 0; fc < 4; ++fc) {
        const idx_t nb = view.mesh.faces[le][fc].neighbor;
        if (le >= view.numOwned && nb >= 0) EXPECT_LT(nb, view.numOwned);
        if (nb >= 0) EXPECT_LT(nb, static_cast<idx_t>(view.localToGlobal.size()));
      }
    }
  }
}
