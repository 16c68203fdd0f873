#pragma once
// Distributed-memory execution of the LTS schemes (paper Sec. V-C) as a
// thin layer over the layered solver engine: the mesh is partitioned, every
// rank owns a `SolverState` arena built over its halo view (owned elements
// cluster-contiguous, halo copies appended after the owned ranges) and runs
// the same flattened LTS schedule through a `StepExecutor` whose
// neighbor-data policy is decorated by `HaloNeighborData` — owned faces read
// the arena, cross-boundary faces read ghost slots filled from the
// message-passing layer. All three neighbor-data schemes (GTS, the
// next-generation three-buffer scheme, the buffer+derivative baseline of
// [15]) and fused ensembles W > 1 run through the same engine as the
// single-process `Simulation`, producing bitwise-identical results.
//
// Messages per cross-boundary face and producer step (next-gen / GTS;
// payloads are raw 9 x B buffers or, with `compressFaces`, face-local 9 x F
// projections computed sender-side):
//   consumer in equal cluster   : P(B1)            every producer step,
//   consumer in larger cluster  : P(B3)            after odd producer steps,
//   consumer in smaller cluster : P(B2), P(B1-B2)  one combined message per
//                                                  producer step (serves the
//                                                  consumer's two sub-steps).
// The baseline scheme ships its trimmed elastic derivative stack to equal-
// and smaller-cluster consumers and raw B3 to larger ones (compression does
// not apply — consumers re-integrate the stack before the flux product).
// FIFO per (src, dst, tag) channel preserves consumption order; the tag is
// the producer's global element id * 4 + face.
//
// Three transports drive the same protocol (`DistConfig::transport`): with
// SeqComm the ranks execute each schedule op in deterministic lockstep on
// one thread; with ThreadComm each rank runs on its own std::thread and
// receives block; with MpiComm each rank is its own OS process under
// mpirun — only the local rank's engine is built and receivers are shipped
// to rank 0 via `gatherReceivers()`. In every mode each rank's
// `StepExecutor` additionally threads its element loops over
// `SimConfig::numThreads` OpenMP threads (the hybrid `--ranks x --threads`
// layout — rank std::threads are OpenMP initial threads, so the teams nest
// without configuration). All combinations are bitwise-reproducible and
// bitwise-identical to the single-rank `Simulation`: per-element updates
// are order-deterministic regardless of threading, and every cross-rank
// payload carries exactly the values the shared-memory policy would have
// read.
//
// `DistConfig::overlap` breaks the op-lockstep exchange: the local phase
// runs its halo-boundary producers first so their payloads enter the
// network before the interior bulk computes, and the neighbor phase runs
// interior consumers first so the exchange is in flight during compute and
// only the boundary subset waits on arrivals. Element updates within one
// schedule op are independent, so the split is bitwise-identical to the
// lockstep reference it is A/B'd against (see stepOpOverlap).
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "common/timer.hpp"
#include "kernels/ader_kernels.hpp"
#include "lts/clustering.hpp"
#include "lts/schedule.hpp"
#include "mesh/geometry.hpp"
#include "mesh/tet_mesh.hpp"
#include "parallel/comm.hpp"
#include "parallel/halo.hpp"
#include "physics/material.hpp"
#include "seismo/receiver.hpp"
#include "seismo/source.hpp"
#include "solver/config.hpp"
#include "solver/seismo_hook.hpp"

namespace nglts::parallel {

struct DistConfig {
  /// Solver configuration of every rank's engine — scheme, order,
  /// mechanisms, clusters, fused kernels, cluster reordering, receiver
  /// sampling: the full `SimConfig` surface of the shared-memory path.
  solver::SimConfig sim;
  bool compressFaces = true; ///< ship 9 x F instead of 9 x B (Sec. V-C)
  /// Halo transport: SeqComm lockstep (the bitwise reference), ThreadComm
  /// rank threads, or real MPI — one process per rank, requires a build
  /// with NGLTS_WITH_MPI=ON and `mpiInit` before construction.
  Transport transport = Transport::kSeq;
  /// Split each schedule op into halo-boundary and interior subsets so the
  /// exchange overlaps interior compute (bitwise-identical to lockstep).
  bool overlap = false;
  /// Test/bench seam: construct the communicator yourself (the adversarial
  /// ordering stress tests inject delaying/verifying wrappers here). The
  /// run loop still follows `transport`; the factory overrides only which
  /// communicator object serves it.
  CommFactory commFactory;
};

struct DistStats {
  double seconds = 0.0;
  double simulatedTime = 0.0;
  std::uint64_t cycles = 0;
  std::uint64_t elementUpdates = 0; ///< per fused lane
  std::uint64_t flops = 0;          ///< useful ops of the rank engines (all lanes)
  std::uint64_t commBytes = 0;
  std::uint64_t messages = 0;
};

template <typename Real, int W>
class DistributedSimulation {
 public:
  using InitFn = solver::InitialConditionFn;

  /// `partition` maps every global element to a rank in [0, max(part) + 1).
  /// Throws `std::invalid_argument` if the partition is empty, has negative
  /// entries, or leaves any rank without elements (an empty rank would
  /// deadlock ThreadComm and break the lockstep schedule).
  DistributedSimulation(mesh::TetMesh mesh, std::vector<physics::Material> materials,
                        std::vector<int_t> partition, DistConfig config);
  ~DistributedSimulation();

  DistributedSimulation(const DistributedSimulation&) = delete;
  DistributedSimulation& operator=(const DistributedSimulation&) = delete;

  const DistConfig& config() const { return cfg_; }
  const lts::Clustering& clustering() const { return clustering_; }
  double cycleDt() const { return clustering_.clusterDt.back(); }
  int_t ranks() const { return numRanks_; }
  /// The transport driving the run (`DistConfig::transport`).
  Transport transport() const { return cfg_.transport; }
  /// The one rank this process executes under MPI, or -1 when every rank
  /// runs in-process (SeqComm/ThreadComm).
  int_t localRank() const { return localRank_; }
  /// Whether rank `r`'s engine lives in this process (always true
  /// in-process; exactly one rank under MPI).
  bool ownsRank(int_t r) const { return ranks_[r] != nullptr; }

  void setInitialCondition(const InitFn& f);

  /// Register a point source on the owning rank (located on the global
  /// mesh); `laneScale` as in `Simulation::addPointSource`.
  void addPointSource(const seismo::PointSource& src, std::vector<double> laneScale = {});

  /// Register a receiver on the owning rank; returns its global index or
  /// -1 if the point lies outside the mesh. Under MPI every process
  /// registers the receiver (the located element and index assignment are
  /// deterministic); only the owning process samples it.
  idx_t addReceiver(const std::array<double, 3>& position);
  /// Bounds-checked receiver access; throws `std::out_of_range`. Under MPI
  /// a remote rank's receiver is only available on rank 0 after
  /// `gatherReceivers()` (throws `std::runtime_error` otherwise).
  const seismo::Receiver& receiver(idx_t i) const;
  idx_t numReceivers() const { return static_cast<idx_t>(receiverHome_.size()); }

  /// Ship every remote rank's receiver traces to rank 0 so its CSV/output
  /// path works transport-agnostically. Call on all processes after
  /// `run()`; a no-op for the in-process transports.
  void gatherReceivers();

  /// Advance by full LTS cycles until at least `endTime` is covered.
  /// Collective under MPI (all processes call it together); the returned
  /// stats are globally reduced on every rank.
  DistStats run(double endTime);

  /// DOF access by global external element id (reads the owning rank's
  /// arena; under MPI throws `std::runtime_error` for remote elements).
  const Real* dofs(idx_t element) const;

 private:
  struct Rank;

  void buildRank(int_t r);
  void stepOp(Rank& rank, const lts::ScheduleOp& op);
  void stepOpOverlap(Rank& rank, const lts::ScheduleOp& op);
  void packAndSend(Rank& rank, int_t cluster);
  void receiveHalo(Rank& rank, int_t cluster);
  Rank& ownedRank(int_t r) const;

  DistConfig cfg_;
  int_t localRank_ = -1; ///< -1: all ranks in-process; else the MPI rank
  mesh::TetMesh mesh_;                        ///< global external order
  std::vector<physics::Material> materials_;  ///< global external order
  std::vector<int_t> part_;
  int_t numRanks_ = 1;
  std::vector<mesh::ElementGeometry> geo_;    ///< global external order
  lts::Clustering clustering_;                ///< global
  std::vector<lts::ScheduleOp> schedule_;

  std::unique_ptr<kernels::AderKernels<Real, W>> kernels_;
  std::unique_ptr<Communicator> comm_;
  std::vector<std::unique_ptr<Rank>> ranks_; ///< indexed by rank id; under MPI
                                             ///< only the local slot is built
  std::vector<std::pair<int_t, idx_t>> receiverHome_; ///< global idx -> (rank, local idx)
  std::vector<idx_t> rankReceiverCount_; ///< receivers registered per rank
  std::map<idx_t, seismo::Receiver> gathered_; ///< rank 0: remote traces
};

extern template class DistributedSimulation<float, 1>;
extern template class DistributedSimulation<float, 2>;
extern template class DistributedSimulation<float, 4>;
extern template class DistributedSimulation<float, 8>;
extern template class DistributedSimulation<float, 16>;
extern template class DistributedSimulation<double, 1>;
extern template class DistributedSimulation<double, 2>;
extern template class DistributedSimulation<double, 4>;

} // namespace nglts::parallel
