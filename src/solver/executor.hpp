#pragma once
// Layer 2 of the solver core: schedule execution. `StepExecutor` runs the
// flattened rate-2 LTS op sequence (lts::ScheduleOp, paper Sec. V-B) over
// the cluster-contiguous element ranges of a `SolverState`, one parallel
// region per (phase, cluster) op: the op's range is cut into
// `dynamicChunkCount(numThreads)` contiguous chunks of the pure
// `staticChunk` map and the team work-steals them whole (`stealChunks`,
// solver/threading.hpp). The three neighbor-data paradigms — GTS direct-B1,
// the paper's next-generation three-buffer scheme, and the
// buffer+derivative baseline of [15] — are strategy classes behind the
// `NeighborDataPolicy` interface instead of `if (scheme)` branches in the
// hot loop.
//
// The executor owns the per-chunk `WorkspacePool` (kernel scratch,
// receiver derivative stacks, flop counters); sources and receivers stay in
// the Simulation facade, which participates through the `LocalHook`
// extension point (called after the kernel local phase of each element).
// Results are bitwise-identical for every `numThreads` and steal timing:
// each element is updated by exactly one chunk in a fixed order with that
// chunk's workspace, neighbor reads go through the double-buffered policy
// data, and hook state is only touched from the element that owns it.
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "kernels/ader_kernels.hpp"
#include "lts/clustering.hpp"
#include "lts/schedule.hpp"
#include "solver/config.hpp"
#include "solver/state.hpp"
#include "solver/threading.hpp"

namespace nglts::solver {

/// Strategy interface: where the neighbor phase of an element reads the
/// neighbor's time-integrated elastic data from (paper Sec. V-B). Internal
/// element ids throughout.
template <typename Real, int W>
class NeighborDataPolicy {
 public:
  using Scratch = typename kernels::AderKernels<Real, W>::Scratch;

  virtual ~NeighborDataPolicy() = default;

  /// Data (9 x nb x W) consumed by face `fi` of element `el` at sub-step
  /// `myStep` of its cluster; may stage a combination into `s.bufCombo`.
  virtual const Real* data(idx_t el, const mesh::FaceInfo& fi, idx_t myStep, Scratch& s,
                           std::uint64_t& flops) const = 0;

  /// Whether `data()` for this face returns the *face-local* 9 x nf x W
  /// projection (the neighboring-flux-matrix product already applied on the
  /// producing side — the compressed message payload of Sec. V-C) instead
  /// of the element-local 9 x nb x W representation. The executor then
  /// consumes it via `neighborContributionFaceLocal`.
  virtual bool faceLocal(idx_t el, const mesh::FaceInfo& fi) const {
    (void)el;
    (void)fi;
    return false;
  }

  /// Whether the local phase must persist the full ADER derivative stack of
  /// every element (the baseline scheme's neighbor-data representation).
  virtual bool needsDerivStack() const { return false; }
};

/// Build the policy matching `cfg.scheme` over a state's buffers.
template <typename Real, int W>
std::unique_ptr<NeighborDataPolicy<Real, W>> makeNeighborDataPolicy(
    const SimConfig& cfg, const SolverState<Real, W>& state,
    const kernels::AderKernels<Real, W>& kernels, const std::vector<double>& clusterDt);

template <typename Real, int W>
class StepExecutor {
 public:
  using Scratch = typename kernels::AderKernels<Real, W>::Scratch;

  /// Facade extension point, invoked inside the local-phase element loop
  /// after the kernels ran (source injection, receiver sampling). Internal
  /// element ids. Thread-safety contract: an op's element range is
  /// partitioned into chunks run concurrently, so `afterLocal` runs concurrently for
  /// *different* elements but never twice for the same element within an
  /// op — implementations may freely mutate state keyed by `internalEl`
  /// (per-source, per-receiver accumulators) and must not mutate anything
  /// shared across elements. Accumulation order per element-bound object is
  /// then deterministic regardless of the thread count.
  class LocalHook {
   public:
    virtual ~LocalHook() = default;
    /// Whether `internalEl` needs the predictor's derivative stack kept
    /// (receiver elements); ignored under the baseline scheme, which keeps
    /// every element's stack in the state arena anyway.
    virtual bool wantsStack(idx_t internalEl) const = 0;
    /// Called for every element after its local phase. `stack` is the
    /// element's derivative stack or nullptr if not requested/kept.
    virtual void afterLocal(idx_t internalEl, Real* q, const Real* stack, double t0,
                            double dt, std::uint64_t& flops) = 0;
  };

  /// `policy` overrides the scheme-derived neighbor-data strategy (nullptr
  /// = `makeNeighborDataPolicy(cfg, ...)`); the distributed driver injects
  /// its halo decorator here.
  StepExecutor(const SimConfig& cfg, const kernels::AderKernels<Real, W>& kernels,
               SolverState<Real, W>& state, const lts::Clustering& clustering,
               std::vector<lts::ScheduleOp> schedule, LocalHook* hook,
               std::unique_ptr<NeighborDataPolicy<Real, W>> policy = nullptr);

  /// Execute one full LTS cycle (every cluster advances by the largest
  /// cluster's step). Step counters persist across calls.
  void runCycle();

  /// Execute a single schedule op — the distributed driver interleaves
  /// halo sends/receives between ops. `runCycle()` is a loop over these.
  void runOp(const lts::ScheduleOp& op);

  /// Execute `op` over only `elems` (internal ids, all inside the op's
  /// cluster) — the distributed overlap path splits an op into a
  /// halo-boundary subset and an interior subset so communication can
  /// proceed during the interior compute. Element updates within one op are
  /// independent (each writes only its own data; hooks are element-owned),
  /// so any partition of the op's range into subset calls is
  /// bitwise-identical to one full-range `runOp`. For kNeighbor ops the
  /// cluster step counter advances only when `completesOp` is true — pass
  /// it on the op's final subset; the sub-step parity read by halo packing
  /// must not move until every element of the op has run. Ignored for
  /// kLocal ops (the local phase never advances the counter).
  void runOp(const lts::ScheduleOp& op, const std::vector<idx_t>& elems, bool completesOp);

  idx_t clusterStep(int_t cluster) const { return clusterStep_[cluster]; }
  /// All per-cluster step counters — the executor's schedule position
  /// (serialized by batch/checkpoint.*).
  const std::vector<idx_t>& clusterSteps() const { return clusterStep_; }
  /// Restore the schedule position from a snapshot. The counters feed the
  /// sub-step parity and the element-local time t0 = step * dt, so a resumed
  /// run replays the exact op sequence of an uninterrupted one. Throws
  /// `std::invalid_argument` on a cluster-count mismatch.
  void restoreClusterSteps(const std::vector<idx_t>& steps);
  const std::vector<lts::ScheduleOp>& schedule() const { return schedule_; }
  const NeighborDataPolicy<Real, W>& neighborPolicy() const { return *policy_; }

  /// Sum the per-chunk flop counters and reset them.
  std::uint64_t drainFlops();

  /// Test seam: called with the chunk id right before each chunk executes,
  /// from the executing thread. Tests inject randomized sleeps here to force
  /// adversarial steal timings and assert the results stay bitwise-identical.
  /// Must be thread-safe.
  void setChunkDelayHook(std::function<void(int_t)> hook) { chunkDelayHook_ = std::move(hook); }

 private:
  /// Both `runOp`s: `subset` = nullptr runs the op's whole cluster.
  void runOpOn(const lts::ScheduleOp& op, const std::vector<idx_t>* subset, bool completesOp);
  void localElement(idx_t el, double dt, double t0, bool odd, int_t chunk);
  void neighborElement(idx_t el, idx_t step, int_t chunk);
  /// Run `fn(el, chunk)` over `subset` or, if null, the cluster's
  /// contiguous internal range, in nChunks_ chunks of the
  /// pure `staticChunk` map stolen whole by the team (threading.hpp).
  /// `chunk` selects the workspace.
  template <typename Fn>
  void forEachElement(int_t cluster, const std::vector<idx_t>* subset, Fn&& fn);

  const kernels::AderKernels<Real, W>& kernels_;
  SolverState<Real, W>& state_;
  std::vector<double> clusterDt_;
  std::vector<lts::ScheduleOp> schedule_;
  std::vector<idx_t> clusterStep_;
  LocalHook* hook_ = nullptr;
  std::unique_ptr<NeighborDataPolicy<Real, W>> policy_;

  int_t nThreads_ = 1;           ///< SimConfig::numThreads (validated >= 1)
  int_t nChunks_ = 1;            ///< chunks per op (== workspace count)
  WorkspacePool<Real, W> pool_;  ///< per-chunk scratch/recStack/flops
  std::function<void(int_t)> chunkDelayHook_; ///< test seam
};

extern template class StepExecutor<float, 1>;
extern template class StepExecutor<float, 2>;
extern template class StepExecutor<float, 4>;
extern template class StepExecutor<float, 8>;
extern template class StepExecutor<float, 16>;
extern template class StepExecutor<double, 1>;
extern template class StepExecutor<double, 2>;
extern template class StepExecutor<double, 4>;

} // namespace nglts::solver
