#include "solver/executor.hpp"

#include <stdexcept>

namespace nglts::solver {

namespace {

/// GTS: one cluster, every neighbor wrote B1 in the same step.
template <typename Real, int W>
class GtsNeighborData final : public NeighborDataPolicy<Real, W> {
 public:
  using Scratch = typename NeighborDataPolicy<Real, W>::Scratch;

  explicit GtsNeighborData(const SolverState<Real, W>& state) : state_(state) {}

  const Real* data(idx_t, const mesh::FaceInfo& fi, idx_t, Scratch&,
                   std::uint64_t&) const override {
    return state_.b1(fi.neighbor);
  }

 private:
  const SolverState<Real, W>& state_;
};

/// Next-generation three-buffer scheme (paper Sec. V-B / Fig. 6):
/// equal cluster -> B1, smaller neighbor -> its B3 window accumulator,
/// larger neighbor -> its B2 on the first half-window, B1 - B2 on the second.
template <typename Real, int W>
class ThreeBufferNeighborData final : public NeighborDataPolicy<Real, W> {
 public:
  using Scratch = typename NeighborDataPolicy<Real, W>::Scratch;

  ThreeBufferNeighborData(const SolverState<Real, W>& state, std::size_t bufSize)
      : state_(state), bufSize_(bufSize) {}

  const Real* data(idx_t el, const mesh::FaceInfo& fi, idx_t myStep, Scratch& s,
                   std::uint64_t& flops) const override {
    const int_t cMe = state_.clusterOf(el);
    const int_t cNb = state_.clusterOf(fi.neighbor);
    const Real* b1 = state_.b1(fi.neighbor);
    if (cNb == cMe) return b1;
    if (cNb < cMe) return state_.b3(fi.neighbor);
    // Larger neighbor: first half-window uses B2, second B1 - B2 (Fig. 6).
    const Real* b2 = state_.b2(fi.neighbor);
    if (myStep % 2 == 0) return b2;
    Real* combo = s.bufCombo.data();
#pragma omp simd
    for (std::size_t i = 0; i < bufSize_; ++i) combo[i] = b1[i] - b2[i];
    flops += bufSize_;
    return combo;
  }

 private:
  const SolverState<Real, W>& state_;
  std::size_t bufSize_;
};

/// Buffer+derivative baseline of [15]: equal-or-larger neighbors re-integrate
/// the neighbor's ADER derivative stack over the consuming element's
/// interval; smaller neighbors are served by the B3 accumulator.
template <typename Real, int W>
class BufferDerivativeNeighborData final : public NeighborDataPolicy<Real, W> {
 public:
  using Scratch = typename NeighborDataPolicy<Real, W>::Scratch;

  BufferDerivativeNeighborData(const SolverState<Real, W>& state,
                               const kernels::AderKernels<Real, W>& kernels,
                               std::vector<double> clusterDt)
      : state_(state), kernels_(kernels), clusterDt_(std::move(clusterDt)) {}

  const Real* data(idx_t el, const mesh::FaceInfo& fi, idx_t myStep, Scratch& s,
                   std::uint64_t& flops) const override {
    const int_t cMe = state_.clusterOf(el);
    const int_t cNb = state_.clusterOf(fi.neighbor);
    if (cNb < cMe) return state_.b3(fi.neighbor);
    // Equal or larger: integrate the neighbor's derivative stack over this
    // element's interval (the receiver-side evaluations of [15]).
    const double dtMe = clusterDt_[cMe];
    const double a = (cNb > cMe && (myStep % 2)) ? dtMe : 0.0;
    flops += kernels_.integrateDerivStack(state_.derivStack(fi.neighbor),
                                          static_cast<Real>(a), static_cast<Real>(dtMe),
                                          s.bufCombo.data());
    return s.bufCombo.data();
  }

  bool needsDerivStack() const override { return true; }

 private:
  const SolverState<Real, W>& state_;
  const kernels::AderKernels<Real, W>& kernels_;
  std::vector<double> clusterDt_;
};

/// Validated before `WorkspacePool` sizes anything off it (the facades
/// validate too; this covers direct executor construction in tests).
int_t checkedThreads(int_t numThreads) {
  if (numThreads < 1) throw std::invalid_argument("StepExecutor: numThreads must be >= 1");
  return numThreads;
}

} // namespace

template <typename Real, int W>
std::unique_ptr<NeighborDataPolicy<Real, W>> makeNeighborDataPolicy(
    const SimConfig& cfg, const SolverState<Real, W>& state,
    const kernels::AderKernels<Real, W>& kernels, const std::vector<double>& clusterDt) {
  switch (cfg.scheme) {
    case TimeScheme::kGts:
      return std::make_unique<GtsNeighborData<Real, W>>(state);
    case TimeScheme::kLtsNextGen:
      return std::make_unique<ThreeBufferNeighborData<Real, W>>(state, state.bufSize());
    case TimeScheme::kLtsBaseline:
      return std::make_unique<BufferDerivativeNeighborData<Real, W>>(state, kernels, clusterDt);
  }
  throw std::invalid_argument("makeNeighborDataPolicy: unknown scheme");
}

template <typename Real, int W>
StepExecutor<Real, W>::StepExecutor(const SimConfig& cfg,
                                    const kernels::AderKernels<Real, W>& kernels,
                                    SolverState<Real, W>& state,
                                    const lts::Clustering& clustering,
                                    std::vector<lts::ScheduleOp> schedule, LocalHook* hook,
                                    std::unique_ptr<NeighborDataPolicy<Real, W>> policy)
    : kernels_(kernels),
      state_(state),
      clusterDt_(clustering.clusterDt),
      schedule_(std::move(schedule)),
      clusterStep_(clustering.numClusters, 0),
      hook_(hook),
      policy_(policy ? std::move(policy)
                     : makeNeighborDataPolicy<Real, W>(cfg, state, kernels, clusterDt_)),
      nThreads_(checkedThreads(cfg.numThreads)),
      nChunks_(dynamicChunkCount(nThreads_)),
      pool_(kernels, state.stackSize(), nChunks_) {}

template <typename Real, int W>
template <typename Fn>
void StepExecutor<Real, W>::forEachElement(int_t cluster, const std::vector<idx_t>* subset,
                                           Fn&& fn) {
  // Chunks of a contiguous cluster range are themselves contiguous, so the
  // hot loops stream linearly through the reordered arena. The map depends
  // only on (range, numThreads) and a chunk always runs whole with its own
  // workspace, so results are bitwise-identical for every thread count and
  // every steal timing (threading.hpp).
  const idx_t begin = subset ? 0 : state_.clusterBegin(cluster);
  const idx_t end = subset ? static_cast<idx_t>(subset->size()) : state_.clusterEnd(cluster);
  stealChunks(nChunks_, nThreads_, [&](int_t chunk) {
    if (chunkDelayHook_) chunkDelayHook_(chunk);
    const ChunkRange r = staticChunk(begin, end, nChunks_, chunk);
    for (idx_t i = r.begin; i < r.end; ++i) fn(subset ? (*subset)[i] : i, chunk);
  });
}

template <typename Real, int W>
void StepExecutor<Real, W>::localElement(idx_t el, double dt, double t0, bool odd,
                                         int_t chunk) {
  auto& w = pool_[chunk];
  auto& s = w.scratch;
  std::uint64_t flops = 0;
  Real* q = state_.q(el);
  Real* b1 = state_.b1(el);
  Real* b2 = state_.useB2() ? state_.b2(el) : nullptr;
  Real* b3 = state_.useB3() ? state_.b3(el) : nullptr;
  const bool arenaStack = policy_->needsDerivStack();
  const bool hookStack = hook_ && hook_->wantsStack(el);
  Real* stack = arenaStack ? state_.derivStack(el)
                           : (hookStack ? w.recStack.data() : nullptr);

  flops += kernels_.timePredict(state_.elementData(el), q, static_cast<Real>(dt),
                                s.timeInt.data(), b1, b2, b3, odd, s, stack);
  flops += kernels_.volumeAndLocalSurface(state_.elementData(el), s.timeInt.data(), q, s);

  if (hook_) hook_->afterLocal(el, q, stack, t0, dt, flops);
  w.flops += flops;
}

template <typename Real, int W>
void StepExecutor<Real, W>::neighborElement(idx_t el, idx_t step, int_t chunk) {
  auto& w = pool_[chunk];
  auto& s = w.scratch;
  std::uint64_t flops = 0;
  Real* q = state_.q(el);
  const auto& faces = state_.internalMesh().faces[el];
  for (int_t f = 0; f < 4; ++f) {
    const mesh::FaceInfo& fi = faces[f];
    if (fi.neighbor < 0) continue;
    const Real* data = policy_->data(el, fi, step, s, flops);
    if (policy_->faceLocal(el, fi))
      flops += kernels_.neighborContributionFaceLocal(state_.elementData(el), f, data, q, s);
    else
      flops += kernels_.neighborContribution(state_.elementData(el), f, fi.neighborFace,
                                             fi.perm, data, q, s);
  }
  w.flops += flops;
}

template <typename Real, int W>
void StepExecutor<Real, W>::runOp(const lts::ScheduleOp& op) {
  runOpOn(op, nullptr, /*completesOp=*/true);
}

template <typename Real, int W>
void StepExecutor<Real, W>::runOp(const lts::ScheduleOp& op, const std::vector<idx_t>& elems,
                                  bool completesOp) {
  runOpOn(op, &elems, completesOp);
}

template <typename Real, int W>
void StepExecutor<Real, W>::runOpOn(const lts::ScheduleOp& op, const std::vector<idx_t>* subset,
                                    bool completesOp) {
  const int_t cluster = op.cluster;
  const idx_t step = clusterStep_[cluster];
  if (op.kind == lts::PhaseKind::kLocal) {
    const double dt = clusterDt_[cluster];
    const bool odd = (step % 2) != 0;
    const double t0 = step * dt;
    forEachElement(cluster, subset,
                   [&](idx_t el, int_t chunk) { localElement(el, dt, t0, odd, chunk); });
  } else {
    forEachElement(cluster, subset,
                   [&](idx_t el, int_t chunk) { neighborElement(el, step, chunk); });
    if (completesOp) ++clusterStep_[cluster];
  }
}

template <typename Real, int W>
void StepExecutor<Real, W>::runCycle() {
  for (const lts::ScheduleOp& op : schedule_) runOp(op);
}

template <typename Real, int W>
void StepExecutor<Real, W>::restoreClusterSteps(const std::vector<idx_t>& steps) {
  if (steps.size() != clusterStep_.size())
    throw std::invalid_argument("restoreClusterSteps: got " + std::to_string(steps.size()) +
                                " counters for " + std::to_string(clusterStep_.size()) +
                                " clusters");
  clusterStep_ = steps;
}

template <typename Real, int W>
std::uint64_t StepExecutor<Real, W>::drainFlops() {
  return pool_.drainFlops();
}

template class StepExecutor<float, 1>;
template class StepExecutor<float, 2>;
template class StepExecutor<float, 4>;
template class StepExecutor<float, 8>;
template class StepExecutor<float, 16>;
template class StepExecutor<double, 1>;
template class StepExecutor<double, 2>;
template class StepExecutor<double, 4>;

template std::unique_ptr<NeighborDataPolicy<float, 1>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<float, 1>&, const kernels::AderKernels<float, 1>&,
    const std::vector<double>&);
template std::unique_ptr<NeighborDataPolicy<float, 2>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<float, 2>&, const kernels::AderKernels<float, 2>&,
    const std::vector<double>&);
template std::unique_ptr<NeighborDataPolicy<float, 4>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<float, 4>&, const kernels::AderKernels<float, 4>&,
    const std::vector<double>&);
template std::unique_ptr<NeighborDataPolicy<float, 8>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<float, 8>&, const kernels::AderKernels<float, 8>&,
    const std::vector<double>&);
template std::unique_ptr<NeighborDataPolicy<float, 16>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<float, 16>&, const kernels::AderKernels<float, 16>&,
    const std::vector<double>&);
template std::unique_ptr<NeighborDataPolicy<double, 1>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<double, 1>&, const kernels::AderKernels<double, 1>&,
    const std::vector<double>&);
template std::unique_ptr<NeighborDataPolicy<double, 2>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<double, 2>&, const kernels::AderKernels<double, 2>&,
    const std::vector<double>&);
template std::unique_ptr<NeighborDataPolicy<double, 4>> makeNeighborDataPolicy(
    const SimConfig&, const SolverState<double, 4>&, const kernels::AderKernels<double, 4>&,
    const std::vector<double>&);

} // namespace nglts::solver
