#pragma once
// Layer 1 of the solver core: the memory arena. `SolverState` owns every
// per-element array the time loop touches — DOFs `q`, the elastic buffers
// B1/B2/B3 of the next-generation LTS scheme, the baseline scheme's
// derivative stack, and the per-element operator data — laid out in a
// *cluster-contiguous* internal order: the elements of time cluster c occupy
// the contiguous index range [clusterBegin(c), clusterEnd(c)), and inside a
// cluster face-neighbors are packed close by a dual-graph BFS
// (partition::buildClusterReordering, paper Sec. VI). The executor streams
// linearly through each cluster's range instead of gathering through index
// lists.
//
// All arenas are NUMA first-touch initialized by a parallel per-cluster
// zero-fill pass (arena_vector's resize leaves pages untouched), one chunk
// per thread (solver/threading.hpp, SimConfig::numThreads): every cluster's
// pages spread evenly over the memory nodes. The executor steals its chunks,
// so which thread computes an element — and whether its pages are local —
// depends on timing.
//
// External element ids (the mesh order the caller built sources, receivers
// and tests against) are mapped to internal arena slots via
// toInternal()/toExternal(); everything above this layer speaks external
// ids, everything inside the time loop speaks internal ids.
#include <memory>
#include <vector>

#include "common/aligned.hpp"
#include "common/types.hpp"
#include "kernels/ader_kernels.hpp"
#include "kernels/element_data.hpp"
#include "lts/clustering.hpp"
#include "mesh/geometry.hpp"
#include "mesh/tet_mesh.hpp"
#include "partition/reorder.hpp"
#include "physics/material.hpp"
#include "solver/config.hpp"

namespace nglts::solver {

template <typename Real, int W>
class SolverState {
 public:
  /// Builds the internal (permuted) mesh view, the per-element operator
  /// data and the solver arenas. All inputs are in *external* order; the
  /// clustering must already be final (cluster ids + cluster count).
  ///
  /// `numOwned >= 0` declares the mesh a rank-local halo view (distributed
  /// execution, Sec. V-C): external elements [0, numOwned) are owned and get
  /// cluster-contiguous internal ranges; [numOwned, n) are halo copies of
  /// remote elements, appended after the owned ranges in stable order. Halo
  /// elements have arena slots (so neighbor reads stay uniform) but are
  /// excluded from every cluster range/list the executor iterates.
  SolverState(const mesh::TetMesh& externalMesh,
              const std::vector<physics::Material>& externalMaterials,
              const std::vector<mesh::ElementGeometry>& externalGeo,
              const lts::Clustering& clustering,
              const kernels::AderKernels<Real, W>& kernels, const SimConfig& cfg,
              idx_t numOwned = -1);

  // -- layout ---------------------------------------------------------------
  idx_t numElements() const { return mesh_.numElements(); }
  /// Owned elements (== numElements() unless this is a halo view). The
  /// internal ids [0, numOwned()) are owned, [numOwned(), n) are halo.
  idx_t numOwned() const { return numOwned_; }
  idx_t numHalo() const { return mesh_.numElements() - numOwned_; }
  bool isHalo(idx_t internal) const { return internal >= numOwned_; }
  int_t numClusters() const { return numClusters_; }
  /// Internal index range of cluster c: [clusterBegin(c), clusterEnd(c)).
  idx_t clusterBegin(int_t c) const { return clusterOffsets_[c]; }
  idx_t clusterEnd(int_t c) const { return clusterOffsets_[c + 1]; }
  int_t clusterOf(idx_t internal) const { return cluster_[internal]; }

  idx_t toInternal(idx_t external) const { return reorder_.newId[external]; }
  idx_t toExternal(idx_t internal) const { return reorder_.oldId[internal]; }
  const partition::Reordering& reordering() const { return reorder_; }

  /// The permuted mesh the executor iterates (face adjacency in internal ids).
  const mesh::TetMesh& internalMesh() const { return mesh_; }
  const kernels::ElementData<Real>& elementData(idx_t internal) const {
    return elementData_[internal];
  }

  // -- arenas (internal element ids) ---------------------------------------
  Real* q(idx_t internal) { return q_.data() + internal * elSize_; }
  const Real* q(idx_t internal) const { return q_.data() + internal * elSize_; }
  Real* b1(idx_t internal) { return b1_.data() + internal * bufSize_; }
  const Real* b1(idx_t internal) const { return b1_.data() + internal * bufSize_; }
  Real* b2(idx_t internal) { return b2_.data() + internal * bufSize_; }
  const Real* b2(idx_t internal) const { return b2_.data() + internal * bufSize_; }
  Real* b3(idx_t internal) { return b3_.data() + internal * bufSize_; }
  const Real* b3(idx_t internal) const { return b3_.data() + internal * bufSize_; }
  Real* derivStack(idx_t internal) { return derivStack_.data() + internal * stackSize_; }
  const Real* derivStack(idx_t internal) const {
    return derivStack_.data() + internal * stackSize_;
  }

  /// Which buffers this scheme/clustering combination allocates.
  bool useB2() const { return useB2_; }
  bool useB3() const { return useB3_; }

  std::size_t elSize() const { return elSize_; }     ///< nq x nb x W
  std::size_t bufSize() const { return bufSize_; }   ///< 9 x nb x W
  std::size_t stackSize() const { return stackSize_; } ///< order x 9 x nb x W

 private:
  partition::Reordering reorder_;
  mesh::TetMesh mesh_;                       ///< internal order
  idx_t numOwned_ = 0;
  int_t numClusters_ = 1;
  std::vector<int_t> cluster_;               ///< internal order
  std::vector<idx_t> clusterOffsets_;        ///< numClusters + 1 prefix offsets
  std::vector<kernels::ElementData<Real>> elementData_;

  std::size_t elSize_ = 0, bufSize_ = 0, stackSize_ = 0;
  bool useB2_ = false, useB3_ = false;

  arena_vector<Real> q_;
  arena_vector<Real> b1_, b2_, b3_;
  arena_vector<Real> derivStack_; ///< baseline scheme only
};

extern template class SolverState<float, 1>;
extern template class SolverState<float, 2>;
extern template class SolverState<float, 4>;
extern template class SolverState<float, 8>;
extern template class SolverState<float, 16>;
extern template class SolverState<double, 1>;
extern template class SolverState<double, 2>;
extern template class SolverState<double, 4>;

} // namespace nglts::solver
