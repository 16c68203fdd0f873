#pragma once
// Traced replays of the library's composite entry points through their
// public per-layer functions, so spans can sit at every layer boundary
// without touching the library:
//  * `replayPipeline` re-runs `pre::runPipeline` step by step (mesh, lts,
//    partition spans) and `samePipeline` checks it produced the same result;
//  * `replaySolver` rebuilds the solver stack (`AderKernels`, `SolverState`,
//    `StepExecutor`) and drives `StepExecutor::runOp` op by op to split the
//    time loop into its local and neighbor phases, and repeats a short slice
//    single-threaded for the parallel efficiency.
#include <vector>

#include "common.hpp"
#include "lts/clustering.hpp"
#include "mesh/tet_mesh.hpp"
#include "physics/material.hpp"
#include "pre/pipeline.hpp"
#include "seismo/velocity_model.hpp"
#include "solver/config.hpp"
#include "solver/seismo_hook.hpp"

namespace perfbench {

/// `pre::runPipeline(model, cfg)` through the public per-layer functions,
/// one span per step under a "pre.pipeline" span.
nglts::pre::PipelineResult replayPipeline(const nglts::seismo::VelocityModel& model,
                                          const nglts::pre::PipelineConfig& cfg, Tracer* tracer);

/// Whether two pipeline results agree in every product the solver consumes
/// (mesh, materials, CFL steps, clustering, partition, reordering).
bool samePipeline(const nglts::pre::PipelineResult& a, const nglts::pre::PipelineResult& b);

/// Rebuild the solver stack for (mesh, materials, cfg), project `init` (a
/// smooth field, so no element takes the kernels' exact-zero skips) and drive
/// `cycles` LTS cycles op by op, then one cycle single-threaded from the same
/// field. Fills kernels.setup_s,
/// solver.local_s, solver.neighbor_s, solver.local_share,
/// solver.parallel_efficiency and solver.arena_bytes (and, when
/// `cycleTimes` is non-null, appends the per-cycle wall times).
template <typename Real, int W>
void replaySolver(const nglts::mesh::TetMesh& mesh,
                  const std::vector<nglts::physics::Material>& materials,
                  const nglts::solver::SimConfig& cfg,
                  const nglts::solver::InitialConditionFn& init, int cycles, Tracer* tracer,
                  LayerValues& out, std::vector<double>* cycleTimes = nullptr);

/// A Gaussian bump of vertical particle velocity centred at `center` with
/// squared width `width2` [m^2], identical in every fused lane.
nglts::solver::InitialConditionFn gaussianBump(std::array<double, 3> center, double width2);

/// Per-lane element updates one LTS cycle performs: sum over clusters of
/// cluster size x steps per cycle.
double updatesPerCycle(const nglts::lts::Clustering& clustering);

/// Fill the kernel-layer values every workload derives the same way from its
/// time-loop counters: kernels.flops_per_update (per lane-element update),
/// kernels.gflops, and kernels.bytes_per_update_computed — a model of the
/// arena bytes one lane-element update touches: read and write the DOFs,
/// write the elastic buffers the scheme keeps, read four face neighbors'
/// buffers (operator data excluded).
void fillKernelValues(LayerValues& layer, double flops, double laneUpdates, double solveSeconds,
                      int order, int mechanisms, int numClusters, int realBytes);

}  // namespace perfbench
