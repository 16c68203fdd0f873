#include "layers.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "kernels/ader_kernels.hpp"
#include "kernels/kernel_setup.hpp"
#include "lts/clustering.hpp"
#include "lts/schedule.hpp"
#include "mesh/box_gen.hpp"
#include "mesh/geometry.hpp"
#include "mesh/gmsh_io.hpp"
#include "partition/dual_graph.hpp"
#include "partition/partitioner.hpp"
#include "partition/reorder.hpp"
#include "solver/executor.hpp"
#include "solver/setup.hpp"
#include "solver/state.hpp"

namespace perfbench {

using namespace nglts;

namespace {

/// The pipeline's velocity-aware axis sizing (pre/pipeline.cpp keeps it
/// file-local): target edge = min shear wavelength over a 5 x 5 sample of
/// the orthogonal plane / elements per wavelength, clamped to the edge
/// bounds. `samePipeline` catches any drift from the library's version.
std::vector<double> axisPlanes(const seismo::VelocityModel& model, const pre::PipelineConfig& cfg,
                               int_t axis) {
  auto spacing = [&](double t) {
    double vsMin = 1e300;
    for (int_t i = 0; i <= 4; ++i)
      for (int_t j = 0; j <= 4; ++j) {
        std::array<double, 3> x;
        x[axis] = t;
        const int_t a1 = (axis + 1) % 3, a2 = (axis + 2) % 3;
        x[a1] = cfg.lo[a1] + (cfg.hi[a1] - cfg.lo[a1]) * i / 4.0;
        x[a2] = cfg.lo[a2] + (cfg.hi[a2] - cfg.lo[a2]) * j / 4.0;
        vsMin = std::min(vsMin, model.at(x).vs);
      }
    const double target = vsMin / cfg.maxFrequency / cfg.elementsPerWavelength;
    return std::clamp(target, cfg.minEdge, cfg.maxEdge);
  };
  return mesh::gradedPlanes(cfg.lo[axis], cfg.hi[axis], spacing);
}

bool sameMesh(const mesh::TetMesh& a, const mesh::TetMesh& b) {
  if (a.vertices != b.vertices || a.elements != b.elements || a.faces.size() != b.faces.size())
    return false;
  for (std::size_t e = 0; e < a.faces.size(); ++e)
    for (int f = 0; f < 4; ++f) {
      const mesh::FaceInfo& x = a.faces[e][f];
      const mesh::FaceInfo& y = b.faces[e][f];
      if (x.neighbor != y.neighbor || x.neighborFace != y.neighborFace || x.perm != y.perm ||
          x.kind != y.kind)
        return false;
    }
  return true;
}

bool sameMaterial(const physics::Material& a, const physics::Material& b) {
  return a.rho == b.rho && a.lambda == b.lambda && a.mu == b.mu && a.omega == b.omega &&
         a.yLambda == b.yLambda && a.yMu == b.yMu;
}

}  // namespace

pre::PipelineResult replayPipeline(const seismo::VelocityModel& model,
                                   const pre::PipelineConfig& cfg, Tracer* tracer) {
  Scope all(tracer, "pre.pipeline");
  pre::PipelineResult out;

  mesh::TetMesh mesh;
  {
    Scope s(tracer, "mesh.generate");
    if (cfg.meshFile.empty()) {
      mesh::BoxSpec spec;
      for (int_t a = 0; a < 3; ++a) spec.planes[a] = axisPlanes(model, cfg, a);
      spec.jitter = cfg.jitter;
      spec.freeSurfaceTop = cfg.freeSurfaceTop;
      mesh = mesh::generateBox(spec);
    } else {
      mesh = mesh::readGmshFile(cfg.meshFile);
    }
  }
  std::vector<physics::Material> materials;
  {
    Scope s(tracer, "seismo.materials");
    materials = seismo::materialsForMesh(mesh, model, cfg.mechanisms, cfg.maxFrequency);
  }
  std::vector<mesh::ElementGeometry> geo;
  {
    Scope s(tracer, "mesh.geometry");
    geo = mesh::computeGeometry(mesh);
  }
  {
    Scope s(tracer, "lts.cfl");
    out.dtCfl = lts::cflTimeSteps(geo, materials, cfg.order, cfg.cfl);
  }
  double lambda = cfg.lambda;
  if (cfg.autoLambda) {
    Scope s(tracer, "lts.lambda_sweep");
    out.lambdaSweep = lts::optimizeLambda(mesh, out.dtCfl, cfg.numClusters);
    lambda = out.lambdaSweep.bestLambda;
  }
  {
    Scope s(tracer, "lts.clustering");
    out.clustering = lts::buildClustering(mesh, out.dtCfl, cfg.numClusters, lambda);
  }
  {
    Scope s(tracer, "partition.partition");
    const auto graph =
        partition::buildPartitionGraph(mesh, out.clustering, cfg.partitionWeighting);
    out.parts = partition::partitionGraph(graph, mesh, cfg.numPartitions);
  }
  {
    Scope s(tracer, "partition.reorder");
    out.reordering = partition::buildReordering(mesh, out.parts.part, out.clustering.cluster);
    out.mesh = partition::applyReordering(mesh, out.reordering);
    out.materials = partition::permute(materials, out.reordering);
    out.dtCfl = partition::permute(out.dtCfl, out.reordering);
    out.clustering.cluster = partition::permute(out.clustering.cluster, out.reordering);
    out.parts.part = partition::permute(out.parts.part, out.reordering);
  }
  out.partitionRanges.assign(static_cast<std::size_t>(cfg.numPartitions),
                             {out.mesh.numElements(), 0});
  for (idx_t e = 0; e < out.mesh.numElements(); ++e) {
    auto& range = out.partitionRanges[static_cast<std::size_t>(out.parts.part[e])];
    range.first = std::min(range.first, e);
    range.second = std::max(range.second, e + 1);
  }
  return out;
}

bool samePipeline(const pre::PipelineResult& a, const pre::PipelineResult& b) {
  if (!sameMesh(a.mesh, b.mesh) || a.materials.size() != b.materials.size()) return false;
  for (std::size_t i = 0; i < a.materials.size(); ++i)
    if (!sameMaterial(a.materials[i], b.materials[i])) return false;
  return a.dtCfl == b.dtCfl && a.clustering.cluster == b.clustering.cluster &&
         a.clustering.lambda == b.clustering.lambda &&
         a.clustering.clusterDt == b.clustering.clusterDt && a.parts.part == b.parts.part &&
         a.reordering.newId == b.reordering.newId && a.partitionRanges == b.partitionRanges;
}

template <typename Real, int W>
void replaySolver(const mesh::TetMesh& mesh, const std::vector<physics::Material>& materials,
                  const solver::SimConfig& cfg, const solver::InitialConditionFn& init,
                  int cycles, Tracer* tracer, LayerValues& out, std::vector<double>* cycleTimes) {
  const auto geo = mesh::computeGeometry(mesh);
  const auto dtCfl = lts::cflTimeSteps(geo, materials, cfg.order, cfg.cfl);
  const lts::Clustering clustering = solver::resolveClustering(mesh, dtCfl, cfg);
  const std::vector<double> omega = solver::resolveOmega(materials, cfg.mechanisms);

  double t = now();
  std::unique_ptr<kernels::AderKernels<Real, W>> kern;
  {
    Scope s(tracer, "kernels.setup");
    kern = std::make_unique<kernels::AderKernels<Real, W>>(cfg.order, cfg.mechanisms,
                                                           cfg.sparseKernels, omega,
                                                           cfg.kernelBackend);
    [[maybe_unused]] const auto data =
        kernels::buildAllElementData<Real>(mesh, geo, materials, cfg.mechanisms);
  }
  out["kernels.setup_s"] = now() - t;

  // Drive `n` cycles op by op at `threads` threads; returns the per-cycle
  // wall times and accumulates the local / neighbor phase times.
  double local = 0.0, neighbor = 0.0;
  auto drive = [&](int threads, int n, double& localSum, double& neighborSum) {
    solver::SimConfig c = cfg;
    c.numThreads = threads;
    std::unique_ptr<solver::SolverState<Real, W>> state;
    std::unique_ptr<solver::StepExecutor<Real, W>> exec;
    {
      Scope s(tracer, "solver.replay_construct");
      state = std::make_unique<solver::SolverState<Real, W>>(mesh, materials, geo, clustering,
                                                             *kern, c);
      exec = std::make_unique<solver::StepExecutor<Real, W>>(
          c, *kern, *state, clustering, lts::buildSchedule(clustering.numClusters), nullptr);
      solver::projectInitialCondition(*kern, mesh, geo, init, *state, mesh.numElements());
    }
    const std::size_t buffers = 1 + (state->useB2() ? 1 : 0) + (state->useB3() ? 1 : 0);
    out["solver.arena_bytes"] = static_cast<double>(
        static_cast<std::size_t>(state->numElements()) *
        (state->elSize() + buffers * state->bufSize() +
         (c.scheme == solver::TimeScheme::kLtsBaseline ? state->stackSize() : 0)) *
        sizeof(Real));
    std::vector<double> perCycle;
    for (int k = 0; k < n; ++k) {
      Scope cyc(tracer, "solver.replay_cycle");
      const double c0 = now();
      for (const lts::ScheduleOp& op : exec->schedule()) {
        const bool isLocal = op.kind == lts::PhaseKind::kLocal;
        Scope s(tracer, isLocal ? "solver.local" : "solver.neighbor");
        const double a = now();
        exec->runOp(op);
        (isLocal ? localSum : neighborSum) += now() - a;
      }
      perCycle.push_back(now() - c0);
    }
    return perCycle;
  };

  const int threads = cfg.numThreads;
  const std::vector<double> multi = drive(threads, cycles, local, neighbor);
  double local1 = 0.0, neighbor1 = 0.0;
  const std::vector<double> single = drive(1, 1, local1, neighbor1);
  out["solver.local_s"] = local;
  out["solver.neighbor_s"] = neighbor;
  out["solver.local_share"] = local / (local + neighbor);
  out["solver.parallel_efficiency"] = single[0] / (threads * median(multi));
  if (cycleTimes) cycleTimes->insert(cycleTimes->end(), multi.begin(), multi.end());
}

solver::InitialConditionFn gaussianBump(std::array<double, 3> center, double width2) {
  return [center, width2](const std::array<double, 3>& x, int_t, double* q9) {
    for (int_t v = 0; v < kElasticVars; ++v) q9[v] = 0.0;
    double r2 = 0.0;
    for (int d = 0; d < 3; ++d) r2 += (x[d] - center[d]) * (x[d] - center[d]);
    q9[kVelW] = std::exp(-r2 / width2);
  };
}

double updatesPerCycle(const lts::Clustering& clustering) {
  double u = 0.0;
  for (int_t l = 0; l < clustering.numClusters; ++l)
    u += static_cast<double>(clustering.clusterSize[static_cast<std::size_t>(l)] *
                             lts::stepsPerCycle(clustering.numClusters, l));
  return u;
}

void fillKernelValues(LayerValues& layer, double flops, double laneUpdates, double solveSeconds,
                      int order, int mechanisms, int numClusters, int realBytes) {
  const double nb = order * (order + 1) * (order + 2) / 6.0;
  const double nq = 9.0 + 6.0 * mechanisms;
  const double buffers = numClusters > 1 ? 3.0 : 1.0;
  layer["kernels.flops_per_update"] = flops / laneUpdates;
  layer["kernels.gflops"] = flops / solveSeconds * 1e-9;
  layer["kernels.bytes_per_update_computed"] =
      realBytes * (2.0 * nq * nb + buffers * 9.0 * nb + 4.0 * 9.0 * nb);
}

#define PERFBENCH_REPLAY_SOLVER(Real, W)                                                      \
  template void replaySolver<Real, W>(                                                        \
      const mesh::TetMesh&, const std::vector<physics::Material>&, const solver::SimConfig&, \
      const solver::InitialConditionFn&, int, Tracer*, LayerValues&, std::vector<double>*);
PERFBENCH_REPLAY_SOLVER(double, 1)
PERFBENCH_REPLAY_SOLVER(float, 1)
PERFBENCH_REPLAY_SOLVER(double, 4)
#undef PERFBENCH_REPLAY_SOLVER

}  // namespace perfbench
