// lts_forward: the quickstart two-layer viscoelastic box (order 4, three
// mechanisms, three-cluster next-generation LTS, f64, W = 1, shared memory).
// The time loop — the kernels' local phase plus the solver's executor —
// dominates; pre, partition and parallel do almost nothing here, so a kernel
// or executor change shows while a preprocessing or communication change
// should read flat.
#include <memory>
#include <stdexcept>
#include <string>

#include "layers.hpp"
#include "lts/clustering.hpp"
#include "lts/schedule.hpp"
#include "mesh/box_gen.hpp"
#include "mesh/geometry.hpp"
#include "partition/reorder.hpp"
#include "physics/attenuation.hpp"
#include "seismo/receiver.hpp"
#include "seismo/source.hpp"
#include "solver/simulation.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nglts;

namespace {

constexpr idx_t kCells = 8;         ///< hexahedral cells per axis (6 tets each)
constexpr double kEndTime = 0.03;   ///< simulated seconds
constexpr int kReceivers = 3;
constexpr double kBumpWidth2 = 1e5;  ///< initial bump [m^2]

class LtsForward final : public Workload {
 public:
  LtsForward(std::uint64_t seed, int threads) {
    Draw draw(seed);
    spec_.planes[0] = mesh::uniformPlanes(0.0, 1000.0, kCells);
    spec_.planes[1] = mesh::uniformPlanes(0.0, 1000.0, kCells);
    spec_.planes[2] = mesh::uniformPlanes(-1000.0, 0.0, kCells);
    spec_.jitter = 0.2;
    spec_.jitterSeed = draw.raw();
    spec_.freeSurfaceTop = true;
    source_ = {draw.uniform(400.0, 600.0), draw.uniform(400.0, 600.0),
               draw.uniform(-600.0, -400.0)};
    for (int r = 0; r < kReceivers; ++r)
      receivers_.push_back({source_[0] + draw.uniform(-200.0, 200.0),
                            source_[1] + draw.uniform(-200.0, 200.0),
                            source_[2] + draw.uniform(-200.0, 200.0)});
    cfg_.order = 4;
    cfg_.mechanisms = 3;
    cfg_.scheme = solver::TimeScheme::kLtsNextGen;
    cfg_.numClusters = 3;
    cfg_.autoLambda = true;
    cfg_.attenuationFreq = 2.0;
    cfg_.numThreads = threads;
  }

  Facts facts() const override { return {"f64", cfg_.numThreads, 1, 1}; }

  Rep run(Tracer* tracer, Seismograms& out, LayerValues* layer) override {
    Rep rep;
    const double t0 = now();
    std::unique_ptr<solver::Simulation<double, 1>> sim;
    solver::PerfStats st;
    {
      Scope timed(tracer, "rep");
      mesh::TetMesh mesh;
      {
        Scope s(tracer, "mesh.generate");
        mesh = mesh::generateBox(spec_);
      }
      std::vector<physics::Material> materials;
      {
        Scope s(tracer, "inputs.materials");
        materials = materialsFor(mesh);
      }
      {
        Scope s(tracer, "solver.construct");
        sim = std::make_unique<solver::Simulation<double, 1>>(std::move(mesh),
                                                              std::move(materials), cfg_);
      }
      {
        // A broad bump lights every element up from the first step, so the
        // kernels' exact-zero skips do not make the cost depend on how far
        // the wavefield has spread from the seed-drawn source.
        Scope s(tracer, "solver.initial_condition");
        sim->setInitialCondition(gaussianBump(source_, kBumpWidth2));
      }
      {
        Scope s(tracer, "seismo.bind");
        sim->addPointSource(seismo::momentTensorSource(
            source_, {0.0, 0.0, 0.0, 1e9, 0.0, 0.0},
            std::make_shared<seismo::RickerWavelet>(8.0, 0.05)));
        for (const auto& x : receivers_)
          if (sim->addReceiver(x) < 0)
            throw std::runtime_error("lts_forward: receiver outside mesh");
      }
      rep.setupSeconds = now() - t0;
      const double t1 = now();
      if (!tracer) {
        st = sim->run(kEndTime);
      } else {
        // Per-cycle times come from runCycles(1); the state carries over, so
        // the result is bitwise the same as one run(kEndTime).
        Scope s(tracer, "solver.run");
        for (std::uint64_t c = sim->cyclesFor(kEndTime); c > 0; --c) {
          Scope cyc(tracer, "solver.cycle");
          const solver::PerfStats one = sim->runCycles(1);
          st.elementUpdates += one.elementUpdates;
          st.flops += one.flops;
        }
      }
      rep.solveSeconds = now() - t1;
      {
        Scope s(tracer, "seismo.resample");
        for (idx_t r = 0; r < sim->numReceivers(); ++r) {
          const seismo::Seismogram& trace = sim->receiver(r).traces[0];
          const std::string name = std::string("r").append(std::to_string(r));
          out.add(name + ".vx", seismo::resample(trace, kVelU, kEndTime, kTraceSamples));
          out.add(name + ".vy", seismo::resample(trace, kVelV, kEndTime, kTraceSamples));
          out.add(name + ".vz", seismo::resample(trace, kVelW, kEndTime, kTraceSamples));
        }
      }
    }
    rep.tts = now() - t0;
    rep.laneUpdates = static_cast<double>(st.elementUpdates);
    if (layer) fillLayer(*sim, st, rep, *tracer, *layer);
    return rep;
  }

 private:
  /// The quickstart materials: a soft near-surface layer (vs 500) over
  /// stiffer rock (vs 2000), vp = 1.9 vs, Qp 100, Qs 50.
  std::vector<physics::Material> materialsFor(const mesh::TetMesh& mesh) const {
    std::vector<physics::Material> m(static_cast<std::size_t>(mesh.numElements()));
    for (idx_t e = 0; e < mesh.numElements(); ++e) {
      const double vs = mesh.centroid(e)[2] > -250.0 ? 500.0 : 2000.0;
      m[static_cast<std::size_t>(e)] = physics::viscoElasticMaterial(
          2600.0, vs * 1.9, vs, 100.0, 50.0, cfg_.mechanisms, cfg_.attenuationFreq);
    }
    return m;
  }

  void fillLayer(const solver::Simulation<double, 1>& sim, const solver::PerfStats& st,
                 const Rep& rep, Tracer& tracer, LayerValues& layer) const {
    const int run = tracer.run();
    const lts::Clustering& cl = sim.clustering();
    layer["mesh.generate_s"] = tracer.total("mesh.generate", run);
    layer["mesh.elements"] = static_cast<double>(sim.meshRef().numElements());
    layer["lts.theoretical_speedup"] = cl.theoreticalSpeedup;
    layer["lts.updates_per_cycle"] = updatesPerCycle(cl);
    layer["solver.construct_s"] = tracer.total("solver.construct", run);
    const std::vector<double> cycles = tracer.durations("solver.cycle", run);
    layer["solver.cycle_s.p50"] = median(cycles);
    layer["solver.cycle_s.p99"] = percentile(cycles, 99.0);
    double samples = 0;
    for (idx_t r = 0; r < sim.numReceivers(); ++r)
      samples += static_cast<double>(sim.receiver(r).traces[0].size());
    layer["seismo.receiver_samples"] = samples;
    fillKernelValues(layer, static_cast<double>(st.flops), rep.laneUpdates, rep.solveSeconds,
                     cfg_.order, cfg_.mechanisms, cl.numClusters, sizeof(double));

    // Replays outside the timed repetition: the lambda sweep the facade ran
    // inside its constructor, the cluster reordering that is this shared-
    // memory run's only partition-layer work, and the op-by-op solver stack.
    Scope replay(&tracer, "replay");
    const mesh::TetMesh& mesh = sim.meshRef();
    const std::vector<physics::Material> materials = materialsFor(mesh);
    const auto dtCfl = lts::cflTimeSteps(mesh::computeGeometry(mesh), materials, cfg_.order,
                                         cfg_.cfl);
    {
      Scope s(&tracer, "lts.lambda_sweep");
      lts::optimizeLambda(mesh, dtCfl, cfg_.numClusters);
    }
    layer["lts.lambda_sweep_s"] = tracer.total("lts.lambda_sweep", run);
    {
      Scope s(&tracer, "partition.cluster_reorder");
      partition::buildClusterReordering(mesh, cl.cluster);
    }
    layer["partition.partition_s"] = tracer.total("partition.cluster_reorder", run);
    layer["partition.imbalance"] = 1.0;
    solver::SimConfig pinned = sim.config();
    pinned.lambda = cl.lambda;
    pinned.autoLambda = false;
    replaySolver<double, 1>(mesh, materials, pinned, gaussianBump(source_, kBumpWidth2), 2,
                            &tracer, layer);
  }

  mesh::BoxSpec spec_;
  std::array<double, 3> source_{};
  std::vector<std::array<double, 3>> receivers_;
  solver::SimConfig cfg_;
};

}  // namespace

std::unique_ptr<Workload> makeLtsForward(std::uint64_t seed, int threads) {
  return std::make_unique<LtsForward>(seed, threads);
}

}  // namespace perfbench
