// basin_distributed: the La Habra-like basin through the full
// `pre::runPipeline` chain (velocity-aware mesh, lambda sweep, weighted
// four-way partition), then a four-rank thread-transport
// `DistributedSimulation` (f32, W = 1, five clusters). The only workload
// where pre / partition set-up and parallel halo traffic are a large share
// of the time.
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>

#include "layers.hpp"
#include "parallel/dist_sim.hpp"
#include "pre/pipeline.hpp"
#include "seismo/receiver.hpp"
#include "timing_comm.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nglts;

namespace {

constexpr int kRanks = 4;
/// The lahabra scenario's --scale: 11250 tets. At 0.5 (1944 tets, under 500
/// per rank) the ranks spent 20-35% of the time loop blocked on halo
/// messages, and the 0.12 s set-up was too short to time steadily.
constexpr double kMeshScale = 0.7;
constexpr int kCycles = 2;  ///< LTS cycles of the largest cluster
constexpr int kReceivers = 3;
/// Squared width of the initial bump [m^2]: broad enough that every element
/// of the 16 km basin starts with a normal (non-zero, non-denormal) f32
/// field, so the cost does not depend on the seed-drawn bump centre.
constexpr double kBumpWidth2 = 1e7;

class BasinDistributed final : public Workload {
 public:
  BasinDistributed(std::uint64_t seed, int threads) : model_(modelParams()), threads_(threads) {
    Draw draw(seed);
    center_ = {draw.uniform(6000.0, 10000.0), draw.uniform(6000.0, 10000.0),
               draw.uniform(-3500.0, -2500.0)};
    for (int r = 0; r < kReceivers; ++r)
      receivers_.push_back({center_[0] + draw.uniform(-2500.0, 2500.0),
                            center_[1] + draw.uniform(-2500.0, 2500.0),
                            draw.uniform(-4500.0, -500.0)});

    sim_.order = 4;
    sim_.mechanisms = 3;
    sim_.scheme = solver::TimeScheme::kLtsNextGen;
    sim_.numClusters = 5;
    sim_.autoLambda = true;
    sim_.precision = solver::Precision::kF32;
    sim_.numThreads = std::max(1, threads / kRanks);

    pcfg_.lo = {0.0, 0.0, -6000.0};
    pcfg_.hi = {16000.0, 16000.0, 0.0};
    pcfg_.maxFrequency = 0.5 * kMeshScale;
    pcfg_.elementsPerWavelength = 2.0;
    pcfg_.minEdge = 150.0 / kMeshScale;
    pcfg_.order = sim_.order;
    pcfg_.mechanisms = sim_.mechanisms;
    pcfg_.cfl = sim_.cfl;
    pcfg_.numClusters = sim_.numClusters;
    pcfg_.autoLambda = true;
    pcfg_.numPartitions = kRanks;
  }

  Facts facts() const override { return {"f32", sim_.numThreads, kRanks, 1}; }

  Rep run(Tracer* tracer, Seismograms& out, LayerValues* layer) override {
    Rep rep;
    const double t0 = now();
    pre::PipelineResult pipe;
    std::unique_ptr<parallel::DistributedSimulation<float, 1>> sim;
    TimingComm* comm = nullptr;
    parallel::DistStats st;
    double tEnd = 0.0;
    {
      Scope timed(tracer, "rep");
      pipe = tracer ? replayPipeline(model_, pcfg_, tracer) : pre::runPipeline(model_, pcfg_);
      parallel::DistConfig dcfg;
      dcfg.sim = sim_;
      dcfg.sim.lambda = pipe.clustering.lambda;  // pinned: no second sweep
      dcfg.sim.autoLambda = false;
      dcfg.compressFaces = true;
      dcfg.transport = parallel::Transport::kThread;
      if (tracer)
        dcfg.commFactory = [&comm](int_t ranks) {
          auto c = std::make_unique<TimingComm>(ranks);
          comm = c.get();
          return std::unique_ptr<parallel::Communicator>(std::move(c));
        };
      {
        Scope s(tracer, "solver.construct");
        sim = std::make_unique<parallel::DistributedSimulation<float, 1>>(
            pipe.mesh, pipe.materials, pipe.parts.part, dcfg);
      }
      {
        Scope s(tracer, "solver.initial_condition");
        sim->setInitialCondition(gaussianBump(center_, kBumpWidth2));
      }
      {
        Scope s(tracer, "seismo.bind");
        for (const auto& x : receivers_)
          if (sim->addReceiver(x) < 0)
            throw std::runtime_error("basin_distributed: receiver outside mesh");
      }
      rep.setupSeconds = now() - t0;
      const double t1 = now();
      tEnd = kCycles * sim->cycleDt();
      if (!tracer) {
        st = sim->run(tEnd);
      } else {
        // One run() per cycle; the rank engines keep their state, so the
        // result is bitwise the same as one run(tEnd).
        Scope s(tracer, "solver.run");
        for (int c = 0; c < kCycles; ++c) {
          Scope cyc(tracer, "solver.cycle");
          const parallel::DistStats one = sim->run(sim->cycleDt());
          st.elementUpdates += one.elementUpdates;
          st.flops += one.flops;
          st.messages += one.messages;
          st.commBytes += one.commBytes;
        }
      }
      rep.solveSeconds = now() - t1;
      Scope s(tracer, "seismo.resample");
      for (idx_t r = 0; r < sim->numReceivers(); ++r) {
        const seismo::Seismogram& trace = sim->receiver(r).traces[0];
        const std::string name = std::string("r").append(std::to_string(r));
        out.add(name + ".vx", seismo::resample(trace, kVelU, tEnd, kTraceSamples));
        out.add(name + ".vy", seismo::resample(trace, kVelV, tEnd, kTraceSamples));
        out.add(name + ".vz", seismo::resample(trace, kVelW, tEnd, kTraceSamples));
      }
    }
    rep.tts = now() - t0;
    rep.laneUpdates = static_cast<double>(st.elementUpdates);
    if (layer) fillLayer(pipe, *sim, st, *comm, rep, *tracer, *layer);
    return rep;
  }

 private:
  static seismo::LaHabraLikeModel::Params modelParams() {
    seismo::LaHabraLikeModel::Params p;
    p.zTop = 0.0;
    p.basinCenter = {8000.0, 8000.0};
    p.vsMin = 250.0;
    return p;
  }

  void fillLayer(const pre::PipelineResult& pipe,
                 const parallel::DistributedSimulation<float, 1>& sim,
                 const parallel::DistStats& st, const TimingComm& comm, const Rep& rep,
                 Tracer& tracer, LayerValues& layer) {
    const int run = tracer.run();
    layer["mesh.generate_s"] = tracer.total("mesh.generate", run);
    layer["mesh.elements"] = static_cast<double>(pipe.mesh.numElements());
    layer["pre.pipeline_s"] = tracer.total("pre.pipeline", run);
    layer["pre.cache_builds"] = 1.0;  // one uncached pipeline build per simulation
    layer["lts.lambda_sweep_s"] = tracer.total("lts.lambda_sweep", run);
    layer["lts.theoretical_speedup"] = pipe.clustering.theoreticalSpeedup;
    layer["lts.updates_per_cycle"] = updatesPerCycle(pipe.clustering);
    layer["partition.partition_s"] = tracer.total("partition.partition", run);
    layer["partition.imbalance"] = pipe.parts.imbalance;
    layer["solver.construct_s"] = tracer.total("solver.construct", run);
    const std::vector<double> cycles = tracer.durations("solver.cycle", run);
    layer["solver.cycle_s.p50"] = median(cycles);
    layer["solver.cycle_s.p99"] = percentile(cycles, 99.0);
    fillKernelValues(layer, static_cast<double>(st.flops), rep.laneUpdates, rep.solveSeconds,
                     sim_.order, sim_.mechanisms, pipe.clustering.numClusters, sizeof(float));

    const TimingComm::RankCounters c = comm.total();
    check(c.messages == st.messages && c.bytes == st.commBytes,
          "basin_distributed: the comm decorator's message/byte counts differ from DistStats");
    layer["parallel.messages"] = static_cast<double>(c.messages);
    layer["parallel.comm_bytes"] = static_cast<double>(c.bytes);
    layer["parallel.send_s"] = c.sendSeconds;
    layer["parallel.recv_wait_s"] = c.recvSeconds;
    layer["parallel.wait_share"] = c.recvSeconds / (kRanks * rep.solveSeconds);

    double samples = 0;
    for (idx_t r = 0; r < sim.numReceivers(); ++r)
      samples += static_cast<double>(sim.receiver(r).traces[0].size());
    layer["seismo.receiver_samples"] = samples;

    // Replays outside the timed repetition: the traced set-up went through
    // the per-layer functions, so confirm once that it reproduces
    // runPipeline exactly; then split the time loop on one shared-memory
    // solver stack over the same mesh at the run's total thread count.
    Scope replay(&tracer, "replay");
    if (!pipelineChecked_) {
      check(samePipeline(pipe, pre::runPipeline(model_, pcfg_)),
            "basin_distributed: replayed pipeline differs from pre::runPipeline");
      pipelineChecked_ = true;
    }
    solver::SimConfig shared = sim.config().sim;
    shared.numThreads = threads_;
    replaySolver<float, 1>(pipe.mesh, pipe.materials, shared, gaussianBump(center_, kBumpWidth2), 2,
                           &tracer, layer);
  }

  seismo::LaHabraLikeModel model_;
  int threads_;
  std::array<double, 3> center_{};
  std::vector<std::array<double, 3>> receivers_;
  solver::SimConfig sim_;
  pre::PipelineConfig pcfg_;
  bool pipelineChecked_ = false;
};

}  // namespace

std::unique_ptr<Workload> makeBasinDistributed(std::uint64_t seed, int threads) {
  return std::make_unique<BasinDistributed>(seed, threads);
}

}  // namespace perfbench
