// ensemble_fused: a `batch::BatchEngine` ensemble on the quickstart base —
// the uncertainty-quantification user's workload. Seed-drawn source scales,
// receiver offsets and submission order are mixed with two fixed material
// scales, so the pipeline cache both misses and hits and the requests pack
// into fused W = 4 f64 lanes: the kernels layer at W = 4 on the vector path
// plus the batch layer's planning, caching and streaming.
#include <cmath>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>

#include "batch/batch_engine.hpp"
#include "layers.hpp"
#include "seismo/receiver.hpp"
#include "workloads.hpp"

namespace perfbench {

using namespace nglts;

namespace {

constexpr double kEndTime = 0.02;  ///< simulated seconds per member
/// Members per material scale. 8 + 4 members give fused runs of 4 + 4 and 4
/// lanes: two pipeline builds and one cache hit per batch.
constexpr int kMembersPerScale[] = {8, 4};
constexpr double kMaterialScales[] = {1.0, 1.15};

class EnsembleFused final : public Workload {
 public:
  EnsembleFused(std::uint64_t seed, int threads)
      : model_(batch::quickstartBatchModel()), modelKey_(batch::quickstartBatchModelKey()) {
    cfg_ = batch::quickstartBatchConfig();
    cfg_.sim.numThreads = threads;
    cfg_.endTime = kEndTime;
    cfg_.sourcePosition = {500.0, 500.0, -500.0};
    cfg_.sourceFrequency = 8.0;
    cfg_.sourceDelay = 0.02;
    cfg_.receiverPosition = {500.0, 500.0, -500.0};
    cfg_.maxFusedWidth = 4;

    Draw draw(seed);
    for (int s = 0; s < 2; ++s)
      for (int m = 0; m < kMembersPerScale[s]; ++m) {
        batch::ScenarioRequest req;
        req.materialScale = kMaterialScales[s];
        req.sourceScale = draw.uniform(0.5, 2.0);
        req.receiverOffset = {draw.uniform(-150.0, 150.0), draw.uniform(-150.0, 150.0),
                              draw.uniform(-150.0, 150.0)};
        requests_.push_back(req);
      }
    for (std::size_t i = requests_.size() - 1; i > 0; --i)  // Fisher-Yates
      std::swap(requests_[i], requests_[draw.below(i + 1)]);
    for (std::size_t i = 0; i < requests_.size(); ++i)
      requests_[i].id = std::string("m").append(std::to_string(i));
    checkLane_ = static_cast<int>(draw.below(4));

    // Work per material scale, from the same pipeline products the engine
    // builds (untimed): cycles per member and lane updates per cycle.
    for (double scale : kMaterialScales) {
      const batch::ScaledVelocityModel scaled(model_, scale);
      const pre::PipelineResult pipe = pre::runPipeline(scaled, pipelineConfig());
      Work& w = work_[scale];
      w.updatesPerCycle = updatesPerCycle(pipe.clustering);
      w.cycles = static_cast<double>(
          std::ceil(kEndTime / pipe.clustering.clusterDt.back() - 1e-9));
    }
  }

  Facts facts() const override { return {"f64", cfg_.sim.numThreads, 1, cfg_.maxFusedWidth}; }

  Rep run(Tracer* tracer, Seismograms& out, LayerValues* layer) override {
    Rep rep;
    std::vector<batch::RequestResult> results(requests_.size());
    batch::BatchStats stats;
    std::vector<batch::BatchEngine::PlannedRun> plan;
    double firstResult = -1.0;
    double planSeconds = 0.0;
    const double t0 = now();
    {
      Scope timed(tracer, "rep");
      std::unique_ptr<batch::BatchEngine> engine;
      {
        Scope s(tracer, "batch.plan");
        engine = std::make_unique<batch::BatchEngine>(model_, cfg_, modelKey_);
        engine->add(requests_);
        plan = engine->plan();
      }
      planSeconds = now() - t0;
      {
        Scope s(tracer, "batch.run");
        const double runStart = now();
        stats = engine->run([&](const batch::RequestResult& r) {
          if (firstResult < 0.0) firstResult = now() - runStart;
          results[static_cast<std::size_t>(r.requestIndex)] = r;
        });
      }
      Scope s(tracer, "seismo.resample");
      for (const batch::RequestResult& r : results) {
        out.add(r.id + ".vx", seismo::resample(r.trace, kVelU, kEndTime, kTraceSamples));
        out.add(r.id + ".vz", seismo::resample(r.trace, kVelW, kEndTime, kTraceSamples));
      }
    }
    rep.tts = now() - t0;
    rep.setupSeconds = planSeconds + stats.setupSeconds;
    rep.solveSeconds = stats.solveSeconds;
    rep.members = static_cast<double>(stats.completedRequests);
    double cycles = 0.0;
    for (const auto& pr : plan) {
      const Work& w = work_.at(requests_[static_cast<std::size_t>(pr.requests[0])].materialScale);
      rep.laneUpdates += w.cycles * w.updatesPerCycle * pr.width;
      cycles += w.cycles;
    }
    check(cycles == static_cast<double>(stats.cycles),
          "ensemble_fused: engine cycles differ from the planned work");
    if (firstRaw_.empty()) {
      firstRaw_ = results;
      firstPlan_ = plan;
    }
    if (layer) fillLayer(stats, plan, planSeconds, firstResult, rep, *tracer, *layer);
    return rep;
  }

  /// The batch engine's own contract, checked outside the timed region: one
  /// member per fused run bitwise-equals an independent W = 1 run of it.
  CheckResult finalChecks() override {
    for (const auto& pr : firstPlan_) {
      const idx_t member = pr.requests[static_cast<std::size_t>(checkLane_ % pr.width)];
      batch::BatchConfig single = cfg_;
      single.maxFusedWidth = 1;
      batch::BatchEngine engine(model_, single, modelKey_);
      engine.add(requests_[static_cast<std::size_t>(member)]);
      seismo::Seismogram independent;
      engine.run([&](const batch::RequestResult& r) { independent = r.trace; });
      const seismo::Seismogram& fused = firstRaw_[static_cast<std::size_t>(member)].trace;
      check(independent.times == fused.times && independent.values == fused.values,
            "ensemble_fused: member " + requests_[static_cast<std::size_t>(member)].id +
                " differs from its independent W=1 run");
    }
    return problems_;
  }

 private:
  struct Work {
    double updatesPerCycle = 0.0;
    double cycles = 0.0;
  };

  /// The pipeline configuration the engine derives for a group: the base
  /// pipeline with the solver's discretization and clustering mirrored in.
  pre::PipelineConfig pipelineConfig() const {
    pre::PipelineConfig p = cfg_.pipeline;
    p.order = cfg_.sim.order;
    p.mechanisms = cfg_.sim.mechanisms;
    p.cfl = cfg_.sim.cfl;
    p.numClusters = cfg_.sim.numClusters;
    p.autoLambda = cfg_.sim.autoLambda;
    p.lambda = cfg_.sim.lambda;
    p.numPartitions = 1;
    p.partitionWeighting = cfg_.sim.partitionWeighting;
    return p;
  }

  void fillLayer(const batch::BatchStats& stats,
                 const std::vector<batch::BatchEngine::PlannedRun>& plan, double planSeconds,
                 double firstResult, const Rep& rep, Tracer& tracer, LayerValues& layer) {
    const int run = tracer.run();
    const double lookups = static_cast<double>(stats.pipelineBuilds + stats.pipelineHits);
    layer["pre.cache_builds"] = static_cast<double>(stats.pipelineBuilds);
    layer["pre.cache_hits"] = static_cast<double>(stats.pipelineHits);
    layer["pre.cache_hit_ratio"] = static_cast<double>(stats.pipelineHits) / lookups;
    layer["batch.plan_s"] = planSeconds;
    layer["batch.runs"] = static_cast<double>(stats.runs);
    layer["batch.lane_fill"] =
        static_cast<double>(stats.completedRequests) / (static_cast<double>(plan.size()) * 4.0);
    layer["batch.setup_s"] = stats.setupSeconds;
    layer["batch.solve_s"] = stats.solveSeconds;
    layer["batch.first_result_s"] = firstResult;
    double samples = 0;
    for (const batch::RequestResult& r : firstRaw_) samples += static_cast<double>(r.trace.size());
    layer["seismo.receiver_samples"] = samples;
    fillKernelValues(layer, static_cast<double>(stats.flops), rep.laneUpdates, rep.solveSeconds,
                     cfg_.sim.order, cfg_.sim.mechanisms, cfg_.sim.numClusters, sizeof(double));

    // Replays outside the timed repetition: the engine hides its pipeline
    // and solver, so rebuild the base member's pipeline through the
    // per-layer functions (checked once against runPipeline) and split the
    // W = 4 time loop op by op.
    Scope replay(&tracer, "replay");
    const pre::PipelineResult pipe = replayPipeline(model_, pipelineConfig(), &tracer);
    if (!pipelineChecked_) {
      check(samePipeline(pipe, pre::runPipeline(model_, pipelineConfig())),
            "ensemble_fused: replayed pipeline differs from pre::runPipeline");
      pipelineChecked_ = true;
    }
    layer["mesh.generate_s"] = tracer.total("mesh.generate", run);
    layer["mesh.elements"] = static_cast<double>(pipe.mesh.numElements());
    layer["pre.pipeline_s"] = tracer.total("pre.pipeline", run);
    layer["lts.lambda_sweep_s"] = tracer.total("lts.lambda_sweep", run);
    layer["lts.theoretical_speedup"] = pipe.clustering.theoreticalSpeedup;
    layer["lts.updates_per_cycle"] = updatesPerCycle(pipe.clustering);
    layer["partition.partition_s"] = tracer.total("partition.partition", run);
    layer["partition.imbalance"] = pipe.parts.imbalance;
    solver::SimConfig pinned = cfg_.sim;
    pinned.lambda = pipe.clustering.lambda;
    pinned.autoLambda = false;
    std::vector<double> cycles;
    replaySolver<double, 4>(pipe.mesh, pipe.materials, pinned,
                            gaussianBump(cfg_.sourcePosition, 4e4), 2, &tracer, layer, &cycles);
    layer["solver.construct_s"] = tracer.durations("solver.replay_construct", run).front();
    layer["solver.cycle_s.p50"] = median(cycles);
    layer["solver.cycle_s.p99"] = percentile(cycles, 99.0);
  }

  seismo::LayeredModel model_;
  std::uint64_t modelKey_;
  batch::BatchConfig cfg_;
  std::vector<batch::ScenarioRequest> requests_;
  std::map<double, Work> work_;
  int checkLane_ = 0;
  std::vector<batch::RequestResult> firstRaw_;
  std::vector<batch::BatchEngine::PlannedRun> firstPlan_;
  bool pipelineChecked_ = false;
};

}  // namespace

std::unique_ptr<Workload> makeEnsembleFused(std::uint64_t seed, int threads) {
  return std::make_unique<EnsembleFused>(seed, threads);
}

}  // namespace perfbench
