// Reproduces Tab. I: single-socket time-to-solution of the LOH.3-like
// setting for GTS, next-generation LTS (lambda = 1.0 and 0.8) and the
// buffer+derivative baseline scheme of [15] ("SeisSol" row), each as a
// single forward simulation (dense block-trimmed kernels) and as sixteen
// fused simulations (fully sparse kernels). Reported: element updates per
// second, GFLOPS-equivalents (useful ops), and speedups over single-run GTS
// — per fused lane in the fused columns, matching the paper's
// per-simulation accounting. The main rows run on all hardware threads;
// a dedicated sweep section measures the threaded StepExecutor at
// 1/2/4/8 threads (bitwise-identical results, throughput only).
#include <algorithm>
#include <cstdio>

#include "bench_common.hpp"
#include "common/table.hpp"
#include "lts/clustering.hpp"
#include "parallel/dist_sim.hpp"
#include "partition/dual_graph.hpp"
#include "partition/partitioner.hpp"
#include "solver/simulation.hpp"
#include "solver/threading.hpp"

using namespace nglts;

namespace {

struct RowResult {
  double updatesPerSec = 0.0; // per lane
  double gflops = 0.0;
};

template <int W>
RowResult runCase(solver::TimeScheme scheme, double lambda, bool sparse, double scale,
                  double tEnd, int_t threads = -1) {
  bench::Loh3Scenario sc(scale);
  solver::SimConfig cfg;
  cfg.order = 4;
  cfg.mechanisms = 3;
  cfg.attenuationFreq = 1.0;
  cfg.scheme = scheme;
  cfg.numClusters = 3;
  cfg.lambda = lambda;
  cfg.autoLambda = lambda < 0; // negative lambda encodes "use the Sec. V-A sweep"
  if (cfg.autoLambda) cfg.lambda = 1.0;
  cfg.sparseKernels = sparse;
  cfg.kernelBackend = bench::benchKernelBackend();
  cfg.numThreads = threads > 0 ? threads : solver::hardwareThreads();
  solver::Simulation<float, W> sim(std::move(sc.mesh), std::move(sc.materials), cfg);
  sim.setInitialCondition([](const std::array<double, 3>& x, int_t, double* q9) {
    for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
    const double r2 = (x[0] - 4000.0) * (x[0] - 4000.0) + (x[1] - 4000.0) * (x[1] - 4000.0) +
                      (x[2] + 2000.0) * (x[2] + 2000.0);
    q9[kVelW] = std::exp(-r2 / 640000.0);
  });
  sim.run(sim.cycleDt()); // warm-up cycle
  const auto st = sim.run(tEnd);
  RowResult r;
  // Time-to-solution metric: element updates per wall second normalized by
  // the scheme's algorithmic efficiency is captured by simulated-time per
  // wall-time below; here we also report raw throughput and GFLOPS.
  r.updatesPerSec = st.elementUpdatesPerSecond();
  r.gflops = st.gflops();
  return r;
}

template <int W>
double timeToSolution(solver::TimeScheme scheme, double lambda, bool sparse, double scale,
                      double tEnd) {
  bench::Loh3Scenario sc(scale);
  solver::SimConfig cfg;
  cfg.order = 4;
  cfg.mechanisms = 3;
  cfg.attenuationFreq = 1.0;
  cfg.scheme = scheme;
  cfg.numClusters = 3;
  cfg.lambda = lambda;
  cfg.autoLambda = lambda < 0;
  if (cfg.autoLambda) cfg.lambda = 1.0;
  cfg.sparseKernels = sparse;
  cfg.kernelBackend = bench::benchKernelBackend();
  cfg.numThreads = solver::hardwareThreads();
  solver::Simulation<float, W> sim(std::move(sc.mesh), std::move(sc.materials), cfg);
  sim.run(sim.cycleDt());
  const auto st = sim.run(tEnd);
  // Wall seconds per simulated second, per fused lane.
  return st.seconds / st.simulatedTime / W;
}

} // namespace

int main() {
  const double scale = bench::benchScale();
  const double tEnd = 0.05 * scale;

  struct Row {
    const char* name;
    solver::TimeScheme scheme;
    double lambda;
  };
  const Row rows[] = {
      {"EDGE GTS", solver::TimeScheme::kGts, 1.0},
      {"EDGE LTS (1.0)", solver::TimeScheme::kLtsNextGen, 1.0},
      {"EDGE LTS (swept lambda)", solver::TimeScheme::kLtsNextGen, -1.0},
      {"baseline [15] LTS (1.0)", solver::TimeScheme::kLtsBaseline, 1.0},
  };

  Table table({"configuration", "1-sim GFLOPS", "1-sim speedup", "16-fused GFLOPS",
               "16-fused speedup/sim"});
  bench::JsonReport json;
  json.set("bench", "tab1_performance");
  json.set("kernel_backend", bench::benchKernelLabel());
  // Tab. I is the paper's *single-precision* production table; the runs
  // here are Simulation<float, W> by construction (NGLTS_PRECISION does
  // not apply — see bench/run_benches.sh).
  json.set("precision", "f32");
  json.set("scale", scale);
  json.set("t_end", tEnd);
  double gtsCost1 = 0.0;
  std::vector<std::array<double, 2>> costs;
  std::vector<std::array<double, 2>> gflops;
  for (const Row& r : rows) {
    const double c1 = timeToSolution<1>(r.scheme, r.lambda, false, scale, tEnd);
    const double c16 = timeToSolution<16>(r.scheme, r.lambda, true, scale, tEnd);
    const auto p1 = runCase<1>(r.scheme, r.lambda, false, scale, tEnd);
    const auto p16 = runCase<16>(r.scheme, r.lambda, true, scale, tEnd);
    if (gtsCost1 == 0.0) gtsCost1 = c1;
    costs.push_back({c1, c16});
    gflops.push_back({p1.gflops, p16.gflops});
    table.addRow({r.name, formatNumber(p1.gflops, "%.1f"), formatNumber(gtsCost1 / c1, "%.2f"),
                  formatNumber(p16.gflops, "%.1f"), formatNumber(gtsCost1 / c16, "%.2f")});
    json.beginRow();
    json.rowSet("configuration", r.name);
    json.rowSet("gflops_1sim", p1.gflops);
    json.rowSet("updates_per_sec_1sim", p1.updatesPerSec);
    json.rowSet("speedup_1sim", gtsCost1 / c1);
    json.rowSet("gflops_16fused", p16.gflops);
    json.rowSet("updates_per_sec_16fused", p16.updatesPerSec);
    json.rowSet("speedup_per_sim_16fused", gtsCost1 / c16);
  }
  std::printf("%s\n", table.str().c_str());
  table.writeCsv("tab1_performance.csv");

  // Thread-count sweep of the threaded StepExecutor (work-stolen chunks of
  // the cluster-contiguous ranges): the same LTS setting at 1/2/4/8 threads. Results are bitwise-identical across the sweep — only
  // throughput moves.
  {
    std::printf("\nLTS thread sweep (%lld hardware threads):\n",
                static_cast<long long>(solver::hardwareThreads()));
    double oneThread = 0.0;
    for (int_t t : {1, 2, 4, 8}) {
      const auto r =
          runCase<1>(solver::TimeScheme::kLtsNextGen, 1.0, false, scale, tEnd, t);
      if (t == 1) oneThread = r.updatesPerSec;
      std::printf("  %lld threads: %.3g element updates/s (%.2fx vs 1 thread)\n",
                  static_cast<long long>(t), r.updatesPerSec, r.updatesPerSec / oneThread);
      json.beginRow();
      json.rowSet("configuration", "EDGE LTS (1.0) thread sweep");
      json.rowSet("threads", static_cast<double>(t));
      json.rowSet("updates_per_sec", r.updatesPerSec);
      json.rowSet("speedup_vs_1thread", r.updatesPerSec / oneThread);
    }
  }

  // Distributed LTS on the unified engine (Sec. V-C): 2-rank ThreadComm run
  // of the same LOH.3-like setting, raw 9xB vs face-local 9xF payloads.
  {
    bench::Loh3Scenario sc(scale);
    const auto geo = mesh::computeGeometry(sc.mesh);
    const auto dtCfl = lts::cflTimeSteps(geo, sc.materials, 4);
    const auto clustering = lts::buildClustering(sc.mesh, dtCfl, 3, 1.0);
    const auto graph = partition::buildDualGraph(sc.mesh, clustering);
    const auto parts = partition::partitionGraph(graph, sc.mesh, 2);
    double updates[2] = {0, 0};
    std::uint64_t bytes[2] = {0, 0};
    for (int mode = 0; mode < 2; ++mode) {
      parallel::DistConfig dcfg;
      dcfg.sim.order = 4;
      dcfg.sim.mechanisms = 3;
      dcfg.sim.attenuationFreq = 1.0;
      dcfg.sim.scheme = solver::TimeScheme::kLtsNextGen;
      dcfg.sim.numClusters = 3;
      dcfg.sim.lambda = 1.0;
      dcfg.sim.kernelBackend = bench::benchKernelBackend();
      dcfg.sim.numThreads = std::max<int_t>(1, solver::hardwareThreads() / 2);
      dcfg.compressFaces = mode == 1;
      dcfg.transport = parallel::Transport::kThread;
      parallel::DistributedSimulation<float, 1> dist(sc.mesh, sc.materials, parts.part, dcfg);
      dist.setInitialCondition([](const std::array<double, 3>& x, int_t, double* q9) {
        for (int_t v = 0; v < 9; ++v) q9[v] = 0.0;
        const double r2 = (x[0] - 4000.0) * (x[0] - 4000.0) +
                          (x[1] - 4000.0) * (x[1] - 4000.0) +
                          (x[2] + 2000.0) * (x[2] + 2000.0);
        q9[kVelW] = std::exp(-r2 / 640000.0);
      });
      dist.run(dist.cycleDt()); // warm-up cycle
      const auto st = dist.run(tEnd);
      updates[mode] = static_cast<double>(st.elementUpdates) / st.seconds;
      bytes[mode] = st.commBytes / st.cycles;
    }
    std::printf("distributed LTS (2 ranks): raw %.3g updates/s (%.3g B/cycle), "
                "compressed %.3g updates/s (%.3g B/cycle)\n",
                updates[0], static_cast<double>(bytes[0]), updates[1],
                static_cast<double>(bytes[1]));
    json.beginRow();
    json.rowSet("configuration", "distributed LTS 2-rank raw-vs-compressed A/B");
    json.rowSet("updates_per_sec_raw", updates[0]);
    json.rowSet("updates_per_sec_compressed", updates[1]);
    json.rowSet("bytes_per_cycle_raw", static_cast<double>(bytes[0]));
    json.rowSet("bytes_per_cycle_compressed", static_cast<double>(bytes[1]));
  }

  std::printf("paper Tab. I speedups over single-sim GTS:\n");
  std::printf("  EDGE: GTS 1.00/1.80, LTS(1.0) 2.14/3.91, LTS(0.8) 2.51/4.51\n");
  std::printf("  SeisSol(GTS/LTS single): 0.92 / 1.70\n");
  std::printf("measured next-gen over baseline (single, lambda 1.0): %.2fx (paper: >1.26x)\n",
              costs[3][0] / costs[1][0]);
  json.write("BENCH_tab1.json");
  return 0;
}
