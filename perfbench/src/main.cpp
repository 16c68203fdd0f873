// nglts_perf — the benchmark program behind perfbench/run.py.
//
//   nglts_perf --workload NAME --seed N --seconds S --trace 0|1
//              --reference-dir DIR --out-dir DIR [--write-reference]
//
// Generates the workload's inputs from the seed, repeats it (one warm-up
// repetition, then measured ones) for about S seconds, verifies every
// seismogram of every repetition and prints one JSON report as the last line
// of standard output. With --trace 1 the measured repetitions alternate
// between untraced and traced, and the report carries the per-layer values
// of the traced ones; the spans are written to DIR/trace-NAME-N.jsonl.
// --write-reference runs one repetition and writes its seismograms as the
// reference traces of (NAME, N) instead.
#include <algorithm>
#include <cstdio>
#include <functional>
#include <iostream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#include "common.hpp"
#include "linalg/kernel_backend.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

/// Every per-layer metric the traced run reports, in BENCHMARK.json order.
/// A layer a workload does not exercise reads 0 (e.g. parallel.* outside
/// basin_distributed, batch.* outside ensemble_fused).
const char* const kLayerMetrics[] = {
    "mesh.generate_s", "mesh.elements", "mesh.self_s",
    "pre.pipeline_s", "pre.cache_builds", "pre.cache_hits", "pre.cache_hit_ratio", "pre.self_s",
    "lts.lambda_sweep_s", "lts.theoretical_speedup", "lts.updates_per_cycle", "lts.self_s",
    "partition.partition_s", "partition.imbalance", "partition.self_s",
    "kernels.setup_s", "kernels.flops_per_update", "kernels.bytes_per_update_computed",
    "kernels.gflops",
    "solver.construct_s", "solver.local_s", "solver.neighbor_s", "solver.local_share",
    "solver.cycle_s.p50", "solver.cycle_s.p99", "solver.parallel_efficiency",
    "solver.arena_bytes", "solver.self_s",
    "parallel.messages", "parallel.comm_bytes", "parallel.send_s", "parallel.recv_wait_s",
    "parallel.wait_share",
    "seismo.receiver_samples", "seismo.misfit_max", "seismo.self_s",
    "batch.plan_s", "batch.runs", "batch.lane_fill", "batch.setup_s", "batch.solve_s",
    "batch.first_result_s", "batch.self_s",
    "trace.overhead_s", "trace.time_to_solution_s"};

/// Layers whose self time (from the spans of the timed repetition) is reported.
const char* const kSelfLayers[] = {"mesh", "pre", "lts", "partition", "solver", "seismo", "batch"};

constexpr int kMinReps = 3;         ///< measured repetitions per kind, at least
constexpr double kHardCapSeconds = 120.0;  ///< never start a repetition past this

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  std::string referenceDir;
  std::string outDir = ".";
  bool writeReference = false;
};

Options parse(int argc, char** argv) {
  Options o;
  bool haveSeed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
      return argv[++i];
    };
    if (a == "--workload") o.workload = value();
    else if (a == "--seed") o.seed = std::stoull(value()), haveSeed = true;
    else if (a == "--seconds") o.seconds = std::stod(value());
    else if (a == "--trace") o.trace = value() == "1";
    else if (a == "--reference-dir") o.referenceDir = value();
    else if (a == "--out-dir") o.outDir = value();
    else if (a == "--write-reference") o.writeReference = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload.empty() || !haveSeed)
    throw std::invalid_argument("--workload and --seed are required");
  if (!(o.seconds > 0.0)) throw std::invalid_argument("--seconds must be > 0");
  return o;
}

std::unique_ptr<Workload> makeWorkload(const std::string& name, std::uint64_t seed, int threads) {
  if (name == "lts_forward") return makeLtsForward(seed, threads);
  if (name == "basin_distributed") return makeBasinDistributed(seed, threads);
  if (name == "ensemble_fused") return makeEnsembleFused(seed, threads);
  throw std::invalid_argument("unknown workload '" + name +
                              "' (lts_forward | basin_distributed | ensemble_fused)");
}

std::string jsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

std::string jsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

int runMain(const Options& opt) {
  const int threads =
      static_cast<int>(std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  const auto workload = makeWorkload(opt.workload, opt.seed, threads);
  const std::string refPath =
      opt.referenceDir + "/" + opt.workload + "-" + std::to_string(opt.seed) + ".txt";

  if (opt.writeReference) {
    Seismograms s;
    workload->run(nullptr, s, nullptr);
    const CheckResult c = verify(s, Reference{});
    if (c.failed > 0) throw std::runtime_error("refusing to write a failing reference");
    writeReference(refPath, s);
    std::cerr << "wrote " << refPath << "\n";
    return 0;
  }

  const Reference ref = loadReference(refPath);
  Tracer tracer;
  std::vector<Rep> untraced, traced;
  std::map<std::string, std::vector<double>> layerSamples;
  CheckResult checks;
  Seismograms first;
  bool selfTestOk = true;

  const double start = now();
  std::vector<double> repSeconds;
  for (int rep = 0;; ++rep) {
    // Rep 0 warms caches and thread pools up and is verified but not
    // counted; with --trace 1 the counted repetitions alternate untraced /
    // traced.
    const bool isTraced = opt.trace && rep > 0 && rep % 2 == 0;
    const double elapsed = now() - start;
    const std::size_t counted =
        opt.trace ? std::min(untraced.size(), traced.size()) : untraced.size();
    const double typical = repSeconds.empty() ? 0.0 : median(repSeconds);
    if (rep > 0 && counted >= static_cast<std::size_t>(kMinReps) &&
        elapsed + typical > opt.seconds)
      break;
    if (rep > 0 && elapsed + typical > kHardCapSeconds) break;

    tracer.setRun(rep);
    Seismograms s;
    LayerValues layer;
    const double r0 = now();
    const Rep r = workload->run(isTraced ? &tracer : nullptr, s, isTraced ? &layer : nullptr);
    repSeconds.push_back(now() - r0);

    CheckResult c = verify(s, ref);
    if (rep == 0) {
      first = s;
      selfTestOk = verifierSelfTest(s, ref);
    } else {
      for (std::size_t i = 0; i < s.traces.size(); ++i)
        if (i >= first.traces.size() || s.traces[i] != first.traces[i]) {
          ++c.failed;
          c.failures.push_back(s.names[i] + ": differs from the first repetition");
        }
    }
    checks.attempted += c.attempted;
    checks.failed += c.failed;
    checks.misfitMax = std::max(checks.misfitMax, c.misfitMax);
    checks.failures.insert(checks.failures.end(), c.failures.begin(), c.failures.end());

    if (rep == 0) continue;
    (isTraced ? traced : untraced).push_back(r);
    if (isTraced) {
      const auto self = tracer.selfTimes(rep);
      for (const char* l : kSelfLayers) {
        const auto it = self.find(l);
        layer[std::string(l) + ".self_s"] = it == self.end() ? 0.0 : it->second;
      }
      layer["trace.time_to_solution_s"] = r.tts;
      for (const auto& [k, v] : layer) layerSamples[k].push_back(v);
    }
    std::cerr << "rep " << rep << (isTraced ? " traced" : "") << ": tts " << r.tts << " s, setup "
              << r.setupSeconds << " s, solve " << r.solveSeconds << " s\n";
  }

  const CheckResult fin = workload->finalChecks();
  checks.attempted += fin.attempted;
  checks.failed += fin.failed;
  checks.failures.insert(checks.failures.end(), fin.failures.begin(), fin.failures.end());
  if (!selfTestOk) checks.failures.push_back("verifier self-test: a corrupted trace passed");

  auto med = [](const std::vector<Rep>& reps, const std::function<double(const Rep&)>& f) {
    std::vector<double> v;
    for (const Rep& r : reps) v.push_back(f(r));
    return median(v);
  };
  const Facts facts = workload->facts();
  std::ostringstream os;
  os << "{\"workload\": " << jsonString(opt.workload) << ", \"seed\": " << opt.seed
     << ", \"kernel_backend\": "
     << jsonString(nglts::linalg::resolvedKernelBackendLabel(nglts::linalg::KernelBackend::kAuto))
     << ", \"precision\": " << jsonString(facts.precision) << ", \"threads\": " << facts.threads
     << ", \"ranks\": " << facts.ranks << ", \"fused_width\": " << facts.width
     << ", \"reference\": " << (ref.loaded ? "true" : "false")
     << ", \"samples\": " << untraced.size() << ", \"traced_samples\": " << traced.size()
     << ", \"self_test\": " << (selfTestOk ? "true" : "false")
     << ", \"attempted\": " << checks.attempted << ", \"failed\": " << checks.failed
     << ", \"failures\": [";
  for (std::size_t i = 0; i < checks.failures.size() && i < 10; ++i)
    os << (i ? ", " : "") << jsonString(checks.failures[i]);
  os << "], \"end_to_end\": {"
     << "\"time_to_solution_s\": " << jsonNumber(med(untraced, [](const Rep& r) { return r.tts; }))
     << ", \"setup_s\": " << jsonNumber(med(untraced, [](const Rep& r) { return r.setupSeconds; }))
     << ", \"element_updates_per_s\": "
     << jsonNumber(med(untraced, [](const Rep& r) { return r.laneUpdates / r.solveSeconds; }))
     << ", \"members_per_s\": "
     << jsonNumber(med(untraced, [](const Rep& r) { return r.members / r.tts; }))
     << "}, \"lane_updates\": "
     << jsonNumber(med(untraced, [](const Rep& r) { return r.laneUpdates; }));
  if (opt.trace) {
    LayerValues values;
    for (const char* name : kLayerMetrics) values[name] = 0.0;
    for (const auto& [k, v] : layerSamples) {
      if (!values.count(k)) throw std::logic_error("unlisted per-layer metric " + k);
      values[k] = median(v);
    }
    values["seismo.misfit_max"] = checks.misfitMax;
    values["trace.overhead_s"] =
        values["trace.time_to_solution_s"] - med(untraced, [](const Rep& r) { return r.tts; });
    const std::string path =
        opt.outDir + "/trace-" + opt.workload + "-" + std::to_string(opt.seed) + ".jsonl";
    tracer.write(path);
    os << ", \"trace_file\": " << jsonString(path) << ", \"per_layer\": {";
    bool firstKey = true;
    for (const char* name : kLayerMetrics) {
      os << (firstKey ? "" : ", ") << jsonString(name) << ": " << jsonNumber(values[name]);
      firstKey = false;
    }
    os << "}";
  }
  os << "}";
  std::cout << os.str() << std::endl;
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::runMain(perfbench::parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "nglts_perf: " << e.what() << "\n";
    return 2;
  }
}
