#pragma once
// Unified scenario CLI (the `nglts` driver): every workload — the box
// quickstart, the LOH.3 seismogram comparison, the La Habra-like production
// pipeline, the fused ensemble — is a `Scenario` registered in a global
// `ScenarioRegistry`. The driver binary resolves one registry entry from
// `--scenario NAME`, applies flag overrides (`ScenarioOptions`) on top of
// the scenario's defaults and runs it. New workloads are one registry entry
// instead of a new main().
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "parallel/comm.hpp"
#include "solver/simulation.hpp"

namespace nglts::pre {
struct PipelineConfig;
}

namespace nglts::cli {

/// Flag overrides applied on top of a scenario's built-in defaults. Every
/// optional field that is left unset (`std::nullopt`) keeps the scenario
/// default, so `ScenarioOptions{}` reproduces the canonical run of each
/// scenario exactly.
struct ScenarioOptions {
  /// Convergence order O (polynomial degree O-1); valid range 1..7.
  /// Paper symbol: O in the O(N) basis-size formulas of Sec. III.
  std::optional<int_t> order;
  /// Time-stepping scheme: GTS, the paper's next-generation clustered LTS
  /// (Sec. V), or the buffer+derivative baseline of [15] (Tab. I).
  std::optional<solver::TimeScheme> scheme;
  /// Number of rate-2 LTS clusters N_c >= 1 (ignored under GTS).
  /// Paper symbol: number of clusters in Figs. 4/5.
  std::optional<int_t> numClusters;
  /// Fused-simulation width W (Sec. IV-A): number of forward simulations
  /// advanced in one solver execution. Valid: 1 or 2 for quickstart/loh3
  /// (at either --precision), 1, 8 or 16 for the single-precision fused/
  /// lahabra scenarios (the instantiated kernel widths).
  std::optional<int_t> fusedWidth;
  /// Simulated end time [s] (finite, > 0). Scenarios run full LTS cycles until at
  /// least this much physical time is covered.
  std::optional<double> endTime;
  /// Number of distributed ranks (>= 1). When > 1, scenarios that support
  /// it run through `parallel::DistributedSimulation` over a weighted
  /// dual-graph partition instead of the shared-memory solver; results are
  /// bitwise-identical to the single-rank run (Sec. V-C).
  std::optional<int_t> ranks;
  /// OpenMP threads per rank for the executor's element loops
  /// (`SimConfig::numThreads`, >= 1; 1 = serial). Unset = all hardware
  /// threads divided evenly among the ranks. Results are bitwise-identical
  /// for every value — a pure performance knob.
  std::optional<int_t> threads;
  /// Halo transport of the distributed engine (`--transport`): seq (SeqComm
  /// lockstep, the bitwise reference), thread (one std::thread per rank) or
  /// mpi (one process per rank; requires an NGLTS_WITH_MPI build under
  /// mpirun). Unset keeps the scenario default — seq for quickstart/loh3,
  /// thread for lahabra. Results are bitwise-identical across transports.
  std::optional<parallel::Transport> transport;
  /// Overlap halo communication with interior-element compute
  /// (`--overlap`); bitwise-identical to the lockstep exchange (Sec. V-C).
  bool overlap = false;
  /// Small-GEMM kernel backend (`SimConfig::kernelBackend`, the `--kernel`
  /// flag; docs/KERNELS.md): `auto` (CPU detection), `scalar` (reference
  /// loops) or `vector` (explicit SIMD; hard error when unavailable rather
  /// than a silent fallback). Bitwise-identical results across backends —
  /// a pure performance knob.
  std::optional<linalg::KernelBackend> kernelBackend;
  /// Arithmetic precision (`SimConfig::precision`, the `--precision` flag):
  /// f64 (the default for quickstart/loh3) or f32 (accuracy guarded by the
  /// golden-seismogram misfit gates in tests/test_solver_lts.cpp, not by
  /// bitwise identity — see docs/KERNELS.md). The fused and lahabra
  /// scenarios are single-precision by design and reject an explicit f64.
  std::optional<solver::Precision> precision;
  /// Dual-graph weighting of the rank partitioner
  /// (`SimConfig::partitionWeighting`, the `--partition` flag): `weighted`
  /// (LTS update frequency + face-flux share, the default) or `unweighted`
  /// (plain element counts). Changes which elements land on which rank —
  /// results stay bitwise-identical to single-rank either way.
  std::optional<partition::PartitionWeighting> partition;
  /// Fixed cluster-growth control parameter lambda in (0.5, 1]; setting it
  /// disables the scenario's automatic lambda sweep (Sec. V-A).
  std::optional<double> lambda;
  /// Mesh-resolution multiplier (finite, > 0): 1 = the scenario's canonical mesh,
  /// < 1 coarser (fast smoke runs), > 1 finer. Element count scales
  /// roughly with meshScale^3.
  double meshScale = 1.0;
  /// External Gmsh `.msh` 4.1 tet mesh replacing the scenario's built-in
  /// mesh (`--mesh-file`; subset in mesh/gmsh_io.hpp, format docs in
  /// ARCHITECTURE.md "Scenario ingestion"). `meshScale` and the built-in
  /// meshing rule are ignored when set.
  std::string meshFile;
  /// Kinematic finite-fault source file replacing the scenario's built-in
  /// point source (`--fault-file`; format in seismo/fault.hpp). Receivers
  /// stay the scenario's own.
  std::string faultFile;
  /// Export the mesh the scenario actually ran on as Gmsh `.msh` 4.1
  /// (`--write-mesh`) — re-running with `--mesh-file` on the export
  /// reproduces the run bitwise (the round-trip property the mesh-io tests
  /// pin).
  std::string writeMesh;
  /// Prefix for CSV artifacts (seismograms, ...); empty = write no files.
  std::string outputPrefix;
  /// Suppress per-scenario progress printing (the driver still prints the
  /// final report summary).
  bool quiet = false;

  // -- `batch` scenario (src/cli/scenario_batch.cpp) ------------------------
  /// Request manifest file (batch/manifest.hpp format); empty = synthesize
  /// `batchSize` perturbed quickstart requests.
  std::string batchManifest;
  /// Number of synthesized ensemble requests when no manifest is given
  /// (>= 1). Ignored with `batchManifest`.
  int_t batchSize = 4;
  /// Checkpoint cadence in LTS cycles (`--checkpoint-every`; 0 = off).
  idx_t checkpointEvery = 0;
  /// Snapshot file for checkpoint/restore (`--checkpoint`).
  std::string checkpointFile;
  /// Resume the batch from `checkpointFile` (`--restore`).
  bool restore = false;
};

/// What a scenario hands back to the driver (and to tests): the solver
/// configuration it resolved, the performance counters of its primary run,
/// an optional reference seismogram trace, and a printable summary.
struct ScenarioReport {
  /// The `SimConfig` the primary simulation actually ran with (defaults
  /// plus flag overrides) — tests validate this.
  solver::SimConfig config;
  /// Performance counters of the primary run (for LOH.3 this is the LTS
  /// run, the GTS reference is reported in `summary`).
  solver::PerfStats stats;
  /// Uniformly resampled x-velocity of lane 0 at the scenario's first
  /// receiver; empty for scenarios without receivers.
  std::vector<double> trace;
  /// Elements per LTS cluster of the primary run (empty when the scenario
  /// resolves no clustering up front, e.g. distributed quickstart). Tests
  /// assert benchmark scenarios actually populate multiple clusters.
  std::vector<idx_t> clusterHistogram;
  /// Human-readable multi-line result summary (always printed).
  std::string summary;
};

/// One registered workload. Implementations live in scenarios_builtin.cpp;
/// they are refactored out of the former standalone example mains.
class Scenario {
 public:
  virtual ~Scenario() = default;

  /// Unique registry key (what `--scenario` matches), e.g. "quickstart".
  virtual std::string name() const = 0;
  /// One-line description shown by `--list-scenarios`.
  virtual std::string description() const = 0;

  /// Resolve the `SimConfig` of the scenario's primary simulation under
  /// `opts` without building a mesh or running anything. Must be cheap and
  /// must throw `std::invalid_argument` on out-of-range overrides.
  virtual solver::SimConfig resolveConfig(const ScenarioOptions& opts) const = 0;

  /// Build the scenario (mesh, materials, sources, receivers), run it and
  /// report. Throws `std::invalid_argument` on bad options and
  /// `std::runtime_error` on setup failures (e.g. receiver outside mesh).
  virtual ScenarioReport run(const ScenarioOptions& opts) const = 0;
};

/// Process-global scenario registry. Thread-compatible (registration happens
/// once up front; lookups afterwards are const).
class ScenarioRegistry {
 public:
  static ScenarioRegistry& instance();

  /// Register a scenario; throws `std::invalid_argument` on a duplicate name.
  void add(std::unique_ptr<Scenario> scenario);

  /// Look up by name; nullptr if absent.
  const Scenario* find(const std::string& name) const;

  /// All scenarios, sorted by name.
  std::vector<const Scenario*> list() const;

  /// All registered names, sorted.
  std::vector<std::string> names() const;

 private:
  std::vector<std::unique_ptr<Scenario>> scenarios_;
};

/// Register the built-in scenarios (quickstart, loh1, loh3, lahabra, fused,
/// batch) into the global registry. Idempotent — safe to call from multiple
/// entry points (driver main, example wrappers, tests).
void registerBuiltinScenarios();

/// The `batch` scenario (scenario_batch.cpp): ensemble batch execution of
/// perturbed quickstart requests through the `BatchEngine`.
std::unique_ptr<Scenario> makeBatchScenario();

/// Apply the generic `SimConfig` overrides (order, scheme, clusters,
/// kernel backend, lambda, threads) and range-check the result with
/// `solver::validateSimConfig`. Shared by the scenario implementations
/// (scenarios_builtin.cpp, scenario_batch.cpp); `defaultRanks` only feeds
/// the `--threads` default.
void applyScenarioOverrides(solver::SimConfig& cfg, const ScenarioOptions& opts,
                            int_t defaultRanks = 1);

/// Fold `--mesh-file` / `--fault-file` into a pipeline config: the path plus
/// its content hash (`pre::fileContentKey`), so the pipeline memoization key
/// and the batch/checkpoint fingerprints stay content-addressed. No-op for
/// unset options. Shared by the pipeline-driven scenarios (lahabra, loh1)
/// and the batch scenario.
void applyIngestionOverrides(pre::PipelineConfig& cfg, const ScenarioOptions& opts);

/// Parse a `--scheme` value: "gts", "lts" (next-generation clustered LTS)
/// or "baseline" (buffer+derivative scheme of [15]).
/// Throws `std::invalid_argument` on anything else.
solver::TimeScheme parseScheme(const std::string& s);

/// Inverse of `parseScheme` (for messages and summaries).
std::string schemeName(solver::TimeScheme scheme);

} // namespace nglts::cli
