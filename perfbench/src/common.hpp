#pragma once
// Shared pieces of the nglts benchmark program: the in-memory span tracer,
// robust statistics, seismogram verification against committed reference
// traces, and the repetition bookkeeping every workload reports through.
//
// The benchmark calls only the public entry points of the core library; every
// time it reports is taken here, around those calls (never from the
// library's own timers), so a change inside a layer cannot move the yardstick.
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call in this process.
double now();

/// In-memory span recorder. Spans carry (name, start, end, parent, run id);
/// the layer of a span is its name up to the first '.', e.g. "solver.cycle"
/// belongs to layer "solver". Spans are opened and closed on the benchmark's
/// main thread only, strictly nested.
class Tracer {
 public:
  struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;  ///< index of the parent span, -1 for a root span
    int run = 0;      ///< repetition id the span belongs to
  };

  void setRun(int run) { run_ = run; }
  int run() const { return run_; }
  int open(const std::string& name);
  void close(int index);

  /// Summed duration of spans named `name` in repetition `run`.
  double total(const std::string& name, int run) const;
  /// Durations of every span named `name` in repetition `run`, in order.
  std::vector<double> durations(const std::string& name, int run) const;
  /// Self time per layer in repetition `run`: each span's duration minus
  /// the part of it its child spans cover, summed by layer, over the spans
  /// under the root span "rep" (the timed repetition; replays that run
  /// after it sit under their own root and are excluded).
  std::map<std::string, double> selfTimes(int run) const;
  /// Write every span as one JSON object per line.
  void write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int run_ = 0;
};

/// RAII span; a null tracer records nothing, so traced and untraced
/// repetitions share one code path.
class Scope {
 public:
  Scope(Tracer* tracer, const std::string& name)
      : tracer_(tracer), index_(tracer ? tracer->open(name) : -1) {}
  ~Scope() {
    if (tracer_) tracer_->close(index_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
  int index_;
};

double median(std::vector<double> v);
/// Nearest-rank percentile, `p` in [0, 100].
double percentile(std::vector<double> v, double p);

/// The seismograms one repetition produced: named, uniformly resampled
/// traces (e.g. "r0.vx"), in a fixed order.
struct Seismograms {
  std::vector<std::string> names;
  std::vector<std::vector<double>> traces;
  void add(std::string name, std::vector<double> trace) {
    names.push_back(std::move(name));
    traces.push_back(std::move(trace));
  }
};

/// Reference traces for one (workload, seed); `loaded` is false when the
/// seed has no committed reference.
struct Reference {
  bool loaded = false;
  std::map<std::string, std::vector<double>> traces;
};

Reference loadReference(const std::string& path);
void writeReference(const std::string& path, const Seismograms& s);

/// Energy-misfit tolerance against the reference traces, E = sum (s - r)^2 /
/// sum r^2. Far above round-off (any backend, ISA or thread count) and far
/// below any real change of the physics.
inline constexpr double kMisfitTolerance = 1e-6;

struct CheckResult {
  int attempted = 0;
  int failed = 0;
  double misfitMax = 0.0;
  std::vector<std::string> failures;  ///< one line per failed trace
};

/// Every trace must be finite and non-zero; with a reference it must also be
/// within `kMisfitTolerance` of the reference trace of the same name.
CheckResult verify(const Seismograms& s, const Reference& ref);

/// Corrupt copies of the first trace (a NaN sample, an all-zero trace and,
/// when a reference exists, a 1% amplitude error) and confirm `verify`
/// counts each as a failure.
bool verifierSelfTest(const Seismograms& s, const Reference& ref);

/// One repetition of a workload, timed from outside the library calls.
struct Rep {
  double setupSeconds = 0.0;  ///< mesh + preprocessing + solver construction
  double solveSeconds = 0.0;  ///< time loop
  double tts = 0.0;           ///< generated inputs -> every seismogram in hand
  double laneUpdates = 0.0;   ///< lane-element updates in the time loop
  double members = 1.0;       ///< completed simulations / ensemble members
};

/// The configuration a workload runs at, recorded with every result.
struct Facts {
  std::string precision;
  int threads = 1;
  int ranks = 1;
  int width = 1;
};

/// Per-layer values of one traced repetition, keyed by per-layer metric name.
using LayerValues = std::map<std::string, double>;

}  // namespace perfbench
