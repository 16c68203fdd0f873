#pragma once
// The benchmark's workloads. Each is built from `--seed` alone (the library
// receives only the generated inputs) and runs one simulation, or one
// submitted ensemble batch, per repetition — a closed loop of one client.
#include <cstdint>
#include <memory>
#include <random>
#include <string>

#include "common.hpp"

namespace perfbench {

class Workload {
 public:
  virtual ~Workload() = default;

  virtual Facts facts() const = 0;

  /// One repetition: set up, solve and resample every seismogram into `out`.
  /// With a tracer the repetition records spans at each layer boundary and,
  /// after the timed part, fills `layer` with this workload's per-layer
  /// values (replays included).
  virtual Rep run(Tracer* tracer, Seismograms& out, LayerValues* layer) = 0;

  /// Checks that run once, after the measured repetitions (untimed).
  virtual CheckResult finalChecks() { return problems_; }

 protected:
  /// Record a failed internal check (e.g. a replay disagreeing with the
  /// library's composite call); reported by `finalChecks`.
  void check(bool ok, const std::string& what) {
    ++problems_.attempted;
    if (!ok) {
      ++problems_.failed;
      problems_.failures.push_back(what);
    }
  }

  CheckResult problems_;
};

std::unique_ptr<Workload> makeLtsForward(std::uint64_t seed, int threads);
std::unique_ptr<Workload> makeBasinDistributed(std::uint64_t seed, int threads);
std::unique_ptr<Workload> makeEnsembleFused(std::uint64_t seed, int threads);

/// Seeded draws that are identical on every standard library (the
/// `std::*_distribution` algorithms are implementation-defined).
class Draw {
 public:
  explicit Draw(std::uint64_t seed) : rng_(seed) {}
  /// Uniform in [lo, hi).
  double uniform(double lo, double hi) {
    return lo + (hi - lo) * static_cast<double>(rng_() >> 11) * 0x1.0p-53;
  }
  /// Uniform integer in [0, n).
  std::uint64_t below(std::uint64_t n) { return rng_() % n; }
  std::uint64_t raw() { return rng_(); }

 private:
  std::mt19937_64 rng_;
};

/// Samples per resampled seismogram.
inline constexpr int kTraceSamples = 48;

}  // namespace perfbench
