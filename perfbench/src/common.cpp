#include "common.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "seismo/misfit.hpp"

namespace perfbench {

double now() {
  static const auto t0 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
}

int Tracer::open(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.run = run_;
  s.start = now();
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void Tracer::close(int index) {
  spans_[static_cast<std::size_t>(index)].end = now();
  if (stack_.empty() || stack_.back() != index)
    throw std::logic_error("Tracer: spans must close in reverse opening order");
  stack_.pop_back();
}

double Tracer::total(const std::string& name, int run) const {
  double t = 0.0;
  for (const Span& s : spans_)
    if (s.run == run && s.name == name) t += s.end - s.start;
  return t;
}

std::vector<double> Tracer::durations(const std::string& name, int run) const {
  std::vector<double> d;
  for (const Span& s : spans_)
    if (s.run == run && s.name == name) d.push_back(s.end - s.start);
  return d;
}

std::map<std::string, double> Tracer::selfTimes(int run) const {
  std::vector<double> childTime(spans_.size(), 0.0);
  for (const Span& s : spans_)
    if (s.run == run && s.parent >= 0)
      childTime[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  std::map<std::string, double> self;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.run != run) continue;
    int root = static_cast<int>(i);
    while (spans_[static_cast<std::size_t>(root)].parent >= 0)
      root = spans_[static_cast<std::size_t>(root)].parent;
    if (spans_[static_cast<std::size_t>(root)].name != "rep") continue;
    self[s.name.substr(0, s.name.find('.'))] += (s.end - s.start) - childTime[i];
  }
  return self;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  out.precision(9);
  for (const Span& s : spans_)
    out << "{\"name\": \"" << s.name << "\", \"start\": " << s.start << ", \"end\": " << s.end
        << ", \"parent\": " << s.parent << ", \"run\": " << s.run << "}\n";
  if (!out) throw std::runtime_error("cannot write trace file " + path);
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(p / 100.0 * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

Reference loadReference(const std::string& path) {
  Reference ref;
  std::ifstream in(path);
  if (!in) return ref;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    std::istringstream is(line);
    std::string name;
    is >> name;
    std::vector<double> values;
    for (double v; is >> v;) values.push_back(v);
    ref.traces[name] = std::move(values);
  }
  ref.loaded = !ref.traces.empty();
  return ref;
}

void writeReference(const std::string& path, const Seismograms& s) {
  std::ofstream out(path);
  out << "# name, then the uniformly resampled trace (energy-misfit tolerance "
      << kMisfitTolerance << ")\n";
  out.precision(10);
  out << std::scientific;
  for (std::size_t i = 0; i < s.names.size(); ++i) {
    out << s.names[i];
    for (double v : s.traces[i]) out << ' ' << v;
    out << '\n';
  }
  if (!out) throw std::runtime_error("cannot write reference file " + path);
}

CheckResult verify(const Seismograms& s, const Reference& ref) {
  CheckResult r;
  for (std::size_t i = 0; i < s.names.size(); ++i) {
    const std::vector<double>& t = s.traces[i];
    ++r.attempted;
    std::string why;
    const bool finite = std::all_of(t.begin(), t.end(), [](double v) { return std::isfinite(v); });
    if (t.empty() || !finite) why = "non-finite or empty";
    else if (nglts::seismo::peakAmplitude(t) == 0.0) why = "all zero";
    else if (ref.loaded) {
      const auto it = ref.traces.find(s.names[i]);
      if (it == ref.traces.end() || it->second.size() != t.size()) {
        why = "missing from the reference";
      } else {
        const double e = nglts::seismo::energyMisfit(t, it->second);
        r.misfitMax = std::max(r.misfitMax, std::isfinite(e) ? e : 1e300);
        if (!(e <= kMisfitTolerance)) why = "misfit " + std::to_string(e);
      }
    }
    if (!why.empty()) {
      ++r.failed;
      r.failures.push_back(s.names[i] + ": " + why);
    }
  }
  return r;
}

bool verifierSelfTest(const Seismograms& s, const Reference& ref) {
  if (s.traces.empty() || s.traces[0].empty()) return false;
  std::vector<std::vector<double>> corrupted(2, s.traces[0]);
  corrupted[0][corrupted[0].size() / 2] = std::nan("");
  std::fill(corrupted[1].begin(), corrupted[1].end(), 0.0);
  if (ref.loaded) {
    corrupted.push_back(s.traces[0]);
    for (double& v : corrupted.back()) v *= 1.01;
  }
  for (const std::vector<double>& c : corrupted) {
    Seismograms one;
    one.add(s.names[0], c);
    if (verify(one, ref).failed != 1) return false;
  }
  return true;
}

}  // namespace perfbench
