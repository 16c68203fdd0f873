#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "cli/scenario.hpp"

namespace nc = nglts::cli;
using nglts::solver::TimeScheme;

namespace {

nc::ScenarioRegistry& registry() {
  nc::registerBuiltinScenarios();
  return nc::ScenarioRegistry::instance();
}

/// Run the `nglts` driver binary with `args`; returns its exit code (-1 if
/// it did not exit normally) and its merged stdout/stderr.
std::pair<int, std::string> runDriver(const std::string& args) {
  const std::string cmd = "'" + std::string(NGLTS_DRIVER) + "' " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (!pipe) return {-1, "popen failed"};
  std::string out;
  char buf[256];
  while (std::fgets(buf, sizeof buf, pipe)) out += buf;
  const int status = pclose(pipe);
  return {WIFEXITED(status) ? WEXITSTATUS(status) : -1, out};
}

} // namespace

TEST(ScenarioRegistry, ListsAllBuiltinScenarios) {
  const auto names = registry().names();
  const std::vector<std::string> expected = {"batch",   "fused", "lahabra",
                                             "loh1",    "loh3",  "quickstart"};
  EXPECT_EQ(names, expected);
  for (const auto& n : names) {
    const nc::Scenario* s = registry().find(n);
    ASSERT_NE(s, nullptr);
    EXPECT_EQ(s->name(), n);
    EXPECT_FALSE(s->description().empty());
  }
}

TEST(ScenarioRegistry, RegistrationIsIdempotent) {
  const auto before = registry().names();
  nc::registerBuiltinScenarios();
  EXPECT_EQ(registry().names(), before);
}

TEST(ScenarioRegistry, FindUnknownReturnsNull) {
  EXPECT_EQ(registry().find("no-such-scenario"), nullptr);
}

TEST(ScenarioRegistry, RejectsDuplicateNames) {
  class Dup final : public nc::Scenario {
   public:
    std::string name() const override { return "quickstart"; }
    std::string description() const override { return "dup"; }
    nglts::solver::SimConfig resolveConfig(const nc::ScenarioOptions&) const override {
      return {};
    }
    nc::ScenarioReport run(const nc::ScenarioOptions&) const override { return {}; }
  };
  EXPECT_THROW(registry().add(std::make_unique<Dup>()), std::invalid_argument);
}

TEST(Scenarios, EachConfiguresValidSimConfig) {
  for (const nc::Scenario* s : registry().list()) {
    const nglts::solver::SimConfig cfg = s->resolveConfig({});
    EXPECT_GE(cfg.order, 1) << s->name();
    EXPECT_LE(cfg.order, 7) << s->name();
    EXPECT_GE(cfg.mechanisms, 0) << s->name();
    EXPECT_GT(cfg.cfl, 0.0) << s->name();
    EXPECT_GE(cfg.numClusters, 1) << s->name();
    EXPECT_GT(cfg.lambda, 0.5) << s->name();
    EXPECT_LE(cfg.lambda, 1.0) << s->name();
    EXPECT_GT(cfg.attenuationFreq, 0.0) << s->name();
  }
}

TEST(Scenarios, FlagOverridesApply) {
  const nc::Scenario* s = registry().find("quickstart");
  ASSERT_NE(s, nullptr);
  nc::ScenarioOptions opts;
  opts.order = 3;
  opts.scheme = TimeScheme::kGts;
  opts.numClusters = 5;
  opts.lambda = 0.7;
  opts.threads = 2;
  const auto cfg = s->resolveConfig(opts);
  EXPECT_EQ(cfg.order, 3);
  EXPECT_EQ(cfg.scheme, TimeScheme::kGts);
  EXPECT_EQ(cfg.numClusters, 5);
  EXPECT_DOUBLE_EQ(cfg.lambda, 0.7);
  EXPECT_FALSE(cfg.autoLambda);
  EXPECT_EQ(cfg.numThreads, 2);
}

TEST(Scenarios, ThreadsDefaultIsPositiveOnEveryScenario) {
  // Unset --threads resolves to hardware threads / ranks, never below 1.
  for (const nc::Scenario* s : registry().list()) {
    EXPECT_GE(s->resolveConfig({}).numThreads, 1) << s->name();
    nc::ScenarioOptions manyRanks;
    manyRanks.ranks = 1024; // more ranks than cores must still give >= 1
    EXPECT_GE(s->resolveConfig(manyRanks).numThreads, 1) << s->name();
  }
}

TEST(Scenarios, OutOfRangeOverridesThrow) {
  const nc::Scenario* s = registry().find("quickstart");
  ASSERT_NE(s, nullptr);
  nc::ScenarioOptions bad;
  bad.order = 0;
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  bad = {};
  bad.numClusters = 0;
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  // lambda is valid in (0.5, 1] only — the range lts::buildClustering
  // accepts; NaN must fail the same check instead of hanging the run.
  for (const double lambda : {-1.0, 0.3, 0.5, 1.5, std::nan("")}) {
    bad = {};
    bad.lambda = lambda;
    EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument) << "lambda " << lambda;
  }
  bad = {};
  bad.meshScale = 0.0;
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  bad = {};
  bad.meshScale = std::numeric_limits<double>::infinity();
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  bad = {};
  bad.fusedWidth = 5;
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  EXPECT_THROW(s->run(bad), std::invalid_argument);
  bad = {};
  bad.endTime = std::nan("");
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  bad = {};
  bad.endTime = std::numeric_limits<double>::infinity();
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  bad = {};
  bad.ranks = 0;
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  // --threads 0 is a hard error (it is not "serial"; that is --threads 1).
  bad = {};
  bad.threads = 0;
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
  EXPECT_THROW(s->run(bad), std::invalid_argument);
  bad = {};
  bad.threads = -4;
  EXPECT_THROW(s->resolveConfig(bad), std::invalid_argument);
}

TEST(Scenarios, ParseSchemeRoundTrips) {
  EXPECT_EQ(nc::parseScheme("gts"), TimeScheme::kGts);
  EXPECT_EQ(nc::parseScheme("lts"), TimeScheme::kLtsNextGen);
  EXPECT_EQ(nc::parseScheme("baseline"), TimeScheme::kLtsBaseline);
  EXPECT_THROW(nc::parseScheme("warp"), std::invalid_argument);
  for (auto scheme : {TimeScheme::kGts, TimeScheme::kLtsNextGen, TimeScheme::kLtsBaseline})
    EXPECT_EQ(nc::parseScheme(nc::schemeName(scheme)), scheme);
}

TEST(Scenarios, QuickstartRunsAndProducesFiniteSeismogram) {
  const nc::Scenario* s = registry().find("quickstart");
  ASSERT_NE(s, nullptr);
  // Coarse mesh + short end time: a few LTS cycles, seconds of runtime.
  nc::ScenarioOptions opts;
  opts.meshScale = 0.4;
  opts.order = 3;
  opts.endTime = 0.3;
  opts.quiet = true;
  const nc::ScenarioReport report = s->run(opts);
  EXPECT_EQ(report.config.order, 3);
  EXPECT_GT(report.stats.cycles, 0u);
  EXPECT_GE(report.stats.simulatedTime, 0.3);
  EXPECT_GT(report.stats.elementUpdates, 0u);
  ASSERT_FALSE(report.trace.empty());
  for (double v : report.trace) EXPECT_TRUE(std::isfinite(v));
  EXPECT_FALSE(report.summary.empty());
}

TEST(Driver, RejectsOutOfRangeAndNonFiniteFlagsWithExit2) {
  // Each bad value must be a usage error (exit 2) naming the flag — never a
  // silent int32 wrap, an undefined llround(inf), a run that fails late or
  // a NaN-driven hang. The small base run keeps a wrongly accepted value
  // cheap.
  const std::string base = "-q --scale 0.3 --order 2 --end-time 0.01 ";
  const std::pair<const char*, const char*> cases[] = {
      {"--threads 4294967297", "--threads"},
      {"--order 4294967300", "--order"},
      {"--threads 99999999999999999999", "--threads"},
      {"--end-time inf", "--end-time"},
      {"--scale inf", "--scale"},
      {"--lambda nan", "--lambda"},
      {"--lambda 0.3", "lambda"},
      {"--lambda 1.5", "lambda"},
  };
  for (const auto& [flags, message] : cases) {
    const auto [code, out] = runDriver(base + flags);
    EXPECT_EQ(code, 2) << flags << "\n" << out;
    EXPECT_NE(out.find(message), std::string::npos) << flags << "\n" << out;
  }
}
