// The convergence screen of AveragingProcess::converged: the O(1)
// running potential minus its proven drift bound may only ever say "not
// yet", so run_until_converged must stop at exactly the step, and report
// exactly the potential and value, of a loop that runs the exact
// two-pass potential at every check.  Each test drives a screened
// process and an unscreened reference twin (same graph, initial values
// and rng seed) and requires bit-equal results.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/core/convergence.h"
#include "src/core/initial_values.h"
#include "src/core/model.h"
#include "src/graph/generators.h"
#include "src/support/metrics.h"

namespace opindyn {
namespace {

double exact_potential(const AveragingProcess& process, bool plain) {
  return plain ? process.state().phi_plain_exact()
               : process.state().phi_exact();
}

/// run_until_converged without the screen: step_burst plus the exact
/// potential at every check, on the same cadence.  Along the way it
/// checks the screen's soundness directly: at eps = the exact potential
/// itself the screen must never claim "above".
ConvergenceResult reference_run(AveragingProcess& process, Rng& rng,
                                const ConvergenceOptions& options) {
  const std::int64_t interval =
      options.check_interval > 0
          ? options.check_interval
          : std::max<std::int64_t>(1, process.graph().node_count() / 4);
  const bool plain = options.use_plain_potential;
  const auto done = [&] {
    const double phi = exact_potential(process, plain);
    EXPECT_FALSE(process.state().phi_provably_above(phi, plain))
        << "screen claimed phi > " << phi << " at t=" << process.time();
    return phi <= options.epsilon;
  };
  ConvergenceResult result;
  const std::int64_t start = process.time();
  bool converged = done();
  while (!converged && process.time() - start < options.max_steps) {
    process.step_burst(rng, std::min(interval, options.max_steps -
                                                   (process.time() - start)));
    converged = done();
  }
  result.steps = process.time() - start;
  result.converged = converged;
  result.final_phi = exact_potential(process, plain);
  result.final_value = process.state().weighted_average();
  return result;
}

struct Comparison {
  std::int64_t checks = 0;
  std::int64_t exact_checks = 0;
};

/// Runs the screened and the reference twin and requires bit-equal
/// results; returns the screened run's check counters.
Comparison expect_identical(const Graph& graph, const ModelConfig& config,
                            const std::vector<double>& initial,
                            const ConvergenceOptions& options,
                            std::uint64_t seed, const std::string& what) {
  auto screened = make_process(graph, config, initial);
  auto reference = make_process(graph, config, initial);
  MetricsRegistry registry;
  ConvergenceResult got;
  {
    const MetricsScope scope(&registry, "screen");
    Rng rng(seed);
    got = run_until_converged(*screened, rng, options);
  }
  Rng rng(seed);
  const ConvergenceResult want = reference_run(*reference, rng, options);
  EXPECT_EQ(got.steps, want.steps) << what;
  EXPECT_EQ(got.converged, want.converged) << what;
  EXPECT_EQ(got.final_phi, want.final_phi) << what;
  EXPECT_EQ(got.final_value, want.final_value) << what;
  const FoldedMetrics folded = registry.fold();
  Comparison counts;
  counts.checks = folded.counters.at("engine.checks");
  counts.exact_checks = folded.counters.at("engine.exact_checks");
  EXPECT_EQ(counts.exact_checks, screened->exact_checks()) << what;
  EXPECT_LE(counts.exact_checks, counts.checks) << what;
  return counts;
}

ModelConfig config_of(ModelKind kind) {
  ModelConfig config;
  config.kind = kind;
  if (kind == ModelKind::node || kind == ModelKind::weighted_median) {
    config.k = 2;
    config.sampling = SamplingMode::with_replacement;
  }
  if (kind == ModelKind::hegselmann_krause) {
    config.confidence = 1.5;
  }
  if (kind == ModelKind::friedkin_johnsen) {
    config.alpha = 0.9;
  }
  return config_for_kind(config, kind);
}

// (a) Every rule that uses the default predicate, both potentials, on a
// torus, a random regular graph and a heavy-tailed preferential
// attachment graph.
TEST(ConvergenceScreen, MatchesTheUnscreenedLoopForEveryDefaultKind) {
  Rng graph_rng(11);
  const std::vector<std::pair<std::string, Graph>> graphs = [&] {
    std::vector<std::pair<std::string, Graph>> out;
    out.emplace_back("torus", gen::torus(8, 8));
    out.emplace_back("random_regular", gen::random_regular(graph_rng, 64, 4));
    out.emplace_back("pref_attach",
                     gen::preferential_attachment(graph_rng, 64, 2));
    return out;
  }();
  const ModelKind kinds[] = {
      ModelKind::node,           ModelKind::edge,
      ModelKind::gossip,         ModelKind::degroot,
      ModelKind::friedkin_johnsen, ModelKind::weighted_median,
      ModelKind::hegselmann_krause};
  std::int64_t checks = 0;
  std::int64_t exact_checks = 0;
  std::uint64_t seed = 100;
  for (const auto& [graph_name, graph] : graphs) {
    for (const ModelKind kind : kinds) {
      for (const bool plain : {false, true}) {
        Rng init_rng(++seed);
        const std::vector<double> initial =
            initial::gaussian(init_rng, graph.node_count(), 0.0, 1.0);
        ConvergenceOptions options;
        options.epsilon = 1e-11;
        options.use_plain_potential = plain;
        // Synchronous rounds take n updates per step.
        options.max_steps =
            kind == ModelKind::degroot || kind == ModelKind::friedkin_johnsen
                ? 20'000
                : 2'000'000;
        const Comparison counts =
            expect_identical(graph, config_of(kind), initial, options, seed,
                             graph_name + "/" + model_kind_name(kind) +
                                 (plain ? "/plain" : "/pi"));
        checks += counts.checks;
        exact_checks += counts.exact_checks;
      }
    }
  }
  // The screen is doing its job: most checks never run the exact pass.
  EXPECT_GT(exact_checks, 0);
  EXPECT_LT(exact_checks * 10, checks);
}

// (b) Uncentred values 1e4 +- 1: S2 ~ 1e8 while phi falls to 1e-8, so the
// running estimate's cancellation leaves pure rounding noise long before
// the stop.  The screen must defer there instead of trusting it.
TEST(ConvergenceScreen, DefersWhereTheRunningEstimateIsNoise) {
  const Graph graph = gen::torus(8, 8);
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    for (const bool plain : {false, true}) {
      for (const double eps : {1e-4, 1e-6, 1e-8}) {
        Rng init_rng(seed);
        std::vector<double> initial =
            initial::uniform(init_rng, graph.node_count(), -1.0, 1.0);
        for (double& x : initial) {
          x += 1e4;
        }
        ModelConfig config;
        config.kind = ModelKind::node;
        ConvergenceOptions options;
        options.epsilon = eps;
        options.use_plain_potential = plain;
        options.check_interval = 4;
        const Comparison counts = expect_identical(
            graph, config, initial, options, 100 + seed,
            std::string(plain ? "plain" : "pi") +
                " eps=" + testing::PrintToString(eps) +
                " seed=" + std::to_string(seed));
        EXPECT_GT(counts.exact_checks, 0);
      }
    }
  }
}

// The same state read directly: for a state near convergence the
// running estimate is off by far more than phi, and the screen must not
// claim "above" for any eps at or over the exact value.
TEST(ConvergenceScreen, NeverClaimsAboveTheExactPotential) {
  const Graph graph = gen::cycle(32);
  Rng init_rng(3);
  std::vector<double> initial =
      initial::uniform(init_rng, graph.node_count(), -1.0, 1.0);
  for (double& x : initial) {
    x += 1e4;
  }
  ModelConfig config;
  config.kind = ModelKind::edge;
  auto process = make_process(graph, config, initial);
  Rng rng(4);
  int noisy = 0;
  for (int burst = 0; burst < 4000; ++burst) {
    process->step_burst(rng, 64);
    for (const bool plain : {false, true}) {
      const OpinionState& state = process->state();
      const double exact = exact_potential(*process, plain);
      const double estimate = plain ? state.phi_plain() : state.phi();
      noisy += std::abs(estimate - exact) > exact ? 1 : 0;
      EXPECT_FALSE(state.phi_provably_above(exact, plain));
      EXPECT_FALSE(state.phi_provably_above(2.0 * exact, plain));
    }
  }
  // The scenario does reach the regime the screen exists to guard.
  EXPECT_GT(noisy, 0);
}

// (c) set_value may write far outside the initial range (the slow path
// the burst kernels never take).  It raises B0^2 itself, so the screen
// keeps deferring correctly around the new magnitude.
TEST(ConvergenceScreen, SetValueOutsideTheInitialRangeRaisesTheBound) {
  const Graph graph = gen::torus(8, 8);
  Rng init_rng(21);
  const std::vector<double> initial =
      initial::uniform(init_rng, graph.node_count(), -1.0, 1.0);
  ModelConfig config;
  config.kind = ModelKind::node;
  auto screened = make_process(graph, config, initial);
  auto reference = make_process(graph, config, initial);
  // Move every opinion to 1e6 + a small spread: phi stays O(1e-6) while
  // the running sums jump to ~1e12, so a bound still taken from the
  // initial values would trust pure noise.
  for (AveragingProcess* p : {screened.get(), reference.get()}) {
    for (NodeId u = 0; u < graph.node_count(); ++u) {
      const double spread = initial[static_cast<std::size_t>(u)];
      p->mutable_state().set_value(u, 1e6 + 1e-3 * spread);
    }
  }
  for (const bool plain : {false, true}) {
    const double exact = exact_potential(*screened, plain);
    EXPECT_FALSE(screened->state().phi_provably_above(exact, plain));
  }
  ConvergenceOptions options;
  options.epsilon = 1e-12;
  options.check_interval = 4;
  Rng rng(22);
  const ConvergenceResult got = run_until_converged(*screened, rng, options);
  Rng ref_rng(22);
  const ConvergenceResult want = reference_run(*reference, ref_rng, options);
  EXPECT_EQ(got.steps, want.steps);
  EXPECT_EQ(got.converged, want.converged);
  EXPECT_EQ(got.final_phi, want.final_phi);
  EXPECT_EQ(got.final_value, want.final_value);
}

// Far from eps the screen decides alone; near it, the exact pass runs.
TEST(ConvergenceScreen, DecidesFarFromEpsilonAndDefersNearIt) {
  const Graph graph = gen::torus(8, 8);
  Rng init_rng(5);
  const std::vector<double> initial =
      initial::gaussian(init_rng, graph.node_count(), 0.0, 1.0);
  ModelConfig config;
  config.kind = ModelKind::node;
  auto process = make_process(graph, config, initial);
  const OpinionState& state = process->state();
  const double phi = state.phi_exact();
  EXPECT_TRUE(state.phi_provably_above(0.5 * phi, false));
  EXPECT_FALSE(state.phi_provably_above(phi, false));
  EXPECT_TRUE(process->converged(2.0 * phi, false));
  EXPECT_EQ(process->exact_checks(), 1);
  EXPECT_FALSE(process->converged(0.5 * phi, false));
  EXPECT_EQ(process->exact_checks(), 1);
}

TEST(ConvergenceScreen, NonFiniteValuesAlwaysDefer) {
  const Graph graph = gen::cycle(8);
  for (const double bad : {std::nan(""), HUGE_VAL}) {
    std::vector<double> initial(8, 1.0);
    initial[3] = bad;
    ModelConfig config;
    config.kind = ModelKind::node;
    auto process = make_process(graph, config, initial);
    EXPECT_FALSE(process->state().phi_provably_above(1e-300, false));
    EXPECT_FALSE(process->state().phi_provably_above(1e-300, true));
    (void)process->converged(1e-6, false);
    EXPECT_EQ(process->exact_checks(), 1);
  }
}

// The voter override keeps its own O(1) predicate: checks count, exact
// passes do not.
TEST(ConvergenceScreen, VoterCountsChecksButNoExactPasses) {
  const Graph graph = gen::complete(16);
  std::vector<double> initial(16);
  for (std::size_t i = 0; i < initial.size(); ++i) {
    initial[i] = static_cast<double>(i);
  }
  ModelConfig config;
  config.kind = ModelKind::voter;
  auto process = make_process(graph, config, initial);
  MetricsRegistry registry;
  {
    const MetricsScope scope(&registry, "voter");
    Rng rng(9);
    ConvergenceOptions options;
    options.epsilon = 1e-9;
    EXPECT_TRUE(run_until_converged(*process, rng, options).converged);
  }
  const FoldedMetrics folded = registry.fold();
  EXPECT_GT(folded.counters.at("engine.checks"), 1);
  EXPECT_EQ(folded.counters.at("engine.exact_checks"), 0);
}

}  // namespace
}  // namespace opindyn
