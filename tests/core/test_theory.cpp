#include "src/core/theory.h"

#include <gtest/gtest.h>

#include <cmath>

#include "src/core/initial_values.h"
#include "src/core/model.h"
#include "src/core/opinion_state.h"
#include "src/graph/generators.h"
#include "src/graph/isoperimetric.h"
#include "src/spectral/spectra.h"
#include "src/support/assert.h"
#include "tests/replica_harness.h"

namespace opindyn {
namespace {

TEST(Theory, EdgeCorrelationAndLaplacianForm) {
  const Graph g = gen::path(3);  // edges {0,1}, {1,2}
  const std::vector<double> xi{1.0, 2.0, 3.0};
  // Directed arcs: (0,1),(1,0),(1,2),(2,1): 2*(1*2) + 2*(2*3) = 16.
  EXPECT_DOUBLE_EQ(theory::directed_edge_correlation(g, xi), 16.0);
  // xi^T L xi = (1-2)^2 + (2-3)^2 = 2.
  EXPECT_DOUBLE_EQ(theory::laplacian_quadratic_form(g, xi), 2.0);
}

TEST(Theory, StepsToEpsilonInvertsGeometricDecay) {
  const double rho = 0.01;
  const double phi0 = 100.0;
  const double eps = 1e-6;
  const double t = theory::steps_to_epsilon(rho, phi0, eps);
  EXPECT_NEAR(std::pow(1.0 - rho, t) * phi0, eps, eps * 1e-6);
  EXPECT_DOUBLE_EQ(theory::steps_to_epsilon(rho, 1.0, 2.0), 0.0);
  EXPECT_THROW(theory::steps_to_epsilon(0.0, 1.0, 0.5), ContractError);
}

TEST(Theory, NodeRhoFormulaAndLazyHalving) {
  const double l2 = 0.9;
  const double full =
      theory::node_model_rho(l2, 0.5, 2, 100, /*lazy=*/false);
  const double lazy = theory::node_model_rho(l2, 0.5, 2, 100, /*lazy=*/true);
  EXPECT_DOUBLE_EQ(lazy, full / 2.0);
  // Hand evaluation: (1-a)(1-l2)[2a + (1-a)(1+l2)(1-1/k)]/n
  // = 0.5*0.1*[1 + 0.5*1.9*0.5]/100 = 0.05*(1.475)/100.
  EXPECT_NEAR(full, 0.05 * 1.475 / 100.0, 1e-15);
  // k = 1 drops the second term entirely.
  EXPECT_NEAR(theory::node_model_rho(l2, 0.5, 1, 100, false),
              0.05 * 1.0 / 100.0, 1e-15);
}

TEST(Theory, EdgeRhoFormula) {
  EXPECT_DOUBLE_EQ(theory::edge_model_rho(2.0, 0.5, 10, false), 0.05);
  EXPECT_DOUBLE_EQ(theory::edge_model_rho(2.0, 0.5, 10, true), 0.025);
}

TEST(Theory, ConvergenceBoundsGrowWithSizeAndShrinkingGap) {
  const double small_gap =
      theory::node_convergence_bound(100, 100.0, 1e-6, 0.99);
  const double large_gap =
      theory::node_convergence_bound(100, 100.0, 1e-6, 0.5);
  EXPECT_GT(small_gap, large_gap);
  const double larger_n =
      theory::node_convergence_bound(200, 100.0, 1e-6, 0.99);
  EXPECT_GT(larger_n, small_gap);
  const double edge_bound =
      theory::edge_convergence_bound(16, 16, 16.0, 1e-6, 0.5);
  EXPECT_GT(edge_bound, 0.0);
}

TEST(Theory, VarianceEnvelopeOrderingAndScale) {
  // upper >= exact(any xi) >= lower * ||xi||^2, and both coeffs are
  // Theta(1/n^2).
  for (const std::int64_t n : {10, 20, 40}) {
    for (const std::int64_t d : {2, 4}) {
      for (const std::int64_t k : {std::int64_t{1}, d}) {
        for (const double alpha : {0.25, 0.5, 0.75}) {
          const double hi = theory::variance_upper_coeff(n, d, k, alpha);
          const double lo = theory::variance_lower_coeff(n, d, k, alpha);
          EXPECT_GE(hi, lo);
          EXPECT_GE(lo, -1e-15);
          const double scaled_hi =
              hi * static_cast<double>(n) * static_cast<double>(n);
          EXPECT_GT(scaled_hi, 0.05);
          EXPECT_LT(scaled_hi, 10.0);
        }
      }
    }
  }
}

TEST(Theory, VarianceLowerCoeffDegeneratesExactlyAtKEqualsD) {
  // lower = 2(1-alpha)(d-k) ell: zero iff k = d.
  EXPECT_NEAR(theory::variance_lower_coeff(12, 3, 3, 0.5), 0.0, 1e-15);
  EXPECT_GT(theory::variance_lower_coeff(12, 3, 2, 0.5), 0.0);
}

TEST(Theory, VarianceExactRespectsEnvelope) {
  Rng rng(3);
  for (const auto& g : {gen::cycle(12), gen::petersen(), gen::torus(3, 4),
                        gen::complete(8)}) {
    const auto d = g.min_degree();
    for (const std::int64_t k : {std::int64_t{1}, std::int64_t{d}}) {
      for (const double alpha : {0.3, 0.7}) {
        auto xi = initial::gaussian(rng, g.node_count(), 0.0, 1.0);
        initial::center_plain(xi);
        const double exact = theory::variance_exact(g, alpha, k, xi);
        const double norm = initial::l2_squared(xi);
        const double hi =
            theory::variance_upper_coeff(g.node_count(), d, k, alpha);
        const double lo =
            theory::variance_lower_coeff(g.node_count(), d, k, alpha);
        EXPECT_LE(exact, hi * norm + 1e-12) << g.name();
        EXPECT_GE(exact, lo * norm - 1e-12) << g.name();
        EXPECT_GT(exact, 0.0) << g.name();
      }
    }
  }
}

TEST(Theory, VarianceExactIndependentOfStructureForSameSpectralData) {
  // Theorem 2.2(2)'s punchline: for the same centered xi multiset, the
  // variance on the cycle and on the complete graph agree up to
  // constants.  Compare n * n * Var / ||xi||^2 across graphs.
  Rng rng(5);
  const NodeId n = 16;
  auto xi = initial::rademacher(rng, n);
  initial::center_plain(xi);
  const double norm = initial::l2_squared(xi);
  const double cycle_var =
      theory::variance_exact(gen::cycle(n), 0.5, 1, xi) / norm * n * n;
  const double complete_var =
      theory::variance_exact(gen::complete(n), 0.5, 1, xi) / norm * n * n;
  EXPECT_GT(cycle_var, 0.1);
  EXPECT_GT(complete_var, 0.1);
  EXPECT_LT(cycle_var / complete_var, 4.0);
  EXPECT_GT(cycle_var / complete_var, 0.25);
}

TEST(Theory, CheegerBoundHoldsOnSmallGraphs) {
  // Corollary E.2(i): lambda_2(L) >= i(G)^2 / (2 d_max).
  for (const auto& g : {gen::cycle(10), gen::complete(8), gen::star(9),
                        gen::path(12), gen::petersen(), gen::hypercube(3),
                        gen::lollipop(5, 4), gen::barbell(4, 2)}) {
    const double lambda2 = laplacian_spectrum(g).lambda2;
    const double i_g = isoperimetric_number_exact(g);
    const double bound =
        theory::cheeger_lambda2_lower_bound(i_g, g.max_degree());
    EXPECT_GE(lambda2 + 1e-12, bound) << g.name();
    EXPECT_GT(bound, 0.0) << g.name();
  }
}

TEST(Theory, TimeDependentVarianceBounds) {
  EXPECT_DOUBLE_EQ(theory::edge_var_avg_time_bound(100, 2.0, 10), 4.0);
  EXPECT_DOUBLE_EQ(theory::node_var_m_time_bound(100, 2.0, 3, 15), 4.0);
  EXPECT_DOUBLE_EQ(theory::edge_var_avg_time_bound(0, 5.0, 10), 0.0);
}

TEST(Theory, EarlyTimeVarianceEnvelopesHoldByMonteCarlo) {
  // Corollary E.2(ii)/(iii) on lollipop(16): Var(M(t)) <= t (d_max K/2m)^2
  // for the NodeModel and Var(Avg(t)) <= t K^2/n^2 for the EdgeModel.
  // Measured ratios sit below 0.05 of the bounds, so 1000 replicas'
  // sampling error (~5% of the variance) cannot reach them.
  const Graph g = gen::lollipop(8, 8);
  Rng init_rng(3);
  std::vector<double> xi =
      initial::uniform(init_rng, g.node_count(), -1.0, 1.0);
  initial::center_degree_weighted(g, xi);
  std::vector<double> xi_edge = xi;
  initial::center_plain(xi_edge);
  const std::vector<std::int64_t> checkpoints{16, 64, 256};

  ModelConfig node_config;
  node_config.alpha = 0.5;
  node_config.k = 1;
  const double k_node = OpinionState(g, xi).discrepancy();
  const std::vector<RunningStats> var_m = test_support::sample_at_checkpoints(
      g, node_config, xi, checkpoints, 1000, 7,
      [](const AveragingProcess& p) { return p.state().weighted_average(); });

  ModelConfig edge_config;
  edge_config.kind = ModelKind::edge;
  edge_config.alpha = 0.5;
  const double k_edge = OpinionState(g, xi_edge).discrepancy();
  const std::vector<RunningStats> var_avg =
      test_support::sample_at_checkpoints(
          g, edge_config, xi_edge, checkpoints, 1000, 9,
          [](const AveragingProcess& p) { return p.state().average(); });

  for (std::size_t c = 0; c < checkpoints.size(); ++c) {
    const std::int64_t t = checkpoints[c];
    const double node_bound = theory::node_var_m_time_bound(
        t, k_node, g.max_degree(), g.edge_count());
    EXPECT_GT(var_m[c].population_variance(), 0.0) << "t=" << t;
    EXPECT_LE(var_m[c].population_variance(), node_bound) << "t=" << t;
    const double edge_bound =
        theory::edge_var_avg_time_bound(t, k_edge, g.node_count());
    EXPECT_GT(var_avg[c].population_variance(), 0.0) << "t=" << t;
    EXPECT_LE(var_avg[c].population_variance(), edge_bound) << "t=" << t;
  }
}

TEST(Theory, VarianceExactRejectsIrregular) {
  const Graph g = gen::star(6);
  const std::vector<double> xi(6, 0.0);
  EXPECT_THROW(theory::variance_exact(g, 0.5, 1, xi), ContractError);
}

}  // namespace
}  // namespace opindyn
