#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "src/graph/generators.h"
#include "src/spectral/jacobi.h"
#include "src/spectral/lanczos.h"
#include "src/spectral/spectra.h"
#include "src/support/assert.h"
#include "src/support/rng.h"

namespace opindyn {
namespace {

constexpr double pi = std::numbers::pi;

TEST(Jacobi, DiagonalMatrixIsItsOwnSpectrum) {
  Matrix a(3, 3, 0.0);
  a.at(0, 0) = 3.0;
  a.at(1, 1) = -1.0;
  a.at(2, 2) = 2.0;
  const auto eig = jacobi_eigen(a);
  ASSERT_EQ(eig.values.size(), 3u);
  EXPECT_NEAR(eig.values[0], -1.0, 1e-12);
  EXPECT_NEAR(eig.values[1], 2.0, 1e-12);
  EXPECT_NEAR(eig.values[2], 3.0, 1e-12);
}

TEST(Jacobi, TwoByTwoClosedForm) {
  Matrix a(2, 2);
  a.at(0, 0) = 2.0;
  a.at(0, 1) = 1.0;
  a.at(1, 0) = 1.0;
  a.at(1, 1) = 2.0;
  const auto eig = jacobi_eigen(a);
  EXPECT_NEAR(eig.values[0], 1.0, 1e-13);
  EXPECT_NEAR(eig.values[1], 3.0, 1e-13);
}

TEST(Jacobi, EigenvectorsSatisfyDefinitionAndOrthonormality) {
  const Graph g = gen::petersen();
  const Matrix l = laplacian_matrix(g);
  const auto eig = jacobi_eigen(l);
  const std::size_t n = l.rows();
  for (std::size_t k = 0; k < n; ++k) {
    const auto lv = l.multiply(eig.vectors[k]);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(lv[i], eig.values[k] * eig.vectors[k][i], 1e-9);
    }
    EXPECT_NEAR(norm2(eig.vectors[k]), 1.0, 1e-10);
    for (std::size_t j = k + 1; j < n; ++j) {
      EXPECT_NEAR(dot(eig.vectors[k], eig.vectors[j]), 0.0, 1e-9);
    }
  }
}

TEST(Jacobi, RejectsAsymmetric) {
  Matrix a(2, 2, 0.0);
  a.at(0, 1) = 1.0;
  EXPECT_THROW(jacobi_eigen(a), ContractError);
}

/// Ascending eigenvalues of L from the dense Jacobi oracle.
std::vector<double> dense_laplacian_values(const Graph& g) {
  return jacobi_eigen(laplacian_matrix(g)).values;
}

/// Ascending eigenvalues of S = D^{1/2} P D^{-1/2} (P's spectrum) from
/// the dense Jacobi oracle.
std::vector<double> dense_walk_values(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.node_count());
  Matrix s(n, n, 0.0);
  for (NodeId u = 0; u < g.node_count(); ++u) {
    const auto i = static_cast<std::size_t>(u);
    s.at(i, i) = 0.5;
    for (const NodeId v : g.neighbors(u)) {
      s.at(i, static_cast<std::size_t>(v)) =
          0.5 / std::sqrt(static_cast<double>(g.degree(u)) *
                          static_cast<double>(g.degree(v)));
    }
  }
  return jacobi_eigen(s).values;
}

TEST(LaplacianSpectrum, CycleClosedForm) {
  // lambda_j(L) of C_n = 2 - 2 cos(2 pi j / n).
  for (const NodeId n : {5, 8, 12}) {
    const Graph g = gen::cycle(n);
    const std::vector<double> values = dense_laplacian_values(g);
    EXPECT_NEAR(values.front(), 0.0, 1e-10);
    EXPECT_NEAR(laplacian_spectrum(g).lambda2,
                2.0 - 2.0 * std::cos(2.0 * pi / n), 1e-10);
    EXPECT_NEAR(values.back(),
                n % 2 == 0 ? 4.0
                           : 2.0 - 2.0 * std::cos(pi * (n - 1) / n),
                1e-9);
  }
}

TEST(LaplacianSpectrum, CompleteGraphClosedForm) {
  // K_n: eigenvalues 0 and n (n-1 times).
  const Graph g = gen::complete(7);
  const std::vector<double> values = dense_laplacian_values(g);
  EXPECT_NEAR(values.front(), 0.0, 1e-10);
  for (std::size_t i = 1; i < values.size(); ++i) {
    EXPECT_NEAR(values[i], 7.0, 1e-10);
  }
  EXPECT_NEAR(laplacian_spectrum(g).lambda2, 7.0, 1e-10);
}

TEST(LaplacianSpectrum, StarClosedForm) {
  // S_n (n nodes): eigenvalues 0, 1 (n-2 times), n.
  const Graph g = gen::star(8);
  const std::vector<double> values = dense_laplacian_values(g);
  EXPECT_NEAR(values[0], 0.0, 1e-10);
  EXPECT_NEAR(laplacian_spectrum(g).lambda2, 1.0, 1e-10);
  EXPECT_NEAR(values.back(), 8.0, 1e-10);
}

TEST(LaplacianSpectrum, HypercubeClosedForm) {
  // Q_d: eigenvalues 2i with multiplicity C(d, i); lambda2 = 2.
  const Graph g = gen::hypercube(3);
  EXPECT_NEAR(laplacian_spectrum(g).lambda2, 2.0, 1e-10);
  EXPECT_NEAR(dense_laplacian_values(g).back(), 6.0, 1e-10);
}

TEST(LaplacianSpectrum, PathClosedForm) {
  // P_n: lambda_2 = 2 - 2 cos(pi / n).
  const auto spec = laplacian_spectrum(gen::path(10));
  EXPECT_NEAR(spec.lambda2, 2.0 - 2.0 * std::cos(pi / 10.0), 1e-10);
}

TEST(WalkSpectrum, LazyWalkTopEigenvalueIsOne) {
  for (const auto& g :
       {gen::cycle(9), gen::complete(6), gen::star(7), gen::petersen()}) {
    const std::vector<double> values = dense_walk_values(g);
    EXPECT_NEAR(values.back(), 1.0, 1e-10) << g.name();
    // The sparse solve deflates sqrt(pi) and lands on the next one.
    const auto spec = lazy_walk_spectrum(g);
    EXPECT_NEAR(spec.lambda2, values[values.size() - 2], 1e-12) << g.name();
    EXPECT_GT(spec.gap, 0.0) << g.name();
    // Lazy walk spectrum lies in [0, 1].
    EXPECT_GE(values.front(), -1e-10) << g.name();
  }
}

TEST(WalkSpectrum, RegularGraphRelationToLaplacian) {
  // For d-regular graphs: 1 - lambda2(P_lazy) = lambda2(L) / (2d)
  // (the factor-d remark after Theorem 2.4).
  for (const auto& g : {gen::cycle(10), gen::complete(8), gen::hypercube(3),
                        gen::petersen(), gen::torus(3, 4)}) {
    ASSERT_TRUE(g.is_regular());
    const double d = g.min_degree();
    const auto walk = lazy_walk_spectrum(g);
    const auto lap = laplacian_spectrum(g);
    EXPECT_NEAR(walk.gap, lap.lambda2 / (2.0 * d), 1e-9) << g.name();
  }
}

TEST(WalkSpectrum, F2IsAnEigenvectorOfP) {
  const Graph g = gen::cycle(7);
  const double lambda2 = lazy_walk_spectrum(g).lambda2;
  const std::vector<double> f2 = lazy_walk_f2(g);
  const Matrix p = lazy_walk_matrix(g);
  const auto pf = p.multiply(f2);
  for (std::size_t i = 0; i < pf.size(); ++i) {
    EXPECT_NEAR(pf[i], lambda2 * f2[i], 1e-9);
  }
  // Normalised under <.,.>_pi.
  double pi_norm = 0.0;
  for (NodeId u = 0; u < g.node_count(); ++u) {
    pi_norm += g.stationary(u) * f2[static_cast<std::size_t>(u)] *
               f2[static_cast<std::size_t>(u)];
  }
  EXPECT_NEAR(pi_norm, 1.0, 1e-10);
}

TEST(WalkMatrix, RowStochastic) {
  for (const auto& g : {gen::star(6), gen::lollipop(4, 3)}) {
    EXPECT_NEAR(walk_matrix(g).stochasticity_defect(), 0.0, 1e-12);
    EXPECT_NEAR(lazy_walk_matrix(g).stochasticity_defect(), 0.0, 1e-12);
  }
}

TEST(Lanczos, MatchesJacobiLambda2OnMediumGraphs) {
  for (const auto& g : {gen::cycle(64), gen::torus(6, 6),
                        gen::complete_bipartite(10, 14)}) {
    const double dense = dense_laplacian_values(g)[1];
    EXPECT_NEAR(laplacian_spectrum(g).lambda2, dense, dense * 1e-10)
        << g.name();
  }
}

TEST(Lanczos, StopsOnceTheRitzValueConverges) {
  // Q_7 (n = 128) has 8 distinct Laplacian eigenvalues, so the Krylov
  // space of the deflated operator closes after at most 7 steps: the
  // residual test must stop there, far short of the n - 1 step cap, with
  // lambda_2 = 2 exact.
  const Graph g = gen::hypercube(7);
  const auto n = static_cast<std::size_t>(g.node_count());
  const SymmetricOperator apply_l = [&g](const std::vector<double>& x,
                                         std::vector<double>& y) {
    for (NodeId u = 0; u < g.node_count(); ++u) {
      double sum = g.degree(u) * x[static_cast<std::size_t>(u)];
      for (const NodeId v : g.neighbors(u)) {
        sum -= x[static_cast<std::size_t>(v)];
      }
      y[static_cast<std::size_t>(u)] = sum;
    }
  };
  const std::vector<double> ones(n, 1.0 / std::sqrt(static_cast<double>(n)));
  const ExtremeEigenvalue smallest =
      lanczos_extreme_eigenvalue(apply_l, ones, Extreme::smallest);
  EXPECT_LE(smallest.steps, 7);
  EXPECT_NEAR(smallest.value, 2.0, 1e-12);
  const ExtremeEigenvalue largest =
      lanczos_extreme_eigenvalue(apply_l, ones, Extreme::largest);
  EXPECT_LE(largest.steps, 7);
  EXPECT_NEAR(largest.value, 14.0, 1e-11);
}

TEST(Lanczos, LargeCycleFullDimensionIsExact) {
  const Graph g = gen::cycle(300);
  const double expected = 2.0 - 2.0 * std::cos(2.0 * pi / 300.0);
  EXPECT_NEAR(laplacian_spectrum(g).lambda2, expected, expected * 1e-10);
}

TEST(Lanczos, TridiagonalBisectionMatchesJacobi) {
  // Every eigenvalue of a random symmetric tridiagonal, by Sturm
  // bisection, against the dense oracle.
  Rng rng(29);
  const std::size_t k = 40;
  std::vector<double> alpha(k);
  std::vector<double> beta(k - 1);
  Matrix t(k, k, 0.0);
  for (std::size_t i = 0; i < k; ++i) {
    alpha[i] = rng.next_gaussian();
    t.at(i, i) = alpha[i];
    if (i + 1 < k) {
      beta[i] = rng.next_gaussian();
      t.at(i, i + 1) = beta[i];
      t.at(i + 1, i) = beta[i];
    }
  }
  const std::vector<double> values = jacobi_eigen(t).values;
  for (std::size_t i = 0; i < k; ++i) {
    EXPECT_NEAR(tridiagonal_eigenvalue(alpha, beta, i), values[i], 1e-12)
        << i;
  }
  EXPECT_THROW(tridiagonal_eigenvalue(alpha, beta, k), ContractError);
}

// ---- lambda_2 where the dense oracle cannot go (n >= 1000) ----------

/// The walk gap against its closed form at 1e-10 relative, and the
/// Laplacian lambda_2 likewise.
void expect_closed_forms(const Graph& g, double walk_lambda2,
                         double laplacian_lambda2) {
  const WalkSpectrum walk = lazy_walk_spectrum(g);
  const double gap = 1.0 - walk_lambda2;
  EXPECT_NEAR(walk.gap, gap, gap * 1e-10) << g.name();
  EXPECT_NEAR(laplacian_spectrum(g).lambda2, laplacian_lambda2,
              laplacian_lambda2 * 1e-10)
      << g.name();
}

TEST(SparseLambda2, Torus64x64ClosedForm) {
  // Lazy walk on the 4-regular torus: 1/2 + (cos(2 pi a/64) +
  // cos(2 pi b/64)) / 4, largest below 1 at (a, b) = (1, 0).
  const double c = std::cos(2.0 * pi / 64.0);
  expect_closed_forms(gen::torus(64, 64), 0.5 + 0.5 * (1.0 + c) / 2.0,
                      2.0 - 2.0 * c);
}

TEST(SparseLambda2, Hypercube12ClosedForm) {
  // Q_12 (n = 4096): lambda_2(P) = 1 - 1/12, lambda_2(L) = 2.
  expect_closed_forms(gen::hypercube(12), 1.0 - 1.0 / 12.0, 2.0);
}

TEST(SparseLambda2, Cycle1000ClosedForm) {
  const double c = std::cos(2.0 * pi / 1000.0);
  expect_closed_forms(gen::cycle(1000), 0.5 + 0.5 * c, 2.0 - 2.0 * c);
}

class SparseVsJacobi : public ::testing::TestWithParam<const char*> {};

Graph irregular_graph(const std::string& family) {
  Rng rng(41);
  if (family == "path") {
    return gen::path(200);
  }
  if (family == "star") {
    return gen::star(200);
  }
  if (family == "double_star") {
    return gen::double_star(99);
  }
  if (family == "barbell") {
    return gen::barbell(40, 40);
  }
  if (family == "lollipop") {
    return gen::lollipop(60, 100);
  }
  if (family == "binary_tree") {
    return gen::binary_tree(200);
  }
  if (family == "pref_attach") {
    return gen::preferential_attachment(rng, 200, 2);
  }
  return gen::grid(10, 20);
}

TEST_P(SparseVsJacobi, GapAndLaplacianLambda2AgreeOnIrregularGraphs) {
  const Graph g = irregular_graph(GetParam());
  ASSERT_FALSE(g.is_regular());
  ASSERT_LE(g.node_count(), 200);
  const std::vector<double> walk_values = dense_walk_values(g);
  const double dense_gap = 1.0 - walk_values[walk_values.size() - 2];
  EXPECT_NEAR(lazy_walk_spectrum(g).gap, dense_gap, dense_gap * 1e-10);
  const double dense_lambda2 = dense_laplacian_values(g)[1];
  EXPECT_NEAR(laplacian_spectrum(g).lambda2, dense_lambda2,
              dense_lambda2 * 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Families, SparseVsJacobi,
                         ::testing::Values("path", "star", "double_star",
                                           "barbell", "lollipop",
                                           "binary_tree", "pref_attach",
                                           "grid"));

TEST(SparseLambda2, TinyGapAgreesWithJacobiToWorkingPrecision) {
  // barbell(60,80) has gap 3.5e-6: a few ulps of lambda_2 ~ 1, which
  // either solver may be off by, already exceed 1e-10 of the gap, so the
  // agreement is checked on lambda_2 itself.
  const Graph g = gen::barbell(60, 80);
  const std::vector<double> walk_values = dense_walk_values(g);
  EXPECT_NEAR(lazy_walk_spectrum(g).lambda2,
              walk_values[walk_values.size() - 2],
              16.0 * std::numeric_limits<double>::epsilon());
}

class SpectrumSizes : public ::testing::TestWithParam<NodeId> {};

TEST_P(SpectrumSizes, CycleLambda2MatchesClosedFormAcrossSizes) {
  const NodeId n = GetParam();
  const auto spec = laplacian_spectrum(gen::cycle(n));
  EXPECT_NEAR(spec.lambda2, 2.0 - 2.0 * std::cos(2.0 * pi / n), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SpectrumSizes,
                         ::testing::Values(3, 4, 6, 9, 16, 25, 40));

}  // namespace
}  // namespace opindyn
