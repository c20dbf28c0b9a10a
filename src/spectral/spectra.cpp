#include "src/spectral/spectra.h"

#include <algorithm>
#include <cmath>

#include "src/spectral/jacobi.h"
#include "src/spectral/lanczos.h"
#include "src/support/assert.h"

namespace opindyn {

Matrix lazy_walk_matrix(const Graph& graph) {
  const auto n = static_cast<std::size_t>(graph.node_count());
  Matrix p(n, n, 0.0);
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    p.at(static_cast<std::size_t>(u), static_cast<std::size_t>(u)) = 0.5;
    const double hop = 0.5 / static_cast<double>(graph.degree(u));
    for (const NodeId v : graph.neighbors(u)) {
      p.at(static_cast<std::size_t>(u), static_cast<std::size_t>(v)) = hop;
    }
  }
  return p;
}

Matrix walk_matrix(const Graph& graph) {
  const auto n = static_cast<std::size_t>(graph.node_count());
  Matrix p(n, n, 0.0);
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    const double hop = 1.0 / static_cast<double>(graph.degree(u));
    for (const NodeId v : graph.neighbors(u)) {
      p.at(static_cast<std::size_t>(u), static_cast<std::size_t>(v)) = hop;
    }
  }
  return p;
}

Matrix laplacian_matrix(const Graph& graph) {
  const auto n = static_cast<std::size_t>(graph.node_count());
  Matrix l(n, n, 0.0);
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    l.at(static_cast<std::size_t>(u), static_cast<std::size_t>(u)) =
        static_cast<double>(graph.degree(u));
    for (const NodeId v : graph.neighbors(u)) {
      l.at(static_cast<std::size_t>(u), static_cast<std::size_t>(v)) = -1.0;
    }
  }
  return l;
}

WalkSpectrum lazy_walk_spectrum(const Graph& graph) {
  const auto n = static_cast<std::size_t>(graph.node_count());
  OPINDYN_EXPECTS(graph.min_degree() >= 1,
                  "walk spectrum needs min degree >= 1");
  if (n < 2) {
    return {1.0, 0.0};
  }
  // S = D^{1/2} P D^{-1/2}: (S x)_u = x_u / 2 + sum_{v ~ u} x_v /
  // (2 sqrt(d_u d_v)).  Its top eigenvector sqrt(pi) is deflated, so the
  // largest surviving Ritz value is lambda_2.
  std::vector<double> inv_sqrt_degree(n);
  std::vector<double> sqrt_pi(n);
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    const auto i = static_cast<std::size_t>(u);
    inv_sqrt_degree[i] =
        1.0 / std::sqrt(static_cast<double>(graph.degree(u)));
    sqrt_pi[i] = std::sqrt(graph.stationary(u));
  }
  const SymmetricOperator apply_s = [&](const std::vector<double>& x,
                                        std::vector<double>& y) {
    for (NodeId u = 0; u < graph.node_count(); ++u) {
      const auto i = static_cast<std::size_t>(u);
      double sum = 0.0;
      for (const NodeId v : graph.neighbors(u)) {
        const auto j = static_cast<std::size_t>(v);
        sum += inv_sqrt_degree[j] * x[j];
      }
      y[i] = 0.5 * (x[i] + inv_sqrt_degree[i] * sum);
    }
  };
  const double lambda2 =
      lanczos_extreme_eigenvalue(apply_s, sqrt_pi, Extreme::largest).value;
  return {lambda2, 1.0 - lambda2};
}

std::vector<double> lazy_walk_f2(const Graph& graph) {
  const auto n = static_cast<std::size_t>(graph.node_count());
  OPINDYN_EXPECTS(graph.min_degree() >= 1,
                  "walk spectrum needs min degree >= 1");
  // Symmetrize: S = D^{1/2} P D^{-1/2}; s_ij = 1/(2 sqrt(d_i d_j)) on
  // edges, 1/2 on the diagonal.  If g is an eigenvector of S then
  // f = D^{-1/2} g is a (right) eigenvector of P.
  Matrix s(n, n, 0.0);
  for (NodeId u = 0; u < graph.node_count(); ++u) {
    s.at(static_cast<std::size_t>(u), static_cast<std::size_t>(u)) = 0.5;
    for (const NodeId v : graph.neighbors(u)) {
      s.at(static_cast<std::size_t>(u), static_cast<std::size_t>(v)) =
          0.5 / std::sqrt(static_cast<double>(graph.degree(u)) *
                          static_cast<double>(graph.degree(v)));
    }
  }
  const EigenDecomposition eig = jacobi_eigen(s);
  OPINDYN_ENSURES(eig.values.size() == n, "spectrum size mismatch");

  // Map g -> f = D^{-1/2} g and normalise under <.,.>_pi so that the
  // lower-bound experiments can use ||f_2||_pi = 1 directly.
  std::vector<double> f2(n, 0.0);
  if (n >= 2) {
    const auto& g = eig.vectors[n - 2];
    for (std::size_t u = 0; u < n; ++u) {
      f2[u] = g[u] / std::sqrt(static_cast<double>(
                         graph.degree(static_cast<NodeId>(u))));
    }
    double pi_norm2 = 0.0;
    for (std::size_t u = 0; u < n; ++u) {
      pi_norm2 += graph.stationary(static_cast<NodeId>(u)) * f2[u] * f2[u];
    }
    if (pi_norm2 > 0.0) {
      scale(f2, 1.0 / std::sqrt(pi_norm2));
    }
  }
  return f2;
}

LaplacianSpectrum laplacian_spectrum(const Graph& graph) {
  const auto n = static_cast<std::size_t>(graph.node_count());
  if (n < 2) {
    return {0.0};
  }
  // (L x)_u = d_u x_u - sum_{v ~ u} x_v.  The kernel (all-ones) is
  // deflated, so the smallest surviving Ritz value is lambda_2.
  const SymmetricOperator apply_l = [&graph](const std::vector<double>& x,
                                             std::vector<double>& y) {
    for (NodeId u = 0; u < graph.node_count(); ++u) {
      const auto i = static_cast<std::size_t>(u);
      double sum = static_cast<double>(graph.degree(u)) * x[i];
      for (const NodeId v : graph.neighbors(u)) {
        sum -= x[static_cast<std::size_t>(v)];
      }
      y[i] = sum;
    }
  };
  const std::vector<double> ones(n, 1.0 / std::sqrt(static_cast<double>(n)));
  return {lanczos_extreme_eigenvalue(apply_l, ones, Extreme::smallest).value};
}

std::vector<double> laplacian_f2(const Graph& graph) {
  const EigenDecomposition eig = jacobi_eigen(laplacian_matrix(graph));
  return eig.values.size() >= 2 ? eig.vectors[1] : std::vector<double>{};
}

}  // namespace opindyn
