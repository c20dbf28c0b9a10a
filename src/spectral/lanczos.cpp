#include "src/spectral/lanczos.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <utility>

#include "src/spectral/matrix.h"
#include "src/support/assert.h"
#include "src/support/rng.h"

namespace opindyn {

namespace {

/// Seed of the Gaussian start vector: fixed, so repeated solves of one
/// operator are bitwise identical.
constexpr std::uint64_t kStartSeed = 12345;

/// Paige's bound beta_k |e_k^T y| is the exact residual norm of the Ritz
/// pair; at 1e-13 of ||T|| the Ritz value's error is below that bound
/// and, away from clusters, below its square over the spectral gap.
constexpr double kResidualTolerance = 1e-13;

constexpr double kEpsilon = std::numeric_limits<double>::epsilon();

/// Number of eigenvalues of T below x: the negative pivots of the LDL^T
/// factorisation of T - xI (Sturm count).  Zero pivots are nudged to
/// -pivmin, the standard guard that keeps the count monotone in x.
std::size_t count_below(const std::vector<double>& alpha,
                        const std::vector<double>& beta_squared, double x,
                        double pivmin) {
  std::size_t count = 0;
  double pivot = 1.0;
  for (std::size_t i = 0; i < alpha.size(); ++i) {
    pivot = alpha[i] - x - (i == 0 ? 0.0 : beta_squared[i - 1] / pivot);
    if (std::abs(pivot) < pivmin) {
      pivot = -pivmin;
    }
    if (pivot < 0.0) {
      ++count;
    }
  }
  return count;
}

/// |e_k^T y| for the unit eigenvector y of the k x k tridiagonal T that
/// belongs to its eigenvalue `theta`: two steps of inverse iteration,
/// solving (T - theta I) y = r by Gaussian elimination with partial
/// pivoting.  Pivots are floored at eps ||T|| so the nearly singular
/// solve stays finite; its growth is exactly what isolates y.
double ritz_vector_tail(const std::vector<double>& alpha,
                        const std::vector<double>& beta, double theta,
                        double norm) {
  const std::size_t k = alpha.size();
  if (k == 1) {
    return 1.0;
  }
  const double floor = kEpsilon * norm;
  const auto floored = [floor](double pivot) {
    return std::abs(pivot) < floor ? std::copysign(floor, pivot) : pivot;
  };
  // Row i of U holds (diag[i], upper1[i], upper2[i]) at columns i, i+1,
  // i+2; a row swap moves the next row's super-diagonal into upper2.
  std::vector<double> diag(k);
  std::vector<double> upper1(k, 0.0);
  std::vector<double> upper2(k, 0.0);
  std::vector<double> multiplier(k - 1);
  std::vector<bool> swapped(k - 1);
  double c0 = alpha[0] - theta;
  double c1 = beta[0];
  double c2 = 0.0;
  for (std::size_t i = 0; i + 1 < k; ++i) {
    double n0 = beta[i];
    double n1 = alpha[i + 1] - theta;
    double n2 = i + 2 < k ? beta[i + 1] : 0.0;
    swapped[i] = std::abs(n0) > std::abs(c0);
    if (swapped[i]) {
      std::swap(c0, n0);
      std::swap(c1, n1);
      std::swap(c2, n2);
    }
    c0 = floored(c0);
    multiplier[i] = n0 / c0;
    diag[i] = c0;
    upper1[i] = c1;
    upper2[i] = c2;
    c0 = n1 - multiplier[i] * c1;
    c1 = n2 - multiplier[i] * c2;
    c2 = 0.0;
  }
  diag[k - 1] = floored(c0);

  std::vector<double> y(k, 1.0);
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t i = 0; i + 1 < k; ++i) {
      if (swapped[i]) {
        std::swap(y[i], y[i + 1]);
      }
      y[i + 1] -= multiplier[i] * y[i];
    }
    for (std::size_t i = k; i-- > 0;) {
      double sum = y[i];
      if (i + 1 < k) {
        sum -= upper1[i] * y[i + 1];
      }
      if (i + 2 < k) {
        sum -= upper2[i] * y[i + 2];
      }
      y[i] = sum / diag[i];
    }
    scale(y, 1.0 / norm2(y));
  }
  return std::abs(y[k - 1]);
}

/// Modified Gram-Schmidt against `deflate` and every basis vector, with
/// a second pass only when the first cancelled more than 1 - 1/sqrt(2)
/// of w's norm (the Kahan-Parlett "twice is enough" test).  One pass
/// streams each basis vector once: its dot and its update reuse it
/// while it is still in cache.
void project_out(std::vector<double>& w, const std::vector<double>& deflate,
                 const std::vector<std::vector<double>>& basis) {
  for (int pass = 0; pass < 2; ++pass) {
    const double before = norm2(w);
    axpy(-dot(w, deflate), deflate, w);
    for (const std::vector<double>& q : basis) {
      axpy(-dot(w, q), q, w);
    }
    if (norm2(w) > before * std::numbers::sqrt2 / 2.0) {
      return;
    }
  }
}

}  // namespace

double tridiagonal_eigenvalue(const std::vector<double>& alpha,
                              const std::vector<double>& beta,
                              std::size_t index) {
  const std::size_t k = alpha.size();
  OPINDYN_EXPECTS(k >= 1 && beta.size() + 1 == k,
                  "tridiagonal needs k diagonal and k-1 off-diagonal entries");
  OPINDYN_EXPECTS(index < k, "eigenvalue index out of range");
  std::vector<double> beta_squared(k - 1);
  double max_beta_squared = 0.0;
  // Gershgorin brackets the whole spectrum.
  double lo = alpha[0];
  double hi = alpha[0];
  for (std::size_t i = 0; i < k; ++i) {
    const double left = i > 0 ? std::abs(beta[i - 1]) : 0.0;
    const double right = i + 1 < k ? std::abs(beta[i]) : 0.0;
    lo = std::min(lo, alpha[i] - left - right);
    hi = std::max(hi, alpha[i] + left + right);
    if (i + 1 < k) {
      beta_squared[i] = beta[i] * beta[i];
      max_beta_squared = std::max(max_beta_squared, beta_squared[i]);
    }
  }
  const double pivmin =
      std::numeric_limits<double>::min() * std::max(1.0, max_beta_squared);
  const double pad = 2.0 * kEpsilon * std::max(std::abs(lo), std::abs(hi)) +
                     pivmin;
  lo -= pad;
  hi += pad;
  // Invariant: lo <= lambda_index <= hi.  Halve until the midpoint is no
  // longer representable between them (full precision); the cap covers
  // bisecting the whole double range and only stops a non-finite input.
  for (int halving = 0; halving < 2200; ++halving) {
    const double mid = lo + 0.5 * (hi - lo);
    if (mid <= lo || mid >= hi) {
      break;
    }
    if (count_below(alpha, beta_squared, mid, pivmin) > index) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return lo + 0.5 * (hi - lo);
}

ExtremeEigenvalue lanczos_extreme_eigenvalue(
    const SymmetricOperator& op, const std::vector<double>& deflate,
    Extreme which) {
  const std::size_t n = deflate.size();
  OPINDYN_EXPECTS(n >= 2, "lanczos needs dimension >= 2");
  // The Krylov space lives in the complement of `deflate`.
  const std::size_t max_steps = n - 1;

  std::vector<std::vector<double>> basis;
  std::vector<double> alpha;
  std::vector<double> beta;

  Rng rng(kStartSeed);
  std::vector<double> w(n);
  for (double& x : w) {
    x = rng.next_gaussian();
  }
  project_out(w, deflate, basis);
  const double start_norm = norm2(w);
  OPINDYN_ENSURES(start_norm > 0.0, "lanczos start vector collapsed");
  scale(w, 1.0 / start_norm);
  basis.push_back(w);

  double norm = 0.0;  // Gershgorin bound on ||T||, grown per step
  ExtremeEigenvalue result;
  for (std::size_t j = 0;; ++j) {
    op(basis[j], w);
    const double a = dot(w, basis[j]);
    axpy(-a, basis[j], w);
    if (j > 0) {
      axpy(-beta[j - 1], basis[j - 1], w);
    }
    project_out(w, deflate, basis);
    const double b = norm2(w);
    alpha.push_back(a);
    norm = std::max(norm, std::abs(a) + b + (j > 0 ? beta[j - 1] : 0.0));
    result.value = tridiagonal_eigenvalue(
        alpha, beta, which == Extreme::smallest ? 0 : alpha.size() - 1);
    result.steps = static_cast<int>(j + 1);
    const double tolerance = kResidualTolerance * norm;
    if (j + 1 == max_steps || b <= tolerance ||
        b * ritz_vector_tail(alpha, beta, result.value, norm) <= tolerance) {
      return result;
    }
    beta.push_back(b);
    scale(w, 1.0 / b);
    basis.push_back(w);
  }
}

}  // namespace opindyn
