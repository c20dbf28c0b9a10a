// Lanczos iteration with full reorthogonalisation for one extreme
// eigenvalue of a large sparse symmetric operator.  The convergence
// predictions need only lambda_2 -- of the symmetrised lazy walk for
// Theorem 2.2, of the Laplacian for Theorem 2.4 -- so the solver applies
// the operator through O(m) sparse matvecs, deflates the known top
// eigenvector, reads the extreme Ritz value off the tridiagonal by Sturm
// bisection, and stops once Paige's residual bound says that value has
// converged.  Cost: O(k m) for the matvecs plus O(k^2 n) time and
// O(k n) memory for the reorthogonalisation, for the k steps
// convergence takes.
#ifndef OPINDYN_SPECTRAL_LANCZOS_H
#define OPINDYN_SPECTRAL_LANCZOS_H

#include <cstddef>
#include <functional>
#include <vector>

namespace opindyn {

/// Symmetric operator y = A*x given as a callback; y arrives sized like x.
using SymmetricOperator =
    std::function<void(const std::vector<double>& x, std::vector<double>& y)>;

enum class Extreme { smallest, largest };

struct ExtremeEigenvalue {
  double value = 0.0;
  /// Lanczos steps (operator applications) the solve took.
  int steps = 0;
};

/// The `which` extreme eigenvalue of `op` restricted to the orthogonal
/// complement of `deflate` (a unit eigenvector of `op`; pass the known
/// top eigenvector to expose lambda_2).  The start vector comes from a
/// fixed seed, so the result is a deterministic function of the operator.
/// The iteration stops when beta_k |e_k^T y| -- the residual norm of the
/// extreme Ritz pair -- drops below 1e-13 of the tridiagonal's norm, or
/// when the Krylov space exhausts the complement.
ExtremeEigenvalue lanczos_extreme_eigenvalue(
    const SymmetricOperator& op, const std::vector<double>& deflate,
    Extreme which);

/// The index-th smallest (0-based) eigenvalue of the symmetric
/// tridiagonal matrix with diagonal `alpha` and off-diagonal `beta`
/// (beta.size() + 1 == alpha.size()), by Sturm-sequence bisection to
/// full double precision.
double tridiagonal_eigenvalue(const std::vector<double>& alpha,
                              const std::vector<double>& beta,
                              std::size_t index);

}  // namespace opindyn

#endif  // OPINDYN_SPECTRAL_LANCZOS_H
