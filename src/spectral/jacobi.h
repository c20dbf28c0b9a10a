// Cyclic Jacobi eigenvalue algorithm for dense symmetric matrices.
// Quadratically convergent, unconditionally stable, and accurate to near
// machine precision, but O(n^3): it computes the f_2 eigenvectors of the
// f2_* initial states and is the oracle the sparse lambda_2 solve is
// tested against.
#ifndef OPINDYN_SPECTRAL_JACOBI_H
#define OPINDYN_SPECTRAL_JACOBI_H

#include <vector>

#include "src/spectral/matrix.h"

namespace opindyn {

struct EigenDecomposition {
  /// Eigenvalues sorted ascending.
  std::vector<double> values;
  /// eigenvector k (normalised, column) corresponding to values[k].
  std::vector<std::vector<double>> vectors;
};

/// Full eigendecomposition of a symmetric matrix.
/// Throws ContractError if the matrix is not square or not symmetric
/// (defect > 1e-9).
EigenDecomposition jacobi_eigen(const Matrix& symmetric,
                                double tolerance = 1e-13,
                                int max_sweeps = 100);

}  // namespace opindyn

#endif  // OPINDYN_SPECTRAL_JACOBI_H
