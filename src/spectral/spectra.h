// Spectral quantities of the paper (Section 4):
//
//  * P -- the *lazy* random-walk transition matrix, p(i,i) = 1/2 and
//    p(i,j) = 1/(2 d_i) for edges {i,j}.  Theorem 2.2's rate is
//    1 - lambda_2(P).  P is reversible w.r.t. pi = d/2m, so
//    S = D^{1/2} P D^{-1/2} is symmetric and shares P's spectrum; its
//    top eigenvector is sqrt(pi).
//  * L = D - A -- the graph Laplacian.  Theorem 2.4's rate is lambda_2(L);
//    its kernel is spanned by the all-ones vector.
//
// The rates need one number per graph, so lambda_2 comes from a sparse
// Lanczos solve (lanczos.h) that applies S or L through the adjacency
// lists with the known top eigenvector deflated -- no dense matrix.  The
// eigenvector f_2, used only as an adversarial initial state, stays on
// the dense Jacobi solver: lambda_2 is repeated on tori and hypercubes,
// where any vector of the eigenspace is valid and Jacobi's is the one
// the recorded outputs were made with.
//
// For d-regular graphs the two are linked: 1 - lambda_2(P) =
// lambda_2(L) / (2d) (the factor-d remark after Theorem 2.4).
#ifndef OPINDYN_SPECTRAL_SPECTRA_H
#define OPINDYN_SPECTRAL_SPECTRA_H

#include <vector>

#include "src/graph/graph.h"
#include "src/spectral/matrix.h"

namespace opindyn {

/// Dense lazy random-walk matrix P (row-stochastic).
Matrix lazy_walk_matrix(const Graph& graph);

/// Dense non-lazy random-walk matrix (row-stochastic); spectrum in [-1,1].
Matrix walk_matrix(const Graph& graph);

/// Dense Laplacian L = D - A.
Matrix laplacian_matrix(const Graph& graph);

struct WalkSpectrum {
  /// Second-largest eigenvalue lambda_2(P).
  double lambda2;
  /// Spectral gap 1 - lambda_2(P).
  double gap;
};

/// lambda_2 of the lazy walk matrix: sparse Lanczos on S with sqrt(pi)
/// deflated.
WalkSpectrum lazy_walk_spectrum(const Graph& graph);

/// Right eigenvector f_2 of P for lambda_2, normalised under the
/// pi-weighted inner product <f,f>_pi = 1 (dense Jacobi on S, O(n^3)).
std::vector<double> lazy_walk_f2(const Graph& graph);

struct LaplacianSpectrum {
  /// Second-smallest eigenvalue lambda_2(L) (algebraic connectivity).
  double lambda2;
};

/// lambda_2 of the Laplacian: sparse Lanczos on L with the all-ones
/// vector deflated.
LaplacianSpectrum laplacian_spectrum(const Graph& graph);

/// Unit eigenvector f_2(L) (dense Jacobi on L, O(n^3)).
std::vector<double> laplacian_f2(const Graph& graph);

}  // namespace opindyn

#endif  // OPINDYN_SPECTRAL_SPECTRA_H
