// Dense row-major matrix of doubles, for the small exact machinery: the
// Q-chain (n^2 states, so n stays small), the f_2 eigenvectors and the
// Jacobi test oracle.  lambda_2 of large graphs never builds one; it comes
// from the sparse Lanczos solve in lanczos.h.
#ifndef OPINDYN_SPECTRAL_MATRIX_H
#define OPINDYN_SPECTRAL_MATRIX_H

#include <cstdint>
#include <vector>

namespace opindyn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static Matrix identity(std::size_t n);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }

  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  double* row(std::size_t r);
  const double* row(std::size_t r) const;

  bool is_square() const noexcept { return rows_ == cols_; }

  /// Max |a_ij - a_ji|; 0 for exactly symmetric matrices.
  double symmetry_defect() const;

  /// Max |row sum - 1|; 0 for exactly (row-)stochastic matrices.
  double stochasticity_defect() const;

  Matrix transposed() const;
  Matrix multiply(const Matrix& other) const;
  std::vector<double> multiply(const std::vector<double>& v) const;

  /// v^T * this (left multiplication), returns a row vector.
  std::vector<double> left_multiply(const std::vector<double>& v) const;

  /// Frobenius norm of (this - other).
  double frobenius_distance(const Matrix& other) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Euclidean norm, dot product, and normalisation helpers for plain
/// std::vector<double> (kept free functions; ES.1: prefer the standard
/// library, these are the few missing pieces).
double norm2(const std::vector<double>& v);
double dot(const std::vector<double>& a, const std::vector<double>& b);
void scale(std::vector<double>& v, double factor);
void axpy(double alpha, const std::vector<double>& x, std::vector<double>& y);

}  // namespace opindyn

#endif  // OPINDYN_SPECTRAL_MATRIX_H
