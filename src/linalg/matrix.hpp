// Small dense row-major matrix. Sized for the monitor's PCA problems
// (3-10 dimensions, hundreds of samples). Element access is inline and
// bounds-checked; the PCR refit's inner loops (linalg/pca.cpp) run over
// rows through MatrixView instead of building temporaries, and keep the
// summation order of the plain loops so results stay bit-exact.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/assert.hpp"

namespace amoeba::linalg {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0);
  /// Construct from nested initializer lists (rows of equal length).
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  [[nodiscard]] static Matrix identity(std::size_t n);
  /// Column vector from values.
  [[nodiscard]] static Matrix column(const std::vector<double>& values);

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double& operator()(std::size_t r, std::size_t c) {
    AMOEBA_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    AMOEBA_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  [[nodiscard]] Matrix transposed() const;
  [[nodiscard]] Matrix operator*(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator+(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator-(const Matrix& rhs) const;
  [[nodiscard]] Matrix operator*(double s) const;

  /// Matrix * vector.
  [[nodiscard]] std::vector<double> apply(const std::vector<double>& v) const;

  [[nodiscard]] std::vector<double> row_vector(std::size_t r) const;
  [[nodiscard]] std::vector<double> col_vector(std::size_t c) const;

  /// Frobenius norm.
  [[nodiscard]] double frobenius_norm() const;

  /// Max |a_ij - b_ij|.
  [[nodiscard]] static double max_abs_diff(const Matrix& a, const Matrix& b);

  [[nodiscard]] bool is_square() const noexcept { return rows_ == cols_; }
  /// True if max |a_ij - a_ji| <= tol.
  [[nodiscard]] bool is_symmetric(double tol = 1e-12) const;

  [[nodiscard]] const std::vector<double>& data() const noexcept {
    return data_;
  }

 private:
  std::size_t rows_ = 0, cols_ = 0;
  std::vector<double> data_;
};

/// Read-only view of a row-major rows×cols block owned elsewhere: a Matrix,
/// or a caller's buffer such as the weight estimator's sliding window. The
/// owner must outlive the view.
class MatrixView {
 public:
  MatrixView(const double* data, std::size_t rows, std::size_t cols)
      : data_(data), rows_(rows), cols_(cols) {
    AMOEBA_EXPECTS(data != nullptr && rows > 0 && cols > 0);
  }
  // Implicit, so every Matrix argument also binds to a view parameter.
  MatrixView(const Matrix& m) noexcept  // NOLINT(google-explicit-constructor)
      : data_(m.data().data()), rows_(m.rows()), cols_(m.cols()) {}

  [[nodiscard]] std::size_t rows() const noexcept { return rows_; }
  [[nodiscard]] std::size_t cols() const noexcept { return cols_; }

  [[nodiscard]] double operator()(std::size_t r, std::size_t c) const {
    AMOEBA_EXPECTS(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  /// The cols() contiguous values of row r.
  [[nodiscard]] const double* row(std::size_t r) const {
    AMOEBA_EXPECTS(r < rows_);
    return data_ + r * cols_;
  }

 private:
  const double* data_;
  std::size_t rows_, cols_;
};

/// Dot product of equal-length vectors.
[[nodiscard]] double dot(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Euclidean norm.
[[nodiscard]] double norm2(const std::vector<double>& v);

}  // namespace amoeba::linalg
