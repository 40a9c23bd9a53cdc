#include "linalg/matrix.hpp"

#include <cmath>

namespace amoeba::linalg {

Matrix::Matrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {
  AMOEBA_EXPECTS(rows > 0 && cols > 0);
}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows) {
  AMOEBA_EXPECTS(rows.size() > 0);
  rows_ = rows.size();
  cols_ = rows.begin()->size();
  AMOEBA_EXPECTS(cols_ > 0);
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    AMOEBA_EXPECTS_MSG(r.size() == cols_, "ragged initializer");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n, 0.0);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::column(const std::vector<double>& values) {
  Matrix m(values.size(), 1);
  for (std::size_t i = 0; i < values.size(); ++i) m(i, 0) = values[i];
  return m;
}

Matrix Matrix::transposed() const {
  Matrix out(cols_, rows_);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out(c, r) = (*this)(r, c);
  return out;
}

Matrix Matrix::operator*(const Matrix& rhs) const {
  AMOEBA_EXPECTS_MSG(cols_ == rhs.rows_, "dimension mismatch in product");
  Matrix out(rows_, rhs.cols_, 0.0);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double aik = (*this)(i, k);
      if (aik == 0.0) continue;
      for (std::size_t j = 0; j < rhs.cols_; ++j) {
        out(i, j) += aik * rhs(k, j);
      }
    }
  }
  return out;
}

Matrix Matrix::operator+(const Matrix& rhs) const {
  AMOEBA_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += rhs.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& rhs) const {
  AMOEBA_EXPECTS(rows_ == rhs.rows_ && cols_ == rhs.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= rhs.data_[i];
  return out;
}

Matrix Matrix::operator*(double s) const {
  Matrix out = *this;
  for (auto& x : out.data_) x *= s;
  return out;
}

std::vector<double> Matrix::apply(const std::vector<double>& v) const {
  AMOEBA_EXPECTS(v.size() == cols_);
  std::vector<double> out(rows_, 0.0);
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = 0; c < cols_; ++c) out[r] += (*this)(r, c) * v[c];
  return out;
}

std::vector<double> Matrix::row_vector(std::size_t r) const {
  AMOEBA_EXPECTS(r < rows_);
  return {data_.begin() + static_cast<std::ptrdiff_t>(r * cols_),
          data_.begin() + static_cast<std::ptrdiff_t>((r + 1) * cols_)};
}

std::vector<double> Matrix::col_vector(std::size_t c) const {
  AMOEBA_EXPECTS(c < cols_);
  std::vector<double> out(rows_);
  for (std::size_t r = 0; r < rows_; ++r) out[r] = (*this)(r, c);
  return out;
}

double Matrix::frobenius_norm() const {
  double s = 0.0;
  for (double x : data_) s += x * x;
  return std::sqrt(s);
}

double Matrix::max_abs_diff(const Matrix& a, const Matrix& b) {
  AMOEBA_EXPECTS(a.rows_ == b.rows_ && a.cols_ == b.cols_);
  double m = 0.0;
  for (std::size_t i = 0; i < a.data_.size(); ++i) {
    m = std::max(m, std::abs(a.data_[i] - b.data_[i]));
  }
  return m;
}

bool Matrix::is_symmetric(double tol) const {
  if (!is_square()) return false;
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = r + 1; c < cols_; ++c)
      if (std::abs((*this)(r, c) - (*this)(c, r)) > tol) return false;
  return true;
}

double dot(const std::vector<double>& a, const std::vector<double>& b) {
  AMOEBA_EXPECTS(a.size() == b.size());
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(const std::vector<double>& v) { return std::sqrt(dot(v, v)); }

}  // namespace amoeba::linalg
