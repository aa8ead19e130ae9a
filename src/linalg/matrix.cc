#include "linalg/matrix.h"

#include <algorithm>
#include <cstddef>

#include "common/math_util.h"

namespace roicl {

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> rows)
    : rows_(static_cast<int>(rows.size())), cols_(0) {
  if (rows_ == 0) return;
  cols_ = static_cast<int>(rows.begin()->size());
  data_.reserve(static_cast<size_t>(rows_) * static_cast<size_t>(cols_));
  for (const auto& row : rows) {
    ROICL_CHECK_MSG(static_cast<int>(row.size()) == cols_,
                    "ragged initializer list");
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::Identity(int n) {
  Matrix m(n, n);
  for (int i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

std::vector<double> Matrix::Row(int r) const {
  const double* p = RowPtr(r);
  return std::vector<double>(p, p + cols_);
}

std::vector<double> Matrix::Col(int c) const {
  ROICL_CHECK(c >= 0 && c < cols_);
  std::vector<double> out(AsSize(rows_));
  for (int r = 0; r < rows_; ++r) out[AsSize(r)] = (*this)(r, c);
  return out;
}

Matrix Matrix::SelectRows(const std::vector<int>& indices) const {
  Matrix out(static_cast<int>(indices.size()), cols_);
  for (size_t i = 0; i < indices.size(); ++i) {
    int r = indices[i];
    ROICL_CHECK(r >= 0 && r < rows_);
    std::copy(RowPtr(r), RowPtr(r) + cols_, out.RowPtr(static_cast<int>(i)));
  }
  return out;
}

Matrix Matrix::Transposed() const {
  Matrix out(cols_, rows_);
  for (int r = 0; r < rows_; ++r) {
    const double* src = RowPtr(r);
    for (int c = 0; c < cols_; ++c) out(c, r) = src[c];
  }
  return out;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  ROICL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  ROICL_CHECK(rows_ == other.rows_ && cols_ == other.cols_);
  for (size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(double scalar) {
  for (double& v : data_) v *= scalar;
  return *this;
}

void Matrix::AppendRow(const std::vector<double>& row) {
  if (rows_ == 0 && cols_ == 0) {
    cols_ = static_cast<int>(row.size());
  }
  ROICL_CHECK_MSG(static_cast<int>(row.size()) == cols_,
                  "AppendRow size mismatch: %zu vs %d", row.size(), cols_);
  data_.insert(data_.end(), row.begin(), row.end());
  ++rows_;
}

namespace {

// Blocked ikj kernel parameters: kRowTile rows of A are processed per
// inner sweep so each loaded B row is reused kRowTile times from
// registers; kKBlock bounds the B panel touched per sweep so it stays in
// cache. k ascends for every (i, j) regardless of blocking, keeping the
// floating-point accumulation order — and therefore the bits of the
// result — independent of the tiling.
constexpr int kRowTile = 4;
constexpr int kKBlock = 128;

}  // namespace

void MatmulInto(const Matrix& a, const Matrix& b, Matrix* c) {
  ROICL_CHECK(c != nullptr);
  ROICL_CHECK(a.cols() == b.rows());
  ROICL_CHECK(c->rows() == a.rows() && c->cols() == b.cols());
  const int m = a.rows();
  const int k_dim = a.cols();
  const int n = b.cols();
  std::fill(c->data().begin(), c->data().end(), 0.0);
  for (int k0 = 0; k0 < k_dim; k0 += kKBlock) {
    const int k1 = std::min(k_dim, k0 + kKBlock);
    int i = 0;
    for (; i + kRowTile <= m; i += kRowTile) {
      const double* a0 = a.RowPtr(i);
      const double* a1 = a.RowPtr(i + 1);
      const double* a2 = a.RowPtr(i + 2);
      const double* a3 = a.RowPtr(i + 3);
      double* c0 = c->RowPtr(i);
      double* c1 = c->RowPtr(i + 1);
      double* c2 = c->RowPtr(i + 2);
      double* c3 = c->RowPtr(i + 3);
      for (int k = k0; k < k1; ++k) {
        const double* brow = b.RowPtr(k);
        const double a0k = a0[k], a1k = a1[k], a2k = a2[k], a3k = a3[k];
        for (int j = 0; j < n; ++j) {
          const double bj = brow[j];
          c0[j] += a0k * bj;
          c1[j] += a1k * bj;
          c2[j] += a2k * bj;
          c3[j] += a3k * bj;
        }
      }
    }
    for (; i < m; ++i) {
      const double* arow = a.RowPtr(i);
      double* crow = c->RowPtr(i);
      for (int k = k0; k < k1; ++k) {
        const double aik = arow[k];
        const double* brow = b.RowPtr(k);
        for (int j = 0; j < n; ++j) crow[j] += aik * brow[j];
      }
    }
  }
}

Matrix Matmul(const Matrix& a, const Matrix& b) {
  ROICL_CHECK(a.cols() == b.rows());
  Matrix c(a.rows(), b.cols());
  MatmulInto(a, b, &c);
  return c;
}

std::vector<double> Matvec(const Matrix& a, const std::vector<double>& x) {
  ROICL_CHECK(a.cols() == static_cast<int>(x.size()));
  std::vector<double> y(AsSize(a.rows()), 0.0);
  for (int i = 0; i < a.rows(); ++i) {
    const double* row = a.RowPtr(i);
    double acc = 0.0;
    for (int j = 0; j < a.cols(); ++j) acc += row[j] * x[AsSize(j)];
    y[AsSize(i)] = acc;
  }
  return y;
}

double Dot(const std::vector<double>& a, const std::vector<double>& b) {
  ROICL_CHECK(a.size() == b.size());
  double acc = 0.0;
  for (size_t i = 0; i < a.size(); ++i) acc += a[i] * b[i];
  return acc;
}

std::vector<double> ColumnSums(const Matrix& a) {
  std::vector<double> sums(AsSize(a.cols()), 0.0);
  for (int r = 0; r < a.rows(); ++r) {
    const double* row = a.RowPtr(r);
    for (int c = 0; c < a.cols(); ++c) sums[AsSize(c)] += row[c];
  }
  return sums;
}

Matrix HStack(const Matrix& a, const Matrix& b) {
  ROICL_CHECK(a.rows() == b.rows());
  Matrix out(a.rows(), a.cols() + b.cols());
  for (int r = 0; r < a.rows(); ++r) {
    std::copy(a.RowPtr(r), a.RowPtr(r) + a.cols(), out.RowPtr(r));
    std::copy(b.RowPtr(r), b.RowPtr(r) + b.cols(), out.RowPtr(r) + a.cols());
  }
  return out;
}

Matrix VStack(const Matrix& a, const Matrix& b) {
  if (a.rows() == 0) return b;
  if (b.rows() == 0) return a;
  ROICL_CHECK(a.cols() == b.cols());
  Matrix out(a.rows() + b.rows(), a.cols());
  std::copy(a.data().begin(), a.data().end(), out.data().begin());
  std::copy(b.data().begin(), b.data().end(),
            out.data().begin() + static_cast<ptrdiff_t>(a.data().size()));
  return out;
}

}  // namespace roicl
