#ifndef ROICL_LINALG_MATRIX_H_
#define ROICL_LINALG_MATRIX_H_

#include <cstddef>
#include <initializer_list>
#include <vector>

#include "common/macros.h"

namespace roicl {

/// Dense row-major matrix of doubles. The workhorse container for feature
/// matrices and neural-network activations. Copyable and movable.
class Matrix {
 public:
  Matrix() : rows_(0), cols_(0) {}

  /// Creates a rows x cols matrix filled with `fill`.
  Matrix(int rows, int cols, double fill = 0.0)
      : rows_(rows), cols_(cols),
        data_(static_cast<size_t>(rows) * static_cast<size_t>(cols), fill) {
    ROICL_CHECK(rows >= 0 && cols >= 0);
  }

  /// Creates a matrix from nested initializer lists (row major); all rows
  /// must have equal length. Intended for tests and small fixtures.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  /// Identity matrix of size n.
  [[nodiscard]] static Matrix Identity(int n);

  [[nodiscard]] int rows() const { return rows_; }
  [[nodiscard]] int cols() const { return cols_; }
  [[nodiscard]] size_t size() const { return data_.size(); }
  [[nodiscard]] bool empty() const { return data_.empty(); }

  double& operator()(int r, int c) {
    ROICL_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[Index(r, c)];
  }
  double operator()(int r, int c) const {
    ROICL_DCHECK(r >= 0 && r < rows_ && c >= 0 && c < cols_);
    return data_[Index(r, c)];
  }

  /// Raw row pointer (row-major storage).
  double* RowPtr(int r) {
    ROICL_DCHECK(r >= 0 && r < rows_);
    return data_.data() + Index(r, 0);
  }
  const double* RowPtr(int r) const {
    ROICL_DCHECK(r >= 0 && r < rows_);
    return data_.data() + Index(r, 0);
  }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// Copies row r into a vector.
  [[nodiscard]] std::vector<double> Row(int r) const;

  /// Copies column c into a vector.
  [[nodiscard]] std::vector<double> Col(int c) const;

  /// Returns a new matrix holding the given subset of rows, in order.
  [[nodiscard]] Matrix SelectRows(const std::vector<int>& indices) const;

  /// Returns the transpose.
  [[nodiscard]] Matrix Transposed() const;

  /// Element-wise in-place operations.
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);
  Matrix& operator*=(double scalar);

  /// Appends a row (must match cols(), or set cols on first row).
  void AppendRow(const std::vector<double>& row);

 private:
  size_t Index(int r, int c) const {
    return static_cast<size_t>(r) * static_cast<size_t>(cols_) +
           static_cast<size_t>(c);
  }

  int rows_;
  int cols_;
  std::vector<double> data_;
};

/// C = A * B. Requires A.cols() == B.rows().
///
/// Blocked register-tiled ikj kernel: a panel of A rows shares each loaded
/// B row, and k is blocked so the active B panel stays cache-resident. For
/// every output element the k-accumulation order is plain ascending k, so
/// the result is bit-identical for any row partition of A — the invariant
/// the batched prediction engine's determinism tests rely on.
[[nodiscard]] Matrix Matmul(const Matrix& a, const Matrix& b);

/// Matmul variant writing into a preallocated output (overwrites `c`).
/// Avoids the allocation on hot batched-forward paths. `c` must already
/// have shape a.rows() x b.cols().
void MatmulInto(const Matrix& a, const Matrix& b, Matrix* c);

/// y = A * x for a column vector x (size A.cols()).
[[nodiscard]] std::vector<double> Matvec(const Matrix& a,
                                         const std::vector<double>& x);

/// Dot product of equal-length vectors.
[[nodiscard]] double Dot(const std::vector<double>& a,
                         const std::vector<double>& b);

/// Sum over rows: returns a vector of length a.cols().
[[nodiscard]] std::vector<double> ColumnSums(const Matrix& a);

/// Horizontal concatenation [a | b]; row counts must match.
[[nodiscard]] Matrix HStack(const Matrix& a, const Matrix& b);

/// Vertical concatenation; column counts must match.
[[nodiscard]] Matrix VStack(const Matrix& a, const Matrix& b);

}  // namespace roicl

#endif  // ROICL_LINALG_MATRIX_H_
