// Seeded GEMM operands and their golden rows from the per-dot route
// (M3xuEngine::gemm_fp32 / gemm_fp32c), the bitwise reference every
// timed output is checked against outside the timed region.
#pragma once

#include <algorithm>
#include <complex>
#include <cstring>
#include <set>
#include <vector>

#include "common/rng.hpp"
#include "core/mxu.hpp"
#include "gemm/matrix.hpp"

namespace perfbench {

using cf = std::complex<float>;

/// One output row through the per-dot route: c[0..n) += a[0..k) * B.
inline void perdot_row(const m3xu::core::M3xuEngine& e, int n, int k,
                       const float* a, const float* b, float* c) {
  e.gemm_fp32(1, n, k, a, k, b, n, c, n);
}
inline void perdot_row(const m3xu::core::M3xuEngine& e, int n, int k,
                       const cf* a, const cf* b, cf* c) {
  e.gemm_fp32c(1, n, k, a, k, b, n, c, n);
}

/// One GEMM's inputs, the rows checked against the per-dot route, and
/// those rows' golden bits.
template <typename T>
struct Operand {
  m3xu::gemm::Matrix<T> a, b, c0;
  std::vector<int> rows;
  std::vector<T> golden;  // rows.size() x n, row-major
};

template <typename T>
Operand<T> make_operand(int m, int n, int k, int verify_rows,
                        m3xu::Rng& rng) {
  using M = m3xu::gemm::Matrix<T>;
  Operand<T> op{M(m, k), M(k, n), M(m, n), {}, {}};
  m3xu::gemm::fill_random(op.a, rng);
  m3xu::gemm::fill_random(op.b, rng);
  m3xu::gemm::fill_random(op.c0, rng);
  // The last row always (it sits in the bottom edge strip when m is not
  // a multiple of the register block), then distinct seeded rows.
  std::set<int> rows{m - 1};
  while (static_cast<int>(rows.size()) < std::min(verify_rows, m)) {
    rows.insert(
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(m))));
  }
  op.rows.assign(rows.begin(), rows.end());
  op.golden.resize(op.rows.size() * static_cast<std::size_t>(n));
  return op;
}

/// Computes golden row `r` (of op.rows) through the per-dot route
/// (M3xuEngine::gemm_fp32 / gemm_fp32c).
template <typename T>
void golden_row(const m3xu::core::M3xuEngine& e, Operand<T>& op,
                std::size_t r) {
  const int n = op.b.cols(), k = op.a.cols();
  const int i = op.rows[r];
  T* out = op.golden.data() + r * static_cast<std::size_t>(n);
  std::memcpy(out, &op.c0(i, 0), sizeof(T) * static_cast<std::size_t>(n));
  perdot_row(e, n, k, &op.a(i, 0), op.b.data(), out);
}

template <typename T>
bool rows_match(const m3xu::gemm::Matrix<T>& c, const Operand<T>& op) {
  const std::size_t n = static_cast<std::size_t>(c.cols());
  for (std::size_t r = 0; r < op.rows.size(); ++r) {
    if (std::memcmp(&c(op.rows[r], 0), op.golden.data() + r * n,
                    sizeof(T) * n) != 0) {
      return false;
    }
  }
  return true;
}

template <typename T>
bool same_bits(const m3xu::gemm::Matrix<T>& x,
               const m3xu::gemm::Matrix<T>& y) {
  return x.size() == y.size() &&
         std::memcmp(x.data(), y.data(), sizeof(T) * x.size()) == 0;
}

inline double real_macs(int m, int n, int k, bool cplx) {
  return static_cast<double>(m) * n * k * (cplx ? 4.0 : 1.0);
}
inline double useful_flops(int m, int n, int k, bool cplx) {
  return static_cast<double>(m) * n * k * (cplx ? 8.0 : 2.0);
}

}  // namespace perfbench
