#include "lpsram/util/sparse.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <string>

#include "lpsram/util/error.hpp"

namespace lpsram {
namespace {

// Relative acceptance band for the threshold pivot choice: any candidate
// within this factor of the column maximum is numerically acceptable, and
// the Markowitz tie-break picks the sparsest acceptable row.
constexpr double kPivotThreshold = 0.1;
// Singularity floor and the pivot-staleness limit live on the class (shared
// with SparseLuLanes). The drift guard is deliberately NOT an intra-row
// growth test — MNA rows legitimately span ~12 decades (gmin diagonals next
// to unit branch couplings), so comparing a pivot against its own row
// re-analyzes on every Newton value swing and costs more than it protects.
constexpr double kSingularFloor = SparseLu::kSingularFloor;
constexpr double kPivotDriftLimit = SparseLu::kPivotDriftLimit;

}  // namespace

SparseMatrix::SparseMatrix(std::size_t dim, std::vector<int> row_ptr,
                           std::vector<int> cols)
    : dim_(dim), row_ptr_(std::move(row_ptr)), cols_(std::move(cols)) {
  if (row_ptr_.size() != dim_ + 1 ||
      static_cast<std::size_t>(row_ptr_.back()) != cols_.size())
    throw InvalidArgument("SparseMatrix: malformed CSR pattern");
  values_.assign(cols_.size(), 0.0);
}

void SparseMatrix::set_zero() noexcept {
  std::fill(values_.begin(), values_.end(), 0.0);
}

void SparseMatrix::zero_row(std::size_t r) noexcept {
  if (r >= dim_) return;
  for (int s = row_ptr_[r]; s < row_ptr_[r + 1]; ++s)
    values_[static_cast<std::size_t>(s)] = 0.0;
}

void SparseMatrix::load_multiply_add(const std::vector<double>& src,
                                     const std::vector<double>& x,
                                     const std::vector<double>& c,
                                     std::vector<double>& y) noexcept {
  for (std::size_t r = 0; r < dim_; ++r) {
    double acc = c.empty() ? 0.0 : c[r];
    for (int s = row_ptr_[r]; s < row_ptr_[r + 1]; ++s) {
      const double v = src[static_cast<std::size_t>(s)];
      values_[static_cast<std::size_t>(s)] = v;
      acc += v * x[static_cast<std::size_t>(cols_[static_cast<std::size_t>(s)])];
    }
    y[r] = acc;
  }
}

bool SparseLu::pattern_matches(const SparseMatrix& a) const noexcept {
  return a.dimension() == n_ && a.row_ptr() == a_row_ptr_ &&
         a.cols() == a_cols_;
}

void SparseLu::factor(const SparseMatrix& a) {
  if (!analyzed() || !pattern_matches(a)) {
    analyze(a);
    if (!refactor(a, /*strict=*/false))
      throw ConvergenceError("SparseLu: singular matrix (refactor failed "
                             "immediately after analysis)");
    return;
  }
  if (refactor(a, /*strict=*/true)) return;
  // Pivot breakdown: a pivot either went singular or collapsed far below
  // its analysis-time magnitude (see kPivotDriftLimit) — the recorded order
  // lost stability for the current values. Re-pivot for them; the fresh
  // ordering is accepted leniently (only a true singular pivot fails) and
  // its pivot magnitudes become the new drift baselines, matching the dense
  // LuSolver contract, whose partial pivoting likewise takes whatever the
  // column offers.
  analyze(a);
  if (!refactor(a, /*strict=*/false))
    throw ConvergenceError("SparseLu: singular matrix (pivot breakdown "
                           "persists after re-analysis)");
}

void SparseLu::analyze(const SparseMatrix& a) {
  const std::size_t n = a.dimension();
  n_ = 0;  // invalidated until the analysis completes (it may throw)
  a_row_ptr_ = a.row_ptr();
  a_cols_ = a.cols();

  // Dense numeric shadow (for pivot choice) plus a structural mask carried
  // through the same elimination. The mask is a superset of every numeric
  // nonzero any future value set can produce on this pattern, so the fill
  // pattern recorded from it is safe for all refactors. n is tens-to-low-
  // hundreds here, so the dense O(n^3) analysis is cheap and runs once per
  // topology epoch.
  std::vector<double> d(n * n, 0.0);
  std::vector<char> mask(n * n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    for (int s = a.row_ptr()[r]; s < a.row_ptr()[r + 1]; ++s) {
      const std::size_t c =
          static_cast<std::size_t>(a.cols()[static_cast<std::size_t>(s)]);
      d[r * n + c] = a.values()[static_cast<std::size_t>(s)];
      mask[r * n + c] = 1;
    }
  }

  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  cperm_.resize(n);
  std::iota(cperm_.begin(), cperm_.end(), std::size_t{0});

  std::vector<std::size_t> row_count(n, 0);
  std::vector<std::size_t> col_count(n, 0);
  std::vector<double> col_max(n, 0.0);

  for (std::size_t k = 0; k < n; ++k) {
    // Full threshold-Markowitz pivot choice over the active submatrix:
    // among entries within kPivotThreshold of their column maximum, pick
    // the one minimizing (r_i - 1)(c_j - 1) — the classic bound on the
    // fill one elimination step can create. Permuting columns as well as
    // rows matters here: MNA branch rows pin large off-diagonal entries at
    // fixed column positions, and row pivoting alone turns those into
    // long fill-generating rows.
    std::fill(row_count.begin() + static_cast<std::ptrdiff_t>(k),
              row_count.end(), 0);
    std::fill(col_count.begin() + static_cast<std::ptrdiff_t>(k),
              col_count.end(), 0);
    std::fill(col_max.begin() + static_cast<std::ptrdiff_t>(k), col_max.end(),
              0.0);
    for (std::size_t i = k; i < n; ++i) {
      for (std::size_t j = k; j < n; ++j) {
        if (!mask[i * n + j]) continue;
        ++row_count[i];
        ++col_count[j];
        col_max[j] = std::max(col_max[j], std::fabs(d[i * n + j]));
      }
    }
    std::size_t pivot_row = n;
    std::size_t pivot_col = n;
    std::size_t best_cost = std::numeric_limits<std::size_t>::max();
    for (std::size_t j = k; j < n; ++j) {
      if (!(col_max[j] >= kSingularFloor)) continue;
      const double accept = kPivotThreshold * col_max[j];
      for (std::size_t i = k; i < n; ++i) {
        if (!mask[i * n + j]) continue;
        if (std::fabs(d[i * n + j]) < accept) continue;
        const std::size_t cost = (row_count[i] - 1) * (col_count[j] - 1);
        if (cost < best_cost) {
          best_cost = cost;
          pivot_row = i;
          pivot_col = j;
        }
      }
    }
    if (pivot_row == n)
      throw ConvergenceError("SparseLu: singular matrix at step " +
                             std::to_string(k));
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) {
        std::swap(d[k * n + c], d[pivot_row * n + c]);
        std::swap(mask[k * n + c], mask[pivot_row * n + c]);
      }
      std::swap(perm_[k], perm_[pivot_row]);
    }
    if (pivot_col != k) {
      for (std::size_t r = 0; r < n; ++r) {
        std::swap(d[r * n + k], d[r * n + pivot_col]);
        std::swap(mask[r * n + k], mask[r * n + pivot_col]);
      }
      std::swap(cperm_[k], cperm_[pivot_col]);
    }
    const double inv_pivot = 1.0 / d[k * n + k];
    for (std::size_t i = k + 1; i < n; ++i) {
      // Elimination follows the *structural* mask, not the numeric value:
      // a slot that happens to hold zero now (say a device stamp that is
      // off at this operating point) can be nonzero at the next refactor,
      // and its fill must already be in the recorded pattern.
      if (!mask[i * n + k]) continue;
      const double factor = d[i * n + k] * inv_pivot;
      d[i * n + k] = factor;
      for (std::size_t c = k + 1; c < n; ++c) {
        if (!mask[k * n + c]) continue;
        d[i * n + c] -= factor * d[k * n + c];
        mask[i * n + c] = 1;
      }
    }
  }
  // Record the combined L+U pattern row-major with ascending columns.
  lu_row_ptr_.assign(n + 1, 0);
  lu_cols_.clear();
  diag_slot_.assign(n, -1);
  for (std::size_t i = 0; i < n; ++i) {
    lu_row_ptr_[i] = static_cast<int>(lu_cols_.size());
    for (std::size_t c = 0; c < n; ++c) {
      if (!mask[i * n + c]) continue;
      if (c == i) diag_slot_[i] = static_cast<int>(lu_cols_.size());
      lu_cols_.push_back(static_cast<int>(c));
    }
    if (diag_slot_[i] < 0)
      throw ConvergenceError("SparseLu: structurally singular row " +
                             std::to_string(i));
  }
  lu_row_ptr_[n] = static_cast<int>(lu_cols_.size());

  // Compile the refactorization program (see the header). The pivot order
  // and fill pattern are now fixed, so every future numeric refactor runs
  // the exact same sequence of slot operations — record that sequence once
  // and the refactor becomes flat array walks with no scratch row, no
  // column searches and no per-entry branching.
  //
  // Load map: LU entry (i, j) holds A(perm_[i], cperm_[j]); pair each LU
  // slot with its A source slot via a per-row column lookup (fill slots,
  // absent from A, get -1 and load as zero).
  load_src_.assign(lu_cols_.size(), -1);
  {
    std::vector<int> slot_of_col(n, -1);
    for (std::size_t i = 0; i < n; ++i) {
      const std::size_t src = perm_[i];
      for (int s = a_row_ptr_[src]; s < a_row_ptr_[src + 1]; ++s)
        slot_of_col[static_cast<std::size_t>(
            a_cols_[static_cast<std::size_t>(s)])] = s;
      for (int s = lu_row_ptr_[i]; s < lu_row_ptr_[i + 1]; ++s)
        load_src_[static_cast<std::size_t>(s)] = slot_of_col[cperm_[
            static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(s)])]];
      for (int s = a_row_ptr_[src]; s < a_row_ptr_[src + 1]; ++s)
        slot_of_col[static_cast<std::size_t>(
            a_cols_[static_cast<std::size_t>(s)])] = -1;
    }
  }
  // Collapse the load map into contiguous runs. CSR stores each row's
  // slots adjacently in both matrices, so a fill-free row is a single run;
  // genuine fill slots go on a (usually empty) zero list.
  load_run_dst_.clear();
  load_run_src_.clear();
  load_run_len_.clear();
  fill_slots_.clear();
  for (std::size_t s = 0; s < load_src_.size(); ++s) {
    const int src = load_src_[s];
    if (src < 0) {
      fill_slots_.push_back(static_cast<int>(s));
      continue;
    }
    if (!load_run_len_.empty() &&
        load_run_dst_.back() + load_run_len_.back() == static_cast<int>(s) &&
        load_run_src_.back() + load_run_len_.back() == src) {
      ++load_run_len_.back();
    } else {
      load_run_dst_.push_back(static_cast<int>(s));
      load_run_src_.push_back(src);
      load_run_len_.push_back(1);
    }
  }

  // Elimination ops: for each lower slot (row-major, columns ascending —
  // the order the up-looking elimination requires), the pivot-row U slots
  // it combines with and the row-i slots those updates land in. Every
  // target exists by construction: the symbolic elimination above already
  // put all fill in the pattern.
  row_elim_end_.assign(n, 0);
  elim_ls_.clear();
  elim_k_.clear();
  elim_mul_end_.clear();
  mul_dst_.clear();
  mul_src_.clear();
  {
    std::vector<int> slot_of(n, -1);  // column -> slot within the open row
    for (std::size_t i = 0; i < n; ++i) {
      for (int s = lu_row_ptr_[i]; s < lu_row_ptr_[i + 1]; ++s)
        slot_of[static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(s)])] =
            s;
      for (int s = lu_row_ptr_[i]; s < diag_slot_[i]; ++s) {
        const std::size_t k =
            static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(s)]);
        elim_ls_.push_back(s);
        elim_k_.push_back(static_cast<int>(k));
        for (int t = diag_slot_[k] + 1; t < lu_row_ptr_[k + 1]; ++t) {
          mul_dst_.push_back(
              slot_of[static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(t)])]);
          mul_src_.push_back(t);
        }
        elim_mul_end_.push_back(static_cast<int>(mul_dst_.size()));
      }
      row_elim_end_[i] = static_cast<int>(elim_ls_.size());
      for (int s = lu_row_ptr_[i]; s < lu_row_ptr_[i + 1]; ++s)
        slot_of[static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(s)])] =
            -1;
    }
  }

  lu_vals_.assign(lu_cols_.size(), 0.0);
  inv_diag_.assign(n, 0.0);
  analyzed_pivot_mag_.assign(n, 0.0);
  work_.assign(n, 0.0);
  refine_r_.assign(n, 0.0);
  refine_e_.assign(n, 0.0);
  n_ = n;  // analysis complete — factorization state is valid again
}

bool SparseLu::refactor(const SparseMatrix& a, bool strict) {
  const std::size_t n = n_;

  // Run the compiled program (see analyze): load every LU slot straight
  // from its A source slot, then replay the recorded elimination sequence
  // in place. All updates land directly in lu_vals_, so the L part of each
  // row is exactly the running partially-eliminated value the up-looking
  // algorithm needs — no scratch row.
  const std::vector<double>& avals = a.values();
  for (std::size_t r = 0; r < load_run_dst_.size(); ++r)
    std::memcpy(&lu_vals_[static_cast<std::size_t>(load_run_dst_[r])],
                &avals[static_cast<std::size_t>(load_run_src_[r])],
                static_cast<std::size_t>(load_run_len_[r]) * sizeof(double));
  for (const int s : fill_slots_) lu_vals_[static_cast<std::size_t>(s)] = 0.0;

  int e = 0;
  int m = 0;
  for (std::size_t i = 0; i < n; ++i) {
    for (const int e_end = row_elim_end_[i]; e < e_end; ++e) {
      const std::size_t ls = static_cast<std::size_t>(elim_ls_[e]);
      const double factor =
          lu_vals_[ls] * inv_diag_[static_cast<std::size_t>(elim_k_[e])];
      lu_vals_[ls] = factor;
      for (const int m_end = elim_mul_end_[e]; m < m_end; ++m)
        lu_vals_[static_cast<std::size_t>(mul_dst_[m])] -=
            factor * lu_vals_[static_cast<std::size_t>(mul_src_[m])];
    }

    const double pivot = lu_vals_[static_cast<std::size_t>(diag_slot_[i])];
    const double pivot_mag = std::fabs(pivot);
    if (!(pivot_mag >= kSingularFloor))
      return false;  // singular: caller re-analyzes, then gives up
    if (strict) {
      // Stale-ordering guard: the pivot collapsed by kPivotDriftLimit
      // relative to its magnitude when this order was chosen — the values
      // have left the ordering's stability region; ask the caller to
      // re-pivot. Pivots growing, or Newton's routine few-decade swings,
      // pass without forcing an O(n^3) re-analysis.
      if (pivot_mag * kPivotDriftLimit <
          analyzed_pivot_mag_[static_cast<std::size_t>(i)])
        return false;
    } else {
      // Fresh from analyze(): record the baseline the guard compares with.
      analyzed_pivot_mag_[static_cast<std::size_t>(i)] = pivot_mag;
    }
    inv_diag_[i] = 1.0 / pivot;
  }
  return true;
}

void SparseLu::solve(const std::vector<double>& b,
                     std::vector<double>& x) const {
  const std::size_t n = n_;
  if (b.size() != n) throw InvalidArgument("SparseLu::solve: size mismatch");
  x.resize(n);
  // Substitute in the factor's (row- and column-) permuted space, then
  // scatter back through the column permutation.
  std::vector<double>& w = work_;
  for (std::size_t i = 0; i < n; ++i) w[i] = b[perm_[i]];

  for (std::size_t i = 1; i < n; ++i) {
    double acc = w[i];
    for (int s = lu_row_ptr_[i]; s < diag_slot_[i]; ++s)
      acc -= lu_vals_[static_cast<std::size_t>(s)] *
             w[static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(s)])];
    w[i] = acc;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    double acc = w[ii];
    for (int s = diag_slot_[ii] + 1; s < lu_row_ptr_[ii + 1]; ++s)
      acc -= lu_vals_[static_cast<std::size_t>(s)] *
             w[static_cast<std::size_t>(lu_cols_[static_cast<std::size_t>(s)])];
    w[ii] = acc * inv_diag_[ii];
  }
  for (std::size_t j = 0; j < n; ++j) x[cperm_[j]] = w[j];
}

void SparseLu::refine_step(const SparseMatrix& a, const std::vector<double>& b,
                           std::vector<double>& x) const {
  const std::size_t n = n_;
  if (a.dimension() != n)
    throw InvalidArgument("SparseLu::refine_step: matrix size mismatch");
  // r = b - A x, against the exact (unfactored) matrix.
  const std::vector<int>& row_ptr = a.row_ptr();
  const std::vector<int>& cols = a.cols();
  const std::vector<double>& vals = a.values();
  for (std::size_t i = 0; i < n; ++i) {
    double acc = b[i];
    for (int s = row_ptr[i]; s < row_ptr[i + 1]; ++s)
      acc -= vals[static_cast<std::size_t>(s)] *
             x[static_cast<std::size_t>(cols[static_cast<std::size_t>(s)])];
    refine_r_[i] = acc;
  }
  solve(refine_r_, refine_e_);
  for (std::size_t i = 0; i < n; ++i) x[i] += refine_e_[i];
}

}  // namespace lpsram
