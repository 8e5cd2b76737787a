// Sparse linear-algebra kernel for the structure-aware MNA solve path.
//
// Circuit topology is immutable per netlist, so the nonzero pattern of the
// Jacobian is fixed across every Newton iteration of every solve. That lets
// the expensive work happen once: the CSR pattern is built by the stamp plan
// (spice/stamp_plan.hpp), and SparseLu computes its pivot order and fill-in
// pattern on the first factorization, after which each Newton iteration is a
// numeric-only refactor into preallocated storage — zero heap allocations on
// the steady-state path. The dense LU in matrix.hpp remains the fallback and
// the cross-check oracle in tests.
#pragma once

#include <cstddef>
#include <vector>

namespace lpsram {

// Compressed-sparse-row matrix with an immutable nonzero pattern. Values are
// addressed by flat *slot* index (position in the values() array), which is
// what the stamp plans precompute so per-iteration stamping never searches.
class SparseMatrix {
 public:
  SparseMatrix() = default;
  // Pattern: `row_ptr` has dim+1 entries; `cols` holds the column indices of
  // each row's slots in strictly ascending order.
  SparseMatrix(std::size_t dim, std::vector<int> row_ptr, std::vector<int> cols);

  std::size_t dimension() const noexcept { return dim_; }
  std::size_t nnz() const noexcept { return cols_.size(); }

  const std::vector<int>& row_ptr() const noexcept { return row_ptr_; }
  const std::vector<int>& cols() const noexcept { return cols_; }
  std::vector<double>& values() noexcept { return values_; }
  const std::vector<double>& values() const noexcept { return values_; }

  void set_zero() noexcept;
  // Zeroes every stored value in row r (the row becomes numerically zero).
  void zero_row(std::size_t r) noexcept;

  // values = src, then y = A x + c, in a single pass over the pattern. The
  // sparse assembler's per-iteration hot path: reloading the frozen linear
  // base and evaluating the linear residual touch the same slots, so doing
  // both per slot halves the memory traffic of copy-then-multiply. `src`
  // must have nnz() entries, `y` dimension() entries; `c` may be empty
  // (treated as zero).
  void load_multiply_add(const std::vector<double>& src,
                         const std::vector<double>& x,
                         const std::vector<double>& c,
                         std::vector<double>& y) noexcept;

 private:
  std::size_t dim_ = 0;
  std::vector<int> row_ptr_;
  std::vector<int> cols_;
  std::vector<double> values_;
};

// Reusable sparse LU (row-permuted Doolittle). The first factor() call runs
// the *analysis*: threshold pivoting with a Markowitz row-count tie-break
// picks the row order, and symbolic elimination computes the fill-in pattern
// of L+U — both a function of the structural pattern plus the first numeric
// values, computed once. Subsequent factor() calls are numeric-only
// refactors into the preallocated pattern with no heap allocation; if a
// pivot degrades numerically (values drifted far from the analyzed point),
// the analysis is redone automatically. Throws ConvergenceError when the
// matrix is singular, matching the dense LuSolver contract.
class SparseLu {
 public:
  // Absolute singularity floor, matching the dense LuSolver, and the
  // staleness limit for a reused pivot order (see refactor()). Public so
  // SparseLuLanes applies the identical per-lane acceptance tests.
  static constexpr double kSingularFloor = 1e-300;
  static constexpr double kPivotDriftLimit = 1e8;

  SparseLu() = default;

  // Factorizes `a`. Cheap numeric refactor when the pattern matches the last
  // analysis; full re-analysis otherwise (first call, new pattern, or pivot
  // breakdown). Throws ConvergenceError if singular.
  void factor(const SparseMatrix& a);

  // Solves A x = b using the last factor(). `x` is resized to the dimension.
  void solve(const std::vector<double>& b, std::vector<double>& x) const;

  // One step of iterative refinement applied to a solution `x` of A x = b
  // (as produced by solve()), against the exact matrix `a` (the one passed
  // to the last factor()): r = b - A x, x += A^{-1} r. On the badly scaled
  // MNA systems this library sees (condition numbers to ~1e12 when a
  // near-open defect meets gmin), the refinement buys back the digits the
  // threshold-Markowitz ordering gives up relative to dense partial
  // pivoting, keeping the Newton dx noise floor below the solver's 1e-9 V
  // convergence tolerance. Zero heap allocations after analysis.
  void refine_step(const SparseMatrix& a, const std::vector<double>& b,
                   std::vector<double>& x) const;

  bool analyzed() const noexcept { return n_ > 0; }

 private:
  // SparseLuLanes (util/sparse_lanes.hpp) adopts the compiled refactor
  // program verbatim to run many same-pattern factorizations in lockstep.
  friend class SparseLuLanes;

  void analyze(const SparseMatrix& a);
  bool refactor(const SparseMatrix& a, bool strict);
  bool pattern_matches(const SparseMatrix& a) const noexcept;

  std::size_t n_ = 0;
  // Row permutation: factored row i comes from original row perm_[i].
  std::vector<std::size_t> perm_;
  // Column permutation: factored column j is original column cperm_[j].
  // Chosen by the full (row and column) threshold-Markowitz analysis; row
  // pivoting alone leaves the MNA branch rows' fixed column positions to
  // generate fill that a column swap avoids entirely.
  std::vector<std::size_t> cperm_;
  // Combined L+U pattern, row-major; cols ascending. diag_slot_[i] indexes
  // the U(i,i) slot inside row i.
  std::vector<int> lu_row_ptr_;
  std::vector<int> lu_cols_;
  std::vector<double> lu_vals_;
  std::vector<int> diag_slot_;
  std::vector<double> inv_diag_;
  // |pivot| per row as recorded by the refactor immediately after analysis —
  // the baseline the strict-mode staleness guard compares against.
  std::vector<double> analyzed_pivot_mag_;
  // Structural fingerprint of the analyzed input pattern.
  std::vector<int> a_row_ptr_;
  std::vector<int> a_cols_;
  // Compiled refactorization program, emitted by analyze(). Because the
  // pivot order and fill pattern are fixed until the next analysis, the
  // entire numeric elimination is a *static* sequence of slot-indexed
  // operations; recording it once turns every refactor into flat walks
  // over these arrays — no scatter/gather through a scratch row, no
  // column searches, no branches beyond the pivot check.
  //   load_src_[s]  : A slot feeding LU slot s, or -1 for a fill slot
  //                   (loaded as zero).
  //   per lower slot e (global order: row-major, columns ascending):
  //     elim_ls_[e] : the L slot being normalized (divided by its pivot),
  //     elim_k_[e]  : the pivot row supplying inv_diag,
  //     mul ops [elim_mul_end_[e-1], elim_mul_end_[e]):
  //       lu_vals_[mul_dst_[m]] -= L * lu_vals_[mul_src_[m]]
  //   row_elim_end_[i] : end of row i's lower slots in the elim arrays.
  std::vector<int> load_src_;
  // load_src_ collapsed into contiguous (dst, src, len) runs plus the list
  // of fill slots to zero — with a fill-free order the load phase is one
  // memcpy per row instead of nnz indexed gathers.
  std::vector<int> load_run_dst_;
  std::vector<int> load_run_src_;
  std::vector<int> load_run_len_;
  std::vector<int> fill_slots_;
  std::vector<int> row_elim_end_;
  std::vector<int> elim_ls_;
  std::vector<int> elim_k_;
  std::vector<int> elim_mul_end_;
  std::vector<int> mul_dst_;
  std::vector<int> mul_src_;
  // Scratch for solve's permuted intermediate (allocated at analysis).
  mutable std::vector<double> work_;
  // Scratch for refine_step's residual and correction (ditto).
  mutable std::vector<double> refine_r_;
  mutable std::vector<double> refine_e_;
};

}  // namespace lpsram
