// Scalar root finding and bracketing searches used throughout the library:
// DRV bisection (supply voltage where SNM reaches zero), minimal defect
// resistance searches, and VTC node solves.
#pragma once

#include <functional>

namespace lpsram {

// Options shared by the scalar root finders.
struct RootFindOptions {
  double x_tolerance = 1e-9;   // absolute tolerance on the argument
  double f_tolerance = 1e-12;  // absolute tolerance on the function value
  int max_iterations = 200;
};

// Result of a root search.
struct RootResult {
  double x = 0.0;       // argument where the root was found
  double f = 0.0;       // residual function value at x
  int iterations = 0;   // iterations used
  bool converged = false;
};

// Classic bisection on [lo, hi]; requires f(lo) and f(hi) of opposite sign
// (throws InvalidArgument otherwise).
RootResult bisect(const std::function<double(double)>& f, double lo, double hi,
                  const RootFindOptions& opts = {});

// Brent's method: bisection robustness with superlinear convergence.
// Requires a sign change on [lo, hi].
RootResult brent(const std::function<double(double)>& f, double lo, double hi,
                 const RootFindOptions& opts = {});

// Finds the smallest x in [lo, hi] (searched on a log scale) for which
// `predicate(x)` is true, assuming the predicate is monotone (false below some
// threshold, true above). Returns hi * 2 if the predicate is false over the
// whole range (caller treats that as "not found"), and lo if it is true
// everywhere. `rel_tolerance` bounds the ratio hi/lo of the final bracket.
// Throws InvalidArgument where check_log_bisection does.
double monotone_threshold_log(const std::function<bool(double)>& predicate,
                              double lo, double hi,
                              double rel_tolerance = 1.02);

// Throws InvalidArgument (naming `who`) unless a log bisection of [lo, hi]
// down to `rel_tolerance` terminates: 0 < lo < hi, lo * lo normal and
// hi * hi finite (so no midpoint sqrt(a * b) under- or overflows), and a
// finite rel_tolerance > 1. At a tolerance of 1 the bracket stops shrinking
// once lo and hi are adjacent doubles, and the loop never ends. Every
// bisection over sqrt(lo * hi) checks this on entry: monotone_threshold_log,
// RegulatorCharacterizer::drf_threshold's probe tree and the cross-cell DRV
// lanes of cell/batch_vtc.
void check_log_bisection(double lo, double hi, double rel_tolerance,
                         const char* who);

}  // namespace lpsram
