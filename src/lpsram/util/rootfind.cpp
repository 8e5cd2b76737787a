#include "lpsram/util/rootfind.hpp"

#include <cmath>
#include <string>

#include "lpsram/util/error.hpp"

namespace lpsram {

RootResult bisect(const std::function<double(double)>& f, double lo, double hi,
                  const RootFindOptions& opts) {
  double flo = f(lo);
  double fhi = f(hi);
  RootResult result;
  if (flo == 0.0) return {lo, 0.0, 0, true};
  if (fhi == 0.0) return {hi, 0.0, 0, true};
  if ((flo > 0) == (fhi > 0))
    throw InvalidArgument("bisect: no sign change on the bracket");

  for (int it = 0; it < opts.max_iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    const double fmid = f(mid);
    result.iterations = it + 1;
    if (std::fabs(fmid) <= opts.f_tolerance || (hi - lo) <= opts.x_tolerance) {
      result.x = mid;
      result.f = fmid;
      result.converged = true;
      return result;
    }
    if ((fmid > 0) == (flo > 0)) {
      lo = mid;
      flo = fmid;
    } else {
      hi = mid;
      fhi = fmid;
    }
  }
  result.x = 0.5 * (lo + hi);
  result.f = f(result.x);
  result.converged = false;
  return result;
}

RootResult brent(const std::function<double(double)>& f, double lo, double hi,
                 const RootFindOptions& opts) {
  double a = lo, b = hi;
  double fa = f(a), fb = f(b);
  RootResult result;
  if (fa == 0.0) return {a, 0.0, 0, true};
  if (fb == 0.0) return {b, 0.0, 0, true};
  if ((fa > 0) == (fb > 0))
    throw InvalidArgument("brent: no sign change on the bracket");

  double c = a, fc = fa;
  double d = b - a, e = d;

  for (int it = 0; it < opts.max_iterations; ++it) {
    result.iterations = it + 1;
    if (std::fabs(fc) < std::fabs(fb)) {
      a = b; b = c; c = a;
      fa = fb; fb = fc; fc = fa;
    }
    const double tol = 2.0 * 1e-16 * std::fabs(b) + 0.5 * opts.x_tolerance;
    const double m = 0.5 * (c - b);
    if (std::fabs(m) <= tol || std::fabs(fb) <= opts.f_tolerance) {
      result.x = b;
      result.f = fb;
      result.converged = true;
      return result;
    }
    if (std::fabs(e) < tol || std::fabs(fa) <= std::fabs(fb)) {
      d = m;  // fall back to bisection
      e = m;
    } else {
      double p, q;
      const double s = fb / fa;
      if (a == c) {
        // Secant step.
        p = 2.0 * m * s;
        q = 1.0 - s;
      } else {
        // Inverse quadratic interpolation.
        const double qq = fa / fc;
        const double r = fb / fc;
        p = s * (2.0 * m * qq * (qq - r) - (b - a) * (r - 1.0));
        q = (qq - 1.0) * (r - 1.0) * (s - 1.0);
      }
      if (p > 0) q = -q;
      p = std::fabs(p);
      if (2.0 * p < std::min(3.0 * m * q - std::fabs(tol * q), std::fabs(e * q))) {
        e = d;
        d = p / q;
      } else {
        d = m;
        e = m;
      }
    }
    a = b;
    fa = fb;
    b += (std::fabs(d) > tol) ? d : (m > 0 ? tol : -tol);
    fb = f(b);
    if ((fb > 0) == (fc > 0)) {
      c = a;
      fc = fa;
      d = b - a;
      e = d;
    }
  }
  result.x = b;
  result.f = fb;
  result.converged = false;
  return result;
}

void check_log_bisection(double lo, double hi, double rel_tolerance,
                         const char* who) {
  if (!(lo > 0.0) || !(hi > lo) || !std::isnormal(lo * lo) ||
      !std::isfinite(hi * hi))
    throw InvalidArgument(std::string(who) +
                          ": need 0 < lo < hi with lo*lo normal and hi*hi "
                          "finite");
  if (!(rel_tolerance > 1.0) || !std::isfinite(rel_tolerance))
    throw InvalidArgument(std::string(who) +
                          ": need a finite rel_tolerance > 1");
}

double monotone_threshold_log(const std::function<bool(double)>& predicate,
                              double lo, double hi, double rel_tolerance) {
  check_log_bisection(lo, hi, rel_tolerance, "monotone_threshold_log");
  if (predicate(lo)) return lo;
  if (!predicate(hi)) return hi * 2.0;

  // Invariant: predicate(lo) == false, predicate(hi) == true.
  while (hi / lo > rel_tolerance) {
    const double mid = std::sqrt(lo * hi);
    if (predicate(mid)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  return hi;
}

}  // namespace lpsram
