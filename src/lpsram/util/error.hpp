// Library error types. All lpsram errors derive from lpsram::Error so callers
// can catch the whole family with one handler.
#pragma once

#include <stdexcept>
#include <string>
#include <utility>

namespace lpsram {

// Base class for all errors thrown by the lpsram library.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

// Thrown when an iterative numerical method fails to converge.
class ConvergenceError : public Error {
 public:
  explicit ConvergenceError(const std::string& what) : Error(what) {}
};

// Diagnostic context attached to solve-layer failures so sweep drivers can
// quarantine a point with an actionable record instead of a bare message.
struct SolveFailureInfo {
  int attempts = 0;           // retry-ladder attempts consumed
  int iterations = 0;         // Newton iterations across all attempts
  double worst_residual = 0.0;  // max |KCL residual| at the best estimate [A]
  std::string worst_node;     // node carrying the worst residual
  std::string strategies;     // comma-separated list of strategies tried
  // True when any Newton attempt produced a non-finite residual or step —
  // distinguishes genuine divergence / injected NaN faults from a solve
  // that merely stalled short of tolerance.
  bool non_finite = false;
  // True when the solve was cut off by a CancelToken (SolveTimeout).
  bool cancelled = false;
};

// Thrown by DcSolver when every Newton strategy (plain, gmin stepping,
// source stepping, damped) fails at one operating point. Carries the
// failure diagnostics — including the non_finite flag — so the retry
// ladder and quarantine records can tell divergence from a stall.
// Derives from ConvergenceError so legacy catch sites keep working.
class NewtonDivergence : public ConvergenceError {
 public:
  NewtonDivergence(const std::string& what, SolveFailureInfo info)
      : ConvergenceError(what), info_(std::move(info)) {}
  const SolveFailureInfo& info() const noexcept { return info_; }

 private:
  SolveFailureInfo info_;
};

// Thrown when every rung of the resilient solve retry ladder has failed.
// Derives from ConvergenceError so legacy catch sites keep working.
class RetryExhausted : public ConvergenceError {
 public:
  RetryExhausted(const std::string& what, SolveFailureInfo info)
      : ConvergenceError(what), info_(std::move(info)) {}
  const SolveFailureInfo& info() const noexcept { return info_; }

 private:
  SolveFailureInfo info_;
};

// Thrown when a CancelToken cuts a solve off (SolveFailureInfo::cancelled is
// set). Quarantine records journal this type name, so it keeps the name it
// had when wall-clock deadlines raised it too.
class SolveTimeout : public ConvergenceError {
 public:
  SolveTimeout(const std::string& what, SolveFailureInfo info)
      : ConvergenceError(what), info_(std::move(info)) {}
  const SolveFailureInfo& info() const noexcept { return info_; }

 private:
  SolveFailureInfo info_;
};

// Thrown when input arguments violate an API precondition.
class InvalidArgument : public Error {
 public:
  explicit InvalidArgument(const std::string& what) : Error(what) {}
};

// Thrown when a March test string cannot be parsed.
class ParseError : public Error {
 public:
  explicit ParseError(const std::string& what) : Error(what) {}
};

// Thrown when a campaign journal contains a damaged interior record (bad
// checksum, impossible length, or a short payload). A torn *tail* — the
// partial final record left by a crash mid-append — is NOT corruption: replay
// silently truncates it and the campaign resumes. Anything wrong before the
// tail means the file can no longer be trusted and must be repaired or
// discarded by the operator.
class JournalCorrupt : public Error {
 public:
  explicit JournalCorrupt(const std::string& what) : Error(what) {}
};

}  // namespace lpsram
