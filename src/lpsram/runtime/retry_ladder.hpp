// Resilient solve-execution layer: runs DcSolver through a fixed ladder of
// escalating strategies. Near-DRV operating points sit on the edge of
// bistability where Newton is most fragile; this layer turns "one
// ConvergenceError aborts the sweep" into a structured SolveOutcome the
// sweep drivers can quarantine and account for.
#pragma once

#include <vector>

#include "lpsram/runtime/solve_outcome.hpp"
#include "lpsram/spice/netlist.hpp"

namespace lpsram {

// Runs the retry ladder, in this fixed order:
//   warm-start      pure Newton from `warm_start` (skipped when it is null
//                   or empty), no internal fallbacks;
//   cold-start      the stock DcSolver cascade from zero;
//   dense-gmin      half-decade gmin continuation, each step warm-started;
//   relaxed-polish  tolerances relaxed 1e4x, then a tight polish from the
//                   relaxed point; when only the relaxed pass converges the
//                   outcome is Degraded (usable, flagged);
//   perturbed-guess 3 guesses perturbed by up to 0.05 V from seed 0x5eedf00d.
// Every attempt runs under `dc_options`: `max_iterations` caps each Newton
// attempt and `cancel` is polled between rungs and inside every Newton
// iteration (a trip ends the ladder with outcome.cancelled set). A solve
// keeps no state between calls. Never throws for convergence trouble —
// inspect outcome.status (InvalidArgument still propagates: a malformed
// warm start is a programming error, not numerical fragility).
SolveOutcome solve_dc_resilient(
    const Netlist& netlist, double temp_c, const DcOptions& dc_options = {},
    const std::vector<double>* warm_start = nullptr);

// Throws the typed error for a failed outcome: SolveTimeout when a
// CancelToken cut it off, RetryExhausted otherwise. The message and the
// SolveFailureInfo are a function of the outcome alone.
[[noreturn]] void throw_outcome(const SolveOutcome& outcome);

}  // namespace lpsram
