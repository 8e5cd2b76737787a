#include "lpsram/runtime/retry_ladder.hpp"

#include <array>
#include <utility>

#include "lpsram/spice/hooks.hpp"
#include "lpsram/util/error.hpp"

namespace lpsram {
namespace {

constexpr std::array<SolveStrategy, kSolveStrategyCount> kLadder = {
    SolveStrategy::WarmStart, SolveStrategy::ColdStart,
    SolveStrategy::DenseGmin, SolveStrategy::RelaxedPolish,
    SolveStrategy::PerturbedGuess};

// RelaxedPolish: the relaxed pass multiplies the v/residual tolerances by
// this.
constexpr double kRelaxFactor = 1e4;

// PerturbedGuess: number of guesses, amplitude of the per-node perturbation
// [V] and the seed of the perturbation stream.
constexpr int kPerturbAttempts = 3;
constexpr double kPerturbMagnitude = 0.05;
constexpr std::uint64_t kPerturbSeed = 0x5eedf00dULL;

// SplitMix64: deterministic, seed-driven perturbation stream.
std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

double uniform_pm1(std::uint64_t hash) {
  // [-1, 1) from the top 53 bits.
  return 2.0 * (static_cast<double>(hash >> 11) * 0x1.0p-53) - 1.0;
}

void accept(SolveOutcome& outcome, SolveStrategy strategy, DcResult result,
            SolveStatus status = SolveStatus::Converged) {
  outcome.status = status;
  outcome.strategy = strategy;
  outcome.iterations = result.iterations;
  outcome.result = std::move(result);
  // A converged point meets full tolerance; the diagnostics of the rungs
  // that failed before it no longer describe the outcome.
  outcome.worst_residual = 0.0;
  outcome.worst_node.clear();
}

// Folds a failed solve into the outcome: the non-finite flag accumulates,
// the worst residual and its node are the last divergence's.
void note_failure(SolveOutcome& outcome, const ConvergenceError& error) {
  const auto* divergence = dynamic_cast<const NewtonDivergence*>(&error);
  if (divergence == nullptr) return;
  outcome.non_finite = outcome.non_finite || divergence->info().non_finite;
  outcome.worst_residual = divergence->info().worst_residual;
  outcome.worst_node = divergence->info().worst_node;
}

// One ladder rung. Returns with `outcome` accepted, or throws the rung's
// ConvergenceError (SolveTimeout when cancelled).
void run_rung(SolveStrategy strategy, const Netlist& netlist, double temp_c,
              const DcOptions& opts, const std::vector<double>* warm_start,
              SolveOutcome& outcome) {
  switch (strategy) {
    case SolveStrategy::WarmStart: {
      // Pure Newton from the neighboring sweep point — cheap, no internal
      // cascade; if the neighborhood assumption is wrong, escalate fast.
      DcOptions warm = opts;
      warm.allow_gmin_stepping = false;
      warm.allow_source_stepping = false;
      accept(outcome, strategy,
             DcSolver(netlist, temp_c, warm).solve(warm_start));
      return;
    }

    case SolveStrategy::ColdStart:
      accept(outcome, strategy, DcSolver(netlist, temp_c, opts).solve());
      return;

    case SolveStrategy::DenseGmin: {
      // Half-decade gmin continuation driven from this layer: each step is
      // warm-started from the previous one, denser than the solver's own
      // decade schedule.
      DcOptions step = opts;
      step.allow_gmin_stepping = false;
      step.allow_source_stepping = false;
      std::vector<double> x;
      const std::vector<double>* guess = warm_start;
      for (double g = 1e-2; g > opts.gmin; g *= 0.3162) {
        step.gmin = g;
        DcResult stage = DcSolver(netlist, temp_c, step).solve(guess);
        x = std::move(stage.x);
        guess = &x;
      }
      step.gmin = opts.gmin;
      accept(outcome, strategy, DcSolver(netlist, temp_c, step).solve(guess));
      return;
    }

    case SolveStrategy::RelaxedPolish: {
      DcOptions relaxed = opts;
      relaxed.v_tolerance *= kRelaxFactor;
      relaxed.residual_tolerance *= kRelaxFactor;
      DcResult coarse = DcSolver(netlist, temp_c, relaxed).solve(warm_start);
      // Polish at full tolerance, warm-started from the relaxed point.
      DcOptions tight = opts;
      tight.allow_gmin_stepping = false;
      tight.allow_source_stepping = false;
      const DcSolver polisher(netlist, temp_c, tight);
      try {
        accept(outcome, strategy, polisher.solve(&coarse.x));
      } catch (const SolveTimeout&) {
        throw;
      } catch (const ConvergenceError&) {
        // The relaxed point is usable but below full tolerance: degrade
        // gracefully rather than discarding it, and report how far off it
        // is.
        const ResidualReport report = polisher.residual_report(coarse.x);
        accept(outcome, strategy, std::move(coarse), SolveStatus::Degraded);
        outcome.worst_residual = report.worst;
        outcome.worst_node = report.node;
      }
      return;
    }

    case SolveStrategy::PerturbedGuess: {
      const std::size_t dim = SystemAssembler(netlist, temp_c).dimension();
      std::vector<double> base(dim, 0.0);
      if (warm_start && warm_start->size() == dim) base = *warm_start;
      std::string last_error;
      for (int k = 0; k < kPerturbAttempts; ++k) {
        std::vector<double> guess = base;
        for (std::size_t i = 0; i < guess.size(); ++i) {
          const std::uint64_t h = splitmix64(
              kPerturbSeed ^ (static_cast<std::uint64_t>(k) << 32) ^ i);
          guess[i] += kPerturbMagnitude * uniform_pm1(h);
        }
        try {
          accept(outcome, strategy,
                 DcSolver(netlist, temp_c, opts).solve(&guess));
          return;
        } catch (const SolveTimeout&) {
          throw;
        } catch (const ConvergenceError& e) {
          note_failure(outcome, e);
          last_error = e.what();
        }
      }
      throw ConvergenceError("perturbed-guess: all " +
                             std::to_string(kPerturbAttempts) +
                             " perturbations diverged (last: " + last_error +
                             ")");
    }
  }
  throw ConvergenceError("unknown solve strategy");
}

}  // namespace

SolveOutcome solve_dc_resilient(const Netlist& netlist, double temp_c,
                                const DcOptions& dc_options,
                                const std::vector<double>* warm_start) {
  if (warm_start != nullptr && warm_start->empty()) warm_start = nullptr;
  SolveOutcome outcome;
  for (const SolveStrategy strategy : kLadder) {
    if (strategy == SolveStrategy::WarmStart && warm_start == nullptr)
      continue;  // nothing to warm-start from

    // Cancellation check between rungs (the token is also polled inside
    // every Newton iteration).
    if (dc_options.cancel && dc_options.cancel->cancelled()) {
      outcome.cancelled = true;
      outcome.error = "cancelled before strategy " + strategy_name(strategy);
      break;
    }

    if (SolverObserver* observer = solver_observer())
      observer->on_ladder_attempt(outcome.attempts, strategy_name(strategy));
    ++outcome.attempts;

    // Every Newton iteration of the attempt counts into its record, so
    // failed attempts report their real cost.
    AttemptRecord record;
    record.strategy = strategy;
    DcOptions opts = dc_options;
    opts.progress = [counter = &record.iterations,
                     base = dc_options.progress](const NewtonProgress& p) {
      ++*counter;
      if (base) base(p);
    };
    try {
      run_rung(strategy, netlist, temp_c, opts, warm_start, outcome);
      record.converged = true;
    } catch (const SolveTimeout& e) {
      record.error = e.what();
      outcome.cancelled = true;
      outcome.error = e.what();
    } catch (const ConvergenceError& e) {
      record.error = e.what();
      note_failure(outcome, e);
      outcome.error = e.what();  // escalate to the next rung
    }
    outcome.history.push_back(std::move(record));
    if (outcome.ok() || outcome.cancelled) break;
  }
  if (outcome.ok()) outcome.error.clear();
  return outcome;
}

void throw_outcome(const SolveOutcome& outcome) {
  SolveFailureInfo info;
  info.attempts = outcome.attempts;
  for (const AttemptRecord& a : outcome.history) {
    info.iterations += a.iterations;
    if (!info.strategies.empty()) info.strategies += ",";
    info.strategies += strategy_name(a.strategy);
  }
  info.worst_residual = outcome.worst_residual;
  info.worst_node = outcome.worst_node;
  info.non_finite = outcome.non_finite;
  info.cancelled = outcome.cancelled;

  const std::string attempts = std::to_string(outcome.attempts);
  if (outcome.cancelled) {
    const std::string what = "SolveTimeout: cancelled by CancelToken after " +
                             attempts + " attempts (strategies: " +
                             info.strategies + ")";
    throw SolveTimeout(what, std::move(info));
  }
  const std::string what = "RetryExhausted: " + attempts +
                           " attempts failed (strategies: " + info.strategies +
                           "; last error: " + outcome.error + ")";
  throw RetryExhausted(what, std::move(info));
}

}  // namespace lpsram
