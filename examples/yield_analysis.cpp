// Array-scale retention-yield walkthrough: estimates the sigma-to-yield
// curve P(DRV_DS > Vreg) of a variation-sampled array with the statistical
// yield engine, printing per-point tail probabilities with their confidence
// intervals, effective sample sizes and the equivalent sigma.
//
// Modes (--mode): `blockade` (default — surrogate-gated exact solves),
// `is` (mean-shifted importance sampling), `brute` (every cell solved
// exactly; small arrays only).
//
// With `--resume <journal>` the run is journaled through the durable
// campaign runtime: Ctrl-C / SIGTERM drains gracefully, and rerunning the
// same command replays finished blocks and samples only the rest, with
// results bit-identical to an uninterrupted run.
#include <cctype>
#include <cerrno>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "lpsram/stats/yield/engine.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/signal_cancel.hpp"

using namespace lpsram;

namespace {

void usage(const char* argv0) {
  std::printf(
      "usage: %s [--mode brute|blockade|is] [--rows N] [--cols N]\n"
      "          [--trials N] [--samples N] [--shift SIGMA] [--auto-shift]\n"
      "          [--vreg V ...] [--seed N] [--threads N] [--resume JOURNAL]\n",
      argv0);
}

// Strict number parsing: the whole argument must be the number, so a typo
// is a usage error instead of silently becoming 0. Range and finiteness are
// the plan's to check (YieldPlan throws InvalidArgument).
bool parse_double(const char* text, double* out) {
  char* end = nullptr;
  errno = 0;
  *out = std::strtod(text, &end);
  return end != text && *end == '\0' && errno != ERANGE;
}

// Unsigned integer; base 0 also takes 0x... (seeds).
bool parse_u64(const char* text, int base, std::uint64_t* out) {
  if (!std::isdigit(static_cast<unsigned char>(text[0]))) return false;
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text, &end, base);
  return *end == '\0' && errno != ERANGE;
}

bool parse_int(const char* text, int* out) {
  std::uint64_t value = 0;
  if (!parse_u64(text, 10, &value) || value > INT_MAX) return false;
  *out = static_cast<int>(value);
  return true;
}

void print_result(const YieldPlan& plan, const YieldResult& result) {
  const YieldEngineOptions& options = plan.options();
  std::printf("# %s\n", yield_summary_line(plan, result).c_str());
  std::printf("# cells/trial=%zu\n", options.cells_per_trial());
  std::printf("# vreg[V]  p_fail      ci95        rel_ci  ess        sigma  "
              "array_yield  failures\n");
  for (const YieldPoint& pt : result.points)
    std::printf("  %.4f   %-10.3e %-10.3e %-6.3f  %-9.1f  %-5.2f  %-11.4e "
                "%llu\n",
                pt.vreg, pt.tail.p, pt.tail.ci95, pt.tail.rel_ci, pt.tail.ess,
                pt.sigma, pt.array_yield,
                static_cast<unsigned long long>(pt.failures));
  if (!result.array_dist.samples.empty())
    std::printf("# array DRV_DS maxima: mean %.4f V, stddev %.4f V, "
                "Gumbel(mu=%.4f, beta=%.5f)\n",
                result.array_dist.mean, result.array_dist.stddev,
                result.array_dist.gumbel_mu, result.array_dist.gumbel_beta);
  std::printf("# [%s]\n", result.telemetry.summary().c_str());
}

}  // namespace

int main(int argc, char** argv) {
  YieldEngineOptions options;
  options.rows = 256;  // demo-sized by default; --rows 4096 for the paper array
  options.cols = 64;
  options.trials = 2;
  std::string journal;
  std::vector<double> vregs;

  for (int i = 1; i < argc; ++i) {
    const auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        usage(argv[0]);
        std::exit(2);
      }
      return argv[++i];
    };
    const auto number = [&](bool parsed) {
      if (!parsed) {
        std::fprintf(stderr, "%s: malformed number '%s' for %s\n", argv[0],
                     argv[i], argv[i - 1]);
        usage(argv[0]);
        std::exit(2);
      }
    };
    std::uint64_t count = 0;
    double value = 0.0;
    if (std::strcmp(argv[i], "--mode") == 0) {
      const char* m = next();
      if (std::strcmp(m, "brute") == 0) options.mode = YieldMode::BruteForceExact;
      else if (std::strcmp(m, "blockade") == 0) options.mode = YieldMode::Blockade;
      else if (std::strcmp(m, "is") == 0) options.mode = YieldMode::ImportanceSampled;
      else { usage(argv[0]); return 2; }
    } else if (std::strcmp(argv[i], "--rows") == 0) {
      number(parse_u64(next(), 10, &count));
      options.rows = static_cast<std::size_t>(count);
    } else if (std::strcmp(argv[i], "--cols") == 0) {
      number(parse_u64(next(), 10, &count));
      options.cols = static_cast<std::size_t>(count);
    } else if (std::strcmp(argv[i], "--trials") == 0) {
      number(parse_int(next(), &options.trials));
    } else if (std::strcmp(argv[i], "--samples") == 0) {
      number(parse_u64(next(), 10, &count));
      options.is_samples = static_cast<std::size_t>(count);
    } else if (std::strcmp(argv[i], "--shift") == 0) {
      number(parse_double(next(), &options.is_shift));
    } else if (std::strcmp(argv[i], "--auto-shift") == 0) {
      options.auto_shift = true;
    } else if (std::strcmp(argv[i], "--vreg") == 0) {
      number(parse_double(next(), &value));
      vregs.push_back(value);
    } else if (std::strcmp(argv[i], "--seed") == 0) {
      number(parse_u64(next(), 0, &options.seed));
    } else if (std::strcmp(argv[i], "--threads") == 0) {
      number(parse_int(next(), &options.threads));
    } else if (std::strcmp(argv[i], "--resume") == 0) {
      journal = next();
    } else {
      usage(argv[0]);
      return 2;
    }
  }
  if (!vregs.empty()) options.vreg_grid = vregs;

  // Options the plan refuses (InvalidArgument) and journals that cannot be
  // resumed are usage errors: exit 2 with the message. A cancelled run
  // (Ctrl-C) exits 130.
  CancelToken stop;
  try {
    const Technology tech = Technology::lp40nm();
    std::printf("# training DRV surrogate...\n");
    const DrvSurrogate surrogate = DrvSurrogate::train(tech);
    std::printf("# surrogate holdout: rms %.1f mV, max %.1f mV\n",
                surrogate.rms_error() * 1e3, surrogate.max_error() * 1e3);

    const YieldPlan plan(tech, surrogate, options);
    if (plan.pilot().tuned)
      std::printf("# pilot shift search: %.3f sigma (min tail ESS %.1f over "
                  "%zu grid point(s), %zu pilot samples)\n",
                  plan.pilot().shift, plan.pilot().objective,
                  plan.pilot().grid_points_scored, plan.pilot().samples);

    install_cancel_on_signal(stop);

    if (journal.empty()) {
      const YieldResult result = run_yield(plan, nullptr, &stop);
      if (stop.cancelled()) return 130;
      print_result(plan, result);
      return 0;
    }

    Campaign campaign(journal);
    std::printf(
        "# campaign journal %s: %zu of %zu block(s) already journaled%s\n",
        journal.c_str(), campaign.completed_tasks(), plan.task_count(),
        campaign.resumed_from_torn_tail() ? " (torn tail truncated)" : "");
    try {
      const YieldResult result = run_yield(plan, &campaign, &stop);
      if (stop.cancelled()) {
        std::printf("# interrupted — journal retains %zu completed block(s); "
                    "rerun this command to resume.\n",
                    campaign.completed_tasks());
        return 130;
      }
      print_result(plan, result);
      campaign.compact();
      std::printf("# journal now holds %zu completed block(s).\n",
                  campaign.completed_tasks());
    } catch (const Error& e) {
      if (!stop.cancelled()) throw;
      std::printf("# interrupted (%s) — journal retains %zu completed "
                  "block(s); rerun this command to resume.\n",
                  e.what(), campaign.completed_tasks());
      return 130;
    }
    return 0;
  } catch (const Error& e) {
    if (stop.cancelled()) {
      std::printf("# interrupted (%s)\n", e.what());
      return 130;
    }
    std::fprintf(stderr, "%s: %s\n", argv[0], e.what());
    return 2;
  }
}
