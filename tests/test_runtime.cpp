// Tests for the resilient solve runtime: non-convergence paths of rootfind
// and DcSolver, the retry ladder (every strategy, iteration caps, failure
// diagnostics), the chaos fault-injection harness, and graceful degradation
// of the Table II sweep under injected solver failures.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "lpsram/regulator/characterize.hpp"
#include "lpsram/runtime/chaos.hpp"
#include "lpsram/runtime/retry_ladder.hpp"
#include "lpsram/testflow/report.hpp"
#include "lpsram/util/error.hpp"
#include "lpsram/util/rootfind.hpp"

namespace lpsram {
namespace {

const Technology& tech() {
  static const Technology t = Technology::lp40nm();
  return t;
}

// Resistive divider: V1 = 1 V into R1/R2 = 1k/1k, so v(mid) = 0.5 V.
Netlist divider() {
  Netlist n;
  const NodeId in = n.add_node("in");
  const NodeId mid = n.add_node("mid");
  n.add_vsource("V1", in, kGround, 1.0);
  n.add_resistor("R1", in, mid, 1e3);
  n.add_resistor("R2", mid, kGround, 1e3);
  return n;
}

// Poisons the residual (NaN) of the first `fail_count` DcSolver::solve calls
// it observes; later solves run clean. Deterministic ladder escalation.
class FailFirstSolves : public SolverObserver {
 public:
  explicit FailFirstSolves(int fail_count) : remaining_(fail_count) {}

  void on_solve_begin() override { poison_ = remaining_-- > 0; }
  void on_newton_iteration(NewtonEvent& event) override {
    if (!poison_) return;
    for (double& r : *event.residual)
      r = std::numeric_limits<double>::quiet_NaN();
  }

 private:
  int remaining_;
  bool poison_ = false;
};

// Poisons the solve calls whose 0-based indices are listed.
class FailSolvesAt : public SolverObserver {
 public:
  explicit FailSolvesAt(std::vector<int> targets)
      : targets_(std::move(targets)) {}

  void on_solve_begin() override {
    poison_ = std::find(targets_.begin(), targets_.end(), index_++) !=
              targets_.end();
  }
  void on_newton_iteration(NewtonEvent& event) override {
    if (!poison_) return;
    for (double& r : *event.residual)
      r = std::numeric_limits<double>::quiet_NaN();
  }

 private:
  std::vector<int> targets_;
  int index_ = 0;
  bool poison_ = false;
};

// ---------- rootfind non-convergence paths --------------------------------

TEST(Rootfind, BisectRequiresSignChange) {
  const auto f = [](double x) { return x * x + 1.0; };  // no real root
  EXPECT_THROW(bisect(f, -1.0, 1.0), InvalidArgument);
  EXPECT_THROW(brent(f, -1.0, 1.0), InvalidArgument);
}

TEST(Rootfind, BisectReportsMaxIterationBreach) {
  RootFindOptions opts;
  opts.max_iterations = 5;
  opts.x_tolerance = 0.0;
  opts.f_tolerance = 0.0;
  // Root at 1/3: dyadic midpoints never hit it exactly, so with zero
  // tolerances the budget is the only stop.
  const RootResult r = bisect([](double x) { return x - 1.0 / 3.0; }, 0.0, 1.0,
                              opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 5);
  EXPECT_NEAR(r.x, 1.0 / 3.0, 0.05);  // best estimate still returned
}

TEST(Rootfind, BrentReportsMaxIterationBreach) {
  RootFindOptions opts;
  opts.max_iterations = 2;
  opts.x_tolerance = 0.0;
  opts.f_tolerance = 0.0;
  const RootResult r =
      brent([](double x) { return x * x * x - 2.0; }, 0.0, 2.0, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_LE(r.iterations, 2);
}

// ---------- DcSolver pathological netlists --------------------------------

TEST(DcSolverPathological, FloatingNodeRegularizedByGmin) {
  Netlist n = divider();
  const NodeId orphan = n.add_node("orphan");
  n.add_capacitor("C1", orphan, kGround, 1e-12);  // open at DC
  const DcResult r = solve_dc(n, 25.0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.node_v[n.node("mid")], 0.5, 1e-6);
  EXPECT_NEAR(r.node_v[orphan], 0.0, 1e-6);  // pinned by the gmin floor
}

TEST(DcSolverPathological, CurrentIntoDcOpenNodeGivesDiagnosticError) {
  // 1 mA forced into a node whose only other element is a capacitor: KCL is
  // unsatisfiable at DC, so every fallback diverges. The error must name the
  // offending node and quantify the residual — not just say "diverged".
  Netlist n;
  const NodeId node = n.add_node("nfloat");
  n.add_isource("I1", kGround, node, 1e-3);
  n.add_capacitor("C1", node, kGround, 1e-12);
  try {
    solve_dc(n, 25.0);
    FAIL() << "expected ConvergenceError";
  } catch (const ConvergenceError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("nfloat"), std::string::npos) << msg;
    EXPECT_NE(msg.find("worst residual"), std::string::npos) << msg;
    EXPECT_NE(msg.find("iterations"), std::string::npos) << msg;
  }
}

TEST(DcSolverPathological, ConflictingVoltageSourcesFailCleanly) {
  // Two sources pinning the same node to different values: the MNA matrix is
  // structurally singular. Must surface as ConvergenceError, not a crash.
  Netlist n;
  const NodeId a = n.add_node("a");
  n.add_vsource("V1", a, kGround, 1.0);
  n.add_vsource("V2", a, kGround, 2.0);
  EXPECT_THROW(solve_dc(n, 25.0), ConvergenceError);
}

TEST(DcSolver, ResidualReportNamesWorstNode) {
  const Netlist n = divider();
  const DcSolver solver(n, 25.0);
  const DcResult r = solver.solve();
  ResidualReport rep = solver.residual_report(r.x);
  EXPECT_LT(rep.worst, 1e-9);

  // Corrupt the mid-node estimate: the report points at the KCL violation.
  std::vector<double> bad = r.x;
  bad[n.node("mid") - 1] += 0.3;  // unknown row = node id - 1
  rep = solver.residual_report(bad);
  EXPECT_EQ(rep.node, "mid");
  EXPECT_GT(rep.worst, 1e-5);
}

// ---------- retry ladder: every strategy fires ----------------------------
//
// The ladder is fixed (warm-start, cold-start, dense-gmin, relaxed-polish,
// perturbed-guess), so a test reaches a rung by failing the solves of the
// rungs before it. Solve-call indices without a warm start: 0 = cold-start,
// 1 = dense-gmin's first gmin stage (its failure ends the rung), 2 = the
// relaxed pass, 3 = the polish after a relaxed pass that converged.

TEST(RetryLadder, ColdStartThenWarmStart) {
  const Netlist n = divider();

  const SolveOutcome cold = solve_dc_resilient(n, 25.0);
  ASSERT_TRUE(cold.ok());
  EXPECT_EQ(cold.status, SolveStatus::Converged);
  EXPECT_EQ(cold.strategy, SolveStrategy::ColdStart);  // warm rung skipped
  EXPECT_EQ(cold.attempts, 1);
  EXPECT_NEAR(cold.result.node_v[n.node("mid")], 0.5, 1e-6);
  EXPECT_NE(cold.summary().find("cold-start"), std::string::npos);

  const SolveOutcome warm = solve_dc_resilient(n, 25.0, {}, &cold.result.x);
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(warm.strategy, SolveStrategy::WarmStart);
  EXPECT_EQ(warm.attempts, 1);
}

TEST(RetryLadder, WarmFailureEscalatesToColdStart) {
  const Netlist n = divider();
  const SolveOutcome base = solve_dc_resilient(n, 25.0);
  ASSERT_TRUE(base.ok());

  ChaosPolicy policy;
  policy.first_attempt_failure_rate = 1.0;  // kill every first rung
  policy.faults = {ChaosFault::NanResidual};
  ChaosEngine chaos(policy);
  ChaosScope scope(chaos);

  const SolveOutcome out = solve_dc_resilient(n, 25.0, {}, &base.result.x);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.strategy, SolveStrategy::ColdStart);
  EXPECT_EQ(out.attempts, 2);
  ASSERT_EQ(out.history.size(), 2u);
  EXPECT_EQ(out.history[0].strategy, SolveStrategy::WarmStart);
  EXPECT_FALSE(out.history[0].converged);
  EXPECT_FALSE(out.history[0].error.empty());
  EXPECT_TRUE(out.history[1].converged);
  EXPECT_GT(chaos.injections(ChaosFault::NanResidual), 0u);
}

TEST(RetryLadder, DenseGminStrategyFires) {
  const Netlist n = divider();
  FailFirstSolves fail(1);  // cold-start rung dies, dense-gmin recovers
  ScopedSolverObserver scope(&fail);
  const SolveOutcome out = solve_dc_resilient(n, 25.0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.strategy, SolveStrategy::DenseGmin);
  EXPECT_EQ(out.attempts, 2);
  EXPECT_NEAR(out.result.node_v[n.node("mid")], 0.5, 1e-6);
}

TEST(RetryLadder, RelaxedPolishStrategyFires) {
  const Netlist n = divider();
  FailFirstSolves fail(2);  // cold-start and dense-gmin die
  ScopedSolverObserver scope(&fail);
  const SolveOutcome out = solve_dc_resilient(n, 25.0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.status, SolveStatus::Converged);  // polish succeeded
  EXPECT_EQ(out.strategy, SolveStrategy::RelaxedPolish);
  EXPECT_EQ(out.attempts, 3);
  EXPECT_TRUE(out.worst_node.empty());  // full tolerance: no residual report
}

TEST(RetryLadder, PerturbedGuessStrategyFires) {
  const Netlist n = divider();
  // Cold-start, dense-gmin and the relaxed pass die; the first perturbed
  // guess (fourth solve) runs clean.
  FailFirstSolves fail(3);
  ScopedSolverObserver scope(&fail);
  const SolveOutcome out = solve_dc_resilient(n, 25.0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.strategy, SolveStrategy::PerturbedGuess);
  EXPECT_EQ(out.attempts, 4);
  EXPECT_NEAR(out.result.node_v[n.node("mid")], 0.5, 1e-6);
}

TEST(RetryLadder, PolishFailureDegradesGracefully) {
  const Netlist n = divider();
  // Cold-start and dense-gmin die, the relaxed pass (solve 2) converges and
  // its tight polish (solve 3) dies.
  FailSolvesAt fail({0, 1, 3});
  ScopedSolverObserver scope(&fail);
  const SolveOutcome out = solve_dc_resilient(n, 25.0);
  EXPECT_EQ(out.status, SolveStatus::Degraded);
  EXPECT_TRUE(out.ok());  // degraded results are usable, just flagged
  EXPECT_EQ(out.strategy, SolveStrategy::RelaxedPolish);
  EXPECT_NEAR(out.result.node_v[n.node("mid")], 0.5, 1e-3);
  EXPECT_FALSE(out.worst_node.empty());  // the accepted point's residual
}

TEST(RetryLadder, CancelDuringPolishIsNotDegraded) {
  // As above, but the token trips as the polish (solve 3) begins: the
  // ladder reports the cancellation instead of accepting the relaxed point.
  class CancelAtPolish : public FailSolvesAt {
   public:
    explicit CancelAtPolish(CancelToken& token)
        : FailSolvesAt({0, 1}), token_(token) {}
    void on_solve_begin() override {
      FailSolvesAt::on_solve_begin();
      if (index_++ == 3) token_.cancel();
    }

   private:
    CancelToken& token_;
    int index_ = 0;
  };
  const Netlist n = divider();
  CancelToken token;
  CancelAtPolish observer(token);
  ScopedSolverObserver scope(&observer);
  DcOptions options;
  options.cancel = &token;
  const SolveOutcome out = solve_dc_resilient(n, 25.0, options);
  EXPECT_EQ(out.status, SolveStatus::Failed);
  EXPECT_TRUE(out.cancelled);
  ASSERT_EQ(out.history.size(), 3u);
  EXPECT_EQ(out.history[2].strategy, SolveStrategy::RelaxedPolish);
  EXPECT_FALSE(out.history[2].converged);
}

// ---------- retry ladder: iteration cap, diagnostics ----------------------

TEST(RetryLadder, IterationBudgetCapsEachAttempt) {
  const Netlist n = divider();
  const SolveOutcome base = solve_dc_resilient(n, 25.0);
  ASSERT_TRUE(base.ok());

  ChaosPolicy policy;
  policy.first_attempt_failure_rate = 1.0;
  policy.faults = {ChaosFault::IterationCap};  // residual never shrinks
  ChaosEngine chaos(policy);
  ChaosScope scope(chaos);

  DcOptions capped;
  capped.max_iterations = 3;
  const SolveOutcome out = solve_dc_resilient(n, 25.0, capped, &base.result.x);
  // The warm-start rung (pure Newton, no fallbacks) is the only sabotaged
  // one: one injection per Newton iteration, so the cap cut it at 3.
  ASSERT_FALSE(out.history.empty());
  EXPECT_EQ(out.history[0].strategy, SolveStrategy::WarmStart);
  EXPECT_FALSE(out.history[0].converged);
  EXPECT_EQ(out.history[0].iterations, 3);
  EXPECT_EQ(chaos.injections(ChaosFault::IterationCap), 3u);
}

TEST(RetryLadder, ExhaustionCarriesFullDiagnostics) {
  // Unsatisfiable netlist: every rung fails for real, and the thrown
  // RetryExhausted carries the attempt/strategy/iteration accounting.
  Netlist n;
  const NodeId node = n.add_node("nfloat");
  n.add_isource("I1", kGround, node, 1e-3);
  n.add_capacitor("C1", node, kGround, 1e-12);

  const SolveOutcome out = solve_dc_resilient(n, 25.0);
  EXPECT_EQ(out.status, SolveStatus::Failed);
  EXPECT_EQ(out.attempts, 4);  // warm rung skipped without a warm start
  EXPECT_FALSE(out.error.empty());

  try {
    throw_outcome(out);
    FAIL() << "expected RetryExhausted";
  } catch (const RetryExhausted& e) {
    EXPECT_EQ(e.info().attempts, 4);
    EXPECT_GT(e.info().iterations, 0);
    // The last divergence names the node whose KCL cannot be met.
    EXPECT_EQ(e.info().worst_node, "nfloat");
    EXPECT_GT(e.info().worst_residual, 0.0);
    EXPECT_NE(e.info().strategies.find("cold-start"), std::string::npos);
    EXPECT_NE(e.info().strategies.find("dense-gmin"), std::string::npos);
    EXPECT_NE(e.info().strategies.find("perturbed-guess"), std::string::npos);
    EXPECT_EQ(error_type_name(e), "RetryExhausted");
  }
}

// ---------- chaos engine ---------------------------------------------------

TEST(Chaos, SabotageDecisionsAreDeterministic) {
  const Netlist n = divider();
  const auto run = [&n] {
    ChaosPolicy policy;
    policy.seed = 42;
    policy.first_attempt_failure_rate = 0.5;
    policy.faults = {ChaosFault::NanResidual};
    ChaosEngine chaos(policy);
    ChaosScope scope(chaos);
    std::vector<bool> failed;
    for (int i = 0; i < 16; ++i) {
      try {
        solve_dc(n, 25.0);
        failed.push_back(false);
      } catch (const ConvergenceError&) {
        failed.push_back(true);
      }
    }
    return std::make_pair(failed, chaos.solves_sabotaged());
  };
  const auto a = run();
  const auto b = run();
  EXPECT_EQ(a.first, b.first);  // identical per-solve decisions
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.second, 0u);   // rate 0.5 actually fires...
  EXPECT_LT(a.second, 16u);  // ...and actually spares some solves
}

TEST(Chaos, RetryRateTargetsEscalationsOnly) {
  const Netlist n = divider();
  ChaosPolicy policy;
  policy.first_attempt_failure_rate = 0.0;
  policy.retry_failure_rate = 1.0;  // would kill retries — none should happen
  ChaosEngine chaos(policy);
  ChaosScope scope(chaos);
  const SolveOutcome out = solve_dc_resilient(n, 25.0);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.attempts, 1);
  EXPECT_EQ(chaos.solves_sabotaged(), 0u);
}

TEST(Chaos, SingularJacobianInjectionEscalatesCleanly) {
  const Netlist n = divider();
  ChaosPolicy policy;
  policy.first_attempt_failure_rate = 1.0;
  policy.retry_failure_rate = 1.0;
  policy.faults = {ChaosFault::SingularJacobian};
  ChaosEngine chaos(policy);
  ChaosScope scope(chaos);

  const SolveOutcome out = solve_dc_resilient(n, 25.0);
  EXPECT_EQ(out.status, SolveStatus::Failed);  // every rung sabotaged
  EXPECT_GT(chaos.injections(ChaosFault::SingularJacobian), 0u);
  EXPECT_FALSE(out.error.empty());
}

TEST(Chaos, FaultNames) {
  EXPECT_EQ(chaos_fault_name(ChaosFault::NanResidual), "nan-residual");
  EXPECT_EQ(chaos_fault_name(ChaosFault::SingularJacobian),
            "singular-jacobian");
  EXPECT_EQ(chaos_fault_name(ChaosFault::IterationCap), "iteration-cap");
}

// ---------- quarantine / SweepReport ---------------------------------------

TEST(Quarantine, ErrorTypeNamesFollowTaxonomy) {
  EXPECT_EQ(error_type_name(ConvergenceError("x")), "ConvergenceError");
  EXPECT_EQ(error_type_name(InvalidArgument("x")), "InvalidArgument");
  EXPECT_EQ(error_type_name(RetryExhausted("x", {})), "RetryExhausted");
  EXPECT_EQ(error_type_name(SolveTimeout("x", {})), "SolveTimeout");
  EXPECT_EQ(error_type_name(std::runtime_error("x")), "std::exception");
}

TEST(Quarantine, SweepReportAccounting) {
  SweepReport r;
  EXPECT_TRUE(r.complete());
  EXPECT_DOUBLE_EQ(r.coverage(), 1.0);  // empty sweep is vacuously covered

  r.add_success();
  r.add_success();
  r.quarantine("Df16 x CS1-1 @ fs, 1.0V, 125C", RetryExhausted("boom", {}));
  EXPECT_EQ(r.attempted(), 3u);
  EXPECT_EQ(r.completed(), 2u);
  EXPECT_EQ(r.quarantined_count(), 1u);
  EXPECT_FALSE(r.complete());
  EXPECT_NEAR(r.coverage(), 2.0 / 3.0, 1e-12);
  ASSERT_EQ(r.quarantined().size(), 1u);
  EXPECT_EQ(r.quarantined()[0].error_type, "RetryExhausted");
  EXPECT_EQ(r.quarantined()[0].reason, "boom");

  const std::string s = r.summary();
  EXPECT_NE(s.find("2/3 points solved"), std::string::npos) << s;
  EXPECT_NE(s.find("66.7% coverage"), std::string::npos) << s;
  EXPECT_NE(s.find("Df16 x CS1-1"), std::string::npos) << s;

  SweepReport other;
  other.add_success();
  r.merge(other);
  EXPECT_EQ(r.attempted(), 4u);
  EXPECT_EQ(r.completed(), 3u);
}

// ---------- solve telemetry -------------------------------------------------

TEST(SolveTelemetry, CountersTrackOutcomeKinds) {
  SolveTelemetry t;

  SolveOutcome warm_hit;
  warm_hit.status = SolveStatus::Converged;
  warm_hit.strategy = SolveStrategy::WarmStart;
  warm_hit.attempts = 1;
  t.record(warm_hit);

  SolveOutcome fallback;
  fallback.status = SolveStatus::Converged;
  fallback.strategy = SolveStrategy::ColdStart;
  fallback.attempts = 2;
  AttemptRecord failed_warm;
  failed_warm.strategy = SolveStrategy::WarmStart;
  failed_warm.converged = false;
  fallback.history.push_back(failed_warm);
  t.record(fallback);

  SolveOutcome degraded;
  degraded.status = SolveStatus::Degraded;
  degraded.strategy = SolveStrategy::RelaxedPolish;
  t.record(degraded);

  SolveOutcome cancelled;
  cancelled.status = SolveStatus::Failed;
  cancelled.cancelled = true;
  t.record(cancelled);

  EXPECT_EQ(t.solves, 4u);
  EXPECT_EQ(t.warm_hits, 1u);
  EXPECT_EQ(t.fallbacks, 1u);
  EXPECT_EQ(t.degraded, 1u);
  EXPECT_EQ(t.failures, 1u);
  EXPECT_EQ(t.timeouts, 1u);
  EXPECT_EQ(t.cancels, 1u);

  t.reset();
  EXPECT_EQ(t.solves, 0u);
}

TEST(RegulatorTelemetry, WarmFallbackIsCountedNotSwallowed) {
  VoltageRegulator reg(tech(), Corner::Typical);
  reg.set_regon(true);
  reg.set_power_switch(false);
  reg.vreg_dc(25.0);  // cold start
  reg.vreg_dc(25.0);  // warm start
  EXPECT_EQ(reg.solve_telemetry().solves, 2u);
  EXPECT_EQ(reg.solve_telemetry().warm_hits, 1u);
  EXPECT_EQ(reg.solve_telemetry().fallbacks, 0u);

  // Sabotage the next warm attempt: what used to be a silently-swallowed
  // ConvergenceError must surface as a counted fallback.
  ChaosPolicy policy;
  policy.first_attempt_failure_rate = 1.0;
  policy.faults = {ChaosFault::NanResidual};
  ChaosEngine chaos(policy);
  {
    ChaosScope scope(chaos);
    reg.vreg_dc(25.0);
  }
  EXPECT_EQ(reg.solve_telemetry().solves, 3u);
  EXPECT_EQ(reg.solve_telemetry().fallbacks, 1u);
  EXPECT_EQ(reg.solve_telemetry().failures, 0u);
  // Cold-start ran for the first solve and rescued the sabotaged third.
  const auto& rungs = reg.solve_telemetry().rung_attempts;
  EXPECT_EQ(rungs[static_cast<std::size_t>(SolveStrategy::WarmStart)], 2u);
  EXPECT_EQ(rungs[static_cast<std::size_t>(SolveStrategy::ColdStart)], 2u);
}

// ---------- graceful degradation of sweeps ---------------------------------

DefectCharacterizationOptions fast_options() {
  DefectCharacterizationOptions o;
  o.pvt = {PvtPoint{Corner::FastNSlowP, 1.0, 125.0},
           PvtPoint{Corner::Typical, 1.1, 125.0}};
  o.rel_tolerance = 1.10;
  return o;
}

TEST(ChaosSweep, TableIIMatchesCleanRunWhenRetriesRecover) {
  // Acceptance scenario: >=10% of first-attempt solves sabotaged, retries
  // left clean. The sweep must complete with full coverage and classify
  // every defect identically to the clean run.
  const std::vector<DefectId> defects = {16, 19};
  const CaseStudy cs1 = case_study(1, true);

  std::vector<DefectCsResult> clean;
  {
    const DefectCharacterizer ch(tech(), fast_options());
    for (const DefectId id : defects) clean.push_back(ch.characterize(id, cs1));
  }

  ChaosPolicy policy;
  policy.seed = 7;
  policy.first_attempt_failure_rate = 0.3;
  policy.retry_failure_rate = 0.0;
  policy.faults = {ChaosFault::NanResidual, ChaosFault::SingularJacobian};
  ChaosEngine chaos(policy);
  std::vector<DefectCsResult> chaotic;
  {
    ChaosScope scope(chaos);
    const DefectCharacterizer ch(tech(), fast_options());
    for (const DefectId id : defects)
      chaotic.push_back(ch.characterize(id, cs1));
  }

  EXPECT_GT(chaos.solves_sabotaged(), 0u);
  // The acceptance bar is on first attempts: retries inflate solves_seen, so
  // the overall fraction under-reads the injected failure rate.
  EXPECT_GE(chaos.first_attempt_sabotage_fraction(), 0.1);

  for (std::size_t i = 0; i < defects.size(); ++i) {
    SCOPED_TRACE("Df" + std::to_string(defects[i]));
    EXPECT_TRUE(chaotic[i].trusted());  // the ladder recovered every point
    EXPECT_EQ(chaotic[i].sweep.quarantined_count(), 0u);
    EXPECT_EQ(chaotic[i].open_only, clean[i].open_only);
    EXPECT_NEAR(chaotic[i].min_resistance, clean[i].min_resistance,
                1e-6 * clean[i].min_resistance);
    EXPECT_EQ(pvt_name(chaotic[i].worst_pvt), pvt_name(clean[i].worst_pvt));
  }
}

TEST(ChaosSweep, UnrecoverableFailuresAreQuarantinedWithCoverage) {
  // Retries sabotaged too: every PVT point fails its full ladder. The sweep
  // must still return (no throw), with every point quarantined as
  // RetryExhausted and the coverage report flagging the cell as PARTIAL.
  ChaosPolicy policy;
  policy.seed = 3;
  policy.first_attempt_failure_rate = 1.0;
  policy.retry_failure_rate = 1.0;
  policy.faults = {ChaosFault::NanResidual};
  ChaosEngine chaos(policy);
  ChaosScope scope(chaos);

  const DefectCharacterizer ch(tech(), fast_options());
  const DefectCsResult r = ch.characterize(16, case_study(1, true));
  EXPECT_FALSE(r.trusted());
  EXPECT_EQ(r.sweep.attempted(), 2u);  // the two fast-grid PVT points
  EXPECT_EQ(r.sweep.completed(), 0u);
  EXPECT_EQ(r.sweep.quarantined_count(), 2u);
  EXPECT_DOUBLE_EQ(r.sweep.coverage(), 0.0);
  EXPECT_TRUE(r.open_only);  // no surviving data -> conservative default
  for (const QuarantinedPoint& q : r.sweep.quarantined()) {
    EXPECT_EQ(q.error_type, "RetryExhausted");
    EXPECT_NE(q.context.find("Df16 x CS1-1 @ "), std::string::npos)
        << q.context;
    EXPECT_FALSE(q.reason.empty());
  }

  const std::string report = coverage_report({{r}});
  EXPECT_NE(report.find("PARTIAL"), std::string::npos) << report;
  EXPECT_NE(report.find("0/2"), std::string::npos) << report;
}

TEST(ChaosSweep, RegulatorCharacterizationQuarantinesUnderChaos) {
  ChaosPolicy policy;
  policy.first_attempt_failure_rate = 1.0;
  policy.retry_failure_rate = 1.0;
  policy.faults = {ChaosFault::NanResidual};
  ChaosEngine chaos(policy);
  ChaosScope scope(chaos);

  SweepReport report;
  measure_regulation(tech(), Corner::Typical, VrefLevel::V070, &report);
  EXPECT_GT(report.attempted(), 0u);
  EXPECT_EQ(report.completed(), 0u);
  EXPECT_FALSE(report.complete());
  EXPECT_EQ(report.quarantined()[0].error_type, "RetryExhausted");
}

}  // namespace
}  // namespace lpsram
