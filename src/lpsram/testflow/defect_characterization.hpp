// Table II engine: for each regulator defect and each case study, find the
// minimal resistive-open value that causes a data retention fault in DS
// mode, together with the PVT condition that requires it.
#pragma once

#include <mutex>
#include <optional>
#include <span>
#include <vector>

#include "lpsram/regulator/characterize.hpp"
#include "lpsram/runtime/campaign.hpp"
#include "lpsram/runtime/quarantine.hpp"
#include "lpsram/testflow/case_studies.hpp"
#include "lpsram/testflow/pvt.hpp"

namespace lpsram {

// The paper's regulator setup rule (Section IV.A): pick the Vref level that
// puts the expected Vreg as close as possible to — but not lower than — the
// worst-case DRV_DS (so 1.2V -> 0.64*VDD, 1.1V -> 0.70*VDD, 1.0V -> 0.74*VDD
// for a ~730 mV worst-case DRV).
VrefLevel vref_for_vdd(double vdd, double worst_drv);

struct DefectCharacterizationOptions {
  std::vector<PvtPoint> pvt;        // empty = full 45-point grid
  double r_low = 1.0;               // search range [ohm]
  double r_high = 500e6;            // paper's "actual open" threshold
  double rel_tolerance = 1.05;      // bracket ratio of the bisection
  double ds_time = 1e-3;            // DS dwell per test (Table II setup)
  double worst_drv = 0.0;           // 0 = computed from CS1 internally
  FlipTimeModel flip{};
  // Graceful degradation: quarantine PVT points whose solves fail (after
  // the retry ladder) instead of aborting the sweep. The per-cell
  // DefectCsResult::sweep states the surviving coverage. Set false to make
  // the first failure propagate (fail-fast).
  bool quarantine = true;
  // Executor worker count for the (defect x case study x PVT) task grid:
  // 0 = automatic (LPSRAM_THREADS env, else hardware concurrency). Results
  // are bit-identical at any thread count: each task's bisection probes
  // warm-start from the operating points that task alone has solved.
  int threads = 0;
  // Durable campaign (non-owning, may be null): completed (defect x CS x
  // PVT) tasks are journaled as they finish, and a resumed run replays
  // them from the journal — skipping the solves — with final tables
  // bit-identical to an uninterrupted run. The journal must have been
  // recorded with the same options (manifest fingerprint check).
  Campaign* campaign = nullptr;
  // Cooperative cancellation for every solve of the sweep (non-owning, may
  // be null): polled per Newton iteration; cancelled points quarantine as
  // SolveTimeout.
  const CancelToken* cancel = nullptr;
};

// One Table II cell: defect x case study.
struct DefectCsResult {
  DefectId id = 0;
  std::string cs_name;
  double min_resistance = 0.0;  // smallest R causing a DRF
  bool open_only = false;       // true = "> 500M" (no finite R below the cap)
  PvtPoint worst_pvt;           // the PVT needing the minimal resistance
  VrefLevel vref_at_worst = VrefLevel::V070;
  // Per-PVT-point solve accounting: which of the grid points this cell's
  // numbers actually cover, and which were quarantined with what error.
  SweepReport sweep;
  // Executor/chain/solve telemetry of this cell's PVT tasks. Inside table()
  // the per-cell wall_s is 0 (wall-clock is only meaningful per sweep and
  // lands in the table-wide total); characterize() fills it in.
  SweepTelemetry telemetry;

  // True when every PVT point of the grid was characterized.
  bool trusted() const noexcept { return sweep.complete(); }
};

class DefectCharacterizer {
 public:
  DefectCharacterizer(const Technology& tech,
                      DefectCharacterizationOptions options = {});

  // Min resistance for one defect under one case study (the -1 variant is
  // simulated; mirrors are symmetric). Every PVT point of the grid is an
  // independent executor task; the reduction over points runs afterwards in
  // grid order, so the result is bit-identical to a serial run.
  DefectCsResult characterize(DefectId id, const CaseStudy& cs) const;

  // Full Table II: rows = defects, columns = case studies. The whole
  // (defect x case study x PVT) grid is flattened into one executor run;
  // each cell's result is bit-identical to characterize(id, cs) called
  // alone. The table-wide telemetry (including wall-clock) lands in
  // `*total` when given.
  std::vector<std::vector<DefectCsResult>> table(
      std::span<const DefectId> defects,
      std::span<const CaseStudy> case_studies,
      SweepTelemetry* total = nullptr) const;

  const DefectCharacterizationOptions& options() const noexcept {
    return options_;
  }
  double worst_drv() const noexcept { return worst_drv_; }

 private:
  // DRV of the case-study cell at a given corner/temperature. Memoized
  // under a mutex: the cell-layer DRV search never touches the DC-solver
  // observer hooks, so its values are deterministic even under chaos and
  // safe to share across tasks.
  double cs_drv(const CaseStudy& cs, Corner corner, double temp_c) const;

  Technology tech_;
  DefectCharacterizationOptions options_;
  double worst_drv_ = 0.0;
  // Per-CS DRV memo keyed by (cs index, corner, raw temp bits); guarded by
  // drv_mutex_ because executor tasks populate it concurrently. The
  // temperature keys on key_bits() like every campaign fingerprint — an
  // integer quantization (the old static_cast<int>(temp_c * 4)) truncates
  // toward zero and collides nearby temperatures (e.g. -0.1 C with +0.1 C).
  mutable std::mutex drv_mutex_;
  mutable std::map<std::tuple<int, int, std::uint64_t>, double> drv_cache_;
};

}  // namespace lpsram
