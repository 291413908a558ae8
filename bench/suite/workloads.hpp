// The suite's four workloads: fixed case lists that each stress a
// different part of the stack (README.md gives the reasons), plus the
// paper-shape calibration bands checked on paper-16.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "harness/run_spec.hpp"

namespace nicmcast::suite {

struct Workload {
  std::string name;
  /// Every case carries a unique spec.label; the run seed replaces
  /// spec.seed as harness::derive_seed(seed, case index).
  std::vector<harness::RunSpec> cases;
  /// Passes when no --seconds budget is given.
  int passes = 1;
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// The named workload; `smoke` shrinks every case (fewer nodes, cases and
/// iterations) while keeping the calibration anchors.  Throws
/// std::invalid_argument for an unknown name.
[[nodiscard]] Workload make_workload(std::string_view name, bool smoke);

struct BandCheck {
  std::string name;
  bool ok = false;
  std::string detail;
};

/// The tests/calibration bands (Fig. 5 factors, multisend factor, skew
/// anchors) evaluated on one pass's per-case results, keyed by label:
/// simulated mean latency, or average bcast CPU time for skew cases.
/// Empty when `results` lacks the anchor cases.
[[nodiscard]] std::vector<BandCheck> calibration_bands(
    const std::map<std::string, double>& results);

}  // namespace nicmcast::suite
