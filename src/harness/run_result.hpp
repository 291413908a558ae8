// The outcome of one executed RunSpec.
//
// Carries the per-iteration latency Series, the cluster-wide aggregated
// NIC counters (observability: sends, forwards, retransmissions, drops),
// the engine counters, and a small ordered map of experiment-specific
// scalar metrics (CPU time under skew, bandwidth, delivery flags, ...).
#pragma once

#include <cmath>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "harness/run_spec.hpp"
#include "net/engine_counters.hpp"
#include "nic/types.hpp"
#include "sim/stats.hpp"

namespace nicmcast::harness {

struct RunResult {
  RunSpec spec;
  /// One sample per measured iteration (simulated microseconds); empty for
  /// experiments that only report aggregate metrics.
  sim::Series latency_us;
  /// NicStats summed over every NIC in the cluster.
  nic::NicStats nic_totals;
  /// What the simulator itself did (net::EngineCounters).
  net::EngineCounters engine;
  /// Named scalar metrics, in insertion order (stable JSON output).
  std::vector<std::pair<std::string, double>> metrics;

  [[nodiscard]] double mean_us() const { return latency_us.mean(); }

  void set_metric(std::string_view name, double value) {
    for (auto& [key, val] : metrics) {
      if (key == name) {
        val = value;
        return;
      }
    }
    metrics.emplace_back(std::string(name), value);
  }

  [[nodiscard]] double metric(std::string_view name,
                              double fallback = std::nan("")) const {
    for (const auto& [key, val] : metrics) {
      if (key == name) return val;
    }
    return fallback;
  }
};

}  // namespace nicmcast::harness
