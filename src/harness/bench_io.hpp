// Shared bench front-end: the common command-line flags every bench and
// the CLI sweep accept (--threads, --json, --iters, --seed), table-header
// printing, and the BENCH_*.json trajectory writer.
//
// JSON schema ("nicmcast-bench-v1"), one document per bench invocation:
//
//   {
//     "schema":    "nicmcast-bench-v1",
//     "bench":     "<bench name>",
//     "threads":   N,              // worker threads used
//     "base_seed": S,              // ParallelRunner seed base
//     "runs": [
//       {
//         "spec": { "experiment": "gm_mcast", "label": "", "nodes": 16,
//                   "wiring": "auto", "radix": 16, "bytes": 512,
//                   "algo": "nic",
//                   "tree": "postal", "loss": 0, "corrupt": 0,
//                   "faults": "uniform",
//                   "skew_us": 0, "destinations": 0, "lanes": 1,
//                   "rdma": false, "warmup": 4, "iterations": 30,
//                   "seed": "123" /* decimal string: 64-bit exact */,
//                   "shards": 1, "aux": 0 },
//         "latency_us": { "count": 30, "mean": ..., "min": ..., "max": ...,
//                         "stddev": ..., "p50": ..., "p95": ..., "p99": ... },
//                       // null when the experiment reports only metrics
//         "nic": { "packets_sent": ..., ... },
//                /* every nic::NicStats field, in nic::kNicStatsFields
//                   order, summed over the run's NICs (descriptor_allocs,
//                   descriptor_reuses, payload_bytes_copied and
//                   payload_refs included) */
//         "engine": { /* every net::EngineCounters field, one key set for
//                        every run; the sequential engine writes 0 and []
//                        for the shard counters */
//                     "events_scheduled": ..., "events_executed": ...,
//                     "events_cancelled": ..., "heap_actions": ...,
//                     "pool_slots": ...,
//                     "wheel_occupancy_peak": ..., "wheel_cascades": ...,
//                     "overflow_scheduled": ..., "overflow_promotions": ...,
//                     "ready_shifts": ...,
//                     "routes_materialized": ..., "route_links_stored": ...,
//                     "route_links_shared": 0, "route_links_scanned": ...,
//                     "event_order_hash": "<decimal string: 64-bit exact>",
//                     "shard_count": ..., "cross_shard_msgs": ...,
//                     "lbts_rounds": ..., "horizon_stalls": ...,
//                     "channel_spills": 0, "cross_links": ...,
//                     "shard_order_hashes": ["<decimal string>", ...],
//                     "shard_wheel_occupancy_peak": [...],
//                     "null_msgs_sent": 0,
//                     /* route_links_shared, channel_spills and
//                        null_msgs_sent are always 0; blocked_waits is
//                        timing-dependent: presence gated, value never */
//                     "blocked_waits": ... },
//         "metrics": { "<name>": <number>, ... }
//       }, ...
//     ]
//   }
#pragma once

#include <charconv>
#include <concepts>
#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "harness/json.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/run_result.hpp"

namespace nicmcast::harness {

struct BenchOptions {
  unsigned threads = 1;
  std::string json_path;     // empty: no JSON output
  int iterations = 0;        // 0: keep the bench's own default
  std::uint64_t base_seed = 1;
  std::size_t max_nodes = 0;  // 0: no cap; CI trims scale sweeps with this
  /// Simulation shards for ext_scalability's sharded points (the only
  /// bench that reads --shards; soak_driver takes it as its cross-check's
  /// maximum).  0 = keep each point's own default, so existing
  /// BENCH_*.json documents are reproduced byte-identically.
  std::size_t shards = 0;
  /// --only LABEL: run just the scenario/sweep point with this label
  /// (sim_microbench and ext_scalability honour it).  A profiling aid — a
  /// filtered JSON document is not a valid regression baseline (the
  /// checker fails on the missing labels).
  std::string only;

  /// True when `label` passes the --only filter.
  [[nodiscard]] bool selected(std::string_view label) const {
    return only.empty() || only == label;
  }

  /// The effective shard count for one sweep point (the --shards override
  /// when given, otherwise the point's default).
  [[nodiscard]] std::size_t shards_or(std::size_t fallback) const {
    return shards > 0 ? shards : fallback;
  }

  /// The effective iteration (or scenario/node) count: the --iters override
  /// when given, otherwise the bench's own default.  Every bench used to
  /// open-code this ternary.
  [[nodiscard]] int iterations_or(int fallback) const {
    return iterations > 0 ? iterations : fallback;
  }
};

/// Parses all of `text` as a count that fits a T: decimal digits only (no
/// sign, space or suffix) and at most T's maximum; std::nullopt otherwise.
/// Every numeric bench flag and nicmcast_cli's integer flags parse here.
template <std::integral T>
[[nodiscard]] std::optional<T> parse_count(std::string_view text) {
  std::uint64_t value = 0;
  const char* const end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end ||
      value > static_cast<std::uint64_t>(std::numeric_limits<T>::max())) {
    return std::nullopt;
  }
  return static_cast<T>(value);
}

/// Parses the shared bench flags.  Prints usage and calls std::exit(2) on
/// a bad flag or value, std::exit(0) for --help.
[[nodiscard]] BenchOptions parse_bench_options(int argc, char** argv,
                                               std::string_view bench_name);

/// RunnerOptions implied by the parsed bench flags.
[[nodiscard]] RunnerOptions runner_options(const BenchOptions& options);

void print_header(const std::string& title, const std::string& paper_reference);

/// The "spec" object of the schema above.
[[nodiscard]] json::Value spec_to_json(const RunSpec& spec);

/// One "runs" element of the schema above.
[[nodiscard]] json::Value result_to_json(const RunResult& result);

/// Assembles a full "nicmcast-bench-v1" document.
[[nodiscard]] json::Value bench_document(std::string_view bench_name,
                                         const BenchOptions& options,
                                         const std::vector<RunResult>& results);

/// Writes the document for `results` to options.json_path (no-op when the
/// path is empty) and prints a one-line confirmation.
void write_bench_json(std::string_view bench_name, const BenchOptions& options,
                      const std::vector<RunResult>& results);

}  // namespace nicmcast::harness
