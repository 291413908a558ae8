// Extension — scalability study (paper §7: the scheme "requires minimum
// memory and processor resources at the NIC, which promises good
// scalability"; GM "can support clusters of over 10,000 nodes").
//
// Three phases:
//  1. the latency sweep: GM-level multicast from 8 to 128 nodes on radix-16
//     Clos fabrics — NIC-based improvement factor, tree shapes, NIC barrier
//     vs host dissemination barrier;
//  2. the scale sweep: single NIC-based multicasts on 128 -> 512 -> 2048 ->
//     4096-node Clos fabrics at radix 16 and 32, timed sequentially, with
//     per-point events/sec, per-point peak RSS, and the engine's lazy-route
//     / timing-wheel counters in the JSON ("scale-<nodes>x<radix>" labels).
//     The 128/512 points are pinned (exact event_order_hash + events/sec
//     floor) by scripts/check_bench_regression.py --scale, which CI runs on
//     the full sweep; the larger points document wall clock and memory, and
//     --max-nodes (the sanitizer jobs' cap) leaves them out.  A full
//     all-pairs route table at 4096 nodes
//     would hold 4096*4095 routes; the engine's routes_materialized counter
//     in the JSON shows what the lazy RouteTable actually computed;
//  3. the sharded sweep over the two families the sharded fabric runs:
//     gm_mcast ("pshard-*") from 512 to 65536 endpoints at 1-8 shards and
//     the paper's flat multisend ("msend-*") from 512 to 65536 endpoints.
//     Its CI-pinned 512-endpoint pairs run before any larger point.  The
//     host layers (MPI_Bcast, skew, the NIC barrier) run on the classic
//     stack only and have no sharded points.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#if defined(__linux__) && defined(__GLIBC__)
#include <malloc.h>
#endif

#include "harness/bench_io.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/run_spec.hpp"
#include "harness/runners.hpp"

namespace nicmcast::bench {
namespace {

using namespace nicmcast::harness;

/// Resets the kernel's peak-RSS mark (VmHWM) to the current RSS, so the
/// next peak_rss_kb() covers only what runs in between; false where that
/// is unavailable.  malloc_trim comes first: glibc otherwise keeps freed
/// small blocks resident, and the reset would keep earlier points' peak.
bool reset_peak_rss() {
#if defined(__linux__) && defined(__GLIBC__)
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5" << std::flush;
  return static_cast<bool>(clear_refs);
#else
  return false;
#endif
}

/// VmHWM, the peak resident set since the last reset, in KiB (0 where
/// /proc/self/status is unavailable).
std::uint64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

/// Runs one sweep point on its own and records its host cost: wall time,
/// events/sec, the point's own peak RSS (0 where it cannot be measured)
/// and the all-pairs route count the lazy routes are judged against.
RunResult timed_point(const RunSpec& spec) {
  const bool rss = reset_peak_rss();
  // NOLINTNEXTLINE(nicmcast-wall-clock): host wall time measures bench throughput, not simulated time
  const auto start = std::chrono::steady_clock::now();
  RunResult result = run_one(spec);
  const double wall_s =
      // NOLINTNEXTLINE(nicmcast-wall-clock): host wall time measures bench throughput, not simulated time
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();

  const auto events = static_cast<double>(result.engine.events_executed);
  const auto nodes = static_cast<double>(spec.nodes);
  result.set_metric("events", events);
  result.set_metric("wall_ms", wall_s * 1e3);
  result.set_metric("events_per_sec", events / wall_s);
  result.set_metric("peak_rss_kb",
                    rss ? static_cast<double>(peak_rss_kb()) : 0.0);
  result.set_metric("full_pairs", nodes * (nodes - 1));
  return result;
}

/// "<family>-<nodes>x<radix>", plus "-s<shards>" for the sharded axes: the
/// label the checker pins a point under and --only selects it by.
std::string point_label(const char* family, std::size_t nodes,
                        std::size_t radix, std::size_t shards = 0) {
  std::string label = std::string(family) + "-" + std::to_string(nodes) +
                      "x" + std::to_string(radix);
  if (shards > 0) label += "-s" + std::to_string(shards);
  return label;
}

// Seven runs per node count; a hand-built spec list (not a cartesian grid).
constexpr std::size_t kRunsPerScale = 7;

std::vector<RunSpec> specs_for(std::size_t nodes, int iterations) {
  RunSpec mcast;
  mcast.experiment = Experiment::kGmMulticast;
  mcast.nodes = nodes;
  mcast.warmup = 2;
  mcast.iterations = iterations;

  std::vector<RunSpec> specs;
  for (auto [bytes, algo, tree] :
       {std::tuple{std::size_t{512}, Algo::kHostBased, TreeShape::kBinomial},
        std::tuple{std::size_t{512}, Algo::kNicBased, TreeShape::kPostal},
        std::tuple{std::size_t{16384}, Algo::kHostBased, TreeShape::kBinomial},
        std::tuple{std::size_t{16384}, Algo::kNicBased, TreeShape::kPostal},
        std::tuple{std::size_t{16384}, Algo::kNicBased, TreeShape::kChain}}) {
    RunSpec s = mcast;
    s.message_bytes = bytes;
    s.algo = algo;
    s.tree = tree;
    specs.push_back(std::move(s));
  }

  RunSpec barrier;
  barrier.experiment = Experiment::kBarrier;
  barrier.nodes = nodes;
  barrier.iterations = 10;
  barrier.algo = Algo::kHostBased;  // dissemination
  specs.push_back(barrier);
  barrier.algo = Algo::kNicBased;
  specs.push_back(barrier);
  return specs;
}

/// One scale-sweep point: a NIC-based multicast on an `nodes`-endpoint
/// radix-`radix` Clos, run sequentially so wall clock and RSS are its own.
RunSpec scale_spec(const BenchOptions& options, std::size_t nodes,
                   std::size_t radix, std::size_t index) {
  RunSpec spec;
  spec.experiment = Experiment::kGmMulticast;
  spec.label = point_label("scale", nodes, radix);
  spec.nodes = nodes;
  spec.wiring = Wiring::kClos;
  spec.switch_radix = radix;
  spec.message_bytes = 512;
  spec.algo = Algo::kNicBased;
  spec.tree = TreeShape::kPostal;
  spec.warmup = 1;
  spec.iterations = 2;
  spec.seed = derive_seed(options.base_seed, 1000 + index);
  return spec;
}

/// One sharded-sweep point on a radix-16 Clos.  shards == 1 goes through
/// run_one and thus the classic sequential engine — the bit-identical
/// baseline the determinism contract pins — while shards > 1 runs the
/// conservative-PDES fabric.
RunSpec pshard_spec(const BenchOptions& options, std::size_t nodes,
                    std::size_t shards) {
  RunSpec spec;
  spec.experiment = Experiment::kGmMulticast;
  spec.label = point_label("pshard", nodes, 16, shards);
  spec.nodes = nodes;
  spec.wiring = Wiring::kClos;
  spec.switch_radix = 16;
  spec.message_bytes = 512;
  spec.algo = Algo::kNicBased;
  // Binomial, not postal: flat-array construction stays trivial at 65536
  // endpoints and both engines build the identical tree.
  spec.tree = TreeShape::kBinomial;
  spec.warmup = 1;
  spec.iterations = 2;
  spec.shards = shards;
  // Seeded per node count (not per point): every shard count of one fabric
  // answers for the same seeded scenario, which is what makes the
  // cross-shard-count invariance rows in BENCH_scale.json comparable.
  spec.seed = derive_seed(options.base_seed, 3000 + nodes);
  return spec;
}

/// One multisend point: the paper's flat NIC-based multisend (Fig. 3's
/// star, no forwarding) on a radix-16 Clos.
/// shards == 1 dispatches to the classic gm::Cluster coroutine stack, the
/// bit-identical baseline.
RunSpec msend_spec(const BenchOptions& options, std::size_t nodes,
                   std::size_t shards) {
  RunSpec spec;
  spec.experiment = Experiment::kMultisend;
  spec.label = point_label("msend", nodes, 16, shards);
  spec.nodes = nodes;
  spec.destinations = nodes - 1;
  spec.wiring = Wiring::kClos;
  spec.switch_radix = 16;
  spec.message_bytes = 512;
  spec.algo = Algo::kNicBased;
  spec.warmup = 1;
  spec.iterations = 2;
  spec.shards = shards;
  // Seeded per node count, like the pshard points: every shard count of
  // one fabric answers for the same seeded scenario.
  spec.seed = derive_seed(options.base_seed, 5000 + nodes);
  return spec;
}

/// One sharded-sweep point: the family's spec builder plus its size.
struct ShardPoint {
  RunSpec (*spec_of)(const BenchOptions&, std::size_t, std::size_t);
  std::size_t nodes;
  std::size_t shards;
};

/// The sharded sweep: `points` timed in order, one table row each.
void run_shard_sweep(const BenchOptions& options,
                     const std::vector<ShardPoint>& points,
                     std::vector<RunResult>& results) {
  std::printf("\n%22s | %10s | %9s | %12s | %11s | %9s | %9s\n",
              "sharded point", "events", "wall ms", "events/s", "x-shard msg",
              "lbts rnds", "blk waits");
  std::size_t skipped = 0;
  for (const auto& [spec_of, nodes, shards] : points) {
    if (options.max_nodes != 0 && nodes > options.max_nodes) {
      ++skipped;
      continue;
    }
    const RunSpec spec = spec_of(options, nodes, options.shards_or(shards));
    if (!options.selected(spec.label)) continue;
    RunResult r = timed_point(spec);
    std::printf("%22s | %10.0f | %9.1f | %12.0f | %11llu | %9llu | %9llu\n",
                spec.label.c_str(), r.metric("events"), r.metric("wall_ms"),
                r.metric("events_per_sec"),
                static_cast<unsigned long long>(r.engine.cross_shard_msgs),
                static_cast<unsigned long long>(r.engine.lbts_rounds),
                static_cast<unsigned long long>(r.engine.blocked_waits));
    results.push_back(std::move(r));
  }
  if (skipped > 0) {
    std::printf("  (%zu points above --max-nodes %zu skipped)\n", skipped,
                options.max_nodes);
  }
}

void run_scale_sweep(const BenchOptions& options,
                     std::vector<RunResult>& results) {
  struct Point {
    std::size_t nodes;
    std::size_t radix;
  };
  const std::vector<Point> points{{128, 16}, {128, 32}, {512, 16}, {512, 32},
                                  {2048, 16}, {2048, 32}, {4096, 16},
                                  {4096, 32}};

  std::printf("\n%12s | %10s | %9s | %12s | %12s | %11s\n", "scale point",
              "events", "wall ms", "events/s", "routes (lazy)", "peak RSS");
  std::size_t skipped = 0;
  for (std::size_t i = 0; i < points.size(); ++i) {
    const auto [nodes, radix] = points[i];
    if (options.max_nodes != 0 && nodes > options.max_nodes) {
      ++skipped;
      continue;
    }
    const RunSpec spec = scale_spec(options, nodes, radix, i);
    if (!options.selected(spec.label)) continue;
    RunResult r = timed_point(spec);
    std::printf("%8zux%-3zu | %10.0f | %9.1f | %12.0f | %6llu/%-6.0f | %8.0f KB\n",
                nodes, radix, r.metric("events"), r.metric("wall_ms"),
                r.metric("events_per_sec"),
                static_cast<unsigned long long>(r.engine.routes_materialized),
                r.metric("full_pairs"), r.metric("peak_rss_kb"));
    results.push_back(std::move(r));
  }
  if (skipped > 0) {
    std::printf("  (%zu points above --max-nodes %zu skipped)\n", skipped,
                options.max_nodes);
  }
}

/// The 8-128-node latency sweep: NIC- vs host-based factors per scale.
void run_shape_table(const BenchOptions& options,
                     std::vector<RunResult>& results) {
  const std::vector<std::size_t> scales{8, 16, 32, 64, 128};
  const int iterations = options.iterations_or(10);

  std::vector<RunSpec> specs;
  for (std::size_t nodes : scales) {
    auto batch = specs_for(nodes, iterations);
    specs.insert(specs.end(), std::make_move_iterator(batch.begin()),
                 std::make_move_iterator(batch.end()));
  }
  results = ParallelRunner(runner_options(options)).run(specs);

  std::printf("%6s | %26s | %36s | %21s\n", "nodes",
              "512B mcast HB/NB/factor",
              "16KB mcast HB/NB-postal/NB-chain/best", "barrier host/NIC");
  for (std::size_t ni = 0; ni < scales.size(); ++ni) {
    const std::size_t at = ni * kRunsPerScale;
    const double hb_s = results[at + 0].mean_us();
    const double nb_s = results[at + 1].mean_us();
    const double hb_l = results[at + 2].mean_us();
    const double nb_postal = results[at + 3].mean_us();
    const double nb_chain = results[at + 4].mean_us();
    const double nb_best = std::min(nb_postal, nb_chain);
    const double bar_host = results[at + 5].metric("wall_us_per_round");
    const double bar_nic = results[at + 6].metric("wall_us_per_round");
    std::printf(
        "%6zu | %8.1f %7.1f %7.2fx | %8.1f %8.1f %8.1f %6.2fx | %8.1f %8.1f\n",
        scales[ni], hb_s, nb_s, hb_s / nb_s, hb_l, nb_postal, nb_chain,
        hb_l / nb_best, bar_host, bar_nic);
  }
  std::printf(
      "\nShape check: the small-message factor and the NIC barrier's edge\n"
      "persist at every scale.  For 16KB the fan-out-2 postal tree leaves\n"
      "no wire headroom (each hop emits twice its input rate), so Clos\n"
      "spine contention past 16 nodes saturates it; a fan-out-1 chain\n"
      "restores the win at 32 nodes, and past 64 nodes large-message NB\n"
      "needs topology-aware trees — construction the paper explicitly\n"
      "scopes out ('our intent is not to study the effects of hardware\n"
      "topology', §5).\n");
}

void run(const BenchOptions& options) {
  print_header(
      "Extension — scalability sweep (Clos fabrics up to 128 nodes)",
      "Paper §7: minimal NIC state, no centralized manager => the benefit "
      "should grow with system size.");
  std::vector<RunResult> results;
  // The latency sweep's points carry no labels, so --only skips it.
  if (options.only.empty()) run_shape_table(options, results);

  print_header(
      "Extension — scale sweep (128 -> 4096-node Clos, radix 16/32)",
      "Timing-wheel scheduler + lazy routes: memory and events/sec "
      "at fabric sizes the eager all-pairs table could not reach.");
  run_scale_sweep(options, results);

  print_header(
      "Extension — sharded PDES sweep (512 -> 65536-node Clos, radix 16)",
      "Conservative synchronization at switch-cut granularity for the two "
      "families the fabric runs, gm_mcast (pshard) and the paper's flat "
      "multisend (msend): s1 = the classic sequential engine, s>1 = the "
      "sharded fabric (DESIGN.md 4.5, 4.6).");
  // The 512-endpoint s1/s4 pairs are CI-pinned, and they run before any
  // point above 4,096 endpoints: those leave resident memory behind that
  // malloc_trim cannot return, which would count in a later point's
  // peak_rss_kb.  pshard-65536 keeps no classic baseline: it dates from
  // the 16-bit NodeId days (the coroutine stack topped out one node
  // short), and re-baselining now would redate every recorded
  // comparison — msend-65536 covers the widened id instead.  The
  // blocked_waits column is the synchronization-stall report.
  run_shard_sweep(options,
                  {{pshard_spec, 512, 1}, {pshard_spec, 512, 4},
                   {msend_spec, 512, 1}, {msend_spec, 512, 4},
                   {pshard_spec, 4096, 1}, {pshard_spec, 4096, 4},
                   {pshard_spec, 16384, 1}, {pshard_spec, 16384, 2},
                   {pshard_spec, 16384, 4}, {pshard_spec, 16384, 8},
                   {pshard_spec, 32768, 1}, {pshard_spec, 32768, 4},
                   {pshard_spec, 65536, 2}, {pshard_spec, 65536, 4},
                   {pshard_spec, 65536, 8},
                   {msend_spec, 16384, 1}, {msend_spec, 16384, 4},
                   {msend_spec, 65536, 4}},
                  results);

  write_bench_json("ext_scalability", options, results);
}

}  // namespace
}  // namespace nicmcast::bench

int main(int argc, char** argv) {
  nicmcast::bench::run(
      nicmcast::harness::parse_bench_options(argc, argv, "ext_scalability"));
  return 0;
}
