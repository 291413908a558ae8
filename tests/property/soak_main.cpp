// soak_driver: the full-size chaos campaign.
//
//   soak_driver --iters 1000 --threads 8 --seed 1 --json BENCH_soak.json
//
// Every iteration derives one randomized scenario (cluster size/wiring,
// tree shape, injector family, workload mix, sequence-wrap and idle-GC
// toggles) from derive_seed(base_seed, index), runs it to drain with the
// ProtocolAuditor attached to every NIC, and checks all invariants.
// Failures are re-run on the main thread (runs are deterministic) so the
// report carries the shrunk minimal reproduction.  Exit status 1 when any
// scenario fails.
#include <cstdint>
#include <cstdio>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "harness/bench_io.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/run_spec.hpp"
#include "harness/runners.hpp"
#include "sim/random.hpp"
#include "sim/stats.hpp"
#include "soak.hpp"

namespace {

constexpr int kDefaultScenarios = 1000;

/// One splitmix64 step from `x`: the cross-check's scenario draws.
std::uint64_t draw(std::uint64_t x) {
  return nicmcast::sim::mix64(x + nicmcast::sim::kGoldenGamma);
}

/// With --shards N (N > 1), every scenario additionally runs a sharded-
/// fabric cross-check: one seeded run of a randomly drawn sharded family
/// (gm_mcast or multisend) on the PDES fabric at 1 shard and at a
/// per-scenario random shard count in [2, N], asserting the
/// shard-count-invariance half of the determinism contract (identical
/// deliveries and protocol totals).  A lossless draw also runs on the
/// classic stack, which must count the same protocol events as the fabric:
/// its sizes (64 B - 2 KB) are one packet per message, where the two
/// engines agree (DESIGN.md §4.5).  The requested count may exceed the
/// scenario's leaf-block count — switch_cut clamps it, and the check
/// reports the effective count it actually ran at.  The derivation uses
/// its own mix of the scenario seed, so soak::make_spec's RNG stream — and
/// with it every pinned soak golden — is untouched.
struct ShardCheck {
  bool ok = true;
  std::size_t shards = 0;
  std::string failure;
};

ShardCheck run_sharded_crosscheck(std::uint64_t seed,
                                  std::size_t max_shards) {
  using namespace nicmcast;
  ShardCheck check;
  check.shards = 2 + draw(seed ^ 0x5aad) % (max_shards - 1);

  harness::RunSpec spec;
  constexpr harness::Experiment kFamilies[] = {
      harness::Experiment::kGmMulticast, harness::Experiment::kMultisend};
  spec.experiment = kFamilies[draw(seed ^ 0xfa417) % std::size(kFamilies)];
  spec.nodes = 24 + draw(seed ^ 0xfab) % 233;  // 24..256 endpoints
  spec.wiring = harness::Wiring::kClos;
  spec.switch_radix = 16;
  spec.message_bytes = std::size_t{1} << (6 + draw(seed ^ 0xb17e5) % 6);
  spec.tree = (draw(seed ^ 0x7ee) & 1) != 0
                  ? harness::TreeShape::kBinomial
                  : harness::TreeShape::kChain;
  spec.loss_rate = static_cast<double>(draw(seed ^ 0x1055) % 4) * 0.01;
  if (spec.experiment == harness::Experiment::kMultisend) {
    spec.destinations = spec.nodes - 1;  // flat send: a star tree
  }
  spec.warmup = 0;
  spec.iterations = 1;
  spec.seed = seed;

  spec.shards = 1;
  const harness::RunResult base = harness::run_sharded(spec);
  spec.shards = check.shards;
  const harness::RunResult sharded = harness::run_sharded(spec);
  // switch_cut may have clamped the request on a small Clos; report what
  // actually ran.
  check.shards = sharded.engine.shard_count;

  const auto mismatch = [&](const char* what, std::uint64_t a,
                            std::uint64_t b) {
    if (a == b) return;
    check.ok = false;
    check.failure += std::string(to_string(spec.experiment)) + " " + what +
                     " " + std::to_string(a) + " != " + std::to_string(b) +
                     " at " + std::to_string(check.shards) + " shards; ";
  };
  mismatch("deliveries",
           static_cast<std::uint64_t>(base.metric("deliveries")),
           static_cast<std::uint64_t>(sharded.metric("deliveries")));
  mismatch("packets_sent", base.nic_totals.packets_sent,
           sharded.nic_totals.packets_sent);
  mismatch("retransmissions", base.nic_totals.retransmissions,
           sharded.nic_totals.retransmissions);
  mismatch("crc_drops", base.nic_totals.crc_drops,
           sharded.nic_totals.crc_drops);
  mismatch("acks_sent", base.nic_totals.acks_sent,
           sharded.nic_totals.acks_sent);
  if (base.metric("delivered") != 1.0 || sharded.metric("delivered") != 1.0) {
    check.ok = false;
    check.failure += "incomplete delivery; ";
  }
  if (spec.loss_rate == 0.0) {
    spec.shards = 1;
    const nic::NicStats classic = harness::run_one(spec).nic_totals;
    const nic::NicStats& fabric = sharded.nic_totals;
    mismatch("classic packets_sent", classic.packets_sent,
             fabric.packets_sent);
    mismatch("classic packets_received", classic.packets_received,
             fabric.packets_received);
    mismatch("classic acks_sent", classic.acks_sent, fabric.acks_sent);
    mismatch("classic forwards", classic.forwards, fabric.forwards);
    mismatch("classic header_rewrites", classic.header_rewrites,
             fabric.header_rewrites);
  }
  return check;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nicmcast;

  harness::BenchOptions options =
      harness::parse_bench_options(argc, argv, "soak");
  const int scenarios =
      options.iterations_or(kDefaultScenarios);

  harness::print_header(
      "Chaos soak: randomized workloads under stateful fault injection",
      "protocol invariants from the reliability design (paper sect. 6)");

  std::vector<harness::RunSpec> specs;
  specs.reserve(static_cast<std::size_t>(scenarios));
  for (int i = 0; i < scenarios; ++i) {
    harness::RunSpec spec;
    spec.experiment = harness::Experiment::kCustom;
    spec.seed = harness::derive_seed(options.base_seed,
                                     static_cast<std::size_t>(i));
    const soak::SoakSpec derived = soak::make_spec(spec.seed);
    spec.label = std::string("soak/") + soak::to_string(derived.injector);
    spec.nodes = derived.nodes;
    spec.message_bytes = derived.message_bytes;
    spec.iterations = 1;
    spec.warmup = 0;
    specs.push_back(std::move(spec));
  }

  // The runner re-derives the same seeds; keep derive_seeds on so --threads
  // never changes which scenario an index maps to.
  const std::size_t max_shards = options.shards;
  const harness::ParallelRunner runner(harness::runner_options(options));
  const std::vector<harness::RunResult> results =
      runner.run(specs, [max_shards](const harness::RunSpec& spec) {
        const soak::SoakResult r = soak::run_soak_seed(spec.seed);
        harness::RunResult out;
        out.spec = spec;
        out.engine = r.engine;
        out.set_metric("ok", r.ok ? 1.0 : 0.0);
        if (max_shards > 1) {
          const ShardCheck check =
              run_sharded_crosscheck(spec.seed, max_shards);
          out.set_metric("sharded_ok", check.ok ? 1.0 : 0.0);
          out.set_metric("sharded_shards",
                         static_cast<double>(check.shards));
        }
        out.set_metric("retransmissions",
                       static_cast<double>(r.retransmissions));
        out.set_metric("conn_resets", static_cast<double>(r.conn_resets));
        out.set_metric("conns_reclaimed",
                       static_cast<double>(r.conns_reclaimed));
        out.set_metric("data_sent", static_cast<double>(r.ledger.data_sent));
        out.set_metric("data_accepted",
                       static_cast<double>(r.ledger.data_accepted));
        out.set_metric("ctrl_sent", static_cast<double>(r.ledger.ctrl_sent));
        return out;
      });

  std::map<std::string, sim::OnlineStats> retx_per_family;
  std::vector<std::uint64_t> failed_seeds;
  std::vector<std::uint64_t> sharded_failed_seeds;
  for (const harness::RunResult& result : results) {
    sim::OnlineStats one;
    one.add(result.metric("retransmissions"));
    retx_per_family[result.spec.label].merge(one);
    if (result.metric("ok") != 1.0) failed_seeds.push_back(result.spec.seed);
    if (result.metric("sharded_ok", 1.0) != 1.0) {
      sharded_failed_seeds.push_back(result.spec.seed);
    }
  }

  sim::OnlineStats total;
  for (const auto& [family, retx] : retx_per_family) {
    std::printf("  %-18s %5zu scenarios | retx mean %7.1f max %6.0f\n",
                family.c_str(), retx.count(), retx.mean(), retx.max());
    total.merge(retx);
  }
  std::printf("  %-18s %5zu scenarios, %zu failed | retx mean %7.1f\n",
              "total", total.count(), failed_seeds.size(), total.mean());

  if (max_shards > 1) {
    std::printf("  %-18s %5zu scenarios, %zu failed (shards 2..%zu)\n",
                "sharded x-check", results.size(),
                sharded_failed_seeds.size(), max_shards);
  }

  for (const std::uint64_t seed : failed_seeds) {
    // Deterministic: replaying the seed reproduces and shrinks the failure.
    const soak::SoakResult r = soak::run_soak_seed(seed);
    std::printf("FAIL seed %llu: %s\n",
                static_cast<unsigned long long>(seed), r.failure.c_str());
  }
  for (const std::uint64_t seed : sharded_failed_seeds) {
    const ShardCheck check = run_sharded_crosscheck(seed, max_shards);
    std::printf("SHARDED FAIL seed %llu: %s\n",
                static_cast<unsigned long long>(seed),
                check.failure.c_str());
  }

  harness::write_bench_json("soak", options, results);
  return failed_seeds.empty() && sharded_failed_seeds.empty() ? 0 : 1;
}
