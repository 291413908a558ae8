// Engine-throughput regression bench.
//
// Where the figure benches reproduce the paper, this bench watches the
// simulator itself: end-to-end events/sec through the four hot paths the
// engine optimises (raw event-queue churn, coroutine resumption, NIC-based
// multicast forwarding, and the chaos-soak protocol mix).  Every scenario
// is fixed-seed and fully deterministic, so the executed-event count is a
// constant and only the wall clock varies run to run.
//
//   sim_microbench [--json PATH] [--seed S] [--iters R]
//
//   --iters R  timing repetitions per scenario (default 3); the fastest
//              repetition is reported, which is the standard way to damp
//              scheduler noise on shared CI runners.
//
// The JSON document (nicmcast-bench-v1) carries one run per scenario with
// metrics {events, wall_ms, events_per_sec} plus the engine counter block;
// BENCH_simperf.json pins before/after entries of exactly this shape and
// the CI bench-smoke job compares a fresh run against it.
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/bench_io.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/runners.hpp"
#include "sim/simulator.hpp"
#include "soak.hpp"

namespace {

using namespace nicmcast;

double seconds_since(std::chrono::steady_clock::time_point start) {
  // NOLINTNEXTLINE(nicmcast-wall-clock): host wall time measures bench throughput, not simulated time
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// What one timed repetition of a scenario produced.  `events` and the
/// counters are identical across repetitions (runs are deterministic);
/// only `wall_s` varies.
struct Repetition {
  double wall_s = 0.0;
  std::uint64_t events = 0;
  net::EngineCounters engine;
  nic::NicStats nic_totals;
};

void fill_engine(const sim::Simulator& sim, Repetition& rep) {
  net::accumulate(rep.engine, sim.queue_stats());
  rep.engine.event_order_hash = sim.event_order_hash();
  rep.events = rep.engine.events_executed;
}

// ---- Scenario 1: raw event-queue churn ------------------------------------
//
// A ring of self-rescheduling callbacks, the pure schedule/pop cycle with
// no protocol on top.  Every 8th firing also schedules a decoy and cancels
// it, so the cancellation path is part of the measured loop.

struct ChurnNode {
  sim::Simulator* sim = nullptr;
  std::uint64_t remaining = 0;

  void fire() {
    if (remaining == 0) return;
    --remaining;
    if ((remaining & 7u) == 0) {
      const sim::EventId decoy = sim->schedule_after(sim::usec(5), [] {});
      sim->cancel(decoy);
    }
    sim->schedule_after(sim::nsec(100), [this] { fire(); });
  }
};

Repetition run_event_churn() {
  constexpr std::size_t kRing = 64;
  constexpr std::uint64_t kFiringsPerNode = 20'000;

  sim::Simulator sim;
  std::deque<ChurnNode> ring;  // deque: stable addresses for [this] captures
  // NOLINTNEXTLINE(nicmcast-wall-clock): host wall time measures bench throughput, not simulated time
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kRing; ++i) {
    ChurnNode& node = ring.emplace_back();
    node.sim = &sim;
    node.remaining = kFiringsPerNode;
    sim.schedule_after(sim::nsec(static_cast<std::int64_t>(i)),
                       [&node] { node.fire(); });
  }
  sim.run();

  Repetition rep;
  rep.wall_s = seconds_since(start);
  fill_engine(sim, rep);
  return rep;
}

// ---- Scenario 2: coroutine delay chains -----------------------------------
//
// Every co_await sim.wait() is one scheduled callback resuming a coroutine
// frame; this is the path every simulated host program lives on.

sim::Task<void> delay_chain(sim::Simulator& sim, int hops) {
  for (int i = 0; i < hops; ++i) {
    co_await sim.wait(sim::nsec(50));
  }
}

Repetition run_coroutine_chain() {
  constexpr std::size_t kChains = 64;
  constexpr int kHops = 20'000;

  sim::Simulator sim;
  // NOLINTNEXTLINE(nicmcast-wall-clock): host wall time measures bench throughput, not simulated time
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kChains; ++i) {
    sim.spawn(delay_chain(sim, kHops), "chain" + std::to_string(i));
  }
  sim.run();

  Repetition rep;
  rep.wall_s = seconds_since(start);
  fill_engine(sim, rep);
  return rep;
}

// ---- Scenario 3: NIC-based multicast forwarding ---------------------------
//
// The paper's headline path: a 32-node Clos cluster broadcasting 16 KiB
// messages over a postal tree with NIC forwarding, run through the stock
// harness runner (cluster construction included, as the figure benches do).

Repetition run_mcast_forwarding(std::uint64_t base_seed) {
  harness::RunSpec spec;
  spec.experiment = harness::Experiment::kGmMulticast;
  spec.label = "mcast-forwarding";
  spec.nodes = 32;
  spec.message_bytes = 16 * 1024;
  spec.algo = harness::Algo::kNicBased;
  spec.tree = harness::TreeShape::kPostal;
  spec.warmup = 2;
  spec.iterations = 20;
  spec.seed = harness::derive_seed(base_seed, 0);

  // NOLINTNEXTLINE(nicmcast-wall-clock): host wall time measures bench throughput, not simulated time
  const auto start = std::chrono::steady_clock::now();
  const harness::RunResult result = harness::run_gm_mcast(spec);
  Repetition rep;
  rep.wall_s = seconds_since(start);
  rep.engine = result.engine;
  rep.nic_totals = result.nic_totals;
  rep.events = result.engine.events_executed;
  if (result.metric("delivered") != 1.0) {
    throw std::logic_error("sim_microbench: multicast payload corrupted");
  }
  return rep;
}

// ---- Scenario 4: chaos-soak protocol mix ----------------------------------
//
// A fixed slice of the randomized soak campaign: small messages, faults,
// retransmissions, control handshakes — the workload where event-queue and
// descriptor churn dominate over payload size.

Repetition run_chaos_soak(std::uint64_t base_seed) {
  constexpr std::size_t kScenarios = 150;
  constexpr std::uint64_t kPrime = 0x100000001b3ULL;

  Repetition rep;
  rep.engine.event_order_hash = 0xcbf29ce484222325ULL;
  // NOLINTNEXTLINE(nicmcast-wall-clock): host wall time measures bench throughput, not simulated time
  const auto start = std::chrono::steady_clock::now();
  for (std::size_t i = 0; i < kScenarios; ++i) {
    const std::uint64_t seed = harness::derive_seed(base_seed, i);
    const soak::SoakResult result = soak::run_soak(soak::make_spec(seed));
    if (!result.ok) {
      throw std::logic_error("sim_microbench: soak scenario failed: " +
                             result.failure);
    }
    rep.events += result.engine.events_executed;
    rep.engine.event_order_hash =
        (rep.engine.event_order_hash ^ result.engine.event_order_hash) *
        kPrime;
  }
  rep.wall_s = seconds_since(start);
  rep.engine.events_executed = rep.events;
  return rep;
}

// ---- Driver ---------------------------------------------------------------

template <typename Body>
harness::RunResult time_scenario(const char* name, int repeats,
                                 std::uint64_t base_seed, Body&& body) {
  Repetition best;
  for (int r = 0; r < repeats; ++r) {
    Repetition rep = body();
    if (r == 0 || rep.wall_s < best.wall_s) best = rep;
  }
  const double events_per_sec = static_cast<double>(best.events) / best.wall_s;
  std::printf("  %-18s %12llu events | %8.1f ms | %10.0f events/s\n", name,
              static_cast<unsigned long long>(best.events), best.wall_s * 1e3,
              events_per_sec);

  harness::RunResult out;
  out.spec.experiment = harness::Experiment::kCustom;
  out.spec.label = name;
  out.spec.seed = base_seed;
  out.spec.warmup = 0;
  out.spec.iterations = repeats;
  out.engine = best.engine;
  out.nic_totals = best.nic_totals;
  out.set_metric("events", static_cast<double>(best.events));
  out.set_metric("wall_ms", best.wall_s * 1e3);
  out.set_metric("events_per_sec", events_per_sec);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  harness::BenchOptions options =
      harness::parse_bench_options(argc, argv, "sim_microbench");
  const int repeats = options.iterations_or(3);

  harness::print_header(
      "Simulator engine microbench: end-to-end events/sec",
      "engine hot paths (event queue, coroutines, forwarding, soak mix)");

  std::vector<harness::RunResult> results;
  if (options.selected("event-churn")) {
    results.push_back(time_scenario("event-churn", repeats, options.base_seed,
                                    [] { return run_event_churn(); }));
  }
  if (options.selected("coroutine-chain")) {
    results.push_back(time_scenario("coroutine-chain", repeats,
                                    options.base_seed,
                                    [] { return run_coroutine_chain(); }));
  }
  if (options.selected("mcast-forwarding")) {
    results.push_back(time_scenario(
        "mcast-forwarding", repeats, options.base_seed,
        [&] { return run_mcast_forwarding(options.base_seed); }));
  }
  if (options.selected("chaos-soak")) {
    results.push_back(time_scenario(
        "chaos-soak", repeats, options.base_seed,
        [&] { return run_chaos_soak(options.base_seed); }));
  }

  harness::write_bench_json("sim_microbench", options, results);
  return 0;
}
