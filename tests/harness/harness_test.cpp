// Harness tests: sweep expansion order, deterministic seed derivation, and
// the load-bearing ParallelRunner property — results are bit-identical no
// matter how many worker threads execute the specs.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "harness/bench_io.hpp"
#include "harness/experiment_util.hpp"
#include "harness/parallel_runner.hpp"
#include "harness/runners.hpp"
#include "harness/sweep.hpp"

namespace nicmcast::harness {
namespace {

TEST(Sweep, FirstAxisVariesSlowest) {
  RunSpec base;
  const auto specs = Sweep(base)
                         .message_sizes({16, 64})
                         .node_counts({4, 8})
                         .algos({Algo::kHostBased, Algo::kNicBased})
                         .build();
  ASSERT_EQ(specs.size(), 8u);
  // size is outermost, algo innermost.
  EXPECT_EQ(specs[0].message_bytes, 16u);
  EXPECT_EQ(specs[0].nodes, 4u);
  EXPECT_EQ(specs[0].algo, Algo::kHostBased);
  EXPECT_EQ(specs[1].algo, Algo::kNicBased);
  EXPECT_EQ(specs[2].nodes, 8u);
  EXPECT_EQ(specs[3].nodes, 8u);
  EXPECT_EQ(specs[4].message_bytes, 64u);
  EXPECT_EQ(specs[7].message_bytes, 64u);
  EXPECT_EQ(specs[7].nodes, 8u);
  EXPECT_EQ(specs[7].algo, Algo::kNicBased);
}

TEST(Sweep, DestinationCountsCoupleNodes) {
  RunSpec base;
  base.experiment = Experiment::kMultisend;
  const auto specs = Sweep(base).destination_counts({3, 8}).build();
  ASSERT_EQ(specs.size(), 2u);
  EXPECT_EQ(specs[0].destinations, 3u);
  EXPECT_EQ(specs[0].nodes, 4u);
  EXPECT_EQ(specs[1].destinations, 8u);
  EXPECT_EQ(specs[1].nodes, 9u);
}

TEST(DeriveSeed, StableAndWellSpread) {
  EXPECT_EQ(derive_seed(1, 0), derive_seed(1, 0));
  EXPECT_NE(derive_seed(1, 0), derive_seed(1, 1));
  EXPECT_NE(derive_seed(1, 0), derive_seed(2, 0));
  EXPECT_NE(derive_seed(1, 0), 0u);
  // Never hands the engine the degenerate all-zero seed.
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_NE(derive_seed(0, i), 0u);
  }
}

TEST(ParallelRunner, AppliesDerivedSeedsInSpecOrder) {
  RunSpec base;
  base.experiment = Experiment::kCustom;
  const std::vector<RunSpec> specs(5, base);
  RunnerOptions options;
  options.threads = 3;
  options.base_seed = 99;
  const auto results =
      ParallelRunner(options).run(specs, [](const RunSpec& spec) {
        RunResult r;
        r.spec = spec;
        return r;
      });
  ASSERT_EQ(results.size(), 5u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_EQ(results[i].spec.seed, derive_seed(99, i));
  }
}

TEST(ParallelRunner, HonoursPresetSeedsWhenDerivationOff) {
  RunSpec spec;
  spec.experiment = Experiment::kCustom;
  spec.seed = 1234;
  RunnerOptions options;
  options.derive_seeds = false;
  const auto results =
      ParallelRunner(options).run({spec}, [](const RunSpec& s) {
        RunResult r;
        r.spec = s;
        return r;
      });
  EXPECT_EQ(results[0].spec.seed, 1234u);
}

TEST(ParallelRunner, RethrowsWorkerException) {
  RunSpec base;
  base.experiment = Experiment::kCustom;
  base.label = "boom";
  const std::vector<RunSpec> specs(4, base);
  RunnerOptions options;
  options.threads = 2;
  EXPECT_THROW(
      (void)ParallelRunner(options).run(specs,
                                        [](const RunSpec&) -> RunResult {
                                          throw std::runtime_error("boom");
                                        }),
      std::runtime_error);
}

TEST(ParallelRunner, CustomExperimentNeedsCustomRunFn) {
  RunSpec spec;
  spec.experiment = Experiment::kCustom;
  EXPECT_THROW((void)ParallelRunner().run({spec}), std::invalid_argument);
}

// The acceptance property: a sweep executed on 1 thread and on 8 threads
// produces byte-identical latency samples, NIC counters and metrics.
TEST(ParallelRunner, ThreadCountDoesNotChangeResults) {
  RunSpec base;
  base.experiment = Experiment::kGmMulticast;
  base.nodes = 4;
  base.warmup = 1;
  base.iterations = 3;
  const auto specs = Sweep(base)
                         .message_sizes({16, 4096})
                         .algos({Algo::kHostBased, Algo::kNicBased})
                         .build();

  RunnerOptions serial;
  serial.threads = 1;
  RunnerOptions parallel;
  parallel.threads = 8;
  const auto a = ParallelRunner(serial).run(specs);
  const auto b = ParallelRunner(parallel).run(specs);

  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].spec.seed, b[i].spec.seed);
    ASSERT_EQ(a[i].latency_us.count(), b[i].latency_us.count());
    for (std::size_t s = 0; s < a[i].latency_us.count(); ++s) {
      EXPECT_EQ(a[i].latency_us.samples()[s], b[i].latency_us.samples()[s]);
    }
    EXPECT_EQ(a[i].nic_totals.packets_sent, b[i].nic_totals.packets_sent);
    EXPECT_EQ(a[i].nic_totals.packets_received,
              b[i].nic_totals.packets_received);
    EXPECT_EQ(a[i].nic_totals.forwards, b[i].nic_totals.forwards);
    EXPECT_EQ(a[i].nic_totals.acks_sent, b[i].nic_totals.acks_sent);
    EXPECT_EQ(a[i].nic_totals.retransmissions,
              b[i].nic_totals.retransmissions);
    ASSERT_EQ(a[i].metrics.size(), b[i].metrics.size());
    for (std::size_t m = 0; m < a[i].metrics.size(); ++m) {
      EXPECT_EQ(a[i].metrics[m].first, b[i].metrics[m].first);
      EXPECT_EQ(a[i].metrics[m].second, b[i].metrics[m].second);
    }
  }
  // And the whole JSON document (modulo the recorded thread count).
  BenchOptions opts1;
  opts1.threads = 1;
  BenchOptions opts8;
  opts8.threads = 8;
  auto doc1 = bench_document("determinism", opts1, a);
  auto doc8 = bench_document("determinism", opts8, b);
  EXPECT_EQ(doc1.at("runs").dump(), doc8.at("runs").dump());
}

TEST(Runners, SkewBcastReportsNicTotals) {
  RunSpec spec;
  spec.experiment = Experiment::kSkewBcast;
  spec.nodes = 4;
  spec.message_bytes = 8;
  spec.warmup = 1;
  spec.iterations = 2;
  const RunResult r = run_skew_bcast(spec);
  EXPECT_GT(r.nic_totals.packets_sent, 0u);
  EXPECT_GT(r.metric("avg_bcast_cpu_us"), 0.0);
}

TEST(Runners, BarrierAndAllreduceHonourSpecFaults) {
  // Both families install the spec's fault model like every other runner:
  // under 5% loss each recovers by resending and still completes.
  for (const Experiment experiment :
       {Experiment::kBarrier, Experiment::kAllreduce}) {
    for (const Algo algo : {Algo::kNicBased, Algo::kHostBased}) {
      RunSpec spec;
      spec.experiment = experiment;
      spec.algo = algo;
      spec.nodes = 16;
      spec.loss_rate = 0.05;
      spec.seed = 3;
      spec.iterations = 10;
      const RunResult r = run_one(spec);
      const nic::NicStats& nic = r.nic_totals;
      EXPECT_GT(nic.retransmissions + nic.barrier_resends + nic.reduce_resends,
                0u)
          << to_string(experiment) << " " << to_string(algo);
    }
  }
}

TEST(Runners, GmMcastDeliversBitExactPayloads) {
  RunSpec spec;
  spec.experiment = Experiment::kGmMulticast;
  spec.nodes = 4;
  spec.message_bytes = 256;
  spec.warmup = 1;
  spec.iterations = 2;
  const RunResult r = run_one(spec);
  EXPECT_EQ(r.metric("delivered"), 1.0);
  EXPECT_EQ(r.latency_us.count(), 2u);
  EXPECT_GT(r.mean_us(), 0.0);
}

TEST(BenchIo, DocumentMatchesSchema) {
  RunSpec spec;
  spec.experiment = Experiment::kGmMulticast;
  spec.nodes = 4;
  spec.warmup = 0;
  spec.iterations = 1;
  spec.seed = 0xFFFFFFFFFFFFFFFFull;  // needs string encoding to survive
  const auto results =
      ParallelRunner(RunnerOptions{.threads = 1, .derive_seeds = false})
          .run({spec});

  BenchOptions options;
  const auto doc = bench_document("unit", options, results);
  EXPECT_EQ(doc.at("schema").as_string(), "nicmcast-bench-v1");
  EXPECT_EQ(doc.at("bench").as_string(), "unit");
  EXPECT_EQ(doc.at("threads").as_number(), 1.0);
  ASSERT_EQ(doc.at("runs").size(), 1u);

  const auto& run = doc.at("runs").as_array()[0];
  EXPECT_EQ(run.at("spec").at("experiment").as_string(), "gm_mcast");
  EXPECT_EQ(run.at("spec").at("seed").as_string(), "18446744073709551615");
  EXPECT_TRUE(run.at("latency_us").is_object());
  EXPECT_EQ(run.at("latency_us").at("count").as_number(), 1.0);
  EXPECT_TRUE(run.at("nic").at("packets_sent").as_number() > 0);
  EXPECT_TRUE(run.at("metrics").contains("delivered"));

  // The document survives a parse round-trip unchanged.
  const auto reparsed = json::Value::parse(doc.dump(2));
  EXPECT_EQ(reparsed, doc);
}

TEST(BenchIo, EmptySeriesSerialisesAsNull) {
  RunResult r;
  r.spec.experiment = Experiment::kSkewBcast;
  r.set_metric("avg_bcast_cpu_us", 12.5);
  const auto v = result_to_json(r);
  EXPECT_TRUE(v.at("latency_us").is_null());
  EXPECT_EQ(v.at("metrics").at("avg_bcast_cpu_us").as_number(), 12.5);
}

// Regression: with a 16-bit NodeId this loop never terminated at
// n == 65536 (the counter wrapped to 0 before reaching the bound) and any
// id past the wrap aliased a lower endpoint.
TEST(ExperimentUtil, EveryoneButTerminatesAndStaysDistinctPastSixtyFourK) {
  const std::size_t n = 65536 + 3;
  const std::vector<net::NodeId> dests = everyone_but(0, n);
  ASSERT_EQ(dests.size(), n - 1);
  EXPECT_EQ(dests.front(), 1u);
  EXPECT_EQ(dests.back(), 65538u);
  // Strictly increasing == no wrap-around aliasing anywhere in the range.
  EXPECT_TRUE(std::is_sorted(dests.begin(), dests.end()));
  EXPECT_EQ(std::adjacent_find(dests.begin(), dests.end()), dests.end());
}

}  // namespace
}  // namespace nicmcast::harness
