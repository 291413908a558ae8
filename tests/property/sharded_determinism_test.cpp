// Sharded-PDES determinism goldens: the per-shard hash vectors of the
// fig5-like, reliability and scale scenarios are pinned per shard count.
//
// The determinism contract for the --shards axis (DESIGN.md §4.5):
//   - shards == 1 dispatches to the classic sequential engine, so its
//     event_order_hash golden here is the same one every BENCH_*.json
//     already pins;
//   - shards > 1 cannot reproduce the sequential hash (event sequence
//     numbers are assigned per shard, so the interleaving is different by
//     construction) — instead each (scenario, shard count) pins its
//     per-shard hash vector, which IS reproducible: cross-shard messages
//     are merged in (when, src_shard, send_seq) order, never in thread
//     arrival order;
//   - protocol totals (deliveries, retransmissions, drops) are invariant
//     across shard counts, because loss is a counter hash applied at the
//     receiver.
//
// If an intentional fabric change re-times events, re-derive the constants
// with the DISABLED_PrintGoldens probe below and say so in the commit
// message:
//
//   ./test_property_sharded --gtest_also_run_disabled_tests
//       --gtest_filter='*PrintGoldens*'
#include <cstdint>
#include <cstdio>
#include <vector>

#include <gtest/gtest.h>

#include "harness/run_result.hpp"
#include "harness/run_spec.hpp"
#include "harness/runners.hpp"

namespace nicmcast::harness {
namespace {

RunSpec fig5_like() {
  RunSpec spec;
  spec.experiment = Experiment::kGmMulticast;
  spec.nodes = 64;
  spec.wiring = Wiring::kClos;
  spec.switch_radix = 16;
  spec.message_bytes = 512;
  spec.tree = TreeShape::kPostal;
  spec.warmup = 1;
  spec.iterations = 3;
  spec.seed = 1;
  return spec;
}

RunSpec reliability() {
  RunSpec spec = fig5_like();
  spec.nodes = 128;
  spec.tree = TreeShape::kBinomial;
  spec.loss_rate = 0.02;
  spec.seed = 7;
  return spec;
}

RunSpec scale() {
  RunSpec spec = fig5_like();
  spec.nodes = 256;
  spec.message_bytes = 4096;
  spec.seed = 42;
  return spec;
}

struct Golden {
  const char* name;
  RunSpec (*spec)();
  /// Classic-engine hash at shards == 1 (the pre-axis behaviour).
  std::uint64_t sequential_hash;
  /// Per-shard hash vectors for shards = 2, 4, 8 (index 0, 1, 2).
  std::vector<std::vector<std::uint64_t>> shard_hashes;
};

const std::size_t kShardCounts[] = {2, 4, 8};

std::vector<Golden> goldens();  // constants at the bottom of the file

RunResult run_with_shards(RunSpec spec, std::size_t shards) {
  spec.shards = shards;
  return run_one(spec);
}

TEST(ShardedDeterminism, SequentialHashUnchangedByTheShardsAxis) {
  for (const Golden& g : goldens()) {
    const RunResult r = run_with_shards(g.spec(), 1);
    EXPECT_EQ(r.engine.event_order_hash, g.sequential_hash)
        << g.name << ": --shards 1 must be bit-identical to the classic "
        << "engine (every checked-in BENCH hash depends on it)";
    EXPECT_EQ(r.engine.shard_count, 0u)
        << g.name << ": shards == 1 must not enter the sharded fabric";
  }
}

TEST(ShardedDeterminism, PerShardHashVectorsMatchGoldens) {
  for (const Golden& g : goldens()) {
    for (std::size_t i = 0; i < std::size(kShardCounts); ++i) {
      const std::size_t shards = kShardCounts[i];
      const RunResult r = run_with_shards(g.spec(), shards);
      ASSERT_EQ(r.engine.shard_order_hashes.size(), shards)
          << g.name << " s" << shards;
      EXPECT_EQ(r.engine.shard_order_hashes, g.shard_hashes[i])
          << g.name << " s" << shards
          << ": per-shard event order diverged from the pinned golden";
    }
  }
}

TEST(ShardedDeterminism, RepeatedShardedRunsAreBitIdentical) {
  const RunSpec spec = reliability();
  const RunResult a = run_with_shards(spec, 4);
  const RunResult b = run_with_shards(spec, 4);
  EXPECT_EQ(a.engine.shard_order_hashes, b.engine.shard_order_hashes);
  EXPECT_EQ(a.engine.event_order_hash, b.engine.event_order_hash);
  EXPECT_EQ(a.engine.cross_shard_msgs, b.engine.cross_shard_msgs);
  EXPECT_EQ(a.engine.lbts_rounds, b.engine.lbts_rounds);
  EXPECT_EQ(a.nic_totals.retransmissions, b.nic_totals.retransmissions);
}

TEST(ShardedDeterminism, ProtocolTotalsInvariantAcrossShardCounts) {
  // Lossy scenario: the counter-hash loss model must keep every protocol
  // total identical no matter how the fabric is partitioned.
  const RunSpec spec = reliability();
  const RunResult base = run_with_shards(spec, 2);
  EXPECT_GT(base.nic_totals.retransmissions, 0u);
  for (const std::size_t shards : {4u, 8u}) {
    const RunResult r = run_with_shards(spec, shards);
    EXPECT_EQ(r.metric("deliveries"), base.metric("deliveries")) << shards;
    EXPECT_EQ(r.nic_totals.packets_sent, base.nic_totals.packets_sent);
    EXPECT_EQ(r.nic_totals.retransmissions, base.nic_totals.retransmissions);
    EXPECT_EQ(r.nic_totals.crc_drops, base.nic_totals.crc_drops);
    EXPECT_EQ(r.metric("delivered"), 1.0) << shards;
  }
}

// Probe: prints the golden table in source form.  Not a test.
TEST(ShardedDeterminism, DISABLED_PrintGoldens) {
  for (const Golden& g : goldens()) {
    const RunResult seq = run_with_shards(g.spec(), 1);
    std::printf("{\"%s\", ..., 0x%016llxULL,\n {\n", g.name,
                static_cast<unsigned long long>(seq.engine.event_order_hash));
    for (const std::size_t shards : kShardCounts) {
      const RunResult r = run_with_shards(g.spec(), shards);
      std::printf("  {");
      for (const std::uint64_t h : r.engine.shard_order_hashes) {
        std::printf("0x%016llxULL, ", static_cast<unsigned long long>(h));
      }
      std::printf("},\n");
    }
    std::printf(" }},\n");
  }
}

// Golden constants, derived with the probe above.  Machine-independent:
// neither engine consults wall-clock time, container iteration order or
// addresses for scheduling decisions.
std::vector<Golden> goldens() {
  return {
      {"fig5", &fig5_like, 0x70fcbcec9e1b8ae8ULL,
       {
           {0x0d0c91cd6c692b1dULL, 0x193832c801327f05ULL},
           {0xdba2a14634efb5c5ULL, 0xeec311bc170ffab9ULL,
            0xf7c70fabdcf17141ULL, 0x2ed3bc1976f140e1ULL},
           {0xebd87c22fd995da9ULL, 0x8c1dc44108f361c1ULL,
            0x2e27a34862e16b71ULL, 0x823c90cbab5cb281ULL,
            0xdfe0b6798a97d88dULL, 0x3e073ce5db723345ULL,
            0xb78cb37c788e4a65ULL, 0xf8a078febd9f86c1ULL},
       }},
      {"reliability", &reliability, 0xc6ea15d92c06319bULL,
       {
           {0xd136f87c6d646066ULL, 0xa1a973ea2889378fULL},
           {0x9d2a1835c5f706e4ULL, 0xf389253b1e568d4fULL,
            0x940591a6a5488675ULL, 0x7c0f5a7a23fe5f82ULL},
           {0x9451124d991c2916ULL, 0x295e6b9aab6c1cd5ULL,
            0x5f1a298e30586cfdULL, 0x03669b9398ce0dd1ULL,
            0xfcc82dd9cb370f61ULL, 0xbe7fcbe91f84f7bbULL,
            0x7867601e4eac5dd1ULL, 0xdbab5b2e9c5fdae2ULL},
       }},
      {"scale", &scale, 0x53d5bb4e1bd894e8ULL,
       {
           {0x1daa3e3239ec9cc1ULL, 0x42d0e0dedce1dd55ULL},
           {0x268dc8877fcf2885ULL, 0x0ed2a02e2075a4d1ULL,
            0x940197ba31a616b9ULL, 0x5a0e12c5ac041755ULL},
           {0xf71dde054660c011ULL, 0x9b78aaa2e9cec045ULL,
            0xb4c5b84c8477d4fdULL, 0xc01236b71cda1cadULL,
            0x2f463aec81b58505ULL, 0x78edf7af7eabc445ULL,
            0x99cf9262d7fd3e5dULL, 0x1db9b6220aae5d5dULL},
       }},
  };
}

}  // namespace
}  // namespace nicmcast::harness
