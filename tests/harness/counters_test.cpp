// Counter plumbing tests: each counter is declared once, in its layer's
// struct, and reaches RunResult and the bench JSON through one mapping —
// so classic and sharded runs serialise one key set, the NicStats field
// list covers the struct, and a custom run body collects real counters.
#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <set>
#include <string>

#include "harness/bench_io.hpp"
#include "harness/experiment_util.hpp"
#include "harness/runners.hpp"

namespace nicmcast::harness {
namespace {

std::set<std::string> keys_of(const json::Value& object) {
  std::set<std::string> keys;
  for (const auto& [key, value] : object.as_object()) keys.insert(key);
  return keys;
}

RunSpec mcast_spec(std::size_t nodes, std::size_t shards) {
  RunSpec spec;
  spec.experiment = Experiment::kGmMulticast;
  spec.nodes = nodes;
  spec.algo = Algo::kNicBased;
  spec.warmup = 1;
  spec.iterations = 2;
  spec.shards = shards;
  spec.seed = 7;
  return spec;
}

TEST(CounterPlumbing, NicStatsFieldListNamesEveryFieldOnce) {
  // Beside the static_assert that sizes the list to the struct, pairwise
  // distinct entries mean every field has exactly one entry.
  const auto& fields = nic::kNicStatsFields;
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    for (std::size_t j = i + 1; j < std::size(fields); ++j) {
      EXPECT_NE(fields[i].member, fields[j].member) << fields[i].name;
      EXPECT_STRNE(fields[i].name, fields[j].name);
    }
  }
  nic::NicStats one;
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    one.*fields[i].member = i + 1;
  }
  nic::NicStats sum;
  nic::accumulate(sum, one);
  nic::accumulate(sum, one);
  for (std::size_t i = 0; i < std::size(fields); ++i) {
    EXPECT_EQ(sum.*fields[i].member, 2 * (i + 1)) << fields[i].name;
  }
}

TEST(CounterPlumbing, ClassicAndShardedRunsShareOneJsonKeySet) {
  const RunResult classic = run_one(mcast_spec(4, 1));
  const RunResult sharded = run_one(mcast_spec(64, 2));
  const json::Value classic_json = result_to_json(classic);
  const json::Value sharded_json = result_to_json(sharded);

  EXPECT_EQ(keys_of(classic_json.at("engine")),
            keys_of(sharded_json.at("engine")));
  EXPECT_EQ(keys_of(classic_json.at("nic")), keys_of(sharded_json.at("nic")));
  EXPECT_EQ(keys_of(classic_json.at("spec")),
            keys_of(sharded_json.at("spec")));

  for (const auto* run : {&classic, &sharded}) {
    const json::Value doc = result_to_json(*run);
    const json::Value& nic = doc.at("nic");
    EXPECT_EQ(nic.size(), std::size(nic::kNicStatsFields));
    for (const nic::NicStatsField& field : nic::kNicStatsFields) {
      ASSERT_TRUE(nic.contains(field.name)) << field.name;
      EXPECT_EQ(nic.at(field.name).as_number(),
                static_cast<double>(run->nic_totals.*field.member))
          << field.name;
    }
    const json::Value& engine = doc.at("engine");
    EXPECT_EQ(static_cast<double>(engine.at("shard_order_hashes").size()),
              engine.at("shard_count").as_number());
    EXPECT_NE(engine.at("event_order_hash").as_string(), "0");
  }
  EXPECT_EQ(classic.engine.shard_count, 0u);
  EXPECT_EQ(sharded.engine.shard_count, 2u);
  EXPECT_GT(sharded.nic_totals.descriptor_allocs, 0u);

  const json::Value& engine = sharded_json.at("engine");
  double max_peak = 0.0;
  for (const json::Value& peak :
       engine.at("shard_wheel_occupancy_peak").as_array()) {
    max_peak = std::max(max_peak, peak.as_number());
  }
  EXPECT_GT(max_peak, 0.0);
  EXPECT_EQ(engine.at("wheel_occupancy_peak").as_number(), max_peak);
}

TEST(CounterPlumbing, CollectReportsACustomBodysEngineCounters) {
  RunSpec spec;
  spec.experiment = Experiment::kCustom;
  spec.nodes = 4;
  gm::Cluster cluster(cluster_config(spec));
  cluster.port(1).provide_receive_buffer(64);
  cluster.simulator().spawn([](gm::Cluster& cl) -> sim::Task<void> {
    co_await cl.port(0).send(1, 0, gm::Payload(8), 0);
  }(cluster));
  cluster.simulator().spawn([](gm::Cluster& cl) -> sim::Task<void> {
    co_await cl.port(1).receive();
  }(cluster));
  cluster.run();

  RunResult result;
  collect(cluster, result);
  EXPECT_EQ(result.engine.event_order_hash,
            cluster.simulator().event_order_hash());
  EXPECT_NE(result.engine.event_order_hash, 0u);
  EXPECT_GT(result.engine.events_executed, 0u);
  EXPECT_EQ(result.engine.events_executed,
            cluster.simulator().queue_stats().executed);
  EXPECT_GT(result.engine.routes_materialized, 0u);
  EXPECT_GT(result.nic_totals.packets_sent, 0u);
}

}  // namespace
}  // namespace nicmcast::harness
