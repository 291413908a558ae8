#include "mpi/skew.hpp"

#include <algorithm>

#include "sim/stats.hpp"

namespace nicmcast::mpi {

SkewResult run_skew_experiment(const SkewConfig& config) {
  gm::ClusterConfig cluster_config;
  cluster_config.nodes = config.nodes;
  cluster_config.seed = config.seed;
  gm::Cluster cluster(cluster_config);
  SkewResult result = run_skew_experiment(config, cluster);
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    nic::accumulate(result.nic_totals, cluster.nic(i).stats());
  }
  result.queue_stats = cluster.simulator().queue_stats();
  result.event_order_hash = cluster.simulator().event_order_hash();
  return result;
}

SkewResult run_skew_experiment(const SkewConfig& config,
                               gm::Cluster& cluster) {
  MpiConfig mpi_config;
  mpi_config.bcast_algorithm = config.algorithm;
  World world(cluster, mpi_config);

  sim::OnlineStats cpu_all;
  sim::OnlineStats cpu_max_per_rank;
  sim::OnlineStats applied_skew;

  world.launch([&, config](Process& self) -> sim::Task<void> {
    // Independent, deterministic skew stream per rank.
    sim::Rng rng(config.seed * 1315423911u + self.rank());
    sim::OnlineStats my_cpu;
    double my_max = 0.0;
    for (int iter = 0; iter < config.warmup + config.iterations; ++iter) {
      co_await self.barrier();
      if (self.rank() != config.root && config.max_skew > sim::Duration{0}) {
        const double half = config.max_skew.microseconds() / 2.0;
        const double skew_us = rng.uniform(-half, half);
        if (skew_us > 0) {
          // Positive skew: the rank computes before entering the bcast.
          co_await self.simulator().wait(sim::usec(skew_us));
          if (iter >= config.warmup) applied_skew.add(skew_us);
        } else if (iter >= config.warmup) {
          applied_skew.add(0.0);
        }
      }
      Payload data(config.message_bytes);
      if (self.rank() == config.root) {
        std::fill(data.begin(), data.end(), std::byte{0x5a});
      }
      co_await self.bcast(data, config.root);
      if (data.size() != config.message_bytes) {
        throw std::logic_error("skew experiment: bad broadcast payload");
      }
      if (iter >= config.warmup) {
        const double us = self.stats().last_bcast_time.microseconds();
        my_cpu.add(us);
        if (us > my_max) my_max = us;
      }
    }
    cpu_all.add(my_cpu.mean());
    cpu_max_per_rank.add(my_max);
  });
  world.run();

  SkewResult result;
  result.avg_bcast_cpu_us = cpu_all.mean();
  result.max_bcast_cpu_us = cpu_max_per_rank.mean();
  result.avg_applied_skew_us =
      applied_skew.count() > 0 ? applied_skew.mean() : 0.0;
  return result;
}

}  // namespace nicmcast::mpi
