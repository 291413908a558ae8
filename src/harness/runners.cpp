#include "harness/runners.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <vector>

#include "harness/experiment_util.hpp"
#include "mcast/bcast.hpp"
#include "mpi/mpi.hpp"
#include "mpi/skew.hpp"
#include "net/fault_model.hpp"
#include "sim/random.hpp"

namespace nicmcast::harness {

namespace {

void install_faults(gm::Cluster& cluster, const RunSpec& spec) {
  if (spec.loss_rate <= 0 && spec.corrupt_rate <= 0) return;
  sim::Rng rng(spec.seed);
  switch (spec.faults) {
    case FaultFamily::kUniform:
      cluster.network().set_fault_injector(std::make_unique<net::RandomFaults>(
          spec.loss_rate, spec.corrupt_rate, std::move(rng)));
      return;
    case FaultFamily::kBurst: {
      // Gilbert–Elliott tuned so the stationary drop rate matches
      // loss_rate: the chain is bad p_g2b/(p_g2b+p_b2g) of the time, so
      // in-burst loss is loss_rate scaled up by the inverse of that.
      net::GilbertElliottFaults::Params params;
      params.p_good_to_bad = 0.02;
      params.p_bad_to_good = 0.25;
      const double bad_fraction =
          params.p_good_to_bad / (params.p_good_to_bad + params.p_bad_to_good);
      params.good_drop = 0.0;
      params.bad_drop = std::min(0.95, spec.loss_rate / bad_fraction);
      params.bad_corrupt = std::min(0.5, spec.corrupt_rate / bad_fraction);
      cluster.network().set_fault_injector(
          std::make_unique<net::GilbertElliottFaults>(params, std::move(rng)));
      return;
    }
    case FaultFamily::kAckTargeted: {
      net::LinkFilter filter;
      filter.traffic = net::TrafficClass::kAck;
      cluster.network().set_fault_injector(
          std::make_unique<net::TargetedFaults>(
              filter, std::make_unique<net::RandomFaults>(
                          spec.loss_rate, spec.corrupt_rate, std::move(rng))));
      return;
    }
    case FaultFamily::kBlackout: {
      // Periodic total outages with duty cycle ~ loss_rate, far shorter
      // than max_retries * retransmit_timeout so nothing gives up.
      sim::Simulator& sim = cluster.simulator();
      auto blackout = std::make_unique<net::BlackoutFaults>(
          [&sim] { return sim.now(); });
      const sim::Duration period = sim::msec(2);
      const sim::Duration outage =
          sim::usec(std::min(0.5, spec.loss_rate * 5.0) * 2000.0);
      sim::TimePoint at = sim::TimePoint{} + sim::usec(300);
      for (int k = 0; k < 64; ++k) {
        blackout->add_window(at, at + outage);
        at = at + period;
      }
      if (spec.corrupt_rate > 0) {
        auto composite = std::make_unique<net::CompositeFaults>();
        composite->add(std::move(blackout));
        composite->add(std::make_unique<net::RandomFaults>(
            0.0, spec.corrupt_rate, std::move(rng)));
        cluster.network().set_fault_injector(std::move(composite));
      } else {
        cluster.network().set_fault_injector(std::move(blackout));
      }
      return;
    }
  }
}

}  // namespace

void collect(gm::Cluster& cluster, RunResult& result) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    nic::accumulate(result.nic_totals, cluster.nic(i).stats());
  }
  net::accumulate(result.engine, cluster.simulator().queue_stats());
  net::accumulate(result.engine, cluster.network().route_stats());
  result.engine.event_order_hash = cluster.simulator().event_order_hash();
}

gm::ClusterConfig::Wiring resolve_wiring(const RunSpec& spec) {
  switch (spec.wiring) {
    case Wiring::kSingleSwitch:
      return gm::ClusterConfig::Wiring::kSingleSwitch;
    case Wiring::kClos:
      return gm::ClusterConfig::Wiring::kClos;
    case Wiring::kBackToBack:
      return gm::ClusterConfig::Wiring::kBackToBack;
    case Wiring::kAuto:
      break;
  }
  return spec.nodes > 16 ? gm::ClusterConfig::Wiring::kClos
                         : gm::ClusterConfig::Wiring::kSingleSwitch;
}

gm::ClusterConfig cluster_config(const RunSpec& spec) {
  gm::ClusterConfig config;
  config.nodes = spec.nodes;
  config.wiring = resolve_wiring(spec);
  config.switch_radix = spec.switch_radix;
  config.nic = spec.nic;
  config.nic_options = spec.nic_options;
  config.seed = spec.seed;
  return config;
}

mcast::Tree build_tree(const RunSpec& spec,
                       const std::vector<net::NodeId>& dests) {
  switch (spec.tree) {
    case TreeShape::kBinomial:
      return mcast::build_binomial_tree(0, dests);
    case TreeShape::kChain:
      return mcast::build_chain_tree(0, dests);
    case TreeShape::kFlat:
      return mcast::build_flat_tree(0, dests);
    case TreeShape::kPostal:
      break;
  }
  const auto cost =
      spec.algo == Algo::kNicBased
          ? mcast::PostalCostModel::nic_based(spec.message_bytes, spec.nic,
                                              net::NetworkConfig{})
          : mcast::PostalCostModel::host_based(spec.message_bytes, spec.nic,
                                               net::NetworkConfig{});
  return mcast::build_postal_tree(0, dests, cost);
}

RunResult run_gm_mcast(const RunSpec& spec) {
  RunResult result;
  result.spec = spec;

  gm::Cluster cluster(cluster_config(spec));
  install_faults(cluster, spec);

  const bool nic_based = spec.algo == Algo::kNicBased;
  const mcast::Tree tree = build_tree(spec, everyone_but(0, spec.nodes));
  const net::GroupId group = 1;
  if (nic_based) mcast::install_group(cluster, tree, group);

  const int total = spec.warmup + spec.iterations;
  for (net::NodeId node : tree.nodes()) {
    if (node != tree.root()) {
      cluster.port(node).provide_receive_buffers(
          static_cast<std::size_t>(total),
          std::max<std::size_t>(spec.message_bytes, 64));
    }
  }

  auto started = std::make_shared<std::vector<sim::TimePoint>>(total);
  auto done = std::make_shared<std::vector<sim::TimePoint>>(total);
  auto barrier = std::make_shared<SimBarrier>(tree.size());
  auto delivered = std::make_shared<bool>(true);

  const std::size_t bytes = spec.message_bytes;
  cluster.run_on_all([tree, group, nic_based, bytes, total, started, done,
                      barrier, delivered](gm::Cluster& cl,
                                          net::NodeId me) -> sim::Task<void> {
    for (int iter = 0; iter < total; ++iter) {
      co_await barrier->arrive();
      if (me == tree.root()) {
        (*started)[iter] = cl.simulator().now();
      }
      gm::Payload data;
      if (me == tree.root()) {
        data = make_payload(bytes, static_cast<std::uint8_t>(iter));
      }
      gm::Payload got;
      if (nic_based) {
        got = co_await mcast::nic_bcast(cl.port(me), tree, group,
                                        std::move(data),
                                        static_cast<std::uint32_t>(iter));
      } else {
        got = co_await mcast::host_bcast(cl.port(me), tree, std::move(data),
                                         static_cast<std::uint32_t>(iter));
      }
      if (got.size() != bytes) {
        throw std::logic_error("harness: broadcast payload lost");
      }
      if (!same_payload(got,
                        make_payload(bytes, static_cast<std::uint8_t>(iter)))) {
        *delivered = false;  // recorded, not fatal: reliability benches report it
      }
      auto& d = (*done)[iter];
      d = std::max(d, cl.simulator().now());
    }
  });
  cluster.run();

  for (int iter = spec.warmup; iter < total; ++iter) {
    result.latency_us.add(
        ((*done)[iter] - (*started)[iter]).microseconds());
  }
  collect(cluster, result);
  result.set_metric("delivered", *delivered ? 1.0 : 0.0);
  return result;
}

RunResult run_multisend(const RunSpec& spec) {
  if (spec.destinations == 0 || spec.nodes != spec.destinations + 1) {
    throw std::invalid_argument(
        "run_multisend: need destinations >= 1 and nodes == destinations + 1");
  }
  RunResult result;
  result.spec = spec;

  gm::Cluster cluster(cluster_config(spec));
  install_faults(cluster, spec);

  const int total = spec.warmup + spec.iterations;
  for (std::size_t node = 1; node <= spec.destinations; ++node) {
    cluster.port(node).provide_receive_buffers(
        static_cast<std::size_t>(total),
        std::max<std::size_t>(spec.message_bytes, 64));
  }

  const bool nic_based = spec.algo == Algo::kNicBased;
  const std::size_t bytes = spec.message_bytes;
  const std::size_t k = spec.destinations;
  const int warmup = spec.warmup;
  sim::Series& latency = result.latency_us;
  cluster.simulator().spawn([](gm::Cluster& cl, std::size_t dests,
                               std::size_t size, bool nb, int wu, int rounds,
                               sim::Series& out) -> sim::Task<void> {
    gm::Port& port = cl.port(0);
    std::vector<net::NodeId> targets;
    for (std::size_t d = 1; d <= dests; ++d) {
      targets.push_back(static_cast<net::NodeId>(d));
    }
    for (int iter = 0; iter < rounds; ++iter) {
      const sim::TimePoint start = cl.simulator().now();
      gm::SendStatus status;
      if (nb) {
        // One posting; the NIC chains replicas via descriptor callbacks.
        status = co_await port.multisend(targets, 0, make_payload(size), 0);
      } else {
        // Host-based: one send per destination back to back.
        status = co_await port.send_each(targets, 0, make_payload(size), 0);
      }
      if (status != gm::SendStatus::kOk) {
        throw std::runtime_error(nb ? "harness: multisend failed"
                                    : "harness: unicast send failed");
      }
      if (iter >= wu) {
        out.add((cl.simulator().now() - start).microseconds());
      }
    }
  }(cluster, k, bytes, nic_based, warmup, total, latency));
  cluster.run();

  collect(cluster, result);
  return result;
}

RunResult run_mpi_bcast(const RunSpec& spec) {
  RunResult result;
  result.spec = spec;

  gm::Cluster cluster(cluster_config(spec));
  install_faults(cluster, spec);
  mpi::MpiConfig config;
  config.bcast_algorithm = spec.algo == Algo::kNicBased
                               ? mpi::BcastAlgorithm::kNicBased
                               : mpi::BcastAlgorithm::kHostBased;
  config.rdma_multicast = spec.rdma;
  mpi::World world(cluster, config);

  const int total = spec.warmup + spec.iterations;
  auto barrier = std::make_shared<SimBarrier>(spec.nodes);
  auto started = std::make_shared<std::vector<sim::TimePoint>>(total);
  auto done = std::make_shared<std::vector<sim::TimePoint>>(total);

  const std::size_t bytes = spec.message_bytes;
  world.launch([barrier, started, done, bytes,
                total](mpi::Process& self) -> sim::Task<void> {
    for (int iter = 0; iter < total; ++iter) {
      co_await barrier->arrive();
      if (self.rank() == 0) (*started)[iter] = self.simulator().now();
      mpi::Payload data(bytes);
      if (self.rank() == 0) {
        data = make_payload(bytes, static_cast<std::uint8_t>(iter));
      }
      co_await self.bcast(data, 0);
      if (!same_payload(data,
                        make_payload(bytes, static_cast<std::uint8_t>(iter)))) {
        throw std::logic_error("harness: corrupted MPI broadcast");
      }
      auto& d = (*done)[iter];
      d = std::max(d, self.simulator().now());
    }
  });
  world.run();

  for (int iter = spec.warmup; iter < total; ++iter) {
    result.latency_us.add(
        ((*done)[iter] - (*started)[iter]).microseconds());
  }
  collect(cluster, result);
  return result;
}

RunResult run_skew_bcast(const RunSpec& spec) {
  RunResult result;
  result.spec = spec;

  gm::Cluster cluster(cluster_config(spec));
  install_faults(cluster, spec);
  mpi::SkewConfig config;
  config.message_bytes = spec.message_bytes;
  // "Average skew" on the x-axis = mean |skew| of uniform[-M/2, M/2],
  // i.e. M/4 (the positive half averages M/4 and is applied; the negative
  // half is clipped to an immediate call).
  config.max_skew = sim::usec(spec.avg_skew_us * 4.0);
  config.iterations = spec.iterations;
  config.warmup = spec.warmup;
  config.algorithm = spec.algo == Algo::kNicBased
                         ? mpi::BcastAlgorithm::kNicBased
                         : mpi::BcastAlgorithm::kHostBased;
  config.seed = spec.seed;
  const mpi::SkewResult skew = mpi::run_skew_experiment(config, cluster);

  collect(cluster, result);
  result.set_metric("avg_bcast_cpu_us", skew.avg_bcast_cpu_us);
  result.set_metric("max_bcast_cpu_us", skew.max_bcast_cpu_us);
  result.set_metric("avg_applied_skew_us", skew.avg_applied_skew_us);
  return result;
}

RunResult run_barrier(const RunSpec& spec) {
  RunResult result;
  result.spec = spec;

  gm::Cluster cluster(cluster_config(spec));
  install_faults(cluster, spec);
  mpi::MpiConfig config;
  config.barrier_algorithm = spec.algo == Algo::kNicBased
                                 ? mpi::BarrierAlgorithm::kNicBased
                                 : mpi::BarrierAlgorithm::kDissemination;
  mpi::World world(cluster, config);

  const int rounds = spec.iterations;
  const double max_skew_us = spec.avg_skew_us;
  const std::uint64_t seed = spec.seed;
  const auto algorithm = config.barrier_algorithm;
  auto wall = std::make_shared<sim::Duration>();
  sim::Series& blocked = result.latency_us;
  world.launch([wall, &blocked, rounds, max_skew_us, seed,
                algorithm](mpi::Process& self) -> sim::Task<void> {
    sim::Rng rng(seed * 1315423911ULL +
                 static_cast<std::uint64_t>(self.rank()));
    co_await self.barrier(self.world_comm(), algorithm);  // bootstrap
    const sim::TimePoint start = self.simulator().now();
    for (int i = 0; i < rounds; ++i) {
      if (max_skew_us > 0 && self.rank() != 0) {
        co_await self.simulator().wait(
            sim::usec(rng.uniform(0, max_skew_us)));
      }
      const sim::TimePoint entered = self.simulator().now();
      co_await self.barrier(self.world_comm(), algorithm);
      blocked.add((self.simulator().now() - entered).microseconds());
    }
    if (self.rank() == 0) *wall = self.simulator().now() - start;
  });
  world.run();

  collect(cluster, result);
  result.set_metric("wall_us_per_round", wall->microseconds() / rounds);
  return result;
}

RunResult run_allreduce(const RunSpec& spec) {
  RunResult result;
  result.spec = spec;

  gm::Cluster cluster(cluster_config(spec));
  install_faults(cluster, spec);
  mpi::MpiConfig config;
  config.nic_reduction = spec.algo == Algo::kNicBased;
  mpi::World world(cluster, config);

  const int total = spec.warmup + spec.iterations;
  auto barrier = std::make_shared<SimBarrier>(spec.nodes);
  auto started = std::make_shared<std::vector<sim::TimePoint>>(total);
  auto done = std::make_shared<std::vector<sim::TimePoint>>(total);

  const std::size_t lanes = spec.lanes;
  const std::size_t nodes = spec.nodes;
  world.launch([barrier, started, done, lanes, total,
                nodes](mpi::Process& self) -> sim::Task<void> {
    for (int iter = 0; iter < total; ++iter) {
      co_await barrier->arrive();
      if (self.rank() == 0) (*started)[iter] = self.simulator().now();
      std::vector<std::int64_t> mine(lanes, self.rank() + iter);
      const auto sum =
          co_await self.allreduce_sum(self.world_comm(), std::move(mine));
      const auto expected = static_cast<std::int64_t>(
          nodes * (nodes - 1) / 2 + nodes * static_cast<std::size_t>(iter));
      if (sum.at(0) != expected) {
        throw std::logic_error("harness: allreduce produced a wrong sum");
      }
      auto& d = (*done)[iter];
      d = std::max(d, self.simulator().now());
    }
  });
  world.run();

  for (int iter = spec.warmup; iter < total; ++iter) {
    result.latency_us.add(
        ((*done)[iter] - (*started)[iter]).microseconds());
  }
  collect(cluster, result);
  return result;
}

RunResult run_one(const RunSpec& spec) {
  if (spec.shards > 1) {
    // run_sharded validates the family itself, so a mis-sharded
    // allreduce/host-based spec gets a sharding-specific diagnostic.
    return run_sharded(spec);
  }
  switch (spec.experiment) {
    case Experiment::kGmMulticast:
      return run_gm_mcast(spec);
    case Experiment::kMultisend:
      return run_multisend(spec);
    case Experiment::kMpiBcast:
      return run_mpi_bcast(spec);
    case Experiment::kSkewBcast:
      return run_skew_bcast(spec);
    case Experiment::kBarrier:
      return run_barrier(spec);
    case Experiment::kAllreduce:
      return run_allreduce(spec);
    case Experiment::kCustom:
      break;
  }
  throw std::invalid_argument(
      "run_one: Experiment::kCustom needs an explicit run function");
}

}  // namespace nicmcast::harness
