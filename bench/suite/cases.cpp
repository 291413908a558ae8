#include "cases.hpp"

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <utility>
#include <vector>

#include "gm/cluster.hpp"
#include "harness/experiment_util.hpp"
#include "mcast/bcast.hpp"
#include "mpi/mpi.hpp"
#include "mpi/skew.hpp"
#include "net/fault_model.hpp"
#include "net/sharded_fabric.hpp"
#include "sim/random.hpp"

namespace nicmcast::suite {
namespace {

using harness::Algo;
using harness::Experiment;
using harness::FaultFamily;
using harness::RunSpec;

// The expected payload of every iteration, shared by sender and
// receivers.  make_payload depends only on (bytes, iter mod 256), so at
// most 256 distinct payloads are built per case.
class Payloads {
 public:
  Payloads(std::size_t bytes, int iterations) {
    const int distinct = std::min(iterations, 256);
    for (int salt = 0; salt < distinct; ++salt) {
      table_.push_back(
          harness::make_payload(bytes, static_cast<std::uint8_t>(salt)));
    }
  }
  [[nodiscard]] const gm::Payload& at(int iter) const {
    return table_[static_cast<std::size_t>(iter) % table_.size()];
  }

 private:
  std::vector<gm::Payload> table_;
};

// Same injectors as the stock runner's install_faults for the families
// the suite runs; the others are rejected rather than approximated.
void install_faults(gm::Cluster& cluster, const RunSpec& spec) {
  sim::Rng rng(spec.seed);
  switch (spec.faults) {
    case FaultFamily::kUniform:
      cluster.network().set_fault_injector(std::make_unique<net::RandomFaults>(
          spec.loss_rate, spec.corrupt_rate, std::move(rng)));
      return;
    case FaultFamily::kBurst: {
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
    case FaultFamily::kBlackout:
      break;
  }
  throw std::invalid_argument("suite: blackout faults are not a suite case");
}

// Builds the cluster a classic spec describes, under its setup spans.
std::unique_ptr<gm::Cluster> make_cluster(const RunSpec& spec,
                                          SpanRecorder& rec) {
  std::unique_ptr<gm::Cluster> cluster;
  {
    const ScopedSpan s(rec, span::kCluster);
    cluster = std::make_unique<gm::Cluster>(harness::cluster_config(spec));
  }
  if (spec.loss_rate > 0 || spec.corrupt_rate > 0) {
    const ScopedSpan s(rec, span::kFaults);
    install_faults(*cluster, spec);
  }
  return cluster;
}

// Runs the cluster under a sim span, then collects its counters under the
// collect span, which also times the cluster's destruction.
template <typename Collect>
void run_and_collect(std::unique_ptr<gm::Cluster>& cluster,
                     const SpanKind& run_kind, SpanRecorder& rec, bool shim,
                     CaseOutcome& out, Collect&& collect) {
  RxShims shims;
  if (shim) shims.attach(*cluster);
  {
    ScopedSpan s(rec, run_kind);
    cluster->run();
    s.finish(shims.totals());
  }
  const ScopedSpan s(rec, span::kCollect);
  out.hash = cluster->simulator().event_order_hash();
  out.queue = cluster->simulator().queue_stats();
  for (std::size_t i = 0; i < cluster->size(); ++i) {
    nic::accumulate(out.nic, cluster->nic(i).stats());
  }
  out.net = cluster->network().stats();
  out.routes = cluster->network().route_stats();
  collect();
  cluster.reset();
}

double mean_latency_us(const std::vector<sim::TimePoint>& started,
                       const std::vector<sim::TimePoint>& done, int warmup) {
  double sum = 0.0;
  for (std::size_t i = static_cast<std::size_t>(warmup); i < done.size(); ++i) {
    sum += (done[i] - started[i]).microseconds();
  }
  const auto n = done.size() - static_cast<std::size_t>(warmup);
  return n == 0 ? 0.0 : sum / static_cast<double>(n);
}

// State shared by the coroutines of one collective case.
struct CollectiveState {
  CollectiveState(std::size_t parties, std::size_t bytes, int total)
      : barrier(parties), payloads(bytes, total), started(total), done(total) {}
  harness::SimBarrier barrier;
  Payloads payloads;
  std::vector<sim::TimePoint> started;
  std::vector<sim::TimePoint> done;
  IterationMarks marks;
  std::uint64_t deliveries = 0;
  std::uint64_t mismatches = 0;
};

// harness::run_gm_mcast.
CaseOutcome run_gm_mcast(const RunSpec& spec, SpanRecorder& rec, bool shim) {
  CaseOutcome out;
  auto cluster = make_cluster(spec, rec);
  const bool nic_based = spec.algo == Algo::kNicBased;
  mcast::Tree tree;
  {
    const ScopedSpan s(rec, span::kTree);
    tree = harness::build_tree(spec, harness::everyone_but(0, spec.nodes));
  }
  const net::GroupId group = 1;
  if (nic_based) {
    const ScopedSpan s(rec, span::kGroup);
    mcast::install_group(*cluster, tree, group);
  }
  const int total = spec.warmup + spec.iterations;
  {
    const ScopedSpan s(rec, span::kRxBuffers);
    for (net::NodeId node : tree.nodes()) {
      if (node != tree.root()) {
        cluster->port(node).provide_receive_buffers(
            static_cast<std::size_t>(total),
            std::max<std::size_t>(spec.message_bytes, 64));
      }
    }
  }

  const std::size_t bytes = spec.message_bytes;
  auto st = std::make_shared<CollectiveState>(tree.size(), bytes, total);
  {
    const ScopedSpan s(rec, span::kSpawn);
    cluster->run_on_all([tree, group, nic_based, bytes, total, st](
                            gm::Cluster& cl,
                            net::NodeId me) -> sim::Task<void> {
      const bool root = me == tree.root();
      for (int iter = 0; iter < total; ++iter) {
        co_await st->barrier.arrive();
        if (root) {
          st->marks.mark();
          st->started[iter] = cl.simulator().now();
        }
        const gm::Payload& expected = st->payloads.at(iter);
        gm::Payload data;
        if (root) data = expected;
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
          throw std::logic_error("suite: broadcast payload lost");
        }
        if (!root) {
          ++st->deliveries;
          if (got != expected) ++st->mismatches;
        }
        auto& d = st->done[iter];
        d = std::max(d, cl.simulator().now());
      }
      if (root) st->marks.mark();
    });
  }

  run_and_collect(cluster, span::kGmRun, rec, shim, out, [&] {
    out.sim_us = mean_latency_us(st->started, st->done, spec.warmup);
    out.deliveries = st->deliveries;
    out.payload_mismatches = st->mismatches;
  });
  out.expected_deliveries =
      static_cast<std::uint64_t>(tree.size() - 1) *
      static_cast<std::uint64_t>(total);
  out.counts_deliveries = true;
  out.checks_payload = true;
  st->marks.gaps_us(out.iter_us);
  out.first_iter_us = st->marks.first_us();
  return out;
}

// harness::run_multisend.  Receivers never run a program there, so their
// messages wait in the port inboxes; they are drained and compared after
// the hash is read.
CaseOutcome run_multisend(const RunSpec& spec, SpanRecorder& rec, bool shim) {
  if (spec.destinations == 0 || spec.nodes != spec.destinations + 1) {
    throw std::invalid_argument(
        "suite: multisend needs nodes == destinations + 1");
  }
  CaseOutcome out;
  auto cluster = make_cluster(spec, rec);
  const int total = spec.warmup + spec.iterations;
  {
    const ScopedSpan s(rec, span::kRxBuffers);
    for (std::size_t node = 1; node <= spec.destinations; ++node) {
      cluster->port(node).provide_receive_buffers(
          static_cast<std::size_t>(total),
          std::max<std::size_t>(spec.message_bytes, 64));
    }
  }

  const bool nic_based = spec.algo == Algo::kNicBased;
  const gm::Payload expected = harness::make_payload(spec.message_bytes);
  std::vector<double> latency;
  IterationMarks marks;
  {
    const ScopedSpan s(rec, span::kSpawn);
    cluster->simulator().spawn(
        [](gm::Cluster& cl, std::size_t dests, const gm::Payload& payload,
           bool nb, int wu, int rounds, std::vector<double>& lat,
           IterationMarks& im) -> sim::Task<void> {
          gm::Port& port = cl.port(0);
          std::vector<net::NodeId> targets;
          for (std::size_t d = 1; d <= dests; ++d) {
            targets.push_back(static_cast<net::NodeId>(d));
          }
          for (int iter = 0; iter < rounds; ++iter) {
            im.mark();
            const sim::TimePoint start = cl.simulator().now();
            if (nb) {
              std::vector<net::NodeId> copy = targets;
              const gm::SendStatus st =
                  co_await port.multisend(std::move(copy), 0, payload, 0);
              if (st != gm::SendStatus::kOk) {
                throw std::runtime_error("suite: multisend failed");
              }
            } else {
              std::vector<nic::OpHandle> handles;
              for (net::NodeId t : targets) {
                co_await cl.simulator().wait(
                    port.nic().config().host_post_overhead);
                handles.push_back(port.post_send_nowait(t, 0, payload, 0));
              }
              for (nic::OpHandle h : handles) {
                if (co_await port.wait_completion(h) != gm::SendStatus::kOk) {
                  throw std::runtime_error("suite: unicast send failed");
                }
              }
            }
            if (iter >= wu) {
              lat.push_back((cl.simulator().now() - start).microseconds());
            }
          }
          im.mark();
        }(*cluster, spec.destinations, expected, nic_based, spec.warmup, total,
                          latency, marks));
  }

  run_and_collect(cluster, span::kGmRun, rec, shim, out, [&] {
    double sum = 0.0;
    for (const double us : latency) sum += us;
    out.sim_us = latency.empty() ? 0.0 : sum / static_cast<double>(latency.size());
    for (std::size_t node = 1; node <= spec.destinations; ++node) {
      gm::Port& port = cluster->port(node);
      const std::size_t pending = port.pending_messages();
      out.deliveries += pending;
      cluster->simulator().spawn(
          [](gm::Port& p, std::size_t n, const gm::Payload& want,
             std::uint64_t& bad) -> sim::Task<void> {
            for (std::size_t i = 0; i < n; ++i) {
              const gm::RecvMessage msg = co_await p.receive();
              if (msg.data != want) ++bad;
            }
          }(port, pending, expected, out.payload_mismatches));
    }
    cluster->run();
  });
  out.expected_deliveries = static_cast<std::uint64_t>(spec.destinations) *
                            static_cast<std::uint64_t>(total);
  out.counts_deliveries = true;
  out.checks_payload = true;
  marks.gaps_us(out.iter_us);
  out.first_iter_us = marks.first_us();
  return out;
}

// harness::run_mpi_bcast.
CaseOutcome run_mpi_bcast(const RunSpec& spec, SpanRecorder& rec, bool shim) {
  CaseOutcome out;
  auto cluster = make_cluster(spec, rec);
  mpi::MpiConfig config;
  config.bcast_algorithm = spec.algo == Algo::kNicBased
                               ? mpi::BcastAlgorithm::kNicBased
                               : mpi::BcastAlgorithm::kHostBased;
  config.rdma_multicast = spec.rdma;
  std::unique_ptr<mpi::World> world;
  {
    const ScopedSpan s(rec, span::kWorld);
    world = std::make_unique<mpi::World>(*cluster, config);
  }

  const int total = spec.warmup + spec.iterations;
  const std::size_t bytes = spec.message_bytes;
  auto st = std::make_shared<CollectiveState>(spec.nodes, bytes, total);
  {
    const ScopedSpan s(rec, span::kSpawn);
    world->launch([st, bytes, total](mpi::Process& self) -> sim::Task<void> {
      const bool root = self.rank() == 0;
      for (int iter = 0; iter < total; ++iter) {
        co_await st->barrier.arrive();
        if (root) {
          st->marks.mark();
          st->started[iter] = self.simulator().now();
        }
        const gm::Payload& expected = st->payloads.at(iter);
        mpi::Payload data(bytes);
        if (root) data = expected;
        co_await self.bcast(data, 0);
        if (!root) {
          ++st->deliveries;
          if (data != expected) ++st->mismatches;
        }
        auto& d = st->done[iter];
        d = std::max(d, self.simulator().now());
      }
      if (root) st->marks.mark();
    });
  }

  run_and_collect(cluster, span::kMpiRun, rec, shim, out, [&] {
    out.sim_us = mean_latency_us(st->started, st->done, spec.warmup);
    out.deliveries = st->deliveries;
    out.payload_mismatches = st->mismatches;
    world.reset();
  });
  out.expected_deliveries = static_cast<std::uint64_t>(spec.nodes - 1) *
                            static_cast<std::uint64_t>(total);
  out.counts_deliveries = true;
  out.checks_payload = true;
  st->marks.gaps_us(out.iter_us);
  out.first_iter_us = st->marks.first_us();
  return out;
}

// harness::run_skew_bcast: the experiment builds and runs its own cluster,
// so its (sub-millisecond) bring-up is inside the sim span and its
// receivers and iterations are not visible from here.
CaseOutcome run_skew_bcast(const RunSpec& spec, SpanRecorder& rec) {
  mpi::SkewConfig config;
  config.nodes = spec.nodes;
  config.message_bytes = spec.message_bytes;
  config.max_skew = sim::usec(spec.avg_skew_us * 4.0);
  config.iterations = spec.iterations;
  config.warmup = spec.warmup;
  config.algorithm = spec.algo == Algo::kNicBased
                         ? mpi::BcastAlgorithm::kNicBased
                         : mpi::BcastAlgorithm::kHostBased;
  config.seed = spec.seed;
  mpi::SkewResult skew;
  {
    const ScopedSpan s(rec, span::kSkewRun);
    skew = mpi::run_skew_experiment(config);
  }
  const ScopedSpan s(rec, span::kCollect);
  CaseOutcome out;
  out.hash = skew.event_order_hash;
  out.queue = skew.queue_stats;
  out.nic = skew.nic_totals;
  out.sim_us = skew.avg_bcast_cpu_us;
  // Completions are not observable here: counted as expected, not checked.
  out.deliveries = out.expected_deliveries =
      static_cast<std::uint64_t>(spec.nodes - 1) *
      static_cast<std::uint64_t>(spec.warmup + spec.iterations);
  return out;
}

// harness::run_sharded (flatten_tree and make_tree are file-local there).
net::FabricTree flatten_tree(const mcast::Tree& tree, std::size_t nodes) {
  net::FabricTree flat;
  flat.root = tree.root();
  flat.parent.assign(nodes, net::FabricTree::kNoParent);
  flat.child_off.assign(nodes + 1, 0);
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto node = static_cast<net::NodeId>(i);
    flat.child_off[i + 1] =
        flat.child_off[i] +
        static_cast<std::uint32_t>(tree.children(node).size());
    if (const auto p = tree.parent(node)) flat.parent[i] = *p;
  }
  flat.children.reserve(flat.child_off[nodes]);
  for (std::size_t i = 0; i < nodes; ++i) {
    for (const net::NodeId c : tree.children(static_cast<net::NodeId>(i))) {
      flat.children.push_back(c);
    }
  }
  return flat;
}

net::FabricTree make_fabric_tree(const RunSpec& spec) {
  if (spec.experiment == Experiment::kMultisend) {
    net::FabricTree star;
    star.root = 0;
    star.parent.assign(spec.nodes, net::FabricTree::kNoParent);
    star.child_off.assign(spec.nodes + 1,
                          static_cast<std::uint32_t>(spec.nodes - 1));
    star.child_off[0] = 0;
    star.children.reserve(spec.nodes - 1);
    for (std::size_t i = 1; i < spec.nodes; ++i) {
      star.parent[i] = 0;
      star.children.push_back(static_cast<net::NodeId>(i));
    }
    return star;
  }
  std::vector<net::NodeId> dests;
  dests.reserve(spec.nodes - 1);
  for (std::size_t i = 1; i < spec.nodes; ++i) {
    dests.push_back(static_cast<net::NodeId>(i));
  }
  return flatten_tree(harness::build_tree(spec, dests), spec.nodes);
}

net::Topology make_topology(const RunSpec& spec) {
  switch (harness::resolve_wiring(spec)) {
    case gm::ClusterConfig::Wiring::kSingleSwitch:
      return net::Topology::single_switch(spec.nodes);
    case gm::ClusterConfig::Wiring::kClos:
      return net::Topology::clos(spec.nodes, spec.switch_radix);
    case gm::ClusterConfig::Wiring::kBackToBack:
      return net::Topology::back_to_back();
  }
  throw std::logic_error("suite: unmapped wiring");
}

CaseOutcome run_sharded(const RunSpec& spec, SpanRecorder& rec) {
  net::FabricOptions options;
  switch (spec.experiment) {
    case Experiment::kGmMulticast:
      options.workload = net::FabricWorkload::kMcast;
      break;
    case Experiment::kMultisend:
      options.workload = net::FabricWorkload::kMultisend;
      break;
    default:
      throw std::invalid_argument(
          "suite: sharded cases are gm_mcast or multisend");
  }
  options.message_bytes = spec.message_bytes;
  options.warmup = spec.warmup;
  options.iterations = spec.iterations;
  options.loss_rate = spec.loss_rate;
  options.avg_skew_us = spec.avg_skew_us;
  options.batch_horizons = spec.batch_horizons;
  options.async_sync = spec.async_sync;
  options.seed = spec.seed;
  options.nic = spec.nic;

  std::unique_ptr<net::Topology> topology;
  {
    const ScopedSpan s(rec, span::kTopology);
    topology = std::make_unique<net::Topology>(make_topology(spec));
  }
  net::FabricTree tree;
  {
    const ScopedSpan s(rec, span::kTree);
    tree = make_fabric_tree(spec);
  }
  std::unique_ptr<net::ShardedFabric> fabric;
  {
    const ScopedSpan s(rec, span::kFabricBuild);
    fabric = std::make_unique<net::ShardedFabric>(
        std::move(*topology), std::move(tree), options, spec.shards);
  }
  net::FabricResult fr;
  std::int64_t run_ns = 0;
  {
    ScopedSpan s(rec, span::kShardRun);
    fr = fabric->run();
    run_ns = s.finish();
  }

  const ScopedSpan s(rec, span::kCollect);
  CaseOutcome out;
  out.hash = fr.merged_order_hash;
  out.queue.scheduled = fr.events_scheduled;
  out.queue.executed = fr.events_executed;
  out.queue.cancelled = fr.events_cancelled;
  out.queue.heap_actions = fr.heap_actions;
  out.queue.pool_slots = fr.pool_slots;
  out.queue.wheel_cascades = fr.wheel_cascades;
  out.queue.overflow_scheduled = fr.overflow_scheduled;
  out.queue.overflow_promotions = fr.overflow_promotions;
  for (const std::uint64_t peak : fr.shard_wheel_occupancy_peak) {
    out.queue.wheel_occupancy_peak =
        std::max(out.queue.wheel_occupancy_peak, peak);
  }
  out.nic = fr.nic_totals;
  out.routes.routes_materialized = fr.routes_materialized;
  out.routes.links_stored = fr.route_links_stored;
  out.routes.links_shared = fr.route_links_shared;
  out.shard.lbts_rounds = fr.lbts_rounds;
  out.shard.horizon_stalls = fr.horizon_stalls;
  out.shard.cross_shard_msgs = fr.cross_shard_msgs;
  out.shard.channel_spills = fr.channel_spills;
  out.shard.blocked_waits = fr.blocked_waits;
  out.shard.null_msgs_sent = fr.null_msgs_sent;
  out.shard.cross_links = fr.cross_links;

  double sum = 0.0;
  for (const double us : fr.latency_us) sum += us;
  out.sim_us = fr.latency_us.empty()
                   ? 0.0
                   : sum / static_cast<double>(fr.latency_us.size());
  const int total = spec.warmup + spec.iterations;
  // ShardedFabric::run hides iteration boundaries: one sample per case,
  // the mean host time of its iterations.
  out.iter_us.push_back(static_cast<double>(run_ns) * 1e-3 /
                        static_cast<double>(total));
  out.deliveries = fr.deliveries;
  out.expected_deliveries = static_cast<std::uint64_t>(spec.nodes - 1) *
                            static_cast<std::uint64_t>(total);
  out.counts_deliveries = true;
  fabric.reset();
  return out;
}

}  // namespace

CaseOutcome run_case(const RunSpec& spec, SpanRecorder& rec, bool shim) {
  if (spec.shards > 1) return run_sharded(spec, rec);
  switch (spec.experiment) {
    case Experiment::kGmMulticast:
      return run_gm_mcast(spec, rec, shim);
    case Experiment::kMultisend:
      return run_multisend(spec, rec, shim);
    case Experiment::kMpiBcast:
      return run_mpi_bcast(spec, rec, shim);
    case Experiment::kSkewBcast:
      return run_skew_bcast(spec, rec);
    default:
      break;
  }
  throw std::invalid_argument("suite: no suite runner for experiment '" +
                              std::string(harness::to_string(spec.experiment)) +
                              "'");
}

}  // namespace nicmcast::suite
