// The --shards axis: run_sharded executes a spec on the conservative-PDES
// fabric (net::ShardedFabric over sim::ShardedEngine) instead of the
// coroutine gm::Cluster stack.  Specs are translated with gm's topology
// builder, mcast's tree builders and the same NIC knobs, but the fabric is
// a second model of the NIC data path, not nic::Nic: it counts the same
// protocol events on lossless one-packet runs, while its latencies differ
// from the classic stack's by a measured, family- and size-dependent gap
// (DESIGN.md §4.5).  Two families run sharded (gm_mcast, multisend); the
// host layers (mpi_bcast, skew_bcast, barrier, allreduce) and host-based
// algorithms stay on the classic stack until nic::Nic and mpi::Process run
// on the shards (ROADMAP.md item 5), and throw here.
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "harness/experiment_util.hpp"
#include "harness/run_result.hpp"
#include "harness/run_spec.hpp"
#include "harness/runners.hpp"
#include "gm/cluster.hpp"
#include "mcast/tree.hpp"
#include "net/sharded_fabric.hpp"

namespace nicmcast::harness {
namespace {

// mcast::Tree is hash-map-based protocol plumbing; the fabric wants flat
// arrays.  Child order is preserved — it is the GM send-record chain order
// and part of the determinism contract.
net::FabricTree flatten_tree(const mcast::Tree& tree, std::size_t nodes) {
  net::FabricTree flat;
  flat.root = tree.root();
  flat.parent.assign(nodes, net::FabricTree::kNoParent);
  flat.child_off.assign(nodes + 1, 0);
  for (std::size_t i = 0; i < nodes; ++i) {
    const auto node = static_cast<net::NodeId>(i);
    flat.child_off[i + 1] =
        flat.child_off[i] + static_cast<std::uint32_t>(
                                tree.children(node).size());
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

// The spanning tree a spec's family runs over, built by mcast's builders.
net::FabricTree make_tree(const RunSpec& spec) {
  const std::vector<net::NodeId> dests = everyone_but(0, spec.nodes);
  // Flat NIC multisend: a star, every destination a direct child of the
  // root in ascending id order — no forwarding, which is the point of
  // Fig. 3.
  return flatten_tree(spec.experiment == Experiment::kMultisend
                          ? mcast::build_flat_tree(0, dests)
                          : build_tree(spec, dests),
                      spec.nodes);
}

net::FabricWorkload workload_of(const RunSpec& spec) {
  switch (spec.experiment) {
    case Experiment::kGmMulticast: return net::FabricWorkload::kMcast;
    case Experiment::kMultisend: return net::FabricWorkload::kMultisend;
    case Experiment::kMpiBcast:
    case Experiment::kSkewBcast:
    case Experiment::kBarrier:
    case Experiment::kAllreduce:
    case Experiment::kCustom:
      break;
  }
  throw std::invalid_argument(
      "run_sharded: no sharded runner for experiment '" +
      std::string(to_string(spec.experiment)) +
      "': the sharded fabric runs gm_mcast and multisend only; every "
      "other family runs on gm::Cluster until nic::Nic and mpi::Process "
      "run on the shards (ROADMAP.md item 5) — drop --shards");
}

}  // namespace

RunResult run_sharded(const RunSpec& spec) {
  const net::FabricWorkload workload = workload_of(spec);
  if (spec.shards == 0) {
    throw std::invalid_argument("run_sharded: shards must be >= 1");
  }
  if (spec.algo != Algo::kNicBased) {
    throw std::invalid_argument(
        "run_sharded: the sharded fabric models the NIC-based data path "
        "only (host-based staging is gm::Cluster-only)");
  }
  if (spec.faults != FaultFamily::kUniform || spec.corrupt_rate != 0.0) {
    throw std::invalid_argument(
        "run_sharded: sharded runs support uniform loss only (the "
        "counter-hash loss model keeps drops shard-count invariant)");
  }
  if (spec.experiment == Experiment::kMultisend &&
      (spec.destinations == 0 || spec.nodes != spec.destinations + 1)) {
    // Mirrors run_multisend so the two paths reject the same specs.
    throw std::invalid_argument(
        "run_sharded: need destinations >= 1 and nodes == destinations + 1");
  }

  net::FabricOptions options;
  options.workload = workload;
  options.message_bytes = spec.message_bytes;
  options.warmup = spec.warmup;
  options.iterations = spec.iterations;
  options.loss_rate = spec.loss_rate;
  options.seed = spec.seed;
  options.nic = spec.nic;

  net::ShardedFabric fabric(gm::build_topology(cluster_config(spec)),
                            make_tree(spec), options, spec.shards);
  const net::FabricResult fr = fabric.run();

  RunResult result;
  result.spec = spec;
  for (const double us : fr.latency_us) result.latency_us.add(us);
  result.nic_totals = fr.nic_totals;
  result.engine = fr;  // the FabricResult's EngineCounters base

  // One first delivery per receiver per iteration.
  const std::uint64_t expected =
      (spec.nodes - 1) * (static_cast<std::uint64_t>(spec.warmup) +
                          static_cast<std::uint64_t>(spec.iterations));
  result.set_metric("delivered", fr.deliveries == expected ? 1.0 : 0.0);
  result.set_metric("deliveries", static_cast<double>(fr.deliveries));
  return result;
}

}  // namespace nicmcast::harness
