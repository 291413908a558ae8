#include "soak.hpp"

#include <algorithm>
#include <cstddef>
#include <memory>
#include <utility>
#include <vector>

#include "gm/cluster.hpp"
#include "gm/port.hpp"
#include "harness/experiment_util.hpp"
#include "harness/runners.hpp"
#include "mcast/bcast.hpp"
#include "mcast/tree.hpp"
#include "net/fault_model.hpp"
#include "sim/random.hpp"

namespace nicmcast::soak {

namespace {

constexpr net::GroupId kGroup = 1;
constexpr nic::SeqNum kWrapStart = 0xFFFFFFF4u;  // wraps within ~12 packets

gm::Payload make_payload(std::size_t n, std::uint8_t salt) {
  return harness::make_payload(n, salt);
}

gm::Payload lane(std::int64_t v) {
  gm::Payload p(8);
  for (int i = 0; i < 8; ++i) {
    p[i] = std::byte{static_cast<std::uint8_t>(
        static_cast<std::uint64_t>(v) >> (8 * i))};
  }
  return p;
}

std::size_t unicast_size(std::uint32_t tag) {
  return 40 + (static_cast<std::size_t>(tag) * 13) % 260;
}

gm::Payload unicast_payload(std::uint32_t tag) {
  return make_payload(unicast_size(tag), static_cast<std::uint8_t>(tag));
}

std::unique_ptr<net::FaultInjector> make_injector(const SoakSpec& spec,
                                                  sim::Simulator& sim) {
  // Fault intensities are bounded so no operation ever hits the
  // max_retries give-up: drop probabilities stay well below the ~0.3 that
  // would make 30 consecutive losses plausible, and blackout windows are
  // far shorter than max_retries * retransmit_timeout (~30 ms).
  sim::Rng rng(spec.seed ^ 0x9e3779b97f4a7c15ULL);
  switch (spec.injector) {
    case InjectorFamily::kNone:
      return nullptr;
    case InjectorFamily::kUniform:
      return std::make_unique<net::RandomFaults>(
          rng.uniform(0.02, 0.25), rng.uniform(0.0, 0.08), rng.fork());
    case InjectorFamily::kBurst: {
      net::GilbertElliottFaults::Params params;
      params.p_good_to_bad = rng.uniform(0.005, 0.03);
      params.p_bad_to_good = rng.uniform(0.15, 0.4);
      params.good_drop = rng.uniform(0.0, 0.02);
      params.bad_drop = rng.uniform(0.4, 0.9);
      params.bad_corrupt = rng.uniform(0.0, 0.1);
      return std::make_unique<net::GilbertElliottFaults>(params, rng.fork());
    }
    case InjectorFamily::kBlackout: {
      auto blackout = std::make_unique<net::BlackoutFaults>(
          [&sim] { return sim.now(); });
      const int windows = static_cast<int>(rng.uniform_int(1, 2));
      sim::TimePoint at = sim::TimePoint{} + sim::usec(rng.uniform(200, 900));
      for (int w = 0; w < windows; ++w) {
        const sim::Duration len = sim::usec(rng.uniform(200, 2500));
        net::LinkFilter filter;
        if (rng.chance(0.5) && spec.nodes > 1) {
          // Half the windows darken one specific link direction.
          filter.src = static_cast<net::NodeId>(
              rng.uniform_int(0, static_cast<std::int64_t>(spec.nodes) - 1));
          filter.dst = static_cast<net::NodeId>(
              rng.uniform_int(0, static_cast<std::int64_t>(spec.nodes) - 1));
        }
        blackout->add_window(at, at + len, filter);
        at = at + len + sim::usec(rng.uniform(500, 3000));
      }
      if (rng.chance(0.5)) {
        // Stack light background noise under the outages.
        auto composite = std::make_unique<net::CompositeFaults>();
        composite->add(std::move(blackout));
        composite->add(std::make_unique<net::RandomFaults>(
            rng.uniform(0.0, 0.05), rng.uniform(0.0, 0.02), rng.fork()));
        return composite;
      }
      return blackout;
    }
    case InjectorFamily::kAckTargeted: {
      net::LinkFilter filter;
      filter.traffic = net::TrafficClass::kAck;
      return std::make_unique<net::TargetedFaults>(
          filter, std::make_unique<net::RandomFaults>(
                      rng.uniform(0.15, 0.45), 0.0, rng.fork()));
    }
  }
  return nullptr;
}

mcast::Tree build_tree(const SoakSpec& spec) {
  const auto dests =
      harness::everyone_but(0, spec.nodes);
  switch (spec.tree) {
    case SoakSpec::Shape::kChain:
      return mcast::build_chain_tree(0, dests);
    case SoakSpec::Shape::kFlat:
      return mcast::build_flat_tree(0, dests);
    case SoakSpec::Shape::kBinomial:
      break;
  }
  return mcast::build_binomial_tree(0, dests);
}

struct Workload {
  std::vector<std::pair<net::NodeId, net::NodeId>> pairs;
  std::vector<net::NodeId> multisend_dests;
};

Workload derive_workload(const SoakSpec& spec) {
  sim::Rng rng(spec.seed ^ 0xc2b2ae3d27d4eb4fULL);
  Workload w;
  const auto n = static_cast<std::int64_t>(spec.nodes);
  for (int p = 0; p < spec.unicast_pairs; ++p) {
    const auto a = static_cast<net::NodeId>(rng.uniform_int(0, n - 1));
    auto b = static_cast<net::NodeId>(rng.uniform_int(0, n - 1));
    if (b == a) b = static_cast<net::NodeId>((b + 1) % spec.nodes);
    w.pairs.emplace_back(a, b);
  }
  if (spec.multisend) {
    const auto fanout = rng.uniform_int(1, std::min<std::int64_t>(5, n - 1));
    std::vector<net::NodeId> others = harness::everyone_but(0, spec.nodes);
    for (std::int64_t k = 0; k < fanout; ++k) {
      const auto pick = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(others.size()) - 1));
      w.multisend_dests.push_back(others[pick]);
      others.erase(others.begin() + static_cast<std::ptrdiff_t>(pick));
    }
    std::sort(w.multisend_dests.begin(), w.multisend_dests.end());
  }
  return w;
}

struct Shared {
  SoakSpec spec;
  mcast::Tree tree;
  Workload work;
  harness::SimBarrier barrier;
  std::vector<std::string> failures;
  std::size_t finished = 0;

  Shared(SoakSpec s, mcast::Tree t, Workload w)
      : spec(std::move(s)), tree(std::move(t)), work(std::move(w)),
        barrier(spec.nodes) {}

  void fail(net::NodeId me, const std::string& what) {
    failures.push_back("node" + std::to_string(me) + ": " + what);
  }
};

sim::Task<void> node_program(gm::Cluster& cl, net::NodeId me,
                             std::shared_ptr<Shared> sh) {
  const SoakSpec& spec = sh->spec;

  for (int round = 0; round < spec.rounds; ++round) {
    co_await sh->barrier.arrive();
    if (spec.barrier) co_await cl.port(me).nic_barrier(kGroup);
    gm::Payload data;
    if (me == sh->tree.root()) {
      data = make_payload(spec.message_bytes,
                          static_cast<std::uint8_t>(round));
    }
    const gm::Payload got =
        co_await mcast::nic_bcast(cl.port(me), sh->tree, kGroup,
                                  std::move(data),
                                  static_cast<std::uint32_t>(round));
    if (!harness::same_payload(
            got, make_payload(spec.message_bytes,
                              static_cast<std::uint8_t>(round)))) {
      sh->fail(me, "bcast round " + std::to_string(round) +
                       " payload mismatch");
    }
  }

  // Point-to-point chatter on port 1 (kept off port 0 so it cannot steal
  // the broadcast deliveries).
  co_await sh->barrier.arrive();
  for (std::size_t p = 0; p < sh->work.pairs.size(); ++p) {
    const auto [src, dst] = sh->work.pairs[p];
    for (int m = 0; m < spec.msgs_per_pair; ++m) {
      const auto tag =
          static_cast<std::uint32_t>(1000 + p * 16 + static_cast<std::size_t>(m));
      if (me == src) {
        const gm::SendStatus status =
            co_await cl.port(me, 1).send(dst, 1, unicast_payload(tag), tag);
        if (status != gm::SendStatus::kOk) {
          sh->fail(me, "unicast tag " + std::to_string(tag) + " failed");
        }
      }
    }
  }
  {
    std::size_t expected = 0;
    for (const auto& [src, dst] : sh->work.pairs) {
      if (dst == me) expected += static_cast<std::size_t>(spec.msgs_per_pair);
    }
    for (std::size_t k = 0; k < expected; ++k) {
      const gm::RecvMessage msg = co_await cl.port(me, 1).receive();
      if (!harness::same_payload(msg.data, unicast_payload(msg.tag))) {
        sh->fail(me, "unicast tag " + std::to_string(msg.tag) +
                         " payload mismatch");
      }
    }
  }

  // One NIC-based multisend fan-out on port 2.
  co_await sh->barrier.arrive();
  if (spec.multisend) {
    const auto& dests = sh->work.multisend_dests;
    if (me == 0) {
      const gm::SendStatus status = co_await cl.port(me, 2).multisend(
          dests, 2, make_payload(spec.message_bytes, 0xAB), 7777);
      if (status != gm::SendStatus::kOk) sh->fail(me, "multisend failed");
    } else if (std::find(dests.begin(), dests.end(), me) != dests.end()) {
      const gm::RecvMessage msg = co_await cl.port(me, 2).receive();
      if (!harness::same_payload(msg.data,
                                 make_payload(spec.message_bytes, 0xAB))) {
        sh->fail(me, "multisend payload mismatch");
      }
    }
  }

  // NIC-level reduction over the same group tree.
  if (spec.reduce) {
    co_await sh->barrier.arrive();
    const gm::Payload out =
        co_await cl.port(me).nic_reduce(kGroup, lane(me + 1));
    if (me == sh->tree.root()) {
      const auto n = static_cast<std::int64_t>(sh->spec.nodes);
      if (out != lane(n * (n + 1) / 2)) sh->fail(me, "reduce sum wrong");
    }
  }

  ++sh->finished;
}

void seed_wrap_sequences(gm::Cluster& cluster, const Workload& work) {
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.nic(i).debug_set_group_seq(kGroup, kWrapStart);
  }
  for (const auto& [src, dst] : work.pairs) {
    cluster.nic(src).debug_set_send_seq(1, dst, 1, kWrapStart);
    cluster.nic(dst).debug_set_recv_seq(1, src, 1, kWrapStart);
  }
  for (const net::NodeId dst : work.multisend_dests) {
    cluster.nic(0).debug_set_send_seq(2, dst, 2, kWrapStart);
    cluster.nic(dst).debug_set_recv_seq(2, 0, 2, kWrapStart);
  }
}

}  // namespace

const char* to_string(InjectorFamily family) {
  switch (family) {
    case InjectorFamily::kNone: return "none";
    case InjectorFamily::kUniform: return "uniform";
    case InjectorFamily::kBurst: return "burst";
    case InjectorFamily::kBlackout: return "blackout";
    case InjectorFamily::kAckTargeted: return "ack-targeted";
  }
  return "?";
}

std::string SoakSpec::describe() const {
  std::string s = "seed=" + std::to_string(seed);
  s += " nodes=" + std::to_string(nodes);
  s += clos ? " clos" : " switch";
  s += tree == Shape::kBinomial ? " binomial"
       : tree == Shape::kChain  ? " chain"
                                : " flat";
  s += std::string(" inj=") + to_string(injector);
  s += " rounds=" + std::to_string(rounds);
  s += " bytes=" + std::to_string(message_bytes);
  s += " pairs=" + std::to_string(unicast_pairs) + "x" +
       std::to_string(msgs_per_pair);
  if (multisend) s += " multisend";
  if (barrier) s += " barrier";
  if (reduce) s += " reduce";
  if (wrap_seqs) s += " wrap";
  return s;
}

SoakSpec make_spec(std::uint64_t seed) {
  sim::Rng rng(seed ^ 0x50a6b83b9c5d2f11ULL);
  SoakSpec s;
  s.seed = seed;
  s.nodes = static_cast<std::size_t>(rng.uniform_int(4, 20));
  s.clos = rng.chance(0.4);
  const auto shape = rng.uniform_int(0, 2);
  s.tree = shape == 0   ? SoakSpec::Shape::kBinomial
           : shape == 1 ? SoakSpec::Shape::kChain
                        : SoakSpec::Shape::kFlat;
  constexpr InjectorFamily kFamilies[] = {
      InjectorFamily::kUniform, InjectorFamily::kBurst,
      InjectorFamily::kBlackout, InjectorFamily::kAckTargeted};
  s.injector = kFamilies[rng.uniform_int(0, 3)];
  s.rounds = static_cast<int>(rng.uniform_int(2, 5));
  constexpr std::size_t kSizes[] = {1, 64, 500, 4096, 9000};
  s.message_bytes = kSizes[rng.uniform_int(0, 4)];
  s.unicast_pairs = static_cast<int>(rng.uniform_int(0, 3));
  s.msgs_per_pair = static_cast<int>(rng.uniform_int(1, 4));
  s.multisend = rng.chance(0.5);
  s.barrier = rng.chance(0.5);
  s.reduce = rng.chance(0.5);
  s.wrap_seqs = rng.chance(0.3);
  return s;
}

SoakResult run_soak(const SoakSpec& spec) {
  SoakResult result;

  gm::ClusterConfig config;
  config.nodes = spec.nodes;
  config.wiring = spec.clos ? gm::ClusterConfig::Wiring::kClos
                            : gm::ClusterConfig::Wiring::kSingleSwitch;
  config.switch_radix = spec.clos ? 8 : 16;
  config.seed = spec.seed;
  gm::Cluster cluster(config);

  nic::ProtocolAuditor auditor;
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    cluster.nic(i).set_auditor(&auditor);
  }
  if (auto injector = make_injector(spec, cluster.simulator())) {
    cluster.network().set_fault_injector(std::move(injector));
  }

  auto shared = std::make_shared<Shared>(spec, build_tree(spec),
                                         derive_workload(spec));
  mcast::install_group(cluster, shared->tree, kGroup);
  if (spec.wrap_seqs) seed_wrap_sequences(cluster, shared->work);

  // Pre-post every receive buffer the workload can need.
  const std::size_t bcast_cap = std::max<std::size_t>(spec.message_bytes, 64);
  for (std::size_t node = 1; node < spec.nodes; ++node) {
    cluster.port(node).provide_receive_buffers(
        static_cast<std::size_t>(spec.rounds), bcast_cap);
  }
  for (std::size_t node = 0; node < spec.nodes; ++node) {
    std::size_t incoming = 0;
    for (const auto& [src, dst] : shared->work.pairs) {
      if (dst == node) {
        incoming += static_cast<std::size_t>(spec.msgs_per_pair);
      }
    }
    if (incoming > 0) {
      cluster.port(node, 1).provide_receive_buffers(incoming, 512);
    }
  }
  for (const net::NodeId dst : shared->work.multisend_dests) {
    cluster.port(dst, 2).provide_receive_buffers(1, bcast_cap);
  }

  cluster.run_on_all([shared](gm::Cluster& cl,
                              net::NodeId me) -> sim::Task<void> {
    return node_program(cl, me, shared);
  });
  try {
    cluster.run();
  } catch (const std::exception& e) {
    shared->failures.push_back(std::string("exception: ") + e.what());
  }

  if (shared->finished != spec.nodes) {
    shared->failures.push_back(
        "workload wedged: " + std::to_string(shared->finished) + "/" +
        std::to_string(spec.nodes) + " nodes finished");
  }
  for (std::size_t i = 0; i < cluster.size(); ++i) {
    auditor.check_drained(cluster.nic(i));
    result.retransmissions += cluster.nic(i).stats().retransmissions;
    result.conn_resets += cluster.nic(i).stats().conn_resets;
  }

  harness::RunResult collected;
  harness::collect(cluster, collected);
  result.engine = collected.engine;
  // The workload is tree- and pair-structured, so the lazy RouteTable must
  // never end up computing the full all-pairs table; if it does, something
  // reintroduced an eager all_routes()-style walk.
  const std::uint64_t full_pairs =
      static_cast<std::uint64_t>(spec.nodes) * (spec.nodes - 1);
  if (spec.nodes >= 8 && result.engine.routes_materialized >= full_pairs) {
    shared->failures.push_back(
        "route table fully materialized: " +
        std::to_string(result.engine.routes_materialized) + "/" +
        std::to_string(full_pairs) + " pairs");
  }
  result.ledger = auditor.ledger();
  result.ok = shared->failures.empty() && auditor.ok();
  if (!result.ok) {
    result.failure = spec.describe() + " | ";
    result.failure +=
        !shared->failures.empty() ? shared->failures.front()
                                  : auditor.violations().front();
  }
  return result;
}

SoakResult run_soak_seed(std::uint64_t seed) {
  const SoakSpec original = make_spec(seed);
  SoakResult result = run_soak(original);
  if (result.ok) return result;

  // Greedy deterministic shrink: keep a simplification only when the
  // variant still fails, so the reported spec is a minimal reproduction.
  SoakSpec spec = original;
  const auto try_shrink = [&spec, &result](auto&& mutate) {
    SoakSpec candidate = spec;
    mutate(candidate);
    const SoakResult r = run_soak(candidate);
    if (!r.ok) {
      spec = candidate;
      result = r;
    }
  };
  try_shrink([](SoakSpec& s) { s.reduce = false; });
  try_shrink([](SoakSpec& s) { s.multisend = false; });
  try_shrink([](SoakSpec& s) { s.barrier = false; });
  try_shrink([](SoakSpec& s) { s.unicast_pairs = 0; });
  try_shrink([](SoakSpec& s) { s.wrap_seqs = false; });
  try_shrink([](SoakSpec& s) { s.rounds = 1; });
  try_shrink([](SoakSpec& s) {
    s.message_bytes = std::min<std::size_t>(s.message_bytes, 64);
  });
  try_shrink([](SoakSpec& s) {
    s.nodes = 4;
    s.clos = false;
  });
  try_shrink([](SoakSpec& s) { s.injector = InjectorFamily::kNone; });
  return result;
}

}  // namespace nicmcast::soak
