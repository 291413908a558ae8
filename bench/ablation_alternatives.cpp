// Ablation of the paper's §5 design alternatives:
//
//  (1) Multisend implementation — alternative 1 (one send token per
//      destination: saves only the host postings) vs the chosen
//      alternative 2 (descriptor-callback replica chain).  Alternative 3
//      (rewrite behind the transmit DMA) is modelled as alternative 2 with
//      a near-zero rewrite cost, giving its upper bound.
//
//  (2) Forwarding token policy — the chosen receive-token transform (no
//      extra NIC resource) vs drawing from the free send-token pool, which
//      stalls forwarding when the pool is empty (the deadlock-prone
//      rejected design).
//
//  (3) Staging-buffer release policy — release once forwarding finished
//      (chosen; the host replica covers retransmissions) vs holding the
//      SRAM buffer until every child acked (pins the pool behind laggards).
#include <cstdio>
#include <memory>
#include <vector>

#include "harness/bench_io.hpp"
#include "harness/experiment_util.hpp"
#include "harness/runners.hpp"
#include "mcast/bcast.hpp"

namespace nicmcast::bench {
namespace {

using namespace nicmcast::harness;

// Chain 0 -> 1 -> 2 -> 3; node 1 concurrently runs point-to-point sends
// (spec.aux of them) that occupy its send-token pool.  Reported: when the
// leaf got the full message.
RunResult forward_policy(const RunSpec& spec) {
  gm::Cluster cluster(cluster_config(spec));
  const std::size_t busy_sends = spec.aux;

  mcast::Tree tree(0);
  tree.add_edge(0, 1);
  tree.add_edge(1, 2);
  tree.add_edge(2, 3);
  mcast::install_group(cluster, tree, 9);
  for (net::NodeId n = 1; n < 4; ++n) {
    cluster.port(n).provide_receive_buffers(busy_sends + 4, 8192);
  }
  cluster.port(0).provide_receive_buffers(busy_sends + 4, 8192);

  auto leaf_done = std::make_shared<sim::TimePoint>();
  // Node 1's competing unicast traffic (posted before the multicast).
  cluster.simulator().spawn([](gm::Cluster& cl,
                               std::size_t k) -> sim::Task<void> {
    std::vector<nic::OpHandle> handles;
    for (std::size_t i = 0; i < k; ++i) {
      handles.push_back(cl.port(1).post_send_nowait(0, 0, gm::Payload(4096), 7));
    }
    for (auto h : handles) co_await cl.port(1).wait_completion(h);
  }(cluster, busy_sends));

  cluster.run_on_all([tree, leaf_done](gm::Cluster& cl,
                                       net::NodeId me) -> sim::Task<void> {
    gm::Payload data;
    if (me == 0) data = make_payload(1024);
    gm::Payload got = co_await mcast::nic_bcast(cl.port(me), tree, 9,
                                                std::move(data), 1);
    if (got.size() != 1024) throw std::logic_error("ablation bcast failed");
    if (me == 3) *leaf_done = cl.simulator().now();
  });
  cluster.run();

  RunResult out;
  out.spec = spec;
  out.latency_us.add(leaf_done->microseconds());
  collect(cluster, out);
  return out;
}

// 0 -> 1 -> {2, 3}; node 3's host posts its receive buffer 2ms late.
// Reported: when the HEALTHY sibling (node 2) gets the full message.
RunResult buffer_policy(const RunSpec& spec) {
  gm::Cluster cluster(cluster_config(spec));
  mcast::Tree tree(0);
  tree.add_edge(0, 1);
  tree.add_edge(1, 2);
  tree.add_edge(1, 3);
  mcast::install_group(cluster, tree, 9);
  cluster.port(1).provide_receive_buffer(65536);
  cluster.port(2).provide_receive_buffer(65536);
  cluster.simulator().schedule_after(sim::msec(2), [&cluster] {
    cluster.port(3).provide_receive_buffer(65536);
  });
  auto healthy_done = std::make_shared<sim::TimePoint>();
  cluster.run_on_all([tree, healthy_done](gm::Cluster& cl,
                                          net::NodeId me) -> sim::Task<void> {
    gm::Payload data;
    if (me == 0) data = make_payload(65536);
    gm::Payload got = co_await mcast::nic_bcast(cl.port(me), tree, 9,
                                                std::move(data), 1);
    if (got.size() != 65536) throw std::logic_error("bcast corrupted");
    if (me == 2) *healthy_done = cl.simulator().now();
  });
  cluster.run();

  RunResult out;
  out.spec = spec;
  out.latency_us.add(healthy_done->microseconds());
  collect(cluster, out);
  return out;
}

RunResult dispatch(const RunSpec& spec) {
  if (spec.experiment != Experiment::kCustom) return run_one(spec);
  if (spec.label == "forward_policy") return forward_policy(spec);
  return buffer_policy(spec);
}

void run(const BenchOptions& options) {
  print_header(
      "Ablation — the paper's §5 design alternatives",
      "Multisend: tokens vs callback chain vs rewrite bound; forwarding: "
      "receive-token transform vs send-token pool; staging-buffer policy.");
  const std::vector<std::size_t> ms_sizes{8, 64, 512, 4096, 16384};
  const std::vector<std::size_t> busy_counts{0, 2, 4};
  const std::vector<std::size_t> pools{2, 4, 8, 32};

  std::vector<RunSpec> specs;

  // Part 1: multisend alternatives (stock kMultisend runner; the variants
  // differ only in the NIC config/options a spec already carries).
  RunSpec ms;
  ms.experiment = Experiment::kMultisend;
  ms.destinations = 4;
  ms.nodes = 5;
  ms.warmup = 3;
  ms.iterations = options.iterations_or(30);
  for (std::size_t bytes : ms_sizes) {
    ms.message_bytes = bytes;
    ms.label = "alt1_tokens";
    ms.nic = {};
    ms.nic_options = {};
    ms.nic_options.multisend_uses_multiple_tokens = true;
    specs.push_back(ms);
    ms.label = "alt2_chain";
    ms.nic_options = {};
    specs.push_back(ms);
    ms.label = "alt3_bound";
    ms.nic.header_rewrite = sim::usec(0.02);
    specs.push_back(ms);
    ms.nic = {};
  }
  const std::size_t part2_at = specs.size();

  // Part 2: forwarding token policy.
  RunSpec fwd;
  fwd.experiment = Experiment::kCustom;
  fwd.label = "forward_policy";
  fwd.nodes = 4;
  fwd.nic.send_tokens_per_port = 4;
  for (std::size_t busy : busy_counts) {
    fwd.aux = busy;
    fwd.nic_options.forwarding_uses_send_tokens = false;
    specs.push_back(fwd);
    fwd.nic_options.forwarding_uses_send_tokens = true;
    specs.push_back(fwd);
  }
  const std::size_t part3_at = specs.size();

  // Part 3: staging-buffer release policy (64KB, one child 2ms late).
  RunSpec buf;
  buf.experiment = Experiment::kCustom;
  buf.label = "buffer_policy";
  buf.nodes = 4;
  buf.message_bytes = 65536;
  buf.nic.retransmit_timeout = sim::usec(300);
  buf.nic.max_retries = 1000;
  for (std::size_t pool : pools) {
    buf.aux = pool;
    buf.nic.nic_rx_buffers = pool;
    buf.nic_options.hold_buffers_until_acked = false;
    specs.push_back(buf);
    buf.nic_options.hold_buffers_until_acked = true;
    specs.push_back(buf);
  }

  const auto results =
      ParallelRunner(runner_options(options)).run(specs, dispatch);

  std::printf("\n--- multisend alternatives (4 destinations) ---\n");
  std::printf("%8s | %12s | %12s | %12s\n", "size(B)", "alt1 tokens",
              "alt2 chain", "alt3 bound");
  for (std::size_t si = 0; si < ms_sizes.size(); ++si) {
    const std::size_t idx = si * 3;
    std::printf("%8zu | %9.2fus | %9.2fus | %9.2fus\n", ms_sizes[si],
                results[idx].mean_us(), results[idx + 1].mean_us(),
                results[idx + 2].mean_us());
  }
  std::printf("Chosen: alternative 2 — saves the per-destination token\n"
              "processing; alternative 3 could shave the rewrite cost but\n"
              "needs risky DMA-engine timing (left as future work in the\n"
              "paper).\n");

  std::printf("\n--- forwarding token policy (chain, node 1 busy with "
              "unicasts, 4-token pool) ---\n");
  std::printf("%18s | %16s | %16s\n", "competing sends",
              "recv-token(us)", "send-pool(us)");
  for (std::size_t bi = 0; bi < busy_counts.size(); ++bi) {
    const std::size_t idx = part2_at + bi * 2;
    std::printf("%18zu | %16.2f | %16.2f\n", busy_counts[bi],
                results[idx].mean_us(), results[idx + 1].mean_us());
  }
  std::printf("Chosen: transforming the receive token — forwarding never\n"
              "competes for send tokens, so the leaf latency is flat no\n"
              "matter how busy the intermediate host is.  The pool variant\n"
              "stalls (and in cyclic configurations can deadlock).\n");

  std::printf("\n--- staging-buffer release policy (64KB, one child 2ms "
              "late) ---\n");
  std::printf("%10s | %22s | %22s\n", "SRAM pool",
              "healthy sibling, fwd(us)", "healthy sibling, hold(us)");
  for (std::size_t pi = 0; pi < pools.size(); ++pi) {
    const std::size_t idx = part3_at + pi * 2;
    std::printf("%10zu | %22.1f | %22.1f\n", pools[pi],
                results[idx].mean_us(), results[idx + 1].mean_us());
  }
  std::printf("Chosen: release once forwarding (and the RDMA) finished —\n"
              "the host replica covers retransmissions, so a slow child\n"
              "never starves its siblings.  The naive hold-until-acked\n"
              "policy pins the pool behind the laggard and drags the\n"
              "healthy subtree past its wake-up (the paper's \"slow down\n"
              "the receiver or even block the network\").\n");

  write_bench_json("ablation_alternatives", options, results);
}

}  // namespace
}  // namespace nicmcast::bench

int main(int argc, char** argv) {
  nicmcast::bench::run(nicmcast::harness::parse_bench_options(
      argc, argv, "ablation_alternatives"));
  return 0;
}
