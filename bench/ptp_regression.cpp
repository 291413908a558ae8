// §6.1 regression claim: "the modification [adding multicast support] has
// no noticeable impact on the performance of non-multicast communications."
//
// We measure point-to-point latency and streaming bandwidth with (a) a bare
// cluster and (b) a cluster with multicast groups installed and a multicast
// recently completed, and show the point-to-point numbers are identical.
// Both runs must execute with the SAME seed, so seed derivation is off.
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

RunResult measure(const RunSpec& spec) {
  const bool with_multicast_state = spec.aux != 0;
  gm::Cluster cluster(cluster_config(spec));
  if (with_multicast_state) {
    // Install a group and run one multicast so all the multicast machinery
    // has been exercised on these NICs.
    const auto tree = mcast::build_binomial_tree(0, {1, 2, 3});
    mcast::install_group(cluster, tree, 77);
    for (net::NodeId n = 1; n < 4; ++n) {
      cluster.port(n).provide_receive_buffer(4096);
    }
    cluster.run_on_all([tree](gm::Cluster& cl,
                              net::NodeId me) -> sim::Task<void> {
      gm::Payload data;
      if (me == 0) data = make_payload(512);
      gm::Payload got = co_await mcast::nic_bcast(cl.port(me), tree, 77,
                                                  std::move(data), 1);
      if (got.size() != 512) throw std::logic_error("warmup mcast failed");
    });
    cluster.run();
  }

  RunResult out;
  out.spec = spec;
  const int iters = spec.iterations;
  cluster.port(1).provide_receive_buffers(
      static_cast<std::size_t>(iters) + 2, 4096);

  // One-way latency, 1-byte messages.
  cluster.simulator().spawn([](gm::Cluster& cl, int n,
                               sim::Series& stats) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) {
      const sim::TimePoint start = cl.simulator().now();
      co_await cl.port(0).send(1, 0, gm::Payload(1), 0);
      stats.add((cl.simulator().now() - start).microseconds());
    }
  }(cluster, iters, out.latency_us));
  cluster.simulator().spawn([](gm::Cluster& cl, int n) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) {
      co_await cl.port(1).receive();
    }
  }(cluster, iters));
  cluster.run();

  // Streaming bandwidth: 64 x 16KB messages.
  const std::size_t chunk = 16384;
  const int chunks = 64;
  cluster.port(1).provide_receive_buffers(chunks, chunk);
  auto t0 = std::make_shared<sim::TimePoint>(cluster.simulator().now());
  auto t1 = std::make_shared<sim::TimePoint>();
  cluster.simulator().spawn([](gm::Cluster& cl, int n, std::size_t size,
                               std::shared_ptr<sim::TimePoint> start)
                                -> sim::Task<void> {
    *start = cl.simulator().now();
    std::vector<nic::OpHandle> handles;
    for (int i = 0; i < n; ++i) {
      co_await cl.simulator().wait(cl.port(0).nic().config().host_post_overhead);
      while (!cl.port(0).can_post_nowait()) {
        co_await cl.simulator().wait(sim::usec(5));
      }
      handles.push_back(
          cl.port(0).post_send_nowait(1, 0, gm::Payload(size), 0));
    }
    for (auto h : handles) co_await cl.port(0).wait_completion(h);
  }(cluster, chunks, chunk, t0));
  cluster.simulator().spawn([](gm::Cluster& cl, int n,
                               std::shared_ptr<sim::TimePoint> done)
                                -> sim::Task<void> {
    for (int i = 0; i < n; ++i) co_await cl.port(1).receive();
    *done = cl.simulator().now();
  }(cluster, chunks, t1));
  cluster.run();
  out.set_metric("bandwidth_mbps", static_cast<double>(chunk) * chunks /
                                       (*t1 - *t0).microseconds());
  collect(cluster, out);
  return out;
}

void run(const BenchOptions& options) {
  print_header(
      "Point-to-point regression — multicast support must not slow "
      "unicast traffic",
      "Paper §6.1: \"no noticeable impact on the performance of "
      "non-multicast communications\".");

  RunSpec base;
  base.experiment = Experiment::kCustom;
  base.nodes = 4;
  base.warmup = 0;
  base.iterations = options.iterations_or(50);

  RunSpec bare = base;
  bare.label = "bare";
  bare.aux = 0;
  RunSpec loaded = base;
  loaded.label = "with_mcast_state";
  loaded.aux = 1;

  // The IDENTICAL claim compares the two configurations under the same
  // seed, so per-run seed derivation stays off.
  RunnerOptions runner = runner_options(options);
  runner.derive_seeds = false;
  const auto results =
      ParallelRunner(runner).run({bare, loaded}, measure);

  std::printf("%-28s | %12s | %16s\n", "configuration", "latency(us)",
              "bandwidth(MB/s)");
  std::printf("%-28s | %12.3f | %16.1f\n", "bare GM", results[0].mean_us(),
              results[0].metric("bandwidth_mbps"));
  std::printf("%-28s | %12.3f | %16.1f\n", "with multicast installed",
              results[1].mean_us(), results[1].metric("bandwidth_mbps"));
  const bool identical =
      results[0].mean_us() == results[1].mean_us() &&
      results[0].metric("bandwidth_mbps") ==
          results[1].metric("bandwidth_mbps");
  std::printf("\nResult: point-to-point numbers are %s.\n",
              identical ? "IDENTICAL (claim reproduced)" : "DIFFERENT");

  write_bench_json("ptp_regression", options, results);
}

}  // namespace
}  // namespace nicmcast::bench

int main(int argc, char** argv) {
  nicmcast::bench::run(
      nicmcast::harness::parse_bench_options(argc, argv, "ptp_regression"));
  return 0;
}
