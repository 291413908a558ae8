// Figure 5: GM-level multicast latency, NIC-based (optimal postal tree,
// NIC forwarding) vs host-based (binomial tree, host forwarding), for 4, 8
// and 16 nodes across message sizes.
//
// Paper landmarks (16 nodes): factor >= 1.48 for <= 512 B, up to 1.86 at
// 16 KB, with a dip at 2-4 KB (single-packet messages get neither the
// multisend nor the pipelining benefit).
#include <cstdio>
#include <vector>

#include "harness/bench_io.hpp"
#include "harness/experiment_util.hpp"
#include "harness/sweep.hpp"

namespace nicmcast::bench {
namespace {

using namespace nicmcast::harness;

void run(const BenchOptions& options) {
  print_header(
      "Figure 5 — GM-level multicast: NIC-based vs host-based",
      "Paper (16 nodes): >=1.48x for <=512B, up to 1.86x at 16KB, dip at "
      "2-4KB.");
  const std::vector<std::size_t> node_counts{4, 8, 16};
  const std::vector<std::size_t> sizes = paper_sizes();

  RunSpec base;
  base.experiment = Experiment::kGmMulticast;
  base.iterations = options.iterations_or(30);

  // Host-based runs use the binomial tree, NIC-based the cost-modelled
  // postal tree — a coupled axis, host first so each table cell reads
  // (HB, NB) consecutively.
  const auto specs =
      Sweep(base)
          .message_sizes(sizes)
          .node_counts(node_counts)
          .axis(std::vector<Algo>{Algo::kHostBased, Algo::kNicBased},
                [](RunSpec& s, Algo a) {
                  s.algo = a;
                  s.tree = a == Algo::kNicBased ? TreeShape::kPostal
                                                : TreeShape::kBinomial;
                })
          .build();
  const auto results = ParallelRunner(runner_options(options)).run(specs);

  std::printf("%8s", "size(B)");
  for (std::size_t n : node_counts) {
    std::printf(" | HB-%-2zu(us) NB-%-2zu(us) factor", n, n);
  }
  std::printf("\n");

  for (std::size_t si = 0; si < sizes.size(); ++si) {
    std::printf("%8zu", sizes[si]);
    for (std::size_t ni = 0; ni < node_counts.size(); ++ni) {
      const std::size_t idx = (si * node_counts.size() + ni) * 2;
      const double hb = results[idx].mean_us();
      const double nb = results[idx + 1].mean_us();
      std::printf(" | %9.2f %9.2f %6.2f", hb, nb, hb / nb);
    }
    std::printf("\n");
  }
  std::printf(
      "\nShape check: NB wins at every size; the factor dips for 2-4KB\n"
      "single-packet messages and peaks at 16KB (per-packet forwarding\n"
      "pipelining), growing with system size.\n");

  write_bench_json("fig5_gm_mcast", options, results);
}

}  // namespace
}  // namespace nicmcast::bench

int main(int argc, char** argv) {
  nicmcast::bench::run(
      nicmcast::harness::parse_bench_options(argc, argv, "fig5_gm_mcast"));
  return 0;
}
