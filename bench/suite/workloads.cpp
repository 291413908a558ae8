#include "workloads.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "harness/experiment_util.hpp"

namespace nicmcast::suite {
namespace {

using harness::Algo;
using harness::Experiment;
using harness::FaultFamily;
using harness::RunSpec;
using harness::TreeShape;
using harness::Wiring;

std::string algo_tag(Algo a) { return std::string(harness::to_string(a)); }

std::string size_tag(std::size_t bytes) { return std::to_string(bytes) + "B"; }

// Fig. 3-7 sweeps at <= 16 nodes on one switch, no loss.  Iteration counts
// are scaled so one pass takes about 3 s on a 4-core x86 host.
Workload paper16(bool smoke) {
  Workload w{"paper-16", {}, 5};
  const std::vector<std::size_t> sizes =
      smoke ? std::vector<std::size_t>{512, 2048, 16384}
            : harness::paper_sizes();

  // Fig. 3: NIC multisend vs host unicasts, k = 1..15 destinations.
  const std::vector<std::size_t> msend_sizes =
      smoke ? std::vector<std::size_t>{64}
            : std::vector<std::size_t>{4, 64, 1024, 16384};
  for (std::size_t k = smoke ? 4 : 1; k <= (smoke ? 4u : 15u); ++k) {
    for (const std::size_t bytes : msend_sizes) {
      for (const Algo algo : {Algo::kHostBased, Algo::kNicBased}) {
        RunSpec s;
        s.experiment = Experiment::kMultisend;
        s.nodes = k + 1;
        s.destinations = k;
        s.message_bytes = bytes;
        s.algo = algo;
        s.iterations = smoke ? 3 : 20;
        s.label = "fig3-k" + std::to_string(k) + "-" + size_tag(bytes) + "-" +
                  algo_tag(algo);
        w.cases.push_back(std::move(s));
      }
    }
  }

  // Fig. 4: MPI_Bcast; the last size is the eager limit (paper §6.2).
  if (!smoke) {
    std::vector<std::size_t> mpi_sizes = harness::paper_sizes();
    mpi_sizes.back() = 16287;
    for (const std::size_t nodes : {4u, 8u, 16u}) {
      for (const std::size_t bytes : mpi_sizes) {
        for (const Algo algo : {Algo::kHostBased, Algo::kNicBased}) {
          RunSpec s;
          s.experiment = Experiment::kMpiBcast;
          s.nodes = nodes;
          s.message_bytes = bytes;
          s.algo = algo;
          s.warmup = 3;
          s.iterations = 15;
          s.label = "fig4-n" + std::to_string(nodes) + "-" + size_tag(bytes) +
                    "-" + algo_tag(algo);
          w.cases.push_back(std::move(s));
        }
      }
    }
  }

  // Fig. 5: GM multicast, host-based binomial vs NIC-based postal.
  const std::vector<std::size_t> mcast_nodes =
      smoke ? std::vector<std::size_t>{16} : std::vector<std::size_t>{4, 8, 16};
  for (const std::size_t nodes : mcast_nodes) {
    for (const std::size_t bytes : sizes) {
      for (const Algo algo : {Algo::kHostBased, Algo::kNicBased}) {
        RunSpec s;
        s.experiment = Experiment::kGmMulticast;
        s.nodes = nodes;
        s.message_bytes = bytes;
        s.algo = algo;
        s.tree =
            algo == Algo::kNicBased ? TreeShape::kPostal : TreeShape::kBinomial;
        s.iterations = smoke ? 3 : 20;
        s.label = "fig5-n" + std::to_string(nodes) + "-" + size_tag(bytes) +
                  "-" + algo_tag(algo);
        w.cases.push_back(std::move(s));
      }
    }
  }

  // Fig. 6: host CPU time in MPI_Bcast vs mean skew, 16 nodes.  The smoke
  // list keeps only the calibration anchors.
  const std::vector<double> skews =
      smoke ? std::vector<double>{0.0, 25.0, 400.0}
            : std::vector<double>{0.0, 10.0, 25.0, 50.0, 100.0, 200.0, 300.0,
                                  400.0};
  const std::vector<std::size_t> skew_sizes =
      smoke ? std::vector<std::size_t>{4}
            : std::vector<std::size_t>{2, 4, 8, 2048, 4096, 8192};
  for (const double skew : skews) {
    for (const std::size_t bytes : skew_sizes) {
      for (const Algo algo : {Algo::kHostBased, Algo::kNicBased}) {
        RunSpec s;
        s.experiment = Experiment::kSkewBcast;
        s.avg_skew_us = skew;
        s.message_bytes = bytes;
        s.algo = algo;
        s.warmup = 3;
        s.iterations = 25;
        char tag[32];
        std::snprintf(tag, sizeof tag, "%.0fus", skew);
        s.label = std::string("fig6-") + tag + "-" + size_tag(bytes) + "-" +
                  algo_tag(algo);
        w.cases.push_back(std::move(s));
      }
    }
  }

  // Fig. 7: the skew-tolerance factor vs system size at 400 us mean skew.
  if (!smoke) {
    for (const std::size_t nodes : {4u, 8u, 12u, 16u}) {
      for (const std::size_t bytes : {4u, 4096u}) {
        for (const Algo algo : {Algo::kHostBased, Algo::kNicBased}) {
          RunSpec s;
          s.experiment = Experiment::kSkewBcast;
          s.nodes = nodes;
          s.avg_skew_us = 400.0;
          s.message_bytes = bytes;
          s.algo = algo;
          s.warmup = 3;
          s.iterations = 25;
          s.label = "fig7-n" + std::to_string(nodes) + "-" + size_tag(bytes) +
                    "-" + algo_tag(algo);
          w.cases.push_back(std::move(s));
        }
      }
    }
  }
  return w;
}

// The NIC reliability path: retransmit, timer cancel, duplicate and
// out-of-order drops, and the fault injectors, on a 64-node Clos.
Workload lossy64(bool smoke) {
  Workload w{"lossy-64", {}, 5};
  RunSpec mcast;
  mcast.experiment = Experiment::kGmMulticast;
  mcast.label = "mcast-64-16384B-burst1%";
  mcast.nodes = 64;
  mcast.message_bytes = 16384;
  mcast.algo = Algo::kNicBased;
  mcast.tree = TreeShape::kPostal;
  mcast.loss_rate = 0.01;
  mcast.faults = FaultFamily::kBurst;
  mcast.warmup = 4;
  mcast.iterations = smoke ? 40 : 1200;
  w.cases.push_back(mcast);

  RunSpec msend;
  msend.experiment = Experiment::kMultisend;
  msend.label = "msend-64-512B-ack2%";
  msend.nodes = 64;
  msend.destinations = 63;
  msend.message_bytes = 512;
  msend.algo = Algo::kNicBased;
  msend.loss_rate = 0.02;
  msend.faults = FaultFamily::kAckTargeted;
  msend.warmup = 4;
  msend.iterations = smoke ? 40 : 1800;
  w.cases.push_back(msend);
  return w;
}

// The ext_scalability 16k fabric: a binomial 512 B NIC multicast on a
// radix-16 Clos, on the classic engine.
RunSpec fabric_mcast(bool smoke) {
  RunSpec s;
  s.experiment = Experiment::kGmMulticast;
  s.label = smoke ? "mcast-1024-512B" : "mcast-16384-512B";
  s.nodes = smoke ? 1024 : 16384;
  s.wiring = Wiring::kClos;
  s.switch_radix = 16;
  s.message_bytes = 512;
  s.algo = Algo::kNicBased;
  s.tree = TreeShape::kBinomial;
  s.warmup = 1;
  s.iterations = smoke ? 3 : 30;
  return s;
}

Workload fabric16k(bool smoke) {
  return Workload{"fabric-16k", {fabric_mcast(smoke)}, 4};
}

// The same fabric on the sharded PDES engine with default sync and
// horizon settings: a round-heavy flat multisend and the fabric-16k
// multicast with only `shards` changed.
Workload sharded16k(bool smoke) {
  Workload w{"sharded-16k", {}, 3};
  RunSpec msend;
  msend.experiment = Experiment::kMultisend;
  msend.label = smoke ? "msend-1024-512B-s4" : "msend-16384-512B-s4";
  msend.nodes = smoke ? 1024 : 16384;
  msend.destinations = msend.nodes - 1;
  msend.wiring = Wiring::kClos;
  msend.switch_radix = 16;
  msend.message_bytes = 512;
  msend.algo = Algo::kNicBased;
  msend.warmup = 1;
  msend.iterations = smoke ? 1 : 3;
  msend.shards = 4;
  w.cases.push_back(msend);

  RunSpec mcast = fabric_mcast(smoke);
  mcast.label += "-s4";
  mcast.shards = 4;
  w.cases.push_back(mcast);
  return w;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"paper-16", "lossy-64",
                                              "fabric-16k", "sharded-16k"};
  return names;
}

Workload make_workload(std::string_view name, bool smoke) {
  if (name == "paper-16") return paper16(smoke);
  if (name == "lossy-64") return lossy64(smoke);
  if (name == "fabric-16k") return fabric16k(smoke);
  if (name == "sharded-16k") return sharded16k(smoke);
  throw std::invalid_argument("unknown workload '" + std::string(name) + "'");
}

std::vector<BandCheck> calibration_bands(
    const std::map<std::string, double>& results) {
  const char* const anchors[] = {
      "fig5-n16-512B-host",  "fig5-n16-512B-nic",  "fig5-n16-2048B-host",
      "fig5-n16-2048B-nic",  "fig5-n16-16384B-host", "fig5-n16-16384B-nic",
      "fig3-k4-64B-host",    "fig3-k4-64B-nic",    "fig6-400us-4B-host",
      "fig6-400us-4B-nic",   "fig6-25us-4B-host",  "fig6-0us-4B-host"};
  for (const char* label : anchors) {
    if (!results.contains(label)) return {};
  }
  auto r = [&](const char* label) { return results.at(label); };
  const double f512 = r("fig5-n16-512B-host") / r("fig5-n16-512B-nic");
  const double f2k = r("fig5-n16-2048B-host") / r("fig5-n16-2048B-nic");
  const double f16k = r("fig5-n16-16384B-host") / r("fig5-n16-16384B-nic");
  const double hb16k = r("fig5-n16-16384B-host");
  const double msend = r("fig3-k4-64B-host") / r("fig3-k4-64B-nic");
  const double hb400 = r("fig6-400us-4B-host");
  const double nb400 = r("fig6-400us-4B-nic");
  const double hb25 = r("fig6-25us-4B-host");
  const double hb0 = r("fig6-0us-4B-host");

  auto fmt = [](const char* form, double a, double b = 0.0) {
    char buf[96];
    std::snprintf(buf, sizeof buf, form, a, b);
    return std::string(buf);
  };
  return {
      {"fig5.factor_512B>1.5", f512 > 1.5, fmt("%.3f", f512)},
      {"fig5.factor_2KB>1.2", f2k > 1.2, fmt("%.3f", f2k)},
      {"fig5.dip_at_2KB", f2k < f512 && f2k < f16k,
       fmt("2KB %.3f vs 512B/16KB", f2k)},
      {"fig5.peak_at_16KB", f16k > f512, fmt("16KB %.3f vs 512B %.3f", f16k,
                                             f512)},
      {"fig5.hb_16KB_in_500-1000us", hb16k > 500.0 && hb16k < 1000.0,
       fmt("%.1f us", hb16k)},
      {"fig3.multisend_factor_in_1.6-2.3", msend > 1.6 && msend < 2.3,
       fmt("%.3f", msend)},
      {"fig6.hb_400us_in_90-190us", hb400 > 90.0 && hb400 < 190.0,
       fmt("%.1f us", hb400)},
      {"fig6.nb_400us_below_25us", nb400 < 25.0, fmt("%.1f us", nb400)},
      {"fig6.small_skew_dip", hb25 < hb0, fmt("%.1f < %.1f us", hb25, hb0)},
  };
}

}  // namespace nicmcast::suite
