// Shared experiment plumbing: the paper's measurement methodology (warm-up
// iterations, averaged timed iterations, latency to the last destination)
// plus payload and tree helpers used by the stock runners, the benches and
// the CLI.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <vector>

#include "gm/cluster.hpp"
#include "harness/run_spec.hpp"
#include "mcast/postal_tree.hpp"
#include "mcast/tree.hpp"
#include "sim/sync.hpp"
#include "sim/task.hpp"

namespace nicmcast::harness {

inline gm::Payload make_payload(std::size_t n, std::uint8_t salt = 0) {
  gm::Payload p(n);
  // i*131 mod 256 has period 256, so the pattern is one 256-byte block
  // repeated: compute the first period, then double it with memcpy —
  // soak workloads build and compare multi-KiB payloads in their inner
  // loop, where the per-byte multiply showed up in profiles.
  const std::size_t head = std::min<std::size_t>(n, 256);
  for (std::size_t i = 0; i < head; ++i) {
    p[i] = std::byte{static_cast<std::uint8_t>(i * 131u + salt)};
  }
  for (std::size_t filled = head; filled < n;) {
    const std::size_t copy = std::min(filled, n - filled);
    std::memcpy(p.data() + filled, p.data(), copy);
    filled += copy;
  }
  return p;
}

/// True when `got` holds exactly the bytes of `want`.  One memcmp, not
/// std::vector's operator==: GCC compiles that to a byte loop whose speed
/// moves with its code address (Intel's JCC erratum), and the runners call
/// this once per delivery.
inline bool same_payload(const gm::Payload& got, const gm::Payload& want) {
  return got.size() == want.size() &&
         (got.empty() || std::memcmp(got.data(), want.data(), got.size()) == 0);
}

inline std::vector<net::NodeId> everyone_but(net::NodeId root, std::size_t n) {
  std::vector<net::NodeId> v;
  // size_t index: a NodeId loop counter wraps (historically: infinite loop
  // at n == 65536 when NodeId was 16-bit) instead of terminating.
  for (std::size_t i = 0; i < n; ++i) {
    if (i != root) v.push_back(static_cast<net::NodeId>(i));
  }
  return v;
}

/// Zero-cost simulation-side barrier used to align iterations exactly
/// (the paper used warm-up rounds; determinism lets us do better).
class SimBarrier {
 public:
  explicit SimBarrier(std::size_t parties) : parties_(parties) {}
  sim::Task<void> arrive() {
    if (++count_ == parties_) {
      count_ = 0;
      gate_.release();
    } else {
      co_await gate_.wait();
    }
  }

 private:
  std::size_t parties_;
  std::size_t count_ = 0;
  sim::Gate gate_;
};

/// Standard message-size sweep used by the paper's figures.
inline std::vector<std::size_t> paper_sizes() {
  return {1, 4, 16, 64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384};
}

/// Resolves Wiring::kAuto the way the benches always have: single switch up
/// to 16 nodes, radix-16 Clos above.
[[nodiscard]] gm::ClusterConfig::Wiring resolve_wiring(const RunSpec& spec);

/// Cluster configuration implied by a spec (nodes, wiring, NIC knobs, seed).
[[nodiscard]] gm::ClusterConfig cluster_config(const RunSpec& spec);

/// Builds the spanning tree a spec asks for, rooted at 0 over `dests`.
/// The postal shape is cost-modelled for the spec's message size and algo.
[[nodiscard]] mcast::Tree build_tree(const RunSpec& spec,
                                     const std::vector<net::NodeId>& dests);

}  // namespace nicmcast::harness
