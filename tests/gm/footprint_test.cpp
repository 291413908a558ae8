// Per-endpoint heap footprint of the classic stack, per-channel footprint
// of the sharded engine, and heap allocations per delivered message.
//
// The binary replaces every global operator new/delete form with one that
// counts live bytes and calls, so the test can state how much a
// gm::Cluster holds per endpoint before any traffic, and after every node
// opens a GM port and joins a multicast group.  NIC port records,
// Go-back-N tables and group entries are built on first use; these bounds
// fail if per-node state goes back to being sized by the configuration
// instead.  A sharded engine's cross-shard channels are likewise empty
// until posts fill them.  Once a multicast run has warmed up, a delivered
// message allocates only the host buffer the application receives.
//
// Each block carries a header that records its size, which works for the
// aligned forms (sim::RingDeque allocates with std::align_val_t) and under
// ASan, where the runtime's own operator new is replaced as well.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <new>
#include <numeric>
#include <vector>

#include "gm/cluster.hpp"
#include "mcast/bcast.hpp"
#include "mcast/tree.hpp"
#include "sim/sharded_engine.hpp"
#include "sim/simulator.hpp"
#include "sim/sync.hpp"

namespace {

std::atomic<std::int64_t> g_live_bytes{0};
std::atomic<std::uint64_t> g_new_calls{0};

constexpr std::size_t kMinHeader = alignof(std::max_align_t);

std::size_t header_for(std::size_t align) {
  return std::max(align, kMinHeader);
}

void* counted_alloc(std::size_t size, std::size_t align) noexcept {
  const std::size_t header = header_for(align);
  if (size > SIZE_MAX - header) return nullptr;
  void* base = nullptr;
  if (posix_memalign(&base, header, header + size) != 0) return nullptr;
  auto* user = static_cast<unsigned char*>(base) + header;
  std::memcpy(user - sizeof(size), &size, sizeof(size));
  g_live_bytes.fetch_add(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  g_new_calls.fetch_add(1, std::memory_order_relaxed);
  return user;
}

void* counted_alloc_or_throw(std::size_t size, std::size_t align) {
  void* p = counted_alloc(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void counted_free(void* p, std::size_t align) noexcept {
  if (p == nullptr) return;
  auto* user = static_cast<unsigned char*>(p);
  std::size_t size = 0;
  std::memcpy(&size, user - sizeof(size), sizeof(size));
  g_live_bytes.fetch_sub(static_cast<std::int64_t>(size),
                         std::memory_order_relaxed);
  std::free(user - header_for(align));
}

constexpr std::size_t kDefault = __STDCPP_DEFAULT_NEW_ALIGNMENT__;

std::size_t align_of(std::align_val_t a) {
  return static_cast<std::size_t>(a);
}

}  // namespace

void* operator new(std::size_t n) {
  return counted_alloc_or_throw(n, kDefault);
}
void* operator new[](std::size_t n) {
  return counted_alloc_or_throw(n, kDefault);
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefault);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return counted_alloc(n, kDefault);
}
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_alloc_or_throw(n, align_of(a));
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return counted_alloc(n, align_of(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return counted_alloc(n, align_of(a));
}

void operator delete(void* p) noexcept { counted_free(p, kDefault); }
void operator delete[](void* p) noexcept { counted_free(p, kDefault); }
void operator delete(void* p, std::size_t) noexcept {
  counted_free(p, kDefault);
}
void operator delete[](void* p, std::size_t) noexcept {
  counted_free(p, kDefault);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  counted_free(p, kDefault);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  counted_free(p, kDefault);
}
void operator delete(void* p, std::align_val_t a) noexcept {
  counted_free(p, align_of(a));
}
void operator delete[](void* p, std::align_val_t a) noexcept {
  counted_free(p, align_of(a));
}
void operator delete(void* p, std::size_t, std::align_val_t a) noexcept {
  counted_free(p, align_of(a));
}
void operator delete[](void* p, std::size_t, std::align_val_t a) noexcept {
  counted_free(p, align_of(a));
}
void operator delete(void* p, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  counted_free(p, align_of(a));
}
void operator delete[](void* p, std::align_val_t a,
                       const std::nothrow_t&) noexcept {
  counted_free(p, align_of(a));
}

namespace nicmcast::gm {
namespace {

constexpr std::size_t kEndpoints = 1024;

std::int64_t live_bytes() {
  return g_live_bytes.load(std::memory_order_relaxed);
}

std::uint64_t new_calls() {
  return g_new_calls.load(std::memory_order_relaxed);
}

double per_endpoint(std::int64_t bytes) {
  return static_cast<double>(bytes) / static_cast<double>(kEndpoints);
}

// Stores through a volatile pointer keep the compiler from eliding the
// new/delete pairs under test.
void* volatile g_sink = nullptr;

TEST(Footprint, CountsPlainAndAlignedForms) {
  const std::int64_t before = live_bytes();
  const std::uint64_t calls = new_calls();
  auto* plain = new std::uint64_t[100];
  g_sink = plain;
  EXPECT_EQ(live_bytes() - before, 800);
  EXPECT_EQ(new_calls() - calls, 1u);
  struct alignas(64) Line {
    std::byte bytes[64];
  };
  auto* aligned = new Line[3];
  g_sink = aligned;
  // NOLINTNEXTLINE(nicmcast-pointer-order): checks alignment, feeds no simulation state
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(aligned) % 64, 0u);
  EXPECT_EQ(live_bytes() - before, 800 + 192);
  EXPECT_EQ(new_calls() - calls, 2u);
  delete[] plain;
  delete[] aligned;
  EXPECT_EQ(live_bytes(), before);
}

TEST(Footprint, ClusterStateFollowsTraffic) {
  // The tree is host-side input, built before the baseline so only the
  // cluster's own state is counted.
  std::vector<net::NodeId> dests(kEndpoints - 1);
  std::iota(dests.begin(), dests.end(), net::NodeId{1});
  const mcast::Tree tree = mcast::build_binomial_tree(0, std::move(dests));

  const std::int64_t before = live_bytes();
  Cluster cluster(ClusterConfig{.nodes = kEndpoints,
                                .wiring = ClusterConfig::Wiring::kClos,
                                .switch_radix = 16});
  const double built = per_endpoint(live_bytes() - before);

  for (std::size_t node = 0; node < kEndpoints; ++node) {
    static_cast<void>(cluster.port(node, 0));
  }
  mcast::install_group(cluster, tree, 1);
  const double joined = per_endpoint(live_bytes() - before);

  // The runners pre-post warmup + iterations buffers (31 in the suite's
  // fabric-16k); the post is one queued NIC job, not one per buffer.
  for (std::size_t node = 0; node < kEndpoints; ++node) {
    cluster.port(node, 0).provide_receive_buffers(31, 4096);
  }
  const double posted = per_endpoint(live_bytes() - before) - joined;

  std::printf("bytes per endpoint at %zu endpoints: %.0f after construction, "
              "%.0f with port 0 open and one group installed, "
              "+ %.0f with 31 receive buffers posted\n",
              kEndpoints, built, joined, posted);
  EXPECT_LE(built, 2048.0);
  EXPECT_LE(joined, 4096.0);
  EXPECT_LE(posted, 512.0);
}

// A 1,024-endpoint binomial NIC multicast of 512 B: after two warm-up
// iterations, eight more make at most 1.1 operator new calls per delivered
// message.  The one a delivery needs is its host buffer; receive and
// forward closures stay inside the event queue's inline storage, and
// assemblies, chain states and coroutine frames are recycled.
TEST(Footprint, DeliveredMessageAllocatesOnlyItsHostBuffer) {
  constexpr int kWarmup = 2;
  constexpr int kIterations = 8;
  constexpr int kTotal = kWarmup + kIterations;
  constexpr std::size_t kBytes = 512;
  constexpr net::GroupId kGroup = 1;

  std::vector<net::NodeId> dests(kEndpoints - 1);
  std::iota(dests.begin(), dests.end(), net::NodeId{1});
  const mcast::Tree tree = mcast::build_binomial_tree(0, std::move(dests));
  Cluster cluster(ClusterConfig{.nodes = kEndpoints,
                                .wiring = ClusterConfig::Wiring::kClos,
                                .switch_radix = 16});
  mcast::install_group(cluster, tree, kGroup);
  for (std::size_t node = 1; node < kEndpoints; ++node) {
    cluster.port(node, 0).provide_receive_buffers(kTotal, kBytes);
  }

  // Iteration barrier: the last arrival notes the operator new count, so
  // calls[k] is the count when every node had finished k iterations.
  struct Shared {
    std::vector<Payload> payloads;
    sim::Gate gate;
    std::size_t arrived = 0;
    std::vector<std::uint64_t> calls;
    std::size_t deliveries = 0;
    std::size_t mismatches = 0;

    sim::Task<void> arrive() {
      if (++arrived == kEndpoints) {
        arrived = 0;
        calls.push_back(new_calls());
        gate.release();
      } else {
        co_await gate.wait();
      }
    }
  };
  Shared shared;
  shared.calls.reserve(kTotal + 1);
  for (int iter = 0; iter < kTotal; ++iter) {
    shared.payloads.emplace_back(kBytes, std::byte(iter));
  }

  cluster.run_on_all([&shared, &tree](Cluster& cl,
                                      net::NodeId me) -> sim::Task<void> {
    for (int iter = 0; iter < kTotal; ++iter) {
      co_await shared.arrive();
      const Payload& expected = shared.payloads[iter];
      Payload data;
      if (me == tree.root()) data = expected;
      const Payload got =
          co_await mcast::nic_bcast(cl.port(me), tree, kGroup,
                                    std::move(data),
                                    static_cast<std::uint32_t>(iter));
      if (me != tree.root()) {
        ++shared.deliveries;
        if (got != expected) ++shared.mismatches;
      }
    }
    co_await shared.arrive();
  });
  cluster.run();

  ASSERT_EQ(shared.calls.size(), static_cast<std::size_t>(kTotal + 1));
  EXPECT_EQ(shared.deliveries, (kEndpoints - 1) * kTotal);
  EXPECT_EQ(shared.mismatches, 0u);
  const double measured =
      static_cast<double>((kEndpoints - 1) * kIterations);
  const double per_delivery =
      static_cast<double>(shared.calls[kTotal] - shared.calls[kWarmup]) /
      measured;
  std::printf("operator new calls per delivered message after %d warm-up "
              "iterations: %.3f over %d iterations of %zu deliveries\n",
              kWarmup, per_delivery, kIterations, kEndpoints - 1);
  EXPECT_LE(per_delivery, 1.1);
}

// The engine's channels hold no preallocated storage: beyond its shards'
// own Simulators, an 8-shard engine costs at most 1 KiB per ordered shard
// pair.
TEST(Footprint, ShardedEngineChannelsStartEmpty) {
  constexpr std::size_t kShards = 8;
  constexpr std::size_t kPairs = kShards * (kShards - 1);

  std::int64_t before = live_bytes();
  std::vector<std::unique_ptr<sim::Simulator>> standalone;
  for (std::size_t i = 0; i < kShards; ++i) {
    standalone.push_back(std::make_unique<sim::Simulator>(i + 1));
  }
  const std::int64_t simulators = live_bytes() - before;
  standalone.clear();

  before = live_bytes();
  const sim::ShardedEngine engine(kShards, sim::usec(1));
  const std::int64_t total = live_bytes() - before;
  const double per_pair =
      static_cast<double>(total - simulators) / static_cast<double>(kPairs);

  std::printf("ShardedEngine(%zu): %lld bytes, %lld of them in %zu "
              "Simulators; %.0f bytes per ordered shard pair beyond them\n",
              kShards, static_cast<long long>(total),
              static_cast<long long>(simulators), kShards, per_pair);
  EXPECT_LE(per_pair, 1024.0);
}

}  // namespace
}  // namespace nicmcast::gm
