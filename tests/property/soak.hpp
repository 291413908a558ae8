// Chaos soak: randomized multicast/unicast/collective workloads run under
// stateful fault injectors with the ProtocolAuditor attached to every NIC.
//
// One soak scenario = one seed.  The seed deterministically derives a
// SoakSpec (cluster size and wiring, tree shape, injector family and its
// parameters, workload mix, whether sequence spaces start just below the
// 2^32 wrap); run_soak executes it and checks, at drain:
//   - every workload coroutine finished (nothing wedged),
//   - every payload arrived exactly once, in order, bit-exact,
//   - every ProtocolAuditor invariant held (packet ledger, token/rx-buffer
//     conservation, per-stream exactly-once acceptance, timer quiescence).
//
// run_soak_seed wraps run_soak with a deterministic greedy shrink: on
// failure it re-runs progressively simpler variants of the spec and reports
// the smallest one that still fails, so a soak hit arrives as a minimal
// (seed, spec) reproduction rather than a 20-node haystack.
#pragma once

#include <cstdint>
#include <string>

#include "net/engine_counters.hpp"
#include "nic/auditor.hpp"

namespace nicmcast::soak {

enum class InjectorFamily : std::uint8_t {
  kNone,        // perfect fabric (shrinking only; never drawn randomly)
  kUniform,     // i.i.d. RandomFaults
  kBurst,       // Gilbert–Elliott bursty loss
  kBlackout,    // time-windowed total/filtered outages (+ light background)
  kAckTargeted  // loss restricted to the acknowledgment path
};

[[nodiscard]] const char* to_string(InjectorFamily family);

struct SoakSpec {
  std::uint64_t seed = 1;
  std::size_t nodes = 8;
  bool clos = false;  // multistage Clos wiring instead of a single switch
  enum class Shape : std::uint8_t { kBinomial, kChain, kFlat } tree =
      Shape::kBinomial;
  InjectorFamily injector = InjectorFamily::kUniform;
  int rounds = 3;                  // broadcast rounds
  std::size_t message_bytes = 64;  // broadcast payload size
  int unicast_pairs = 1;           // concurrent point-to-point streams
  int msgs_per_pair = 2;
  bool multisend = false;  // one NIC-based multisend fan-out
  bool barrier = false;    // NIC barrier at the top of every round
  bool reduce = false;     // NIC reduction after the rounds
  bool wrap_seqs = false;  // start sequence spaces just below 2^32

  [[nodiscard]] std::string describe() const;
};

/// Deterministically derives a randomized scenario from a seed.
[[nodiscard]] SoakSpec make_spec(std::uint64_t seed);

struct SoakResult {
  bool ok = false;
  /// Empty when ok; otherwise the first failure, prefixed with the
  /// describe() of the (possibly shrunk) spec that produced it.
  std::string failure;
  nic::ProtocolAuditor::Ledger ledger;
  std::uint64_t retransmissions = 0;
  std::uint64_t conn_resets = 0;
  /// What the simulator did to drain the scenario, from harness::collect:
  /// equal seeds must yield equal event_order_hash values, before and
  /// after engine changes.
  net::EngineCounters engine;
};

/// Runs one scenario to drain and checks every invariant.
[[nodiscard]] SoakResult run_soak(const SoakSpec& spec);

/// make_spec + run_soak; on failure, greedily shrinks the spec and reports
/// the smallest still-failing variant.
[[nodiscard]] SoakResult run_soak_seed(std::uint64_t seed);

}  // namespace nicmcast::soak
