// The nicmcast-* determinism- and concurrency-contract checks, portable
// engine.
//
// Nine checks, each pinned by a fixture under ../fixtures and honouring
// `NOLINT(<check>): reason` annotations; the ninth, nicmcast-bare-nolint,
// audits the annotations themselves:
//
//   nicmcast-nondeterministic-iteration  range-for over an unordered
//       container whose body feeds an ordering-sensitive sink (schedules
//       events, emits trace, appends to a log) — iteration order leaks
//       into event_order_hash.
//   nicmcast-pointer-order               ordered containers keyed on
//       pointers, std::hash<T*>, relational comparisons of raw pointers,
//       reinterpret_cast pointer-value folds — address-dependent order.
//   nicmcast-wall-clock                  std::chrono::*_clock::now, rand,
//       std::random_device, argless time()/clock() outside src/harness/
//       seeding — host time is not simulated time.
//   nicmcast-descriptor-escape           a DescriptorRef or net::Buffer
//       borrowed in a completion callback escaping by raw pointer or
//       by-reference capture into work that outlives the callback.
//   nicmcast-inline-function-capture     sim::InlineFunction captures
//       whose lower-bound size already exceeds the inline budget, or that
//       capture raw pooled pointers by value.
//   nicmcast-memory-order-audit          std::atomic operations that rely
//       on the implicit seq_cst default instead of passing an explicit
//       std::memory_order (including ++/--/= operator sugar), and relaxed
//       loads guarding a branch that publishes non-atomic state.
//   nicmcast-shard-state-escape          non-atomic members written from a
//       worker-thread lambda without a channel or lock in between —
//       shard-confined state escaping its owner.
//   nicmcast-thread-nondeterminism       thread_local state, thread-id
//       queries (std::this_thread::get_id, pthread_self, gettid) and
//       std::thread::id-keyed types: results that vary with --shards.
//   nicmcast-bare-nolint                 a suppression comment that names
//       no specific check or carries no trailing justification; it must
//       read `NOLINT(<check>): reason` so the waiver stays reviewable.
//
// The engine is two-pass: collect_declarations() over every input file
// builds a name -> kind table (so auditor.cpp's loop over a member
// declared in nic.hpp still resolves), then run_checks() walks each file's
// token stream.  Everything here is a conservative textual approximation.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "lexer.hpp"

namespace nicmcast::tidy {

struct Diagnostic {
  std::string file;
  int line = 0;
  int col = 0;
  std::string check;
  std::string message;
};

enum class VarKind {
  kOther,
  kUnorderedContainer,  // std::unordered_{map,set,multimap,multiset}
  kPointer,             // any T* declaration
  kBuffer,              // net::Buffer
  kDescriptorRef,       // nic::DescriptorRef
  kPooledRawPtr,        // PacketDescriptor*
  kInlineFunction,      // sim::InlineFunction<Sig, N>
  kAtomic,              // std::atomic<T>
  kThreadContainer,     // std::vector<std::thread | std::jthread>
};

struct VarInfo {
  VarKind kind = VarKind::kOther;
  std::string type_text;  // flattened declaration type, for diagnostics
  std::size_t inline_budget = 0;  // kInlineFunction: the declared N
};

/// Identifier name -> what its declaration(s) said it is.  Name-keyed on
/// purpose: the portable engine has no scopes, so a member declared in one
/// header resolves in every file that iterates it.  Collisions make the
/// checks more conservative, never less.
using SymbolTable = std::unordered_map<std::string, VarInfo>;

struct CheckOptions {
  /// Checks to run; empty means all nine.
  std::vector<std::string> enabled;
  /// Call names that make unordered iteration order observable.  The
  /// defaults cover the simulator's schedulers, tracers and log appends.
  std::vector<std::string> iteration_sinks = {
      "schedule",  "schedule_at", "schedule_after", "emit",
      "emit_trace", "trace",      "send",           "send_packet",
      "post",      "enqueue",     "push_back",      "violation",
  };
  /// Path prefixes (relative, '/'-separated) where nicmcast-wall-clock is
  /// allowed: harness seeding and host-throughput measurement live here.
  std::vector<std::string> wall_clock_allowed = {"src/harness/"};
  /// Default inline budget when an InlineFunction context does not name
  /// one (sim::InlineFunction's default InlineBytes).
  std::size_t inline_budget = 88;
};

/// Pass 1: fold `source`'s declarations into `symbols`.
void collect_declarations(std::string_view source, SymbolTable& symbols);

/// Pass 2: run the enabled checks over one file.  `path` should be
/// repo-relative; it is matched against wall_clock_allowed and echoed in
/// diagnostics.
[[nodiscard]] std::vector<Diagnostic> run_checks(const std::string& path,
                                                 std::string_view source,
                                                 const SymbolTable& symbols,
                                                 const CheckOptions& options);

}  // namespace nicmcast::tidy
