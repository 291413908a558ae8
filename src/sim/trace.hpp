// Lightweight categorised event tracing.
//
// Components emit trace records ("nic", "net", "gm", "mcast", "mpi"); a
// Tracer with no enabled categories costs one branch per record.  The
// timing-diagram example and debugging sessions turn categories on and dump
// to a stream or inspect records programmatically.
#pragma once

#include <functional>
#include <ostream>
#include <string>
#include <string_view>
#include <unordered_set>
#include <vector>

#include "sim/time.hpp"

namespace nicmcast::sim {

struct TraceRecord {
  TimePoint when;
  std::string category;
  std::string actor;   // e.g. "node3.nic" or "node0.host"
  std::string message;
};

class Tracer {
 public:
  void enable(std::string_view category) {
    enabled_.insert(std::string(category));
  }

  /// Heterogeneous (string_view) lookup: the disabled-tracer fast path and
  /// every emit() check run without constructing a std::string.
  [[nodiscard]] bool enabled(std::string_view category) const {
    return !enabled_.empty() && enabled_.contains(category);
  }

  /// Streams records live instead of (or in addition to) retaining them.
  void set_sink(std::ostream* os) { sink_ = os; }
  /// When false (default true), records are not retained in memory.
  void set_retain(bool retain) { retain_ = retain; }

  void emit(TimePoint when, std::string_view category, std::string_view actor,
            std::string message) {
    if (!enabled(category)) return;
    if (sink_ != nullptr) {
      (*sink_) << "[" << when.microseconds() << "us] " << category << " "
               << actor << ": " << message << "\n";
    }
    if (retain_) {
      records_.push_back(TraceRecord{when, std::string(category),
                                     std::string(actor), std::move(message)});
    }
  }

  [[nodiscard]] const std::vector<TraceRecord>& records() const {
    return records_;
  }

 private:
  // Transparent hashing so find/contains accept string_view without an
  // allocation (C++20 heterogeneous unordered lookup).
  struct StringHash {
    using is_transparent = void;
    [[nodiscard]] std::size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  std::unordered_set<std::string, StringHash, std::equal_to<>> enabled_;
  std::vector<TraceRecord> records_;
  std::ostream* sink_ = nullptr;
  bool retain_ = true;
};

}  // namespace nicmcast::sim
