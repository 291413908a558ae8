// Host-time instrumentation for the benchmark suite, kept entirely outside
// src/: every span is opened and closed by the suite around a public call
// into one layer, so the simulator itself runs unmodified.
//
//   - SpanRecorder: an in-memory span list (name, layer, start, end, parent,
//     case id) with per-kind total and self time, exported as Chrome
//     trace events (the file opens in Perfetto or chrome://tracing).
//   - NicRxShim: a net::PacketSink that times nic::Nic::packet_arrived.  It
//     is re-attached in place of each NIC with Network::attach, so delivery
//     events keep their schedule and the event-order hash does not move.
//     Per-packet spans would dwarf the work they time, so the shim only
//     accumulates time and a packet count into the enclosing run span.
//   - IterationMarks: host timestamps taken by a root coroutine at the start
//     of each simulated iteration.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "gm/cluster.hpp"
#include "harness/json.hpp"
#include "net/network.hpp"
#include "nic/nic.hpp"

namespace nicmcast::suite {

/// Monotonic host time in nanoseconds: the one clock read of the suite.
inline std::int64_t now_ns() {
  // NOLINTNEXTLINE(nicmcast-wall-clock): the suite measures host time around simulator calls
  const auto t = std::chrono::steady_clock::now().time_since_epoch();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}

/// Which pass total a span contributes to.  kNone spans (pass, case) only
/// group their children in the trace.
enum class Phase : std::uint8_t { kNone, kSetup, kSim, kCollect };

/// A span kind: a fixed name and layer.  Kinds are compared by address, so
/// each is one `inline constexpr` object below.
struct SpanKind {
  const char* name;
  const char* layer;
  Phase phase;
};

namespace span {
inline constexpr SpanKind kPass{"pass", "harness", Phase::kNone};
inline constexpr SpanKind kCase{"case", "harness", Phase::kNone};
// Setup: one span per bring-up call.
inline constexpr SpanKind kTopology{"net.topology", "net", Phase::kSetup};
inline constexpr SpanKind kFabricBuild{"net.fabric_build", "net",
                                       Phase::kSetup};
inline constexpr SpanKind kFaults{"net.faults", "net", Phase::kSetup};
inline constexpr SpanKind kCluster{"gm.cluster", "gm", Phase::kSetup};
inline constexpr SpanKind kRxBuffers{"gm.rx_buffers", "gm", Phase::kSetup};
inline constexpr SpanKind kSpawn{"gm.spawn", "gm", Phase::kSetup};
inline constexpr SpanKind kTree{"mcast.tree", "mcast", Phase::kSetup};
inline constexpr SpanKind kGroup{"mcast.group", "mcast", Phase::kSetup};
inline constexpr SpanKind kWorld{"mpi.world", "mpi", Phase::kSetup};
// Simulation: one span per run call, named by the layer that drives it.
inline constexpr SpanKind kGmRun{"sim.run.gm", "sim", Phase::kSim};
inline constexpr SpanKind kMpiRun{"sim.run.mpi", "sim", Phase::kSim};
inline constexpr SpanKind kSkewRun{"sim.run.skew", "sim", Phase::kSim};
inline constexpr SpanKind kShardRun{"sim.run.sharded", "sim", Phase::kSim};
// Collection: counters, output checks and teardown.
inline constexpr SpanKind kCollect{"harness.collect", "harness",
                                   Phase::kCollect};
}  // namespace span

/// Time spent inside nic::Nic::packet_arrived, as measured by NicRxShim.
struct RxTotals {
  std::int64_t ns = 0;
  std::uint64_t packets = 0;
};

class SpanRecorder {
 public:
  struct Span {
    const SpanKind* kind = nullptr;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::int32_t parent = -1;
    std::uint32_t case_id = 0;
    std::int64_t child_ns = 0;  // covered by child spans or the rx shim
    RxTotals rx;                // shim time attributed to this span
  };

  /// Per-kind sums over every closed span.
  struct Total {
    const SpanKind* kind = nullptr;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;  // minus child spans and shim time
  };

  /// Case id stamped on spans opened from now on.
  void set_case(std::uint32_t id) { case_id_ = id; }

  void open(const SpanKind& kind) {
    Span s;
    s.kind = &kind;
    s.parent = stack_.empty() ? -1 : static_cast<std::int32_t>(stack_.back());
    s.case_id = case_id_;
    spans_.push_back(s);
    stack_.push_back(spans_.size() - 1);
    spans_.back().start_ns = now_ns();
  }

  /// Closes the innermost open span and returns its duration in ns; `rx`
  /// is shim time that ran inside it.
  std::int64_t close(RxTotals rx = {}) {
    const std::int64_t end = now_ns();
    if (stack_.empty()) throw std::logic_error("SpanRecorder: close without open");
    const std::size_t id = stack_.back();
    stack_.pop_back();
    Span& s = spans_[id];
    s.end_ns = end;
    s.rx = rx;
    s.child_ns += rx.ns;
    const std::int64_t dur = s.end_ns - s.start_ns;
    if (s.parent >= 0) spans_[static_cast<std::size_t>(s.parent)].child_ns += dur;
    Total& t = total_of(*s.kind);
    t.total_ns += dur;
    t.self_ns += dur - s.child_ns;
    rx_.ns += rx.ns;
    rx_.packets += rx.packets;
    return dur;
  }

  [[nodiscard]] const std::vector<Total>& totals() const { return totals_; }
  [[nodiscard]] RxTotals rx_totals() const { return rx_; }

  /// Total time, or self time, over every kind in `phase`, in seconds.
  [[nodiscard]] double phase_s(Phase phase, bool self = false) const {
    std::int64_t ns = 0;
    for (const Total& t : totals_) {
      if (t.kind->phase == phase) ns += self ? t.self_ns : t.total_ns;
    }
    return static_cast<double>(ns) * 1e-9;
  }

  /// Every closed span as a Chrome trace-event ("X" complete event) with a
  /// microsecond timestamp relative to `t0_ns`; `labels` names case ids.
  [[nodiscard]] harness::json::Value chrome_events(
      const std::vector<std::string>& labels, std::int64_t t0_ns) const {
    namespace json = harness::json;
    json::Value events = json::Value::array();
    for (const Span& s : spans_) {
      json::Value e = json::Value::object();
      e["name"] = s.kind->name;
      e["cat"] = s.kind->layer;
      e["ph"] = "X";
      e["ts"] = static_cast<double>(s.start_ns - t0_ns) * 1e-3;
      e["dur"] = static_cast<double>(s.end_ns - s.start_ns) * 1e-3;
      e["pid"] = 1;
      e["tid"] = 1;
      json::Value args = json::Value::object();
      args["case"] = s.case_id;
      if (s.case_id < labels.size()) args["label"] = labels[s.case_id];
      if (s.rx.packets > 0) {
        args["nic_rx_us"] = static_cast<double>(s.rx.ns) * 1e-3;
        args["nic_rx_packets"] = s.rx.packets;
      }
      e["args"] = std::move(args);
      events.push_back(std::move(e));
    }
    return events;
  }

 private:
  Total& total_of(const SpanKind& kind) {
    for (Total& t : totals_) {
      if (t.kind == &kind) return t;
    }
    totals_.push_back(Total{&kind, 0, 0});
    return totals_.back();
  }

  std::uint32_t case_id_ = 0;
  std::vector<Span> spans_;
  std::vector<std::size_t> stack_;
  std::vector<Total> totals_;
  RxTotals rx_;
};

/// Opens a span for the enclosing scope.  finish() closes it early with the
/// shim time that ran inside it.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder& recorder, const SpanKind& kind) : rec_(recorder) {
    rec_.open(kind);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  ~ScopedSpan() {
    if (open_) rec_.close();
  }

  /// Closes the span; returns its duration in ns.
  std::int64_t finish(RxTotals rx = {}) {
    if (!open_) return 0;
    open_ = false;
    return rec_.close(rx);
  }

 private:
  SpanRecorder& rec_;
  bool open_ = true;
};

/// Times one NIC's packet handler.  Holds the NIC by reference; the cluster
/// must outlive the shim, and the shim must outlive the cluster's run.
class NicRxShim final : public net::PacketSink {
 public:
  NicRxShim(nic::Nic& nic, RxTotals& totals) : nic_(nic), totals_(totals) {}
  NicRxShim(const NicRxShim&) = delete;
  NicRxShim& operator=(const NicRxShim&) = delete;

  void packet_arrived(net::Packet packet) override {
    const std::int64_t start = now_ns();
    nic_.packet_arrived(std::move(packet));
    totals_.ns += now_ns() - start;
    ++totals_.packets;
  }

 private:
  nic::Nic& nic_;
  RxTotals& totals_;
};

/// The shims of one cluster, attached in place of its NICs.
class RxShims {
 public:
  RxShims() = default;
  RxShims(const RxShims&) = delete;
  RxShims& operator=(const RxShims&) = delete;

  void attach(gm::Cluster& cluster) {
    shims_.reserve(cluster.size());
    for (std::size_t i = 0; i < cluster.size(); ++i) {
      shims_.push_back(std::make_unique<NicRxShim>(cluster.nic(i), totals_));
      cluster.network().attach(static_cast<net::NodeId>(i), *shims_.back());
    }
  }
  [[nodiscard]] RxTotals totals() const { return totals_; }

 private:
  RxTotals totals_;
  std::vector<std::unique_ptr<NicRxShim>> shims_;
};

/// Host time at the start of each simulated iteration, taken by the root
/// coroutine; consecutive differences are the per-iteration host cost.
class IterationMarks {
 public:
  void mark() { starts_.push_back(now_ns()); }
  /// Appends one sample (microseconds) per completed gap between starts.
  void gaps_us(std::vector<double>& out) const {
    for (std::size_t i = 1; i < starts_.size(); ++i) {
      out.push_back(static_cast<double>(starts_[i] - starts_[i - 1]) * 1e-3);
    }
  }
  /// Host time of the first iteration (cold caches, lazy routes), or 0.
  [[nodiscard]] double first_us() const {
    return starts_.size() < 2
               ? 0.0
               : static_cast<double>(starts_[1] - starts_[0]) * 1e-3;
  }

 private:
  std::vector<std::int64_t> starts_;
};

}  // namespace nicmcast::suite
