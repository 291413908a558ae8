// nicmcast_bench: the end-to-end and per-layer benchmark driver.
//
//   nicmcast_bench --workload {all|paper-16|lossy-64|fabric-16k|sharded-16k}
//                  [--seed S] [--json OUT] [--trace TRACE] [--smoke]
//                  [--seconds T]
//
// A closed loop: one process runs a workload's cases back to back, pass
// after pass (classic cases on one thread, sharded cases on 4 shard
// threads).  Every pass runs in its own forked child, so it starts from a
// fresh heap, as a user's run would, and its peak RSS (wait4's ru_maxrss)
// is its own whatever ran before it.  Every metric is a median over
// passes, printed with its quartiles and pass count; every output is
// checked, and the exit status is 1 when any check fails.
//
// --trace alternates untraced and traced passes: end-to-end metrics come
// from the untraced ones, per-layer metrics (and the NIC receive shim)
// from the traced ones, whose spans go to TRACE as Chrome trace-event
// JSON.  --seconds replaces the workload's fixed pass count with a time
// budget (at least two passes).  --smoke shrinks every workload, compares
// each case's hash with harness::run_one's, and checks that paper-16's RSS
// does not depend on what ran before it.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cases.hpp"
#include "harness/json.hpp"
#include "harness/parallel_runner.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace nicmcast::suite {
namespace {

namespace json = harness::json;

struct Options {
  std::string workload = "all";
  std::uint64_t seed = 1;
  std::string json_path;
  std::string trace_path;
  bool smoke = false;
  double seconds = 0.0;
};

[[noreturn]] void usage(const char* argv0, const std::string& error) {
  if (!error.empty()) std::fprintf(stderr, "nicmcast_bench: %s\n", error.c_str());
  std::fprintf(stderr,
               "usage: %s --workload {all|paper-16|lossy-64|fabric-16k|"
               "sharded-16k} [--seed S] [--json OUT] [--trace TRACE] "
               "[--smoke] [--seconds T]\n",
               argv0);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(argv[0], std::string(arg) + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        o.workload = value();
      } else if (arg == "--seed") {
        o.seed = std::stoull(value());
      } else if (arg == "--json") {
        o.json_path = value();
      } else if (arg == "--trace") {
        o.trace_path = value();
      } else if (arg == "--smoke") {
        o.smoke = true;
      } else if (arg == "--seconds") {
        o.seconds = std::stod(value());
      } else if (arg == "--help" || arg == "-h") {
        usage(argv[0], "");
      } else {
        usage(argv[0], "unknown flag " + std::string(arg));
      }
    } catch (const std::logic_error&) {
      usage(argv[0], "bad value for " + std::string(arg));
    }
  }
  const auto& names = workload_names();
  if (o.workload != "all" &&
      std::find(names.begin(), names.end(), o.workload) == names.end()) {
    usage(argv[0], "unknown workload " + o.workload);
  }
  if (!(o.seconds >= 0.0)) usage(argv[0], "--seconds must be >= 0");
  return o;
}

// ---- statistics ----

double median_sorted(const std::vector<double>& v) {
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

struct Summary {
  double value = 0.0;  // median
  double q1 = 0.0;
  double q3 = 0.0;
  std::size_t n = 0;
};

// Median and quartiles; the quartiles follow Python's
// statistics.quantiles(n=4) ("exclusive" method), so spreads printed here
// match what a Python consumer computes from the same values.
Summary summarize(std::vector<double> v) {
  Summary s;
  s.n = v.size();
  if (v.empty()) return s;
  std::sort(v.begin(), v.end());
  s.value = median_sorted(v);
  if (v.size() == 1) {
    s.q1 = s.q3 = v[0];
    return s;
  }
  const auto ld = static_cast<long>(v.size());
  const long m = ld + 1;
  double q[3];
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, ld - 1);
    const long delta = i * m - j * 4;
    q[i - 1] = (v[static_cast<std::size_t>(j - 1)] *
                    static_cast<double>(4 - delta) +
                v[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
               4.0;
  }
  s.q1 = q[0];
  s.q3 = q[2];
  return s;
}

// Linear-interpolation percentile of `v` (sorted in place), p in [0, 1].
double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = p * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] * (1.0 - frac) + v[hi] * frac;
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- checks ----

struct Checks {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  // the first few, for the report

  void add(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 40) failures.push_back(what);
  }

  [[nodiscard]] json::Value to_json() const {
    json::Value c = json::Value::object();
    c["attempted"] = attempted;
    c["failed"] = failed;
    json::Value list = json::Value::array();
    for (const std::string& f : failures) list.push_back(f);
    c["failures"] = std::move(list);
    return c;
  }

  void merge(const json::Value& c) {
    attempted += static_cast<std::uint64_t>(c.at("attempted").as_number());
    failed += static_cast<std::uint64_t>(c.at("failed").as_number());
    for (const json::Value& f : c.at("failures").as_array()) {
      if (failures.size() < 40) failures.push_back(f.as_string());
    }
  }
};

// ---- one pass ----

// Counters summed over a pass's cases.
struct Counters {
  sim::EventQueue::Stats queue;  // wheel_occupancy_peak is the max
  nic::NicStats nic;
  net::NetworkStats net;
  net::RouteTableStats routes;
  ShardCounters shard;
  std::uint64_t sharded_events = 0;
  double first_iter_us_sum = 0.0;
  std::uint64_t first_iter_cases = 0;

  void add(const CaseOutcome& o, bool sharded) {
    queue.executed += o.queue.executed;
    queue.cancelled += o.queue.cancelled;
    queue.heap_actions += o.queue.heap_actions;
    queue.wheel_cascades += o.queue.wheel_cascades;
    queue.wheel_occupancy_peak =
        std::max(queue.wheel_occupancy_peak, o.queue.wheel_occupancy_peak);
    nic::accumulate(nic, o.nic);
    net.packets_injected += o.net.packets_injected;
    net.packets_dropped += o.net.packets_dropped;
    routes.routes_materialized += o.routes.routes_materialized;
    routes.links_stored += o.routes.links_stored;
    routes.links_shared += o.routes.links_shared;
    shard.lbts_rounds += o.shard.lbts_rounds;
    shard.horizon_stalls += o.shard.horizon_stalls;
    shard.cross_shard_msgs += o.shard.cross_shard_msgs;
    shard.channel_spills += o.shard.channel_spills;
    shard.blocked_waits += o.shard.blocked_waits;
    shard.null_msgs_sent += o.shard.null_msgs_sent;
    shard.cross_links += o.shard.cross_links;
    if (sharded) sharded_events += o.queue.executed;
    if (o.first_iter_us > 0.0) {
      first_iter_us_sum += o.first_iter_us;
      ++first_iter_cases;
    }
  }
};

struct PassRecord {
  double wall_s = 0.0;
  double setup_s = 0.0;
  double sim_s = 0.0;
  double sim_self_s = 0.0;  // sim_s minus the NIC receive shim's time
  std::uint64_t deliveries = 0;
  std::vector<double> iter_us;
  std::vector<SpanRecorder::Total> totals;
  RxTotals rx;
  Counters counters;
};

double kind_s(const PassRecord& p, const SpanKind& kind) {
  for (const auto& t : p.totals) {
    if (t.kind == &kind) return static_cast<double>(t.total_ns) * 1e-9;
  }
  return 0.0;
}

double count(std::uint64_t v) { return static_cast<double>(v); }

// One named metric, evaluated once per pass and summarised over passes.
struct Metric {
  const char* name;
  const char* unit;
  const char* better;
  double (*of)(const PassRecord&);
};

using P = const PassRecord&;

// Plus kPeakRss, which the parent measures around each pass.
const std::vector<Metric>& end_to_end_metrics() {
  static const std::vector<Metric> metrics{
      {"wall_s", "s", "lower", [](P p) { return p.wall_s; }},
      {"setup_s", "s", "lower", [](P p) { return p.setup_s; }},
      {"sim_s", "s", "lower", [](P p) { return p.sim_s; }},
      {"deliveries_per_s", "1/s", "higher",
       [](P p) { return ratio(count(p.deliveries), p.sim_s); }},
      {"iter_us_p50", "us", "lower",
       [](P p) {
         std::vector<double> v = p.iter_us;
         return percentile(v, 0.5);
       }},
      {"iter_us_p90", "us", "lower",
       [](P p) {
         std::vector<double> v = p.iter_us;
         return percentile(v, 0.9);
       }},
  };
  return metrics;
}

const Metric kPeakRss{"peak_rss_mb", "MiB", "lower", nullptr};

const std::vector<Metric>& per_layer_metrics() {
  static const std::vector<Metric> metrics{
      // sim: the scheduler plus everything the run spans do not attribute.
      {"sim.run_s", "s", "lower", [](P p) { return p.sim_s; }},
      {"sim.run_self_s", "s", "lower", [](P p) { return p.sim_self_s; }},
      {"sim.ns_per_event", "ns", "lower",
       [](P p) {
         return ratio(p.sim_self_s * 1e9, count(p.counters.queue.executed));
       }},
      {"sim.events_executed", "count", "lower",
       [](P p) { return count(p.counters.queue.executed); }},
      {"sim.events_cancelled", "count", "lower",
       [](P p) { return count(p.counters.queue.cancelled); }},
      {"sim.heap_actions", "count", "lower",
       [](P p) { return count(p.counters.queue.heap_actions); }},
      {"sim.wheel_cascades", "count", "lower",
       [](P p) { return count(p.counters.queue.wheel_cascades); }},
      {"sim.wheel_occupancy_peak", "count", "lower",
       [](P p) { return count(p.counters.queue.wheel_occupancy_peak); }},
      // sim::ShardedEngine.
      {"shard.lbts_rounds", "count", "lower",
       [](P p) { return count(p.counters.shard.lbts_rounds); }},
      {"shard.rounds_per_s", "1/s", "higher",
       [](P p) {
         return ratio(count(p.counters.shard.lbts_rounds),
                      kind_s(p, span::kShardRun));
       }},
      {"shard.events_per_round", "count", "higher",
       [](P p) {
         return ratio(count(p.counters.sharded_events),
                      count(p.counters.shard.lbts_rounds));
       }},
      {"shard.horizon_stalls", "count", "lower",
       [](P p) { return count(p.counters.shard.horizon_stalls); }},
      {"shard.cross_shard_msgs", "count", "lower",
       [](P p) { return count(p.counters.shard.cross_shard_msgs); }},
      {"shard.channel_spills", "count", "lower",
       [](P p) { return count(p.counters.shard.channel_spills); }},
      {"shard.blocked_waits", "count", "lower",
       [](P p) { return count(p.counters.shard.blocked_waits); }},
      {"shard.null_msgs_sent", "count", "lower",
       [](P p) { return count(p.counters.shard.null_msgs_sent); }},
      // net.
      {"net.topology_s", "s", "lower",
       [](P p) { return kind_s(p, span::kTopology); }},
      {"net.fabric_build_s", "s", "lower",
       [](P p) { return kind_s(p, span::kFabricBuild); }},
      {"net.routes_materialized", "count", "lower",
       [](P p) { return count(p.counters.routes.routes_materialized); }},
      {"net.route_share", "ratio", "higher",
       [](P p) {
         const auto& r = p.counters.routes;
         return ratio(count(r.links_shared),
                      count(r.links_stored + r.links_shared));
       }},
      {"net.packets_injected", "count", "lower",
       [](P p) { return count(p.counters.net.packets_injected); }},
      {"net.packets_dropped", "count", "lower",
       [](P p) { return count(p.counters.net.packets_dropped); }},
      {"net.cross_links", "count", "lower",
       [](P p) { return count(p.counters.shard.cross_links); }},
      {"iter.first_us", "us", "lower",
       [](P p) {
         return ratio(p.counters.first_iter_us_sum,
                      count(p.counters.first_iter_cases));
       }},
      // nic: time inside nic::Nic::packet_arrived (NicRxShim) and counters.
      {"nic.rx_s", "s", "lower",
       [](P p) { return static_cast<double>(p.rx.ns) * 1e-9; }},
      {"nic.rx_ns_per_pkt", "ns", "lower",
       [](P p) { return ratio(static_cast<double>(p.rx.ns), count(p.rx.packets)); }},
      {"nic.retransmit_ratio", "ratio", "lower",
       [](P p) {
         return ratio(count(p.counters.nic.retransmissions),
                      count(p.counters.nic.packets_sent));
       }},
      {"nic.drops", "count", "lower",
       [](P p) {
         const nic::NicStats& n = p.counters.nic;
         return count(n.crc_drops + n.out_of_order_drops + n.duplicate_drops +
                      n.no_token_drops + n.nic_buffer_drops);
       }},
      {"nic.forwards", "count", "lower",
       [](P p) { return count(p.counters.nic.forwards); }},
      {"nic.acks_sent", "count", "lower",
       [](P p) { return count(p.counters.nic.acks_sent); }},
      {"nic.descriptor_reuse_ratio", "ratio", "higher",
       [](P p) {
         const nic::NicStats& n = p.counters.nic;
         return ratio(count(n.descriptor_reuses),
                      count(n.descriptor_allocs + n.descriptor_reuses));
       }},
      {"nic.payload_bytes_copied", "bytes", "lower",
       [](P p) { return count(p.counters.nic.payload_bytes_copied); }},
      {"nic.map_growths", "count", "lower",
       [](P p) { return count(p.counters.nic.map_growths); }},
      // gm, mcast and mpi bring-up, and sim.run split by case family.
      {"gm.cluster_s", "s", "lower", [](P p) { return kind_s(p, span::kCluster); }},
      {"gm.rx_buffers_s", "s", "lower",
       [](P p) { return kind_s(p, span::kRxBuffers); }},
      {"gm.spawn_s", "s", "lower", [](P p) { return kind_s(p, span::kSpawn); }},
      {"mcast.tree_s", "s", "lower", [](P p) { return kind_s(p, span::kTree); }},
      {"mcast.group_s", "s", "lower", [](P p) { return kind_s(p, span::kGroup); }},
      {"mpi.world_s", "s", "lower", [](P p) { return kind_s(p, span::kWorld); }},
      {"case.gm_s", "s", "lower", [](P p) { return kind_s(p, span::kGmRun); }},
      {"case.mpi_s", "s", "lower",
       [](P p) { return kind_s(p, span::kMpiRun) + kind_s(p, span::kSkewRun); }},
      {"harness.collect_s", "s", "lower",
       [](P p) { return kind_s(p, span::kCollect); }},
  };
  return metrics;
}

const Metric kOverhead{"trace.overhead_ratio", "ratio", "lower", nullptr};

// Runs every case once; returns the pass's metric values, case hashes and
// checks (and, when traced, its spans as Chrome trace events).
json::Value run_pass(const std::vector<harness::RunSpec>& cases,
                     const std::vector<std::string>& labels, bool traced,
                     std::int64_t t0_ns) {
  SpanRecorder rec;
  Checks checks;
  PassRecord pr;
  json::Value hashes = json::Value::array();
  std::map<std::string, double> band_inputs;
  {
    ScopedSpan pass_span(rec, span::kPass);
    for (std::size_t i = 0; i < cases.size(); ++i) {
      const harness::RunSpec& spec = cases[i];
      rec.set_case(static_cast<std::uint32_t>(i));
      const ScopedSpan case_span(rec, span::kCase);
      CaseOutcome out;
      try {
        out = run_case(spec, rec, traced);
      } catch (const std::exception& e) {
        checks.add(false, spec.label + ": " + e.what());
        hashes.push_back("0");
        continue;
      }
      hashes.push_back(std::to_string(out.hash));
      if (out.checks_payload) {
        checks.add(out.payload_mismatches == 0,
                   spec.label + ": " + std::to_string(out.payload_mismatches) +
                       " payloads differ from the sender's");
      }
      if (out.counts_deliveries) {
        checks.add(out.deliveries == out.expected_deliveries,
                   spec.label + ": " + std::to_string(out.deliveries) +
                       " deliveries, expected " +
                       std::to_string(out.expected_deliveries));
      }
      pr.deliveries += out.deliveries;
      pr.iter_us.insert(pr.iter_us.end(), out.iter_us.begin(),
                        out.iter_us.end());
      pr.counters.add(out, spec.shards > 1);
      band_inputs[spec.label] = out.sim_us;
    }
    pr.wall_s = static_cast<double>(pass_span.finish()) * 1e-9;
  }
  pr.setup_s = rec.phase_s(Phase::kSetup);
  pr.sim_s = rec.phase_s(Phase::kSim);
  pr.sim_self_s = rec.phase_s(Phase::kSim, /*self=*/true);
  pr.totals = rec.totals();
  pr.rx = rec.rx_totals();
  for (const BandCheck& band : calibration_bands(band_inputs)) {
    checks.add(band.ok, "calibration " + band.name + ": " + band.detail);
  }

  json::Value values = json::Value::object();
  for (const Metric& m : end_to_end_metrics()) values[m.name] = m.of(pr);
  if (traced) {
    for (const Metric& m : per_layer_metrics()) values[m.name] = m.of(pr);
  }
  json::Value doc = json::Value::object();
  doc["values"] = std::move(values);
  doc["iter_samples"] = pr.iter_us.size();
  doc["hashes"] = std::move(hashes);
  doc["checks"] = checks.to_json();
  if (traced) doc["events"] = rec.chrome_events(labels, t0_ns);
  return doc;
}

// ---- forked children ----

struct ChildResult {
  json::Value doc;
  double peak_rss_mb = 0.0;
  std::string error;  // empty on success
};

// Runs `fn` (returning a json::Value) in a forked child and returns its
// result with the child's peak RSS.
template <typename Fn>
ChildResult in_child(Fn&& fn) {
  ChildResult r;
  int fds[2];
  if (pipe(fds) != 0) {
    r.error = std::string("pipe: ") + std::strerror(errno);
    return r;
  }
  std::fflush(nullptr);
  const pid_t pid = fork();
  if (pid < 0) {
    r.error = std::string("fork: ") + std::strerror(errno);
    close(fds[0]);
    close(fds[1]);
    return r;
  }
  if (pid == 0) {
    close(fds[0]);
    int code = 0;
    std::string text;
    try {
      text = fn().dump();
    } catch (const std::exception& e) {
      json::Value err = json::Value::object();
      err["error"] = e.what();
      text = err.dump();
      code = 1;
    }
    std::size_t off = 0;
    while (off < text.size()) {
      const ssize_t n = write(fds[1], text.data() + off, text.size() - off);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) {
        code = 1;
        break;
      }
      off += static_cast<std::size_t>(n);
    }
    close(fds[1]);
    std::fflush(nullptr);
    _exit(code);
  }
  close(fds[1]);
  std::string text;
  char buf[65536];
  for (;;) {
    const ssize_t n = read(fds[0], buf, sizeof buf);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    text.append(buf, static_cast<std::size_t>(n));
  }
  close(fds[0]);
  int status = 0;
  rusage usage{};
  while (wait4(pid, &status, 0, &usage) < 0) {
    if (errno != EINTR) {
      r.error = std::string("wait4: ") + std::strerror(errno);
      return r;
    }
  }
  r.peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;
  try {
    r.doc = json::Value::parse(text);
  } catch (const std::exception& e) {
    r.error = "child died without a report (" + std::string(e.what()) + ")";
    return r;
  }
  if (r.doc.contains("error")) {
    r.error = r.doc.at("error").as_string();
  } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r.error = "child exited abnormally";
  }
  return r;
}

// ---- one workload (in this process; each pass in a child) ----

/// Streams Chrome trace events to a file as traced passes report them.
class TraceWriter {
 public:
  explicit TraceWriter(const std::string& path) : out_(path), path_(path) {
    out_ << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  }
  void add(const json::Value& events) {
    for (const json::Value& e : events.as_array()) {
      out_ << (first_ ? "\n" : ",\n") << e.dump();
      first_ = false;
    }
  }
  /// Closes the document; false when any write failed.
  bool finish() {
    out_ << "\n]}\n";
    out_.close();
    return static_cast<bool>(out_);
  }
  [[nodiscard]] const std::string& path() const { return path_; }

 private:
  std::ofstream out_;
  std::string path_;
  bool first_ = true;
};

std::string trace_path_for(const Options& o, const std::string& workload) {
  if (o.workload != "all") return o.trace_path;
  const std::size_t dot = o.trace_path.rfind('.');
  const std::size_t slash = o.trace_path.rfind('/');
  if (dot == std::string::npos ||
      (slash != std::string::npos && dot < slash)) {
    return o.trace_path + "." + workload;
  }
  return o.trace_path.substr(0, dot) + "." + workload +
         o.trace_path.substr(dot);
}

json::Value summary_json(const Summary& s, const Metric& m) {
  json::Value v = json::Value::object();
  v["value"] = s.value;
  v["unit"] = m.unit;
  v["better"] = m.better;
  v["q1"] = s.q1;
  v["q3"] = s.q3;
  v["n"] = s.n;
  return v;
}

using Series = std::map<std::string, std::vector<double>>;

json::Value metrics_json(const std::vector<Metric>& metrics,
                         const Series& series) {
  json::Value out = json::Value::object();
  for (const Metric& m : metrics) {
    const auto it = series.find(m.name);
    out[m.name] = summary_json(
        summarize(it == series.end() ? std::vector<double>{} : it->second), m);
  }
  return out;
}

json::Value run_workload(const Workload& w, const Options& o) {
  std::vector<harness::RunSpec> cases = w.cases;
  std::vector<std::string> labels;
  for (std::size_t i = 0; i < cases.size(); ++i) {
    cases[i].seed = harness::derive_seed(o.seed, i);
    labels.push_back(cases[i].label);
  }
  const bool tracing = !o.trace_path.empty();
  std::unique_ptr<TraceWriter> trace;
  if (tracing) trace = std::make_unique<TraceWriter>(trace_path_for(o, w.name));
  const int fixed_passes = o.smoke ? 2 : w.passes;

  Checks checks;
  std::vector<std::string> hashes;  // pass 0's, per case
  Series untraced;
  Series traced;
  std::vector<double> pass_walls;
  std::size_t samples = 0;
  std::string error;
  const std::int64_t start = now_ns();

  for (int pass = 0;; ++pass) {
    if (pass >= 2) {
      if (o.seconds > 0.0) {
        std::vector<double> walls = pass_walls;
        std::sort(walls.begin(), walls.end());
        const double elapsed = static_cast<double>(now_ns() - start) * 1e-9;
        if (elapsed + median_sorted(walls) > o.seconds) break;
      } else if (pass >= fixed_passes) {
        break;
      }
    }
    const bool is_traced = tracing && pass % 2 == 1;
    const std::int64_t pass_start = now_ns();
    ChildResult r =
        in_child([&] { return run_pass(cases, labels, is_traced, start); });
    pass_walls.push_back(static_cast<double>(now_ns() - pass_start) * 1e-9);
    if (!r.error.empty()) {
      error = "pass " + std::to_string(pass) + ": " + r.error;
      break;
    }
    Series& series = is_traced ? traced : untraced;
    for (const auto& [name, v] : r.doc.at("values").as_object()) {
      series[name].push_back(v.as_number());
    }
    series[kPeakRss.name].push_back(r.peak_rss_mb);
    if (!is_traced) {
      samples += static_cast<std::size_t>(r.doc.at("iter_samples").as_number());
    }
    checks.merge(r.doc.at("checks"));
    const json::Value::Array& pass_hashes = r.doc.at("hashes").as_array();
    for (std::size_t i = 0; i < pass_hashes.size(); ++i) {
      if (hashes.size() < pass_hashes.size()) {
        hashes.push_back(pass_hashes[i].as_string());
        continue;
      }
      checks.add(pass_hashes[i].as_string() == hashes[i],
                 labels[i] + ": event_order_hash differs between passes" +
                     (tracing ? " (traced vs untraced)" : ""));
    }
    if (is_traced) trace->add(r.doc.at("events"));
    std::fprintf(stderr, "%s pass %d%s: wall %.3f s, peak RSS %.1f MiB\n",
                 w.name.c_str(), pass, is_traced ? " traced" : "",
                 series.at("wall_s").back(), r.peak_rss_mb);
  }

  if (o.smoke && error.empty()) {
    // The suite's runners must simulate exactly what the stock ones do.
    const ChildResult ref = in_child([&] {
      json::Value out = json::Value::array();
      for (const harness::RunSpec& spec : cases) {
        out.push_back(std::to_string(
            harness::run_one(spec).engine.event_order_hash));
      }
      return out;
    });
    if (!ref.error.empty()) {
      checks.add(false, "harness::run_one: " + ref.error);
    } else {
      for (std::size_t i = 0; i < cases.size() && i < hashes.size(); ++i) {
        checks.add(ref.doc.as_array().at(i).as_string() == hashes[i],
                   labels[i] + ": hash differs from harness::run_one");
      }
    }
  }
  if (trace && !trace->finish()) {
    error = "cannot write trace " + trace->path();
  }

  json::Value doc = json::Value::object();
  doc["name"] = w.name;
  if (!error.empty()) {
    doc["error"] = error;
    return doc;
  }
  doc["passes"] = pass_walls.size();
  doc["traced_passes"] = traced.empty() ? 0 : traced.at("wall_s").size();
  doc["cases"] = cases.size();
  doc["seconds"] = static_cast<double>(now_ns() - start) * 1e-9;
  doc["iter_samples"] = samples;
  json::Value c = checks.to_json();
  c["fail_ratio"] = ratio(count(checks.failed), count(checks.attempted));
  doc["checks"] = std::move(c);

  std::vector<Metric> e2e = end_to_end_metrics();
  e2e.push_back(kPeakRss);
  doc["end_to_end"] = metrics_json(e2e, untraced);
  if (!traced.empty()) {
    json::Value layers = metrics_json(per_layer_metrics(), traced);
    const double overhead = ratio(summarize(traced.at("sim_s")).value,
                                  summarize(untraced.at("sim_s")).value);
    layers[kOverhead.name] = summary_json(
        Summary{overhead, overhead, overhead, traced.at("sim_s").size()},
        kOverhead);
    doc["per_layer"] = std::move(layers);
  }
  return doc;
}

// ---- report ----

void print_metrics(const json::Value& metrics) {
  for (const auto& [name, m] : metrics.as_object()) {
    std::printf("  %-26s %14.6g  [%.6g, %.6g]  n=%-3.0f %s\n", name.c_str(),
                m.at("value").as_number(), m.at("q1").as_number(),
                m.at("q3").as_number(), m.at("n").as_number(),
                m.at("unit").as_string().c_str());
  }
}

void print_report(const json::Value& w) {
  if (w.contains("error")) {
    std::printf("\n== %s: FAILED: %s\n", w.at("name").as_string().c_str(),
                w.at("error").as_string().c_str());
    return;
  }
  const json::Value& c = w.at("checks");
  std::printf(
      "\n== %s: %.0f passes (%.0f traced), %.0f cases/pass, %.1f s; checks "
      "%.0f/%.0f passed\n",
      w.at("name").as_string().c_str(), w.at("passes").as_number(),
      w.at("traced_passes").as_number(), w.at("cases").as_number(),
      w.at("seconds").as_number(),
      c.at("attempted").as_number() - c.at("failed").as_number(),
      c.at("attempted").as_number());
  for (const json::Value& f : c.at("failures").as_array()) {
    std::printf("  FAILED %s\n", f.as_string().c_str());
  }
  std::printf("  %-26s %14s  %-22s %-5s %s\n", "end-to-end (median)", "value",
              "[q1, q3]", "n", "unit");
  print_metrics(w.at("end_to_end"));
  if (w.contains("per_layer")) {
    std::printf("  per-layer (traced passes)\n");
    print_metrics(w.at("per_layer"));
  }
}

bool passed(const json::Value& w) {
  return !w.contains("error") && w.at("checks").at("failed").as_number() == 0.0;
}

// Smoke mode: the files just written must parse back, with no failed check.
bool verify_written(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  try {
    const json::Value doc = json::Value::parse(ss.str());
    if (!doc.contains("workloads")) return true;  // a Chrome trace
    for (const json::Value& w : doc.at("workloads").as_array()) {
      if (!passed(w) || w.at("checks").at("fail_ratio").as_number() != 0.0) {
        return false;
      }
    }
    return true;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nicmcast_bench: %s does not parse back: %s\n",
                 path.c_str(), e.what());
    return false;
  }
}

int run(const Options& o) {
  std::vector<std::string> names;
  if (o.workload == "all") {
    names = workload_names();
  } else {
    names.push_back(o.workload);
  }

  json::Value doc = json::Value::object();
  doc["schema"] = "nicmcast-suite-v1";
  doc["seed"] = std::to_string(o.seed);
  doc["smoke"] = o.smoke;
  doc["traced"] = !o.trace_path.empty();
  doc["seconds_budget"] = o.seconds;
  json::Value reports = json::Value::array();
  bool ok = true;
  double paper_rss_first = 0.0;

  for (const std::string& name : names) {
    json::Value report = run_workload(make_workload(name, o.smoke), o);
    print_report(report);
    ok = ok && passed(report);
    if (name == "paper-16" && passed(report)) {
      paper_rss_first =
          report.at("end_to_end").at(kPeakRss.name).at("value").as_number();
    }
    reports.push_back(std::move(report));
  }

  if (o.smoke && o.workload == "all") {
    // Each pass's RSS is its own: paper-16 again, after fabric-16k.  The
    // slack covers this parent's heap, which every child inherits and
    // which has grown by the reports collected since the first fork.
    Options quiet = o;
    quiet.trace_path.clear();
    const json::Value again = run_workload(make_workload("paper-16", true), quiet);
    const double after =
        passed(again)
            ? again.at("end_to_end").at(kPeakRss.name).at("value").as_number()
            : 0.0;
    const bool same = passed(again) &&
                      std::abs(after - paper_rss_first) <=
                          std::max(0.05 * paper_rss_first, 1.0);
    json::Value rss = json::Value::object();
    rss["paper16_first_mb"] = paper_rss_first;
    rss["paper16_after_fabric_mb"] = after;
    rss["ok"] = same;
    doc["rss_order_check"] = std::move(rss);
    std::printf("\nRSS order check: paper-16 %.1f MiB first, %.1f MiB after "
                "fabric-16k: %s\n",
                paper_rss_first, after, same ? "ok" : "FAILED");
    ok = ok && same;
  }
  doc["workloads"] = std::move(reports);

  if (!o.json_path.empty()) {
    std::ofstream out(o.json_path);
    out << doc.dump(2) << "\n";
    out.close();
    if (!out) {
      std::fprintf(stderr, "nicmcast_bench: cannot write %s\n",
                   o.json_path.c_str());
      return 1;
    }
    if (o.smoke) ok = ok && verify_written(o.json_path);
  }
  if (o.smoke && !o.trace_path.empty()) {
    for (const std::string& name : names) {
      ok = ok && verify_written(trace_path_for(o, name));
    }
  }
  std::printf("\n%s\n", ok ? "all checks passed" : "CHECKS FAILED");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace nicmcast::suite

int main(int argc, char** argv) {
  return nicmcast::suite::run(nicmcast::suite::parse_options(argc, argv));
}
