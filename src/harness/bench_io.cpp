#include "harness/bench_io.hpp"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <stdexcept>
#include <string>

namespace nicmcast::harness {

namespace {

[[noreturn]] void usage_and_exit(std::string_view bench_name, int code) {
  std::fprintf(stderr,
               "usage: %.*s [--threads N] [--json PATH] [--iters K] "
               "[--seed S] [--max-nodes M] [--shards P]\n"
               "  --threads N   run the sweep on N worker threads "
               "(default 1; results are\n"
               "                identical for every N)\n"
               "  --json PATH   also write the nicmcast-bench-v1 JSON "
               "document to PATH\n"
               "  --iters K     override the per-point timed-iteration "
               "count\n"
               "  --seed S      base seed for deterministic per-run seed "
               "derivation\n"
               "  --max-nodes M skip sweep points above M nodes (0 = no "
               "cap; used by CI\n"
               "                to keep the scale sweep fast)\n"
               "  --shards P    run migrated experiment points on the "
               "sharded PDES\n"
               "                engine with P shards (0 = each point's "
               "default; 1 = the\n"
               "                classic sequential engine, bit-identical "
               "output)\n"
               "  --only LABEL  run just the scenario/point with this label "
               "(sim_microbench,\n"
               "                ext_scalability; a profiling aid, the "
               "output is not a\n"
               "                regression baseline)\n",
               static_cast<int>(bench_name.size()), bench_name.data());
  std::exit(code);
}

std::uint64_t parse_u64(const char* text, std::string_view bench_name) {
  try {
    return std::stoull(text);
  } catch (const std::exception&) {
    usage_and_exit(bench_name, 2);
  }
}

}  // namespace

BenchOptions parse_bench_options(int argc, char** argv,
                                 std::string_view bench_name) {
  BenchOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&]() -> const char* {
      if (i + 1 >= argc) usage_and_exit(bench_name, 2);
      return argv[++i];
    };
    if (arg == "--help" || arg == "-h") {
      usage_and_exit(bench_name, 0);
    } else if (arg == "--threads") {
      options.threads =
          static_cast<unsigned>(parse_u64(value(), bench_name));
      if (options.threads == 0) options.threads = 1;
    } else if (arg == "--json") {
      options.json_path = value();
    } else if (arg == "--iters") {
      options.iterations =
          static_cast<int>(parse_u64(value(), bench_name));
    } else if (arg == "--seed") {
      options.base_seed = parse_u64(value(), bench_name);
    } else if (arg == "--max-nodes") {
      options.max_nodes =
          static_cast<std::size_t>(parse_u64(value(), bench_name));
    } else if (arg == "--shards") {
      options.shards =
          static_cast<std::size_t>(parse_u64(value(), bench_name));
    } else if (arg == "--only") {
      options.only = value();
    } else {
      std::fprintf(stderr, "unknown option: %.*s\n",
                   static_cast<int>(arg.size()), arg.data());
      usage_and_exit(bench_name, 2);
    }
  }
  return options;
}

RunnerOptions runner_options(const BenchOptions& options) {
  RunnerOptions out;
  out.threads = options.threads;
  out.base_seed = options.base_seed;
  return out;
}

void print_header(const std::string& title,
                  const std::string& paper_reference) {
  std::printf(
      "\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("%s\n", paper_reference.c_str());
  std::printf(
      "================================================================\n");
}

json::Value spec_to_json(const RunSpec& spec) {
  json::Value out = json::Value::object();
  out["experiment"] = to_string(spec.experiment);
  out["label"] = spec.label;
  out["nodes"] = spec.nodes;
  out["wiring"] = to_string(spec.wiring);
  out["radix"] = spec.switch_radix;
  out["bytes"] = spec.message_bytes;
  out["algo"] = to_string(spec.algo);
  out["tree"] = to_string(spec.tree);
  out["loss"] = spec.loss_rate;
  out["corrupt"] = spec.corrupt_rate;
  out["faults"] = to_string(spec.faults);
  out["skew_us"] = spec.avg_skew_us;
  out["destinations"] = spec.destinations;
  out["lanes"] = spec.lanes;
  out["rdma"] = spec.rdma;
  out["warmup"] = spec.warmup;
  out["iterations"] = spec.iterations;
  // Seeds are full 64-bit values; a JSON number would lose precision past
  // 2^53, so the exact value is recorded as a decimal string.
  out["seed"] = std::to_string(spec.seed);
  out["shards"] = spec.shards;
  out["aux"] = spec.aux;
  return out;
}

json::Value result_to_json(const RunResult& result) {
  json::Value out = json::Value::object();
  out["spec"] = spec_to_json(result.spec);

  if (result.latency_us.count() > 0) {
    json::Value lat = json::Value::object();
    lat["count"] = result.latency_us.count();
    lat["mean"] = result.latency_us.mean();
    lat["min"] = result.latency_us.min();
    lat["max"] = result.latency_us.max();
    lat["stddev"] = result.latency_us.stddev();
    lat["p50"] = result.latency_us.percentile(50.0);
    lat["p95"] = result.latency_us.percentile(95.0);
    lat["p99"] = result.latency_us.percentile(99.0);
    out["latency_us"] = std::move(lat);
  } else {
    out["latency_us"] = nullptr;
  }

  json::Value counters = json::Value::object();
  for (const nic::NicStatsField& field : nic::kNicStatsFields) {
    counters[field.name] = result.nic_totals.*field.member;
  }
  out["nic"] = std::move(counters);

  // One key set for every run: the sequential engine writes zeros and
  // empty vectors for the shard counters.
  const net::EngineCounters& e = result.engine;
  json::Value engine = json::Value::object();
  engine["events_scheduled"] = e.events_scheduled;
  engine["events_executed"] = e.events_executed;
  engine["events_cancelled"] = e.events_cancelled;
  engine["heap_actions"] = e.heap_actions;
  engine["pool_slots"] = e.pool_slots;
  engine["wheel_occupancy_peak"] = e.wheel_occupancy_peak;
  engine["wheel_cascades"] = e.wheel_cascades;
  engine["overflow_scheduled"] = e.overflow_scheduled;
  engine["overflow_promotions"] = e.overflow_promotions;
  engine["routes_materialized"] = e.routes_materialized;
  engine["route_links_stored"] = e.route_links_stored;
  engine["route_links_shared"] = e.route_links_shared;
  // Decimal strings, like seeds: 64-bit hashes do not fit a JSON double.
  engine["event_order_hash"] = std::to_string(e.event_order_hash);
  engine["shard_count"] = e.shard_count;
  engine["cross_shard_msgs"] = e.cross_shard_msgs;
  engine["lbts_rounds"] = e.lbts_rounds;
  engine["horizon_stalls"] = e.horizon_stalls;
  engine["channel_spills"] = e.channel_spills;
  engine["cross_links"] = e.cross_links;
  json::Value hashes = json::Value::array();
  for (const std::uint64_t h : e.shard_order_hashes) {
    hashes.push_back(std::to_string(h));
  }
  engine["shard_order_hashes"] = std::move(hashes);
  json::Value peaks = json::Value::array();
  for (const std::uint64_t p : e.shard_wheel_occupancy_peak) {
    peaks.push_back(p);
  }
  engine["shard_wheel_occupancy_peak"] = std::move(peaks);
  engine["null_msgs_sent"] = e.null_msgs_sent;
  // Timing-dependent, so the regression checker gates only its presence.
  engine["blocked_waits"] = e.blocked_waits;
  out["engine"] = std::move(engine);

  json::Value metrics = json::Value::object();
  for (const auto& [name, value] : result.metrics) {
    metrics[name] = value;
  }
  out["metrics"] = std::move(metrics);
  return out;
}

json::Value bench_document(std::string_view bench_name,
                           const BenchOptions& options,
                           const std::vector<RunResult>& results) {
  json::Value doc = json::Value::object();
  doc["schema"] = "nicmcast-bench-v1";
  doc["bench"] = bench_name;
  doc["threads"] = options.threads;
  // Decimal string, like RunSpec::seed: a double cannot hold every uint64.
  doc["base_seed"] = std::to_string(options.base_seed);
  json::Value runs = json::Value::array();
  for (const RunResult& result : results) {
    runs.push_back(result_to_json(result));
  }
  doc["runs"] = std::move(runs);
  return doc;
}

void write_bench_json(std::string_view bench_name, const BenchOptions& options,
                      const std::vector<RunResult>& results) {
  if (options.json_path.empty()) return;
  std::ofstream out(options.json_path);
  if (!out) {
    // Same convention as parse_bench_options: a usage-level problem ends
    // the process with a message, not a stack-unwinding abort.
    std::fprintf(stderr, "error: cannot open JSON output file: %s\n",
                 options.json_path.c_str());
    std::exit(1);
  }
  out << bench_document(bench_name, options, results).dump(2) << "\n";
  std::printf("\nJSON: wrote %zu runs to %s\n", results.size(),
              options.json_path.c_str());
}

}  // namespace nicmcast::harness
