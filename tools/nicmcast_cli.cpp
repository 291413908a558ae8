// nicmcast command-line experiment driver.
//
// Runs one configurable experiment on the simulated Myrinet/GM cluster and
// prints a result line (or a sweep table).  Everything the figure benches
// do, but parameterised from the shell; every command is a RunSpec executed
// by the shared harness, so --json and --threads work everywhere:
//
//   nicmcast_cli mcast   --nodes 16 --size 512 --algo nic --tree postal
//   nicmcast_cli mcast   --nodes 16 --size 512 --algo host --loss 0.02
//   nicmcast_cli bcast   --nodes 16 --size 8192 --algo host --skew 400
//   nicmcast_cli barrier --nodes 32 --algo nic
//   nicmcast_cli sweep   --nodes 16 --iters 30 --threads 4 --json out.json
//
// Exit code 0 on success; 1 on a runtime error; 2 on bad usage: an
// unknown command, a flag the command does not read, a flag without a
// value, or a value the flag does not take (an --algo or --tree outside its
// list, a count that is not all decimal digits or does not fit its field,
// a number that does not parse whole, a --loss outside [0, 1)).
#include <algorithm>
#include <array>
#include <charconv>
#include <cstdio>
#include <iterator>
#include <limits>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <vector>

#include "harness/bench_io.hpp"
#include "harness/sweep.hpp"

using namespace nicmcast;
using namespace nicmcast::harness;

namespace {

/// A flag value the command cannot use: bad usage, like an unknown flag.
struct BadValue : std::invalid_argument {
  BadValue(const std::string& key, const std::string& value)
      : std::invalid_argument("bad value for --" + key + ": '" + value +
                              "'") {}
};

/// Parses all of `text` as a double, or throws BadValue.
double parse_double(const std::string& key, const std::string& text) {
  double value = 0.0;
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, value);
  if (ec != std::errc{} || ptr != end) throw BadValue(key, text);
  return value;
}

struct Args {
  std::map<std::string, std::string> options;

  [[nodiscard]] std::string get(const std::string& key,
                                const std::string& fallback) const {
    auto it = options.find(key);
    return it == options.end() ? fallback : it->second;
  }
  /// A count that fits a T (harness::parse_count).
  template <typename T>
  [[nodiscard]] T get_u(const std::string& key, T fallback) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    const std::optional<T> value = parse_count<T>(it->second);
    if (!value) throw BadValue(key, it->second);
    return *value;
  }
  /// A number in [0, below).
  [[nodiscard]] double get_d(
      const std::string& key, double fallback,
      double below = std::numeric_limits<double>::infinity()) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    const double value = parse_double(key, it->second);
    if (!(value >= 0.0 && value < below)) throw BadValue(key, it->second);
    return value;
  }
  /// The choice whose to_string name the value is.
  template <typename E, std::size_t N>
  [[nodiscard]] E get_choice(const std::string& key, E fallback,
                             const E (&choices)[N]) const {
    auto it = options.find(key);
    if (it == options.end()) return fallback;
    for (const E choice : choices) {
      if (to_string(choice) == it->second) return choice;
    }
    throw BadValue(key, it->second);
  }
  [[nodiscard]] Algo get_algo() const {
    return get_choice("algo", Algo::kNicBased,
                      {Algo::kNicBased, Algo::kHostBased});
  }
};

int usage() {
  std::fprintf(stderr,
               "usage: nicmcast_cli <mcast|bcast|barrier|sweep> [options]\n"
               "  every command: --nodes N --iters K --seed S --threads N "
               "--json PATH\n"
               "  mcast:   --size BYTES --loss P --algo nic|host\n"
               "           --tree postal|binomial|chain|flat\n"
               "  bcast:   --size BYTES --algo nic|host --skew AVG_US "
               "(MPI level)\n"
               "  barrier: --algo nic|host\n"
               "  sweep:   --loss P\n");
  return 2;
}

/// Shared flags -> BenchOptions; the --seed is honoured verbatim for the
/// single-run commands (derive_seeds off) and used as the derivation base
/// for the sweep.
BenchOptions bench_options(const Args& args) {
  BenchOptions options;
  options.threads = args.get_u<unsigned>("threads", 1);
  if (options.threads == 0) options.threads = 1;
  options.json_path = args.get("json", "");
  options.base_seed = args.get_u<std::uint64_t>("seed", 1);
  return options;
}

std::vector<RunResult> run_single(const RunSpec& spec,
                                  const BenchOptions& options) {
  RunnerOptions runner = runner_options(options);
  runner.derive_seeds = false;  // honour --seed exactly
  return ParallelRunner(runner).run({spec});
}

int cmd_mcast(const Args& args) {
  const BenchOptions options = bench_options(args);
  RunSpec spec;
  spec.experiment = Experiment::kGmMulticast;
  spec.nodes = args.get_u<std::size_t>("nodes", 16);
  spec.message_bytes = args.get_u<std::size_t>("size", 512);
  spec.algo = args.get_algo();
  const TreeShape tree = args.get_choice(
      "tree", TreeShape::kPostal,
      {TreeShape::kPostal, TreeShape::kBinomial, TreeShape::kChain,
       TreeShape::kFlat});
  spec.tree = spec.algo == Algo::kNicBased ? tree : TreeShape::kBinomial;
  spec.loss_rate = args.get_d("loss", 0.0, 1.0);
  spec.corrupt_rate = spec.loss_rate / 2;
  spec.seed = options.base_seed;
  spec.warmup = 2;
  spec.iterations = args.get_u<int>("iters", 20);
  const auto results = run_single(spec, options);
  std::printf("gm-mcast nodes=%zu size=%zuB algo=%s tree=%s loss=%.3f: "
              "%.2f us\n",
              spec.nodes, spec.message_bytes,
              std::string(to_string(spec.algo)).c_str(),
              std::string(to_string(spec.tree)).c_str(), spec.loss_rate,
              results[0].mean_us());
  write_bench_json("nicmcast_cli_mcast", options, results);
  return 0;
}

int cmd_bcast(const Args& args) {
  const BenchOptions options = bench_options(args);
  RunSpec spec;
  spec.experiment = Experiment::kSkewBcast;
  spec.nodes = args.get_u<std::size_t>("nodes", 16);
  spec.message_bytes = args.get_u<std::size_t>("size", 4);
  spec.avg_skew_us = args.get_d("skew", 0.0);
  spec.iterations = args.get_u<int>("iters", 30);
  spec.algo = args.get_algo();
  spec.seed = args.get_u<std::uint64_t>("seed", 7);
  const auto results = run_single(spec, options);
  std::printf("mpi-bcast nodes=%zu size=%zuB algo=%s avg-skew=%.0fus: "
              "avg CPU time in MPI_Bcast %.2f us (max %.2f us)\n",
              spec.nodes, spec.message_bytes,
              std::string(to_string(spec.algo)).c_str(),
              results[0].metric("avg_applied_skew_us"),
              results[0].metric("avg_bcast_cpu_us"),
              results[0].metric("max_bcast_cpu_us"));
  write_bench_json("nicmcast_cli_bcast", options, results);
  return 0;
}

int cmd_barrier(const Args& args) {
  const BenchOptions options = bench_options(args);
  RunSpec spec;
  spec.experiment = Experiment::kBarrier;
  spec.nodes = args.get_u<std::size_t>("nodes", 16);
  spec.algo = args.get_algo();
  spec.seed = options.base_seed;
  spec.iterations = args.get_u<int>("iters", 20);
  const auto results = run_single(spec, options);
  std::printf("barrier nodes=%zu algo=%s: %.2f us per round\n", spec.nodes,
              std::string(to_string(spec.algo)).c_str(),
              results[0].metric("wall_us_per_round"));
  write_bench_json("nicmcast_cli_barrier", options, results);
  return 0;
}

int cmd_sweep(const Args& args) {
  const BenchOptions options = bench_options(args);
  const std::vector<std::size_t> sizes{4, 64, 512, 2048, 4096, 8192, 16384};

  RunSpec base;
  base.experiment = Experiment::kGmMulticast;
  base.nodes = args.get_u<std::size_t>("nodes", 16);
  base.loss_rate = args.get_d("loss", 0.0, 1.0);
  base.corrupt_rate = base.loss_rate / 2;
  base.warmup = 2;
  base.iterations = args.get_u<int>("iters", 20);

  const auto specs =
      Sweep(base)
          .message_sizes(sizes)
          .axis(std::vector<Algo>{Algo::kHostBased, Algo::kNicBased},
                [](RunSpec& s, Algo a) {
                  s.algo = a;
                  s.tree = a == Algo::kNicBased ? TreeShape::kPostal
                                                : TreeShape::kBinomial;
                })
          .build();
  const auto results = ParallelRunner(runner_options(options)).run(specs);

  std::printf("%8s | %10s | %10s | %6s\n", "size(B)", "host(us)", "nic(us)",
              "factor");
  for (std::size_t si = 0; si < sizes.size(); ++si) {
    const double hb = results[si * 2].mean_us();
    const double nb = results[si * 2 + 1].mean_us();
    std::printf("%8zu | %10.2f | %10.2f | %6.2f\n", sizes[si], hb, nb,
                hb / nb);
  }
  write_bench_json("nicmcast_cli_sweep", options, results);
  return 0;
}

/// The flags every command reads.
constexpr std::string_view kCommonFlags[] = {"nodes", "iters", "seed",
                                             "threads", "json"};

struct Command {
  std::string_view name;
  int (*run)(const Args&);
  /// The flags it reads beyond kCommonFlags ("" pads).
  std::array<std::string_view, 4> flags;

  [[nodiscard]] bool reads(std::string_view flag) const {
    return std::find(std::begin(kCommonFlags), std::end(kCommonFlags),
                     flag) != std::end(kCommonFlags) ||
           (!flag.empty() &&
            std::find(flags.begin(), flags.end(), flag) != flags.end());
  }
};

constexpr Command kCommands[] = {
    {"mcast", cmd_mcast, {"size", "loss", "algo", "tree"}},
    {"bcast", cmd_bcast, {"size", "algo", "skew"}},
    {"barrier", cmd_barrier, {"algo"}},
    {"sweep", cmd_sweep, {"loss"}},
};

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string_view name = argv[1];
  const Command* command =
      std::find_if(std::begin(kCommands), std::end(kCommands),
                   [name](const Command& c) { return c.name == name; });
  if (command == std::end(kCommands)) return usage();
  Args args;
  for (int i = 2; i < argc; i += 2) {
    // Every flag takes a value.  A flag the command does not read would
    // otherwise run the defaults, so it is bad usage too.
    const std::string_view key = argv[i];
    if (!key.starts_with("--") || !command->reads(key.substr(2)) ||
        i + 1 >= argc || std::string_view(argv[i + 1]).starts_with("--")) {
      return usage();
    }
    args.options[std::string(key.substr(2))] = argv[i + 1];
  }
  try {
    return command->run(args);
  } catch (const BadValue& e) {
    std::fprintf(stderr, "nicmcast_cli: %s\n", e.what());
    return usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
