#include "harness/parallel_runner.hpp"

#include <atomic>
#include <exception>
#include <thread>

#include "sim/random.hpp"
#include "sim/thread_annotations.hpp"

namespace nicmcast::harness {

std::uint64_t derive_seed(std::uint64_t base_seed, std::size_t run_index) {
  // splitmix64 over the combined words; never returns 0 so downstream
  // xoshiro seeding always has entropy to expand.
  const std::uint64_t z = sim::mix64(
      base_seed +
      sim::kGoldenGamma * (static_cast<std::uint64_t>(run_index) + 1));
  return z == 0 ? sim::kGoldenGamma : z;
}

std::vector<RunResult> ParallelRunner::run(std::vector<RunSpec> specs,
                                           const RunFn& fn) const {
  if (options_.derive_seeds) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      specs[i].seed = derive_seed(options_.base_seed, i);
    }
  }

  std::vector<RunResult> results(specs.size());
  if (specs.empty()) return results;

  const unsigned workers = std::min<unsigned>(
      std::max(1u, options_.threads), static_cast<unsigned>(specs.size()));
  if (workers == 1) {
    for (std::size_t i = 0; i < specs.size(); ++i) {
      results[i] = fn(specs[i]);
    }
    return results;
  }

  // Relaxed ticket counter: claiming an index needs atomicity, not
  // ordering — each results[i] slot is written by exactly one worker and
  // the jthread join publishes them all to this thread.
  std::atomic<std::size_t> ticket{0};
  sim::Mutex error_mutex;
  std::exception_ptr first_error;
  {
    std::vector<std::jthread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
      pool.emplace_back([&] {
        for (;;) {
          const std::size_t i = ticket.fetch_add(1, std::memory_order_relaxed);
          if (i >= specs.size()) return;
          try {
            results[i] = fn(specs[i]);
          } catch (...) {
            const sim::MutexLock lock(error_mutex);
            if (!first_error) first_error = std::current_exception();
          }
        }
      });
    }
  }  // jthreads join here
  if (first_error) std::rethrow_exception(first_error);
  return results;
}

}  // namespace nicmcast::harness
