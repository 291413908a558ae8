// Deterministic slice of the chaos soak, run under ctest.
//
// Each test sweeps a fixed seed range through run_soak_seed; the full-size
// randomized campaign lives in the soak_driver binary (see CI's soak job,
// which runs it with --iters 1000).  Fixed seeds keep this suite
// reproducible: a failure here is a (seed, shrunk-spec) reproduction, not a
// flake.
#include <cstdint>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "soak.hpp"

namespace nicmcast::soak {
namespace {

void sweep(std::uint64_t first, std::uint64_t last) {
  for (std::uint64_t seed = first; seed <= last; ++seed) {
    const SoakResult result = run_soak_seed(seed);
    EXPECT_TRUE(result.ok) << "soak seed " << seed << " failed: "
                           << result.failure;
    if (!result.ok) return;  // one minimal reproduction is enough
  }
}

TEST(Soak, SeedsBatchA) { sweep(1, 25); }
TEST(Soak, SeedsBatchB) { sweep(26, 50); }
TEST(Soak, SeedsBatchC) { sweep(51, 75); }

TEST(Soak, SpecGeneratorCoversEveryFamilyAndFeature) {
  std::set<InjectorFamily> families;
  bool clos = false, wrap = false, reduce = false;
  for (std::uint64_t seed = 1; seed <= 100; ++seed) {
    const SoakSpec spec = make_spec(seed);
    EXPECT_NE(spec.injector, InjectorFamily::kNone);
    EXPECT_GE(spec.nodes, 4u);
    families.insert(spec.injector);
    clos |= spec.clos;
    wrap |= spec.wrap_seqs;
    reduce |= spec.reduce;
  }
  EXPECT_GE(families.size(), 3u) << "seed derivation must span >=3 injector "
                                    "families per 100 seeds";
  EXPECT_TRUE(clos && wrap && reduce);
}

TEST(Soak, DescribeIsRoundTrippableByEye) {
  const SoakSpec spec = make_spec(7);
  const std::string text = spec.describe();
  EXPECT_NE(text.find("seed=7"), std::string::npos);
  EXPECT_NE(text.find("nodes="), std::string::npos);
  EXPECT_NE(text.find("inj="), std::string::npos);
}

}  // namespace
}  // namespace nicmcast::soak
