// Compile-only proof that the concurrency-contract annotations accept the
// sanctioned usage patterns.  Built with
//   -fsyntax-only -Wthread-safety -Wthread-safety-beta
//   -Werror=thread-safety-analysis
// under Clang (tests/static/CMakeLists.txt); must compile cleanly.
#include "sim/thread_annotations.hpp"
#include "two_roles.hpp"

namespace nicmcast::sim {

// The producer calls producer-only methods while holding the producer
// role; the consumer calls consumer-only ones while holding its own.
inline int roles_allow_the_contractual_split(TwoRoles& t) {
  {
    RoleGuard claim(t.producer_role());
    t.produce(7);
  }
  RoleGuard claim(t.consumer_role());
  return t.consume();
}

// A worker lambda cannot inherit the spawner's capabilities (the analysis
// is intraprocedural); assert_held() re-states the structural guarantee.
inline int lambda_reasserts_its_role(TwoRoles& t) {
  auto drain = [&t] {
    t.consumer_role().assert_held();
    return t.consume();
  };
  return drain();
}

// Mutex-guarded state through the annotated wrapper.
struct Guarded {
  Mutex mu;
  int pending NM_GUARDED_BY(mu) = 0;

  void add(int n) {
    MutexLock lock(mu);
    pending += n;
  }
};

}  // namespace nicmcast::sim
