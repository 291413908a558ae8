// Compile-only proof that the concurrency contract is ENFORCED, not just
// documented: holding the consumer role does not license produce(), which
// requires the producer role.  Under
//   -fsyntax-only -Wthread-safety -Wthread-safety-beta
//   -Werror=thread-safety-analysis
// this translation unit must FAIL to compile (ctest WILL_FAIL).  If it
// ever compiles, the role annotations have regressed.  Without the
// thread-safety flags it must compile (static_thread_safety_violation_
// syntax), so the failure above can only come from the analysis.
#include "sim/thread_annotations.hpp"
#include "two_roles.hpp"

namespace nicmcast::sim {

inline void consumer_must_not_produce(TwoRoles& t) {
  RoleGuard claim(t.consumer_role());
  t.produce(41);  // wrong side: producer-only call
}

}  // namespace nicmcast::sim
