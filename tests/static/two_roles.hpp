// A two-role type for the compile-only thread-safety tests: one thread may
// produce, another may consume, and each side's state is guarded by its
// role.  The tests only compile it, so it needs the NM_* annotations under
// test and no real synchronization.
#pragma once

#include "sim/thread_annotations.hpp"

namespace nicmcast::sim {

class TwoRoles {
 public:
  /// The "I am the producing thread" capability.
  [[nodiscard]] const Role& producer_role() const
      NM_RETURN_CAPABILITY(producer_role_) {
    return producer_role_;
  }

  /// The "I am the consuming thread" capability.
  [[nodiscard]] const Role& consumer_role() const
      NM_RETURN_CAPABILITY(consumer_role_) {
    return consumer_role_;
  }

  void produce(int value) NM_REQUIRES(producer_role_) { produced_ += value; }

  [[nodiscard]] int consume() NM_REQUIRES(consumer_role_) {
    return ++consumed_;
  }

 private:
  Role producer_role_;
  Role consumer_role_;
  int produced_ NM_GUARDED_BY(producer_role_) = 0;
  int consumed_ NM_GUARDED_BY(consumer_role_) = 0;
};

}  // namespace nicmcast::sim
