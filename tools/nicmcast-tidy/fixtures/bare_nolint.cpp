// Fixture: nicmcast-bare-nolint
//
// A suppression is a waived contract: it must name the check it waives and
// say why, or reviewers cannot tell a deliberate exception from a leftover
// hack.  The expectations live in separate line comments so they do not
// become the suppression's own justification text.
#include "stubs.hpp"

namespace fixture {

long positive_bare(long v); /* NOLINT */  // EXPECT: nicmcast-bare-nolint

long positive_named_but_unjustified(long v); /* NOLINT(nicmcast-wall-clock) */  // EXPECT: nicmcast-bare-nolint

long positive_empty_check_list(long v); /* NOLINT() */  // EXPECT: nicmcast-bare-nolint

long positive_prose_without_check(long v); /* NOLINT: legacy path */  // EXPECT: nicmcast-bare-nolint

// negative: a named check plus a justification is the reviewable form,
// and it still suppresses what it names.
long negative_compliant() {
  return time(nullptr);  // NOLINT(nicmcast-wall-clock): fixture exercises the compliant form
}

}  // namespace fixture
