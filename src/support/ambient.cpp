#include "support/ambient.h"

namespace psf::support::ambient::detail {

// Zero-initialized: every thread starts with no overrides, resolving every
// subsystem to its process-global singleton.
//
// A function-local thread_local behind an out-of-line accessor rather than
// a namespace-scope extern: UBSan null-checks the address of an extern TLS
// object with a branch on the flags of its initial-exec `add`, and GNU ld's
// TLS relaxation turns that `add` into a flag-less `lea`, so the check
// reads a stale flag and reports a spurious null member call.
std::array<void*, kNumSlots>& tls_slots() noexcept {
  static thread_local std::array<void*, kNumSlots> slots{};
  return slots;
}

}  // namespace psf::support::ambient::detail
