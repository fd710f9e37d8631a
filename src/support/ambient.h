// PSF — Pattern Specification Framework
// Ambient per-thread context slots — the substrate behind multi-tenant
// isolation (docs/SERVING.md).
//
// Historically every observability registry was process-global: one metrics
// Registry, one FaultLog. A long-lived server multiplexing many concurrent
// jobs onto shared ranks/executors needs each job's counters, fault events
// and context to stay separate. Rather than threading a context parameter
// through every layer (and every PSF_METRIC_* call site), each subsystem
// resolves its "current" registry through a thread-local slot here:
//
//   * empty slot (the default, and the entire pre-serve world) -> the
//     process-global singleton, byte-for-byte the old behaviour;
//   * a scoped override (serve::JobScope, metrics::ScopedRegistry,
//     fault::ScopedFaultLog) -> that job's instance.
//
// The slots are opaque `void*` so this header stays at the bottom of the
// dependency stack: support does not know about fault or serve, yet
// exec::ThreadPool can capture EVERY slot at task-submission time and
// re-install the snapshot around task execution on a worker thread. That
// hop is what keeps attribution correct when jobs share one work-stealing
// executor — a worker may interleave tasks from different jobs, and a rank
// thread helping while it waits may execute another job's task.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace psf::support::ambient {

/// The fixed set of propagated slots. Each belongs to one subsystem, which
/// defines the pointee type and the scoped guard that installs it.
enum class Slot : std::size_t {
  kMetricsRegistry = 0,  ///< metrics::Registry* (metrics::ScopedRegistry)
  kFaultLog = 1,         ///< fault::FaultLog* (fault::ScopedFaultLog)
  kJobContext = 2,       ///< serve::JobContext* (serve::JobScope)
  kJobId = 3,            ///< job id + 1 encoded as void* (serve::JobScope);
                         ///< lets support/log.cpp attribute lines to the
                         ///< ambient job without depending on serve
};
inline constexpr std::size_t kNumSlots = 4;

namespace detail {
/// The calling thread's slots (defined out of line, see ambient.cpp).
[[nodiscard]] std::array<void*, kNumSlots>& tls_slots() noexcept;
}  // namespace detail

/// The calling thread's value for `slot`; nullptr = no override installed.
[[nodiscard]] inline void* get(Slot slot) noexcept {
  return detail::tls_slots()[static_cast<std::size_t>(slot)];
}

/// Install `value` in `slot` on the calling thread; returns the previous
/// value so scoped guards can restore it (overrides nest).
inline void* swap(Slot slot, void* value) noexcept {
  void*& entry = detail::tls_slots()[static_cast<std::size_t>(slot)];
  void* previous = entry;
  entry = value;
  return previous;
}

/// Encode `id` for the kJobId slot: id + 1, so an empty slot (nullptr)
/// reads as "no job" without colliding with job id 0.
[[nodiscard]] inline void* encode_job_id(std::uint64_t id) noexcept {
  return reinterpret_cast<void*>(static_cast<std::uintptr_t>(id + 1));
}

/// Decode the kJobId slot: the ambient job id, or 0 when the calling thread
/// runs outside any job (serve issues ids starting at 1).
[[nodiscard]] inline std::uint64_t current_job_id() noexcept {
  const auto raw = reinterpret_cast<std::uintptr_t>(get(Slot::kJobId));
  return raw == 0 ? 0 : static_cast<std::uint64_t>(raw - 1);
}

/// Point-in-time copy of every slot. exec::ThreadPool captures one per
/// submitted task and installs it (restoring afterwards) around execution,
/// so tasks carry their submitter's ambient context onto worker threads.
class Snapshot {
 public:
  /// Snapshot of the calling thread's slots.
  [[nodiscard]] static Snapshot capture() noexcept {
    Snapshot snapshot;
    snapshot.values_ = detail::tls_slots();
    return snapshot;
  }

  /// Replace the calling thread's slots with this snapshot; returns the
  /// displaced state for restoration.
  Snapshot install() const noexcept {
    Snapshot previous;
    auto& slots = detail::tls_slots();
    previous.values_ = slots;
    slots = values_;
    return previous;
  }

 private:
  std::array<void*, kNumSlots> values_{};
};

/// RAII: install `snapshot` now, restore the displaced state on scope exit.
class ScopedSnapshot {
 public:
  explicit ScopedSnapshot(const Snapshot& snapshot) noexcept
      : previous_(snapshot.install()) {}
  ScopedSnapshot(const ScopedSnapshot&) = delete;
  ScopedSnapshot& operator=(const ScopedSnapshot&) = delete;
  ~ScopedSnapshot() { previous_.install(); }

 private:
  Snapshot previous_;
};

}  // namespace psf::support::ambient
