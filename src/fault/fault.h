// PSF — Pattern Specification Framework
// psf::fault — deterministic, seeded fault injection plans.
//
// A FaultPlan describes which faults to inject into a run. Plans are parsed
// from a compact spec string (EnvOptions::with_fault_plan or the
// PSF_FAULT_PLAN environment variable) with `;`-separated clauses:
//
//   device:<rank|*>.<device>@iter=N
//       Device loss: the named accelerator ("gpu1", "mic3", ...) on the
//       given rank (or every rank with `*`) dies on its first kernel launch
//       of pattern iteration N (1-based). CPU devices cannot be targeted —
//       a surviving device must always exist to replay the lost work. A
//       rank loses at most one device per iteration: two device clauses
//       with the same N whose ranks are equal (or either is `*`) are
//       rejected.
//
//   msg_drop:p=F[,corrupt=F][,dup=F][,delay_p=F][,delay_s=F][,timeout_s=F]
//            [,backoff_s=F][,deadline_ms=N][,retries=N][,seed=S]
//       Message faults on every minimpi send: with probability p the message
//       is dropped in flight (the sender retransmits after a virtual
//       timeout + backoff), with probability `corrupt` a damaged copy is
//       delivered first (the receiver rejects it by CRC32 and the sender
//       retransmits), with probability `dup` the message is delivered
//       twice (the receiver dedups by sequence number), and with
//       probability `delay_p` delivery is delayed by delay_s virtual
//       seconds. Draws come from a per-rank splitmix64 stream seeded with
//       `seed`, so the injected sequence is identical across runs and
//       executor widths. A send that exhausts its `retries` aborts the run:
//       World::try_run (or a served job, as kFailed) reports a non-OK
//       Status at every executor width. deadline_ms > 0 additionally arms
//       a wall-clock receive deadline on every blocking receive (a hang
//       detector; 0 = disabled).
//
//   job_fail:p=F[,seed=S]
//       Serving chaos (ServerOptions::chaos_plan): with probability p a
//       dispatched job attempt fails before its body runs, surfacing a
//       retryable kUnavailable. Draws are keyed by (admission seq, attempt)
//       so the injected sequence is identical across runs and executor
//       widths regardless of runner interleaving.
//
//   runner_stall:ms=N[,p=F][,seed=S]
//       Serving chaos: with probability p (default 1) the runner stalls N
//       wall-clock milliseconds after dispatching a job, before its body
//       runs — models a slow/overloaded worker. The stall lands in the
//       job's run_wall_s, pushing it toward its deadline; vtime is never
//       affected. Same (seq, attempt) keying as job_fail.
//
//   submit_burst:every=K,count=B[,priority=P]
//       Serving chaos, interpreted CLIENT-side (bench/loadgen --chaos):
//       after every K-th measured submission the client injects B extra
//       jobs at priority P (default 0) to force queue pressure and load
//       shedding. Server-side clauses ignore it.
//
//   rank:<R>@iter=N  |  rank:<R>@vtime=X
//       Rank failure for the iterative runtimes (GReduction, Stencil):
//       rank R is "killed" at the first iteration boundary at (or, for
//       vtime, after) the trigger, then restarted from the last
//       iteration-boundary checkpoint. All ranks roll back together and
//       replay the lost iteration, so the final answer is bit-identical to
//       a fault-free run; the restarted rank is charged the restart +
//       checkpoint-reload cost in virtual time.
//
// All injection is priced in VIRTUAL time and drawn from seeded streams:
// the same plan + seed yields the same fault sequence and bit-identical
// results at any executor width. See docs/RESILIENCE.md.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "support/ambient.h"
#include "support/error.h"

namespace psf::fault {

/// Virtual seconds between a device dying and the runtime detecting it.
inline constexpr double kDeviceLossDetectS = 1.0e-3;

/// Virtual seconds to restart a killed rank (process respawn + rejoin).
inline constexpr double kRankRestartS = 0.5;

/// Virtual bytes/s for writing and reloading iteration checkpoints.
inline constexpr double kCheckpointBytesPerS = 1.0e9;

/// Deterministic splitmix64 stream for fault draws. Cheap, seedable, and
/// independent per rank so injection order never depends on thread timing.
class FaultRng {
 public:
  explicit FaultRng(std::uint64_t seed) noexcept : state_(seed) {}

  std::uint64_t next_u64() noexcept {
    state_ += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }

  /// Uniform double in [0, 1).
  double next_double() noexcept {
    return static_cast<double>(next_u64() >> 11) * 0x1.0p-53;
  }

 private:
  std::uint64_t state_;
};

/// One scheduled device loss.
struct DeviceFault {
  int rank = -1;       ///< target rank; -1 matches every rank (`*`)
  std::string device;  ///< devsim descriptor name, e.g. "gpu1"
  int iteration = 1;   ///< 1-based pattern iteration at which the loss fires
};

/// Message-fault injection parameters (see the grammar above).
struct MsgFaultSpec {
  double p_drop = 0.0;
  double p_corrupt = 0.0;
  double p_dup = 0.0;
  double p_delay = 0.0;
  double delay_s = 1.0e-4;    ///< extra delivery latency for delayed messages
  double timeout_s = 5.0e-4;  ///< virtual retransmission timeout per attempt
  double backoff_s = 2.0e-4;  ///< additional virtual backoff per retry
  int deadline_ms = 0;        ///< wall-clock recv deadline; 0 disables
  int max_retries = 8;        ///< attempts before the send gives up
  std::uint64_t seed = 1;
};

/// One scheduled rank failure; exactly one of iteration/vtime is set.
struct RankFault {
  int rank = 0;
  int iteration = -1;  ///< fire at the boundary after this iteration (1-based)
  double vtime = -1.0; ///< or: at the first boundary where now() >= vtime
};

/// Serving chaos: fail a dispatched job attempt with probability p before
/// its body runs (surfaced as retryable kUnavailable).
struct JobFailSpec {
  double p = 0.0;
  std::uint64_t seed = 1;
};

/// Serving chaos: stall the runner `ms` wall milliseconds after dispatch
/// with probability p, before the job body runs.
struct RunnerStallSpec {
  int ms = 0;
  double p = 1.0;
  std::uint64_t seed = 1;
};

/// Serving chaos, client-side: after every K-th measured submission the
/// load generator injects `count` extra jobs at `priority`.
struct SubmitBurstSpec {
  int every = 0;   ///< burst after every K-th submission; 0 = never
  int count = 0;   ///< jobs per burst
  int priority = 0;
};

/// A parsed, validated fault plan. Immutable after parse().
class FaultPlan {
 public:
  /// Parse a plan spec; returns kInvalidArgument with a pointer to the bad
  /// clause on malformed input. An empty/whitespace spec parses to an empty
  /// plan.
  static support::StatusOr<FaultPlan> parse(std::string_view spec);

  [[nodiscard]] bool empty() const noexcept {
    return device_faults_.empty() && !has_msg_ && rank_faults_.empty() &&
           !has_job_fail_ && !has_runner_stall_ && !has_submit_burst_;
  }

  [[nodiscard]] const std::vector<DeviceFault>& device_faults() const noexcept {
    return device_faults_;
  }

  /// Message-fault parameters, or nullptr when the plan has none.
  [[nodiscard]] const MsgFaultSpec* msg() const noexcept {
    return has_msg_ ? &msg_ : nullptr;
  }

  [[nodiscard]] const std::vector<RankFault>& rank_faults() const noexcept {
    return rank_faults_;
  }
  [[nodiscard]] bool has_rank_faults() const noexcept {
    return !rank_faults_.empty();
  }

  /// Serving-chaos parameters, or nullptr when the plan has none.
  [[nodiscard]] const JobFailSpec* job_fail() const noexcept {
    return has_job_fail_ ? &job_fail_ : nullptr;
  }
  [[nodiscard]] const RunnerStallSpec* runner_stall() const noexcept {
    return has_runner_stall_ ? &runner_stall_ : nullptr;
  }
  [[nodiscard]] const SubmitBurstSpec* submit_burst() const noexcept {
    return has_submit_burst_ ? &submit_burst_ : nullptr;
  }
  /// True when any server-side chaos clause (job_fail / runner_stall) is
  /// armed — Server consults this to skip the injection path entirely.
  [[nodiscard]] bool has_server_chaos() const noexcept {
    return has_job_fail_ || has_runner_stall_;
  }

  /// The device fault due for (rank, device name) at `iteration`, or nullptr.
  [[nodiscard]] const DeviceFault* device_fault_due(int rank,
                                                    std::string_view device,
                                                    int iteration) const;

 private:
  std::vector<DeviceFault> device_faults_;
  MsgFaultSpec msg_;
  bool has_msg_ = false;
  std::vector<RankFault> rank_faults_;
  JobFailSpec job_fail_;
  bool has_job_fail_ = false;
  RunnerStallSpec runner_stall_;
  bool has_runner_stall_ = false;
  SubmitBurstSpec submit_burst_;
  bool has_submit_burst_ = false;
};

/// Process-wide log of injected fault events, keyed by rank. Disabled by
/// default (zero overhead beyond one atomic-ish bool read per event site);
/// tests enable it to assert that the same seed yields the same injected
/// sequence. Per-rank event order is deterministic; the map keeps ranks
/// sorted so snapshots compare stably.
class FaultLog {
 public:
  static FaultLog& global();

  /// The log fault-event sites resolve against on the calling thread: the
  /// scoped override installed by ScopedFaultLog (directly or through
  /// serve::JobScope, propagated across executor task submission), or
  /// global() when none is installed. Per-job logs keep one tenant's
  /// injected faults out of another tenant's event stream.
  [[nodiscard]] static FaultLog& current() noexcept {
    void* scoped = support::ambient::get(support::ambient::Slot::kFaultLog);
    return scoped != nullptr ? *static_cast<FaultLog*>(scoped) : global();
  }

  void set_enabled(bool enabled) noexcept {
    enabled_.store(enabled, std::memory_order_relaxed);
  }
  [[nodiscard]] bool enabled() const noexcept {
    return enabled_.load(std::memory_order_relaxed);
  }

  void record(int rank, std::string event);
  [[nodiscard]] std::map<int, std::vector<std::string>> snapshot() const;
  void reset();

 private:
  mutable std::mutex mutex_;
  std::atomic<bool> enabled_{false};
  std::map<int, std::vector<std::string>> events_;
};

/// RAII: route the calling thread's fault events into `log` instead of the
/// global one. Scopes nest; destruction restores the previous override.
/// The log must outlive the scope and any executor tasks submitted under
/// it (see support/ambient.h).
class ScopedFaultLog {
 public:
  explicit ScopedFaultLog(FaultLog* log) noexcept
      : previous_(
            support::ambient::swap(support::ambient::Slot::kFaultLog, log)) {}
  ScopedFaultLog(const ScopedFaultLog&) = delete;
  ScopedFaultLog& operator=(const ScopedFaultLog&) = delete;
  ~ScopedFaultLog() {
    support::ambient::swap(support::ambient::Slot::kFaultLog, previous_);
  }

 private:
  void* previous_;
};

}  // namespace psf::fault
