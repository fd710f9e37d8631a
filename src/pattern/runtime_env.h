// PSF — Pattern Specification Framework
// RuntimeEnv: the per-process runtime environment (paper Listing 2,
// `Runtime_env env; env.init();`). One instance per rank ("node"). It owns
// the node's simulated devices, carries the calibration profile and the
// optimization switches, and manufactures pattern runtime instances
// (get_GR / get_IR / get_ST).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "devsim/device.h"
#include "exec/thread_pool.h"
#include "fault/fault.h"
#include "minimpi/communicator.h"
#include "pattern/scheduler.h"
#include "support/error.h"
#include "timemodel/rates.h"
#include "timemodel/trace.h"

namespace psf::pattern {

class GReductionRuntime;
class IReductionRuntime;
class StencilRuntime;
class StencilReduce;

/// Environment configuration: device selection, optimization toggles and
/// cost-model calibration.
///
/// Two equivalent ways to build one — plain aggregate init:
///
///   EnvOptions options;
///   options.use_gpus = 2;
///   options.num_threads = 8;
///
/// or the fluent named setters (each returns *this, so they chain):
///
///   auto options = EnvOptions{}.with_gpus(2).with_threads(8);
///
/// Validation happens in RuntimeEnv::init(), which returns an actionable
/// support::Status instead of crashing on bad values.
struct EnvOptions {
  /// Hardware/time model of the node (and its cluster links).
  timemodel::ClusterPreset preset = timemodel::testbed_preset();
  /// Calibration profile key (see timemodel::app_rates).
  std::string app_profile = "generic";
  /// Use the multi-core CPU device for computation.
  bool use_cpu = true;
  /// Number of GPUs to use (0..preset.gpus_per_node).
  int use_gpus = 0;
  /// Number of MIC coprocessors to use (0..preset.mics_per_node) — the
  /// paper's future-work extension.
  int use_mics = 0;
  /// Intra-node execution engine width (participating threads per rank):
  /// 0 = hardware_concurrency, 1 = serial execution on the rank thread,
  /// N > 1 = the rank thread plus N-1 workers. The `PSF_THREADS` env var
  /// (when set to a positive integer) overrides this. Only wall-clock
  /// changes — results and virtual times are identical for every value.
  int num_threads = 0;
  /// Overlap communication with computation (paper Sections III-C/D).
  bool overlap = true;
  /// Grid tiling for stencils (paper Section III-E).
  bool tiling = true;
  /// Shared-memory reduction localization (paper Section III-E).
  bool reduction_localization = true;
  /// Price the workload as `workload_scale` times its functional size, so a
  /// scaled-down run reproduces paper-scale compute/communication ratios.
  double workload_scale = 1.0;
  /// Scale for SURFACE quantities (halo planes, remote-node exchanges).
  /// When a grid is shrunk by k per dimension, volume shrinks by k^3 but
  /// surfaces only by k^2 — so benches set workload_scale = k^3 and
  /// comm_scale = k^2 (irregular apps: workload_scale^(2/3)). 0 = use
  /// workload_scale.
  double comm_scale = 0.0;

  /// Scale for NODE-DATA quantities in irregular reductions (full device
  /// copies, result write-back). Synthetic graphs may scale edges and nodes
  /// differently (degree differs from the paper's dataset); 0 = use
  /// workload_scale.
  double node_scale = 0.0;

  [[nodiscard]] double effective_comm_scale() const {
    return comm_scale > 0.0 ? comm_scale : workload_scale;
  }
  [[nodiscard]] double effective_node_scale() const {
    return node_scale > 0.0 ? node_scale : workload_scale;
  }
  /// Generalized-reduction chunk size in units (0 = auto).
  std::size_t gr_chunk_units = 0;

  /// Optional schedule recorder: when set, the runtimes record virtual-time
  /// spans (compute per device, exchanges, combines) for Chrome-trace
  /// export. Not owned; must outlive the environment.
  timemodel::TraceRecorder* trace = nullptr;

  /// When non-empty, RuntimeEnv::finalize() writes the CURRENT metrics
  /// registry (metrics::Registry::current(): the per-job registry under
  /// psf-serve, otherwise the process-global one — same report the
  /// `PSF_METRICS` environment variable produces at process exit) as JSON
  /// to this path. The global registry spans every rank, so single-job
  /// reports cover the whole run, not just this rank.
  std::string metrics_path;

  /// When non-empty, arms the process-global telemetry stream at this path
  /// (telemetry::SnapshotStreamer::ensure_global — first caller wins; the
  /// `PSF_TELEMETRY` environment variable is the no-code-change
  /// equivalent). Live snapshots of the GLOBAL registry, JSONL, schema
  /// psf.telemetry v1; see docs/OBSERVABILITY.md "Live telemetry".
  std::string telemetry_path;

  /// Fault-injection plan (docs/RESILIENCE.md grammar, e.g.
  /// "device:*.gpu1@iter=2;msg_drop:p=0.01,seed=42"). Empty = no faults.
  /// The `PSF_FAULT_PLAN` environment variable is used when this is empty.
  /// Parse errors surface from RuntimeEnv::init().
  std::string fault_plan;

  /// When set, the environment runs its device lanes and block loops on
  /// this executor instead of constructing a private one (num_threads is
  /// then ignored). Not owned; must outlive the environment. psf-serve
  /// points every concurrent job at one process-wide work-stealing pool so
  /// N jobs share cores instead of oversubscribing them N-fold. Virtual
  /// times are executor-independent, so sharing changes wall clock only.
  exec::ThreadPool* shared_executor = nullptr;

  // --- fluent named setters -------------------------------------------------
  // Each returns *this so configuration reads as one chained expression.

  EnvOptions& with_preset(timemodel::ClusterPreset value) {
    preset = std::move(value);
    return *this;
  }
  EnvOptions& with_profile(std::string value) {
    app_profile = std::move(value);
    return *this;
  }
  EnvOptions& with_cpu(bool value = true) {
    use_cpu = value;
    return *this;
  }
  EnvOptions& with_gpus(int value) {
    use_gpus = value;
    return *this;
  }
  EnvOptions& with_mics(int value) {
    use_mics = value;
    return *this;
  }
  EnvOptions& with_threads(int value) {
    num_threads = value;
    return *this;
  }
  EnvOptions& with_overlap(bool value = true) {
    overlap = value;
    return *this;
  }
  EnvOptions& with_tiling(bool value = true) {
    tiling = value;
    return *this;
  }
  EnvOptions& with_reduction_localization(bool value = true) {
    reduction_localization = value;
    return *this;
  }
  EnvOptions& with_workload_scale(double value) {
    workload_scale = value;
    return *this;
  }
  EnvOptions& with_comm_scale(double value) {
    comm_scale = value;
    return *this;
  }
  EnvOptions& with_node_scale(double value) {
    node_scale = value;
    return *this;
  }
  EnvOptions& with_gr_chunk_units(std::size_t value) {
    gr_chunk_units = value;
    return *this;
  }
  EnvOptions& with_trace(timemodel::TraceRecorder* value) {
    trace = value;
    return *this;
  }
  EnvOptions& with_metrics_path(std::string value) {
    metrics_path = std::move(value);
    return *this;
  }
  EnvOptions& with_telemetry_path(std::string value) {
    telemetry_path = std::move(value);
    return *this;
  }
  EnvOptions& with_fault_plan(std::string value) {
    fault_plan = std::move(value);
    return *this;
  }
  EnvOptions& with_shared_executor(exec::ThreadPool* value) {
    shared_executor = value;
    return *this;
  }
};

/// What RuntimeEnv::restart_failed_ranks() did at one iteration boundary.
struct RankRestart {
  bool fired = false;      ///< a rank fault fired: every rank rolls back
  bool restarted = false;  ///< this rank was the one killed and restarted
};

/// Per-rank runtime environment.
class RuntimeEnv {
 public:
  RuntimeEnv(minimpi::Communicator& comm, EnvOptions options);
  ~RuntimeEnv();

  RuntimeEnv(const RuntimeEnv&) = delete;
  RuntimeEnv& operator=(const RuntimeEnv&) = delete;

  /// Validates the options (device counts against the preset, scale and
  /// thread fields) and reports problems as an actionable support::Status.
  /// On failure the environment has no devices and must not be used.
  support::Status init();
  void finalize();

  /// Pattern runtime factories. Each call returns the same lazily-created
  /// instance; reconfigure it to reuse across kernels (paper Section II-B).
  GReductionRuntime* get_GR();
  IReductionRuntime* get_IR();
  StencilRuntime* get_ST();
  /// Fused stencil+reduction composition (pattern/compose.h). Shares the
  /// environment's StencilRuntime, executor and buffer pool.
  StencilReduce* get_SR();

  [[nodiscard]] minimpi::Communicator& comm() noexcept { return *comm_; }
  [[nodiscard]] const EnvOptions& options() const noexcept { return options_; }
  /// The rank's intra-node execution engine (sized by num_threads /
  /// PSF_THREADS). All device lanes and block loops run through it.
  [[nodiscard]] exec::ThreadPool& executor() noexcept { return *executor_; }
  [[nodiscard]] const timemodel::AppRates& rates() const noexcept {
    return rates_;
  }

  /// Devices participating in computation: CPU first (when enabled), then
  /// the selected GPUs.
  [[nodiscard]] std::vector<devsim::Device*> active_devices();

  /// Scheduler view of the active devices with calibrated rates. When
  /// `gpu_resident_data` is true, GPUs are priced without per-unit host
  /// transfers (data staged on the device across iterations).
  [[nodiscard]] std::vector<DeviceSpec> device_specs(
      bool gpu_resident_data) const;

  /// Convenience: the options' scheduler knobs as DynamicScheduler options.
  [[nodiscard]] DynamicScheduler::Options scheduler_options() const;

  /// The active fault-injection plan, or nullptr when the run is fault-free.
  /// Runtimes gate every fault-path branch on this being non-null, so a
  /// fault-free run takes the exact pre-fault-subsystem code path.
  [[nodiscard]] const fault::FaultPlan* fault_plan() const noexcept {
    return fault_plan_.get();
  }

  // --- fault hooks (docs/RESILIENCE.md) -------------------------------------
  // The pattern runtimes inject and recover from planned faults through
  // these. Each runtime keeps its own iteration counter, checkpoint and
  // per-clause fired state; without a matching plan clause a hook does
  // nothing.

  /// Device loss: arms the active device whose loss the plan schedules on
  /// this rank at pattern iteration `iteration`, so it dies (executing
  /// nothing) on its next launch. Devices already lost, or without work
  /// this iteration (`has_work(d)` false), are never armed: the loss must
  /// fire on a launch that happens. FaultPlan::parse admits at most one
  /// loss per rank and iteration. Returns the armed index, or -1.
  int arm_device_loss(int iteration,
                      const std::function<bool(std::size_t)>& has_work);

  /// When device `armed` (an arm_device_loss() result) died this iteration:
  /// charges the detection latency on the host lane, counts the recovery,
  /// records the "device loss recovery" span and logs "<layer> recover
  /// <device> iter=<iteration>". Returns whether the device died.
  bool detect_device_loss(int armed, const char* layer, int iteration);

  /// Rank failure: fires the `rank:` clauses due at iteration boundary
  /// `boundary` that `fired` (the caller's state, indexed like
  /// FaultPlan::rank_faults()) has not seen. `resume_at` is the iteration
  /// the killed rank resumes from: the checkpoint's iteration for a runtime
  /// that rolls back and replays, `boundary` for one that does not. Once a
  /// clause fired, @iter= triggers compare against `resume_at`, so a second
  /// clause due at a replayed boundary fires when the replay reaches it.
  /// The killed rank pays a restart plus reloading `checkpoint_bytes`,
  /// logged as "rank_restart <what>=<resume_at> bytes=<checkpoint_bytes>";
  /// every rank then waits for it at a barrier. Collective: a vtime trigger
  /// is decided on the target rank's clock and broadcast. The caller
  /// restores its own checkpoint.
  RankRestart restart_failed_ranks(int boundary, int resume_at,
                                   std::vector<bool>& fired, const char* what,
                                   std::size_t checkpoint_bytes);

 private:
  [[nodiscard]] support::Status validate_options() const;

  minimpi::Communicator* comm_;
  EnvOptions options_;
  timemodel::AppRates rates_;
  support::Status init_status_;
  std::unique_ptr<fault::FaultPlan> fault_plan_;
  std::unique_ptr<exec::ThreadPool> owned_executor_;  ///< null when shared
  exec::ThreadPool* executor_ = nullptr;
  std::vector<std::unique_ptr<devsim::Device>> devices_;
  std::unique_ptr<GReductionRuntime> gr_;
  std::unique_ptr<IReductionRuntime> ir_;
  std::unique_ptr<StencilRuntime> st_;
  std::unique_ptr<StencilReduce> sr_;
};

}  // namespace psf::pattern
