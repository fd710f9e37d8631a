#include "pattern/runtime_env.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <string>

#include "pattern/compose.h"
#include "pattern/greduction.h"
#include "pattern/ireduction.h"
#include "pattern/stencil.h"
#include "support/log.h"
#include "support/metrics.h"
#include "telemetry/streamer.h"

namespace psf::pattern {

namespace {
constexpr std::size_t kDefaultGpuMemoryBytes =
    std::size_t{6} * 1024 * 1024 * 1024;
}  // namespace

RuntimeEnv::RuntimeEnv(minimpi::Communicator& comm, EnvOptions options)
    : comm_(&comm),
      options_(std::move(options)),
      rates_(timemodel::app_rates(options_.app_profile)),
      init_status_(validate_options()) {
  if (!init_status_.is_ok()) return;  // init() reports; nothing to build
  // Arm the live telemetry stream (off the time model, so vtimes are
  // unaffected). Explicit path wins; otherwise $PSF_TELEMETRY, if set.
  if (!options_.telemetry_path.empty()) {
    telemetry::SnapshotStreamer::ensure_global(options_.telemetry_path);
  } else {
    telemetry::SnapshotStreamer::ensure_global_from_env();
  }
  std::string plan_spec = options_.fault_plan;
  if (plan_spec.empty()) {
    if (const char* env = std::getenv("PSF_FAULT_PLAN")) plan_spec = env;
  }
  if (!plan_spec.empty()) {
    auto parsed = fault::FaultPlan::parse(plan_spec);
    if (!parsed.is_ok()) {
      init_status_ = parsed.status();
      return;
    }
    if (!parsed.value().empty()) {
      fault_plan_ = std::make_unique<fault::FaultPlan>(std::move(parsed).value());
      fault::FaultLog::current().set_enabled(true);
      if (fault_plan_->msg() != nullptr) {
        // First-call-wins across the rank threads racing through SPMD setup;
        // every rank parses the same spec, so any winner installs the same
        // message-fault state.
        comm_->world().set_msg_faults(*fault_plan_->msg());
      }
    }
  }
  if (options_.shared_executor != nullptr) {
    executor_ = options_.shared_executor;
  } else {
    owned_executor_ = std::make_unique<exec::ThreadPool>(
        exec::ThreadPool::resolve_workers(options_.num_threads));
    executor_ = owned_executor_.get();
  }
  devices_ = devsim::make_node_devices(options_.preset, comm_->timeline(),
                                       kDefaultGpuMemoryBytes, executor_);
  const auto active = active_devices();
  for (devsim::Device* device : active) device->set_owner_rank(comm_->rank());
  if (options_.trace != nullptr) {
    // Lane 0 is the rank's host/runtime lane; active devices get lanes
    // 1..D named after their descriptors (cpu0, gpu1, ...).
    options_.trace->set_lane_name(comm_->rank(), 0, "host");
    for (std::size_t d = 0; d < active.size(); ++d) {
      active[d]->set_trace(options_.trace, comm_->rank(),
                           static_cast<int>(d) + 1);
    }
  }
}

RuntimeEnv::~RuntimeEnv() = default;

support::Status RuntimeEnv::validate_options() const {
  using support::Status;
  if (!options_.use_cpu && options_.use_gpus <= 0 && options_.use_mics <= 0) {
    return Status::invalid_argument(
        "environment enables no devices: set use_cpu = true or request GPUs "
        "(with_gpus) / MICs (with_mics)");
  }
  if (options_.use_gpus < 0) {
    return Status::invalid_argument(
        "use_gpus = " + std::to_string(options_.use_gpus) +
        " is negative; pass 0 to disable GPUs");
  }
  if (options_.use_mics < 0) {
    return Status::invalid_argument(
        "use_mics = " + std::to_string(options_.use_mics) +
        " is negative; pass 0 to disable MICs");
  }
  if (options_.use_gpus > options_.preset.gpus_per_node) {
    return Status::invalid_argument(
        "requested " + std::to_string(options_.use_gpus) +
        " GPUs but the node preset has " +
        std::to_string(options_.preset.gpus_per_node) +
        "; lower use_gpus or pick a preset with more GPUs");
  }
  if (options_.use_mics > options_.preset.mics_per_node) {
    return Status::invalid_argument(
        "requested " + std::to_string(options_.use_mics) +
        " MICs but the node preset has " +
        std::to_string(options_.preset.mics_per_node) +
        "; lower use_mics or pick a preset with more MICs");
  }
  if (options_.num_threads < 0) {
    return Status::invalid_argument(
        "num_threads = " + std::to_string(options_.num_threads) +
        " is negative; use 0 for hardware concurrency or 1 for serial "
        "execution");
  }
  if (options_.workload_scale < 1.0) {
    return Status::invalid_argument(
        "workload_scale = " + std::to_string(options_.workload_scale) +
        " must be >= 1 (it prices the workload as a multiple of its "
        "functional size)");
  }
  if (options_.comm_scale < 0.0) {
    return Status::invalid_argument(
        "comm_scale = " + std::to_string(options_.comm_scale) +
        " is negative; use 0 to inherit workload_scale");
  }
  if (options_.node_scale < 0.0) {
    return Status::invalid_argument(
        "node_scale = " + std::to_string(options_.node_scale) +
        " is negative; use 0 to inherit workload_scale");
  }
  return Status::ok();
}

support::Status RuntimeEnv::init() { return init_status_; }

void RuntimeEnv::finalize() {
  sr_.reset();  // before st_: the composition borrows the stencil runtime
  gr_.reset();
  ir_.reset();
  st_.reset();
  if (!options_.metrics_path.empty()) {
    if (!metrics::Registry::current().write_json(options_.metrics_path)) {
      PSF_LOG(kWarn, "metrics")
          << "failed to write metrics report to " << options_.metrics_path;
    }
  }
}

GReductionRuntime* RuntimeEnv::get_GR() {
  if (!gr_) gr_ = std::make_unique<GReductionRuntime>(*this);
  return gr_.get();
}

IReductionRuntime* RuntimeEnv::get_IR() {
  if (!ir_) ir_ = std::make_unique<IReductionRuntime>(*this);
  return ir_.get();
}

StencilRuntime* RuntimeEnv::get_ST() {
  if (!st_) st_ = std::make_unique<StencilRuntime>(*this);
  return st_.get();
}

StencilReduce* RuntimeEnv::get_SR() {
  if (!sr_) sr_ = std::make_unique<StencilReduce>(*this);
  return sr_.get();
}

std::vector<devsim::Device*> RuntimeEnv::active_devices() {
  std::vector<devsim::Device*> active;
  if (options_.use_cpu) active.push_back(devices_[0].get());
  for (int g = 0; g < options_.use_gpus; ++g) {
    active.push_back(devices_[static_cast<std::size_t>(g) + 1].get());
  }
  for (int m = 0; m < options_.use_mics; ++m) {
    active.push_back(
        devices_[static_cast<std::size_t>(options_.preset.gpus_per_node) + 1 +
                 static_cast<std::size_t>(m)]
            .get());
  }
  return active;
}

std::vector<DeviceSpec> RuntimeEnv::device_specs(
    bool gpu_resident_data) const {
  const auto& preset = options_.preset;
  std::vector<DeviceSpec> specs;
  if (options_.use_cpu) {
    DeviceSpec cpu;
    // Each accelerator's task retrieval and kernel launches are driven by
    // a dedicated CPU thread (paper III-D), so those cores do not compute.
    const double compute_cores = std::max(
        1, preset.cpu_cores_per_node - options_.use_gpus - options_.use_mics);
    cpu.units_per_s = rates_.cpu_device_units_per_s(
        compute_cores, preset.cpu_parallel_eff);
    cpu.is_gpu = false;
    specs.push_back(cpu);
  }
  for (int g = 0; g < options_.use_gpus; ++g) {
    DeviceSpec gpu;
    gpu.units_per_s = rates_.gpu_device_units_per_s(preset.cpu_parallel_eff);
    gpu.is_gpu = true;
    gpu.bytes_per_unit = gpu_resident_data ? 0.0 : rates_.bytes_per_unit;
    gpu.copy_bytes_per_s = preset.pcie.bytes_per_s;
    gpu.copy_latency_s = preset.pcie.latency_s;
    specs.push_back(gpu);
  }
  for (int m = 0; m < options_.use_mics; ++m) {
    // MIC coprocessors: offload accelerator semantics (data shipped over
    // PCIe, pipelined copies) at the MIC throughput calibration.
    DeviceSpec mic;
    mic.units_per_s = rates_.mic_device_units_per_s(preset.cpu_parallel_eff);
    mic.is_gpu = true;  // spec-level "discrete accelerator" semantics
    mic.bytes_per_unit = gpu_resident_data ? 0.0 : rates_.bytes_per_unit;
    mic.copy_bytes_per_s = preset.pcie.bytes_per_s;
    mic.copy_latency_s = preset.pcie.latency_s;
    specs.push_back(mic);
  }
  return specs;
}

DynamicScheduler::Options RuntimeEnv::scheduler_options() const {
  DynamicScheduler::Options opts;
  opts.chunk_units = options_.gr_chunk_units;
  opts.overheads = options_.preset.overheads;
  opts.overlap_copy = options_.overlap;
  opts.workload_scale = options_.workload_scale;
  return opts;
}

int RuntimeEnv::arm_device_loss(
    int iteration, const std::function<bool(std::size_t)>& has_work) {
  if (fault_plan_ == nullptr || fault_plan_->device_faults().empty()) {
    return -1;
  }
  const auto devices = active_devices();
  for (std::size_t d = 0; d < devices.size(); ++d) {
    if (devices[d]->lost() || !has_work(d)) continue;
    if (fault_plan_->device_fault_due(comm_->rank(),
                                      devices[d]->descriptor().name(),
                                      iteration) != nullptr) {
      devices[d]->fail_at(1);
      return static_cast<int>(d);
    }
  }
  return -1;
}

bool RuntimeEnv::detect_device_loss(int armed, const char* layer,
                                    int iteration) {
  if (armed < 0) return false;
  const devsim::Device& device =
      *active_devices()[static_cast<std::size_t>(armed)];
  if (!device.lost()) return false;
  auto& timeline = comm_->timeline();
  const double detect_begin = timeline.now();
  timeline.advance(fault::kDeviceLossDetectS);
  PSF_METRIC_ADD("fault.recoveries", 1);
  if (options_.trace != nullptr) {
    options_.trace->record("device loss recovery", "fault", comm_->rank(), 0,
                           detect_begin, timeline.now());
  }
  if (auto& log = fault::FaultLog::current(); log.enabled()) {
    log.record(comm_->rank(), std::string(layer) + " recover " +
                                  device.descriptor().name() +
                                  " iter=" + std::to_string(iteration));
  }
  return true;
}

RankRestart RuntimeEnv::restart_failed_ranks(int boundary, int resume_at,
                                             std::vector<bool>& fired,
                                             const char* what,
                                             std::size_t checkpoint_bytes) {
  RankRestart outcome;
  if (fault_plan_ == nullptr) return outcome;
  auto& comm = *comm_;
  const auto& faults = fault_plan_->rank_faults();
  if (fired.size() < faults.size()) fired.resize(faults.size(), false);
  for (std::size_t f = 0; f < faults.size(); ++f) {
    const fault::RankFault& rf = faults[f];
    if (fired[f] || rf.rank < 0 || rf.rank >= comm.size()) continue;
    std::uint8_t due = 0;
    if (rf.iteration > 0) {
      due = (outcome.fired ? resume_at : boundary) == rf.iteration ? 1 : 0;
    } else {
      // Virtual-time trigger: only the target rank's clock decides, so the
      // decision is broadcast to keep every rank at this boundary in
      // agreement.
      due = comm.rank() == rf.rank && comm.timeline().now() >= rf.vtime ? 1
                                                                        : 0;
      comm.bcast(std::as_writable_bytes(std::span<std::uint8_t>(&due, 1)),
                 rf.rank);
    }
    if (due == 0) continue;
    fired[f] = true;
    outcome.fired = true;
    if (comm.rank() == rf.rank) {
      outcome.restarted = true;
      const double restart_begin = comm.timeline().now();
      comm.timeline().advance(fault::kRankRestartS +
                              static_cast<double>(checkpoint_bytes) /
                                  fault::kCheckpointBytesPerS);
      PSF_METRIC_ADD("fault.rank_restarts", 1);
      PSF_METRIC_ADD("fault.checkpoint_bytes", checkpoint_bytes);
      PSF_METRIC_ADD("fault.recoveries", 1);
      if (options_.trace != nullptr) {
        options_.trace->record("rank restart", "fault", comm.rank(), 0,
                               restart_begin, comm.timeline().now());
      }
      if (auto& log = fault::FaultLog::current(); log.enabled()) {
        log.record(comm.rank(), "rank_restart " + std::string(what) + "=" +
                                    std::to_string(resume_at) + " bytes=" +
                                    std::to_string(checkpoint_bytes));
      }
    }
    // Survivors wait for the restarted rank to rejoin.
    comm.barrier();
  }
  return outcome;
}

}  // namespace psf::pattern
