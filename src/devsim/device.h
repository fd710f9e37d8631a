// PSF — Pattern Specification Framework
// Simulated compute devices.
//
// The paper's framework drives a 12-core CPU plus one or more discrete Fermi
// GPUs per node. Here a Device is a functional simulator: device memory is
// host memory with capacity accounting, kernels execute for real on a small
// host thread pool (so the shared-memory-arena and atomic-update code paths
// are genuinely concurrent and testable), and every operation advances a
// virtual-time lane according to the calibrated cost model. Streams model
// CUDA streams: in-order per stream, asynchronous with respect to the host
// timeline until synchronized.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "exec/thread_pool.h"
#include "support/buffer.h"
#include "support/error.h"
#include "support/metrics.h"
#include "support/sync.h"
#include "timemodel/link.h"
#include "timemodel/rates.h"
#include "timemodel/timeline.h"
#include "timemodel/trace.h"

namespace psf::devsim {

enum class DeviceType : std::uint8_t {
  kCpu,  ///< the node's multi-core host CPU
  kGpu,  ///< discrete CUDA-class GPU
  kMic,  ///< Intel MIC (Xeon Phi) coprocessor — the paper's future-work
         ///< target: x86 many-core over PCIe, no SM shared memory
};

/// Static description of one device.
struct DeviceDescriptor {
  DeviceType type = DeviceType::kCpu;
  int id = 0;  ///< index within the node (0 = CPU, 1.. = GPUs)
  int compute_units = 12;  ///< CPU cores or GPU SMs
  std::size_t memory_bytes = std::size_t{6} * 1024 * 1024 * 1024;
  /// Per-SM on-chip memory; Fermi default 48 KB shared / 16 KB L1.
  std::size_t shared_memory_per_sm = 48 * 1024;
  /// Host<->device link (PCIe); meaningless for the CPU device.
  timemodel::LinkModel h2d_link = timemodel::LinkModel::pcie();

  [[nodiscard]] std::string name() const {
    const char* prefix = type == DeviceType::kCpu   ? "cpu"
                         : type == DeviceType::kGpu ? "gpu"
                                                    : "mic";
    return prefix + std::to_string(id);
  }
};

/// cudaFuncCachePreferShared / PreferL1 equivalent: the stencil runtime
/// flips GPUs to PreferL1 (16 KB shared / 48 KB L1), reductions use
/// PreferShared (48 KB shared) — paper Section III-E.
enum class CachePreference : std::uint8_t { kPreferShared, kPreferL1 };

class Device;

/// RAII allocation in a device's memory space. Backed by host memory; the
/// byte size counts against the device's simulated capacity.
class DeviceBuffer {
 public:
  DeviceBuffer() = default;
  DeviceBuffer(DeviceBuffer&&) noexcept;
  DeviceBuffer& operator=(DeviceBuffer&&) noexcept;
  DeviceBuffer(const DeviceBuffer&) = delete;
  DeviceBuffer& operator=(const DeviceBuffer&) = delete;
  ~DeviceBuffer();

  [[nodiscard]] std::span<std::byte> bytes() noexcept {
    return storage_.bytes();
  }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return storage_.bytes();
  }
  template <typename T>
  [[nodiscard]] std::span<T> as() noexcept {
    return storage_.as<T>();
  }
  template <typename T>
  [[nodiscard]] std::span<const T> as() const noexcept {
    return storage_.as<T>();
  }
  [[nodiscard]] std::size_t size() const noexcept { return storage_.size(); }
  [[nodiscard]] bool empty() const noexcept { return storage_.empty(); }

 private:
  friend class Device;
  DeviceBuffer(Device* owner, std::size_t bytes);
  void release() noexcept;

  Device* owner_ = nullptr;
  support::AlignedBuffer storage_;
};

/// Host "pinned" (page-locked, zero-copy mappable) buffer. Device kernels
/// may read/write it directly, as the paper's boundary-packing kernels do
/// with host-mapped memory.
class PinnedBuffer {
 public:
  PinnedBuffer() = default;
  explicit PinnedBuffer(std::size_t bytes) : storage_(bytes) {}

  void resize(std::size_t bytes) { storage_.resize(bytes); }
  [[nodiscard]] std::span<std::byte> bytes() noexcept {
    return storage_.bytes();
  }
  [[nodiscard]] std::span<const std::byte> bytes() const noexcept {
    return storage_.bytes();
  }
  template <typename T>
  [[nodiscard]] std::span<T> as() noexcept {
    return storage_.as<T>();
  }
  [[nodiscard]] std::size_t size() const noexcept { return storage_.size(); }

 private:
  support::AlignedBuffer storage_;
};

/// Execution context handed to each simulated thread block. `shared` is the
/// block's slice of SM shared memory (or a scratch arena on the CPU device,
/// where it models the per-core private reduction object).
struct BlockContext {
  int block_id = 0;
  int num_blocks = 1;
  std::span<std::byte> shared;
};

/// One simulated device. Thread-compatible: a single host thread (the
/// device's controlling CPU thread, as in the paper) drives it.
class Device {
 public:
  /// `executor` is the rank's shared execution engine backing run_blocks;
  /// when null (direct construction in tests / standalone use) the device
  /// owns a small private pool so block execution stays concurrent.
  Device(DeviceDescriptor descriptor, timemodel::Timeline& host,
         exec::ThreadPool* executor = nullptr);
  ~Device();

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  [[nodiscard]] const DeviceDescriptor& descriptor() const noexcept {
    return descriptor_;
  }
  [[nodiscard]] DeviceType type() const noexcept { return descriptor_.type; }
  [[nodiscard]] bool is_gpu() const noexcept {
    return descriptor_.type == DeviceType::kGpu;
  }
  /// Discrete accelerator behind a PCIe link (GPU or MIC): work must be
  /// shipped to it and a host thread controls it.
  [[nodiscard]] bool is_accelerator() const noexcept {
    return descriptor_.type != DeviceType::kCpu;
  }

  // --- memory ---------------------------------------------------------------

  /// Allocate `bytes` of device memory; Status error when the simulated
  /// capacity is exhausted.
  support::StatusOr<DeviceBuffer> alloc(std::size_t bytes);

  [[nodiscard]] std::size_t memory_in_use() const noexcept {
    return memory_in_use_;
  }

  /// Usable shared memory per SM under the current cache preference.
  [[nodiscard]] std::size_t usable_shared_memory() const noexcept;

  void set_cache_preference(CachePreference preference) noexcept {
    cache_preference_ = preference;
  }
  [[nodiscard]] CachePreference cache_preference() const noexcept {
    return cache_preference_;
  }

  // --- execution ------------------------------------------------------------

  /// Application-specific throughput (work units per second) used to price
  /// kernels; configured by the pattern runtime from timemodel::AppRates.
  void set_compute_rate(double units_per_s) noexcept {
    PSF_CHECK(units_per_s > 0.0);
    units_per_s_ = units_per_s;
  }
  [[nodiscard]] double compute_rate() const noexcept { return units_per_s_; }

  [[nodiscard]] double kernel_cost(double work_units) const noexcept {
    return overheads_.kernel_launch_s + work_units / units_per_s_;
  }

  void set_overheads(const timemodel::Overheads& overheads) noexcept {
    overheads_ = overheads;
  }

  /// Run `body(ctx)` for each of `num_blocks` blocks, each with a private
  /// `shared_bytes` arena, on the device's worker pool. Functional execution
  /// only — virtual time is charged separately through streams or lanes.
  ///
  /// Device loss (fault plans, docs/RESILIENCE.md): when a loss is armed
  /// via fail_at(), the fatal launch aborts before ANY block runs — a real
  /// device's kernel output is unretrievable after the device is lost — and
  /// the device stays lost; every later launch is a no-op. Callers must
  /// check lost()/status() after launching and re-execute the launch with
  /// host_replay(). This all-or-nothing semantic is what makes replay safe:
  /// a launch either fully happened or left no trace.
  void run_blocks(int num_blocks, std::size_t shared_bytes,
                  const std::function<void(const BlockContext&)>& body);

  // --- simulated device loss ------------------------------------------------

  /// Arm a device loss: the `nth_launch`-th subsequent non-empty run_blocks
  /// launch aborts (executing nothing) and marks the device lost.
  void fail_at(int nth_launch) noexcept {
    PSF_CHECK_MSG(nth_launch >= 1, "fail_at needs a launch index >= 1");
    fail_countdown_ = nth_launch;
  }

  [[nodiscard]] bool lost() const noexcept { return lost_; }

  /// kDeviceLost once the device died, OK otherwise.
  [[nodiscard]] support::Status status() const {
    return lost_ ? support::Status::device_lost(
                       descriptor_.name() + ": simulated device loss")
                 : support::Status::ok();
  }

  /// Re-run a launch that a lost device discarded, on the host worker pool.
  /// The launch must be idempotent (block bodies reset their private state
  /// on entry — the contract every pattern runtime upholds and GReduction
  /// asserts); replaying it then reproduces the fault-free bytes exactly.
  void host_replay(int num_blocks, std::size_t shared_bytes,
                   const std::function<void(const BlockContext&)>& body);

  /// Clear the lost state and any armed countdown (test helper).
  void restore() noexcept {
    lost_ = false;
    fail_countdown_ = -1;
  }

  /// The owning rank, used to key fault-log events deterministically even
  /// when tracing is off (RuntimeEnv sets it; set_trace also updates it).
  void set_owner_rank(int rank) noexcept { trace_rank_ = rank; }

  /// Attach a schedule recorder: stream operations (async copies, kernel
  /// launches) record spans on (rank, lane) and copy -> kernel dependency
  /// edges, so psf::analysis sees the transfer/compute pipeline. Not owned;
  /// must outlive the device.
  void set_trace(timemodel::TraceRecorder* trace, int rank, int lane) {
    trace_ = trace;
    trace_rank_ = rank;
    trace_lane_ = lane;
    if (trace_ != nullptr) {
      trace_->set_lane_name(rank, lane, descriptor_.name());
    }
  }

  /// Stream handles (created lazily; the paper's runtime uses two per GPU).
  class Stream& stream(int index);
  [[nodiscard]] int num_streams() const noexcept {
    return static_cast<int>(streams_.size());
  }
  /// Merge every stream's lane into `host` (cudaDeviceSynchronize).
  void synchronize_all(timemodel::Timeline& host);

 private:
  friend class DeviceBuffer;
  friend class Stream;

  /// The shared launch machinery behind run_blocks and host_replay.
  void run_blocks_impl(int num_blocks, std::size_t shared_bytes,
                       const std::function<void(const BlockContext&)>& body);

  DeviceDescriptor descriptor_;
  timemodel::Timeline* host_;
  timemodel::Overheads overheads_;
  CachePreference cache_preference_ = CachePreference::kPreferShared;
  double units_per_s_ = 1.0e7;
  std::size_t memory_in_use_ = 0;
  exec::ThreadPool* pool_;  ///< rank executor, or owned_pool_ fallback
  std::unique_ptr<exec::ThreadPool> owned_pool_;
  /// Persistent per-worker block arenas, reused (grow-only) across
  /// run_blocks launches so steady-state kernels allocate nothing.
  std::vector<support::AlignedBuffer> arenas_;
  std::vector<std::size_t> free_arena_slots_;
  support::SpinLock arena_lock_;
  std::size_t arena_bytes_ = 0;
  std::vector<std::unique_ptr<Stream>> streams_;
  /// Simulated device-loss state: countdown of non-empty launches until the
  /// armed loss fires (-1/0 = disarmed), and whether the device is dead.
  int fail_countdown_ = -1;
  bool lost_ = false;
  timemodel::TraceRecorder* trace_ = nullptr;
  int trace_rank_ = 0;
  int trace_lane_ = 0;

  // Per-device instruments, looked up once (name-keyed, e.g.
  // "devsim.gpu1.busy_vtime") so stream hot paths pay one atomic op.
  metrics::Counter* metric_kernel_launches_ = nullptr;
  metrics::Counter* metric_block_launches_ = nullptr;
  metrics::Timer* metric_busy_vtime_ = nullptr;
  metrics::Counter* metric_h2d_bytes_ = nullptr;
  metrics::Counter* metric_d2h_bytes_ = nullptr;
};

/// Cross-stream synchronization marker (cudaEvent model): records a point
/// in one stream's virtual timeline that other streams or the host can
/// wait on.
class Event {
 public:
  [[nodiscard]] bool recorded() const noexcept { return recorded_; }
  [[nodiscard]] double timestamp() const noexcept { return timestamp_; }

  /// Block the host until the event's work completed (cudaEventSynchronize).
  void synchronize(timemodel::Timeline& host) const {
    PSF_CHECK_MSG(recorded_, "synchronizing an unrecorded event");
    host.merge(timestamp_);
  }

 private:
  friend class Stream;
  double timestamp_ = 0.0;
  bool recorded_ = false;
};

/// In-order asynchronous work queue on a device (CUDA stream model).
/// Operations execute functionally at enqueue time (valid because each
/// stream's consumers are ordered and the runtimes keep streams disjoint),
/// while the virtual-time lane records when they would complete.
class Stream {
 public:
  Stream(Device& device, timemodel::Timeline& host)
      : device_(&device), host_(&host) {}

  /// Asynchronous host-to-device copy (functional memcpy + PCIe pricing).
  void copy_h2d(std::span<std::byte> dst, std::span<const std::byte> src);
  /// Asynchronous device-to-host copy.
  void copy_d2h(std::span<std::byte> dst, std::span<const std::byte> src);
  /// Peer device-to-device copy (cudaMemcpyPeerAsync); both stream lanes
  /// advance, concurrent bi-directional transfers do not serialize.
  void copy_peer(std::span<std::byte> dst, Stream& peer,
                 std::span<const std::byte> src,
                 const timemodel::LinkModel& link);

  /// Launch a kernel: run `num_blocks` blocks functionally and charge
  /// kernel_cost(work_units) on this stream's lane.
  void launch(int num_blocks, std::size_t shared_bytes, double work_units,
              const std::function<void(const BlockContext&)>& body);

  /// Charge an already-priced cost on this lane without executing anything
  /// (used when the runtime prices a composite operation itself).
  void charge(double seconds);

  /// Record the stream's current position into `event` (cudaEventRecord).
  void record(Event& event) {
    event.timestamp_ = lane_;
    event.recorded_ = true;
  }

  /// Make this stream wait for `event` (cudaStreamWaitEvent): subsequent
  /// work starts no earlier than the recorded point.
  void wait(const Event& event) {
    PSF_CHECK_MSG(event.recorded_, "waiting on an unrecorded event");
    lane_ = std::max(lane_, event.timestamp_);
  }

  /// Block the host until the stream drains (merges lane into host time).
  void synchronize();

  [[nodiscard]] double lane_time() const noexcept { return lane_; }

 private:
  /// Async ops begin no earlier than their enqueue time on the host.
  double begin() noexcept;

  /// Record a span for a stream op on the owning device's trace lane;
  /// returns 0 when tracing is off.
  std::uint64_t trace_op(const char* name, const char* category,
                         double op_begin, double op_end);

  Device* device_;
  timemodel::Timeline* host_;
  double lane_ = 0.0;
  /// Copy spans since the last kernel launch — each becomes a copy ->
  /// kernel "stream" edge when the next launch records.
  std::vector<std::uint64_t> pending_copy_spans_;
};

/// Atomic read-modify-write on device data shared between simulated blocks.
template <typename T>
T atomic_add(T* address, T value) noexcept {
  std::atomic_ref<T> ref(*address);
  return ref.fetch_add(value, std::memory_order_relaxed);
}

/// The device set of one node: devices[0] is the multi-core CPU, devices
/// [1..gpus] are GPUs, then preset.mics_per_node MIC coprocessors, per the
/// testbed preset.
std::vector<std::unique_ptr<Device>> make_node_devices(
    const timemodel::ClusterPreset& preset, timemodel::Timeline& host,
    std::size_t gpu_memory_bytes = std::size_t{6} * 1024 * 1024 * 1024,
    exec::ThreadPool* executor = nullptr);

}  // namespace psf::devsim
