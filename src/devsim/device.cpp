#include "devsim/device.h"

#include <algorithm>
#include <cstring>
#include <mutex>
#include <utility>

#include "fault/fault.h"
#include "support/sync.h"
#include "telemetry/prof.h"

namespace psf::devsim {

namespace {
/// Host worker threads per device. The simulation host may have few cores;
/// a small pool still exercises concurrent block execution (atomics, arena
/// isolation) without oversubscribing the machine.
constexpr std::size_t kMaxHostWorkers = 4;
}  // namespace

// --- DeviceBuffer -----------------------------------------------------------

DeviceBuffer::DeviceBuffer(Device* owner, std::size_t bytes)
    : owner_(owner), storage_(bytes) {}

DeviceBuffer::DeviceBuffer(DeviceBuffer&& other) noexcept
    : owner_(std::exchange(other.owner_, nullptr)),
      storage_(std::move(other.storage_)) {}

DeviceBuffer& DeviceBuffer::operator=(DeviceBuffer&& other) noexcept {
  if (this != &other) {
    release();
    owner_ = std::exchange(other.owner_, nullptr);
    storage_ = std::move(other.storage_);
  }
  return *this;
}

DeviceBuffer::~DeviceBuffer() { release(); }

void DeviceBuffer::release() noexcept {
  if (owner_ != nullptr) {
    owner_->memory_in_use_ -= storage_.size();
    owner_ = nullptr;
  }
  storage_.resize(0);
}

// --- Device -----------------------------------------------------------------

Device::Device(DeviceDescriptor descriptor, timemodel::Timeline& host,
               exec::ThreadPool* executor)
    : descriptor_(descriptor), host_(&host), pool_(executor) {
  PSF_CHECK_MSG(descriptor_.compute_units > 0,
                "device needs at least one compute unit");
  if (pool_ == nullptr) {
    // Directly-constructed device (no rank executor): own a small pool so
    // block execution still exercises concurrency.
    const std::size_t workers = std::min<std::size_t>(
        kMaxHostWorkers, static_cast<std::size_t>(descriptor_.compute_units));
    owned_pool_ = std::make_unique<exec::ThreadPool>(workers);
    pool_ = owned_pool_.get();
  }
#ifndef PSF_DISABLE_METRICS
  auto& registry = metrics::Registry::current();
  const std::string prefix = "devsim." + descriptor_.name() + ".";
  metric_kernel_launches_ = &registry.counter(prefix + "kernel_launches");
  metric_block_launches_ = &registry.counter(prefix + "block_launches");
  metric_busy_vtime_ = &registry.timer(prefix + "busy_vtime");
  metric_h2d_bytes_ = &registry.counter(prefix + "h2d_bytes");
  metric_d2h_bytes_ = &registry.counter(prefix + "d2h_bytes");
#endif
}

Device::~Device() = default;

support::StatusOr<DeviceBuffer> Device::alloc(std::size_t bytes) {
  if (memory_in_use_ + bytes > descriptor_.memory_bytes) {
    return support::Status::resource_exhausted(
        descriptor_.name() + ": allocation of " + std::to_string(bytes) +
        " bytes exceeds capacity (" + std::to_string(memory_in_use_) + "/" +
        std::to_string(descriptor_.memory_bytes) + " in use)");
  }
  memory_in_use_ += bytes;
  return DeviceBuffer(this, bytes);
}

std::size_t Device::usable_shared_memory() const noexcept {
  // Fermi on-chip memory is 64 KB split 48/16 between shared memory and L1
  // depending on the cache preference (paper Section III-E).
  if (!is_gpu()) return descriptor_.shared_memory_per_sm;
  constexpr std::size_t kOnChip = 64 * 1024;
  return cache_preference_ == CachePreference::kPreferShared
             ? kOnChip - 16 * 1024
             : kOnChip - 48 * 1024;
}

void Device::run_blocks(
    int num_blocks, std::size_t shared_bytes,
    const std::function<void(const BlockContext&)>& body) {
  PSF_CHECK(num_blocks >= 0);
  if (num_blocks == 0) return;
  if (lost_) return;  // a dead device executes nothing; see host_replay()
  if (fail_countdown_ > 0 && --fail_countdown_ == 0) {
    // Armed loss fires: the launch aborts before any block runs (its
    // output would be unretrievable from a lost device anyway) and the
    // device is dead from here on. The caller recovers via host_replay().
    lost_ = true;
    PSF_METRIC_ADD("fault.device_losses", 1);
    if (fault::FaultLog::current().enabled()) {
      fault::FaultLog::current().record(
          trace_rank_, "device_loss " + descriptor_.name());
    }
    return;
  }
  run_blocks_impl(num_blocks, shared_bytes, body);
}

void Device::host_replay(
    int num_blocks, std::size_t shared_bytes,
    const std::function<void(const BlockContext&)>& body) {
  PSF_CHECK_MSG(lost_, "host_replay on a healthy device");
  PSF_CHECK(num_blocks >= 0);
  if (num_blocks == 0) return;
  PSF_METRIC_ADD("fault.host_replays", 1);
  run_blocks_impl(num_blocks, shared_bytes, body);
}

void Device::run_blocks_impl(
    int num_blocks, std::size_t shared_bytes,
    const std::function<void(const BlockContext&)>& body) {
  PSF_CHECK_MSG(shared_bytes <= usable_shared_memory(),
                descriptor_.name() << ": block requests " << shared_bytes
                                   << " bytes of shared memory, only "
                                   << usable_shared_memory() << " usable");
#ifndef PSF_DISABLE_METRICS
  metric_block_launches_->add(static_cast<std::uint64_t>(num_blocks));
#endif
  // Each concurrent worker gets its own arena; blocks reuse arenas as they
  // are scheduled, exactly like SMs reuse shared memory across blocks. The
  // arenas persist across launches (grow-only), so the per-iteration kernel
  // launches of a steady-state run allocate nothing; a single controlling
  // host thread drives the device, so resizing here is race-free. Blocks
  // zero their slice before use, which keeps reuse semantically fresh.
  const std::size_t concurrency = pool_->size() + 1;
  if (arenas_.size() != concurrency || arena_bytes_ < shared_bytes) {
    arenas_.resize(concurrency);
    arena_bytes_ = std::max(arena_bytes_, shared_bytes);
    for (auto& arena : arenas_) {
      if (arena.size() < arena_bytes_) arena.resize(arena_bytes_);
    }
  }
  // Arena checkout stack: at most `concurrency` blocks run at once, so a
  // popped arena is exclusively owned until the block finishes. parallel_for
  // joins before returning, so the stack is full again on the next launch.
  free_arena_slots_.resize(concurrency);
  for (std::size_t i = 0; i < concurrency; ++i) free_arena_slots_[i] = i;

  pool_->parallel_for(
      static_cast<std::size_t>(num_blocks), [&](std::size_t block) {
        PSF_PROF_SCOPE("dev.block");
        std::size_t slot;
        {
          std::lock_guard<support::SpinLock> guard(arena_lock_);
          PSF_CHECK_MSG(!free_arena_slots_.empty(), "arena pool underflow");
          slot = free_arena_slots_.back();
          free_arena_slots_.pop_back();
        }
        auto& arena = arenas_[slot];
        if (shared_bytes > 0) std::memset(arena.data(), 0, shared_bytes);
        BlockContext ctx;
        ctx.block_id = static_cast<int>(block);
        ctx.num_blocks = num_blocks;
        ctx.shared = arena.bytes().first(shared_bytes);
        body(ctx);
        {
          std::lock_guard<support::SpinLock> guard(arena_lock_);
          free_arena_slots_.push_back(slot);
        }
      });
}

Stream& Device::stream(int index) {
  PSF_CHECK(index >= 0 && index < 64);
  while (static_cast<int>(streams_.size()) <= index) {
    streams_.push_back(std::make_unique<Stream>(*this, *host_));
  }
  return *streams_[static_cast<std::size_t>(index)];
}

void Device::synchronize_all(timemodel::Timeline& host) {
  for (auto& stream : streams_) {
    host.merge(stream->lane_time());
  }
}

// --- Stream -----------------------------------------------------------------

double Stream::begin() noexcept {
  // An async op cannot start before it is enqueued (host time) nor before
  // the stream's previous op finished (in-order streams).
  lane_ = std::max(lane_, host_->now());
  return lane_;
}

std::uint64_t Stream::trace_op(const char* name, const char* category,
                               double op_begin, double op_end) {
  if (device_->trace_ == nullptr) return 0;
  return device_->trace_->record(name, category, device_->trace_rank_,
                                 device_->trace_lane_, op_begin, op_end);
}

void Stream::copy_h2d(std::span<std::byte> dst,
                      std::span<const std::byte> src) {
  PSF_CHECK_MSG(dst.size() >= src.size(), "copy_h2d destination too small");
  const double op_begin = begin();
  std::memcpy(dst.data(), src.data(), src.size());
  lane_ += device_->descriptor().h2d_link.cost(src.size());
#ifndef PSF_DISABLE_METRICS
  device_->metric_h2d_bytes_->add(src.size());
#endif
  if (const auto span = trace_op("h2d copy", "copy", op_begin, lane_)) {
    pending_copy_spans_.push_back(span);
  }
}

void Stream::copy_d2h(std::span<std::byte> dst,
                      std::span<const std::byte> src) {
  PSF_CHECK_MSG(dst.size() >= src.size(), "copy_d2h destination too small");
  const double op_begin = begin();
  std::memcpy(dst.data(), src.data(), src.size());
  lane_ += device_->descriptor().h2d_link.cost(src.size());
#ifndef PSF_DISABLE_METRICS
  device_->metric_d2h_bytes_->add(src.size());
#endif
  if (const auto span = trace_op("d2h copy", "copy", op_begin, lane_)) {
    pending_copy_spans_.push_back(span);
  }
}

void Stream::copy_peer(std::span<std::byte> dst, Stream& peer,
                       std::span<const std::byte> src,
                       const timemodel::LinkModel& link) {
  PSF_CHECK_MSG(dst.size() >= src.size(), "copy_peer destination too small");
  begin();
  peer.begin();
  std::memcpy(dst.data(), src.data(), src.size());
  // Both endpoints are busy for the duration; bi-directional transfers on
  // the PCIe bus proceed concurrently (cudaMemcpyPeerAsync semantics).
  const double done = std::max(lane_, peer.lane_) + link.cost(src.size());
  lane_ = done;
  peer.lane_ = done;
}

void Stream::launch(int num_blocks, std::size_t shared_bytes,
                    double work_units,
                    const std::function<void(const BlockContext&)>& body) {
  const double op_begin = begin();
  device_->run_blocks(num_blocks, shared_bytes, body);
  const double cost = device_->kernel_cost(work_units);
  lane_ += cost;
#ifndef PSF_DISABLE_METRICS
  device_->metric_kernel_launches_->add(1);
  device_->metric_busy_vtime_->observe(cost);
#endif
  if (const auto span = trace_op("kernel", "compute", op_begin, lane_)) {
    // In-order stream: the kernel consumes whatever the preceding copies
    // staged on the device.
    for (const auto copy : pending_copy_spans_) {
      device_->trace_->record_edge(copy, span, "stream");
    }
    pending_copy_spans_.clear();
  }
}

void Stream::charge(double seconds) {
  PSF_CHECK(seconds >= 0.0);
  begin();
  lane_ += seconds;
#ifndef PSF_DISABLE_METRICS
  device_->metric_busy_vtime_->observe(seconds);
#endif
}

void Stream::synchronize() { host_->merge(lane_); }

// --- node factory -----------------------------------------------------------

std::vector<std::unique_ptr<Device>> make_node_devices(
    const timemodel::ClusterPreset& preset, timemodel::Timeline& host,
    std::size_t gpu_memory_bytes, exec::ThreadPool* executor) {
  std::vector<std::unique_ptr<Device>> devices;
  DeviceDescriptor cpu;
  cpu.type = DeviceType::kCpu;
  cpu.id = 0;
  cpu.compute_units = preset.cpu_cores_per_node;
  cpu.memory_bytes = std::size_t{47} * 1024 * 1024 * 1024;
  cpu.shared_memory_per_sm = 256 * 1024;  // models per-core L2 working set
  devices.push_back(std::make_unique<Device>(cpu, host, executor));
  devices.back()->set_overheads(preset.overheads);

  for (int g = 0; g < preset.gpus_per_node; ++g) {
    DeviceDescriptor gpu;
    gpu.type = DeviceType::kGpu;
    gpu.id = g + 1;
    gpu.compute_units = 14;  // M2070: 14 SMs
    gpu.memory_bytes = gpu_memory_bytes;
    gpu.shared_memory_per_sm = 48 * 1024;
    gpu.h2d_link = preset.pcie;
    devices.push_back(std::make_unique<Device>(gpu, host, executor));
    devices.back()->set_overheads(preset.overheads);
  }
  for (int m = 0; m < preset.mics_per_node; ++m) {
    // Knights-Corner-class coprocessor: many small x86 cores, regular
    // caches (no SM shared memory), data shipped over PCIe like a GPU.
    DeviceDescriptor mic;
    mic.type = DeviceType::kMic;
    mic.id = preset.gpus_per_node + m + 1;
    mic.compute_units = 60;
    mic.memory_bytes = std::size_t{8} * 1024 * 1024 * 1024;
    mic.shared_memory_per_sm = 512 * 1024;  // per-core L2 working set
    mic.h2d_link = preset.pcie;
    devices.push_back(std::make_unique<Device>(mic, host, executor));
    devices.back()->set_overheads(preset.overheads);
  }
  return devices;
}

}  // namespace psf::devsim
