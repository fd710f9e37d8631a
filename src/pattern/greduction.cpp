#include "pattern/greduction.h"

#include <algorithm>
#include <cstring>
#include <string>

#include "exec/parallel_for.h"
#include "fault/fault.h"
#include "pattern/partition.h"
#include "pattern/runtime_env.h"
#include "support/log.h"
#include "support/metrics.h"
#include "telemetry/prof.h"

namespace psf::pattern {

namespace {

/// A contiguous range of global unit indices.
struct UnitRange {
  std::size_t begin = 0;
  std::size_t end = 0;
};

/// Sub-ranges covering positions [from, to) of the concatenation of
/// `ranges` — used to split a device's chunk list across its blocks.
std::vector<UnitRange> slice_ranges(const std::vector<UnitRange>& ranges,
                                    std::size_t from, std::size_t to) {
  std::vector<UnitRange> out;
  std::size_t offset = 0;
  for (const auto& range : ranges) {
    const std::size_t len = range.end - range.begin;
    const std::size_t lo = std::max(from, offset);
    const std::size_t hi = std::min(to, offset + len);
    if (lo < hi) {
      out.push_back({range.begin + (lo - offset), range.begin + (hi - offset)});
    }
    offset += len;
    if (offset >= to) break;
  }
  return out;
}

}  // namespace

GReductionRuntime::GReductionRuntime(RuntimeEnv& env) : env_(&env) {}
GReductionRuntime::~GReductionRuntime() = default;

void GReductionRuntime::set_input(const void* data, std::size_t unit_bytes,
                                  std::size_t num_units) {
  input_ = static_cast<const std::byte*>(data);
  unit_bytes_ = unit_bytes;
  num_units_ = num_units;
}

void GReductionRuntime::configure_object(std::size_t capacity,
                                         std::size_t value_size) {
  object_capacity_ = capacity;
  value_size_ = value_size;
}

support::Status GReductionRuntime::validate() const {
  if (emit_ == nullptr || reduce_ == nullptr) {
    return support::Status::failed_precondition(
        "generalized reduction: emit/reduce functions not set");
  }
  if (input_ == nullptr || unit_bytes_ == 0) {
    return support::Status::failed_precondition(
        "generalized reduction: input not set");
  }
  if (object_capacity_ == 0 || value_size_ == 0) {
    return support::Status::failed_precondition(
        "generalized reduction: reduction object not configured");
  }
  return support::Status::ok();
}

support::Status GReductionRuntime::start() {
  PSF_RETURN_IF_ERROR(validate());
  stats_ = {};
  have_global_ = false;
  local_result_ = std::make_unique<ReductionObject>(
      ObjectLayout::kHash, object_capacity_, value_size_, reduce_);

  auto& comm = env_->comm();
  const BlockPartition rank_split(num_units_, comm.size());
  const std::size_t my_begin = rank_split.begin(comm.rank());
  const std::size_t my_units = rank_split.size(comm.rank());

  // Dynamic chunk scheduling over the node's devices: generalized reductions
  // stream their input, so GPUs pay (pipelined) per-chunk transfers.
  // Without reduction localization every update contends on the device-
  // level object's slot locks in device memory; the calibrated throughput
  // penalty reflects the paper's motivation for the optimization (III-E).
  auto specs = env_->device_specs(/*gpu_resident_data=*/false);
  const auto devices = env_->active_devices();
  for (std::size_t d = 0; d < specs.size(); ++d) {
    if (!localizes_on(*devices[d])) {
      specs[d].units_per_s *= kNoLocalizationThroughput;
    }
  }
  // The CANONICAL functional schedule runs over the full device set every
  // iteration — it fixes the chunk -> block -> staging merge structure, so
  // the functional result is bit-identical whether or not a device dies (a
  // lost device's launches are replayed on the host; docs/RESILIENCE.md).
  // Pricing is decoupled: under a fault the iteration is PRICED as the
  // survivors experience it (run_with_failure / survivor-only run below).
  const auto schedule = DynamicScheduler::run(
      specs, my_units, comm.timeline().now(), env_->scheduler_options());

  // Device-loss injection: remember which devices died in earlier
  // iterations, then arm any loss due this iteration. Arming only when the
  // device drew canonical work keeps the launch countdown aligned with the
  // priced failure point.
  std::vector<bool> lost_before(devices.size(), false);
  bool any_prior_loss = false;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    lost_before[d] = devices[d]->lost();
    any_prior_loss = any_prior_loss || lost_before[d];
  }
  const int iteration = ++gr_epoch_;
  const int armed = env_->arm_device_loss(
      iteration, [&](std::size_t d) { return schedule.device_units[d] > 0; });

  // Priced schedule: identical to the canonical one on the fault-free path
  // (same object, zero extra work); under a loss the survivors re-absorb
  // the dead device's chunks, including the requeued half-finished one.
  ScheduleResult priced_storage;
  const ScheduleResult* priced = &schedule;
  if (armed >= 0 || any_prior_loss) {
    std::vector<DeviceSpec> live_specs;
    std::vector<std::size_t> live_to_full;
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (lost_before[d]) continue;
      live_specs.push_back(specs[d]);
      live_to_full.push_back(d);
    }
    PSF_CHECK_MSG(!live_specs.empty(),
                  "generalized reduction: every device is lost");
    ScheduleResult live;
    if (armed >= 0) {
      int live_armed = 0;
      std::size_t armed_chunks = 0;
      for (std::size_t li = 0; li < live_to_full.size(); ++li) {
        if (live_to_full[li] == static_cast<std::size_t>(armed)) {
          live_armed = static_cast<int>(li);
        }
      }
      for (const auto& chunk : schedule.chunks) {
        if (chunk.device == armed) ++armed_chunks;
      }
      live = DynamicScheduler::run_with_failure(
          live_specs, my_units, comm.timeline().now(),
          env_->scheduler_options(), live_armed, armed_chunks / 2,
          fault::kDeviceLossDetectS);
    } else {
      live = DynamicScheduler::run(live_specs, my_units, comm.timeline().now(),
                                   env_->scheduler_options());
    }
    for (auto& chunk : live.chunks) {
      chunk.device =
          static_cast<int>(live_to_full[static_cast<std::size_t>(chunk.device)]);
    }
    priced_storage.chunks = std::move(live.chunks);
    priced_storage.device_finish.assign(devices.size(), comm.timeline().now());
    priced_storage.device_units.assign(devices.size(), 0);
    for (std::size_t li = 0; li < live_to_full.size(); ++li) {
      priced_storage.device_finish[live_to_full[li]] = live.device_finish[li];
      priced_storage.device_units[live_to_full[li]] = live.device_units[li];
    }
    priced_storage.makespan = live.makespan;
    priced_storage.requeued_chunks = live.requeued_chunks;
    priced_storage.lost_device = live.lost_device >= 0 ? armed : -1;
    priced = &priced_storage;
  }

  // Stats flags are computed on this thread before the lanes launch so the
  // lane tasks never write shared runtime state. used_shared_memory follows
  // the canonical (functional) schedule.
  for (std::size_t d = 0; d < specs.size(); ++d) {
    if (schedule.device_units[d] > 0 && localizes_on(*devices[d])) {
      stats_.used_shared_memory = true;
    }
  }

  // Device lanes run concurrently on the rank executor (the paper's
  // dedicated controlling thread per accelerator, III-D). Each lane builds
  // a private per-device object; merging happens afterwards in device
  // order, so the result is independent of lane timing.
  std::vector<std::unique_ptr<ReductionObject>> device_results(specs.size());
  exec::parallel_for(env_->executor(), specs.size(), [&](std::size_t d) {
    PSF_PROF_SCOPE("gr.chunk");
    device_results[d] =
        execute_device_chunks(static_cast<int>(d), my_begin, schedule);
  });
  for (auto& device_result : device_results) {
    if (device_result) local_result_->merge_from(*device_result);
  }

  stats_.device_units = priced->device_units;
  stats_.device_finish = priced->device_finish;
  stats_.local_makespan = priced->makespan;
  stats_.num_chunks = priced->chunks.size();

#ifndef PSF_DISABLE_METRICS
  // Per-device chunk/unit distribution — the dynamic scheduler's emergent
  // load balance (paper Fig. 5's "where the work went").
  PSF_METRIC_ADD("pattern.gr.runs", 1);
  PSF_METRIC_ADD("pattern.gr.chunks", priced->chunks.size());
  PSF_METRIC_ADD("pattern.gr.units", my_units);
  {
    auto& registry = metrics::Registry::current();
    std::vector<std::size_t> chunks_per_device(specs.size(), 0);
    for (const auto& chunk : priced->chunks) {
      ++chunks_per_device[static_cast<std::size_t>(chunk.device)];
    }
    for (std::size_t d = 0; d < specs.size(); ++d) {
      const std::string name = devices[d]->descriptor().name();
      registry.counter("pattern.gr.chunks." + name)
          .add(chunks_per_device[d]);
      registry.counter("pattern.gr.units." + name)
          .add(priced->device_units[d]);
    }
  }
  PSF_METRIC_OBSERVE("pattern.gr.local_vtime",
                     priced->makespan - comm.timeline().now());
#endif
  if (priced->lost_device >= 0) {
    PSF_METRIC_ADD("fault.recoveries", 1);
    PSF_METRIC_ADD("fault.chunks_requeued", priced->requeued_chunks);
    if (auto* trace = env_->options().trace) {
      trace->record("device loss recovery", "fault", comm.rank(), armed + 1,
                    priced->device_finish[static_cast<std::size_t>(armed)],
                    priced->makespan);
    }
    if (fault::FaultLog::current().enabled()) {
      fault::FaultLog::current().record(
          comm.rank(),
          "gr requeue " + devices[static_cast<std::size_t>(armed)]
                              ->descriptor()
                              .name() +
              " iter=" + std::to_string(iteration) +
              " chunks=" + std::to_string(priced->requeued_chunks));
    }
  }
  chunk_span_ids_.clear();
  if (auto* trace = env_->options().trace) {
    for (std::size_t d = 0; d < priced->device_finish.size(); ++d) {
      chunk_span_ids_.push_back(
          trace->record("gr chunks", "compute", comm.rank(),
                        static_cast<int>(d) + 1, comm.timeline().now(),
                        priced->device_finish[d]));
    }
  }
  comm.timeline().merge(priced->makespan);
  PSF_LOG(kDebug, "greduction")
      << "rank " << comm.rank() << ": " << my_units << " units in "
      << priced->chunks.size() << " chunks over " << specs.size()
      << " devices, local makespan " << priced->makespan;
  return support::Status::ok();
}

std::unique_ptr<ReductionObject> GReductionRuntime::execute_device_chunks(
    int spec_index, std::size_t device_begin_unit,
    const ScheduleResult& schedule) {
  auto devices = env_->active_devices();
  devsim::Device& device = *devices[static_cast<std::size_t>(spec_index)];

  // Collect this device's chunk ranges in global unit indices.
  std::vector<UnitRange> ranges;
  std::size_t total = 0;
  for (const auto& chunk : schedule.chunks) {
    if (chunk.device != spec_index) continue;
    ranges.push_back(
        {device_begin_unit + chunk.begin, device_begin_unit + chunk.end});
    total += chunk.end - chunk.begin;
  }
  if (total == 0) return nullptr;

  // Per-device reduction object (in device memory on GPUs); block staging
  // results merge into it in block order below.
  auto device_object = std::make_unique<ReductionObject>(
      ObjectLayout::kHash, object_capacity_, value_size_, reduce_);

  // Reduction localization: place block objects in the SM shared-memory
  // arena when they fit (paper III-E). Multiple sub-objects per block split
  // the update contention among thread subsets.
  const std::size_t one_object =
      ReductionObject::required_bytes(object_capacity_, value_size_);
  const int objects = sub_objects_for(device);
  const bool localize = localizes_on(device);
  const std::size_t arena_bytes =
      localize ? one_object * static_cast<std::size_t>(objects) : 0;

  const int num_blocks =
      device.is_gpu() ? device.descriptor().compute_units * 2
                      : device.descriptor().compute_units;
  const BlockPartition block_split(total, num_blocks);

  // Determinism: each block emits into a private staging object; staging
  // objects merge into the device object in BLOCK order after the launch.
  // The reduction tree then depends only on the block structure (a device
  // property), never on which worker ran which block or when it finished —
  // so floating-point results are bit-identical for every num_threads.
  std::vector<std::unique_ptr<ReductionObject>> staging(
      static_cast<std::size_t>(num_blocks));

  const auto body = [&](const devsim::BlockContext& ctx) {
    const std::size_t from = block_split.begin(ctx.block_id);
    const std::size_t to = block_split.end(ctx.block_id);
    if (from == to) return;
    const auto my_ranges = slice_ranges(ranges, from, to);
    auto& staged = staging[static_cast<std::size_t>(ctx.block_id)];
    staged = std::make_unique<ReductionObject>(ObjectLayout::kHash,
                                               object_capacity_, value_size_,
                                               reduce_);

    if (localize) {
      // Format the sub-objects over the (zeroed) arena, process, merge.
      std::vector<ReductionObject> locals;
      locals.reserve(static_cast<std::size_t>(objects));
      for (int o = 0; o < objects; ++o) {
        locals.emplace_back(
            ObjectLayout::kHash, object_capacity_, value_size_, reduce_,
            ctx.shared.subspan(static_cast<std::size_t>(o) * one_object,
                               one_object));
      }
      std::size_t position = 0;
      for (const auto& range : my_ranges) {
        for (std::size_t u = range.begin; u < range.end; ++u, ++position) {
          auto& target = locals[position % static_cast<std::size_t>(objects)];
          emit_(&target, input_ + u * unit_bytes_, u, parameter_);
        }
      }
      for (const auto& local : locals) staged->merge_from(local);
    } else {
      // Object too large for on-chip memory: in real CUDA these updates go
      // to the device-level object through global-memory atomics; here the
      // block's updates land in its staging object so the combine order
      // stays fixed. The contention penalty is priced via the device spec.
      for (const auto& range : my_ranges) {
        for (std::size_t u = range.begin; u < range.end; ++u) {
          emit_(staged.get(), input_ + u * unit_bytes_, u, parameter_);
        }
      }
    }
  };
  device.run_blocks(num_blocks, arena_bytes, body);

  if (device.lost()) {
    // The aborted launch ran ZERO blocks (clean-loss semantics, devsim);
    // replay the whole launch on the host. Replaying twice and comparing
    // blobs enforces the idempotence contract recovery rests on: every
    // block body resets its staging slot on entry, so re-execution must be
    // byte-identical.
    device.host_replay(num_blocks, arena_bytes, body);
    auto probe = std::make_unique<ReductionObject>(
        ObjectLayout::kHash, object_capacity_, value_size_, reduce_);
    for (const auto& staged : staging) {
      if (staged) probe->merge_from(*staged);
    }
    std::vector<std::byte> first_blob(probe->serialized_size());
    probe->serialize_into(first_blob);
    device.host_replay(num_blocks, arena_bytes, body);
    probe = std::make_unique<ReductionObject>(
        ObjectLayout::kHash, object_capacity_, value_size_, reduce_);
    for (const auto& staged : staging) {
      if (staged) probe->merge_from(*staged);
    }
    std::vector<std::byte> second_blob(probe->serialized_size());
    probe->serialize_into(second_blob);
    PSF_CHECK_MSG(first_blob == second_blob,
                  "GR chunk replay is not idempotent: re-running the lost "
                  "launch changed the reduction blob");
  }

  for (const auto& staged : staging) {
    if (staged) device_object->merge_from(*staged);
  }
  return device_object;
}

int GReductionRuntime::sub_objects_for(const devsim::Device& device) const {
  if (objects_per_block_ > 0) return objects_per_block_;
  const std::size_t one_object =
      ReductionObject::required_bytes(object_capacity_, value_size_);
  if (one_object == 0) return 1;
  return std::clamp<int>(
      static_cast<int>(device.usable_shared_memory() / one_object), 1, 8);
}

bool GReductionRuntime::localizes_on(const devsim::Device& device) const {
  if (!env_->options().reduction_localization) return false;
  const std::size_t one_object =
      ReductionObject::required_bytes(object_capacity_, value_size_);
  return one_object * static_cast<std::size_t>(sub_objects_for(device)) <=
         device.usable_shared_memory();
}

const ReductionObject& GReductionRuntime::get_local_reduction() const {
  PSF_CHECK_MSG(local_result_ != nullptr,
                "get_local_reduction() before start()");
  return *local_result_;
}

const ReductionObject& GReductionRuntime::get_global_reduction() {
  PSF_CHECK_MSG(local_result_ != nullptr,
                "get_global_reduction() before start()");
  if (have_global_) return *global_result_;

  auto& comm = env_->comm();

  // Rank-failure injection (rank:<R>@iter=N / @vtime=X): the combine is the
  // pattern's iteration boundary. When a kill is due, the target rank
  // "dies" and restarts from its iteration-boundary checkpoint — the
  // serialized local reduction object. The blob round-trip is asserted
  // exact, so the combine below sees pre-fault state and the global result
  // stays bit-identical; only the restarted rank's virtual clock pays the
  // restart + reload cost.
  if (const auto* plan = env_->fault_plan();
      plan != nullptr && plan->has_rank_faults()) {
    const int boundary = ++combine_epoch_;
    if (env_->restart_failed_ranks(boundary, boundary, rank_fault_fired_,
                                   "gr boundary",
                                   local_result_->serialized_size())
            .restarted) {
      std::vector<std::byte> blob(local_result_->serialized_size());
      local_result_->serialize_into(blob);
      auto restored = std::make_unique<ReductionObject>(
          ObjectLayout::kHash, object_capacity_, value_size_, reduce_);
      restored->merge_serialized(blob);
      std::vector<std::byte> check(restored->serialized_size());
      restored->serialize_into(check);
      PSF_CHECK_MSG(check == blob,
                    "GR checkpoint blob did not round-trip bit-identically");
      local_result_ = std::move(restored);
    }
  }

  const double t0 = comm.timeline().now();
  global_result_ = std::make_unique<ReductionObject>(
      ObjectLayout::kHash, object_capacity_, value_size_, reduce_);
  global_result_->merge_from(*local_result_);

  const std::uint64_t combine_span = combine_and_broadcast(
      comm, *global_result_, env_->options().trace, "gr global combine");

  stats_.combine_vtime = comm.timeline().now() - t0;
  PSF_METRIC_ADD("pattern.gr.global_combines", 1);
  PSF_METRIC_OBSERVE("pattern.gr.combine_vtime", stats_.combine_vtime);
  if (combine_span != 0) {
    // The combine consumes every device's local chunk results.
    for (const std::uint64_t chunk_span : chunk_span_ids_) {
      env_->options().trace->record_edge(chunk_span, combine_span, "chunk");
    }
  }
  have_global_ = true;
  return *global_result_;
}

std::uint64_t combine_and_broadcast(minimpi::Communicator& comm,
                                    ReductionObject& object,
                                    timemodel::TraceRecorder* trace,
                                    const char* span_name) {
  const double t0 = comm.timeline().now();

  // Parallel binary tree combine to rank 0 (paper Section III-B), then a
  // broadcast so the result is valid everywhere.
  constexpr int kTag = 0x6f0001;
  const int rank = comm.rank();
  const int size = comm.size();
  for (int step = 1; step < size; step <<= 1) {
    if ((rank & step) != 0) {
      // Pack the combine blob straight into a pooled payload (zero-copy
      // send; no per-combine heap allocation in the steady state).
      auto blob = comm.acquire_buffer(object.serialized_size());
      object.serialize_into(blob.bytes());
      comm.send_pooled(rank - step, kTag, std::move(blob));
      break;
    }
    if (rank + step < size) {
      auto message = comm.recv_any(rank + step, kTag);
      object.merge_serialized(message.payload.bytes());
    }
  }

  std::uint64_t blob_bytes = 0;
  if (rank == 0) blob_bytes = object.serialized_size();
  comm.bcast(std::as_writable_bytes(std::span<std::uint64_t>(&blob_bytes, 1)),
             0);
  auto blob = comm.acquire_buffer(blob_bytes);
  if (rank == 0) object.serialize_into(blob.bytes());
  comm.bcast(blob.bytes(), 0);
  if (rank != 0) {
    object.clear();
    object.merge_serialized(blob.bytes());
  }

  if (trace != nullptr) {
    return trace->record(span_name, "comm", comm.rank(), 0, t0,
                         comm.timeline().now());
  }
  return 0;
}

}  // namespace psf::pattern
