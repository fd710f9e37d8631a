#include "pattern/stencil.h"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <exception>
#include <mutex>
#include <numeric>
#include <optional>
#include <string>

#include "exec/latch.h"
#include "exec/parallel_for.h"
#include "fault/fault.h"
#include "pattern/partition.h"
#include "pattern/runtime_env.h"
#include "support/log.h"
#include "support/metrics.h"
#include "telemetry/prof.h"
#include "timemodel/timeline.h"

namespace psf::pattern {

namespace {
constexpr int kHaloTagBase = 0x5c0010;  ///< + 2*dim + direction
constexpr double kHostCopyBw = 2.0e10;  ///< multithreaded pack bandwidth

// Checkpoint blob framing (docs/RESILIENCE.md): "PSFSTCKP" + version.
constexpr std::uint64_t kCheckpointMagic = 0x50534653'54434B50ULL;
constexpr std::uint32_t kCheckpointVersion = 1;

template <typename T>
void append_pod(std::vector<std::byte>& out, const T& value) {
  const auto* bytes = reinterpret_cast<const std::byte*>(&value);
  out.insert(out.end(), bytes, bytes + sizeof(T));
}

template <typename T>
bool read_pod(std::span<const std::byte>& in, T& value) {
  if (in.size() < sizeof(T)) return false;
  std::memcpy(&value, in.data(), sizeof(T));
  in = in.subspan(sizeof(T));
  return true;
}

/// Device lanes launched onto the executor while the calling thread does
/// other work. join() helps the pool until every lane finished, then
/// rethrows the first lane exception. The destructor helps until they
/// finished too, so an exception from the caller's own work never unwinds
/// past lanes that still read the runtime's grids.
class LaunchedLanes {
 public:
  template <typename Body>
  LaunchedLanes(exec::ThreadPool& pool, std::size_t count, const Body& body)
      : pool_(&pool), done_(count) {
    for (std::size_t lane = 0; lane < count; ++lane) {
      pool.submit([this, &body, lane] {
        try {
          body(lane);
        } catch (...) {
          std::lock_guard<std::mutex> guard(error_mutex_);
          if (!error_) error_ = std::current_exception();
        }
        done_.count_down();
      });
    }
  }
  LaunchedLanes(const LaunchedLanes&) = delete;
  LaunchedLanes& operator=(const LaunchedLanes&) = delete;
  ~LaunchedLanes() { wait(); }

  void join() {
    wait();
    if (error_) std::rethrow_exception(error_);
  }

 private:
  void wait() { pool_->help_while([this] { return done_.try_wait(); }); }

  exec::ThreadPool* pool_;
  exec::Latch done_;
  std::mutex error_mutex_;
  std::exception_ptr error_;
};
}  // namespace

StencilRuntime::StencilRuntime(RuntimeEnv& env) : env_(&env) {}
StencilRuntime::~StencilRuntime() = default;

void StencilRuntime::set_grid(const void* global_grid, std::size_t elem_bytes,
                              const std::vector<std::size_t>& dims) {
  global_grid_ = static_cast<const std::byte*>(global_grid);
  elem_bytes_ = elem_bytes;
  global_dims_ = dims;
  ready_ = false;
}

support::Status StencilRuntime::validate() const {
  if (stencil_ == nullptr) {
    return support::Status::failed_precondition(
        "stencil: stencil function not set");
  }
  if (global_grid_ == nullptr || elem_bytes_ == 0) {
    return support::Status::failed_precondition("stencil: grid not set");
  }
  if (global_dims_.empty() || global_dims_.size() > kMaxDims) {
    return support::Status::invalid_argument(
        "stencil: grid must have 1-3 dimensions");
  }
  if (halo_ < 1) {
    return support::Status::invalid_argument(
        "stencil: halo width must be >= 1");
  }
  return support::Status::ok();
}

template <typename Fn>
void StencilRuntime::for_each_run(std::size_t row_begin, std::size_t row_end,
                                  Fn&& fn) const {
  if (row_begin >= row_end) return;
  // Padded-coordinate box of interior rows [row_begin, row_end).
  std::array<int, kMaxDims> lo{};
  std::array<int, kMaxDims> hi{};
  for (std::size_t d = 0; d < kMaxDims; ++d) {
    lo[d] = halo3_[d];
    hi[d] = halo3_[d] + static_cast<int>(ext3_[d]);
  }
  lo[0] += static_cast<int>(row_begin);
  hi[0] = halo3_[0] + static_cast<int>(row_end);
  // Per-dimension classes: `fixed` within halo_ of a non-periodic global
  // border (copied through), `band` within halo_ of a face that has a
  // neighbor rank (reads halo data).
  const auto fixed_at = [&](int d, long long c) {
    const std::size_t dd = static_cast<std::size_t>(d);
    const long long g = static_cast<long long>(goff3_[dd]) + c - halo3_[dd];
    return !wrap_[dd] &&
           (g < halo_ ||
            g >= static_cast<long long>(global_dims_[dd]) - halo_);
  };
  const auto band_at = [&](int d, long long c) {
    const std::size_t dd = static_cast<std::size_t>(d);
    return (neighbor_lo_[dd] != minimpi::kNoNeighbor && c < 2 * halo3_[dd]) ||
           (neighbor_hi_[dd] != minimpi::kNoNeighbor &&
            c >= static_cast<long long>(ext3_[dd]));
  };
  // Runs go along the innermost user dimension k, where a cell's class can
  // change only at the two fixed-border and the two halo-band edges.
  const int k = ndims_ - 1;
  const std::size_t kk = static_cast<std::size_t>(k);
  const long long g0 = static_cast<long long>(goff3_[kk]) - halo3_[kk];
  std::array<long long, 6> cuts = {
      lo[kk], hi[kk], halo_ - g0,
      static_cast<long long>(global_dims_[kk]) - halo_ - g0, 2 * halo3_[kk],
      static_cast<long long>(ext3_[kk])};
  for (long long& cut : cuts) cut = std::clamp<long long>(cut, lo[kk], hi[kk]);
  std::sort(cuts.begin(), cuts.end());
  std::array<int, kMaxDims> end = hi;
  end[kk] = lo[kk] + 1;
  std::array<int, kMaxDims> c{};
  for (c[0] = lo[0]; c[0] < end[0]; ++c[0]) {
    for (c[1] = lo[1]; c[1] < end[1]; ++c[1]) {
      for (c[2] = lo[2]; c[2] < end[2]; ++c[2]) {
        bool fixed = false;
        bool band = false;
        for (int d = 0; d < k; ++d) {
          fixed = fixed || fixed_at(d, c[static_cast<std::size_t>(d)]);
          band = band || band_at(d, c[static_cast<std::size_t>(d)]);
        }
        std::array<int, kMaxDims> start = c;
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
          if (cuts[i] == cuts[i + 1]) continue;
          start[kk] = static_cast<int>(cuts[i]);
          fn(start, static_cast<int>(cuts[i + 1] - cuts[i]),
             fixed || fixed_at(k, cuts[i]), band || band_at(k, cuts[i]));
        }
      }
    }
  }
}

void StencilRuntime::setup() {
  auto& comm = env_->comm();
  ndims_ = static_cast<int>(global_dims_.size());

  std::vector<int> topo = topology_;
  if (topo.empty()) {
    topo = minimpi::CartComm::choose_dims(comm.size(), ndims_);
  }
  PSF_CHECK_MSG(static_cast<int>(topo.size()) == ndims_,
                "topology rank must equal grid dimensionality");
  std::vector<bool> periodic(static_cast<std::size_t>(ndims_), false);
  if (!periodic_.empty()) {
    PSF_CHECK_MSG(periodic_.size() == static_cast<std::size_t>(ndims_),
                  "periodic flags must match grid dimensionality");
    periodic = periodic_;
  }
  for (int d = 0; d < ndims_; ++d) {
    wrap_[static_cast<std::size_t>(d)] = periodic[static_cast<std::size_t>(d)];
  }
  cart_ = std::make_unique<minimpi::CartComm>(comm, topo, periodic);

  local_ext_.assign(static_cast<std::size_t>(ndims_), 0);
  global_off_.assign(static_cast<std::size_t>(ndims_), 0);
  ext3_ = {1, 1, 1};
  padded_ = {1, 1, 1};
  halo3_ = {0, 0, 0};
  goff3_ = {0, 0, 0};
  neighbor_lo_ = {minimpi::kNoNeighbor, minimpi::kNoNeighbor,
                  minimpi::kNoNeighbor};
  neighbor_hi_ = {minimpi::kNoNeighbor, minimpi::kNoNeighbor,
                  minimpi::kNoNeighbor};

  for (int d = 0; d < ndims_; ++d) {
    const BlockPartition split(global_dims_[static_cast<std::size_t>(d)],
                               topo[static_cast<std::size_t>(d)]);
    const int coord = cart_->coords()[static_cast<std::size_t>(d)];
    local_ext_[static_cast<std::size_t>(d)] = split.size(coord);
    global_off_[static_cast<std::size_t>(d)] = split.begin(coord);
    PSF_CHECK_MSG(split.size(coord) >= static_cast<std::size_t>(halo_),
                  "sub-grid extent smaller than the halo width; use fewer "
                  "processes or a smaller halo");
    ext3_[static_cast<std::size_t>(d)] = split.size(coord);
    goff3_[static_cast<std::size_t>(d)] = split.begin(coord);
    halo3_[static_cast<std::size_t>(d)] = halo_;
    padded_[static_cast<std::size_t>(d)] =
        split.size(coord) + 2 * static_cast<std::size_t>(halo_);
    neighbor_lo_[static_cast<std::size_t>(d)] = cart_->neighbor(d, -1);
    neighbor_hi_[static_cast<std::size_t>(d)] = cart_->neighbor(d, +1);
  }

  const std::size_t cells = padded_[0] * padded_[1] * padded_[2];
  in_.resize(cells * elem_bytes_);
  out_.resize(cells * elem_bytes_);

  // Scatter: copy every padded cell whose global image exists. This also
  // seeds halos (refreshed by exchanges) and the fixed global border.
  for (std::size_t c0 = 0; c0 < padded_[0]; ++c0) {
    for (std::size_t c1 = 0; c1 < padded_[1]; ++c1) {
      // Walk dim 2 as a contiguous run where possible.
      long long g0 = static_cast<long long>(goff3_[0] + c0) - halo3_[0];
      long long g1 = static_cast<long long>(goff3_[1] + c1) - halo3_[1];
      const long long dim0 =
          ndims_ >= 1 ? static_cast<long long>(global_dims_[0]) : 1;
      const long long dim1 =
          ndims_ >= 2 ? static_cast<long long>(global_dims_[1]) : 1;
      const long long dim2 =
          ndims_ >= 3 ? static_cast<long long>(global_dims_[2]) : 1;
      if (wrap_[0]) g0 = ((g0 % dim0) + dim0) % dim0;
      if (wrap_[1]) g1 = ((g1 % dim1) + dim1) % dim1;
      if (g0 < 0 || g0 >= dim0 || g1 < 0 || g1 >= dim1) continue;
      // Walk dim 2 cell by cell when it wraps, as a run otherwise.
      if (wrap_[2]) {
        for (std::size_t c2 = 0; c2 < padded_[2]; ++c2) {
          long long g2 =
              static_cast<long long>(goff3_[2] + c2) - halo3_[2];
          g2 = ((g2 % dim2) + dim2) % dim2;
          const std::size_t src =
              ((static_cast<std::size_t>(g0) * static_cast<std::size_t>(dim1) +
                static_cast<std::size_t>(g1)) *
                   static_cast<std::size_t>(dim2) +
               static_cast<std::size_t>(g2)) *
              elem_bytes_;
          const std::size_t dst =
              ((c0 * padded_[1] + c1) * padded_[2] + c2) * elem_bytes_;
          std::memcpy(in_.data() + dst, global_grid_ + src, elem_bytes_);
        }
        continue;
      }
      const long long g2_first = static_cast<long long>(goff3_[2]) - halo3_[2];
      const long long lo = std::max<long long>(0, -g2_first);
      const long long hi = std::min<long long>(
          static_cast<long long>(padded_[2]), dim2 - g2_first);
      if (lo >= hi) continue;
      const std::size_t src =
          ((static_cast<std::size_t>(g0) * static_cast<std::size_t>(dim1) +
            static_cast<std::size_t>(g1)) *
               static_cast<std::size_t>(dim2) +
           static_cast<std::size_t>(g2_first + lo)) *
          elem_bytes_;
      const std::size_t dst =
          ((c0 * padded_[1] + c1) * padded_[2] + static_cast<std::size_t>(lo)) *
          elem_bytes_;
      std::memcpy(in_.data() + dst, global_grid_ + src,
                  static_cast<std::size_t>(hi - lo) * elem_bytes_);
    }
  }
  std::memcpy(out_.data(), in_.data(), in_.size());

  const int num_devices = static_cast<int>(env_->active_devices().size());
  partitioner_ = AdaptivePartitioner(num_devices);
  const WeightedPartition rows(ext3_[0], partitioner_.speeds());
  device_row_bounds_.assign(static_cast<std::size_t>(num_devices) + 1, 0);
  for (int d = 0; d < num_devices; ++d) {
    device_row_bounds_[static_cast<std::size_t>(d)] = rows.begin(d);
  }
  device_row_bounds_.back() = ext3_[0];
  stats_ = {};
  stats_.device_split.assign(static_cast<std::size_t>(num_devices),
                             1.0 / num_devices);

  // GPUs prefer L1 for stencils (paper III-E).
  for (auto* device : env_->active_devices()) {
    if (device->is_gpu()) {
      device->set_cache_preference(devsim::CachePreference::kPreferL1);
    }
  }

  // Count cell classes once (geometry is fixed between repartitions). The
  // pricing split places a fixed cell by its halo band alone.
  stats_.inner_cells = 0;
  stats_.boundary_cells = 0;
  for_each_run(0, ext3_[0],
               [&](std::array<int, kMaxDims>, int count, bool, bool band) {
                 (band ? stats_.boundary_cells : stats_.inner_cells) +=
                     static_cast<std::size_t>(count);
               });

  PSF_LOG(kDebug, "stencil")
      << "rank " << comm.rank() << ": sub-grid " << ext3_[0] << "x"
      << ext3_[1] << "x" << ext3_[2] << " at (" << goff3_[0] << ","
      << goff3_[1] << "," << goff3_[2] << "), " << stats_.inner_cells
      << " inner / " << stats_.boundary_cells << " boundary cells";
  ready_ = true;
}

void StencilRuntime::pack_box(const std::array<int, kMaxDims>& lo,
                              const std::array<int, kMaxDims>& hi,
                              std::byte* dst) const {
  std::size_t offset = 0;
  for (int c0 = lo[0]; c0 < hi[0]; ++c0) {
    for (int c1 = lo[1]; c1 < hi[1]; ++c1) {
      const std::size_t run = static_cast<std::size_t>(hi[2] - lo[2]);
      const std::array<int, kMaxDims> c = {c0, c1, lo[2]};
      std::memcpy(dst + offset, in_.data() + padded_index(c) * elem_bytes_,
                  run * elem_bytes_);
      offset += run * elem_bytes_;
    }
  }
}

void StencilRuntime::unpack_box(const std::array<int, kMaxDims>& lo,
                                const std::array<int, kMaxDims>& hi,
                                const std::byte* src) {
  std::size_t offset = 0;
  for (int c0 = lo[0]; c0 < hi[0]; ++c0) {
    for (int c1 = lo[1]; c1 < hi[1]; ++c1) {
      const std::size_t run = static_cast<std::size_t>(hi[2] - lo[2]);
      const std::array<int, kMaxDims> c = {c0, c1, lo[2]};
      std::memcpy(in_.data() + padded_index(c) * elem_bytes_, src + offset,
                  run * elem_bytes_);
      offset += run * elem_bytes_;
    }
  }
}

std::size_t StencilRuntime::exchange_dim(int dim) {
  auto& comm = env_->comm();
  const std::size_t dd = static_cast<std::size_t>(dim);
  const int h = halo3_[dd];
  if (h == 0) return 0;
  const int lo_rank = neighbor_lo_[dd];
  const int hi_rank = neighbor_hi_[dd];
  if (lo_rank == minimpi::kNoNeighbor && hi_rank == minimpi::kNoNeighbor) {
    return 0;
  }
  // Halo planes are surface quantities: price with the comm scale.
  const double scale = env_->options().effective_comm_scale();
  const bool any_gpu = env_->options().use_gpus > 0;
  const auto& overheads = env_->options().preset.overheads;

  // Face boxes span the FULL padded extent of the other dimensions so that
  // corner halo values propagate through the dimension-by-dimension sweep.
  auto face = [&](bool low, bool halo_region, std::array<int, kMaxDims>& lo,
                  std::array<int, kMaxDims>& hi) {
    for (int d = 0; d < kMaxDims; ++d) {
      lo[static_cast<std::size_t>(d)] = 0;
      hi[static_cast<std::size_t>(d)] =
          static_cast<int>(padded_[static_cast<std::size_t>(d)]);
    }
    const int extent = static_cast<int>(ext3_[dd]);
    if (halo_region) {
      lo[dd] = low ? 0 : extent + h;
      hi[dd] = low ? h : extent + 2 * h;
    } else {
      lo[dd] = low ? h : extent;
      hi[dd] = low ? 2 * h : extent + h;
    }
  };

  auto box_bytes = [&](const std::array<int, kMaxDims>& lo,
                       const std::array<int, kMaxDims>& hi) {
    return static_cast<std::size_t>(hi[0] - lo[0]) *
           static_cast<std::size_t>(hi[1] - lo[1]) *
           static_cast<std::size_t>(hi[2] - lo[2]) * elem_bytes_;
  };

  const int tag_lo = kHaloTagBase + 2 * dim;      // data travelling downward
  const int tag_hi = kHaloTagBase + 2 * dim + 1;  // data travelling upward
  std::size_t sent = 0;

  std::array<int, kMaxDims> lo{};
  std::array<int, kMaxDims> hi{};

  // Step 1-2: pack the (possibly non-contiguous) boundary strips directly
  // into pooled payloads — the staging buffer IS the message, so after the
  // first iteration warms the pool no halo send allocates or double-copies.
  // GPUs pack through a zero-copy kernel into a host-mapped buffer.
  const auto send_face = [&](bool low, int rank, int tag) {
    if (rank == minimpi::kNoNeighbor) return;
    face(low, /*halo_region=*/false, lo, hi);
    auto staged = comm.acquire_buffer(box_bytes(lo, hi));
    pack_box(lo, hi, staged.data());
    comm.timeline().advance(
        (any_gpu ? overheads.kernel_launch_s : 0.0) +
        static_cast<double>(staged.size()) * scale / kHostCopyBw);
    sent += staged.size();
    comm.isend_pooled(rank, tag, std::move(staged));
  };
  send_face(/*low=*/true, lo_rank, tag_lo);
  send_face(/*low=*/false, hi_rank, tag_hi);

  // Steps 4-5: receive and unpack into the halo regions (for GPUs via the
  // host-mapped buffer, a PCIe upload and an unpack kernel).
  const auto& pcie = env_->options().preset.pcie;
  const auto recv_face = [&](bool low, int rank, int tag) {
    if (rank == minimpi::kNoNeighbor) return;
    auto message = comm.recv_any(rank, tag);
    face(low, /*halo_region=*/true, lo, hi);
    PSF_CHECK_MSG(message.payload.size() == box_bytes(lo, hi),
                  "halo size mismatch on dim " << dim);
    unpack_box(lo, hi, message.payload.data());
    const double payload_bytes = static_cast<double>(message.payload.size());
    comm.timeline().advance(payload_bytes * scale / kHostCopyBw);
    if (!any_gpu) return;
    comm.timeline().advance(
        overheads.kernel_launch_s +
        pcie.cost(static_cast<std::size_t>(payload_bytes * scale)));
  };
  recv_face(/*low=*/true, lo_rank, tag_hi);
  recv_face(/*low=*/false, hi_rank, tag_lo);
  return sent;
}

void StencilRuntime::compute_rows(int device_index, std::size_t row_begin,
                                  std::size_t row_end, bool want_inner) {
  walk_rows(device_index, row_begin, row_end, want_inner,
            /*apply_stencil=*/true, fused_emit_, fused_emit_parameter_,
            fused_sink_, in_.data(), out_.data());
}

void StencilRuntime::walk_rows(int device_index, std::size_t row_begin,
                               std::size_t row_end, bool want_inner,
                               bool apply_stencil, CellEmitFn emit,
                               const void* emit_parameter,
                               StencilEmitSink* sink,
                               const std::byte* old_grid,
                               std::byte* new_grid) {
  if (row_begin >= row_end) return;
  auto devices = env_->active_devices();
  devsim::Device& device = *devices[static_cast<std::size_t>(device_index)];

  const int blocks = device.descriptor().compute_units;
  const BlockPartition split(row_end - row_begin, blocks);
  const std::byte* in = old_grid;
  std::byte* out = new_grid;

  const auto body = [&](const devsim::BlockContext& ctx) {
    // A fresh staging object per block launch keeps host replay after a
    // device loss idempotent (the sink resets the slot on fetch).
    ReductionObject* staged =
        (emit != nullptr && sink != nullptr)
            ? sink->block_object(device_index, ctx.block_id, want_inner)
            : nullptr;
    int size_user[kMaxDims] = {0, 0, 0};
    for (int d = 0; d < ndims_; ++d) {
      size_user[d] = static_cast<int>(padded_[static_cast<std::size_t>(d)]);
    }
    const std::size_t k = static_cast<std::size_t>(ndims_ - 1);
    for_each_run(
        row_begin + split.begin(ctx.block_id),
        row_begin + split.end(ctx.block_id),
        [&](std::array<int, kMaxDims> cell, int count, bool fixed, bool band) {
          // Fixed global border and halo-band cells form the boundary pass.
          if ((fixed || band) == want_inner) return;
          if (apply_stencil) {
            if (fixed) {
              const std::size_t at = padded_index(cell) * elem_bytes_;
              std::memcpy(out + at, in + at,
                          static_cast<std::size_t>(count) * elem_bytes_);
            } else if (row_fn_ != nullptr) {
              row_fn_(in, out, cell.data(), size_user, count, parameter_);
            } else {
              std::array<int, kMaxDims> c = cell;
              for (int i = 0; i < count; ++i, ++c[k]) {
                stencil_(in, out, c.data(), size_user, parameter_);
              }
            }
          }
          // An emit reads only its own cell, so it may follow the whole run.
          if (staged == nullptr) return;
          for (int i = 0; i < count; ++i, ++cell[k]) {
            emit(staged, old_grid, new_grid, cell.data(), size_user,
                 emit_parameter);
          }
        });
  };
  device.run_blocks(blocks, 0, body);
  if (device.lost()) {
    // The aborted launch ran zero blocks (clean-loss semantics, devsim);
    // replay it on the host. Stencil cells are pure functions of `in_`, so
    // re-execution writes the exact bytes the device would have.
    device.host_replay(blocks, 0, body);
  }
}

support::Status StencilRuntime::reduce_pass(CellEmitFn emit,
                                            const void* emit_parameter,
                                            StencilEmitSink* sink) {
  if (emit == nullptr || sink == nullptr) {
    return support::Status::invalid_argument(
        "stencil: reduce_pass() needs a cell emit function and a staging "
        "sink; see pattern/compose.h (StencilReduce runs this for you)");
  }
  if (!ready_ || stats_.iterations == 0 || last_sweep_row_bounds_.empty()) {
    return support::Status::failed_precondition(
        "stencil: reduce_pass() must follow a completed sweep — call "
        "start() first");
  }

  auto& comm = env_->comm();
  const auto devices = env_->active_devices();
  const auto specs = env_->device_specs(/*gpu_resident_data=*/true);
  const double scale = env_->options().workload_scale;
  const auto& overheads = env_->options().preset.overheads;
  const double fork = comm.timeline().now();

  // After start()'s buffer swap the sweep's OUTPUT lives in in_ and its
  // input in out_, so the emit sees (old = out_, new = in_). The walk
  // repeats the sweep's exact device/block/inner-then-boundary structure
  // over the sweep's row split, so the per-key combine order matches the
  // fused path bit for bit. A device lost during the sweep executes
  // nothing here and walk_rows host-replays its blocks, same as the sweep.
  for (int pass = 0; pass < 2; ++pass) {
    const bool want_inner = pass == 0;
    exec::parallel_for(env_->executor(), devices.size(), [&](std::size_t d) {
      PSF_PROF_SCOPE("st.emit");
      walk_rows(static_cast<int>(d), last_sweep_row_bounds_[d],
                last_sweep_row_bounds_[d + 1], want_inner,
                /*apply_stencil=*/false, emit, emit_parameter, sink,
                out_.data(), in_.data());
    });
  }

  // Price a full extra grid pass: per device one launch plus every interior
  // cell of its rows, on a forked lane set joined at the end — the pass (and
  // barrier) the fused emit eliminates. Deliberately NOT fed into
  // iteration_device_seconds_, so the adaptive repartition sees identical
  // profiles in fused and unfused modes. Lost devices are priced at the
  // first survivor's (host) rate, mirroring price_pass.
  double host_rate = 0.0;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    if (!devices[d]->lost()) {
      host_rate = specs[d].units_per_s;
      break;
    }
  }
  const double interior_plane =
      static_cast<double>(ext3_[1]) * static_cast<double>(ext3_[2]);
  timemodel::LaneSet lanes(devices.size(), fork);
  reduce_span_ids_.assign(devices.size(), 0);
  for (std::size_t d = 0; d < devices.size(); ++d) {
    const double rows = static_cast<double>(last_sweep_row_bounds_[d + 1] -
                                            last_sweep_row_bounds_[d]);
    if (rows == 0.0) continue;
    const double cells = rows * interior_plane;
    double rate = specs[d].units_per_s;
    if (devices[d]->lost()) {
      PSF_CHECK_MSG(host_rate > 0.0, "stencil: every device is lost");
      rate = host_rate;
    }
    const double launches = devices[d]->is_accelerator()
                                ? overheads.kernel_launch_s
                                : overheads.thread_fork_s;
    lanes.advance(d, launches + cells * scale / rate);
  }
  if (auto* trace = env_->options().trace) {
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (last_sweep_row_bounds_[d + 1] == last_sweep_row_bounds_[d]) continue;
      reduce_span_ids_[d] =
          trace->record("reduce pass", "compute", comm.rank(),
                        static_cast<int>(d) + 1, fork, lanes.time(d));
    }
  }
  lanes.join(comm.timeline());
  last_reduce_pass_vtime_ = comm.timeline().now() - fork;
  PSF_METRIC_ADD("pattern.st.reduce_passes", 1);
  PSF_METRIC_OBSERVE("pattern.st.reduce_pass_vtime", last_reduce_pass_vtime_);
  return support::Status::ok();
}

support::Status StencilRuntime::start() {
  PSF_RETURN_IF_ERROR(validate());
  if (!ready_) setup();

  auto& comm = env_->comm();
  const auto devices = env_->active_devices();
  const auto specs = env_->device_specs(/*gpu_resident_data=*/true);
  const double scale = env_->options().workload_scale;
  const auto& overheads = env_->options().preset.overheads;
  const bool tiling = env_->options().tiling;
  const double t0 = comm.timeline().now();

  iteration_device_seconds_.assign(devices.size(), 0.0);
  // Snapshot the row split this sweep computes with: a following
  // reduce_pass (unfused stencil_reduce) must walk the same structure even
  // after the end-of-sweep repartition or a device drop moves the bounds.
  last_sweep_row_bounds_ = device_row_bounds_;
  boundary_span_ids_.assign(devices.size(), 0);

  // Device-loss injection: arm any loss due this sweep. The armed device
  // dies on its first launch (executing nothing); compute_rows replays its
  // rows on the host and price_pass below charges them at the host rate.
  const int armed =
      env_->arm_device_loss(stats_.iterations + 1, [&](std::size_t d) {
        return device_row_bounds_[d + 1] > device_row_bounds_[d];
      });

  // Per-device cell tallies for pricing (geometry-derived; the functional
  // pass computes exactly these cells).
  const double interior_plane =
      static_cast<double>(ext3_[1]) * static_cast<double>(ext3_[2]);
  const double total_cells = static_cast<double>(stats_.inner_cells) +
                             static_cast<double>(stats_.boundary_cells);
  const double boundary_fraction =
      total_cells > 0.0
          ? static_cast<double>(stats_.boundary_cells) / total_cells
          : 0.0;

  auto price_pass = [&](timemodel::LaneSet& lanes, bool inner_pass) {
    // A lost device's rows were replayed by the host, so they are priced at
    // the first survivor's rate. Fault-free runs never take this branch.
    double host_rate = 0.0;
    for (std::size_t d = 0; d < devices.size(); ++d) {
      if (!devices[d]->lost()) {
        host_rate = specs[d].units_per_s;
        break;
      }
    }
    for (std::size_t d = 0; d < devices.size(); ++d) {
      const double rows = static_cast<double>(device_row_bounds_[d + 1] -
                                              device_row_bounds_[d]);
      if (rows == 0.0) continue;
      double cells = rows * interior_plane;
      cells *= inner_pass ? (1.0 - boundary_fraction) : boundary_fraction;
      double rate = specs[d].units_per_s;
      if (devices[d]->lost()) {
        PSF_CHECK_MSG(host_rate > 0.0, "stencil: every device is lost");
        rate = host_rate;
      }
      double launches = devices[d]->is_accelerator()
                            ? overheads.kernel_launch_s
                            : overheads.thread_fork_s;
      if (!tiling) {
        // Without tiling both device kinds lose neighbor-reuse locality
        // (CPU cache lines, GPU L1 under PreferL1), and each boundary
        // plane needs its own kernel launch (paper III-E).
        rate /= 1.2;
        if (!inner_pass && devices[d]->is_gpu()) {
          launches *= static_cast<double>(2 * ndims_);
        }
      }
      lanes.advance(d, launches + cells * scale / rate);
      iteration_device_seconds_[d] += launches + cells * scale / rate;
    }
  };

  // Steps 1-5: pack, exchange and unpack the halos; compute the inner tiles.
  // Inner cells never read the halo regions the exchange unpacks into (that
  // is what makes them "inner"). With overlap their lanes fork where the
  // exchange begins, and a concurrent executor runs them while this thread
  // drives the exchange; without overlap they fork after it. Virtual time
  // is identical for every executor width.
  const bool overlap = env_->options().overlap;
  auto& pool = env_->executor();
  const auto inner_tile = [&](std::size_t d) {
    PSF_PROF_SCOPE("st.inner");
    compute_rows(static_cast<int>(d), device_row_bounds_[d],
                 device_row_bounds_[d + 1], /*want_inner=*/true);
  };
  const double exchange_begin = comm.timeline().now();
  std::size_t halo_bytes = 0;
  {
    std::optional<LaunchedLanes> launched;
    if (overlap && pool.concurrent()) {
      launched.emplace(pool, devices.size(), inner_tile);
    }
    for (int d = 0; d < ndims_; ++d) halo_bytes += exchange_dim(d);
    if (launched) {
      launched->join();
    } else {
      exec::parallel_for(pool, devices.size(), inner_tile);
    }
  }
  const double exchange_end = comm.timeline().now();
  stats_.last_exchange_vtime = exchange_end - exchange_begin;

  const double inner_fork = overlap ? exchange_begin : exchange_end;
  timemodel::LaneSet inner_lanes(devices.size(), inner_fork);
  price_pass(inner_lanes, /*inner_pass=*/true);
  // Overlap efficiency: the fraction of the halo exchange hidden under
  // inner-tile compute. Both spans start at the fork, so the overlapped
  // portion is the shorter of the two.
  if (overlap && exchange_end > exchange_begin) {
    PSF_METRIC_GAUGE_SET("pattern.st.overlap_efficiency",
                         (std::min(exchange_end, inner_lanes.max_time()) -
                          exchange_begin) /
                             (exchange_end - exchange_begin));
  }
  // Span ids carried forward so the boundary pass can record its causal
  // dependencies (exchange -> boundary, inner_d -> boundary_d).
  std::uint64_t exchange_span = 0;
  std::uint64_t sync_span = 0;
  std::vector<std::uint64_t> inner_spans(devices.size(), 0);
  if (auto* trace = env_->options().trace) {
    exchange_span = trace->record("halo exchange", "comm", comm.rank(), 0,
                                  exchange_begin, exchange_end);
    for (std::size_t d = 0; d < devices.size(); ++d) {
      inner_spans[d] =
          trace->record("inner tiles", "compute", comm.rank(),
                        static_cast<int>(d) + 1, inner_fork,
                        inner_lanes.time(d));
    }
  }
  inner_lanes.join(comm.timeline());

  // Step 6: inter-device boundary exchange (CPU<->GPU over PCIe, GPU<->GPU
  // via peer copies). Functionally the devices share the local sub-grid;
  // the transfers are priced here.
  if (devices.size() > 1) {
    const std::size_t plane_bytes = static_cast<std::size_t>(
        static_cast<double>(ext3_[1] * ext3_[2] *
                            static_cast<std::size_t>(halo_) * elem_bytes_) *
        env_->options().effective_comm_scale());
    double cost = 0.0;
    for (std::size_t d = 0; d + 1 < devices.size(); ++d) {
      const bool gpu_pair =
          devices[d]->is_gpu() && devices[d + 1]->is_gpu();
      const auto& link = gpu_pair ? env_->options().preset.peer
                                  : env_->options().preset.pcie;
      cost = std::max(cost, link.cost(plane_bytes));
    }
    const double sync_begin = comm.timeline().now();
    comm.timeline().advance(cost);
    if (auto* trace = env_->options().trace) {
      sync_span = trace->record("boundary sync", "copy", comm.rank(), 0,
                                sync_begin, comm.timeline().now());
    }
  }

  // Step 7: boundary tiles (grouped into one launch when tiling is on).
  {
    const double fork = comm.timeline().now();
    timemodel::LaneSet lanes(devices.size(), fork);
    exec::parallel_for(pool, devices.size(), [&](std::size_t d) {
      PSF_PROF_SCOPE("st.boundary");
      compute_rows(static_cast<int>(d), device_row_bounds_[d],
                   device_row_bounds_[d + 1], /*want_inner=*/false);
    });
    price_pass(lanes, /*inner_pass=*/false);
    if (auto* trace = env_->options().trace) {
      for (std::size_t d = 0; d < devices.size(); ++d) {
        const std::uint64_t span =
            trace->record("boundary tiles", "compute", comm.rank(),
                          static_cast<int>(d) + 1, fork, lanes.time(d));
        boundary_span_ids_[d] = span;
        // Boundary cells read the halo the exchange delivered and the rows
        // the inner pass of this device produced.
        trace->record_edge(exchange_span, span, "exchange");
        trace->record_edge(sync_span, span, "exchange");
        trace->record_edge(inner_spans[d], span, "join");
      }
    }
    lanes.join(comm.timeline());
  }

  std::swap(in_, out_);
  ++stats_.iterations;
  stats_.halo_bytes_sent = halo_bytes;
  stats_.device_seconds = iteration_device_seconds_;
  stats_.last_iteration_vtime = comm.timeline().now() - t0;

#ifndef PSF_DISABLE_METRICS
  PSF_METRIC_ADD("pattern.st.iterations", 1);
  PSF_METRIC_ADD("pattern.st.halo_bytes", halo_bytes);
  PSF_METRIC_OBSERVE("pattern.st.exchange_vtime", stats_.last_exchange_vtime);
  PSF_METRIC_OBSERVE("pattern.st.iteration_vtime",
                     stats_.last_iteration_vtime);
  {
    auto& registry = metrics::Registry::current();
    for (std::size_t d = 0; d < devices.size(); ++d) {
      const std::string name = devices[d]->descriptor().name();
      registry.counter("pattern.st.rows." + name)
          .add(device_row_bounds_[d + 1] - device_row_bounds_[d]);
    }
  }
#endif

  // Adaptive repartition along the highest dimension after iteration 1.
  if (stats_.iterations == 1 && devices.size() > 1) {
    PSF_METRIC_ADD("pattern.st.repartitions", 1);
    std::vector<std::size_t> rows(devices.size());
    for (std::size_t d = 0; d < devices.size(); ++d) {
      rows[d] = device_row_bounds_[d + 1] - device_row_bounds_[d];
    }
    partitioner_.observe(rows, iteration_device_seconds_);
    const WeightedPartition split(ext3_[0], partitioner_.speeds());
    for (std::size_t d = 0; d < devices.size(); ++d) {
      device_row_bounds_[d] = split.begin(static_cast<int>(d));
    }
    device_row_bounds_.back() = ext3_[0];
    const double sum = std::accumulate(partitioner_.speeds().begin(),
                                       partitioner_.speeds().end(), 0.0);
    for (std::size_t d = 0; d < devices.size(); ++d) {
      stats_.device_split[d] = partitioner_.speeds()[d] / sum;
#ifndef PSF_DISABLE_METRICS
      metrics::Registry::current()
          .gauge("pattern.st.split." + devices[d]->descriptor().name())
          .set(stats_.device_split[d]);
#endif
    }
  }

  // Device-loss recovery accounting: the runtime notices the loss after the
  // sweep's launches, charges the detection latency, and re-splits the rows
  // over the survivors for the following sweeps.
  if (env_->detect_device_loss(armed, "st", stats_.iterations)) {
    drop_lost_devices();
  }
  return support::Status::ok();
}

void StencilRuntime::drop_lost_devices() {
  const auto devices = env_->active_devices();
  std::vector<double> speeds = partitioner_.speeds();
  double total = 0.0;
  for (std::size_t d = 0; d < devices.size(); ++d) {
    if (devices[d]->lost()) speeds[d] = 0.0;
    total += speeds[d];
  }
  PSF_CHECK_MSG(total > 0.0, "stencil: every device is lost");
  const WeightedPartition split(ext3_[0], speeds);
  for (std::size_t d = 0; d < devices.size(); ++d) {
    device_row_bounds_[d] = split.begin(static_cast<int>(d));
  }
  device_row_bounds_.back() = ext3_[0];
}

std::vector<std::byte> StencilRuntime::checkpoint() const {
  PSF_CHECK_MSG(ready_, "checkpoint() before the grid is set up");
  const std::size_t ndevices = device_row_bounds_.size() - 1;
  std::vector<std::byte> blob;
  blob.reserve(96 + (device_row_bounds_.size() + ndevices) * 8 + in_.size());
  append_pod(blob, kCheckpointMagic);
  append_pod(blob, kCheckpointVersion);
  append_pod(blob, static_cast<std::int32_t>(stats_.iterations));
  for (const std::size_t e : ext3_) {
    append_pod(blob, static_cast<std::uint64_t>(e));
  }
  for (const std::size_t p : padded_) {
    append_pod(blob, static_cast<std::uint64_t>(p));
  }
  append_pod(blob, static_cast<std::uint64_t>(elem_bytes_));
  append_pod(blob, static_cast<std::uint32_t>(ndevices));
  for (const std::size_t bound : device_row_bounds_) {
    append_pod(blob, static_cast<std::uint64_t>(bound));
  }
  for (const double speed : partitioner_.speeds()) append_pod(blob, speed);
  append_pod(blob, static_cast<std::uint8_t>(partitioner_.profiled() ? 1 : 0));
  // The full padded input grid. Restoring `in_` alone is sufficient: every
  // interior cell of `out_` is rewritten each sweep, halos are refreshed by
  // the exchange before any read, and out-of-domain pad cells are fixed at
  // their scattered values and never read by non-fixed cells.
  blob.insert(blob.end(), in_.data(), in_.data() + in_.size());
  return blob;
}

support::Status StencilRuntime::restore(std::span<const std::byte> blob) {
  PSF_CHECK_MSG(ready_, "restore() before the grid is set up");
  const auto fail = [](const std::string& what) {
    return support::Status::invalid_argument("stencil checkpoint: " + what);
  };
  std::span<const std::byte> cursor = blob;
  std::uint64_t magic = 0;
  std::uint32_t version = 0;
  std::int32_t iterations = 0;
  if (!read_pod(cursor, magic) || magic != kCheckpointMagic) {
    return fail("bad magic (not a stencil checkpoint)");
  }
  if (!read_pod(cursor, version) || version != kCheckpointVersion) {
    return fail("unsupported version");
  }
  if (!read_pod(cursor, iterations) || iterations < 0) {
    return fail("truncated header");
  }
  for (const std::size_t e : ext3_) {
    std::uint64_t got = 0;
    if (!read_pod(cursor, got) || got != e) return fail("extent mismatch");
  }
  for (const std::size_t p : padded_) {
    std::uint64_t got = 0;
    if (!read_pod(cursor, got) || got != p) {
      return fail("padded extent mismatch");
    }
  }
  std::uint64_t elem = 0;
  if (!read_pod(cursor, elem) || elem != elem_bytes_) {
    return fail("element size mismatch");
  }
  const std::size_t ndevices = device_row_bounds_.size() - 1;
  std::uint32_t got_devices = 0;
  if (!read_pod(cursor, got_devices) || got_devices != ndevices) {
    return fail("device count mismatch");
  }
  std::vector<std::size_t> bounds(ndevices + 1, 0);
  for (std::size_t d = 0; d <= ndevices; ++d) {
    std::uint64_t bound = 0;
    if (!read_pod(cursor, bound)) return fail("truncated row bounds");
    bounds[d] = static_cast<std::size_t>(bound);
  }
  std::vector<double> speeds(ndevices, 1.0);
  for (std::size_t d = 0; d < ndevices; ++d) {
    if (!read_pod(cursor, speeds[d])) return fail("truncated speeds");
  }
  std::uint8_t profiled = 0;
  if (!read_pod(cursor, profiled)) return fail("truncated profiled flag");
  if (cursor.size() != in_.size()) return fail("grid payload size mismatch");
  std::memcpy(in_.data(), cursor.data(), cursor.size());
  device_row_bounds_ = std::move(bounds);
  partitioner_.restore(std::move(speeds), profiled != 0);
  stats_.iterations = iterations;
  return support::Status::ok();
}

support::Status StencilRuntime::run(int iterations) {
  const fault::FaultPlan* plan = env_->fault_plan();
  if (plan == nullptr || !plan->has_rank_faults()) {
    for (int i = 0; i < iterations; ++i) {
      PSF_RETURN_IF_ERROR(start());
    }
    return support::Status::ok();
  }

  // Rank-failure injection (rank:<R>@iter=N / @vtime=X): checkpoint at every
  // sweep boundary; when a kill fires, ALL ranks roll back to the last
  // checkpoint (coordinated restart) and replay the lost sweep, so the final
  // grid is bit-identical to a fault-free run. The killed rank additionally
  // pays the restart + checkpoint-reload cost in virtual time.
  PSF_RETURN_IF_ERROR(validate());
  if (!ready_) setup();
  std::vector<std::byte> snapshot = checkpoint();
  for (int i = 0; i < iterations; ++i) {
    PSF_RETURN_IF_ERROR(start());
    // The snapshot was taken one sweep ago: the rollback resumes there.
    if (env_->restart_failed_ranks(stats_.iterations, stats_.iterations - 1,
                                   rank_fault_fired_, "st iter",
                                   snapshot.size())
            .fired) {
      PSF_RETURN_IF_ERROR(restore(snapshot));
      --i;  // replay the sweep the rollback discarded
      continue;
    }
    snapshot = checkpoint();
  }
  return support::Status::ok();
}

void StencilRuntime::write_back(void* global_out) const {
  PSF_CHECK_MSG(ready_, "write_back() before any start()");
  std::byte* out = static_cast<std::byte*>(global_out);
  const std::size_t dim1 =
      ndims_ >= 2 ? global_dims_[1] : 1;
  const std::size_t dim2 = ndims_ >= 3 ? global_dims_[2] : 1;
  for (std::size_t c0 = 0; c0 < ext3_[0]; ++c0) {
    for (std::size_t c1 = 0; c1 < ext3_[1]; ++c1) {
      const std::array<int, kMaxDims> local = {
          static_cast<int>(c0) + halo3_[0], static_cast<int>(c1) + halo3_[1],
          halo3_[2]};
      const std::size_t src = padded_index(local) * elem_bytes_;
      const std::size_t dst =
          (((goff3_[0] + c0) * dim1 + (goff3_[1] + c1)) * dim2 + goff3_[2]) *
          elem_bytes_;
      std::memcpy(out + dst, in_.data() + src, ext3_[2] * elem_bytes_);
    }
  }
}

}  // namespace psf::pattern
