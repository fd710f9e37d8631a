// PSF — Pattern Specification Framework
// Stencil runtime (paper Sections II-A, III-C/D/E).
//
// The global structured grid is decomposed over a virtual processor
// Cartesian topology; each rank holds its sub-grid plus halo regions. Per
// iteration the runtime packs (possibly non-contiguous) boundary planes,
// exchanges them asynchronously with neighbor ranks, computes inner tiles
// concurrently with the exchange, unpacks halos, exchanges device-device
// boundaries, and finally processes the grouped boundary tiles. The device
// split along the highest dimension adapts to profiled speeds; GPU devices
// run with the PreferL1 cache configuration.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "minimpi/cart.h"
#include "pattern/scheduler.h"
#include "support/buffer.h"
#include "support/compat.h"
#include "support/error.h"

namespace psf::pattern {

class RuntimeEnv;
class ReductionObject;

/// User-defined stencil function (Table I): computes ONE output element.
/// `offset` is the element's coordinate in the local padded grid (outermost
/// dimension first), `size` the padded extents; index `input`/`output` with
/// the get helpers in pattern/api.h.
using StencilFn = void (*)(const void* input, void* output, const int* offset,
                           const int* size, const void* parameter);

/// Optional row-vectorized companion to StencilFn (SIMD host kernels,
/// support/simd.h): computes `count` output elements starting at `offset`,
/// consecutive along the innermost user dimension and contiguous in
/// padded-grid memory. Must write bytes identical to `count` scalar
/// StencilFn calls — tests byte-compare the two paths
/// (docs/PERFORMANCE.md).
using StencilRowFn = void (*)(const void* input, void* output,
                              const int* offset, const int* size, int count,
                              const void* parameter);

/// Per-cell emit hook for the fused stencil_reduce composition
/// (pattern/compose.h): called right after a sweep pass computes the cell at
/// `offset`. `old_grid` is the sweep's input buffer and `new_grid` its
/// output; read only the cell at `offset` in either grid (neighbor cells of
/// `new_grid` may not have been written yet).
using CellEmitFn = void (*)(ReductionObject* obj, const void* old_grid,
                            const void* new_grid, const int* offset,
                            const int* size, const void* parameter);

/// Supplier of per-(device, block, pass) staging reduction objects for the
/// fused emit path. Owned by the composition layer; the runtime fetches one
/// object per block launch. The returned object must be RESET for this
/// launch — block bodies can be replayed after a device loss, and a fresh
/// staging object on entry is what makes the replay idempotent (the same
/// contract GReduction's per-block staging upholds).
class StencilEmitSink {
 public:
  virtual ~StencilEmitSink() = default;
  virtual ReductionObject* block_object(int device, int block,
                                        bool inner_pass) = 0;
};

/// Stencil pattern runtime. Obtain from RuntimeEnv::get_ST().
class StencilRuntime {
 public:
  explicit StencilRuntime(RuntimeEnv& env);
  ~StencilRuntime();

  StencilRuntime(const StencilRuntime&) = delete;
  StencilRuntime& operator=(const StencilRuntime&) = delete;

  // --- configuration --------------------------------------------------------

  PSF_DEPRECATED(
      "raw stencil registration is deprecated; use "
      "psf::pattern::TypedStencil (pattern/typed.h) or the composition "
      "facades in pattern/compose.h")
  void set_stencil_func(StencilFn fn) { stencil_ = fn; }

  /// Register a row-vectorized variant of the stencil function. Once
  /// registered it computes every run of stencil cells, fused emitting
  /// passes included; the scalar function is then never called.
  void set_row_func(StencilRowFn fn) { row_fn_ = fn; }

  /// Global grid: `ndims` extents (outermost first), elements of
  /// `elem_bytes`. The runtime scatters sub-grids from this array; elements
  /// within `halo` of the global border are fixed (copied through).
  void set_grid(const void* global_grid, std::size_t elem_bytes,
                const std::vector<std::size_t>& dims);

  /// Stencil radius (halo width); default 1.
  void set_halo(int halo) { halo_ = halo; }

  /// Virtual processor topology (one extent per grid dimension, product ==
  /// number of ranks). Empty = choose automatically.
  void set_topology(const std::vector<int>& dims) { topology_ = dims; }

  /// Periodic boundaries per dimension (default: none). Periodic dimensions
  /// wrap their halo exchange around the global domain and have no fixed
  /// border cells.
  void set_periodic(const std::vector<bool>& periodic) {
    periodic_ = periodic;
    ready_ = false;
  }

  void set_parameter(const void* parameter) { parameter_ = parameter; }

  // --- execution --------------------------------------------------------------

  /// One stencil sweep over the local sub-grid (halo exchange + compute +
  /// buffer swap). Collective call.
  support::Status start();

  /// Run `iterations` sweeps.
  support::Status run(int iterations);

  /// Distributed write-back: each rank copies its interior into the global
  /// output array (same extents as the input grid).
  void write_back(void* global_out) const;

  // --- fused reduction hooks (pattern/compose.h) ----------------------------

  /// Install the fused stencil_reduce emit: while installed, every compute
  /// pass also calls `emit` for each interior cell right after writing it,
  /// into the sink's per-(device, block, pass) staging objects. Costs no
  /// extra virtual time — the emit rides the tile loop's memory traffic
  /// (Aldinucci et al.'s stencil+reduce fusion).
  void set_fused_emit(CellEmitFn emit, const void* parameter,
                      StencilEmitSink* sink) {
    fused_emit_ = emit;
    fused_emit_parameter_ = parameter;
    fused_sink_ = sink;
  }
  void clear_fused_emit() {
    fused_emit_ = nullptr;
    fused_emit_parameter_ = nullptr;
    fused_sink_ = nullptr;
  }

  /// Reference (unfused) reduction pass: after a sweep, visit every interior
  /// cell again — with the SAME device/block/inner-boundary structure the
  /// sweep used — and emit into the sink. Priced as a full extra grid pass
  /// plus its join barrier, on the sweep's row split; exactly the cost the
  /// fused emit eliminates. Does not feed the adaptive partitioner, so the
  /// split trajectory is identical in fused and unfused modes.
  support::Status reduce_pass(CellEmitFn emit, const void* parameter,
                              StencilEmitSink* sink);

  /// Trace span ids of the latest sweep's per-device boundary-tile spans /
  /// the latest reduce_pass's per-device spans (0 entries when tracing is
  /// off) — the composition layer records combine dependency edges off them.
  [[nodiscard]] const std::vector<std::uint64_t>& last_compute_span_ids()
      const noexcept {
    return boundary_span_ids_;
  }
  [[nodiscard]] const std::vector<std::uint64_t>& last_reduce_span_ids()
      const noexcept {
    return reduce_span_ids_;
  }
  [[nodiscard]] double last_reduce_pass_vtime() const noexcept {
    return last_reduce_pass_vtime_;
  }

  // --- checkpoint / restore (rank-failure recovery) -------------------------

  /// Serialize this rank's iteration-boundary state: a validated header
  /// (geometry + device split + profiling state) followed by the full
  /// padded input grid. Restoring the blob and replaying the next sweep
  /// reproduces the fault-free bytes exactly (docs/RESILIENCE.md).
  [[nodiscard]] std::vector<std::byte> checkpoint() const;

  /// Restore state captured by checkpoint(). Fails with kInvalidArgument
  /// when the blob's geometry does not match the current decomposition.
  support::Status restore(std::span<const std::byte> blob);

  // --- introspection ----------------------------------------------------------

  [[nodiscard]] const std::vector<std::size_t>& local_extents() const {
    return local_ext_;
  }
  [[nodiscard]] const std::vector<std::size_t>& global_offset() const {
    return global_off_;
  }

  struct Stats {
    std::size_t inner_cells = 0;
    std::size_t boundary_cells = 0;
    std::size_t halo_bytes_sent = 0;     ///< per iteration, this rank
    double last_exchange_vtime = 0.0;
    double last_iteration_vtime = 0.0;
    std::vector<double> device_seconds;  ///< per-device busy time (last iter)
    std::vector<double> device_split;    ///< adaptive share per device
    int iterations = 0;
  };
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }

 private:
  static constexpr int kMaxDims = 3;

  support::Status validate() const;
  void setup();  ///< decomposition, allocation, scatter

  [[nodiscard]] std::size_t padded_index(const std::array<int, kMaxDims>& c)
      const noexcept {
    return (static_cast<std::size_t>(c[0]) * padded_[1] +
            static_cast<std::size_t>(c[1])) *
               padded_[2] +
           static_cast<std::size_t>(c[2]);
  }

  /// Copy a padded-grid box to/from a contiguous buffer.
  void pack_box(const std::array<int, kMaxDims>& lo,
                const std::array<int, kMaxDims>& hi, std::byte* out) const;
  void unpack_box(const std::array<int, kMaxDims>& lo,
                  const std::array<int, kMaxDims>& hi, const std::byte* in);

  /// Halo exchange for one dimension (both directions); returns bytes sent.
  std::size_t exchange_dim(int dim);

  /// Apply the stencil to all cells in rows [row_begin, row_end) of dim 0
  /// of one class; `want_inner` selects which class to compute this pass.
  void compute_rows(int device_index, std::size_t row_begin,
                    std::size_t row_end, bool want_inner);

  /// Shared cell walk behind compute_rows and reduce_pass: one device's
  /// rows, one cell class, optionally applying the stencil and/or emitting
  /// into `sink`. `old_grid`/`new_grid` are the sweep's input/output.
  void walk_rows(int device_index, std::size_t row_begin, std::size_t row_end,
                 bool want_inner, bool apply_stencil, CellEmitFn emit,
                 const void* emit_parameter, StencilEmitSink* sink,
                 const std::byte* old_grid, std::byte* new_grid);

  /// Enumerate interior rows [row_begin, row_end) of dim 0 as runs along the
  /// innermost user dimension (in 1-D, dim 0 itself), in ascending cell
  /// order, each classified once: `fn(start, count, fixed, band)`, where
  /// `fixed` cells lie on the fixed global border and `band` cells need
  /// halo data.
  template <typename Fn>
  void for_each_run(std::size_t row_begin, std::size_t row_end,
                    Fn&& fn) const;

  /// After a device loss: re-split the interior rows over the survivors
  /// (lost devices get zero rows from the next sweep on). The row split is
  /// functionally neutral — every cell is a pure function of `in_` — so
  /// results stay bit-identical.
  void drop_lost_devices();

  RuntimeEnv* env_;
  StencilFn stencil_ = nullptr;
  StencilRowFn row_fn_ = nullptr;
  const std::byte* global_grid_ = nullptr;
  std::size_t elem_bytes_ = 0;
  std::vector<std::size_t> global_dims_;
  std::vector<int> topology_;
  std::vector<bool> periodic_;
  int halo_ = 1;
  const void* parameter_ = nullptr;

  bool ready_ = false;
  int ndims_ = 0;
  std::unique_ptr<minimpi::CartComm> cart_;
  std::vector<std::size_t> local_ext_;   ///< interior extents (user dims)
  std::vector<std::size_t> global_off_;  ///< interior origin in global grid
  // Internal always-3D representation (unused dims have extent 1, halo 0).
  std::array<std::size_t, kMaxDims> ext3_ = {1, 1, 1};
  std::array<std::size_t, kMaxDims> padded_ = {1, 1, 1};
  std::array<int, kMaxDims> halo3_ = {0, 0, 0};
  std::array<std::size_t, kMaxDims> goff3_ = {0, 0, 0};
  std::array<int, kMaxDims> neighbor_lo_ = {-2, -2, -2};
  std::array<int, kMaxDims> neighbor_hi_ = {-2, -2, -2};
  std::array<bool, kMaxDims> wrap_ = {false, false, false};
  support::AlignedBuffer in_;
  support::AlignedBuffer out_;

  AdaptivePartitioner partitioner_{1};
  std::vector<std::size_t> device_row_bounds_;  ///< interior row split
  std::vector<double> iteration_device_seconds_;
  Stats stats_;

  // Fused stencil_reduce state (pattern/compose.h). The sweep's row split is
  // snapshotted so reduce_pass walks the SAME structure even after the
  // end-of-sweep adaptive repartition or a device drop changed the bounds.
  CellEmitFn fused_emit_ = nullptr;
  const void* fused_emit_parameter_ = nullptr;
  StencilEmitSink* fused_sink_ = nullptr;
  std::vector<std::size_t> last_sweep_row_bounds_;
  std::vector<std::uint64_t> boundary_span_ids_;
  std::vector<std::uint64_t> reduce_span_ids_;
  double last_reduce_pass_vtime_ = 0.0;
  /// Per-clause fired flags for `rank:...` fault triggers (run() loop).
  std::vector<bool> rank_fault_fired_;
};

}  // namespace psf::pattern
