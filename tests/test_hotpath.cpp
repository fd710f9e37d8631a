// PSF — hot-path performance features (docs/PERFORMANCE.md):
//
//   * halo-exchange overlap — inner tiles computed under the exchange beat
//     the serial exchange in virtual time and leave the fields identical.
//   * SIMD row kernels — StencilRuntime hands every classified cell run to
//     a registered row function, fused emitting passes included; grids and
//     staged reduction bytes must match the scalar per-cell path exactly at
//     every executor width.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <tuple>
#include <vector>

#include "apps/heat3d.h"
#include "minimpi/communicator.h"
#include "pattern/api.h"
#include "support/rng.h"
#include "support/simd.h"

namespace psf {
namespace {

pattern::EnvOptions hybrid_options(const std::string& profile) {
  pattern::EnvOptions options;
  options.app_profile = profile;
  options.use_cpu = true;
  options.use_gpus = 2;
  options.workload_scale = 100.0;
  return options;
}

apps::heat3d::Result run_heat3d(const pattern::EnvOptions& options,
                                int ranks = 2, int threads = 0) {
  apps::heat3d::Params params;
  params.nx = params.ny = params.nz = 16;
  params.iterations = 4;
  const auto field = apps::heat3d::generate_field(params);
  minimpi::World world(ranks);
  apps::heat3d::Result result;
  world.run([&](minimpi::Communicator& comm) {
    auto opts = options;
    opts.num_threads = threads;
    auto local = apps::heat3d::run_framework(comm, opts, params, field);
    if (comm.rank() == 0) result = std::move(local);
  });
  return result;
}

// --- halo-exchange overlap --------------------------------------------------

TEST(HotpathOverlap, Heat3dOverlapBeatsNoOverlapAtTwoRanks) {
  auto on = hybrid_options("heat3d");
  on.overlap = true;
  auto off_options = hybrid_options("heat3d");
  off_options.overlap = false;

  const auto fast = run_heat3d(on);
  const auto slow = run_heat3d(off_options);
  EXPECT_LT(fast.vtime, slow.vtime);
  ASSERT_EQ(fast.field.size(), slow.field.size());
  for (std::size_t i = 0; i < slow.field.size(); ++i) {
    ASSERT_EQ(fast.field[i], slow.field[i]) << "cell " << i;
  }
}

// --- SIMD row-kernel dispatch -----------------------------------------------

std::atomic<long> g_row_cells{0};

/// Scalar 5-point average (the reference the row variant must match).
void avg5_fp(const void* input, void* output, const int* offset,
             const int* size, const void* /*parameter*/) {
  const int y = offset[0];
  const int x = offset[1];
  GET_DOUBLE2(output, size, y, x) =
      0.2 * (GET_DOUBLE2(input, size, y, x) +
             GET_DOUBLE2(input, size, y - 1, x) +
             GET_DOUBLE2(input, size, y + 1, x) +
             GET_DOUBLE2(input, size, y, x - 1) +
             GET_DOUBLE2(input, size, y, x + 1));
}

void avg5_row_fp(const void* input, void* output, const int* offset,
                 const int* size, int count, const void* /*parameter*/) {
  g_row_cells.fetch_add(count, std::memory_order_relaxed);
  const int y = offset[0];
  const int x0 = offset[1];
  const auto* in = static_cast<const double*>(input);
  auto* out = static_cast<double*>(output);
  const auto stride = static_cast<std::size_t>(size[1]);
  const double* rm = in + static_cast<std::size_t>(y - 1) * stride;
  const double* r0 = in + static_cast<std::size_t>(y) * stride;
  const double* rp = in + static_cast<std::size_t>(y + 1) * stride;
  double* dst = out + static_cast<std::size_t>(y) * stride;
  PSF_SIMD_LOOP
  for (int i = 0; i < count; ++i) {
    const int x = x0 + i;
    dst[x] = 0.2 * (r0[x] + rm[x] + rp[x] + r0[x - 1] + r0[x + 1]);
  }
}

/// Scalar 7-point 3-D average.
void avg7_fp(const void* input, void* output, const int* offset,
             const int* size, const void* /*parameter*/) {
  const int z = offset[0];
  const int y = offset[1];
  const int x = offset[2];
  GET_DOUBLE3(output, size, z, y, x) =
      (GET_DOUBLE3(input, size, z, y, x) +
       GET_DOUBLE3(input, size, z - 1, y, x) +
       GET_DOUBLE3(input, size, z + 1, y, x) +
       GET_DOUBLE3(input, size, z, y - 1, x) +
       GET_DOUBLE3(input, size, z, y + 1, x) +
       GET_DOUBLE3(input, size, z, y, x - 1) +
       GET_DOUBLE3(input, size, z, y, x + 1)) /
      7.0;
}

void avg7_row_fp(const void* input, void* output, const int* offset,
                 const int* size, int count, const void* /*parameter*/) {
  g_row_cells.fetch_add(count, std::memory_order_relaxed);
  const int z = offset[0];
  const int y = offset[1];
  const int x0 = offset[2];
  const auto* in = static_cast<const double*>(input);
  auto* out = static_cast<double*>(output);
  const auto sy = static_cast<std::size_t>(size[2]);
  const std::size_t sz = static_cast<std::size_t>(size[1]) * sy;
  const std::size_t base = static_cast<std::size_t>(z) * sz +
                           static_cast<std::size_t>(y) * sy +
                           static_cast<std::size_t>(x0);
  const double* c0 = in + base;
  double* dst = out + base;
  PSF_SIMD_LOOP
  for (int i = 0; i < count; ++i) {
    dst[i] = (c0[i] + c0[i - static_cast<long>(sz)] +
              c0[i + static_cast<long>(sz)] + c0[i - static_cast<long>(sy)] +
              c0[i + static_cast<long>(sy)] + c0[i - 1] + c0[i + 1]) /
             7.0;
  }
}

std::vector<double> random_grid(std::size_t cells, std::uint64_t seed) {
  support::Xoshiro256 rng(seed);
  std::vector<double> grid(cells);
  for (auto& value : grid) value = rng.next_in(0.0, 10.0);
  return grid;
}

void sum_reduce(void* dst, const void* src) {
  *static_cast<double*>(dst) += *static_cast<const double*>(src);
}

/// Fused emit: sums each cell's new value into a bin keyed by its old
/// value. Reads only its own cell, as CellEmitFn requires.
void bin_emit(pattern::ReductionObject* obj, const void* old_grid,
              const void* new_grid, const int* offset, const int* size,
              const void* /*parameter*/) {
  auto index = static_cast<std::size_t>(offset[0]);
  for (int d = 1; d < 3 && size[d] > 0; ++d) {
    index = index * static_cast<std::size_t>(size[d]) +
            static_cast<std::size_t>(offset[d]);
  }
  const double before = static_cast<const double*>(old_grid)[index];
  const double after = static_cast<const double*>(new_grid)[index];
  obj->insert(static_cast<std::uint64_t>(before), &after);
}

/// Keeps every staging object the runtime fetches, per (device, block,
/// pass) in fetch order, so a run's staged bytes can be compared whole.
class KeepAllSink : public pattern::StencilEmitSink {
 public:
  pattern::ReductionObject* block_object(int device, int block,
                                         bool inner_pass) override {
    std::lock_guard<std::mutex> lock(mutex_);
    auto& objects = slots_[{device, block, inner_pass}];
    objects.push_back(std::make_unique<pattern::ReductionObject>(
        pattern::ObjectLayout::kHash, 64, sizeof(double), sum_reduce));
    return objects.back().get();
  }

  void append_bytes(std::vector<std::byte>& out) const {
    for (const auto& [slot, objects] : slots_) {
      for (const auto& object : objects) {
        const auto bytes = object->serialize();
        out.insert(out.end(), bytes.begin(), bytes.end());
      }
    }
  }

 private:
  std::mutex mutex_;
  std::map<std::tuple<int, int, bool>,
           std::vector<std::unique_ptr<pattern::ReductionObject>>>
      slots_;
};

struct StencilRun {
  std::vector<double> grid;
  std::vector<std::byte> staged;  ///< fused-emit bytes, rank by rank
};

StencilRun run_stencil(int ranks, const std::vector<std::size_t>& dims,
                       const std::vector<double>& initial,
                       pattern::StencilFn fn, pattern::StencilRowFn row_fn,
                       int threads, bool fused) {
  StencilRun run;
  run.grid.assign(initial.size(), 0.0);
  std::vector<KeepAllSink> sinks(static_cast<std::size_t>(ranks));
  minimpi::World world(ranks);
  world.run([&](minimpi::Communicator& comm) {
    pattern::EnvOptions options;
    options.app_profile = "heat3d";
    options.use_cpu = true;
    options.use_gpus = 0;
    options.num_threads = threads;
    pattern::RuntimeEnv env(comm, options);
    auto* st = env.get_ST();
    st->set_stencil_func(fn);
    if (row_fn != nullptr) st->set_row_func(row_fn);
    if (fused) {
      st->set_fused_emit(bin_emit, nullptr,
                         &sinks[static_cast<std::size_t>(comm.rank())]);
    }
    st->set_grid(initial.data(), sizeof(double), dims);
    st->set_halo(1);
    EXPECT_TRUE(st->run(3).is_ok());
    st->write_back(run.grid.data());
  });
  for (const auto& sink : sinks) sink.append_bytes(run.staged);
  EXPECT_EQ(run.staged.empty(), !fused);
  return run;
}

/// Row kernel vs scalar kernel, plain and with the fused emit installed, at
/// executor widths 1 and 7: grids and staged bytes must match exactly.
void expect_row_dispatch_identical(const std::vector<std::size_t>& dims,
                                   const std::vector<double>& initial,
                                   pattern::StencilFn fn,
                                   pattern::StencilRowFn row_fn) {
  for (const bool fused : {false, true}) {
    const auto scalar =
        run_stencil(2, dims, initial, fn, nullptr, /*threads=*/1, fused);
    for (const int threads : {1, 7}) {
      g_row_cells.store(0);
      const auto rows =
          run_stencil(2, dims, initial, fn, row_fn, threads, fused);
      EXPECT_GT(g_row_cells.load(), 0) << "row path not dispatched";
      ASSERT_EQ(rows.grid.size(), scalar.grid.size());
      for (std::size_t i = 0; i < scalar.grid.size(); ++i) {
        ASSERT_EQ(rows.grid[i], scalar.grid[i])
            << "cell " << i << " width " << threads << " fused " << fused;
      }
      EXPECT_EQ(rows.staged, scalar.staged)
          << "width " << threads << " fused " << fused;
    }
  }
}

TEST(HotpathSimd, RowDispatch2dBitIdenticalToScalarAtEveryWidth) {
  expect_row_dispatch_identical({48, 37}, random_grid(48 * 37, 11), avg5_fp,
                                avg5_row_fp);
}

TEST(HotpathSimd, RowDispatch3dBitIdenticalToScalarAtEveryWidth) {
  expect_row_dispatch_identical({14, 15, 16}, random_grid(14 * 15 * 16, 23),
                                avg7_fp, avg7_row_fp);
}

// --- overlap and row kernels together, across executor widths ------------

TEST(HotpathWidth, AllLegsOnBitIdenticalAcrossExecutorWidths) {
  auto options = hybrid_options("heat3d");
  options.overlap = true;
  const auto w1 = run_heat3d(options, 2, 1);
  const auto w7 = run_heat3d(options, 2, 7);
  EXPECT_DOUBLE_EQ(w1.vtime, w7.vtime);
  EXPECT_DOUBLE_EQ(w1.checksum, w7.checksum);
  ASSERT_EQ(w1.field.size(), w7.field.size());
  for (std::size_t i = 0; i < w1.field.size(); ++i) {
    ASSERT_EQ(w1.field[i], w7.field[i]) << "cell " << i;
  }
}

}  // namespace
}  // namespace psf
