// PSF — tests for the hand-written baselines: MPI-style implementations
// must reproduce the sequential references (they are the paper's
// comparators), the CUDA-style single-GPU baselines likewise, and the
// marker-based LoC accounting must find user code in every counted file.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "baselines/cuda_kmeans.h"
#include "baselines/cuda_sobel.h"
#include "baselines/mpi_heat3d.h"
#include "baselines/mpi_kmeans.h"
#include "baselines/mpi_minimd.h"
#include "baselines/mpi_sobel.h"
#include "support/loc.h"
#include "timemodel/link.h"
#include "timemodel/rates.h"

namespace psf::baselines {
namespace {

class MpiBaselineRanks : public ::testing::TestWithParam<int> {};

TEST_P(MpiBaselineRanks, KmeansMatchesSequential) {
  apps::kmeans::Params params;
  params.num_points = 4000;
  params.num_clusters = 10;
  params.iterations = 3;
  const auto points = apps::kmeans::generate_points(params);
  const auto reference = apps::kmeans::run_sequential(params, points);

  minimpi::World world(GetParam());
  std::vector<mpi_kmeans::Result> results(
      static_cast<std::size_t>(GetParam()));
  world.run([&](minimpi::Communicator& comm) {
    results[static_cast<std::size_t>(comm.rank())] =
        mpi_kmeans::run(comm, params, points);
  });
  for (const auto& result : results) {
    for (std::size_t i = 0; i < reference.centers.size(); ++i) {
      EXPECT_NEAR(result.centers[i], reference.centers[i], 1e-6);
    }
  }
}

TEST_P(MpiBaselineRanks, SobelMatchesSequential) {
  apps::sobel::Params params;
  params.height = 40;
  params.width = 52;
  params.iterations = 4;
  const auto image = apps::sobel::generate_image(params);
  const auto reference = apps::sobel::run_sequential(params, image);

  minimpi::World world(GetParam());
  std::vector<mpi_sobel::Result> results(
      static_cast<std::size_t>(GetParam()));
  world.run([&](minimpi::Communicator& comm) {
    results[static_cast<std::size_t>(comm.rank())] =
        mpi_sobel::run(comm, params, image);
  });
  for (const auto& result : results) {
    ASSERT_EQ(result.image.size(), reference.image.size());
    for (std::size_t i = 0; i < result.image.size(); ++i) {
      ASSERT_NEAR(result.image[i], reference.image[i], 1e-4) << "pixel " << i;
    }
  }
}

TEST_P(MpiBaselineRanks, Heat3dMatchesSequential) {
  apps::heat3d::Params params;
  params.nx = 12;
  params.ny = 14;
  params.nz = 10;
  params.iterations = 4;
  const auto field = apps::heat3d::generate_field(params);
  const auto reference = apps::heat3d::run_sequential(params, field);

  minimpi::World world(GetParam());
  std::vector<mpi_heat3d::Result> results(
      static_cast<std::size_t>(GetParam()));
  world.run([&](minimpi::Communicator& comm) {
    results[static_cast<std::size_t>(comm.rank())] =
        mpi_heat3d::run(comm, params, field);
  });
  for (const auto& result : results) {
    ASSERT_EQ(result.field.size(), reference.field.size());
    for (std::size_t i = 0; i < result.field.size(); ++i) {
      ASSERT_NEAR(result.field[i], reference.field[i], 1e-10) << "cell " << i;
    }
  }
}

TEST_P(MpiBaselineRanks, MinimdMatchesSequential) {
  apps::minimd::Params params;
  params.num_atoms = 343;
  params.iterations = 6;
  params.rebuild_every = 3;
  auto reference_atoms = apps::minimd::generate_atoms(params);
  const auto reference = apps::minimd::run_sequential(params, reference_atoms);

  minimpi::World world(GetParam());
  auto atoms = apps::minimd::generate_atoms(params);
  std::vector<mpi_minimd::Result> results(
      static_cast<std::size_t>(GetParam()));
  world.run([&](minimpi::Communicator& comm) {
    results[static_cast<std::size_t>(comm.rank())] =
        mpi_minimd::run(comm, params, atoms);
  });
  for (const auto& result : results) {
    EXPECT_EQ(result.last_edge_count, reference.last_edge_count);
    EXPECT_NEAR(result.kinetic_energy, reference.kinetic_energy,
                1e-6 * std::abs(reference.kinetic_energy) + 1e-9);
    EXPECT_NEAR(result.position_checksum, reference.position_checksum,
                1e-6 * std::abs(reference.position_checksum));
  }
}

INSTANTIATE_TEST_SUITE_P(RankSweep, MpiBaselineRanks,
                         ::testing::Values(1, 2, 4, 6));

// Ghost blocks reach a rank in whatever order the rank threads run. The
// receive side prices each arrival as it consumes it, so the vtime of Fig.
// 5's MiniMD MPI column must not depend on that order.
TEST(MpiBaselineDeterminism, MinimdVtimeRepeatsExactly) {
  apps::minimd::Params params;
  params.num_atoms = 512;
  params.iterations = 6;
  params.rebuild_every = 3;
  for (const int ranks : {4, 6}) {
    std::vector<double> first;
    for (int repeat = 0; repeat < 8; ++repeat) {
      auto atoms = apps::minimd::generate_atoms(params);
      minimpi::World world(ranks, timemodel::LinkModel::infiniband(),
                           timemodel::testbed_preset().overheads);
      world.set_byte_scale(1000.0);
      std::vector<double> vtimes(static_cast<std::size_t>(ranks), 0.0);
      world.run([&](minimpi::Communicator& comm) {
        vtimes[static_cast<std::size_t>(comm.rank())] =
            mpi_minimd::run(comm, params, atoms, /*workload_scale=*/1000.0)
                .vtime;
      });
      if (repeat == 0) {
        first = vtimes;
        continue;
      }
      for (std::size_t r = 0; r < vtimes.size(); ++r) {
        ASSERT_EQ(vtimes[r], first[r])
            << ranks << " ranks, rank " << r << ", repeat " << repeat;
      }
    }
  }
}

TEST(CudaBaselines, KmeansMatchesSequential) {
  apps::kmeans::Params params;
  params.num_points = 3000;
  params.num_clusters = 8;
  params.iterations = 2;
  const auto points = apps::kmeans::generate_points(params);
  const auto reference = apps::kmeans::run_sequential(params, points);
  const auto result = cuda_kmeans::run(params, points);
  for (std::size_t i = 0; i < reference.centers.size(); ++i) {
    EXPECT_NEAR(result.centers[i], reference.centers[i], 1e-6);
  }
  EXPECT_GT(result.vtime, 0.0);
}

TEST(CudaBaselines, SobelMatchesSequential) {
  apps::sobel::Params params;
  params.height = 40;
  params.width = 40;
  params.iterations = 3;
  const auto image = apps::sobel::generate_image(params);
  const auto reference = apps::sobel::run_sequential(params, image);
  const auto result = cuda_sobel::run(params, image);
  ASSERT_EQ(result.image.size(), reference.image.size());
  for (std::size_t i = 0; i < result.image.size(); ++i) {
    ASSERT_NEAR(result.image[i], reference.image[i], 1e-4);
  }
}

TEST(CudaBaselines, SobelTextureAdvantageIsPriced) {
  apps::sobel::Params params;
  params.height = 64;
  params.width = 64;
  params.iterations = 4;
  const auto image = apps::sobel::generate_image(params);
  const auto fast = cuda_sobel::run(params, image, /*workload_scale=*/1000.0);
  // The advantage factor must speed up the kernel, not just be declared.
  const auto rates = timemodel::app_rates("sobel");
  const double plain_kernel =
      static_cast<double>(params.height * params.width) * params.iterations *
      1000.0 / rates.gpu_device_units_per_s(11.0 / 12.0);
  EXPECT_LT(fast.vtime, plain_kernel);
  EXPECT_GT(fast.vtime, plain_kernel / cuda_sobel::kTextureSpeedup * 0.9);
}

TEST(LocMarkers, UserCodeRegionsExistInAllCountedSources) {
  for (const char* path :
       {"src/apps/kmeans.cpp", "src/apps/moldyn.cpp", "src/apps/minimd.cpp",
        "src/apps/sobel.cpp", "src/apps/heat3d.cpp",
        "src/baselines/mpi_kmeans.cpp", "src/baselines/mpi_sobel.cpp",
        "src/baselines/mpi_heat3d.cpp", "src/baselines/mpi_minimd.cpp"}) {
    std::vector<std::string> missing;
    const auto report = support::count_loc_files_between_markers(
        {std::string(PSF_SOURCE_DIR) + "/" + path}, "[psf-user-code-begin]",
        "[psf-user-code-end]", &missing);
    EXPECT_TRUE(missing.empty()) << path;
    EXPECT_GT(report.code_lines, 10u) << path;
  }
}

TEST(LocMarkers, FrameworkUserCodeIsSmallerThanMpi) {
  // The headline Figure 6 property: for each compared app, the code the
  // user writes with the framework is less than the hand-written MPI code.
  const std::string root = PSF_SOURCE_DIR;
  const auto count = [&](const std::string& path) {
    return support::count_loc_files_between_markers(
               {root + "/" + path}, "[psf-user-code-begin]",
               "[psf-user-code-end]")
        .code_lines;
  };
  EXPECT_LT(count("src/apps/kmeans.cpp"),
            count("src/baselines/mpi_kmeans.cpp"));
  EXPECT_LT(count("src/apps/sobel.cpp"),
            count("src/baselines/mpi_sobel.cpp"));
  EXPECT_LT(count("src/apps/heat3d.cpp"),
            count("src/baselines/mpi_heat3d.cpp"));
  EXPECT_LT(count("src/apps/minimd.cpp"),
            count("src/baselines/mpi_minimd.cpp"));
}

}  // namespace
}  // namespace psf::baselines

namespace psf::baselines {
namespace {

TEST(CrossImplementation, FrameworkAndCudaSobelAgree) {
  // Three independent implementations (framework, CUDA-style baseline,
  // sequential reference) must produce the same image.
  apps::sobel::Params params;
  params.height = 36;
  params.width = 44;
  params.iterations = 3;
  const auto image = apps::sobel::generate_image(params);
  const auto reference = apps::sobel::run_sequential(params, image);
  const auto cuda = cuda_sobel::run(params, image);

  minimpi::World world(2);
  std::vector<apps::sobel::Result> framework(2);
  world.run([&](minimpi::Communicator& comm) {
    pattern::EnvOptions options;
    options.app_profile = "sobel";
    options.use_cpu = true;
    options.use_gpus = 1;
    framework[static_cast<std::size_t>(comm.rank())] =
        apps::sobel::run_framework(comm, options, params, image);
  });
  for (std::size_t i = 0; i < reference.image.size(); ++i) {
    ASSERT_NEAR(cuda.image[i], reference.image[i], 1e-4) << i;
    ASSERT_NEAR(framework[0].image[i], reference.image[i], 1e-4) << i;
  }
}

TEST(CrossImplementation, FrameworkAndCudaKmeansAgree) {
  apps::kmeans::Params params;
  params.num_points = 2500;
  params.num_clusters = 6;
  params.iterations = 2;
  const auto points = apps::kmeans::generate_points(params);
  const auto reference = apps::kmeans::run_sequential(params, points);
  const auto cuda = cuda_kmeans::run(params, points);
  for (std::size_t i = 0; i < reference.centers.size(); ++i) {
    ASSERT_NEAR(cuda.centers[i], reference.centers[i], 1e-6) << i;
  }
}

}  // namespace
}  // namespace psf::baselines
