// PSF — fault injection and recovery tests (docs/RESILIENCE.md).
//
// Three recovery layers are pinned here:
//   * device loss    — an armed accelerator dies on launch, the runtime
//                      replays its work on the host; results bit-identical.
//   * message faults — seeded drop/corrupt/dup/delay injection in minimpi
//                      with CRC + retransmission + dedup; results
//                      bit-identical, virtual time pays for the retries.
//   * rank failure   — a rank killed at an iteration boundary restarts from
//                      the checkpoint, all ranks roll back one iteration and
//                      replay; results bit-identical.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <string>
#include <vector>

#include "apps/heat3d.h"
#include "apps/kmeans.h"
#include "apps/moldyn.h"
#include "apps/sobel.h"
#include "devsim/device.h"
#include "fault/fault.h"
#include "minimpi/communicator.h"
#include "support/crc32.h"
#include "support/metrics.h"
#include "timemodel/timeline.h"

namespace psf {
namespace {

// --- plan parsing -----------------------------------------------------------

TEST(FaultPlan, ParsesCombinedSpec) {
  auto plan = fault::FaultPlan::parse(
      "device:1.gpu0@iter=3;msg_drop:p=0.01,seed=42;rank:2@vtime=1.5");
  ASSERT_TRUE(plan.is_ok()) << plan.status().message();
  const auto& value = plan.value();
  ASSERT_EQ(value.device_faults().size(), 1u);
  EXPECT_EQ(value.device_faults()[0].rank, 1);
  EXPECT_EQ(value.device_faults()[0].device, "gpu0");
  EXPECT_EQ(value.device_faults()[0].iteration, 3);
  ASSERT_NE(value.msg(), nullptr);
  EXPECT_DOUBLE_EQ(value.msg()->p_drop, 0.01);
  EXPECT_EQ(value.msg()->seed, 42u);
  ASSERT_EQ(value.rank_faults().size(), 1u);
  EXPECT_EQ(value.rank_faults()[0].rank, 2);
  EXPECT_DOUBLE_EQ(value.rank_faults()[0].vtime, 1.5);
}

TEST(FaultPlan, WildcardRankMatchesEveryRank) {
  auto plan = fault::FaultPlan::parse("device:*.gpu1@iter=2");
  ASSERT_TRUE(plan.is_ok());
  EXPECT_NE(plan.value().device_fault_due(0, "gpu1", 2), nullptr);
  EXPECT_NE(plan.value().device_fault_due(7, "gpu1", 2), nullptr);
  EXPECT_EQ(plan.value().device_fault_due(0, "gpu1", 1), nullptr);
  EXPECT_EQ(plan.value().device_fault_due(0, "gpu2", 2), nullptr);
}

TEST(FaultPlan, RejectsCpuTarget) {
  // A surviving device must exist to replay lost work; losing the CPU
  // breaks that contract and the parser says so up front.
  auto plan = fault::FaultPlan::parse("device:0.cpu0@iter=1");
  EXPECT_FALSE(plan.is_ok());
}

TEST(FaultPlan, RejectsBadProbabilityAndUnknownClause) {
  EXPECT_FALSE(fault::FaultPlan::parse("msg_drop:p=1.5").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("msg_drop:p=-0.1").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("gremlin:1").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("device:0.gpu1@iter=0").is_ok());
  EXPECT_FALSE(fault::FaultPlan::parse("rank:0@vtime=-2").is_ok());
}

TEST(FaultPlan, ServingClausesCoexistWithLegacyOnes) {
  // One plan can drive SPMD fault tolerance and serving chaos at once:
  // the legacy device/msg/rank clauses and the serving job_fail /
  // runner_stall / submit_burst clauses parse side by side.
  auto plan = fault::FaultPlan::parse(
      "device:1.gpu0@iter=3;msg_drop:p=0.01,seed=42;rank:2@vtime=1.5;"
      "job_fail:p=0.1,seed=7;runner_stall:ms=2,p=0.5;"
      "submit_burst:every=5,count=3");
  ASSERT_TRUE(plan.is_ok()) << plan.status().message();
  const auto& value = plan.value();
  EXPECT_EQ(value.device_faults().size(), 1u);
  EXPECT_NE(value.msg(), nullptr);
  EXPECT_EQ(value.rank_faults().size(), 1u);
  ASSERT_NE(value.job_fail(), nullptr);
  EXPECT_DOUBLE_EQ(value.job_fail()->p, 0.1);
  ASSERT_NE(value.runner_stall(), nullptr);
  EXPECT_EQ(value.runner_stall()->ms, 2);
  ASSERT_NE(value.submit_burst(), nullptr);
  EXPECT_EQ(value.submit_burst()->priority, 0) << "priority defaults to 0";
  EXPECT_TRUE(value.has_server_chaos());
  EXPECT_FALSE(value.empty());
}

TEST(FaultPlan, RejectsTwoDeviceLossesDueOnOneRankInOneIteration) {
  // A rank prices at most one device loss per iteration. Clauses overlap
  // when they share an iteration and their ranks are equal or either is
  // `*`; the error names both clauses.
  for (const char* spec :
       {"device:*.gpu1@iter=2;device:*.gpu2@iter=2",
        "device:0.gpu1@iter=2;device:*.gpu2@iter=2",
        "device:*.gpu1@iter=2;device:1.gpu2@iter=2",
        "device:1.gpu1@iter=2;device:1.gpu2@iter=2"}) {
    auto plan = fault::FaultPlan::parse(spec);
    ASSERT_FALSE(plan.is_ok()) << spec;
    EXPECT_EQ(plan.status().code(), support::ErrorCode::kInvalidArgument);
    const std::string message = plan.status().message();
    EXPECT_NE(message.find("gpu1@iter=2"), std::string::npos) << message;
    EXPECT_NE(message.find("gpu2@iter=2"), std::string::npos) << message;
  }
  EXPECT_TRUE(
      fault::FaultPlan::parse("device:0.gpu1@iter=2;device:1.gpu2@iter=2")
          .is_ok());
  EXPECT_TRUE(
      fault::FaultPlan::parse("device:*.gpu1@iter=2;device:*.gpu2@iter=3")
          .is_ok());
}

TEST(FaultPlan, EmptySpecParsesToEmptyPlan) {
  auto plan = fault::FaultPlan::parse("  ");
  ASSERT_TRUE(plan.is_ok());
  EXPECT_TRUE(plan.value().empty());
}

// --- CRC --------------------------------------------------------------------

TEST(FaultCrc, KnownAnswer) {
  const char* data = "123456789";
  EXPECT_EQ(support::crc32(std::as_bytes(std::span(data, 9))), 0xCBF43926u);
}

// --- mailbox fault plumbing -------------------------------------------------

TEST(FaultMailbox, PurgeDuplicatesDropsBackToBackCopies) {
  minimpi::Mailbox mailbox(2);
  for (int copy = 0; copy < 2; ++copy) {
    minimpi::Message message;
    message.source = 1;
    message.tag = 7;
    message.send_seq = 99;
    mailbox.deposit(std::move(message));
  }
  minimpi::Message first = mailbox.retrieve(1, 7);
  EXPECT_EQ(first.send_seq, 99u);
  EXPECT_EQ(mailbox.purge_duplicates(1, 7, first.send_seq), 1u);
  EXPECT_EQ(mailbox.pending(), 0u);
}

TEST(FaultMailbox, RetrieveForTimesOutWhenEmpty) {
  minimpi::Mailbox mailbox(2);
  minimpi::Message out;
  EXPECT_FALSE(mailbox.retrieve_for(0, 0, 0.02, out));
}

TEST(FaultMailbox, RecvDeadlineReportsDeadlineExceeded) {
  minimpi::World world(2);
  std::atomic<bool> timed_out{false};
  world.run([&](minimpi::Communicator& comm) {
    if (comm.rank() == 0) {
      std::byte buffer[8];
      auto result = comm.recv_deadline(1, 123, buffer, 0.05);
      timed_out = !result.is_ok() &&
                  result.status().code() ==
                      support::ErrorCode::kDeadlineExceeded;
    }
    comm.barrier();
  });
  EXPECT_TRUE(timed_out);
}

// --- simulated device loss (devsim contract) --------------------------------

TEST(FaultDevice, CleanLossExecutesNothingAndHostReplayHeals) {
  devsim::DeviceDescriptor gpu;
  gpu.type = devsim::DeviceType::kGpu;
  gpu.id = 1;
  gpu.compute_units = 4;
  gpu.memory_bytes = 1 << 20;
  gpu.shared_memory_per_sm = 48 * 1024;
  timemodel::Timeline host;
  devsim::Device device(gpu, host);

  std::atomic<int> executed{0};
  auto body = [&](const devsim::BlockContext&) { executed.fetch_add(1); };

  device.fail_at(2);
  device.run_blocks(4, 0, body);  // launch 1 survives
  EXPECT_EQ(executed.load(), 4);
  EXPECT_FALSE(device.lost());

  device.run_blocks(4, 0, body);  // launch 2 dies cleanly: ZERO blocks run
  EXPECT_TRUE(device.lost());
  EXPECT_EQ(executed.load(), 4);
  EXPECT_EQ(device.status().code(), support::ErrorCode::kDeviceLost);

  device.run_blocks(4, 0, body);  // lost devices no-op forever
  EXPECT_EQ(executed.load(), 4);

  device.host_replay(4, 0, body);  // the replay executes every block
  EXPECT_EQ(executed.load(), 8);

  device.restore();
  EXPECT_FALSE(device.lost());
  device.run_blocks(4, 0, body);
  EXPECT_EQ(executed.load(), 12);
}

// --- end-to-end recovery: bit-identical results -----------------------------

pattern::EnvOptions hybrid_options(const std::string& profile) {
  pattern::EnvOptions options;
  options.app_profile = profile;
  options.use_cpu = true;
  options.use_gpus = 2;
  options.workload_scale = 100.0;
  return options;
}

std::uint64_t counter_value(const char* name) {
  return metrics::Registry::global().counter(name).value();
}

struct KmeansRun {
  std::vector<double> vtimes;
  std::vector<double> centers;
};

KmeansRun run_kmeans(const std::string& plan, int ranks = 2) {
  apps::kmeans::Params params;
  params.num_points = 6000;
  params.num_clusters = 16;
  params.iterations = 3;
  const auto points = apps::kmeans::generate_points(params);
  KmeansRun run;
  run.vtimes.assign(static_cast<std::size_t>(ranks), 0.0);
  minimpi::World world(ranks);
  world.run([&](minimpi::Communicator& comm) {
    auto options = hybrid_options("kmeans");
    options.with_fault_plan(plan);
    const auto result =
        apps::kmeans::run_framework(comm, options, params, points);
    run.vtimes[static_cast<std::size_t>(comm.rank())] = result.vtime;
    if (comm.rank() == 0) run.centers = result.centers;
  });
  return run;
}

TEST(FaultGrDeviceLoss, KmeansSurvivesGpuLossBitIdentically) {
  const auto clean = run_kmeans("");
  const std::uint64_t recoveries = counter_value("fault.recoveries");
  const std::uint64_t losses = counter_value("fault.device_losses");
  const auto faulty = run_kmeans("device:*.gpu1@iter=2");
  EXPECT_GT(counter_value("fault.recoveries"), recoveries);
  EXPECT_GT(counter_value("fault.device_losses"), losses);

  ASSERT_EQ(clean.centers.size(), faulty.centers.size());
  for (std::size_t i = 0; i < clean.centers.size(); ++i) {
    ASSERT_EQ(clean.centers[i], faulty.centers[i]) << "center " << i;
  }
  // The loss costs virtual time: the survivors absorb the dead device's
  // chunks and the runtime pays the detection latency.
  for (std::size_t r = 0; r < clean.vtimes.size(); ++r) {
    EXPECT_GT(faulty.vtimes[r], clean.vtimes[r]) << "rank " << r;
  }
}

TEST(FaultGrRankRestart, KmeansRankRestartConvergesBitIdentically) {
  const auto clean = run_kmeans("");
  const std::uint64_t restarts = counter_value("fault.rank_restarts");
  const auto faulty = run_kmeans("rank:1@iter=2");
  EXPECT_GT(counter_value("fault.rank_restarts"), restarts);
  EXPECT_GT(counter_value("fault.checkpoint_bytes"), 0u);

  ASSERT_EQ(clean.centers.size(), faulty.centers.size());
  for (std::size_t i = 0; i < clean.centers.size(); ++i) {
    ASSERT_EQ(clean.centers[i], faulty.centers[i]) << "center " << i;
  }
  // The killed rank pays the restart + checkpoint reload.
  EXPECT_GE(faulty.vtimes[1], clean.vtimes[1] + fault::kRankRestartS);
}

TEST(FaultMsg, KmeansLossyTransportBitIdenticalWithRetries) {
  const auto clean = run_kmeans("");
  const std::uint64_t dropped = counter_value("minimpi.msgs_dropped");
  const std::uint64_t retries = counter_value("minimpi.retries");
  const auto faulty = run_kmeans("msg_drop:p=0.3,seed=9", /*ranks=*/3);
  EXPECT_GT(counter_value("minimpi.msgs_dropped"), dropped);
  EXPECT_GT(counter_value("minimpi.retries"), retries);

  // Retransmitted bytes are the original bytes: the answer cannot change.
  const auto clean3 = run_kmeans("", /*ranks=*/3);
  ASSERT_EQ(clean3.centers.size(), faulty.centers.size());
  for (std::size_t i = 0; i < clean3.centers.size(); ++i) {
    ASSERT_EQ(clean3.centers[i], faulty.centers[i]) << "center " << i;
  }
  (void)clean;
}

TEST(FaultMsg, CorruptDupAndDelayAllRecover) {
  const std::uint64_t corrupted = counter_value("minimpi.msgs_corrupted");
  const std::uint64_t dups = counter_value("minimpi.dup_deliveries");
  const std::uint64_t delayed = counter_value("minimpi.msgs_delayed");
  const auto faulty = run_kmeans(
      "msg_drop:p=0,corrupt=0.15,dup=0.15,delay_p=0.15,seed=4", /*ranks=*/3);
  EXPECT_GT(counter_value("minimpi.msgs_corrupted"), corrupted);
  EXPECT_GT(counter_value("minimpi.dup_deliveries"), dups);
  EXPECT_GT(counter_value("minimpi.msgs_delayed"), delayed);

  const auto clean = run_kmeans("", /*ranks=*/3);
  ASSERT_EQ(clean.centers.size(), faulty.centers.size());
  for (std::size_t i = 0; i < clean.centers.size(); ++i) {
    ASSERT_EQ(clean.centers[i], faulty.centers[i]) << "center " << i;
  }
}

TEST(FaultStDeviceLoss, Heat3dSurvivesGpuLossBitIdentically) {
  apps::heat3d::Params params;
  params.nx = params.ny = params.nz = 16;
  params.iterations = 4;
  const auto field = apps::heat3d::generate_field(params);

  auto run_once = [&](const std::string& plan) {
    minimpi::World world(2);
    apps::heat3d::Result result;
    world.run([&](minimpi::Communicator& comm) {
      auto options = hybrid_options("heat3d");
      options.with_fault_plan(plan);
      auto local = apps::heat3d::run_framework(comm, options, params, field);
      if (comm.rank() == 0) result = std::move(local);
    });
    return result;
  };

  const auto clean = run_once("");
  const auto faulty = run_once("device:*.gpu1@iter=2");
  ASSERT_EQ(clean.field.size(), faulty.field.size());
  for (std::size_t i = 0; i < clean.field.size(); ++i) {
    ASSERT_EQ(clean.field[i], faulty.field[i]) << "cell " << i;
  }
  EXPECT_GT(faulty.vtime, clean.vtime);
}

TEST(FaultStRankRestart, Heat3dRankRestartConvergesBitIdentically) {
  apps::heat3d::Params params;
  params.nx = params.ny = params.nz = 16;
  params.iterations = 4;
  const auto field = apps::heat3d::generate_field(params);

  auto run_once = [&](const std::string& plan) {
    minimpi::World world(4);
    apps::heat3d::Result result;
    world.run([&](minimpi::Communicator& comm) {
      auto options = hybrid_options("heat3d");
      options.with_fault_plan(plan);
      auto local = apps::heat3d::run_framework(comm, options, params, field);
      if (comm.rank() == 0) result = std::move(local);
    });
    return result;
  };

  const auto clean = run_once("");
  const std::uint64_t restarts = counter_value("fault.rank_restarts");
  const auto by_iter = run_once("rank:2@iter=2");
  const auto by_vtime = run_once("rank:0@vtime=0.0001");
  EXPECT_GE(counter_value("fault.rank_restarts"), restarts + 2);

  ASSERT_EQ(clean.field.size(), by_iter.field.size());
  ASSERT_EQ(clean.field.size(), by_vtime.field.size());
  for (std::size_t i = 0; i < clean.field.size(); ++i) {
    ASSERT_EQ(clean.field[i], by_iter.field[i]) << "cell " << i;
    ASSERT_EQ(clean.field[i], by_vtime.field[i]) << "cell " << i;
  }
  EXPECT_GT(by_iter.vtime, clean.vtime);
  EXPECT_GT(by_vtime.vtime, clean.vtime);
}

// A link that exhausts its retransmissions throws out of the halo exchange
// while the overlapped inner tiles may still be running on the executor;
// the sweep must join them before the exception unwinds the runtime whose
// grid they read, so the run ends in a Status at every executor width.
TEST(FaultStOverlap, ExhaustedLinkReturnsStatusAtEveryWidth) {
  const apps::sobel::Params params;
  const auto image = apps::sobel::generate_image(params);
  for (const int threads : {1, 3, 3, 3}) {
    minimpi::World world(2);
    const support::Status status =
        world.try_run([&](minimpi::Communicator& comm) {
          auto options = hybrid_options("sobel");
          options.num_threads = threads;
          options.overlap = true;
          options.with_fault_plan("msg_drop:p=0.99,retries=1,seed=1");
          (void)apps::sobel::run_framework(comm, options, params, image);
        });
    ASSERT_FALSE(status.is_ok()) << "threads=" << threads;
    EXPECT_EQ(status.code(), support::ErrorCode::kInternal);
    EXPECT_NE(status.message().find(
                  "exhausted 1 retransmissions under the fault plan"),
              std::string::npos)
        << status.to_string();
  }
}

TEST(FaultIrDeviceLoss, MoldynSurvivesGpuLossBitIdentically) {
  apps::moldyn::Params params;
  params.num_nodes = 1024;
  params.num_edges = 8192;
  params.iterations = 3;
  const auto edges = apps::moldyn::generate_edges(params);

  auto run_once = [&](const std::string& plan) {
    auto molecules = apps::moldyn::generate_molecules(params);
    minimpi::World world(2);
    double checksum = 0.0;
    double vtime = 0.0;
    world.run([&](minimpi::Communicator& comm) {
      auto options = hybrid_options("moldyn");
      options.with_fault_plan(plan);
      const auto result = apps::moldyn::run_framework(comm, options, params,
                                                      molecules, edges);
      if (comm.rank() == 0) {
        checksum = result.position_checksum;
        vtime = result.vtime;
      }
    });
    return std::pair{checksum, vtime};
  };

  const auto [clean_sum, clean_vtime] = run_once("");
  const auto [faulty_sum, faulty_vtime] = run_once("device:*.gpu1@iter=2");
  // The decomposition is preserved after the loss (the host replays the
  // dead device's edges), so the physics is bit-identical.
  EXPECT_DOUBLE_EQ(clean_sum, faulty_sum);
  EXPECT_GT(faulty_vtime, clean_vtime);
}

}  // namespace
}  // namespace psf
