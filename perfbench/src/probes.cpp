// Layer probes: tight loops over one public entry point each, timed by the
// driver. Each probe reports the median of several batches, so a single
// preempted batch does not move it.
#include <cstring>
#include <functional>

#include "common.h"
#include "devsim/device.h"
#include "exec/thread_pool.h"
#include "minimpi/communicator.h"

namespace perfbench {
namespace {

constexpr int kBatches = 7;

/// Median over kBatches of (batch wall seconds / iterations) * scale.
double per_iteration(int iterations, double scale,
                     const std::function<void()>& batch) {
  std::vector<double> samples;
  for (int b = 0; b < kBatches; ++b) {
    const auto start = Clock::now();
    batch();
    samples.push_back(seconds_since(start) / iterations * scale);
  }
  return median(samples);
}

/// Two ranks bounce a 256 B pooled payload; one round trip per iteration.
double pingpong_us() {
  constexpr int kTrips = 500;
  constexpr std::size_t kBytes = 256;
  constexpr int kTag = 11;
  return per_iteration(kTrips, 1e6, [] {
    psf::minimpi::World world(2);
    world.run([](psf::minimpi::Communicator& comm) {
      const int peer = 1 - comm.rank();
      for (int i = 0; i < kTrips; ++i) {
        if (comm.rank() == 0) {
          auto payload = comm.acquire_buffer(kBytes);
          std::memset(payload.data(), i & 0xff, kBytes);
          comm.send_pooled(peer, kTag, std::move(payload));
          (void)comm.recv_any(peer, kTag);
        } else {
          auto message = comm.recv_any(peer, kTag);
          auto payload = comm.acquire_buffer(kBytes);
          std::memset(payload.data(), i & 0xff, kBytes);
          comm.send_pooled(peer, kTag, std::move(payload));
        }
      }
    });
  });
}

/// World construction plus run of an empty body.
double world_ms(int ranks) {
  constexpr int kWorlds = 20;
  return per_iteration(kWorlds, 1e3, [ranks] {
    for (int i = 0; i < kWorlds; ++i) {
      psf::minimpi::World world(ranks);
      world.run([](psf::minimpi::Communicator&) {});
    }
  });
}

/// ThreadPool::submit of an empty task, then wait on its future.
double submit_wait_us(int width) {
  constexpr int kTasks = 2000;
  psf::exec::ThreadPool pool(psf::exec::ThreadPool::resolve_workers(width));
  return per_iteration(kTasks, 1e6, [&pool] {
    for (int i = 0; i < kTasks; ++i) pool.submit([] {}).wait();
  });
}

/// Device::run_blocks of empty blocks, one per compute unit, on a GPU.
double launch_us(int width) {
  constexpr int kLaunches = 500;
  psf::exec::ThreadPool pool(psf::exec::ThreadPool::resolve_workers(width));
  psf::timemodel::Timeline host;
  psf::devsim::DeviceDescriptor descriptor;
  descriptor.type = psf::devsim::DeviceType::kGpu;
  descriptor.id = 1;
  psf::devsim::Device device(descriptor, host, &pool);
  const int blocks = descriptor.compute_units;
  return per_iteration(kLaunches, 1e6, [&device, blocks] {
    for (int i = 0; i < kLaunches; ++i) {
      device.run_blocks(blocks, 0, [](const psf::devsim::BlockContext&) {});
    }
  });
}

}  // namespace

void run_probes(int width, Report& report) {
  report.values["minimpi.pingpong_us"] = pingpong_us();
  report.values["minimpi.world_ms.r2"] = world_ms(2);
  report.values["minimpi.world_ms.r4"] = world_ms(4);
  report.values["exec.submit_wait_us"] = submit_wait_us(width);
  report.values["devsim.launch_us"] = launch_us(width);
}

}  // namespace perfbench
