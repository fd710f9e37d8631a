// PSF — hot-path microbenchmark: the pre-PR message transport versus the
// pooled zero-copy path.
//
// The "legacy" side is a faithful replica of the implementation this PR
// replaced: every send allocated a fresh std::vector<std::byte> payload and
// copied the staged bytes into it, and the mailbox was a single std::list
// guarded by one mutex with notify_all wakeups and a linear scan per
// retrieve. The "pooled" side is the shipped design: the pack writes
// straight into a recycled PooledBuffer (the staging buffer IS the
// message), and the sharded mailbox matches exact (source, tag) with a
// queue-front pop. Both sides model the halo/combine pattern the runtimes
// actually use: pack once, deposit, receive, consume the payload in place
// (recv_any semantics).
//
// Run: ./build/bench/perf_hotpath
//      --benchmark_filter='Transport'   for the headline pair; the
// acceptance bar for this PR is pooled >= 1.5x legacy on the
// message-heavy transport loop.
#include <benchmark/benchmark.h>

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <list>
#include <mutex>
#include <utility>
#include <vector>

#include "apps/heat3d.h"
#include "minimpi/communicator.h"
#include "minimpi/message.h"
#include "pattern/runtime_env.h"
#include "support/buffer_pool.h"

namespace {

/// Messages concurrently in flight per round, like a rank's posted isends
/// during a halo exchange or node-data scatter.
constexpr int kBatch = 8;

// --- pre-PR implementation replica ------------------------------------------

struct LegacyMessage {
  int source = 0;
  int tag = 0;
  std::vector<std::byte> payload;
};

class LegacyMailbox {
 public:
  void deposit(LegacyMessage message) {
    {
      std::lock_guard<std::mutex> guard(mutex_);
      queue_.push_back(std::move(message));
    }
    cv_.notify_all();
  }

  LegacyMessage retrieve(int source, int tag) {
    std::unique_lock<std::mutex> lock(mutex_);
    for (;;) {
      for (auto it = queue_.begin(); it != queue_.end(); ++it) {
        if (it->source == source && it->tag == tag) {
          LegacyMessage message = std::move(*it);
          queue_.erase(it);
          return message;
        }
      }
      cv_.wait(lock);
    }
  }

 private:
  std::mutex mutex_;
  std::condition_variable cv_;
  std::list<LegacyMessage> queue_;
};

// --- headline pair: message transport loop ----------------------------------

void BM_LegacyTransport(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::vector<std::byte> field(bytes, std::byte{0x5c});
  // Persistent staging vector — generous to the legacy side (the pre-PR
  // stencil re-allocated it every exchange).
  std::vector<std::byte> staging(bytes);
  LegacyMailbox mailbox;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      std::memcpy(staging.data(), field.data(), bytes);  // pack
      LegacyMessage message;
      message.source = 0;
      message.tag = 7;
      message.payload.assign(staging.begin(), staging.end());  // alloc + copy
      mailbox.deposit(std::move(message));
    }
    for (int i = 0; i < kBatch; ++i) {
      LegacyMessage message = mailbox.retrieve(0, 7);
      sink += static_cast<std::uint64_t>(message.payload[bytes / 2]);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch * static_cast<std::int64_t>(bytes));
}

void BM_PooledTransport(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  const std::vector<std::byte> field(bytes, std::byte{0x5c});
  psf::support::BufferPool pool;
  psf::minimpi::Mailbox mailbox(2);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int i = 0; i < kBatch; ++i) {
      auto staged = pool.acquire(bytes);                 // recycled, no alloc
      std::memcpy(staged.data(), field.data(), bytes);   // pack = the message
      psf::minimpi::Message message;
      message.source = 0;
      message.tag = 7;
      message.payload = std::move(staged);
      mailbox.deposit(std::move(message));
    }
    for (int i = 0; i < kBatch; ++i) {
      psf::minimpi::Message message = mailbox.retrieve(0, 7);
      sink += static_cast<std::uint64_t>(message.payload[bytes / 2]);
    }
  }
  benchmark::DoNotOptimize(sink);
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          kBatch * static_cast<std::int64_t>(bytes));
}

BENCHMARK(BM_LegacyTransport)->Arg(4 << 10)->Arg(64 << 10);
BENCHMARK(BM_PooledTransport)->Arg(4 << 10)->Arg(64 << 10);

// --- matching: multi-tag backlog --------------------------------------------
// A rank with several posted streams (halo tags per dimension, count/id/data
// tags in IR) retrieves from a backlog of unrelated traffic. The legacy list
// re-scans every queued message; the sharded mailbox jumps to the
// (source, tag) queue.

constexpr int kTags = 64;

void BM_LegacyMatching(benchmark::State& state) {
  LegacyMailbox mailbox;
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int tag = 0; tag < kTags; ++tag) {
      LegacyMessage message;
      message.source = 0;
      message.tag = tag;
      message.payload.resize(64);
      mailbox.deposit(std::move(message));
    }
    // Worst case: consume in reverse deposit order.
    for (int tag = kTags - 1; tag >= 0; --tag) {
      sink += static_cast<std::uint64_t>(mailbox.retrieve(0, tag).tag);
    }
  }
  benchmark::DoNotOptimize(sink);
}

void BM_ShardedMatching(benchmark::State& state) {
  psf::support::BufferPool pool;
  psf::minimpi::Mailbox mailbox(2);
  std::uint64_t sink = 0;
  for (auto _ : state) {
    for (int tag = 0; tag < kTags; ++tag) {
      psf::minimpi::Message message;
      message.source = 0;
      message.tag = tag;
      message.payload = pool.acquire(64);
      mailbox.deposit(std::move(message));
    }
    for (int tag = kTags - 1; tag >= 0; --tag) {
      sink += static_cast<std::uint64_t>(mailbox.retrieve(0, tag).tag);
    }
  }
  benchmark::DoNotOptimize(sink);
}

BENCHMARK(BM_LegacyMatching);
BENCHMARK(BM_ShardedMatching);

// --- end-to-end: World ping-pong (informational) ----------------------------
// The full Communicator path — virtual-time pricing, metrics, thread join —
// on the shipped implementation. No legacy twin exists at this level (the
// old transport is gone); the transport pair above carries the comparison.

void BM_WorldPingPong(benchmark::State& state) {
  const std::size_t bytes = static_cast<std::size_t>(state.range(0));
  constexpr int kRoundTrips = 64;
  for (auto _ : state) {
    psf::minimpi::World world(2);
    world.run([bytes](psf::minimpi::Communicator& comm) {
      for (int i = 0; i < kRoundTrips; ++i) {
        if (comm.rank() == 0) {
          auto ball = comm.acquire_buffer(bytes);
          comm.send_pooled(1, 3, std::move(ball));
          auto back = comm.recv_any(1, 4);
          benchmark::DoNotOptimize(back.payload.data());
        } else {
          auto ball = comm.recv_any(0, 3);
          comm.send_pooled(0, 4, std::move(ball.payload));
        }
      }
    });
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 2 *
                          kRoundTrips * static_cast<std::int64_t>(bytes));
}

BENCHMARK(BM_WorldPingPong)->Arg(4 << 10)->Arg(64 << 10);

// --- stencil overlap on/off pair --------------------------------------------
// Heat3D sweeps with communication/computation overlap plus the
// double-buffered stream pipeline versus the fully serialized schedule.
// Wall time here is informational (both run the same cell updates); the
// virtual-time improvement is pinned by compare_bench.py --assert-faster on
// the run_all heat3d_overlap/heat3d_nooverlap rows.

void run_heat3d_bench(benchmark::State& state, bool overlap) {
  psf::apps::heat3d::Params params;
  params.nx = params.ny = params.nz = 24;
  params.iterations = 4;
  const auto field = psf::apps::heat3d::generate_field(params);
  double vtime = 0.0;
  for (auto _ : state) {
    psf::minimpi::World world(2);
    world.run([&](psf::minimpi::Communicator& comm) {
      psf::pattern::EnvOptions options;
      options.app_profile = "heat3d";
      options.use_cpu = true;
      options.use_gpus = 2;
      options.workload_scale = 100.0;
      options.overlap = overlap;
      options.stream_pipeline = overlap;
      const auto result =
          psf::apps::heat3d::run_framework(comm, options, params, field);
      if (comm.rank() == 0) vtime = result.vtime;
    });
  }
  state.counters["vtime"] = vtime;
}

void BM_Heat3dNoOverlap(benchmark::State& state) {
  run_heat3d_bench(state, /*overlap=*/false);
}

void BM_Heat3dOverlapPipeline(benchmark::State& state) {
  run_heat3d_bench(state, /*overlap=*/true);
}

BENCHMARK(BM_Heat3dNoOverlap)->Unit(benchmark::kMillisecond);
BENCHMARK(BM_Heat3dOverlapPipeline)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
