// PSF — hot-path microbenchmark: the pooled zero-copy message transport.
//
// The pack writes straight into a recycled PooledBuffer (the staging buffer
// IS the message), and the sharded mailbox matches exact (source, tag) with
// a queue-front pop. The transport loop models the halo/combine pattern the
// runtimes actually use: pack once, deposit, receive, consume the payload in
// place (recv_any semantics).
//
// Run: ./build/bench/perf_hotpath
#include <benchmark/benchmark.h>

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <utility>
#include <vector>

#include "minimpi/communicator.h"
#include "minimpi/message.h"
#include "support/buffer_pool.h"

namespace {

/// Messages concurrently in flight per round, like a rank's posted isends
/// during a halo exchange or node-data scatter.
constexpr int kBatch = 8;

// --- message transport loop ------------------------------------------------

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

BENCHMARK(BM_PooledTransport)->Arg(4 << 10)->Arg(64 << 10);

// --- matching: multi-tag backlog --------------------------------------------
// A rank with several posted streams (halo tags per dimension, count/id/data
// tags in IR) retrieves from a backlog of unrelated traffic; the sharded
// mailbox jumps straight to the (source, tag) queue.

constexpr int kTags = 64;

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

BENCHMARK(BM_ShardedMatching);

// --- end-to-end: World ping-pong (informational) ----------------------------
// The full Communicator path — virtual-time pricing, metrics, thread join.

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

}  // namespace

BENCHMARK_MAIN();
