// PSF — property-based tests: invariants checked over randomized inputs
// (seeded, reproducible). Covers the partitioners, the reduction object
// against an exact reference, the scheduler, message storms through
// minimpi, and the stencil runtime's cell-run enumerator against a
// per-cell classifier.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <set>
#include <string>
#include <vector>

#include "minimpi/cart.h"
#include "minimpi/communicator.h"
#include "pattern/partition.h"
#include "pattern/reduction_object.h"
#include "pattern/runtime_env.h"
#include "pattern/scheduler.h"
#include "pattern/stencil.h"
#include "support/rng.h"

namespace psf {
namespace {

class SeededProperty : public ::testing::TestWithParam<std::uint64_t> {};

// --- partition invariants -----------------------------------------------------

TEST_P(SeededProperty, BlockPartitionInvariants) {
  support::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t total = rng.next_below(10000) + 1;
    const int parts = static_cast<int>(rng.next_below(64)) + 1;
    pattern::BlockPartition split(total, parts);
    // Contiguity, coverage, and balance within 1.
    std::size_t cursor = 0;
    std::size_t min_size = total;
    std::size_t max_size = 0;
    for (int p = 0; p < parts; ++p) {
      ASSERT_EQ(split.begin(p), cursor);
      cursor = split.end(p);
      min_size = std::min(min_size, split.size(p));
      max_size = std::max(max_size, split.size(p));
    }
    ASSERT_EQ(cursor, total);
    ASSERT_LE(max_size - min_size, 1u);
    // Owner consistency on sampled indices.
    for (int sample = 0; sample < 20; ++sample) {
      const std::size_t index = rng.next_below(total);
      const int owner = split.owner(index);
      ASSERT_GE(index, split.begin(owner));
      ASSERT_LT(index, split.end(owner));
    }
  }
}

TEST_P(SeededProperty, WeightedPartitionInvariants) {
  support::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 50; ++trial) {
    const std::size_t total = rng.next_below(5000) + 1;
    const int parts = static_cast<int>(rng.next_below(16)) + 1;
    std::vector<double> weights(static_cast<std::size_t>(parts));
    for (auto& weight : weights) weight = rng.next_double();
    weights[rng.next_below(static_cast<std::uint64_t>(parts))] += 0.5;
    pattern::WeightedPartition split(total, weights);
    std::size_t cursor = 0;
    for (int p = 0; p < parts; ++p) {
      ASSERT_EQ(split.begin(p), cursor);
      cursor = split.end(p);
    }
    ASSERT_EQ(cursor, total);
    // Proportionality: each part within +-1.5% of total + 1 element of its
    // ideal share.
    const double sum = std::accumulate(weights.begin(), weights.end(), 0.0);
    for (int p = 0; p < parts; ++p) {
      const double ideal =
          static_cast<double>(total) * weights[static_cast<std::size_t>(p)] /
          sum;
      ASSERT_NEAR(static_cast<double>(split.size(p)), ideal,
                  0.015 * static_cast<double>(total) + 1.0);
    }
  }
}

// --- reduction object vs exact reference ---------------------------------------

void sum_reduce(void* dst, const void* src) {
  *static_cast<double*>(dst) += *static_cast<const double*>(src);
}

TEST_P(SeededProperty, ReductionObjectMatchesMapReference) {
  support::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t universe = rng.next_below(500) + 1;
    pattern::ReductionObject object(pattern::ObjectLayout::kHash,
                                    universe * 2, sizeof(double), sum_reduce);
    std::map<std::uint64_t, double> reference;
    const int ops = 2000;
    for (int op = 0; op < ops; ++op) {
      const std::uint64_t key = rng.next_below(universe);
      const double value = rng.next_in(-1.0, 1.0);
      object.insert(key, &value);
      reference[key] += value;
    }
    ASSERT_EQ(object.size(), reference.size());
    for (const auto& [key, value] : reference) {
      double out = 0.0;
      ASSERT_TRUE(object.lookup(key, &out));
      ASSERT_NEAR(out, value, 1e-9);
    }
    // Serialization round trip preserves everything.
    pattern::ReductionObject copy(pattern::ObjectLayout::kHash, universe * 2,
                                  sizeof(double), sum_reduce);
    copy.merge_serialized(object.serialize());
    ASSERT_EQ(copy.size(), reference.size());
  }
}

TEST_P(SeededProperty, MergeIsOrderInsensitive) {
  support::Xoshiro256 rng(GetParam());
  constexpr std::size_t kUniverse = 64;
  // Build three objects, merge in two different orders; results must agree.
  auto build = [&](std::uint64_t salt) {
    auto object = std::make_unique<pattern::ReductionObject>(
        pattern::ObjectLayout::kHash, kUniverse * 2, sizeof(double),
        sum_reduce);
    support::Xoshiro256 local(GetParam() ^ salt);
    for (int i = 0; i < 300; ++i) {
      const std::uint64_t key = local.next_below(kUniverse);
      const double value = local.next_in(0.0, 1.0);
      object->insert(key, &value);
    }
    return object;
  };
  auto a1 = build(1), b1 = build(2), c1 = build(3);
  auto a2 = build(1), b2 = build(2), c2 = build(3);

  a1->merge_from(*b1);
  a1->merge_from(*c1);
  c2->merge_from(*b2);
  c2->merge_from(*a2);

  ASSERT_EQ(a1->size(), c2->size());
  a1->for_each([&](std::uint64_t key, const void* value) {
    double other = 0.0;
    ASSERT_TRUE(c2->lookup(key, &other));
    ASSERT_NEAR(*static_cast<const double*>(value), other, 1e-9);
  });
}

// --- scheduler invariants --------------------------------------------------------

TEST_P(SeededProperty, SchedulerCoversWorkExactlyOnce) {
  support::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 30; ++trial) {
    const int num_devices = static_cast<int>(rng.next_below(5)) + 1;
    std::vector<pattern::DeviceSpec> devices(
        static_cast<std::size_t>(num_devices));
    for (auto& device : devices) {
      device.units_per_s = rng.next_in(1.0e6, 5.0e8);
      device.is_gpu = rng.next_below(2) == 1;
      device.bytes_per_unit = device.is_gpu ? rng.next_in(0.0, 16.0) : 0.0;
    }
    const std::size_t total = rng.next_below(100000) + 1;
    pattern::DynamicScheduler::Options options;
    options.chunk_units = rng.next_below(4) == 0 ? rng.next_below(977) + 1 : 0;
    const auto result =
        pattern::DynamicScheduler::run(devices, total, 0.0, options);
    // Coverage: chunks tile [0, total) exactly.
    std::size_t cursor = 0;
    std::size_t per_device_total = 0;
    for (const auto& chunk : result.chunks) {
      ASSERT_EQ(chunk.begin, cursor);
      ASSERT_LT(chunk.begin, chunk.end);
      ASSERT_GE(chunk.device, 0);
      ASSERT_LT(chunk.device, num_devices);
      cursor = chunk.end;
    }
    ASSERT_EQ(cursor, total);
    for (std::size_t units : result.device_units) per_device_total += units;
    ASSERT_EQ(per_device_total, total);
    // Makespan is the max lane.
    ASSERT_DOUBLE_EQ(result.makespan,
                     *std::max_element(result.device_finish.begin(),
                                       result.device_finish.end()));
  }
}

// --- minimpi message storm --------------------------------------------------------

TEST_P(SeededProperty, MessageStormConservesData) {
  const std::uint64_t seed = GetParam();
  constexpr int kRanks = 6;
  constexpr int kMessagesPerRank = 40;
  minimpi::World world(kRanks);
  std::vector<long> received_sums(kRanks, 0);
  std::vector<long> sent_sums(kRanks, 0);

  world.run([&](minimpi::Communicator& comm) {
    support::Xoshiro256 rng(seed ^ static_cast<std::uint64_t>(comm.rank()));
    // Decide (deterministically per rank) how many messages go where.
    std::vector<int> outgoing(kRanks, 0);
    long my_sent = 0;
    for (int m = 0; m < kMessagesPerRank; ++m) {
      const int dest = static_cast<int>(rng.next_below(kRanks));
      outgoing[static_cast<std::size_t>(dest)]++;
    }
    // Everyone learns how many messages to expect from everyone.
    std::vector<std::vector<std::byte>> counts(kRanks);
    for (int p = 0; p < kRanks; ++p) {
      counts[static_cast<std::size_t>(p)].resize(sizeof(int));
      std::memcpy(counts[static_cast<std::size_t>(p)].data(),
                  &outgoing[static_cast<std::size_t>(p)], sizeof(int));
    }
    const auto incoming_counts = comm.alltoallv(counts, 900);

    // Fire the payloads (random values, random interleaving).
    support::Xoshiro256 payload_rng(seed * 31 +
                                    static_cast<std::uint64_t>(comm.rank()));
    for (int p = 0; p < kRanks; ++p) {
      for (int m = 0; m < outgoing[static_cast<std::size_t>(p)]; ++m) {
        const long value = static_cast<long>(payload_rng.next_below(1000));
        my_sent += value;
        comm.send_value<long>(p, 901, value);
      }
    }
    long my_received = 0;
    for (int p = 0; p < kRanks; ++p) {
      int expect = 0;
      std::memcpy(&expect, incoming_counts[static_cast<std::size_t>(p)].data(),
                  sizeof(int));
      for (int m = 0; m < expect; ++m) {
        my_received += comm.recv_value<long>(p, 901);
      }
    }
    received_sums[static_cast<std::size_t>(comm.rank())] = my_received;
    sent_sums[static_cast<std::size_t>(comm.rank())] = my_sent;
  });

  const long sent = std::accumulate(sent_sums.begin(), sent_sums.end(), 0L);
  const long received =
      std::accumulate(received_sums.begin(), received_sums.end(), 0L);
  EXPECT_EQ(sent, received);
}

// --- stencil cell runs vs the per-cell classifier ---------------------------

struct StarParam {
  int ndims = 1;
  int halo = 1;
};

std::size_t padded_linear(const int* cell, const int* size, int ndims) {
  std::size_t index = 0;
  for (int d = 0; d < ndims; ++d) {
    index = index * static_cast<std::size_t>(size[d]) +
            static_cast<std::size_t>(cell[d]);
  }
  return index;
}

/// The cell plus its neighbors at +-halo along every dimension, so cells in
/// a halo band really read halo data.
void star_fp(const void* input, void* output, const int* offset,
             const int* size, const void* parameter) {
  const auto& p = *static_cast<const StarParam*>(parameter);
  const auto* in = static_cast<const double*>(input);
  int cell[3] = {offset[0], offset[1], offset[2]};
  double sum = in[padded_linear(cell, size, p.ndims)];
  for (int d = 0; d < p.ndims; ++d) {
    for (const int step : {-p.halo, p.halo}) {
      cell[d] += step;
      sum += in[padded_linear(cell, size, p.ndims)];
      cell[d] -= step;
    }
  }
  static_cast<double*>(output)[padded_linear(offset, size, p.ndims)] =
      sum * 0.125;
}

void star_row_fp(const void* input, void* output, const int* offset,
                 const int* size, int count, const void* parameter) {
  const auto& p = *static_cast<const StarParam*>(parameter);
  int cell[3] = {offset[0], offset[1], offset[2]};
  for (int i = 0; i < count; ++i, ++cell[p.ndims - 1]) {
    star_fp(input, output, cell, size, parameter);
  }
}

/// Records every fused emit as a padded linear index, per staging object
/// (one per (device, block, pass) launch), in emit order.
class EmitLog : public pattern::StencilEmitSink {
 public:
  struct Visit {
    bool inner = false;
    std::vector<std::size_t> cells;
  };

  pattern::ReductionObject* block_object(int /*device*/, int /*block*/,
                                         bool inner_pass) override {
    std::lock_guard<std::mutex> lock(mutex_);
    objects_.push_back(std::make_unique<pattern::ReductionObject>(
        pattern::ObjectLayout::kHash, 1, sizeof(double), sum_reduce));
    visits_[objects_.back().get()].inner = inner_pass;
    return objects_.back().get();
  }

  void record(const pattern::ReductionObject* object, std::size_t cell) {
    std::lock_guard<std::mutex> lock(mutex_);
    visits_[object].cells.push_back(cell);
  }

  [[nodiscard]] const std::map<const pattern::ReductionObject*, Visit>&
  visits() const {
    return visits_;
  }

 private:
  std::mutex mutex_;
  std::vector<std::unique_ptr<pattern::ReductionObject>> objects_;
  std::map<const pattern::ReductionObject*, Visit> visits_;
};

struct EmitTarget {
  EmitLog* log = nullptr;
  int ndims = 1;
};

void log_emit(pattern::ReductionObject* obj, const void* /*old_grid*/,
              const void* /*new_grid*/, const int* offset, const int* size,
              const void* parameter) {
  const auto& target = *static_cast<const EmitTarget*>(parameter);
  target.log->record(obj, padded_linear(offset, size, target.ndims));
}

/// One rank's cells classified one at a time: a cell is fixed within halo
/// of a non-periodic global border, in a band within halo of a face that
/// has a neighbor rank. Pricing counts band cells as boundary and every
/// other cell (fixed ones included) as inner; the inner pass computes only
/// cells that are neither fixed nor in a band.
struct CellOracle {
  std::size_t inner_count = 0;
  std::size_t boundary_count = 0;
  std::set<std::size_t> inner_pass;
  std::set<std::size_t> all;
};

CellOracle classify_cells(const std::vector<std::size_t>& dims,
                          const std::vector<bool>& periodic, int halo,
                          const std::vector<std::size_t>& ext,
                          const std::vector<std::size_t>& off) {
  const int ndims = static_cast<int>(dims.size());
  int size[3] = {0, 0, 0};
  for (int d = 0; d < ndims; ++d) {
    size[d] = static_cast<int>(ext[static_cast<std::size_t>(d)]) + 2 * halo;
  }
  CellOracle oracle;
  std::vector<std::size_t> i(dims.size(), 0);
  for (;;) {
    bool fixed = false;
    bool band = false;
    int padded[3] = {0, 0, 0};
    for (std::size_t d = 0; d < dims.size(); ++d) {
      const std::size_t g = off[d] + i[d];
      const auto h = static_cast<std::size_t>(halo);
      if (!periodic[d] && (g < h || g + h >= dims[d])) fixed = true;
      const bool lo_neighbor = periodic[d] || off[d] > 0;
      const bool hi_neighbor = periodic[d] || off[d] + ext[d] < dims[d];
      if ((lo_neighbor && i[d] < h) || (hi_neighbor && i[d] + h >= ext[d])) {
        band = true;
      }
      padded[d] = static_cast<int>(i[d]) + halo;
    }
    ++(band ? oracle.boundary_count : oracle.inner_count);
    const std::size_t cell = padded_linear(padded, size, ndims);
    oracle.all.insert(cell);
    if (!fixed && !band) oracle.inner_pass.insert(cell);
    int d = ndims - 1;
    while (d >= 0 && ++i[static_cast<std::size_t>(d)] ==
                         ext[static_cast<std::size_t>(d)]) {
      i[static_cast<std::size_t>(d)] = 0;
      --d;
    }
    if (d < 0) break;
  }
  return oracle;
}

TEST_P(SeededProperty, StencilRunsMatchPerCellClassifier) {
  support::Xoshiro256 rng(GetParam());
  for (int trial = 0; trial < 10; ++trial) {
    const int ndims = static_cast<int>(rng.next_below(3)) + 1;
    const int halo = static_cast<int>(rng.next_below(2)) + 1;
    const int ranks = static_cast<int>(rng.next_below(8)) + 1;
    const auto topology = minimpi::CartComm::choose_dims(ranks, ndims);
    std::vector<std::size_t> dims;
    std::vector<bool> periodic;
    for (int d = 0; d < ndims; ++d) {
      dims.push_back(
          static_cast<std::size_t>(topology[static_cast<std::size_t>(d)] *
                                   halo) +
          rng.next_below(12));
      periodic.push_back(rng.next_below(2) == 1);
    }
    pattern::EnvOptions options;
    options.app_profile = "heat3d";
    options.use_cpu = rng.next_below(4) != 0;
    options.use_gpus = static_cast<int>(rng.next_below(3));
    if (!options.use_cpu && options.use_gpus == 0) options.use_gpus = 1;
    options.num_threads = static_cast<int>(rng.next_below(2)) + 1;
    std::size_t cells = 1;
    for (const std::size_t extent : dims) cells *= extent;
    std::vector<double> initial(cells);
    for (auto& value : initial) value = rng.next_in(0.0, 1.0);
    const std::string where = "trial " + std::to_string(trial) + ": " +
                              std::to_string(ndims) + "-D, halo " +
                              std::to_string(halo) + ", " +
                              std::to_string(ranks) + " ranks";

    std::vector<std::vector<double>> written;
    for (const bool rows : {false, true}) {
      std::vector<double> out(cells, 0.0);
      minimpi::World world(ranks);
      world.run([&](minimpi::Communicator& comm) {
        pattern::RuntimeEnv env(comm, options);
        PSF_CHECK(env.init().is_ok());
        auto* st = env.get_ST();
        const StarParam param{ndims, halo};
        EmitLog log;
        const EmitTarget target{&log, ndims};
        st->set_stencil_func(star_fp);
        if (rows) st->set_row_func(star_row_fp);
        st->set_grid(initial.data(), sizeof(double), dims);
        st->set_halo(halo);
        st->set_periodic(periodic);
        st->set_parameter(&param);
        st->set_fused_emit(log_emit, &target, &log);
        EXPECT_TRUE(st->start().is_ok());

        const auto oracle = classify_cells(dims, periodic, halo,
                                           st->local_extents(),
                                           st->global_offset());
        const std::string rank =
            where + ", rank " + std::to_string(comm.rank());
        EXPECT_EQ(st->stats().inner_cells, oracle.inner_count) << rank;
        EXPECT_EQ(st->stats().boundary_cells, oracle.boundary_count) << rank;
        // Each interior cell exactly once per sweep, ascending within each
        // (device, block, pass); the inner pass gets exactly its cells.
        std::size_t emits = 0;
        std::set<std::size_t> emitted;
        std::set<std::size_t> inner_emitted;
        bool ascending = true;
        for (const auto& [object, visit] : log.visits()) {
          ascending = ascending && std::is_sorted(visit.cells.begin(),
                                                  visit.cells.end());
          emits += visit.cells.size();
          emitted.insert(visit.cells.begin(), visit.cells.end());
          if (visit.inner) {
            inner_emitted.insert(visit.cells.begin(), visit.cells.end());
          }
        }
        EXPECT_TRUE(ascending) << rank;
        EXPECT_EQ(emits, oracle.all.size()) << rank;
        EXPECT_EQ(emitted, oracle.all) << rank;
        EXPECT_EQ(inner_emitted, oracle.inner_pass) << rank;

        st->clear_fused_emit();
        EXPECT_TRUE(st->start().is_ok());
        st->write_back(out.data());
      });
      written.push_back(std::move(out));
    }
    EXPECT_EQ(written[0], written[1]) << where << ": row kernel changed grid";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SeededProperty,
                         ::testing::Values(1u, 42u, 12345u, 777777u));

}  // namespace
}  // namespace psf
