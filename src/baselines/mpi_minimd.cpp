#include "baselines/mpi_minimd.h"

#include <algorithm>
#include <cmath>
#include <cstring>

#include "timemodel/rates.h"

namespace psf::baselines::mpi_minimd {

// [psf-user-code-begin]
namespace {

// Hand-written application: explicit atom block decomposition, an explicit
// global position synchronization every step (allreduce-assembled, the
// simple hand-written approach), per-rank force and integration loops.

using apps::minimd::Atom;

std::size_t block_begin(std::size_t total, int parts, int index) {
  const std::size_t base = total / static_cast<std::size_t>(parts);
  const std::size_t extra = total % static_cast<std::size_t>(parts);
  const std::size_t i = static_cast<std::size_t>(index);
  return i * base + std::min<std::size_t>(i, extra);
}

// The baseline carries its own cell-binned neighbor-list builder, as the
// Mantevo code does.
std::vector<pattern::Edge> build_neighbors(const apps::minimd::Params& params,
                                           const std::vector<double>& pos) {
  const std::size_t n = pos.size() / 3;
  const double reach = params.cutoff + params.skin;
  // Per-dimension cell grid over the actual extents (elongated boxes,
  // drifting atoms).
  double lo[3] = {1e300, 1e300, 1e300};
  double hi[3] = {-1e300, -1e300, -1e300};
  for (std::size_t i = 0; i < n; ++i) {
    for (int d = 0; d < 3; ++d) {
      lo[d] = std::min(lo[d], pos[i * 3 + static_cast<std::size_t>(d)]);
      hi[d] = std::max(hi[d], pos[i * 3 + static_cast<std::size_t>(d)]);
    }
  }
  std::size_t cells[3];
  for (int d = 0; d < 3; ++d) {
    cells[d] = std::max<std::size_t>(
        1, static_cast<std::size_t>((hi[d] - lo[d]) / reach));
  }
  auto cell_of = [&](std::size_t i, int d) {
    const double edge = (hi[d] - lo[d]) / static_cast<double>(cells[d]);
    auto c = static_cast<long long>(
        (pos[i * 3 + static_cast<std::size_t>(d)] - lo[d]) /
        std::max(edge, 1e-12));
    c = std::max<long long>(
        0, std::min<long long>(c, static_cast<long long>(cells[d]) - 1));
    return static_cast<std::size_t>(c);
  };
  auto cell_index = [&](std::size_t cx, std::size_t cy, std::size_t cz) {
    return (cx * cells[1] + cy) * cells[2] + cz;
  };
  std::vector<std::vector<std::uint32_t>> bins(cells[0] * cells[1] *
                                               cells[2]);
  for (std::size_t i = 0; i < n; ++i) {
    bins[cell_index(cell_of(i, 0), cell_of(i, 1), cell_of(i, 2))]
        .push_back(static_cast<std::uint32_t>(i));
  }
  const double reach2 = reach * reach;
  std::vector<pattern::Edge> edges;
  for (std::size_t cx = 0; cx < cells[0]; ++cx) {
    for (std::size_t cy = 0; cy < cells[1]; ++cy) {
      for (std::size_t cz = 0; cz < cells[2]; ++cz) {
        for (long long dx = -1; dx <= 1; ++dx) {
          for (long long dy = -1; dy <= 1; ++dy) {
            for (long long dz = -1; dz <= 1; ++dz) {
              const long long nx = static_cast<long long>(cx) + dx;
              const long long ny = static_cast<long long>(cy) + dy;
              const long long nz = static_cast<long long>(cz) + dz;
              if (nx < 0 || ny < 0 || nz < 0 ||
                  nx >= static_cast<long long>(cells[0]) ||
                  ny >= static_cast<long long>(cells[1]) ||
                  nz >= static_cast<long long>(cells[2])) {
                continue;
              }
              for (std::uint32_t i : bins[cell_index(cx, cy, cz)]) {
                for (std::uint32_t j :
                     bins[cell_index(static_cast<std::size_t>(nx),
                                     static_cast<std::size_t>(ny),
                                     static_cast<std::size_t>(nz))]) {
                  if (j <= i) continue;
                  double r2 = 0.0;
                  for (int d = 0; d < 3; ++d) {
                    const double delta = pos[i * 3 + d] - pos[j * 3 + d];
                    r2 += delta * delta;
                  }
                  if (r2 < reach2) edges.push_back({i, j});
                }
              }
            }
          }
        }
      }
    }
  }
  return edges;
}

bool lj_force(const double* a, const double* b, double cutoff2,
              double* force) {
  double delta[3];
  double r2 = 0.0;
  for (int d = 0; d < 3; ++d) {
    delta[d] = a[d] - b[d];
    r2 += delta[d] * delta[d];
  }
  if (r2 >= cutoff2 || r2 <= 1.0e-12) return false;
  const double inv_r2 = 1.0 / r2;
  const double inv_r6 = inv_r2 * inv_r2 * inv_r2;
  const double magnitude = 24.0 * inv_r6 * (2.0 * inv_r6 - 1.0) * inv_r2;
  for (int d = 0; d < 3; ++d) force[d] = magnitude * delta[d];
  return true;
}

}  // namespace

Result run(minimpi::Communicator& comm, const apps::minimd::Params& params,
           std::span<apps::minimd::Atom> atoms, double workload_scale,
           int omp_threads) {
  const int rank = comm.rank();
  const int size = comm.size();
  const std::size_t n = atoms.size();
  const std::size_t my_begin = block_begin(n, size, rank);
  const std::size_t my_end = block_begin(n, size, rank + 1);
  const double cutoff2 = params.cutoff * params.cutoff;
  const auto rates = timemodel::app_rates("minimd");

  // Per-rank state: positions of ALL atoms (synchronized every step) and
  // velocities of MY atoms only.
  std::vector<double> positions(n * 3);
  std::vector<double> velocities((my_end - my_begin) * 3);
  for (std::size_t i = 0; i < n; ++i) {
    for (int d = 0; d < 3; ++d) positions[i * 3 + d] = atoms[i].pos[d];
  }
  for (std::size_t i = my_begin; i < my_end; ++i) {
    for (int d = 0; d < 3; ++d) {
      velocities[(i - my_begin) * 3 + d] = atoms[i].vel[d];
    }
  }

  // Neighbor list: every rank builds the global list and keeps the edges
  // touching its own atoms.
  std::vector<pattern::Edge> edges = build_neighbors(params, positions);

  // Ghost-exchange peer set: the owners of remote endpoints of my edges.
  auto owner_of = [&](std::size_t atom) {
    // Invert the block partition.
    int lo = 0;
    int hi = size - 1;
    while (lo < hi) {
      const int mid = (lo + hi) / 2;
      if (atom < block_begin(n, size, mid + 1)) {
        hi = mid;
      } else {
        lo = mid + 1;
      }
    }
    return lo;
  };
  std::vector<int> peers;
  auto find_peers = [&]() {
    std::vector<bool> is_peer(static_cast<std::size_t>(size), false);
    for (const auto& edge : edges) {
      const bool u_mine = edge.u >= my_begin && edge.u < my_end;
      const bool v_mine = edge.v >= my_begin && edge.v < my_end;
      if (u_mine == v_mine) continue;  // both or neither
      is_peer[static_cast<std::size_t>(owner_of(u_mine ? edge.v : edge.u))] =
          true;
    }
    peers.clear();
    for (int p = 0; p < size; ++p) {
      if (is_peer[static_cast<std::size_t>(p)] && p != rank) {
        peers.push_back(p);
      }
    }
  };
  find_peers();
  constexpr int kGhostTag = 501;

  const double t0 = comm.timeline().now();
  std::vector<double> forces(n * 3);
  Result result;

  for (int iteration = 0; iteration < params.iterations; ++iteration) {
    if (iteration > 0 && params.rebuild_every > 0 &&
        iteration % params.rebuild_every == 0) {
      // Rebuild needs globally current positions: a collective sync, then
      // re-binning (each rank charges its share of the rebuild).
      std::vector<double> contribution(n * 3, 0.0);
      for (std::size_t i = my_begin * 3; i < my_end * 3; ++i) {
        contribution[i] = positions[i];
      }
      comm.allreduce<double>(contribution,
                             [](double& a, double b) { a += b; });
      positions = std::move(contribution);
      edges = build_neighbors(params, positions);
      find_peers();
      comm.timeline().advance(static_cast<double>(edges.size()) *
                              workload_scale / 1.0e8 /
                              static_cast<double>(size));
    }

    // Force pass over every edge with a local endpoint; only local atoms
    // accumulate (the remote endpoint's owner computes its own half).
    std::fill(forces.begin(), forces.end(), 0.0);
    std::size_t my_edges = 0;
    for (const auto& edge : edges) {
      const bool u_mine = edge.u >= my_begin && edge.u < my_end;
      const bool v_mine = edge.v >= my_begin && edge.v < my_end;
      if (!u_mine && !v_mine) continue;
      ++my_edges;
      double f[3];
      if (!lj_force(&positions[edge.u * 3], &positions[edge.v * 3], cutoff2,
                    f)) {
        continue;
      }
      if (u_mine) {
        for (int d = 0; d < 3; ++d) forces[edge.u * 3 + d] += f[d];
      }
      if (v_mine) {
        for (int d = 0; d < 3; ++d) forces[edge.v * 3 + d] -= f[d];
      }
    }
    // The force loop is OpenMP-parallel across the node's cores.
    comm.timeline().advance(static_cast<double>(my_edges) * workload_scale /
                            (rates.cpu_core_units_per_s *
                             static_cast<double>(omp_threads) * 11.0 / 12.0));

    // Integrate my atoms, then blocking ghost exchange: my whole block to
    // every edge-peer, their blocks into my copy (no overlap with compute,
    // unlike the framework).
    for (std::size_t i = my_begin; i < my_end; ++i) {
      for (int d = 0; d < 3; ++d) {
        velocities[(i - my_begin) * 3 + d] += forces[i * 3 + d] * params.dt;
        positions[i * 3 + d] +=
            velocities[(i - my_begin) * 3 + d] * params.dt;
      }
    }
    for (int p : peers) {
      comm.isend(p, kGhostTag,
                 std::as_bytes(std::span<const double>(
                     &positions[my_begin * 3], (my_end - my_begin) * 3)));
    }
    for (int p : peers) {
      auto message = comm.recv_any(p, kGhostTag);
      const std::size_t src_begin = block_begin(n, size, p);
      std::memcpy(&positions[src_begin * 3], message.payload.data(),
                  message.payload.size());
    }
  }
  result.last_edge_count = edges.size();

  // Energy: local kinetic energy, combined with a scalar allreduce.
  double local_ke = 0.0;
  for (std::size_t i = my_begin; i < my_end; ++i) {
    double v2 = 0.0;
    for (int d = 0; d < 3; ++d) {
      const double v = velocities[(i - my_begin) * 3 + d];
      v2 += v * v;
    }
    local_ke += 0.5 * v2;
  }
  result.kinetic_energy = comm.allreduce_value<double>(
      local_ke, [](double& a, double b) { a += b; });
  result.temperature =
      2.0 * result.kinetic_energy / (3.0 * static_cast<double>(n));
  result.vtime = comm.timeline().now() - t0;

  // Final full sync (outside the timed region) for the checksum.
  std::vector<double> contribution(n * 3, 0.0);
  for (std::size_t i = my_begin * 3; i < my_end * 3; ++i) {
    contribution[i] = positions[i];
  }
  comm.allreduce<double>(contribution, [](double& a, double b) { a += b; });
  for (std::size_t i = 0; i < n * 3; ++i) {
    result.position_checksum += contribution[i];
  }
  return result;
}
// [psf-user-code-end]

}  // namespace psf::baselines::mpi_minimd
