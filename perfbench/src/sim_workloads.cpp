// The two closed-loop workloads: paper-mix and halo-storm. Each operation
// (a pass over the paper apps, or one long Sobel run) is issued as soon as
// the previous one finished, so latency equals run time here.
#include <algorithm>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/heat3d.h"
#include "apps/kmeans.h"
#include "apps/minimd.h"
#include "apps/moldyn.h"
#include "apps/sobel.h"
#include "common.h"
#include "minimpi/communicator.h"
#include "pattern/runtime_env.h"
#include "support/buffer_pool.h"
#include "timemodel/rates.h"

namespace perfbench {
namespace {

using psf::minimpi::Communicator;
using psf::pattern::EnvOptions;
using psf::timemodel::TraceRecorder;

/// A closed-loop pass counts toward goodput when it finishes within this.
constexpr double kClosedLoopLimitMs = 1000.0;
/// A measured phase runs at least this many operations, however short
/// --seconds is.
constexpr std::size_t kMinOps = 12;

/// Paper-scale pricing of a scaled-down input (bench/bench_common.h).
struct Scales {
  std::string profile;
  double workload = 1.0;
  double comm = 0.0;
  double node = 0.0;
};

/// Cluster shape, pinned here rather than left to library defaults.
struct Shape {
  int ranks = 2;
  int width = 2;  ///< executor width per rank (rank thread + width-1 workers)
  bool cpu = true;
  int gpus = 2;
};

struct CallResult {
  double wall_s = 0.0;  ///< World construction + run
  double vtime = 0.0;   ///< World makespan, virtual seconds
  bool ok = false;      ///< output matches the sequential reference
};

/// One app call inside a pass: runs it (traced when `trace` is set) and
/// verifies the output.
struct SimApp {
  std::string name;   ///< apps.<name>.ms
  double cells = 0.0; ///< cell updates per call, for host_ns_per_cell
  std::function<CallResult(TraceRecorder*)> call;
};

struct SimWorkload {
  Shape shape;
  std::vector<SimApp> apps;
};

/// Runs `body(comm, options)` on a fresh Fig. 5-style World (InfiniBand
/// links, testbed overheads, library-default transport) and times it.
template <typename Body>
CallResult timed_world(const Shape& shape, const Scales& scales,
                       TraceRecorder* trace, Body&& body) {
  const auto start = Clock::now();
  psf::minimpi::World world(shape.ranks,
                            psf::timemodel::LinkModel::infiniband(),
                            psf::timemodel::testbed_preset().overheads);
  world.set_byte_scale(scales.comm);
  world.set_trace(trace);
  world.run([&](Communicator& comm) {
    EnvOptions options;
    options.app_profile = scales.profile;
    options.use_cpu = shape.cpu;
    options.use_gpus = shape.gpus;
    options.num_threads = shape.width;
    options.workload_scale = scales.workload;
    options.comm_scale = scales.comm;
    options.node_scale = scales.node;
    if (trace != nullptr) options.with_trace(trace);
    body(comm, options);
  });
  CallResult result;
  result.wall_s = seconds_since(start);
  result.vtime = world.makespan();
  return result;
}

/// Seeds each app's input generator from the workload seed.
std::uint64_t app_seed(std::uint64_t seed, std::uint64_t salt) {
  std::uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

// --- paper-mix -------------------------------------------------------------------

/// Inputs and sequential references for one paper-mix set-up. Sizes and
/// scales are those of bench/bench_common.h (the Fig. 5 / run_all inputs),
/// copied rather than included so that a later change to the figure
/// benches cannot silently change what this benchmark measures.
struct PaperInputs {
  psf::apps::kmeans::Params kmeans;
  std::vector<float> points;
  Scales kmeans_scales;
  psf::apps::kmeans::Result kmeans_ref;

  psf::apps::moldyn::Params moldyn;
  std::vector<psf::apps::moldyn::Molecule> molecules;
  std::vector<psf::pattern::Edge> edges;
  Scales moldyn_scales;
  psf::apps::moldyn::Result moldyn_ref;

  psf::apps::minimd::Params minimd;
  std::vector<psf::apps::minimd::Atom> atoms;
  Scales minimd_scales;
  psf::apps::minimd::Result minimd_ref;

  psf::apps::sobel::Params sobel;
  std::vector<float> image;
  Scales sobel_scales;
  psf::apps::sobel::Result sobel_ref;

  psf::apps::heat3d::Params heat3d;
  std::vector<double> field;
  Scales heat3d_scales;
  psf::apps::heat3d::Result heat3d_ref;
};

std::shared_ptr<PaperInputs> make_paper_inputs(std::uint64_t seed) {
  namespace apps = psf::apps;
  auto in = std::make_shared<PaperInputs>();

  in->kmeans.num_points = 100000;
  in->kmeans.num_clusters = 40;
  in->kmeans.iterations = 1;
  in->kmeans.seed = app_seed(seed, 1);
  in->points = apps::kmeans::generate_points(in->kmeans);
  in->kmeans_scales = {"kmeans", 2.0e8 / 100000.0, 1.0, 0.0};
  in->kmeans_ref = apps::kmeans::run_sequential(in->kmeans, in->points);

  in->moldyn.num_nodes = 8192;
  in->moldyn.num_edges = 65536;
  in->moldyn.aspect = 8.0;
  in->moldyn.iterations = 3;
  in->moldyn.seed = app_seed(seed, 2);
  in->molecules = apps::moldyn::generate_molecules(in->moldyn);
  in->edges = apps::moldyn::generate_edges(in->moldyn);
  const double moldyn_scale = 1.3e8 / static_cast<double>(in->edges.size());
  in->moldyn_scales = {"moldyn", moldyn_scale, moldyn_scale, 1.0e6 / 8192.0};
  {
    auto molecules = in->molecules;
    in->moldyn_ref =
        apps::moldyn::run_sequential(in->moldyn, molecules, in->edges);
  }

  in->minimd.num_atoms = 4096;
  in->minimd.side_xy = 4;
  in->minimd.iterations = 6;
  in->minimd.rebuild_every = 5;
  in->minimd.seed = app_seed(seed, 3);
  in->atoms = apps::minimd::generate_atoms(in->minimd);
  const double minimd_edges = static_cast<double>(
      apps::minimd::build_neighbor_list(in->minimd, in->atoms).size());
  const double minimd_scale = 5.0e5 * 37.0 / 2.0 / minimd_edges;
  in->minimd_scales = {"minimd", minimd_scale, minimd_scale, 5.0e5 / 4096.0};
  {
    auto atoms = in->atoms;
    in->minimd_ref = apps::minimd::run_sequential(in->minimd, atoms);
  }

  in->sobel.height = in->sobel.width = 1024;
  in->sobel.iterations = 3;
  in->sobel.seed = app_seed(seed, 4);
  in->image = apps::sobel::generate_image(in->sobel);
  const double sobel_k = 32768.0 / 1024.0;
  in->sobel_scales = {"sobel", sobel_k * sobel_k, sobel_k, 0.0};
  in->sobel_ref = apps::sobel::run_sequential(in->sobel, in->image);

  in->heat3d.nx = in->heat3d.ny = in->heat3d.nz = 64;
  in->heat3d.iterations = 3;
  in->heat3d.seed = app_seed(seed, 5);
  in->field = apps::heat3d::generate_field(in->heat3d);
  const double heat_k = 512.0 / 64.0;
  in->heat3d_scales = {"heat3d", heat_k * heat_k * heat_k, heat_k * heat_k,
                       0.0};
  in->heat3d_ref = apps::heat3d::run_sequential(in->heat3d, in->field);
  return in;
}

/// Output tolerances against run_sequential are those of tests/test_apps.cpp.
SimWorkload make_paper_mix(std::uint64_t seed) {
  namespace apps = psf::apps;
  const auto in = make_paper_inputs(seed);
  SimWorkload workload;
  workload.shape = Shape{2, 2, true, 2};
  const Shape shape = workload.shape;

  workload.apps.push_back({"kmeans", 0.0, [in, shape](TraceRecorder* trace) {
    apps::kmeans::Result out;
    auto result = timed_world(
        shape, in->kmeans_scales, trace,
        [&](Communicator& comm, const EnvOptions& options) {
          auto r = apps::kmeans::run_framework(comm, options, in->kmeans,
                                               in->points);
          if (comm.rank() == 0) out = std::move(r);
        });
    result.ok = close_all(out.centers, in->kmeans_ref.centers, 1e-6);
    return result;
  }});

  workload.apps.push_back({"moldyn", 0.0, [in, shape](TraceRecorder* trace) {
    auto molecules = in->molecules;  // run_framework integrates in place
    apps::moldyn::Result out;
    auto result = timed_world(
        shape, in->moldyn_scales, trace,
        [&](Communicator& comm, const EnvOptions& options) {
          auto r = apps::moldyn::run_framework(comm, options, in->moldyn,
                                               molecules, in->edges);
          if (comm.rank() == 0) out = r;
        });
    const auto& ref = in->moldyn_ref;
    result.ok = close(out.kinetic_energy, ref.kinetic_energy, 0.0, 1e-7) &&
                close(out.position_checksum, ref.position_checksum, 0.0,
                      1e-6);
    for (int d = 0; d < 3; ++d) {
      result.ok = result.ok &&
                  close(out.avg_velocity[d], ref.avg_velocity[d], 1e-9, 0.0);
    }
    return result;
  }});

  workload.apps.push_back({"minimd", 0.0, [in, shape](TraceRecorder* trace) {
    auto atoms = in->atoms;  // run_framework integrates in place
    apps::minimd::Result out;
    auto result = timed_world(
        shape, in->minimd_scales, trace,
        [&](Communicator& comm, const EnvOptions& options) {
          auto r = apps::minimd::run_framework(comm, options, in->minimd,
                                               atoms);
          if (comm.rank() == 0) out = r;
        });
    const auto& ref = in->minimd_ref;
    result.ok = out.last_edge_count == ref.last_edge_count &&
                close(out.kinetic_energy, ref.kinetic_energy, 1e-9, 1e-6) &&
                close(out.temperature, ref.temperature, 1e-9, 0.0) &&
                close(out.position_checksum, ref.position_checksum, 0.0,
                      1e-6);
    return result;
  }});

  const double sobel_cells = static_cast<double>(
      in->sobel.height * in->sobel.width * in->sobel.iterations);
  workload.apps.push_back(
      {"sobel", sobel_cells, [in, shape](TraceRecorder* trace) {
         apps::sobel::Result out;
         auto result = timed_world(
             shape, in->sobel_scales, trace,
             [&](Communicator& comm, const EnvOptions& options) {
               auto r = apps::sobel::run_framework(comm, options, in->sobel,
                                                   in->image);
               if (comm.rank() == 0) out = std::move(r);
             });
         result.ok = close_all(out.image, in->sobel_ref.image, 1e-4);
         return result;
       }});

  const double heat_cells = static_cast<double>(
      in->heat3d.nx * in->heat3d.ny * in->heat3d.nz * in->heat3d.iterations);
  workload.apps.push_back(
      {"heat3d", heat_cells, [in, shape](TraceRecorder* trace) {
         apps::heat3d::Result out;
         auto result = timed_world(
             shape, in->heat3d_scales, trace,
             [&](Communicator& comm, const EnvOptions& options) {
               auto r = apps::heat3d::run_framework(comm, options, in->heat3d,
                                                    in->field);
               if (comm.rank() == 0) out = std::move(r);
             });
         result.ok = close_all(out.field, in->heat3d_ref.field, 1e-10);
         return result;
       }});

  // The composition layer: the two-stage monitored heat3d pipeline with the
  // residual fused into the sweep.
  workload.apps.push_back(
      {"heat3d_fused", heat_cells, [in, shape](TraceRecorder* trace) {
         apps::heat3d::MonitoredResult out;
         auto result = timed_world(
             shape, in->heat3d_scales, trace,
             [&](Communicator& comm, const EnvOptions& options) {
               auto r = apps::heat3d::run_framework_monitored(
                   comm, options, in->heat3d, in->field, /*fused=*/true);
               if (comm.rank() == 0) out = std::move(r);
             });
         result.ok = close_all(out.field, in->heat3d_ref.field, 1e-10) &&
                     out.residuals.size() ==
                         static_cast<std::size_t>(in->heat3d.iterations);
         return result;
       }});
  return workload;
}

// --- halo-storm ------------------------------------------------------------------

/// Sobel on a 32x32 image for about 2000 iterations: many tiny halo
/// messages per run, so per-iteration runtime overhead dominates. The seed
/// picks the image and the exact iteration count (1990..2010), so every
/// seed is a distinct input whose vtime still repeats exactly.
SimWorkload make_halo_storm(std::uint64_t seed) {
  namespace apps = psf::apps;
  struct Inputs {
    apps::sobel::Params params;
    std::vector<float> image;
    Scales scales;
    apps::sobel::Result ref;
  };
  auto in = std::make_shared<Inputs>();
  in->params.height = in->params.width = 32;
  in->params.iterations = 1990 + static_cast<int>(app_seed(seed, 6) % 21);
  in->params.seed = app_seed(seed, 7);
  in->image = apps::sobel::generate_image(in->params);
  const double k = 32768.0 / 32.0;
  in->scales = {"sobel", k * k, k, 0.0};
  in->ref = apps::sobel::run_sequential(in->params, in->image);

  SimWorkload workload;
  workload.shape = Shape{4, 1, true, 2};
  const Shape shape = workload.shape;
  const double cells = static_cast<double>(
      in->params.height * in->params.width * in->params.iterations);
  workload.apps.push_back({"sobel", cells, [in, shape](TraceRecorder* trace) {
    apps::sobel::Result out;
    auto result = timed_world(
        shape, in->scales, trace,
        [&](Communicator& comm, const EnvOptions& options) {
          auto r = apps::sobel::run_framework(comm, options, in->params,
                                              in->image);
          if (comm.rank() == 0) out = std::move(r);
        });
    result.ok = close_all(out.image, in->ref.image, 1e-4);
    return result;
  }});
  return workload;
}

// --- the closed-loop driver --------------------------------------------------------

/// Samples of one measured phase.
struct Phase {
  std::vector<double> op_ms;                 ///< per operation (pass)
  std::vector<bool> op_contended;            ///< host stole CPU meanwhile
  std::vector<std::vector<double>> app_ms;   ///< per app, per call
  std::uint64_t failed = 0;
  CpSplit cp;          ///< summed over the apps of the first traced pass
  bool cp_done = false;
};

Report run_closed_loop(const Options& options,
                       const std::function<SimWorkload(std::uint64_t)>& make) {
  Report report;
  auto& pool = psf::support::BufferPool::global();

  // Set-up: input synthesis, sequential references, the warm pass and pool
  // warm-up. Repeated from a trimmed pool so every repeat pays the same.
  SimWorkload workload;
  std::vector<double> warm_vtime;
  const std::vector<double> setup_s = repeat_setup([&] {
    pool.trim();
    const auto start = Clock::now();
    workload = make(options.seed);
    warm_vtime.clear();
    for (auto& app : workload.apps) {
      const CallResult warm = app.call(nullptr);
      if (!warm.ok) report.invalid("warm " + app.name + " output is wrong");
      warm_vtime.push_back(warm.vtime);
    }
    // Headroom against scheduling variance in buffers held in flight.
    pool.prewarm();
    return seconds_since(start);
  });
  double vtime = 0.0;
  for (const double v : warm_vtime) vtime += v;

  const std::size_t n_apps = workload.apps.size();
  auto run_phase = [&](double budget_s, bool traced) {
    Phase phase;
    phase.app_ms.resize(n_apps);
    const auto start = Clock::now();
    while (phase.op_ms.size() < kMinOps || seconds_since(start) < budget_s) {
      const double stolen_before = host_stolen_s();
      double pass_s = 0.0;
      bool ok = true;
      CpSplit cp;
      for (std::size_t a = 0; a < n_apps; ++a) {
        std::unique_ptr<TraceRecorder> trace;
        if (traced) trace = std::make_unique<TraceRecorder>();
        const CallResult call = workload.apps[a].call(trace.get());
        pass_s += call.wall_s;
        phase.app_ms[a].push_back(call.wall_s * 1e3);
        // Virtual time must repeat bit for bit.
        ok = ok && call.ok && call.vtime == warm_vtime[a];
        if (traced && !phase.cp_done) cp += critical_path(*trace);
      }
      if (traced && !phase.cp_done) {
        phase.cp = cp;
        phase.cp_done = true;
      }
      phase.op_ms.push_back(pass_s * 1e3);
      phase.op_contended.push_back(
          contended(host_stolen_s() - stolen_before, pass_s));
      if (!ok) ++phase.failed;
    }
    return phase;
  };

  const double budget = options.trace ? options.seconds / 2 : options.seconds;
  const LayerTotals before = LayerTotals::capture_global();
  const Phase measured = run_phase(budget, false);
  const LayerTotals delta = LayerTotals::capture_global().minus(before);
  const double ops = static_cast<double>(measured.op_ms.size());
  report.attempted = measured.op_ms.size();
  report.failed = measured.failed;

  auto& v = report.values;
  const auto op_ms = uncontended(measured.op_ms, measured.op_contended);
  v["run_ms_p50"] = median(op_ms);
  v["run_ms_p90"] = tail_quantile(op_ms, 0.90);
  v["vtime_s"] = vtime;
  v["latency_p50_ms"] = v["run_ms_p50"];
  v["latency_p99_ms"] = tail_quantile(op_ms, 0.99);
  double good = 0.0, busy_s = 0.0;
  for (const double ms : op_ms) {
    if (ms <= kClosedLoopLimitMs) good += 1.0;
    busy_s += ms / 1e3;
  }
  v["goodput_jobs_per_s"] = good / busy_s;
  v["setup_s"] = median(setup_s);

  if (options.trace) {
    for (std::size_t a = 0; a < n_apps; ++a) {
      const auto& app = workload.apps[a];
      const double ms =
          median(uncontended(measured.app_ms[a], measured.op_contended));
      v["apps." + app.name + ".ms"] = ms;
      if (app.cells > 0.0) {
        v["apps." + app.name + ".host_ns_per_cell"] = ms * 1e6 / app.cells;
      }
    }
    record_layer_counts(delta, ops, report);
    run_probes(workload.shape.width, report);

    const Phase traced = run_phase(budget, true);
    report.attempted += traced.op_ms.size();
    report.failed += traced.failed;
    record_cp(traced.cp, 1.0, report);
    // The psf-analyze contract: the critical path is the makespan, bit
    // for bit, so the traced pass reproduces the untraced vtime.
    if (traced.cp.total != vtime) {
      report.invalid("traced critical-path total differs from vtime_s");
    }
    const double traced_p50 =
        median(uncontended(traced.op_ms, traced.op_contended));
    v["trace.overhead_frac"] = (traced_p50 - v["run_ms_p50"]) / v["run_ms_p50"];
    v["host.contended_frac"] = contended_share(measured.op_contended);
  }
  v["peak_rss_mb"] = peak_rss_mb();
  return report;
}

}  // namespace

Report run_paper_mix(const Options& options) {
  return run_closed_loop(options, make_paper_mix);
}

Report run_halo_storm(const Options& options) {
  return run_closed_loop(options, make_halo_storm);
}

}  // namespace perfbench
