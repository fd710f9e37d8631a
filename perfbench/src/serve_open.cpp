// serve-open: an open-loop, seeded Poisson arrival schedule at one fixed
// offered rate against a Server with 2 workers and a 2-thread shared
// executor, using loadgen's 50/50 mix of small kmeans and sobel jobs. Each
// job's latency runs from its INTENDED arrival time, so a stall that delays
// later submissions is charged to them (no coordinated omission).
#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common.h"
#include "serve/jobs.h"
#include "serve/serve.h"
#include "support/buffer_pool.h"

namespace perfbench {
namespace {

using psf::serve::JobHandle;
using psf::serve::JobResult;
using psf::serve::JobSpec;
using psf::serve::JobState;
using psf::serve::Server;

/// Offered load: about 40% of the knee measured on a 4-core host (see
/// README.md for the sweep).
constexpr double kOfferedJobsPerS = 2400.0;
/// A job counts toward goodput when it completes within this.
constexpr double kLatencyLimitMs = 10.0;
/// The run is invalid (not slow) when the generator's p99 lateness
/// exceeds this: the schedule was not actually offered. Half the latency
/// limit, so lateness alone cannot push a job past it.
constexpr double kMaxLateP99Ms = 5.0;
/// Distinct input seeds per job kind; each (kind, variant) has its own
/// reference vtime.
constexpr int kVariants = 8;

struct Arrival {
  double at_s = 0.0;  ///< intended submission time after the start
  int variant = 0;    ///< [0, kVariants) kmeans, [kVariants, 2k) sobel
};

/// The seeded schedule: exponential gaps at `rate`, a fair kind coin and
/// a uniform input variant per job.
std::vector<Arrival> make_schedule(std::uint64_t seed, double rate,
                                   double seconds) {
  std::mt19937_64 rng(seed);
  auto uniform = [&rng] {
    return static_cast<double>(rng() >> 11) * 0x1.0p-53;  // [0, 1)
  };
  std::vector<Arrival> schedule;
  double t = 0.0;
  for (;;) {
    t += -std::log(1.0 - uniform()) / rate;
    if (t >= seconds) break;
    const bool sobel = uniform() < 0.5;
    const int variant = static_cast<int>(rng() % kVariants);
    schedule.push_back({t, sobel ? kVariants + variant : variant});
  }
  return schedule;
}

/// loadgen's small-job mix, pinned to 2 ranks on cpu+1gpu.
JobSpec make_job(std::uint64_t seed, int variant, bool traced) {
  const auto shape =
      psf::serve::jobs::WorkloadOptions{}.with_ranks(2).with_cpu(true).with_gpus(
          1);
  const auto data_seed =
      seed * 1000003ULL + static_cast<std::uint64_t>(variant);
  JobSpec spec;
  if (variant < kVariants) {
    psf::apps::kmeans::Params params;
    params.num_points = 1000;
    params.num_clusters = 4;
    params.iterations = 1;
    params.seed = data_seed;
    spec.with_name("kmeans").with_fn(psf::serve::jobs::kmeans(params, shape));
  } else {
    psf::apps::sobel::Params params;
    params.height = 48;
    params.width = 48;
    params.iterations = 1;
    params.seed = data_seed;
    spec.with_name("sobel").with_fn(psf::serve::jobs::sobel(params, shape));
  }
  spec.with_trace(traced);
  return spec;
}

std::unique_ptr<Server> make_server() {
  return std::make_unique<Server>(
      psf::serve::ServerOptions{}.with_workers(2).with_executor_threads(2));
}

/// Samples of the jobs whose intended arrival falls in one second.
struct Window {
  std::vector<double> latency_ms;
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> kind_run_ms[2];  ///< kmeans, sobel
  std::uint64_t good = 0;
  double wall_s = 0.0;    ///< generator time spent in the window
  double stolen_s = 0.0;  ///< host CPU time stolen meanwhile
};

/// Samples of one pass over the schedule.
struct Phase {
  std::vector<Window> windows;
  std::vector<double> late_ms;
  std::vector<double> submit_us;
  std::vector<double> vtime;  ///< per job, schedule order
  std::uint64_t failed = 0;
  LayerTotals job_totals;  ///< per-job registries, summed
  CpSplit cp;              ///< traced jobs, summed in schedule order

  /// The windows timing statistics use: the uncontended ones, or all when
  /// fewer than a quarter are.
  [[nodiscard]] std::vector<const Window*> used() const;
  /// Every sample of `field` over the used windows.
  [[nodiscard]] std::vector<double> gather(
      std::vector<double> Window::*field) const;
  [[nodiscard]] std::vector<bool> contended() const;
};

std::vector<bool> Phase::contended() const {
  std::vector<bool> flags;
  for (const auto& w : windows) {
    flags.push_back(perfbench::contended(w.stolen_s, w.wall_s));
  }
  return flags;
}

std::vector<const Window*> Phase::used() const {
  const auto flags = contended();
  std::vector<const Window*> clean, all;
  for (std::size_t i = 0; i < windows.size(); ++i) {
    all.push_back(&windows[i]);
    if (!flags[i]) clean.push_back(&windows[i]);
  }
  return clean.size() * 4 >= all.size() ? clean : all;
}

std::vector<double> Phase::gather(std::vector<double> Window::*field) const {
  std::vector<double> samples;
  for (const Window* w : used()) {
    samples.insert(samples.end(), (w->*field).begin(), (w->*field).end());
  }
  return samples;
}

struct Pending {
  JobHandle handle;
  std::size_t index = 0;
  Clock::time_point due;
  Clock::time_point submitted;
};

/// Offer `schedule` open-loop. Completed jobs are reaped between arrivals
/// in submission order; their latency comes from the server's own queue
/// and run timings, so reaping late does not inflate it.
Phase run_schedule(Server& server, std::uint64_t seed,
                   const std::vector<Arrival>& schedule,
                   const std::vector<double>& ref_vtime,
                   const std::vector<double>& ref_cp, bool traced,
                   bool collect_counters) {
  Phase phase;
  phase.vtime.assign(schedule.size(), 0.0);
  phase.windows.resize(static_cast<std::size_t>(schedule.back().at_s) + 1);
  std::vector<CpSplit> cp(traced ? schedule.size() : 0);
  std::deque<Pending> pending;

  auto reap = [&](const Pending& p) {
    const JobResult result = p.handle.wait();
    const int variant = schedule[p.index].variant;
    bool ok = result.state == JobState::kDone &&
              result.vtime == ref_vtime[static_cast<std::size_t>(variant)];
    const double latency_ms =
        (std::chrono::duration<double>(p.submitted - p.due).count() +
         result.queue_wall_s + result.run_wall_s) *
        1e3;
    Window& window =
        phase.windows[static_cast<std::size_t>(schedule[p.index].at_s)];
    if (ok && latency_ms <= kLatencyLimitMs) ++window.good;
    window.latency_ms.push_back(latency_ms);
    window.queue_ms.push_back(result.queue_wall_s * 1e3);
    window.run_ms.push_back(result.run_wall_s * 1e3);
    window.kind_run_ms[variant < kVariants ? 0 : 1].push_back(
        result.run_wall_s * 1e3);
    phase.vtime[p.index] = result.vtime;
    auto& context = p.handle.context();
    if (collect_counters) phase.job_totals.add(context.metrics());
    if (traced) {
      if (context.trace() == nullptr) {
        ok = false;
      } else {
        cp[p.index] = critical_path(*context.trace());
        ok = ok && cp[p.index].total ==
                       ref_cp[static_cast<std::size_t>(variant)];
      }
    }
    if (!ok) ++phase.failed;
  };
  auto reap_finished = [&] {
    while (!pending.empty()) {
      const JobState state = pending.front().handle.state();
      if (state == JobState::kQueued || state == JobState::kRunning) return;
      reap(pending.front());
      pending.pop_front();
    }
  };

  // Each window's wall and stolen time run from its first arrival to the
  // next window's (the last one's to the final submission).
  std::size_t marked = 0;
  auto mark = [&phase, &marked, last = Clock::now(),
               stolen = host_stolen_s()](std::size_t upto) mutable {
    const auto now = Clock::now();
    const double now_stolen = host_stolen_s();
    if (marked > 0) {
      Window& w = phase.windows[marked - 1];
      w.wall_s = std::chrono::duration<double>(now - last).count();
      w.stolen_s = now_stolen - stolen;
    }
    marked = upto;
    last = now;
    stolen = now_stolen;
  };
  const auto start = Clock::now() + std::chrono::milliseconds(2);
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double>(
                                     schedule[i].at_s));
    reap_finished();
    JobSpec spec = make_job(seed, schedule[i].variant, traced);
    std::this_thread::sleep_until(due);
    const std::size_t window = static_cast<std::size_t>(schedule[i].at_s);
    if (window + 1 > marked) mark(window + 1);
    const auto before = Clock::now();
    auto handle = server.submit(std::move(spec));
    const auto after = Clock::now();
    phase.late_ms.push_back(
        std::chrono::duration<double>(before - due).count() * 1e3);
    phase.submit_us.push_back(
        std::chrono::duration<double>(after - before).count() * 1e6);
    if (!handle.is_ok()) {  // refused: counts as failed and as a miss
      ++phase.failed;
      continue;
    }
    pending.push_back({handle.value(), i, due, after});
  }
  mark(marked);
  server.drain();
  for (const auto& p : pending) reap(p);
  pending.clear();
  for (const auto& split : cp) phase.cp += split;
  return phase;
}

/// Rounds of one job per (kind, variant), run to completion. Their vtimes
/// (and, traced, critical-path totals) are the references every measured
/// job must reproduce bit for bit. False when a job is refused or fails, or
/// a later round does not repeat the first.
bool run_references(Server& server, std::uint64_t seed, bool traced,
                    std::vector<double>& vtime, std::vector<double>& cp) {
  constexpr int kRounds = 4;
  std::vector<JobHandle> handles;
  for (int job = 0; job < kRounds * 2 * kVariants; ++job) {
    auto handle = server.submit(make_job(seed, job % (2 * kVariants), traced));
    if (!handle.is_ok()) return false;
    handles.push_back(handle.value());
  }
  server.drain();
  vtime.clear();
  cp.clear();
  for (std::size_t job = 0; job < handles.size(); ++job) {
    const JobResult result = handles[job].wait();
    if (result.state != JobState::kDone) return false;
    const double total =
        traced ? critical_path(*handles[job].context().trace()).total : 0.0;
    const std::size_t variant = job % (2 * kVariants);
    if (job == variant) {
      vtime.push_back(result.vtime);
      if (traced) cp.push_back(total);
    } else if (result.vtime != vtime[variant] ||
               (traced && total != cp[variant])) {
      return false;
    }
  }
  return true;
}

/// The median over the used windows of each window's p99 latency, so a
/// stall that spoils one window does not decide the figure. Windows too
/// short for a p99 with ten samples beyond it are skipped.
double windowed_p99(const Phase& phase) {
  std::vector<double> p99;
  for (const Window* w : phase.used()) {
    if (w->latency_ms.size() >= 1000) {
      p99.push_back(tail_quantile(w->latency_ms, 0.99));
    }
  }
  return p99.empty() ? tail_quantile(phase.gather(&Window::latency_ms), 0.99)
                     : median(p99);
}

}  // namespace

Report run_serve_open(const Options& options) {
  Report report;
  auto& pool = psf::support::BufferPool::global();
  const double rate = options.rate > 0.0 ? options.rate : kOfferedJobsPerS;

  // Set-up: server start-up plus the reference jobs, from a trimmed pool.
  std::unique_ptr<Server> server;
  std::vector<double> ref_vtime, ref_cp, warm_vtime, unused;
  const std::vector<double> setup_s = repeat_setup([&] {
    if (server) server->shutdown();  // the previous repeat's, untimed
    server.reset();
    pool.trim();
    const auto start = Clock::now();
    server = make_server();
    if (!run_references(*server, options.seed, false, warm_vtime, unused) ||
        (!ref_vtime.empty() && warm_vtime != ref_vtime)) {
      report.invalid("reference jobs did not repeat their vtimes");
    }
    ref_vtime = warm_vtime;
    pool.prewarm();
    return seconds_since(start);
  });
  if (options.trace &&
      (!run_references(*server, options.seed, true, warm_vtime, ref_cp) ||
       warm_vtime != ref_vtime)) {
    report.invalid("traced reference jobs changed their vtimes");
  }
  if (!report.problems.empty()) return report;

  const double seconds = options.trace ? options.seconds / 2 : options.seconds;
  const auto schedule = make_schedule(options.seed, rate, seconds);
  if (schedule.empty()) {
    report.invalid("the schedule is empty");
    return report;
  }
  const auto stats_before = server->stats();
  const LayerTotals before = LayerTotals::capture_global();
  const Phase measured = run_schedule(*server, options.seed, schedule,
                                      ref_vtime, ref_cp, false, options.trace);
  LayerTotals delta = LayerTotals::capture_global().minus(before);
  for (const auto& [name, value] : measured.job_totals.values) {
    if (name.rfind("support.pool.", 0) != 0) delta.values[name] += value;
  }
  const auto stats_after = server->stats();

  report.attempted = schedule.size();
  report.failed = measured.failed;
  double vtime = 0.0;
  for (const double v : measured.vtime) vtime += v;

  auto& v = report.values;
  const auto run_ms = measured.gather(&Window::run_ms);
  v["run_ms_p50"] = median(run_ms);
  v["run_ms_p90"] = tail_quantile(run_ms, 0.90);
  v["vtime_s"] = vtime;
  v["latency_p50_ms"] = median(measured.gather(&Window::latency_ms));
  v["latency_p99_ms"] = windowed_p99(measured);
  double good = 0.0, window_s = 0.0;
  for (const Window* w : measured.used()) {
    good += static_cast<double>(w->good);
    window_s += w->wall_s;
  }
  v["goodput_jobs_per_s"] = good / std::max(window_s, 1e-9);
  v["setup_s"] = median(setup_s);

  const double late_p99 = tail_quantile(measured.late_ms, 0.99);
  if (late_p99 > kMaxLateP99Ms) {
    report.invalid("generator p99 lateness " + std::to_string(late_p99) +
                   " ms exceeds its " + std::to_string(kMaxLateP99Ms) +
                   " ms bound");
  }

  if (options.trace) {
    const double jobs = static_cast<double>(schedule.size());
    std::vector<double> kind_ms[2];
    for (const Window* w : measured.used()) {
      for (int k = 0; k < 2; ++k) {
        kind_ms[k].insert(kind_ms[k].end(), w->kind_run_ms[k].begin(),
                          w->kind_run_ms[k].end());
      }
    }
    v["apps.kmeans.ms"] = median(kind_ms[0]);
    v["apps.sobel.ms"] = median(kind_ms[1]);
    record_layer_counts(delta, jobs, report);
    const auto queue_ms = measured.gather(&Window::queue_ms);
    v["serve.queue_ms_p50"] = median(queue_ms);
    v["serve.queue_ms_p99"] = tail_quantile(queue_ms, 0.99);
    v["serve.run_ms_p50"] = v["run_ms_p50"];
    v["serve.run_ms_p99"] = tail_quantile(run_ms, 0.99);
    v["host.contended_frac"] = contended_share(measured.contended());
    v["serve.submit_us_p99"] = tail_quantile(measured.submit_us, 0.99);
    v["serve.rejected"] =
        static_cast<double>(stats_after.rejected - stats_before.rejected);
    v["serve.failed"] =
        static_cast<double>(stats_after.failed - stats_before.failed);
    v["loadgen.late_ms_p99"] = late_p99;
    v["loadgen.late_ms_max"] =
        *std::max_element(measured.late_ms.begin(), measured.late_ms.end());
    run_probes(2, report);

    // Each traced job must reproduce its variant's critical-path total
    // (run_schedule counts a mismatch as failed). JobResult::vtime starts
    // after RuntimeEnv::init, so it is the total minus that modeled set-up;
    // the traced jobs' vtimes must still sum to vtime_s bit for bit.
    const Phase traced = run_schedule(*server, options.seed, schedule,
                                      ref_vtime, ref_cp, true, false);
    report.attempted += schedule.size();
    report.failed += traced.failed;
    record_cp(traced.cp, jobs, report);
    double traced_vtime = 0.0;
    for (const double x : traced.vtime) traced_vtime += x;
    if (traced_vtime != vtime) {
      report.invalid("traced jobs' vtime sum differs from vtime_s");
    }
    v["trace.overhead_frac"] =
        (median(traced.gather(&Window::run_ms)) - v["run_ms_p50"]) /
        v["run_ms_p50"];
  }
  server->shutdown();
  v["peak_rss_mb"] = peak_rss_mb();
  return report;
}

}  // namespace perfbench
