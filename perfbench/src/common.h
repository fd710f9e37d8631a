// psf-perfbench — shared pieces of the benchmark driver: options, the
// report every workload fills, order statistics, registry deltas, the
// critical-path split of a trace, and the layer probes.
//
// Every layer is measured from outside: the driver times its own calls into
// public functions and reads the public metrics::Registry counters. Nothing
// here adds instrumentation to the framework.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "support/metrics.h"
#include "timemodel/trace.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  double rate = 0.0;  ///< serve-open offered jobs/s; 0 = the fixed rate
};

/// Set-up repeats at least kMinSetups times and until kSetupBudgetS of
/// set-up time is spent (at most kMaxSetups); setup_s is the median.
inline constexpr std::size_t kMinSetups = 3;
inline constexpr std::size_t kMaxSetups = 40;
inline constexpr double kSetupBudgetS = 1.0;

/// Call `setup` (which returns the seconds its timed part took) as set out
/// above; returns the samples.
template <typename Setup>
std::vector<double> repeat_setup(Setup&& setup) {
  std::vector<double> samples;
  double total = 0.0;
  while (samples.size() < kMinSetups ||
         (total < kSetupBudgetS && samples.size() < kMaxSetups)) {
    samples.push_back(setup());
    total += samples.back();
  }
  return samples;
}

/// What one workload run produced. `values` holds metrics by their
/// BENCHMARK.json name; main() prints the set the mode asks for.
struct Report {
  std::uint64_t attempted = 0;  ///< operations measured (pass, run or job)
  std::uint64_t failed = 0;     ///< failed, refused, expired or wrong
  std::vector<std::string> problems;  ///< why the run is not valid
  std::map<std::string, double> values;

  void invalid(std::string why) { problems.push_back(std::move(why)); }
};

// --- order statistics --------------------------------------------------------

[[nodiscard]] double median(std::vector<double> samples);

/// Nearest-rank `q` quantile, lowered when needed so that at least ten
/// samples lie beyond it (the tail a sample count can support), but never
/// below the median. 0 when `samples` is empty.
[[nodiscard]] double tail_quantile(std::vector<double> samples, double q);

/// |a - b| <= abs_tol + rel_tol * |b|, false for non-finite values.
[[nodiscard]] bool close(double a, double b, double abs_tol, double rel_tol);

template <typename A, typename B>
[[nodiscard]] bool close_all(const A& a, const B& b, double abs_tol) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!close(static_cast<double>(a[i]), static_cast<double>(b[i]), abs_tol,
               0.0)) {
      return false;
    }
  }
  return true;
}

[[nodiscard]] double peak_rss_mb();

// --- host contention ---------------------------------------------------------

/// CPU time the hypervisor has stolen from this machine's CPUs so far,
/// summed over CPUs (the steal column of /proc/stat); 0 where unavailable.
[[nodiscard]] double host_stolen_s();

/// True when the CPU time stolen during an interval of `wall_s` exceeds 5%
/// of the machine's CPU capacity over it: the interval's timing then
/// describes the host's other tenants more than the program.
[[nodiscard]] bool contended(double stolen_s, double wall_s);

/// The samples whose interval was not contended, or all of them when fewer
/// than a quarter were: timing statistics skip host-stolen intervals as
/// long as enough clean ones remain.
[[nodiscard]] std::vector<double> uncontended(
    const std::vector<double>& samples, const std::vector<bool>& contended);

/// The share of intervals that were contended.
[[nodiscard]] double contended_share(const std::vector<bool>& contended);

// --- layer counters ------------------------------------------------------------

/// Counter values and timer seconds by registry name, plus the global
/// BufferPool's hit/miss accessors. Deltas of two snapshots taken around a
/// measured phase give the work each layer did in it.
struct LayerTotals {
  std::map<std::string, double> values;

  /// Add every counter and timer (seconds) of `registry`.
  void add(const psf::metrics::Registry& registry);
  /// The process-global registry plus the global pool's own statistics.
  [[nodiscard]] static LayerTotals capture_global();
  [[nodiscard]] LayerTotals minus(const LayerTotals& before) const;
  [[nodiscard]] double get(const std::string& name) const;
};

/// Store the per-layer counts of `delta` divided by `ops` (per operation).
void record_layer_counts(const LayerTotals& delta, double ops, Report& report);

// --- trace analysis ----------------------------------------------------------

/// analysis::analyze's critical path: the bit-exact total and its split.
struct CpSplit {
  double total = 0.0;
  double compute = 0.0;
  double comm = 0.0;
  double copy = 0.0;
  double idle = 0.0;

  CpSplit& operator+=(const CpSplit& other);
};

[[nodiscard]] CpSplit critical_path(const psf::timemodel::TraceRecorder& trace);

/// Store the timemodel.cp_* metrics, per operation.
void record_cp(const CpSplit& sum, double ops, Report& report);

// --- layer probes (probes.cpp) -------------------------------------------------

/// Time the public entry points of minimpi, exec and devsim directly:
/// minimpi.pingpong_us, minimpi.world_ms.r2/.r4, exec.submit_wait_us at
/// executor width `width`, devsim.launch_us.
void run_probes(int width, Report& report);

// --- workloads -----------------------------------------------------------------

Report run_paper_mix(const Options& options);
Report run_halo_storm(const Options& options);
Report run_serve_open(const Options& options);

}  // namespace perfbench
